"""Reference outputs for every benchmark point, independent of the program.

Every norm is a LAPACK singular value decomposition; nothing here uses power
iteration. The measured sequences are evaluated on the target register where
the algebra allows it:

* zeno1 and mub: with P = 1 (x) |phi><phi| and S the select unitary,
  P S(dt) P = A(dt) (x) |phi><phi|, A(dt) = sum_k |phi_k|^2 U_k(dt). The
  error is ||A^N - U|| and the success probability ||A^N psi||^2.
* zeno2: the step is B (x) |phi><phi| with B = 2 A(dt/2)^2 - A(dt).
* kicks: (R S)^N is applied to the d_t-column slab 1 (x) |phi>, with each
  Pauli string applied as a signed permutation; the error is the norm of
  the slab minus U (x) |phi>.
* sampled: every surviving shot follows the path A^k psi / ||.||, so the
  per-step success probabilities q_k are computed once. Shot i draws
  ``default_rng(seed + i).random()`` once per step and survives while
  u < q_k, which is how one ``Generator.choice`` draw picks outcome 0.
* qdrift: the superoperator power and the Choi trace norm, as the README
  defines them.

Errors, bounds and convergence do not depend on the seeded relabeling (see
``instances``), so the errors are computed once for the base panel and
stored in ``reference.json``; run ``python3 perfbench/oracle.py`` to
rewrite it. Success probabilities depend on the initial state, hence on
the relabeling, and are computed per run.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

from instances import Instance, base_panel

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
MANIFEST = HERE / "workloads.json"

SQRT_HALF = 1.0 / math.sqrt(2.0)


def spectral_norm(a: np.ndarray) -> float:
    return float(np.linalg.svd(a, compute_uv=False)[0])


def exact_unitary(inst: Instance, t: float) -> np.ndarray:
    w, v = np.linalg.eigh(inst.matrix())
    return (v * np.exp(-1j * t * w)) @ v.conj().T


def _rotation(p: np.ndarray, theta: float) -> np.ndarray:
    return math.cos(theta) * np.eye(p.shape[0], dtype=complex) - 1j * math.sin(theta) * p


class Blocks:
    """Ancilla state and per-block data of the extended register."""

    def __init__(self, inst: Instance, variant: str):
        h = inst.coefficients
        num_terms = len(h)
        d_a = 1 << (num_terms - 1).bit_length()
        d_t = 2**inst.num_qubits
        pad = d_a - num_terms
        self.paulis = inst.paulis() + [np.eye(d_t, dtype=complex)] * pad
        if variant == "standard":
            lam = inst.lam
            self.phi = np.concatenate([np.sqrt(np.array(h) / lam), np.zeros(pad)])
            self.rates = [lam] * num_terms + [0.0] * pad
        else:
            self.phi = np.full(d_a, 1.0 / math.sqrt(d_a))
            self.rates = [d_a * x for x in h] + [0.0] * pad

    def corner(self, dt: float) -> np.ndarray:
        """A(dt) = <phi| S(dt) |phi> on the target register."""
        return sum(
            abs(f) ** 2 * _rotation(p, r * dt) for f, p, r in zip(self.phi, self.paulis, self.rates)
        )


def projected_step(inst: Instance, method: str, t: float, n: int) -> np.ndarray:
    """Target-register operator of one zeno1, zeno2 or mub step."""
    blocks = Blocks(inst, "mub" if method == "mub" else "standard")
    dt = t / n
    if method == "zeno2":
        half = blocks.corner(dt / 2.0)
        return 2.0 * half @ half - blocks.corner(dt)
    return blocks.corner(dt)


def kicks_error(inst: Instance, t: float, n: int) -> float:
    blocks = Blocks(inst, "standard")
    phi = blocks.phi
    d_a, d_t = phi.shape[0], 2**inst.num_qubits
    perm = np.array([np.argmax(np.abs(p), axis=1) for p in blocks.paulis])
    val = np.array([p[np.arange(d_t), pm] for p, pm in zip(blocks.paulis, perm)])
    theta = np.array(blocks.rates) * (t / n)
    cos = np.cos(theta)[:, None, None]
    isin = 1j * np.sin(theta)[:, None, None]
    rows = np.arange(d_a)[:, None]
    slab = phi[:, None, None] * np.eye(d_t, dtype=complex)[None]
    for _ in range(n):
        slab = cos * slab - isin * (val[:, :, None] * slab[rows, perm])
        slab = 2.0 * phi[:, None, None] * np.tensordot(phi, slab, axes=1)[None] - slab
    target = phi[:, None, None] * exact_unitary(inst, t)[None]
    return spectral_norm((slab - target).reshape(d_a * d_t, d_t))


def trotter_error(inst: Instance, t: float, n: int) -> float:
    dt = t / n
    step = np.eye(2**inst.num_qubits, dtype=complex)
    for h, p in zip(inst.coefficients, inst.paulis()):
        step = step @ _rotation(p, h * dt)
    return spectral_norm(np.linalg.matrix_power(step, n) - exact_unitary(inst, t))


def _choi(superop: np.ndarray, d: int) -> np.ndarray:
    return superop.reshape(d, d, d, d).transpose(1, 3, 0, 2).reshape(d * d, d * d)


def qdrift_error(inst: Instance, t: float, n: int) -> float:
    """Choi trace-norm lower bound on the diamond distance to the exact channel."""
    lam = inst.lam
    d = 2**inst.num_qubits
    step = np.zeros((d * d, d * d), dtype=complex)
    for h, p in zip(inst.coefficients, inst.paulis()):
        u = _rotation(p, lam * t / n)
        step += (h / lam) * np.kron(u.conj(), u)
    u = exact_unitary(inst, t)
    diff = _choi(np.linalg.matrix_power(step, n), d) - _choi(np.kron(u.conj(), u), d)
    return float(np.sum(np.linalg.svd(diff, compute_uv=False))) / d


def error(inst: Instance, method: str, t: float, n: int) -> float:
    if method in ("zeno1", "zeno2", "mub"):
        repeated = np.linalg.matrix_power(projected_step(inst, method, t, n), n)
        return spectral_norm(repeated - exact_unitary(inst, t))
    if method == "kicks":
        return kicks_error(inst, t, n)
    if method == "trotter1":
        return trotter_error(inst, t, n)
    if method == "qdrift":
        return qdrift_error(inst, t, n)
    raise ValueError(f"unknown method {method!r}")


def bounds(inst: Instance, method: str, t: float, n: int) -> tuple[float | None, float]:
    """Closed-form (error bound, success bound), evaluated as the README states them."""
    lam, h_max = inst.lam, inst.h_max
    if method == "zeno1":
        return t * t * lam * lam / n, max(0.0, 1.0 - 2.0 * lam * lam * t * t / n)
    if method == "zeno2":
        return lam**3 * t**3 / (3.0 * n * n), max(0.0, 1.0 - 4.0 * lam**3 * t**3 / (3.0 * n * n))
    if method == "mub":
        width = float(1 << (len(inst.terms) - 1).bit_length())
        eff = width * h_max
        return t * t * width * width * h_max * h_max / n, max(0.0, 1.0 - 2.0 * eff * eff * t * t / n)
    if method == "kicks":
        return (2.0 / n) * (SQRT_HALF + 1.0) * lam * t * (1.0 + 2.0 * lam * t), 1.0
    if method == "qdrift":
        return 4.0 * lam * lam * t * t / n, 1.0
    return None, 1.0


def _initial_state(inst: Instance) -> np.ndarray:
    psi = np.zeros(2**inst.num_qubits, dtype=complex)
    psi[0] = 1.0
    return psi


def success_probability(inst: Instance, method: str, t: float, n: int) -> float:
    if method not in ("zeno1", "zeno2", "mub"):
        return 1.0
    step = projected_step(inst, method, t, n)
    final = np.linalg.matrix_power(step, n) @ _initial_state(inst)
    return float(min(1.0, np.linalg.norm(final) ** 2))


def sampled_successes(inst: Instance, method: str, t: float, n: int, shots: int, seed: int) -> int:
    step = projected_step(inst, method, t, n)
    psi = _initial_state(inst)
    q = np.empty(n)
    for k in range(n):
        psi = step @ psi
        q[k] = np.vdot(psi, psi).real
        psi = psi / math.sqrt(q[k])
    return sum(
        bool(np.all(np.random.default_rng(seed + i).random(n) < q)) for i in range(shots)
    )


def expected_points(inst, method, mode, ns, t, epsilons, shots=None, seed=None) -> list[dict]:
    """Every output field of the CLI's JSON points, given the error at each N."""
    points = []
    for n, eps in zip(ns, epsilons):
        eps_bound, p_bound = bounds(inst, method, t, n)
        sampled = None
        if mode == "sampled":
            sampled = sampled_successes(inst, method, t, n, shots, seed) / shots
        points.append({
            "method": method,
            "N": n,
            "delta_t": t / n,
            "epsilon_measured": eps,
            "epsilon_bound": eps_bound,
            "bound_satisfied": eps_bound is None or eps <= eps_bound + 1e-12,
            "p_succ_exact": success_probability(inst, method, t, n),
            "p_succ_bound": p_bound,
            "p_succ_sampled": sampled,
            "shots": shots if mode == "sampled" else None,
            "seed": seed if mode == "sampled" else None,
        })
    return points


def panel_points(manifest: dict):
    """Yield (instance name, method, N) for every point of every workload."""
    seen = set()
    for spec in manifest["workloads"].values():
        for group in spec["groups"]:
            for name in group["instances"]:
                for method in group["methods"]:
                    for n in group.get("sweep") or group["n"]:
                        if (name, method, n) not in seen:
                            seen.add((name, method, n))
                            yield name, method, n


def point_key(name: str, method: str, n: int) -> str:
    return f"{name} {method} {n}"


def load_manifest() -> dict:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def build_reference(manifest: dict) -> dict:
    t = manifest["t"]
    panel = base_panel(manifest["panel_seed"], manifest["instances"])
    epsilon = {}
    for name, method, n in panel_points(manifest):
        eps = error(panel[name], method, t, n)
        bound, _ = bounds(panel[name], method, t, n)
        if bound is not None and abs(eps - bound) <= 1e-6 * bound:
            raise ValueError(f"{name} {method} N={n}: error {eps} too close to its bound {bound}")
        epsilon[point_key(name, method, n)] = eps
        print(f"{name:>5} {method:>8} N={n:<5} epsilon={eps:.12g}", file=sys.stderr)
    return {
        "panel_seed": manifest["panel_seed"],
        "t": t,
        "instances": {name: inst.text() for name, inst in panel.items()},
        "epsilon": epsilon,
    }


if __name__ == "__main__":
    REFERENCE.write_text(json.dumps(build_reference(load_manifest()), indent=1) + "\n", encoding="utf-8")
