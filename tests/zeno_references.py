"""High-precision references for the standard-projector sequences (tests only).

For the standard projector the step A(dt) = cos(theta) - i sin(theta) H / lam
is a function of H (theta = lam dt), so on the eigenvector psi_j of H it is
the scalar mu_j = cos(theta) - i a_j sin(theta) with a_j = E_j / lam (zeno1),
or 2 A(dt/2)^2 - A(dt), which is 1 - a_j^2 (1 - cos(theta)) - i a_j sin(theta)
(zeno2). The step is normal, so

    error   = max_j |mu_j^N - exp(-i E_j t)|,
    p_succ  = sum_j |<psi_j|psi0>|^2 |mu_j|^(2N).

This module evaluates both in 40-digit mpmath arithmetic, with the spectrum
of H from ``mpmath.eighe`` and lam the exact sum of the parsed (binary)
coefficients.

The kick sequence keeps one plane per eigenvalue E of H, where a kick is
[[c - isa, -isb], [isb, -c - isa]] with a = E / lam, b = sqrt(1 - a^2) and
c, s = cos, sin(theta); its error is the largest distance of the first column
of the N-th power from (exp(-iEt), 0). That power cancels against exp(-iEt)
down to 1e-31 at t = 1e-12, N = 10^6, binary powering loses about N ulps, and
at t = 1e150 the phases E t and lam t / N take 150 digits before the point, so
the kicks references are computed with KICKS_DIGITS digits.

``python zeno_references.py``, run from ``tests/`` with ``src`` and ``perfbench``
on PYTHONPATH, rewrites ``zeno_references.json``: the golden zeno1, zeno2 and
kicks points, the 6-qubit, 32-term zeno2 point at the step cap, and kicks at
every point of the corner grid (``ceiling.json``) on two_term, tfim_three_qubit
and ceiling_6q32. The tests read the JSON, so they need no mpmath.
"""

import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "zeno_references.json"
GOLDEN_INSTANCES = ("two_term", "three_term", "tfim_three_qubit")
GOLDEN_STEPS = (10, 20, 40, 80, 100, 160, 1000)  # the JSON sweeps, and the sampled and compare step counts
CORNER_INSTANCES = ("two_term", "tfim_three_qubit", "ceiling_6q32")
DIGITS = 40
KICKS_DIGITS = 220  # 60 digits past the 150 that t = 1e150 puts before the point


def _hamiltonian_matrix(h, mp):
    """H as an mpmath matrix, each coefficient taken exactly from its binary value."""
    paulis = {
        "I": [[1, 0], [0, 1]],
        "X": [[0, 1], [1, 0]],
        "Y": [[0, -1j], [1j, 0]],
        "Z": [[1, 0], [0, -1]],
    }
    dim = 2**h.num_qubits
    out = mp.zeros(dim, dim)
    for term in h.terms:
        weight = mp.mpf(term.coefficient) * term.sign
        for row in range(dim):
            for col in range(dim):
                entry = mp.mpc(1)
                for q, axis in enumerate(term.axes):
                    shift = h.num_qubits - 1 - q
                    entry *= paulis[axis][(row >> shift) & 1][(col >> shift) & 1]
                    if entry == 0:
                        break
                out[row, col] += weight * entry
    return out


def reference(h, order, t, n, psi_indices=(0,)):
    """(error, [p_succ for each basis state in psi_indices]) as mpmath numbers."""
    import mpmath as mp

    mp.mp.dps = DIGITS
    energies, vectors = mp.eighe(_hamiltonian_matrix(h, mp))
    lam = mp.fsum(mp.mpf(term.coefficient) for term in h.terms)
    t = mp.mpf(t)
    theta = lam * t / n
    mus = []
    for energy in energies:
        a = energy / lam
        if order == 1:
            mus.append(mp.cos(theta) - 1j * a * mp.sin(theta))
        else:
            mus.append(1 - a * a * (1 - mp.cos(theta)) - 1j * a * mp.sin(theta))
    error = max(abs(mu**n - mp.expj(-energy * t)) for mu, energy in zip(mus, energies))
    successes = [
        mp.fsum(abs(vectors[index, j]) ** 2 * abs(mu) ** (2 * n) for j, mu in enumerate(mus))
        for index in psi_indices
    ]
    return error, successes


def kicks_reference(h, times_and_steps):
    """[kicks error at (t, n) for each pair in times_and_steps] as mpmath numbers, from one eigendecomposition."""
    import mpmath as mp

    mp.mp.dps = KICKS_DIGITS
    energies = mp.eighe(_hamiltonian_matrix(h, mp), eigvals_only=True)
    lam = mp.fsum(mp.mpf(term.coefficient) for term in h.terms)
    errors = []
    for t, n in times_and_steps:
        t = mp.mpf(t)
        c, s = mp.cos(lam * t / n), mp.sin(lam * t / n)
        worst = mp.mpf(0)
        for energy in energies:
            a = energy / lam
            b = mp.sqrt(max(mp.mpf(0), 1 - a * a))
            power = mp.matrix([[c - 1j * s * a, -1j * s * b], [1j * s * b, -c - 1j * s * a]]) ** n
            worst = max(worst, mp.sqrt(abs(power[0, 0] - mp.expj(-energy * t)) ** 2 + abs(power[1, 0]) ** 2))
        errors.append(worst)
    return errors


def _load(name):
    from conftest import ceiling_hamiltonian

    from zenosim import load_hamiltonian

    if name.startswith("ceiling"):
        return ceiling_hamiltonian(name)
    return load_hamiltonian(HERE.parent / "demos" / "hamiltonians" / f"{name}.txt")


def main():
    import mpmath as mp

    def digits(x):
        return mp.nstr(x, 20, min_fixed=1, max_fixed=0)

    table = {}
    for name in GOLDEN_INSTANCES:
        h = _load(name)
        for n, error in zip(GOLDEN_STEPS, kicks_reference(h, [(1, n) for n in GOLDEN_STEPS])):
            table[f"{name} kicks {n}"] = {"epsilon": digits(error)}
        for order in (1, 2):
            for n in GOLDEN_STEPS:
                error, successes = reference(h, order, 1, n, psi_indices=(0, 1))
                table[f"{name} zeno{order} {n}"] = {"epsilon": digits(error), "p_succ": [digits(p) for p in successes]}
    error, successes = reference(_load("ceiling_6q32"), 2, 1, 10**6)
    table["ceiling_6q32 zeno2 1000000"] = {"epsilon": digits(error), "p_succ": [digits(successes[0])]}
    corners = json.loads((HERE / "ceiling.json").read_text(encoding="utf-8"))["corners"]
    points = [(t, n) for t in corners["t"] for n in corners["n"]]
    for name in CORNER_INSTANCES:
        errors = kicks_reference(_load(name), [(float(t), int(n)) for t, n in points])
        for (t, n), error in zip(points, errors):
            table[f"{name} kicks t={t} N={n}"] = {"epsilon": digits(error)}
    REFERENCES.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
