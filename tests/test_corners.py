"""The corner grid: every method and mode at extreme t and N, on small instances and at the size ceiling.

Each case runs the command line in-process at every t and N of the corner grid in ``tests/ceiling.json``, one
shot in sampled mode. two_term and tfim_three_qubit run in every mode, each ceiling instance in the modes that
file lists for it. The bounds are theorems, so every case must exit 0 with every bound satisfied and a success
probability not below its bound. Channel mode on ``ceiling_6q32`` is the documented limit exit 3. At t = 0, on
twelve random instances of 1 to 6 qubits, every method must read an error of exactly 0 and a success probability of
exactly 1.
"""

import contextlib
import io
import json
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from ceiling import CEILING, FILES
from conftest import random_hamiltonian
from zeno_references import CORNER_INSTANCES, REFERENCES

from zenosim import build_extended, load_hamiltonian, run_kicks
from zenosim.cli import main
from zenosim.experiments import METHODS, MODES

ROOT = Path(__file__).resolve().parent.parent
INSTANCES = {
    "two_term": ROOT / "demos" / "hamiltonians" / "two_term.txt",
    "tfim_three_qubit": ROOT / "demos" / "hamiltonians" / "tfim_three_qubit.txt",
    **FILES,
}
CEILING_MODES = {name: instance["modes"] for name, instance in CEILING["instances"].items()}
TIMES, STEPS = CEILING["corners"]["t"], CEILING["corners"]["n"]

def _cases():
    for instance in INSTANCES:
        for method, (modes, _, _) in METHODS.items():
            for mode in (m for m in modes if m in CEILING_MODES.get(instance, MODES)):
                for t in TIMES:
                    for n in STEPS:
                        yield pytest.param(instance, method, mode, t, n, id=f"{instance}-{method}-{mode}-t{t}-N{n}")


def _run(instance: str, method: str, mode: str, t: str, n: str) -> tuple[int, str, str]:
    argv = ["--hamiltonian", str(INSTANCES[instance]), "--method", method, "--mode", mode,
            "--t", t, "--n", n, "--format", "json"]
    if mode == "sampled":
        argv += ["--shots", "1"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("instance,method,mode,t,n", _cases())
def test_corner_holds_every_bound(instance, method, mode, t, n):
    code, out, err = _run(instance, method, mode, t, n)
    assert code in (0, 4), err
    payload = json.loads(out)
    for p in payload["points"]:
        assert p["p_succ_exact"] >= p["p_succ_bound"] - 1e-12, p
    assert code == 0 and payload["all_bounds_satisfied"], payload["points"]


@pytest.mark.parametrize("t", TIMES)
@pytest.mark.parametrize("n", STEPS)
def test_six_qubit_channel_mode_is_a_limit_exit(t, n):
    code, out, err = _run("ceiling_6q32", "qdrift", "channel", t, n)
    assert (code, out) == (3, "")
    assert err == "zenosim: limit exceeded: channel mode supports at most 5 qubits, got 6\n"


# Relative, with no absolute slack; fixed before any reading was compared with its reference.
KICKS_TOLERANCE = 1e-9
KICKS_UNRESOLVED = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 14: at t = 1e150 one ulp of an eigenvalue times t is about 1e134 rad, so no "
    "float64 reading resolves E t modulo 2 pi; the reading stays in [0, 2] but is not the exact one")


@pytest.mark.parametrize("instance,t,n", [
    pytest.param(instance, t, n, marks=[KICKS_UNRESOLVED] if t == "1e150" else [], id=f"{instance}-t{t}-N{n}")
    for instance in CORNER_INSTANCES for t in TIMES for n in STEPS
])
def test_kicks_corner_matches_reference(instance, t, n):
    reference = float(json.loads(REFERENCES.read_text(encoding="utf-8"))[f"{instance} kicks t={t} N={n}"]["epsilon"])
    reading = run_kicks(build_extended(load_hamiltonian(INSTANCES[instance])), float(t), int(n)).epsilon_measured
    assert abs(reading - reference) <= KICKS_TOLERANCE * reference, (reading, reference)


def _zero_time_instance(seed: int):
    """Instance ``seed``: 1 + seed % 6 qubits and 1 to 32 distinct words."""
    rng = np.random.default_rng(seed)
    num_qubits = 1 + seed % 6
    return random_hamiltonian(rng, int(rng.integers(1, min(32, 4**num_qubits - 1) + 1)), num_qubits)


ZERO_TIME_INSTANCES = [_zero_time_instance(seed) for seed in range(12)]
ZERO_TIME_STEPS = (1, 10**3, 10**6)


def _zero_time_points(method: str, n: int):
    """``method``'s points at t = 0 and N = ``n`` on every instance (qdrift's channel on those of <= 3 qubits)."""
    modes, variant, point = METHODS[method]
    if "sampled" in modes:
        point = partial(point, psi0=None, shots=None, seed=0)
    return [point(h if variant is None else build_extended(h, variant), 0.0, n)
            for h in ZERO_TIME_INSTANCES if method != "qdrift" or h.num_qubits <= 3]


ZERO_TIME_CASES = [pytest.param(method, n, id=f"{method}-N{n}") for method in METHODS for n in ZERO_TIME_STEPS]


# At t = 0 every method's step is the identity on the target, so its error is exactly 0 and its success probability
# exactly 1, at every N.
@pytest.mark.parametrize("method,n", ZERO_TIME_CASES)
def test_time_zero_error_is_exactly_zero(method, n):
    readings = [p.epsilon_measured for p in _zero_time_points(method, n)]
    assert readings == [0.0] * len(readings)


@pytest.mark.parametrize("method,n", ZERO_TIME_CASES)
def test_time_zero_success_is_exactly_one(method, n):
    readings = [p.p_succ_exact for p in _zero_time_points(method, n)]
    assert readings == [1.0] * len(readings)
