"""Equivalent inputs give the same output: replacing H by 2^k H and t by t / 2^k changes no reading.

A power-of-two scale is exact in floating point, so lam * t, every eigenvalue times t and every rotation angle
rate * dt are bit-identical after it. Every method's error, error bound and success probability must then be
bit-identical too; that guards the rule that time enters a run only as a rate times a time.
"""

from dataclasses import replace
from pathlib import Path

import pytest
from conftest import ceiling_hamiltonian

from zenosim import PauliHamiltonian, build_extended, load_hamiltonian, run_kicks, run_zeno
from zenosim.channels import qdrift_point, trotter_point

TFIM = Path(__file__).resolve().parent.parent / "demos" / "hamiltonians" / "tfim_three_qubit.txt"
SCALES = (-3, 5)
POINTS = ((1.0, 10**3), (1e-4, 10**6))

# Every method as point(h, t, n).
METHODS = {
    "zeno1": lambda h, t, n: run_zeno(build_extended(h), t, n),
    "zeno2": lambda h, t, n: run_zeno(build_extended(h), t, n, order=2),
    "kicks": lambda h, t, n: run_kicks(build_extended(h), t, n),
    "mub": lambda h, t, n: run_zeno(build_extended(h, "mub"), t, n),
    "qdrift": qdrift_point,
    "trotter1": trotter_point,
}

# (instance, methods, sweep points): qdrift runs in channel mode, on 5 qubits at most, and a 5-qubit point at
# N = 10^6 takes seconds.
CASES = [
    ("tfim_three_qubit", tuple(METHODS), POINTS),
    ("ceiling_6q32", tuple(m for m in METHODS if m != "qdrift"), POINTS),
    ("ceiling_5q32", ("qdrift",), POINTS[:1]),
]


def _load(instance):
    return load_hamiltonian(TFIM) if instance == "tfim_three_qubit" else ceiling_hamiltonian(instance)


def _scaled(h, k):
    """2^k H, term by term: each coefficient times 2^k is exact."""
    terms = tuple(replace(term, coefficient=term.coefficient * 2.0**k) for term in h.terms)
    return PauliHamiltonian(h.num_qubits, terms)


def _readings(point):
    return point.epsilon_measured, point.epsilon_bound, point.p_succ_exact, point.p_succ_bound


@pytest.mark.parametrize("instance,method,t,n", [
    pytest.param(instance, method, t, n, id=f"{instance}-{method}-t{t:g}-N{n}")
    for instance, methods, points in CASES for method in methods for t, n in points
])
def test_power_of_two_rescaling_is_bit_identical(instance, method, t, n):
    h = _load(instance)
    expected = _readings(METHODS[method](h, t, n))
    for k in SCALES:
        assert _readings(METHODS[method](_scaled(h, k), t / 2.0**k, n)) == expected, f"k = {k}"
