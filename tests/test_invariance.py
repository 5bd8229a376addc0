"""Equivalent inputs give the same output.

Replacing H by 2^k H and t by t / 2^k changes no reading. A power-of-two scale is exact in floating point, so
lam * t, every eigenvalue times t and every rotation angle rate * dt are bit-identical after it. Every method's
error, error bound and success probability must then be bit-identical too; that guards the rule that time enters
a run only as a rate times a time. For the same reason a NumPy float32 or longdouble t gives the record of the
float it converts to.

Reversing the term list, or conjugating H by a qubit permutation and local Cliffords (perfbench's ``relabel``),
keeps its spectrum, so every error must agree to a relative ``SPREAD``, fixed before any reading was taken. The
success probability is left out: ``relabel`` moves the initial state |0..0> relative to H. Relabelling maps each
term to a term in the same place of the list, so it conjugates trotter1's product formula as it conjugates H and
keeps trotter1's error too; only the term-order check leaves trotter1 out, as its error depends on the order.
"""

from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from conftest import ceiling_hamiltonian
from instances import Instance, relabel  # perfbench/, put on the path by conftest

from zenosim import (PauliHamiltonian, build_extended, load_hamiltonian, parse_hamiltonian, run_kicks, run_sampled,
                     run_zeno)
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


# METHODS and the sampled runs, whose records hold shots, seed and a sampled success probability too.
RECORDS = {
    **METHODS,
    "zeno1-sampled": lambda h, t, n: run_sampled(build_extended(h), t, n, shots=20, seed=3),
    "mub-sampled": lambda h, t, n: run_sampled(build_extended(h, "mub"), t, n, shots=20, seed=3),
}


@pytest.mark.parametrize("method", RECORDS)
@pytest.mark.parametrize("t", [np.float32(0.1), np.longdouble(0.1), np.float32(3.0)],
                         ids=lambda t: f"{type(t).__name__}-{float(t):g}")
def test_numpy_float_time_reads_as_float(method, t):
    h = _load("tfim_three_qubit")
    expected, got = RECORDS[method](h, float(t), 10), RECORDS[method](h, t, 10)
    for f in fields(expected):
        a, b = getattr(expected, f.name), getattr(got, f.name)
        assert (type(b), b) == (type(a), a), f.name


SPREAD = 1e-10
INVARIANT_POINTS = ((1e-4, 10**6), (1.0, 10**3), (1.0, 10**6))
PROJECTED = ("zeno1", "zeno2", "kicks", "mub")
MUB_ROUNDOFF = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 3, mub slice: binary powering of mub's step leaves roundoff that depends on "
    "the term order and labels at N = 10^6")
QDRIFT_ROUNDOFF = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 3, qdrift slice: the PTM power's roundoff at N = 10^6 reads 7.4373e-13 in "
    "file order and 7.4374e-13 reversed, a relative spread of 9.6e-6")


def _assert_same_error(h, variants, method, t, n):
    expected = METHODS[method](h, t, n).epsilon_measured
    for name, other in variants.items():
        got = METHODS[method](other, t, n).epsilon_measured
        assert abs(got - expected) <= SPREAD * expected, f"{name}: {got!r} against {expected!r}"


def _reversed(h):
    return PauliHamiltonian(h.num_qubits, h.terms[::-1])


@pytest.mark.parametrize("instance,method,t,n", [
    *(pytest.param("ceiling_6q32", method, t, n, id=f"{method}-t{t:g}-N{n}",
                   marks=[MUB_ROUNDOFF] if (method, t, n) == ("mub", 1.0, 10**6) else [])
      for method in PROJECTED for t, n in INVARIANT_POINTS),
    pytest.param("ceiling_5q32", "qdrift", 1e-4, 10**6, id="qdrift-t0.0001-N1000000", marks=[QDRIFT_ROUNDOFF]),
])
def test_term_order_keeps_the_error(instance, method, t, n):
    h = ceiling_hamiltonian(instance)
    _assert_same_error(h, {"reversed": _reversed(h)}, method, t, n)


TROTTER_RELABEL_ROUNDOFF = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 3, trotter1 slice: binary powering of the product formula leaves roundoff "
    "that depends on the labels, a relative spread of 1.9e-1 at (1e-4, 10^6) and 3.5e-10 at (1, 10^6)")
QDRIFT_RELABEL_ROUNDOFF = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 3, qdrift slice: the PTM power's roundoff depends on the labels, a relative "
    "spread of 7.8e-1 at (1e-4, 10^6)")


def _relabelling_cases():
    """(instance, method, t, n, seeds, marks): every projected method and trotter1 on 6q/32, qdrift on 5q/32."""
    for method in (*PROJECTED, "trotter1"):
        for t, n in INVARIANT_POINTS:
            roundoff = {"mub": [MUB_ROUNDOFF], "trotter1": [TROTTER_RELABEL_ROUNDOFF]}.get(method, [])
            yield "ceiling_6q32", method, t, n, range(4), roundoff if n == 10**6 else []
    for t, n in ((1e-4, 10**6), (1.0, 10**3)):
        yield "ceiling_5q32", "qdrift", t, n, range(3), [QDRIFT_RELABEL_ROUNDOFF] if n == 10**6 else []


@pytest.mark.parametrize("instance,method,t,n,seeds", [
    pytest.param(instance, method, t, n, seeds, id=f"{method}-t{t:g}-N{n}", marks=marks)
    for instance, method, t, n, seeds, marks in _relabelling_cases()
])
def test_relabelling_keeps_the_error(instance, method, t, n, seeds):
    h = ceiling_hamiltonian(instance)
    labelled = Instance([(repr(term.coefficient), term.sign, term.axes) for term in h.terms])
    variants = {f"seed {seed}": parse_hamiltonian(relabel(labelled, seed).text()) for seed in seeds}
    _assert_same_error(h, variants, method, t, n)
