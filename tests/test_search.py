"""Targeted search for bound violations where no spectral reduction exists: mub and qdrift (ROADMAP item 23).

zeno1, zeno2 and kicks act on each eigenvalue of H alone, and ``tests/test_bounds.py`` checks their rows over the
whole spectrum. mub's step is no function of H and qdrift is a mixture, so their rows are searched for here instead.
Hypothesis draws small instances, 1-3 qubits (qdrift at most 2) with 1-6 distinct signed Pauli words, log-uniform
coefficients and t, and N from a fixed list, and ``hypothesis.target`` steers it towards the largest ratio of the
measured error to its bound. Runs are derandomized with a fixed example count, so every run searches the same
instances. A case a search finds stays below as an ``@example``.
"""

import itertools

import pytest
from hypothesis import HealthCheck, example, given, settings, target
from hypothesis import strategies as st

from zenosim import PauliHamiltonian, PauliTerm, build_extended, run_zeno
from zenosim.channels import qdrift_point

FLOOR = 1e-6  # bounds at or below it are roundoff-sized until ROADMAP item 12's radius exists
STEPS = (1, 2, 3, 10, 100)
SEARCH = settings(max_examples=600, derandomize=True, database=None, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])


@st.composite
def hamiltonians(draw, max_qubits, least_exponent):
    """1 to max_qubits qubits, 1-6 distinct Pauli words, coefficients 10^e with e uniform in [least_exponent, 1]."""
    n = draw(st.integers(1, max_qubits))
    words = draw(st.lists(st.sampled_from(["".join(w) for w in itertools.product("IXYZ", repeat=n)]),
                          min_size=1, max_size=min(6, 4**n), unique=True))
    return PauliHamiltonian(tuple(
        PauliTerm(10.0 ** draw(st.floats(least_exponent, 1.0)), draw(st.sampled_from((1, -1))), word)
        for word in words
    ))


def times(least_exponent):
    return st.floats(least_exponent, 1.0).map(lambda e: 10.0**e)


def mub_point(h, t, n):
    return run_zeno(build_extended(h, "mub"), t, n)


def assert_within_bounds(point):
    """Above the floor, the error is at most its bound and the success at least its bound, with no slack."""
    ratio = point.epsilon_measured / point.epsilon_bound
    target(ratio)
    if point.epsilon_bound > FLOOR:
        assert point.epsilon_measured <= point.epsilon_bound, ratio
        assert point.p_succ_exact >= point.p_succ_bound


@SEARCH
@given(h=hamiltonians(3, -3.0), t=times(-3.0), n=st.sampled_from(STEPS))
def test_mub_search_finds_no_violation(h, t, n):
    assert_within_bounds(mub_point(h, t, n))


@SEARCH
@given(h=hamiltonians(2, -3.0), t=times(-3.0), n=st.sampled_from(STEPS))
def test_qdrift_search_finds_no_violation(h, t, n):
    assert_within_bounds(qdrift_point(h, t, n))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3, mub slice: binary powering of mub's step leaves ~N ulp of "
                                       "roundoff, so a bound far below it reads as violated")
@SEARCH
@example(h=PauliHamiltonian((PauliTerm(2.1e-9, 1, "XY"), PauliTerm(2.1e-9, 1, "ZZ"))), t=9.4e-8, n=10)
@given(h=hamiltonians(3, -10.0), t=times(-10.0), n=st.sampled_from(STEPS))
def test_mub_roundoff_search_without_a_floor(h, t, n):
    point = mub_point(h, t, n)
    target(point.epsilon_measured / point.epsilon_bound)
    assert point.epsilon_measured <= point.epsilon_bound
    assert point.p_succ_exact >= point.p_succ_bound
