"""Closed-form bound arithmetic, its structural properties, and the one check of a sweep point's t and N."""

import math
import re

import numpy as np
import pytest

from zenosim import (
    LimitExceededError,
    bounds,
    build_extended,
    channels,
    parse_hamiltonian,
    qdrift_channel,
    qdrift_sample,
    run_kicks,
    run_sampled,
    run_zeno,
    trotter_first_order,
)

GATE_H = parse_hamiltonian("0.6*XI + 0.4*IZ - 0.1*YY")


def _trajectory(t, n):
    sample = qdrift_sample(GATE_H, t, n, seed=2)
    return sample.sampled_indices, sample.resulting_unitary.tolist()


# Every entry point that takes a sweep point's (t, N), as f(t, n) on GATE_H, returning data that == compares.
GATED = {
    "run_zeno": lambda t, n: run_zeno(build_extended(GATE_H), t, n),
    "run_zeno-mub": lambda t, n: run_zeno(build_extended(GATE_H, "mub"), t, n),
    "run_sampled": lambda t, n: run_sampled(build_extended(GATE_H), t, n, shots=5, seed=1),
    "run_kicks": lambda t, n: run_kicks(build_extended(GATE_H), t, n),
    "trotter_first_order": lambda t, n: trotter_first_order(GATE_H, t, n).tolist(),
    "trotter_point": lambda t, n: channels.trotter_point(GATE_H, t, n),
    "qdrift_sample": _trajectory,
    "qdrift_channel": lambda t, n: qdrift_channel(GATE_H, t, n).superoperator.tolist(),
    "qdrift_point": lambda t, n: channels.qdrift_point(GATE_H, t, n),
    "method_bounds": lambda t, n: bounds.method_bounds("zeno1", GATE_H, t, n),
}


def equal_weights(weight, num_terms=1):
    """``num_terms`` one-qubit terms (at most 3) of weight ``weight``: h_max = weight, lam = num_terms * weight, and
    an ancilla width of 0, 1 and 2 qubits for 1, 2 and 3 terms."""
    return parse_hamiltonian(" + ".join(f"{weight!r}*{word}" for word in "XYZ"[:num_terms]))


def error_bound(method, lam, t, n, num_terms=1):
    """``method``'s error bound on ``equal_weights(lam, num_terms)``; one term (the default) has h_max = lam."""
    return bounds.method_bounds(method, equal_weights(lam, num_terms), t, n)[0]


def success_bound(method, lam, t, n, num_terms=1):
    return bounds.method_bounds(method, equal_weights(lam, num_terms), t, n)[1]


class TestFirstOrder:
    def test_error_examples(self):
        assert error_bound("zeno1", 1, 1, 100) == pytest.approx(0.01)
        assert error_bound("zeno1", 1, 0, 7) == 0.0
        assert error_bound("zeno1", 2, 0.5, 10) == pytest.approx(0.1)

    def test_success_examples(self):
        assert success_bound("zeno1", 1, 1, 100) == pytest.approx(0.98)
        assert success_bound("zeno1", 1, 0, 5) == 1.0
        # Raw value 1 - 2 = -1 clamps to zero.
        assert success_bound("zeno1", 1, 1, 1) == 0.0


class TestSecondOrder:
    def test_error_examples(self):
        assert error_bound("zeno2", 1, 1, 10) == pytest.approx(1 / 300)
        assert error_bound("zeno2", 1, 0, 10) == 0.0
        assert error_bound("zeno2", 1, 2, 20) == pytest.approx(8 / 1200)

    def test_success_examples(self):
        assert success_bound("zeno2", 1, 0, 10) == 1.0
        assert success_bound("zeno2", 1, 1, 10) == pytest.approx(1 - 4 / 300)

    def test_overflow_gives_inf_bound_and_zero_success(self):
        # (lam t)^3 overflows a float: the bound is inf, not an OverflowError.
        assert error_bound("zeno2", 2e200, 1, 10) == float("inf")
        assert success_bound("zeno2", 2e200, 1, 10) == 0.0
        assert error_bound("zeno2", 2e200, 0, 10) == 0.0


class TestKicks:
    def test_examples(self):
        assert error_bound("kicks", 1, 0, 10) == 0.0
        assert error_bound("kicks", 1, 1, 100) == pytest.approx(
            0.02 * (1 / np.sqrt(2) + 1) * 3.0
        )
        assert error_bound("kicks", 0.5, 1, 10) == pytest.approx(
            0.2 * (1 / np.sqrt(2) + 1) * 0.5 * 2.0
        )
        assert success_bound("kicks", 5, 1, 1) == 1.0


class TestMub:
    def test_examples(self):
        # The projector spans 2^n_ancilla ancilla states: 1 for one term, 2 for two.
        assert error_bound("mub", 0.7, 1, 10) == pytest.approx(0.049)
        assert error_bound("mub", 0.5, 1, 100, num_terms=2) == pytest.approx(0.01)
        assert error_bound("mub", 0.5, 0, 100, num_terms=2) == 0.0

    def test_success_variant(self):
        # Three terms pad the ancilla register to 4 states.
        assert success_bound("mub", 0.5, 1, 100, num_terms=3) == pytest.approx(1 - 2 * 4 / 100)
        assert success_bound("mub", 0.5, 1, 1, num_terms=3) == 0.0


class TestQdrift:
    def test_examples(self):
        assert error_bound("qdrift", 1, 1, 25) == pytest.approx(0.16)
        assert error_bound("qdrift", 1, 0, 25) == 0.0
        assert error_bound("qdrift", 1, 1, 400) == pytest.approx(0.01)


class TestStepFormulas:
    def test_steps_for_precision_examples(self):
        assert bounds.steps_for_precision(1, 1, 0.01) == 100
        assert bounds.steps_for_precision(1, 0, 0.01) == 1
        assert bounds.steps_for_precision(2, 1, 0.1) == 40

    def test_steps_for_precision_is_least_sufficient(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            lam = float(rng.uniform(0.2, 3.0))
            t = float(rng.uniform(0.1, 3.0))
            epsilon = float(rng.uniform(1e-3, 0.5))
            n = bounds.steps_for_precision(lam, t, epsilon)
            assert error_bound("zeno1", lam, t, n) <= epsilon * (1 + 1e-9)
            if n > 1:
                assert error_bound("zeno1", lam, t, n - 1) > epsilon * (1 - 1e-9)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_steps_for_precision_rejects_non_finite_time(self, t):
        # Before, nan ended in "cannot convert float NaN to integer" and inf in OverflowError.
        with pytest.raises(ValueError, match=f"^time must be finite and nonnegative, got {t}$"):
            bounds.steps_for_precision(1, t, 0.01)

    @pytest.mark.parametrize("epsilon", [True, "0.1", math.nan, math.inf])
    def test_steps_for_precision_rejects_a_non_real_or_infinite_epsilon(self, epsilon):
        # Before, True ran as epsilon = 1 and inf read 1 step; "0.1" raised TypeError and nan "cannot convert float
        # NaN to integer".
        with pytest.raises(ValueError, match=f"^epsilon must be finite and positive, got {epsilon!r}$"):
            bounds.steps_for_precision(1.0, 1.0, epsilon)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, True])
    def test_steps_for_precision_rejects_a_non_real_or_infinite_lam(self, lam):
        # Before, nan raised "cannot convert float NaN to integer", inf OverflowError, and True ran as lam = 1.
        with pytest.raises(ValueError, match=f"^coefficient 1-norm must be finite and positive, got {lam!r}$"):
            bounds.steps_for_precision(lam, 1.0, 0.1)

    @pytest.mark.parametrize("lam,t,epsilon", [(1e200, 1.0, 0.1), (1.0, 1e200, 0.1), (1.0, 1.0, 1e-320)])
    def test_steps_for_precision_rejects_a_step_count_too_large_for_a_float(self, lam, t, epsilon):
        # Before, math.ceil let "OverflowError: cannot convert float infinity to integer" escape.
        message = f"^epsilon {re.escape(repr(epsilon))} needs a step count \\(lam t\\)\\^2 / epsilon that is not finite$"
        with pytest.raises(LimitExceededError, match=message) as caught:
            bounds.steps_for_precision(lam, t, epsilon)
        assert isinstance(caught.value, ValueError)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            bounds.steps_for_precision(1, 1, 0.0)
        with pytest.raises(ValueError, match="step count"):
            error_bound("zeno1", 1, 1, 0)
        with pytest.raises(ValueError, match="time"):
            error_bound("trotter1", 1, -1, 10)


class TestStructure:
    def test_monotonic_in_n_t_lam(self):
        ns = [1, 2, 5, 10, 50, 200]
        ts = [0.1, 0.5, 1.0, 2.0]
        lams = [0.3, 1.0, 2.5]
        # The unbiased-basis bound takes the peak weight instead of lam, here on a 4-state ancilla register.
        for method, num_terms in [("zeno1", 1), ("zeno2", 1), ("kicks", 1), ("qdrift", 1), ("mub", 3)]:
            def fn(lam, t, n):
                return error_bound(method, lam, t, n, num_terms)

            for lam in lams:
                for t in ts:
                    values = [fn(lam, t, n) for n in ns]
                    assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))
            for n in ns:
                for lam in lams:
                    values = [fn(lam, t, n) for t in ts]
                    assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))
                for t in ts:
                    values = [fn(lam, t, n) for lam in lams]
                    assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))

    def test_second_order_crosses_below_first_order(self):
        for lam in (0.5, 1.0, 2.0):
            for t in (0.5, 1.0, 2.0):
                for n in (1, 2, 5, 20, 100):
                    first = error_bound("zeno1", lam, t, n)
                    second = error_bound("zeno2", lam, t, n)
                    if n > lam * t / 3:
                        assert second < first + 1e-15

    def test_method_bounds(self):
        h = parse_hamiltonian("0.6*X + 0.4*Z")
        eps, p_succ = bounds.method_bounds("zeno1", h, 1.0, 100)
        assert eps == pytest.approx(0.01) and p_succ == pytest.approx(0.98)
        # Only mub reads the ancilla width (1 qubit for two terms) and the peak weight 0.6.
        assert h.n_ancilla == 1
        assert bounds.method_bounds("mub", h, 1.0, 100) == (
            pytest.approx(4 * 0.36 / 100), pytest.approx(1 - 8 * 0.36 / 100)
        )
        assert bounds.method_bounds("kicks", h, 1.0, 100) == (error_bound("kicks", 1.0, 1.0, 100), 1.0)
        assert bounds.method_bounds("trotter1", h, 1.0, 100) == (None, 1.0)
        with pytest.raises(ValueError, match="method"):
            bounds.method_bounds("trotter2", h, 1.0, 100)


class TestStepTime:
    def test_examples(self):
        assert bounds.step_time(1.0, 4) == 0.25
        assert bounds.step_time(-0.0, np.int64(3)) == 0.0
        assert [bounds.is_count(v, 1) for v in (1, np.int64(2), 0, 1.0, True, np.bool_(True))] == [
            True, True, False, False, False, False
        ]

    @pytest.mark.parametrize("t,n,word", [
        (math.nan, 10, "time"), (math.inf, 10, "time"), (-1.0, 10, "time"),
        (1.0, 0, "step count"), (1.0, 10.5, "step count"), (1.0, True, "step count"),
        (True, 10, "time"), (np.bool_(True), 10, "time"), ("1", 10, "time"), (None, 10, "time"),
        pytest.param(10**400, 10, "time", id="10**400-10-time"),
    ])
    @pytest.mark.parametrize("entry", GATED)
    def test_every_entry_point_rejects_a_bad_point(self, entry, t, n, word):
        with pytest.raises(ValueError, match=word):
            GATED[entry](t, n)

    @pytest.mark.parametrize("entry", GATED)
    def test_numpy_step_count_runs_as_int(self, entry):
        assert GATED[entry](1.0, np.int64(10)) == GATED[entry](1.0, 10)

    @pytest.mark.parametrize("value,real", [
        (1.5, True), (-2, True), (np.float32(0.5), True), (np.int64(3), True), (1.7976931348623157e308, True),
        (math.nan, False), (-math.inf, False), (np.float32("inf"), False), pytest.param(10**400, False, id="10**400"),
        (True, False), (np.bool_(False), False), ("1", False), (1j, False), (None, False),
    ])
    def test_is_real_is_the_finite_real_rule(self, value, real):
        assert bounds.is_real(value) is real


class TestRecord:
    def test_nan_measured_error_rejected(self):
        # Before, sweep_point built a record with epsilon_measured = nan.
        with pytest.raises(ValueError, match="^measured error must be >= 0, got nan$"):
            bounds.sweep_point("zeno1", GATE_H, 1.0, 10, math.nan)

    def test_infinite_measured_error_fails_its_bound(self):
        assert not bounds.sweep_point("zeno1", GATE_H, 1.0, 10, math.inf).bound_satisfied

    @pytest.mark.parametrize("p_succ", [1.5, math.nan])
    def test_success_probability_must_be_in_range(self, p_succ):
        with pytest.raises(ValueError, match=f"^success probability out of range: {p_succ}$"):
            bounds.ZenoRunResult("zeno1", 10, 0.1, 0.01, 0.1, p_succ, 0.5)

    @pytest.mark.parametrize("n", [True, 2.5, np.int64(0)])
    def test_step_count_must_be_a_count(self, n):
        # Before, True and 2.5 built a record, and 0 read "step count must be >= 1".
        with pytest.raises(ValueError, match=f"^step count must be an integer >= 1, got {re.escape(repr(n))}$"):
            bounds.ZenoRunResult("zeno1", n, 0.1, 0.01, 0.1, 1.0, 0.5)
