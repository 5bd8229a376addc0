"""Closed-form bound arithmetic, its structural properties, and the one check of a sweep point's t and N."""

import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import random_hamiltonian

from zenosim import (
    ConfigError,
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
    zeno,
)

GATE_H = parse_hamiltonian("0.6*XI + 0.4*IZ - 0.1*YY")


def _trajectory(h, t, n):
    sample = qdrift_sample(h, t, n, seed=2)
    return sample.sampled_indices, sample.resulting_unitary.tolist()


# Every entry point that takes a sweep point's (t, N), as f(h, t, n), returning data that == compares.
GATED = {
    "run_zeno": lambda h, t, n: run_zeno(build_extended(h), t, n),
    "run_zeno-order2": lambda h, t, n: run_zeno(build_extended(h), t, n, order=2),
    "run_zeno-mub": lambda h, t, n: run_zeno(build_extended(h, "mub"), t, n),
    "run_sampled": lambda h, t, n: run_sampled(build_extended(h), t, n, shots=5, seed=1),
    "run_kicks": lambda h, t, n: run_kicks(build_extended(h), t, n),
    "trotter_first_order": lambda h, t, n: trotter_first_order(h, t, n).tolist(),
    "trotter_point": channels.trotter_point,
    "qdrift_sample": _trajectory,
    "qdrift_channel": lambda h, t, n: qdrift_channel(h, t, n).superoperator.tolist(),
    "qdrift_point": channels.qdrift_point,
    "method_bounds": lambda h, t, n: bounds.method_bounds("zeno1", h, t, n),
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


CAP = 10**6  # the command line's step cap
BOUNDED = [m for m in bounds._CLOSED_FORMS if m != "trotter1"]  # every method that states an error bound


def old_zeno1_steps(lam, t, epsilon):
    """The closed-form zeno1 count that steps_for_precision computed before it bisected the bound row."""
    x = lam * float(t)
    return max(1, math.ceil(x * x / epsilon * (1.0 - 1e-12)))


class TestStepFormulas:
    def test_steps_for_precision_examples(self):
        assert bounds.steps_for_precision("zeno1", equal_weights(1), 1, 0.01, CAP) == 100
        assert bounds.steps_for_precision("zeno1", equal_weights(1), 0, 0.01, CAP) == 1
        assert bounds.steps_for_precision("zeno1", equal_weights(2), 1, 0.1, CAP) == 40

    def test_steps_for_precision_is_least_sufficient(self):
        # Every bounded method, on random instances, t = 0 included and epsilon across six decades.
        rng = np.random.default_rng(6)
        resolved = 0
        for method in BOUNDED:
            for draw in range(100):
                num_qubits = int(rng.integers(1, 4))
                h = random_hamiltonian(rng, int(rng.integers(1, min(6, 4**num_qubits - 1) + 1)), num_qubits)
                t = 0.0 if draw % 10 == 0 else float(rng.uniform(0.0, 3.0))
                epsilon = float(10 ** rng.uniform(-6, 0))

                def bound(n):
                    return bounds.method_bounds(method, h, t, n)[0]

                try:
                    n = bounds.steps_for_precision(method, h, t, epsilon, CAP)
                except LimitExceededError:
                    assert bound(CAP) > epsilon
                    continue
                resolved += n > 1
                assert bound(n) <= epsilon
                assert n == 1 or bound(n - 1) > epsilon
        assert resolved > 250

    def test_zeno1_count_is_the_closed_form_inverse(self):
        # Bisecting zeno1's row gives the count of the formula it replaced, ceil((lam t)^2 / epsilon) with a 1e-12
        # nudge, on every draw; where that count is above the cap, the cap error.
        rng = np.random.default_rng(7)
        for _ in range(5000):
            lam, t = float(rng.uniform(0.1, 5.0)), float(rng.uniform(0.0, 3.0))
            epsilon = float(10 ** rng.uniform(-5, 0))
            expected = old_zeno1_steps(lam, t, epsilon)
            if expected > CAP:
                with pytest.raises(LimitExceededError, match="exceeds the cap of 1000000"):
                    bounds.steps_for_precision("zeno1", equal_weights(lam), t, epsilon, CAP)
            else:
                assert bounds.steps_for_precision("zeno1", equal_weights(lam), t, epsilon, CAP) == expected

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_steps_for_precision_rejects_non_finite_time(self, t):
        # Before, nan ended in "cannot convert float NaN to integer" and inf in OverflowError.
        with pytest.raises(ValueError, match=f"^time must be finite and nonnegative, got {t}$"):
            bounds.steps_for_precision("zeno1", equal_weights(1), t, 0.01, CAP)

    @pytest.mark.parametrize("epsilon", [True, "0.1", math.nan, math.inf])
    def test_steps_for_precision_rejects_a_non_real_or_infinite_epsilon(self, epsilon):
        # Before, True ran as epsilon = 1 and inf read 1 step; "0.1" raised TypeError and nan "cannot convert float
        # NaN to integer".
        with pytest.raises(ValueError, match=f"^epsilon must be finite and positive, got {epsilon!r}$"):
            bounds.steps_for_precision("zeno1", equal_weights(1), 1.0, epsilon, CAP)

    @pytest.mark.parametrize("lam,t,epsilon", [(1e200, 1.0, 0.1), (1.0, 1e200, 0.1), (1.0, 1.0, 1e-320)])
    def test_steps_for_precision_rejects_a_step_count_too_large_for_a_float(self, lam, t, epsilon):
        # (lam t)^2 / epsilon is not a finite float, so no count up to the cap meets epsilon. Before, math.ceil let
        # "OverflowError: cannot convert float infinity to integer" escape.
        message = f"^the step count zeno1 needs for epsilon {re.escape(repr(epsilon))} exceeds the cap of 1000000$"
        with pytest.raises(LimitExceededError, match=message) as caught:
            bounds.steps_for_precision("zeno1", equal_weights(lam), t, epsilon, CAP)
        assert isinstance(caught.value, ValueError)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError, match="epsilon"):
            bounds.steps_for_precision("zeno1", GATE_H, 1, 0.0, CAP)
        with pytest.raises(ValueError, match="method"):
            bounds.steps_for_precision("trotter2", GATE_H, 1, 0.1, CAP)
        # trotter1 states no error bound to resolve: a usage error.
        with pytest.raises(ConfigError, match="^method 'trotter1' states no error bound"):
            bounds.steps_for_precision("trotter1", GATE_H, 1, 0.1, CAP)
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
        assert bounds.step_time(1.0, 4, 1.0) == 0.25
        assert bounds.step_time(-0.0, np.int64(3), 1.0) == 0.0
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
            GATED[entry](GATE_H, t, n)

    @pytest.mark.parametrize("entry", GATED)
    def test_every_entry_point_rejects_an_angle_that_is_not_finite(self, entry):
        # lam and t are finite, lam t = 2e310 is not; so is mub's 2^n_a h_max t. Before, the runs ended in "math
        # domain error", a ConvergenceError or "input is not unitary", trotter_first_order and the qdrift ones in NaN
        # matrices, and method_bounds in an inf bound.
        message = r"^largest rotation angle \(rate 2e\+300 times t 1e\+10\) is not finite$"
        with pytest.raises(LimitExceededError, match=message):
            GATED[entry](parse_hamiltonian("1e300*X + 1e300*Z"), 1e10, 10)

    @pytest.mark.parametrize("entry", GATED)
    def test_numpy_step_count_runs_as_int(self, entry):
        assert GATED[entry](GATE_H, 1.0, np.int64(10)) == GATED[entry](GATE_H, 1.0, 10)

    @pytest.mark.parametrize("t", [np.float32(0.1), np.longdouble(0.1)], ids=lambda t: type(t).__name__)
    @pytest.mark.parametrize("entry", GATED)
    def test_numpy_float_time_runs_as_its_float(self, entry, t):
        assert GATED[entry](GATE_H, t, 10) == GATED[entry](GATE_H, float(t), 10)

    @pytest.mark.parametrize("t", [np.float32(0.1), np.longdouble(0.1)], ids=lambda t: type(t).__name__)
    def test_step_time_and_step_count_read_a_numpy_time_as_its_float(self, t):
        assert type(bounds.step_time(t, 3, 1.0)) is float and bounds.step_time(t, 3, 1.0) == float(t) / 3
        def steps(t, epsilon):
            return bounds.steps_for_precision("zeno1", equal_weights(3.7), t, epsilon, 10**7)

        assert steps(t, 1e-7) == steps(float(t), 1e-7)
        epsilon = type(t)(1e-7)
        assert steps(0.1, epsilon) == steps(0.1, float(epsilon))

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


# zeno1, zeno2 and kicks act on each eigenvalue E of H alone, through a = E / lam, so a bound row holds for every
# Hamiltonian if and only if it holds for the sup over a in [-1, 1]. The a-grid holds 0, +-1, zeno2's maximiser
# +-1/sqrt(3) and +-(1 - 10^-k); x = lam t runs from 1e-8 to 316, at every N with theta = x / N <= pi (kicks to 10^4).
SPECTRUM_GRID = np.unique(np.concatenate([
    np.linspace(-1.0, 1.0, 401), [1.0 / math.sqrt(3.0), -1.0 / math.sqrt(3.0)],
    [s * (1.0 - 10.0**-k) for k in range(1, 13) for s in (1.0, -1.0)],
]))
SPECTRUM_XS = 10.0 ** np.arange(-8.0, 2.75, 0.5)
SPECTRUM_NS = (1, 2, 3, 5, 10, 30, 100, 10**3, 10**4, 10**6)
# The sup over the grid of error / row, to 2 digits: zeno1's error is x^2 / (2N) at small x and a = 0, zeno2's
# peaks at a = +-1/sqrt(3) (1 / (3 sqrt 3) = 0.19245), and kicks' at small x and a = 0.
SUP_RATIOS = {"zeno1": 0.50, "zeno2": 0.19, "kicks": 0.29}


class TestWholeSpectrum:
    @pytest.mark.parametrize("method", SUP_RATIOS)
    def test_row_bounds_every_eigenvalue(self, method):
        # A stub whose spectrum is the a-grid itself (lam = 1); one row of eigenvectors, so every a weighs 1.
        h = SimpleNamespace(lam=1.0, spectrum=(SPECTRUM_GRID, np.ones((1, SPECTRUM_GRID.size))))
        sys = SimpleNamespace(hamiltonian=h, variant="standard")
        ratios = []
        for x in SPECTRUM_XS:
            for n in SPECTRUM_NS:
                if x / n > math.pi or (method == "kicks" and n > 10**4):
                    continue
                error_row, success_row = bounds.method_bounds(method, h, x, n)
                if method == "kicks":
                    error = run_kicks(sys, x, n).epsilon_measured
                else:
                    error, _, log_r, _ = zeno._standard(sys, x / n, n, int(method[-1]), np.ones(1))
                    assert math.exp(n * log_r.min()) >= success_row, (x, n)
                assert error <= error_row, (x, n)
                ratios.append(error / error_row)
        assert round(max(ratios), 2) == SUP_RATIOS[method]
