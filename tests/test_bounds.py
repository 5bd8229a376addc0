"""Closed-form bound arithmetic and its structural properties."""

import numpy as np
import pytest

from zenosim import bounds, parse_hamiltonian


class TestFirstOrder:
    def test_error_examples(self):
        assert bounds.bound_zeno1_error(1, 1, 100) == pytest.approx(0.01)
        assert bounds.bound_zeno1_error(1, 0, 7) == 0.0
        assert bounds.bound_zeno1_error(2, 0.5, 10) == pytest.approx(0.1)

    def test_success_examples(self):
        assert bounds.bound_zeno1_succ(1, 1, 100) == pytest.approx(0.98)
        assert bounds.bound_zeno1_succ(1, 0, 5) == 1.0
        # Raw value -1 clamps to zero.
        assert bounds.bound_zeno1_succ(1, 1, 1) == 0.0
        assert bounds.bound_zeno1_succ_raw(1, 1, 1) == pytest.approx(-1.0)


class TestSecondOrder:
    def test_error_examples(self):
        assert bounds.bound_zeno2_error(1, 1, 10) == pytest.approx(1 / 300)
        assert bounds.bound_zeno2_error(1, 0, 10) == 0.0
        assert bounds.bound_zeno2_error(1, 2, 20) == pytest.approx(8 / 1200)

    def test_success_examples(self):
        assert bounds.bound_zeno2_succ(1, 0, 10) == 1.0
        assert bounds.bound_zeno2_succ(1, 1, 10) == pytest.approx(1 - 4 / 300)

    def test_overflow_gives_inf_bound_and_zero_success(self):
        # (lam t)^3 overflows a float: the bound is inf, not an OverflowError.
        assert bounds.bound_zeno2_error(2e200, 1, 10) == float("inf")
        assert bounds.bound_zeno2_succ(2e200, 1, 10) == 0.0
        assert bounds.bound_zeno2_error(2e200, 0, 10) == 0.0


class TestKicks:
    def test_examples(self):
        assert bounds.bound_kicks_error(1, 0, 10) == 0.0
        assert bounds.bound_kicks_error(1, 1, 100) == pytest.approx(
            0.02 * (1 / np.sqrt(2) + 1) * 3.0
        )
        assert bounds.bound_kicks_error(0.5, 1, 10) == pytest.approx(
            0.2 * (1 / np.sqrt(2) + 1) * 0.5 * 2.0
        )


class TestMub:
    def test_examples(self):
        assert bounds.bound_mub_error(0.7, 0, 1, 10) == pytest.approx(0.049)
        assert bounds.bound_mub_error(0.5, 1, 1, 100) == pytest.approx(0.01)
        assert bounds.bound_mub_error(0.5, 1, 0, 100) == 0.0

    def test_termcount_variant(self):
        assert bounds.bound_mub_error_termcount(0.5, 3, 1, 100) == pytest.approx(0.0225)

    def test_success_variant(self):
        assert bounds.bound_mub_succ(0.5, 2, 1, 100) == pytest.approx(1 - 2 * 4 / 100)
        assert bounds.bound_mub_succ(0.5, 2, 1, 1) == 0.0


class TestQdrift:
    def test_examples(self):
        assert bounds.bound_qdrift_diamond(1, 1, 25) == pytest.approx(0.16)
        assert bounds.bound_qdrift_diamond(1, 0, 25) == 0.0
        assert bounds.bound_qdrift_diamond(1, 1, 400) == pytest.approx(0.01)


class TestStepFormulas:
    def test_steps_for_precision_examples(self):
        assert bounds.steps_for_precision(1, 1, 0.01) == 100
        assert bounds.steps_for_precision(1, 0, 0.01) == 1
        assert bounds.steps_for_precision(2, 1, 0.1) == 40

    def test_steps_for_success_examples(self):
        assert bounds.steps_for_success(1, 1, 0.98) == 100
        assert bounds.steps_for_success(1, 1, 0.0) == 2
        assert bounds.steps_for_success(1, 2, 0.9) == 80

    def test_steps_for_precision_is_least_sufficient(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            lam = float(rng.uniform(0.2, 3.0))
            t = float(rng.uniform(0.1, 3.0))
            epsilon = float(rng.uniform(1e-3, 0.5))
            n = bounds.steps_for_precision(lam, t, epsilon)
            assert bounds.bound_zeno1_error(lam, t, n) <= epsilon * (1 + 1e-9)
            if n > 1:
                assert bounds.bound_zeno1_error(lam, t, n - 1) > epsilon * (1 - 1e-9)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            bounds.steps_for_precision(1, 1, 0.0)
        with pytest.raises(ValueError):
            bounds.steps_for_success(1, 1, 1.0)
        with pytest.raises(ValueError):
            bounds.bound_zeno1_error(1, 1, 0)


class TestCircuitCost:
    def test_examples(self):
        assert bounds.circuit_cost_estimate(4, 2, 1, 1, 0.01) == 800
        # epsilon equal to t^2 lam^2 means a single step.
        assert bounds.circuit_cost_estimate(4, 2, 1, 1, 1.0) == 8
        assert bounds.circuit_cost_estimate(1, 3, 1, 1, 0.01) == 300


class TestStructure:
    def test_monotonic_in_n_t_lam(self):
        error_bounds = [
            lambda lam, t, n: bounds.bound_zeno1_error(lam, t, n),
            lambda lam, t, n: bounds.bound_zeno2_error(lam, t, n),
            lambda lam, t, n: bounds.bound_kicks_error(lam, t, n),
            lambda lam, t, n: bounds.bound_qdrift_diamond(lam, t, n),
        ]
        ns = [1, 2, 5, 10, 50, 200]
        ts = [0.1, 0.5, 1.0, 2.0]
        lams = [0.3, 1.0, 2.5]
        # The unbiased-basis bound takes the peak weight instead of lam.
        error_bounds.append(lambda lam, t, n: bounds.bound_mub_error(lam, 2, t, n))
        for fn in error_bounds:
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
                    first = bounds.bound_zeno1_error(lam, t, n)
                    second = bounds.bound_zeno2_error(lam, t, n)
                    if n > lam * t / 3:
                        assert second < first + 1e-15

    def test_method_bounds(self):
        h = parse_hamiltonian("0.6*X + 0.4*Z")
        eps, p_succ, alt = bounds.method_bounds("zeno1", h, 1, 1.0, 100)
        assert eps == pytest.approx(0.01) and p_succ == pytest.approx(0.98) and alt is None
        kicks = bounds.method_bounds("kicks", h, 1, 1.0, 100)
        assert kicks == (bounds.bound_kicks_error(1.0, 1.0, 100), 1.0, None)
        assert bounds.method_bounds("mub", h, 1, 1.0, 100) == (
            bounds.bound_mub_error(0.6, 1, 1.0, 100),
            bounds.bound_mub_succ(0.6, 1, 1.0, 100),
            bounds.bound_mub_error_termcount(0.6, 2, 1.0, 100),
        )
        assert bounds.method_bounds("trotter1", h, 0, 1.0, 100) == (None, 1.0, None)
        with pytest.raises(ValueError, match="method"):
            bounds.method_bounds("trotter2", h, 0, 1.0, 100)
