"""Extended-system construction and the measured sequences."""

import math
import re
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from conftest import THREE_TERM, TWO_TERM, ceiling_hamiltonian, eigh_calls_on, random_hamiltonian
from full_register import (
    kicks_full,
    path_survival,
    prepare,
    projector_full,
    reflection,
    sampled_full,
    zeno_full,
    zeno_step_operator,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from zenosim import (
    ExtendedSystem,
    LimitExceededError,
    block_encoding_matrix,
    build_extended,
    extended_hamiltonian,
    fit_loglog_slope,
    hamiltonian_matrix,
    matexp_hermitian,
    parse_hamiltonian,
    run_kicks,
    run_sampled,
    run_zeno,
    select_unitary,
    spectral_norm,
    step_success_probability,
    term_matrix,
)


class TestBuildExtended:
    def test_overflowed_block_rate_fails_when_built(self):
        # 4 * 5e307 overflows. Before, the system was built, select_unitary held NaN entries and run_zeno ended in a
        # false "SVD did not converge".
        h = parse_hamiltonian("5e307*XI + 5e307*ZI + 5e307*IY")
        with pytest.raises(LimitExceededError, match="^select block rate inf is not finite$") as caught:
            build_extended(h, "mub")
        assert isinstance(caught.value, ValueError)

    def test_single_term_degenerate_register(self, h1):
        sys = build_extended(h1)
        assert sys.n_ancilla == 0
        assert sys.ancilla_dim == 1
        np.testing.assert_allclose(prepare(sys), [[1.0]])
        np.testing.assert_allclose(reflection(sys), [[1.0]])
        expected = matexp_hermitian(hamiltonian_matrix(h1), 0.3)
        np.testing.assert_allclose(select_unitary(sys, 0.3), expected, atol=1e-12)

    def test_equal_weights(self):
        sys = build_extended(parse_hamiltonian("0.5*X + 0.5*Z"))
        np.testing.assert_allclose(sys.projector_state, np.array([1, 1]) / np.sqrt(2), atol=1e-15)

    def test_sqrt_probability_amplitudes(self):
        sys = build_extended(parse_hamiltonian("0.64*X + 0.36*Z"))
        np.testing.assert_allclose(sys.projector_state, [0.8, 0.6], atol=1e-15)

    def test_three_terms_padded(self, h3):
        sys = build_extended(h3)
        assert sys.n_ancilla == 2
        assert sys.ancilla_dim == 4
        np.testing.assert_allclose(
            sys.projector_state,
            [np.sqrt(0.5), np.sqrt(0.3), np.sqrt(0.2), 0.0],
            atol=1e-15,
        )

    @pytest.mark.parametrize("instance", ["1q", "2q", "3q", "4q", "5q", "6q", "ceiling_5q32", "ceiling_6q32"])
    def test_weights_are_the_term_probabilities(self, instance):
        # Bit for bit h_j / lam as one array division, the probabilities qdrift draws with; 0 on padded states.
        if instance.startswith("ceiling"):
            h = ceiling_hamiltonian(instance)
        else:
            n = int(instance[0])
            h = random_hamiltonian(np.random.default_rng(n), min(4**n - 1, 3 * n), n)
        sys = build_extended(h)
        weights = sys.weights
        assert weights.shape == (sys.ancilla_dim,) and weights.dtype == np.float64
        assert np.array_equal(weights[: h.num_terms], np.array([term.coefficient for term in h.terms]) / h.lam)
        assert not weights[h.num_terms :].any()

    @pytest.mark.parametrize("num_terms", [1, 2, 3, 5, 8, 13, 32])
    def test_projector_state_is_the_square_root_of_the_weights(self, num_terms):
        # The prepared states are those built from amplitudes directly, bit for bit, and mub's weights are
        # |1/sqrt(d_a)|^2, 1 ulp below 1/d_a for odd n_a.
        h = random_hamiltonian(np.random.default_rng(num_terms), num_terms, 3)
        standard, mub = build_extended(h), build_extended(h, "mub")
        d_a = standard.ancilla_dim
        amplitudes = np.zeros(d_a, dtype=complex)
        amplitudes[:num_terms] = np.sqrt([term.coefficient / h.lam for term in h.terms])
        uniform = np.full(d_a, 1.0 / math.sqrt(d_a), dtype=complex)
        assert standard.projector_state.tobytes() == amplitudes.tobytes()
        assert mub.projector_state.tobytes() == uniform.tobytes()
        assert mub.weights.tobytes() == (np.abs(uniform) ** 2).tobytes()
        assert (mub.weights[0] == 1.0 / d_a) == (mub.n_ancilla % 2 == 0)

    @pytest.mark.parametrize("variant", ["standard", "mub"])
    def test_weights_and_state_reject_writes(self, h3, variant):
        sys = build_extended(h3, variant)
        for array in (sys.weights, sys.projector_state):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.5

    def test_prepare_creates_state_and_is_unitary(self, h3):
        sys = build_extended(h3)
        e0 = np.zeros(sys.ancilla_dim)
        e0[0] = 1.0
        v = prepare(sys)
        assert np.linalg.norm(v @ e0 - sys.projector_state) < 1e-12
        assert np.max(np.abs(v.conj().T @ v - np.eye(4))) < 1e-10

    def test_reflection_properties(self, h3):
        sys = build_extended(h3)
        r = reflection(sys)
        assert np.max(np.abs(r @ r - np.eye(4))) < 1e-10
        assert np.linalg.norm(r @ sys.projector_state - sys.projector_state) < 1e-12

    def test_mub_state_and_prepare(self, h3):
        sys = build_extended(h3, "mub")
        np.testing.assert_allclose(sys.projector_state, np.full(4, 0.5), atol=1e-15)
        e0 = np.zeros(4)
        e0[0] = 1.0
        assert np.linalg.norm(prepare(sys) @ e0 - sys.projector_state) < 1e-12

    def test_unknown_variant(self, h2):
        with pytest.raises(ValueError, match="variant"):
            build_extended(h2, "other")

    def test_constructor_takes_hamiltonian_and_variant_only(self, h3):
        assert [f.name for f in fields(ExtendedSystem) if f.init] == ["hamiltonian", "variant"]
        with pytest.raises(ValueError, match=r"^unknown variant 'x'$"):
            ExtendedSystem(h3, "x")
        with pytest.raises(TypeError):
            ExtendedSystem(h3, "mub", ancilla_dim=4)

    def test_equality_and_hash_follow_the_two_inputs(self, h3):
        assert build_extended(h3) == build_extended(h3)
        assert hash(build_extended(h3)) == hash(build_extended(h3))
        assert build_extended(h3) != build_extended(h3, "mub")
        assert build_extended(h3) != build_extended(parse_hamiltonian(TWO_TERM))

    def test_replace_derives_every_field_again(self, h3):
        swapped, mub = replace(build_extended(h3), variant="mub"), build_extended(h3, "mub")
        assert swapped == mub
        assert (swapped.generator_scale, swapped.block_rates) == (mub.generator_scale, mub.block_rates)
        np.testing.assert_array_equal(swapped.projector_state, mub.projector_state)
        assert run_zeno(swapped, 1.0, 10).epsilon_measured == pytest.approx(0.0554596793931, rel=1e-11)


class TestSelectUnitary:
    def test_time_zero_is_identity(self, sys2):
        np.testing.assert_allclose(select_unitary(sys2, 0.0), np.eye(4), atol=1e-15)

    def test_single_block_quarter_turn(self):
        # One tracked block with a Z term: angle lam * dt = pi/2.
        h = parse_hamiltonian("0.5*Z + 0.5*X")
        sys = build_extended(h)
        u = select_unitary(sys, np.pi / 2)
        block_z = u[0::2, 0::2]
        np.testing.assert_allclose(block_z, np.diag([-1j, 1j]), atol=1e-12)

    def test_block_diagonal_with_unitary_blocks(self, sys3_mub):
        u = select_unitary(sys3_mub, 0.37)
        d_a = sys3_mub.ancilla_dim
        for k in range(d_a):
            for l in range(d_a):
                block = u[k::d_a, l::d_a]
                if k == l:
                    assert np.max(np.abs(block.conj().T @ block - np.eye(2))) < 1e-12
                else:
                    assert np.max(np.abs(block)) == 0.0

    @pytest.mark.parametrize("variant", ["standard", "mub"])
    def test_matches_dense_exponential_of_generator(self, h2, variant):
        sys = build_extended(h2, variant)
        generator = sys.generator_scale * extended_hamiltonian(sys)
        expected = matexp_hermitian(generator, 0.41)
        assert np.max(np.abs(select_unitary(sys, 0.41) - expected)) < 1e-10

    def test_overflowed_mub_rate_is_rejected(self):
        # d_a * c = 4 * 5e307 overflows, so the generator block would be inf * term.
        with pytest.raises(LimitExceededError, match="select block rate inf is not finite"):
            sys = build_extended(parse_hamiltonian("5e307*XI + 5e307*ZI + 5e307*IY"), "mub")
            extended_hamiltonian(sys)

    def test_negative_time_is_adjoint(self, sys2):
        u = select_unitary(sys2, 0.3)
        np.testing.assert_allclose(select_unitary(sys2, -0.3), u.conj().T, atol=1e-12)

    @pytest.mark.parametrize("variant", ["standard", "mub"])
    def test_padded_ancilla_states_get_identity_blocks(self, h3, variant):
        sys = build_extended(h3, variant)
        u = select_unitary(sys, 0.37)
        d_a = sys.ancilla_dim
        assert d_a == 4 and h3.num_terms == 3
        np.testing.assert_array_equal(u[3::d_a, 3::d_a], np.eye(sys.target_dim))


class TestStructuralIdentities:
    @pytest.mark.parametrize("text,variant", [
        ("0.6*X + 0.4*Z", "standard"),
        ("0.5*X + 0.3*Z + 0.2*Y", "standard"),
        ("0.5*X + 0.3*Z + 0.2*Y", "mub"),
        ("0.5*XZ + 0.3*ZI + 0.2*IY", "mub"),
    ])
    def test_compression_identity(self, text, variant):
        h = parse_hamiltonian(text)
        sys = build_extended(h, variant)
        proj = projector_full(sys)
        compressed = sys.generator_scale * (proj @ extended_hamiltonian(sys) @ proj)
        p_anc = np.outer(sys.projector_state, sys.projector_state.conj())
        expected = np.kron(hamiltonian_matrix(h), p_anc)
        assert np.max(np.abs(compressed - expected)) < 1e-10

    def test_extended_terms_commute(self, h3):
        sys = build_extended(h3)
        d_a = sys.ancilla_dim
        terms = []
        for j, term in enumerate(h3.terms):
            proj = np.zeros((d_a, d_a))
            proj[j, j] = 1.0
            terms.append(np.kron(term_matrix(term), proj))
        for i in range(len(terms)):
            for j in range(i + 1, len(terms)):
                comm = terms[i] @ terms[j] - terms[j] @ terms[i]
                assert spectral_norm(comm) < 1e-12


class TestZenoStepOperator:
    def test_time_zero_returns_projector(self, sys2):
        np.testing.assert_allclose(
            zeno_step_operator(sys2, 0.0, order=1), projector_full(sys2), atol=1e-15
        )

    def test_single_term_is_plain_evolution(self, h1):
        sys = build_extended(h1)
        step = zeno_step_operator(sys, 0.2, order=1)
        expected = matexp_hermitian(hamiltonian_matrix(h1), 0.2)
        np.testing.assert_allclose(step, expected, atol=1e-12)

    def test_norm_at_most_one(self, sys2):
        for order in (1, 2):
            assert spectral_norm(zeno_step_operator(sys2, 0.3, order=order)) <= 1 + 1e-10

    def test_invalid_order(self, sys2):
        with pytest.raises(ValueError, match="order"):
            zeno_step_operator(sys2, 0.1, order=3)

    def test_second_order_expansion_ratio(self, h2, sys2):
        # Residual against 1 - iH dt - H^2 dt^2 / 2 shrinks ~8x when dt halves.
        hmat = hamiltonian_matrix(h2)
        p_anc = np.outer(sys2.projector_state, sys2.projector_state.conj())

        def residual(dt):
            series = np.eye(2) - 1j * hmat * dt - 0.5 * (hmat @ hmat) * dt * dt
            return spectral_norm(zeno_step_operator(sys2, dt, order=2) - np.kron(series, p_anc))

        ratio = residual(0.05) / residual(0.025)
        assert 8.0 * 0.8 <= ratio <= 8.0 * 1.2


class TestRunZeno:
    def test_single_term_is_exact(self, h1):
        sys = build_extended(h1)
        for order in (1, 2):
            r = run_zeno(sys, 1.3, 5, order=order)
            assert r.epsilon_measured < 1e-10
            assert r.p_succ_exact == pytest.approx(1.0, abs=1e-12)

    def test_time_zero(self, sys2):
        r = run_zeno(sys2, 0.0, 4)
        assert r.epsilon_measured < 1e-12
        assert r.p_succ_exact == pytest.approx(1.0, abs=1e-12)

    def test_two_term_instance_meets_first_order_bounds(self, sys2):
        r = run_zeno(sys2, 1.0, 10, order=1)
        assert r.epsilon_measured <= 0.1
        assert r.p_succ_exact >= 0.8
        assert r.epsilon_bound == pytest.approx(0.1)
        assert r.p_succ_bound == pytest.approx(0.8)

    def test_delta_t_stored_as_ratio(self, sys2):
        r = run_zeno(sys2, 0.7, 3)
        assert r.delta_t == 0.7 / 3

    def test_zero_steps_rejected(self, sys2):
        with pytest.raises(ValueError, match=">= 1"):
            run_zeno(sys2, 1.0, 0)

    def test_mub_second_order_rejected(self, sys3_mub):
        with pytest.raises(ValueError, match="second-order"):
            run_zeno(sys3_mub, 1.0, 10, order=2)

    def test_method_labels(self, sys2, sys3_mub):
        assert run_zeno(sys2, 0.5, 2).method == "zeno1"
        assert run_zeno(sys2, 0.5, 2, order=2).method == "zeno2"
        assert run_zeno(sys3_mub, 0.5, 2).method == "mub"

    @pytest.mark.parametrize("order,window", [(1, (-1.15, -0.85)), (2, (-2.2, -1.8))])
    def test_convergence_slope(self, sys2, order, window):
        ns = [10, 32, 100, 316, 1000]
        eps = [run_zeno(sys2, 1.0, n, order=order).epsilon_measured for n in ns]
        for e, n in zip(eps, ns):
            bound = 1.0 / n if order == 1 else 1.0 / (3 * n * n)
            assert e <= bound + 1e-12
        slope = fit_loglog_slope(ns, eps)
        assert window[0] <= slope <= window[1]

    def test_success_bounds_hold(self, sys2):
        for order in (1, 2):
            for n in (1, 2, 5, 10, 50, 200):
                r = run_zeno(sys2, 1.0, n, order=order)
                assert r.p_succ_exact >= r.p_succ_bound - 1e-12

    def test_mub_meets_scaled_bound(self, sys3_mub, h3):
        width = sys3_mub.ancilla_dim
        for n in (10, 50, 200):
            r = run_zeno(sys3_mub, 1.0, n)
            assert r.epsilon_measured <= width**2 * h3.h_max**2 / n + 1e-12
            assert r.epsilon_bound == pytest.approx(width**2 * h3.h_max**2 / n)

    def test_custom_initial_state(self, sys2):
        psi = np.array([1.0, 1j]) / np.sqrt(2)
        r = run_zeno(sys2, 1.0, 20, psi0=psi)
        assert r.p_succ_exact >= r.p_succ_bound - 1e-12

    def test_unnormalized_initial_state_rejected(self, sys2):
        with pytest.raises(ValueError, match="normalized"):
            run_zeno(sys2, 1.0, 5, psi0=np.array([1.0, 1.0]))

    @pytest.mark.parametrize("run", [
        lambda sys, psi: run_zeno(sys, 1.0, 10, psi0=psi),
        lambda sys, psi: run_zeno(replace(sys, variant="mub"), 1.0, 10, psi0=psi),
        lambda sys, psi: run_sampled(sys, 1.0, 10, psi0=psi, shots=5),
        lambda sys, psi: step_success_probability(sys, 0.1, psi0=psi),
    ], ids=["zeno1", "mub", "sampled", "step"])
    def test_non_finite_initial_state_rejected(self, sys2, run):
        # Before, a NaN norm passed the norm test and min(1.0, nan) read success 1.0; run_sampled failed with
        # "zero-size array to reduction operation maximum".
        with pytest.raises(ValueError, match="^psi0 must be normalized$"):
            run(sys2, np.array([np.nan, 0.0]))

    @pytest.mark.parametrize("variant", ["standard", "mub"])
    def test_initial_state_of_the_wrong_dimension_rejected(self, h2, variant):
        with pytest.raises(ValueError, match="^psi0 must have dimension 2, got 4$"):
            run_zeno(build_extended(h2, variant), 1.0, 10, psi0=np.eye(4)[0])

    @pytest.mark.parametrize("order", [True, 1.0])
    def test_non_integer_order_rejected(self, sys2, order):
        # Before, both ran to method_bounds and failed with "no bounds recorded for method 'zenoTrue'" ('zeno1.0').
        with pytest.raises(ValueError, match=f"^order must be 1 or 2, got {order}$"):
            run_zeno(sys2, 1.0, 10, order=order)

    def test_numpy_integer_order_runs(self, sys2):
        assert run_zeno(sys2, 1.0, 10, order=np.int64(2)) == run_zeno(sys2, 1.0, 10, order=2)

    def test_bound_satisfied_rule(self, sys2):
        r = run_zeno(sys2, 1.0, 10)
        assert r.bound_satisfied
        assert replace(r, epsilon_measured=r.epsilon_bound + 1e-12).bound_satisfied
        assert not replace(r, epsilon_measured=r.epsilon_bound + 1e-11).bound_satisfied
        assert replace(r, epsilon_measured=1e300, epsilon_bound=None).bound_satisfied
        # The success probability must reach its bound too, with the same slack.
        assert replace(r, p_succ_exact=r.p_succ_bound - 1e-12).bound_satisfied
        assert not replace(r, p_succ_exact=r.p_succ_bound - 1e-11).bound_satisfied
        # The verdict is a derived field: replace() derives it again from the fields it is handed and accepts no
        # verdict of its own.
        broken = replace(r, epsilon_measured=2.0 * r.epsilon_bound)
        assert not broken.bound_satisfied and replace(broken, epsilon_measured=r.epsilon_measured) == r
        with pytest.raises(ValueError, match="bound_satisfied"):
            replace(r, bound_satisfied=False)


class TestRunKicks:
    def test_single_term_trivial_reflection(self, h1):
        sys = build_extended(h1)
        assert run_kicks(sys, 1.0, 7).epsilon_measured < 1e-10

    def test_time_zero(self, sys2):
        assert run_kicks(sys2, 0.0, 5).epsilon_measured < 1e-12

    def test_bound_value_and_satisfaction(self, sys2):
        r = run_kicks(sys2, 1.0, 100)
        assert r.epsilon_bound == pytest.approx(0.02 * (1 / np.sqrt(2) + 1) * 3.0)
        assert r.epsilon_measured <= r.epsilon_bound
        assert r.p_succ_exact == 1.0

    def test_bound_across_sweep(self, sys2):
        for t in (0.5, 2.0):
            for n in (10, 100, 1000):
                r = run_kicks(sys2, t, n)
                assert r.epsilon_measured <= r.epsilon_bound + 1e-12

    def test_mub_variant_rejected(self, sys3_mub):
        with pytest.raises(ValueError, match="standard"):
            run_kicks(sys3_mub, 1.0, 10)

    @pytest.mark.parametrize("text,n,reference", [
        (TWO_TERM, 80, 0.00571777870289485),
        (TWO_TERM, 1000, 0.000457413172967414),
        (THREE_TERM, 1000, 0.000455224157357917),
    ])
    def test_matches_high_precision_reference(self, text, n, reference):
        # Each reference is (R select(dt))^N applied step by step to the columns of
        # 1 (x) |phi> in 50-digit mpmath arithmetic, minus phi (x) exp(-iHt) at t = 1,
        # and the largest singular value of that difference (mpmath.svd_c).
        r = run_kicks(build_extended(parse_hamiltonian(text)), 1.0, n)
        assert r.epsilon_measured == pytest.approx(reference, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("text", [
        "0.7*XZ",                                           # a = +-1, b = 0: no partner state
        "0.5*XI + 0.5*IX",                                  # degenerate spectrum
        "0.4*II + 0.6*XZ + 0.3*YY",                         # identity word among the terms
        THREE_TERM,                                         # one padded ancilla state
        "0.3*XI + 0.2*ZZ + 0.25*YX + 0.15*IZ + 0.1*XY",     # three padded ancilla states
    ])
    @pytest.mark.parametrize("t,n", [(0.0, 3), (0.7, 1), (1.3, 17), (2.0, 50)])
    def test_edge_cases_match_full_register(self, text, t, n):
        sys = build_extended(parse_hamiltonian(text))
        epsilon = run_kicks(sys, t, n).epsilon_measured
        assert abs(epsilon - kicks_full(sys, t, n)) <= 1e-9
        if t == 0.0 or sys.hamiltonian.num_terms == 1:
            assert epsilon < 1e-12

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("text,above", [
        ("0.7*XZ", False),                                  # a = +-1, b = 0, kappa = |cos(theta)|
        ("0.3*IX + 0.15*XX", True),                         # eigh puts an |E| a rounding above lam
        ("0.3333333333333333*XZ + 0.1*ZX", True),
    ])
    @pytest.mark.parametrize("n", [1, 3])
    def test_quarter_turn_matches_full_register(self, text, above, n):
        # theta = lam t / N = pi / 2: the closed form's kappa is as small as it gets, and |a| may exceed 1.
        sys = build_extended(parse_hamiltonian(text))
        lam = sys.hamiltonian.lam
        assert (np.max(np.abs(sys.hamiltonian.spectrum[0])) > lam) == above
        t = n * np.pi / (2 * lam)
        assert abs(run_kicks(sys, t, n).epsilon_measured - kicks_full(sys, t, n)) <= 1e-9


def survival_probabilities(sys, t, n):
    """The library's survival probability of each of the N order-1 steps, one _CHUNK at a time."""
    from zenosim.zeno import _CHUNK, _projected, _survival

    log_r, weights, _ = _projected(sys, t, n, 1, None)[1]
    return np.concatenate([_survival(log_r, weights, s, min(s + _CHUNK, n)) for s in range(0, n, _CHUNK)])


class TestRunSampled:
    def test_single_term_always_succeeds(self, h1):
        sys = build_extended(h1)
        r = run_sampled(sys, 1.0, 5, shots=50, seed=1)
        assert r.p_succ_sampled == 1.0
        assert r.fidelity_mean == pytest.approx(1.0, abs=1e-10)

    def test_time_zero_always_succeeds(self, sys2):
        r = run_sampled(sys2, 0.0, 5, shots=50, seed=1)
        assert r.p_succ_sampled == 1.0

    def test_binomial_consistency(self, sys2):
        r = run_sampled(sys2, 1.0, 10, shots=2000, seed=11)
        p = r.p_succ_exact
        stderr = np.sqrt(p * (1 - p) / 2000)
        assert abs(r.p_succ_sampled - p) <= 3 * stderr

    def test_seed_determinism(self, sys2):
        a = run_sampled(sys2, 1.0, 8, shots=200, seed=42)
        b = run_sampled(sys2, 1.0, 8, shots=200, seed=42)
        assert a == b

    def test_second_order_sampling(self, sys2):
        r = run_sampled(sys2, 1.0, 10, order=2, shots=400, seed=3)
        assert abs(r.p_succ_sampled - r.p_succ_exact) <= 4 * np.sqrt(0.25 / 400) + 1e-9
        assert r.fidelity_mean > 0.99

    @pytest.mark.parametrize("order", [1, 2])
    def test_reads_one_spectrum(self, monkeypatch, order):
        # A standard-projector sweep, projected, sampled and kicks alike, takes one eigendecomposition of H,
        # the Hamiltonian's cached spectrum, and builds neither a step matrix, nor the exact propagator, nor
        # the spectrum of a step.
        import zenosim.linalg as linalg
        import zenosim.zeno as zeno

        calls = []
        for module, name in ((zeno, "exact_evolution"), (linalg, "matexp_hermitian"),
                             (zeno, "pauli_rotations"), (zeno, "hermitian_eigen")):
            fn = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, _fn=fn, _name=name: calls.append(_name) or _fn(*args))
        h = parse_hamiltonian(THREE_TERM)  # not the shared fixture, whose spectrum other tests may have taken
        eigh_calls = eigh_calls_on(monkeypatch, h)
        sys = build_extended(h)
        for n in (10, 20):
            r = run_sampled(sys, 1.0, n, order=order, shots=10)
            reference = run_zeno(sys, 1.0, n, order=order)
            assert (r.epsilon_measured, r.p_succ_exact) == (reference.epsilon_measured, reference.p_succ_exact)
            run_kicks(build_extended(h), 1.0, n)
        assert calls == [] and eigh_calls == [(2, 2)]

    @pytest.mark.parametrize("variant,t,n", [
        pytest.param("standard", 1.0, 10, id="low-survival"),
        pytest.param("standard", 3**0.5, 3000, id="high-survival"),
        pytest.param("mub", 3**0.5, 3000, id="mub-high-survival"),
    ])
    def test_early_exit_matches_full_draws(self, variant, t, n):
        # A shot draws its uniforms _CHUNK steps at a time and stops at the first chunk with a failed step;
        # its verdict equals that of drawing all N uniforms at once. 6q/32 zeno1 survives N = 10 steps with
        # probability 2.3e-8, and N = 3000 > _CHUNK steps at t = sqrt(3) with probability 0.71 (mub: 0.66).
        from zenosim.zeno import _CHUNK

        sys = build_extended(ceiling_hamiltonian("ceiling_6q32"), variant)
        survival = survival_probabilities(sys, t, n)
        shots, seed = 200, 5
        full = [bool(np.all(np.random.default_rng(seed + s).random(n) < survival)) for s in range(shots)]
        assert run_sampled(sys, t, n, shots=shots, seed=seed).p_succ_sampled == sum(full) / shots
        if n > _CHUNK:
            assert 0 < sum(full) < shots  # both verdicts occur

    def test_survival_chunks_computed_when_reached(self, monkeypatch):
        # 6q/32 zeno1 at t = 300 survives N = 10^6 steps with probability 1.4e-13, but each 1024-step chunk with
        # about 0.97; mub at t = 250 with 5.6e-12 and 0.97. Of the 977 chunks of survival probabilities, only
        # those up to the one where the last of the 100 shots fails are computed (182 for both).
        from zenosim import zeno

        h = ceiling_hamiltonian("ceiling_6q32")
        for variant, t in (("standard", 300.0), ("mub", 250.0)):
            sys = build_extended(h, variant)
            survival, computed = zeno._survival, []
            monkeypatch.setattr(zeno, "_survival", lambda *args: computed.append(args[2]) or survival(*args))
            r = run_sampled(sys, t, 10**6, shots=100)
            monkeypatch.undo()
            q = survival_probabilities(sys, t, 10**6)
            failures = [int(np.argmax(np.random.default_rng(s).random(q.size) >= q)) for s in range(100)]
            assert (r.p_succ_sampled, r.fidelity_mean) == (0.0, None)
            assert computed == list(range(0, (max(failures) // zeno._CHUNK + 1) * zeno._CHUNK, zeno._CHUNK))
            assert len(computed) == 182 < q.size / zeno._CHUNK

    @pytest.mark.parametrize("text,t,n", [
        (THREE_TERM, 1.3, 40),                              # one padded ancilla state
        ("0.4*II + 0.6*XZ + 0.3*YY", 2.0, 30),              # identity word among the terms
        (None, 3**0.5, 3000),                               # 6q/32, N > _CHUNK
    ], ids=["padded", "identity-word", "6q32"])
    def test_mub_survival_matches_path(self, text, t, n):
        # mub's survival probabilities, read from the spectrum of the step's Hermitian part, equal those of
        # stepping the surviving state one matrix-vector product at a time.
        h = ceiling_hamiltonian("ceiling_6q32") if text is None else parse_hamiltonian(text)
        sys = build_extended(h, "mub")
        np.testing.assert_allclose(survival_probabilities(sys, t, n), path_survival(sys, t, n), rtol=0.0, atol=1e-13)

    def test_zero_shots_rejected(self, sys2):
        with pytest.raises(ValueError, match="shots"):
            run_sampled(sys2, 1.0, 5, shots=0)

    @pytest.mark.parametrize("field,value", [
        ("shots", 2.5), ("shots", True), ("seed", 1.5), ("seed", -3), ("seed", True),
    ])
    def test_non_count_shots_and_seed_rejected(self, sys2, field, value):
        # Before the gate, 2.5 and 1.5 escaped from range() as TypeError, -3 from numpy's seeding, and
        # shots=True ran one shot recorded as True.
        with pytest.raises(ValueError, match=f"^{field} must be an integer >= "):
            run_sampled(sys2, 1.0, 5, **{field: value})

    def test_numpy_integer_shots_and_seed_run_as_int(self, sys2):
        # Kept as np.uint8, seed + shots wrapped to 4: range(250, 4) drew no shot and read 0.0 (0.9 as int).
        r = run_sampled(sys2, 1.0, 5, shots=np.int64(10), seed=np.uint8(250))
        assert r == run_sampled(sys2, 1.0, 5, shots=10, seed=250) and (type(r.shots), type(r.seed)) == (int, int)


class TestSpectralForm:
    """Standard-projector runs from one spectrum of H: each step eigenvalue mu_j as a scalar."""

    def test_zeno1_error_tends_to_asymptote(self):
        # At large N the zeno1 error is (lam t)^2 max_j (1 - a_j^2) / (2N), at most half the (lam t)^2 / N
        # bound. The leading correction is expm1's second term, a relative (lam t)^2 (1 - a_j^2) / (4N).
        h = ceiling_hamiltonian("ceiling_6q32")
        sys = build_extended(h)
        a = np.linalg.eigvalsh(hamiltonian_matrix(h)) / h.lam
        asymptote = h.lam**2 * np.max(1.0 - a * a) / 2.0
        for n in (10**4, 10**5, 10**6):
            r = run_zeno(sys, 1.0, n)
            assert abs(r.epsilon_measured * n / asymptote - 1.0) <= h.lam**2 / (2.0 * n)
            assert r.epsilon_measured <= r.epsilon_bound / 2.0

    @pytest.mark.parametrize("order", [1, 2])
    def test_ceiling_point_memory(self, order):
        # A 6q/32 point, its eigendecomposition of H included, traces about 0.27 MiB: the 64 x 64 matrix of H,
        # its eigenvectors and a few length-64 vectors. A (L, d, d) rotation stack or an N-fold matrix power
        # of the step (6.2 MiB) breaks 1 MiB.
        sys = build_extended(ceiling_hamiltonian("ceiling_6q32"))
        tracemalloc.start()
        try:
            run_zeno(sys, 1.0, 1000, order=order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20

    @pytest.mark.parametrize("variant,order,text,dead", [
        pytest.param("standard", 1, "0.5*XX + 0.5*ZZ", [1, 2], id="1"),
        pytest.param("standard", 2, "0.5*XX + 0.5*ZZ", [1, 2], id="2"),
        pytest.param("mub", 1, "0.5*XX + 0.5*ZZ", [1, 2], id="mub"),
        pytest.param("mub", 1, "0.25*ZII + 0.25*IZI + 0.5*IIZ + 0.5*ZZZ", [2], id="mub-exact"),
    ])
    @pytest.mark.parametrize("n", [1, 3])
    def test_annihilated_component(self, variant, order, text, dead, n):
        # 0.5 XX + 0.5 ZZ has a = 1, 0, 0, -1, and |00> lies half on a = 1 and half on a = 0. At
        # theta = lam t / N = pi / 2 the zeno1 step annihilates the a = 0 component (log r^2 = log 0), leaving a
        # fidelity of 1/2; (|01> + |10>) / sqrt(2) lies on a = 0 and survives no step. mub's step there is
        # alpha - i H' with alpha = cos(pi / 2) and H' = (XX + ZZ) / 2, so r^2 = alpha^2 + mu^2 is 4e-33 on the
        # two mu = 0 eigenvectors: alpha rounds to 6e-17, not to 0. On the diagonal 4-term instance at dt = pi,
        # the mub blocks turn by pi, pi, 2 pi, 2 pi, so alpha = (-1 - 1 + 1 + 1) / 4 = 0 and mu = 0 on |010>,
        # exactly: the state |010> survives no step, and no fidelity is reported.
        sys = build_extended(parse_hamiltonian(text), variant)
        psi_dead = np.zeros(sys.target_dim)
        psi_dead[dead] = 1.0 / np.sqrt(len(dead))
        for psi0 in (None, psi_dead):
            for theta in (np.pi / 2, np.pi):
                r = run_sampled(sys, theta * n, n, order=order, psi0=psi0, shots=20, seed=1)
                epsilon, p_succ = zeno_full(sys, theta * n, n, order=order, psi0=psi0)
                assert abs(r.epsilon_measured - epsilon) <= 1e-9 and abs(r.p_succ_exact - p_succ) <= 1e-9
                p_sampled, fidelity = sampled_full(sys, theta * n, n, order=order, psi0=psi0, shots=20, seed=1)
                assert r.p_succ_sampled == p_sampled
                assert (r.fidelity_mean, fidelity) == (None, None) or abs(r.fidelity_mean - fidelity) <= 1e-9
                if r.p_succ_exact < 1e-30:
                    assert (r.p_succ_sampled, r.fidelity_mean) == (0.0, None)


class TestBlockEncoding:
    def test_time_zero_is_identity(self, sys2):
        np.testing.assert_allclose(block_encoding_matrix(sys2, 0.0), np.eye(2), atol=1e-12)

    def test_single_term(self, h1):
        sys = build_extended(h1)
        expected = matexp_hermitian(hamiltonian_matrix(h1), 0.4)
        np.testing.assert_allclose(block_encoding_matrix(sys, 0.4), expected, atol=1e-12)

    def test_three_term_direct_sum(self, h3):
        sys = build_extended(h3)
        dt = 0.23
        expected = np.zeros((2, 2), dtype=complex)
        for term in h3.terms:
            u_j = matexp_hermitian(h3.lam * term_matrix(term), dt)
            expected += (term.coefficient / h3.lam) * u_j
        assert np.max(np.abs(block_encoding_matrix(sys, dt) - expected)) < 1e-10

    def test_random_instances(self):
        rng = np.random.default_rng(21)
        for num_terms in (2, 3, 4, 8):
            h = random_hamiltonian(rng, num_terms, 2)
            sys = build_extended(h)
            dt = float(rng.uniform(0.0, 0.5))
            expected = np.zeros((4, 4), dtype=complex)
            for term in h.terms:
                u_j = matexp_hermitian(h.lam * term_matrix(term), dt)
                expected += (term.coefficient / h.lam) * u_j
            assert spectral_norm(block_encoding_matrix(sys, dt) - expected) < 1e-10

    @pytest.mark.parametrize("num_qubits", [1, 2, 3, 4, 5, 6])
    def test_weighted_sum_of_rotations(self, num_qubits):
        # The corner is sum_k (h_k / lam) (cos(theta) 1 - i sin(theta) P_k) at theta = lam dt, every block's angle.
        rng = np.random.default_rng(40 + num_qubits)
        h = random_hamiltonian(rng, min(4**num_qubits - 1, 5 * num_qubits), num_qubits)
        eye = np.eye(2**num_qubits)
        for dt in (0.0, 1e-9 / h.lam, float(rng.uniform(0.0, 1.0)) / h.lam, 1.5 / h.lam):
            theta = h.lam * dt
            rotations = [math.cos(theta) * eye - 1j * math.sin(theta) * term_matrix(term) for term in h.terms]
            expected = sum((term.coefficient / h.lam) * u for term, u in zip(h.terms, rotations))
            assert np.max(np.abs(block_encoding_matrix(build_extended(h), dt) - expected)) <= 1e-15

    def test_mub_variant_rejected(self, sys3_mub):
        with pytest.raises(ValueError, match="standard"):
            block_encoding_matrix(sys3_mub, 0.1)


class TestStepSuccessProbability:
    def test_time_zero(self, sys2):
        assert step_success_probability(sys2, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_single_term(self, h1):
        sys = build_extended(h1)
        assert step_success_probability(sys, 0.3) == pytest.approx(1.0, abs=1e-12)

    def test_two_term_value_in_window(self, sys2):
        p = step_success_probability(sys2, 0.1)
        assert 1 - 0.02 <= p <= 1.0

    @pytest.mark.parametrize("dt", [0.02, 0.1, 0.3, 0.5])
    def test_lower_bound_any_state(self, sys2, h2, dt):
        states = [
            np.array([1.0, 0.0]),
            np.array([0.0, 1.0]),
            np.array([1.0, 1.0]) / np.sqrt(2),
            np.array([1.0, -1j]) / np.sqrt(2),
        ]
        for psi in states:
            p = step_success_probability(sys2, dt, psi0=psi)
            assert p >= 1 - 2 * h2.lam**2 * dt * dt - 1e-12

    @pytest.mark.parametrize("dt", [math.nan, math.inf, "0.1", True, pytest.param(10**400, id="10**400")])
    @pytest.mark.parametrize("entry", [step_success_probability, block_encoding_matrix, select_unitary])
    def test_step_time_must_be_finite_and_real(self, sys2, entry, dt):
        # Before, nan and inf read success 1.0 or gave NaN matrices, "0.1" raised numpy's UFuncTypeError, and
        # True ran as dt = 1.
        with pytest.raises(ValueError, match=f"^step time must be a finite real number, got {dt!r}$"):
            entry(sys2, dt)

    @pytest.mark.parametrize("dt", [1e308, -1e308])
    @pytest.mark.parametrize("entry", [
        step_success_probability, block_encoding_matrix, select_unitary,
        lambda sys, dt: matexp_hermitian(hamiltonian_matrix(sys.hamiltonian), dt),
    ], ids=["step_success_probability", "block_encoding_matrix", "select_unitary", "matexp_hermitian"])
    def test_rotation_angle_must_be_finite(self, entry, dt):
        # lam = 2 and H's largest |eigenvalue| is 2, so 2 dt overflows. Before, NumPy warned "overflow encountered
        # in multiply" and, with warnings off, the result held NaN.
        message = re.escape(f"largest rotation angle (rate 2 times t {dt:g}) is not finite")
        with pytest.raises(LimitExceededError, match=f"^{message}$"):
            entry(build_extended(parse_hamiltonian("ZI + IZ")), dt)


@st.composite
def instances(draw):
    num_qubits = draw(st.integers(1, 3))
    num_terms = draw(st.integers(1, min(8, 4**num_qubits - 1)))
    seed = draw(st.integers(0, 2**32 - 1))
    return random_hamiltonian(np.random.default_rng(seed), num_terms, num_qubits)


class TestFullRegisterOracle:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        h=instances(),
        variant=st.sampled_from(["standard", "mub"]),
        t=st.floats(0.0, 2.0),
        n=st.integers(1, 50),
        psi_index=st.integers(0, 7),
        seed=st.integers(0, 1000),
    )
    def test_target_register_matches_combined_register(self, h, variant, t, n, psi_index, seed):
        sys = build_extended(h, variant)
        psi0 = np.zeros(sys.target_dim, dtype=complex)
        psi0[psi_index % sys.target_dim] = 1.0
        for order in (1, 2) if variant == "standard" else (1,):
            r = run_zeno(sys, t, n, order=order, psi0=psi0)
            epsilon, p_succ = zeno_full(sys, t, n, order=order, psi0=psi0)
            assert abs(r.epsilon_measured - epsilon) <= 1e-9
            assert abs(r.p_succ_exact - p_succ) <= 1e-9
            sampled = run_sampled(sys, t, n, order=order, psi0=psi0, shots=20, seed=seed)
            p_sampled, fidelity = sampled_full(sys, t, n, order=order, psi0=psi0, shots=20, seed=seed)
            assert sampled.p_succ_sampled == p_sampled
            if fidelity is not None:
                assert abs(sampled.fidelity_mean - fidelity) <= 1e-9
        if variant == "standard":
            assert abs(run_kicks(sys, t, n).epsilon_measured - kicks_full(sys, t, n)) <= 1e-9
