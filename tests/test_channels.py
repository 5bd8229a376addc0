"""Baselines, superoperators, Choi matrices, and the diamond lower bound."""

import functools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import THREE_TERM, TWO_TERM, ceiling_hamiltonian, random_hamiltonian
from hypothesis import given, settings
from hypothesis import strategies as st

import zenosim
from zenosim import (
    LimitExceededError,
    build_extended,
    choi_matrix,
    diamond_lower_bound,
    exact_evolution,
    fit_loglog_slope,
    hamiltonian_matrix,
    parse_hamiltonian,
    qdrift_channel,
    qdrift_sample,
    select_unitary,
    spectral_norm,
    trotter_first_order,
    unitary_channel,
)
from zenosim.channels import (
    ChannelRep,
    _choi_of_ptm,
    _distance_to_unitary,
    _qdrift_choi,
    _qdrift_step_ptm,
    conjugation_superoperator,
    qdrift_point,
)
from zenosim.hamiltonian import pauli_rotations
from zenosim.linalg import compose
from test_linalg import POWER_STEPS, matexp_taylor


def choi_by_direct_loop(channel):
    """Oracle: apply the channel to every matrix unit and assemble the sum."""
    d = channel.dim
    j = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for k in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[i, k] = 1.0
            j += np.kron(channel.apply(unit), unit)
    return j


def qdrift_step_by_kron_sum(h, delta_t):
    """Oracle: the one-step mixture sum_j (h_j / lam) conj(U_j) kron U_j, U_j at angle lam * dt."""
    unitaries = pauli_rotations(h, [h.lam * delta_t] * h.num_terms)
    return sum(t.coefficient / h.lam * conjugation_superoperator(u) for t, u in zip(h.terms, unitaries))


# The 2 x 2 Paulis as literals, independent of the package's (x, z) tables.
PAULIS = {"I": [[1, 0], [0, 1]], "X": [[0, 1], [1, 0]], "Y": [[0, -1j], [1j, 0]], "Z": [[1, 0], [0, -1]]}

# PAULI_VEC[2 r + c, w] = sigma_w[r, c] / sqrt(2): one qubit's leg of the Pauli basis change.
PAULI_VEC = np.stack([np.array(PAULIS[axis], dtype=complex).reshape(-1) for axis in "IXYZ"], axis=1) / np.sqrt(2)

# sigma_w sigma_b = DIGIT_PHASES[w, b] sigma_(w ^ b), with I, X, Y, Z numbered 0-3.
DIGIT_PHASES = np.array([[1, 1, 1, 1], [1, 1, 1j, -1j], [1, -1j, 1, 1j], [1, 1j, -1j, 1]])


def kron_order(num_qubits):
    """Kron-order number of each Pauli word b = x 2^n + z, the package's numbering: the base-4 number whose digits are
    I, X, Y, Z as 0-3, qubit 0 (the top bit of x and z) the most significant."""
    x, z = np.divmod(np.arange(4**num_qubits), 2**num_qubits)
    number = 0
    for bit in reversed(range(num_qubits)):
        number = 4 * number + np.array([[0, 3], [1, 2]])[(x >> bit) & 1, (z >> bit) & 1]
    return number


def qdrift_step_by_digits(h, delta_t):
    """Oracle: the step PTM in base-4 digits, each word's phases the kron of DIGIT_PHASES rows, in the package's
    accumulation order (from I, less 2 p s^2 on the diagonal where a term anticommutes), then renumbered by the
    words' (x, z) masks, so that it is bit for bit the package's PTM."""
    probs = np.array([term.coefficient for term in h.terms]) / h.lam
    c, s = np.cos(h.lam * delta_t), np.sin(h.lam * delta_t)
    b = np.arange(4**h.num_qubits)
    ptm = np.eye(b.size)
    for p, term in zip(probs, h.terms):
        digits = ["IXYZ".index(axis) for axis in term.axes]
        phase = functools.reduce(np.kron, DIGIT_PHASES[digits])  # word_j sigma_b = phase[b] sigma_(b ^ w_j)
        ptm[b, b] -= 2.0 * p * s * s * phase.imag**2
        ptm[b ^ int("".join(map(str, digits)), 4), b] += 2.0 * p * c * s * term.sign * phase.imag
    order = kron_order(h.num_qubits)
    return ptm[np.ix_(order, order)]


def choi_by_pauli_legs(ptm):
    """Oracle: the Choi matrix of B R B^dagger, column a of B being vec(sigma_a) / sqrt(d), one qubit leg at a time.

    Each leg turns a Pauli digit into a (row, column) pair; one transpose puts all row digits before all column digits.
    """
    n = ptm.shape[0].bit_length() // 2
    out = ptm
    for k in range(2 * n):
        out = out.reshape(4, -1).T @ (PAULI_VEC if k < n else PAULI_VEC.conj()).T
    order = [*range(0, 4 * n, 2), *range(1, 4 * n, 2)]  # output factor first in rows and in columns
    return out.reshape((2,) * 4 * n).transpose(order).reshape(ptm.shape)


def choi_of(ptm):
    """The Choi matrix of a PTM, written into a fresh buffer that starts as NaN so an entry left unwritten shows."""
    return _choi_of_ptm(ptm, np.full(ptm.shape, np.nan, dtype=complex))


@st.composite
def small_hamiltonians(draw):
    """1-3 qubits, 1-8 distinct words (the identity word included), mixed signs."""
    n = draw(st.integers(1, 3))
    words = draw(st.lists(st.text("IXYZ", min_size=n, max_size=n), min_size=1, max_size=8, unique=True))
    terms = [(draw(st.sampled_from("+-")), draw(st.floats(1e-3, 10.0))) for _ in words]
    return parse_hamiltonian(" ".join(f"{sign} {c!r}*{w}" for (sign, c), w in zip(terms, words)))


class TestExactEvolution:
    def test_half_z_at_pi(self):
        h = parse_hamiltonian("0.5*Z")
        np.testing.assert_allclose(exact_evolution(h, np.pi), np.diag([-1j, 1j]), atol=1e-12)

    def test_time_zero(self, h2):
        np.testing.assert_allclose(exact_evolution(h2, 0.0), np.eye(2), atol=1e-15)

    def test_against_taylor_oracle(self):
        h = parse_hamiltonian("0.5*X + 0.5*Z")
        expected = matexp_taylor(hamiltonian_matrix(h), 1.0)
        assert np.max(np.abs(exact_evolution(h, 1.0) - expected)) < 1e-10


class TestTrotter:
    def test_single_term_exact_for_any_n(self, h1):
        exact = exact_evolution(h1, 1.7)
        for n in (1, 3, 10):
            assert spectral_norm(trotter_first_order(h1, 1.7, n) - exact) < 1e-12

    def test_time_zero(self, h2):
        np.testing.assert_allclose(trotter_first_order(h2, 0.0, 5), np.eye(2), atol=1e-15)

    def test_zero_steps_rejected(self, h2):
        with pytest.raises(ValueError, match=">= 1"):
            trotter_first_order(h2, 1.0, 0)

    def test_first_order_error_slope(self):
        h = parse_hamiltonian("0.5*X + 0.5*Z")
        exact = exact_evolution(h, 1.0)
        ns = [10, 20, 40, 80, 160, 320, 640]
        errors = [spectral_norm(trotter_first_order(h, 1.0, n) - exact) for n in ns]
        slope = fit_loglog_slope(ns, errors)
        assert -1.2 <= slope <= -0.8


class TestQdriftSample:
    def test_single_term(self, h1):
        traj = qdrift_sample(h1, 1.0, 6, seed=0)
        assert traj.sampled_indices == (1,) * 6
        assert spectral_norm(traj.resulting_unitary - exact_evolution(h1, 1.0)) < 1e-12

    def test_zero_steps_rejected(self, h2):
        with pytest.raises(ValueError, match=">= 1"):
            qdrift_sample(h2, 1.0, 0, seed=0)

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_non_count_seed_rejected(self, h2, seed):
        # Before, -1 ended in numpy's "expected non-negative integer", 1.5 in TypeError, and True ran as seed True.
        with pytest.raises(ValueError, match=f"^seed must be an integer >= 0, got {seed!r}$"):
            qdrift_sample(h2, 1.0, 5, seed=seed)

    def test_numpy_seed_is_stored_as_int(self, h2):
        traj = qdrift_sample(h2, 1.0, 50, seed=np.int64(9))
        assert type(traj.seed) is int and traj.sampled_indices == qdrift_sample(h2, 1.0, 50, seed=9).sampled_indices

    def test_seed_determinism(self, h2):
        a = qdrift_sample(h2, 1.0, 50, seed=9)
        b = qdrift_sample(h2, 1.0, 50, seed=9)
        assert a.sampled_indices == b.sampled_indices
        np.testing.assert_array_equal(a.resulting_unitary, b.resulting_unitary)

    def test_index_frequency_concentration(self, h2):
        traj = qdrift_sample(h2, 1.0, 10_000, seed=3)
        assert all(1 <= j <= 2 for j in traj.sampled_indices)
        freq = sum(1 for j in traj.sampled_indices if j == 1) / 10_000
        assert abs(freq - 0.6) <= 3 * np.sqrt(0.24 / 10_000)

    @pytest.mark.parametrize("num_qubits", [1, 2, 3, 4, 5])
    def test_draws_and_product_bit_equal_to_term_probabilities(self, num_qubits):
        # Probabilities h_j / lam and angle lam * dt, built here without build_extended: the same picks and the same
        # product, bit for bit, as the select ensemble gives.
        h = random_hamiltonian(np.random.default_rng(num_qubits), min(4**num_qubits - 1, 3 * num_qubits), num_qubits)
        unitaries = pauli_rotations(h, [h.lam * (0.7 / 40)] * h.num_terms)
        for seed in (0, 1, 2):
            picks = np.random.default_rng(seed).choice(
                h.num_terms, size=40, p=np.array([term.coefficient for term in h.terms]) / h.lam)
            product = functools.reduce(lambda u, j: unitaries[j] @ u, picks, np.eye(2**num_qubits, dtype=complex))
            traj = qdrift_sample(h, 0.7, 40, seed)
            assert traj.sampled_indices == tuple(int(j) + 1 for j in picks)
            assert traj.resulting_unitary.tobytes() == product.tobytes()

    def test_unitary_output(self, h2q):
        traj = qdrift_sample(h2q, 0.8, 30, seed=5)
        u = traj.resulting_unitary
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-10


class TestQdriftChannel:
    def test_single_term_is_unitary_channel(self, h1):
        c = qdrift_channel(h1, 1.0, 4)
        expected = conjugation_superoperator(exact_evolution(h1, 1.0))
        assert np.max(np.abs(c.superoperator - expected)) < 1e-12
        evals = np.linalg.eigvalsh(choi_matrix(c))
        assert evals[-1] == pytest.approx(2.0, abs=1e-9)
        assert np.max(np.abs(evals[:-1])) < 1e-9  # rank 1

    def test_time_zero_identity_channel(self, h2):
        c = qdrift_channel(h2, 0.0, 3)
        np.testing.assert_allclose(c.superoperator, np.eye(4), atol=1e-12)

    def test_cptp(self, h2):
        # Trace preserving: the Choi matrix's partial trace over the output is I; completely positive: it is PSD.
        c = qdrift_channel(h2, 1.0, 20)
        choi = choi_matrix(c)
        np.testing.assert_allclose(np.einsum("mimk->ik", choi.reshape(2, 2, 2, 2)), np.eye(2), atol=1e-9)
        assert np.linalg.eigvalsh(choi)[0] >= -1e-9

    def test_qubit_cap(self):
        h = parse_hamiltonian("0.5*XIXIXI + 0.5*ZZZZZZ")
        with pytest.raises(LimitExceededError, match="channel"):
            qdrift_channel(h, 1.0, 2)


class TestQdriftPtm:
    """The real Pauli-transfer-matrix step against the Kronecker-sum oracle."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(h=small_hamiltonians(), dt=st.floats(0.0, 1.0))
    def test_step_matches_kron_sum(self, h, dt):
        expected = choi_matrix(ChannelRep(qdrift_step_by_kron_sum(h, dt)))
        assert np.max(np.abs(choi_of(_qdrift_step_ptm(h, dt)) - expected)) <= 1e-12

    def test_ceiling_channel_matches_cubed_kron_sum(self):
        h = ceiling_hamiltonian("ceiling_5q32")
        expected = np.linalg.matrix_power(qdrift_step_by_kron_sum(h, 1.0 / 3), 3)
        assert np.max(np.abs(qdrift_channel(h, 1.0, 3).superoperator - expected)) <= 1e-12

    @pytest.mark.parametrize("num_qubits", [1, 2, 3, 4, 5])
    def test_step_bit_equal_to_digit_construction(self, num_qubits):
        # The (x, z) table build against base-4 digits with a phase product table: every entry is the same float.
        # The oracle takes its probabilities h_j / lam and angle lam * dt from h, not from the select ensemble.
        terms = min(4**num_qubits - 1, 2 ** (num_qubits + 1))
        h = random_hamiltonian(np.random.default_rng(num_qubits), terms, num_qubits)
        for dt in (0.0, 0.013, 0.8):
            assert _qdrift_step_ptm(h, dt).tobytes() == qdrift_step_by_digits(h, dt).tobytes()

    @pytest.mark.parametrize("num_qubits", [1, 2, 3])
    def test_identity_ptm_is_identity_choi(self, num_qubits):
        omega = np.eye(2**num_qubits).reshape(-1)  # sum_i |i>|i>, unnormalized
        choi = choi_of(np.eye(4**num_qubits))
        assert np.max(np.abs(choi - np.outer(omega, omega))) <= 1e-15

    @pytest.mark.parametrize("num_qubits", [1, 2, 3, 4, 5])
    def test_choi_matches_pauli_legs(self, num_qubits):
        # The (x, z) Walsh-Hadamard build against the per-leg basis change, which reads the PTM in kron order;
        # 4.3e-15 max |R| at 5 qubits.
        ptm = np.random.default_rng(num_qubits).standard_normal((4**num_qubits, 4**num_qubits))
        order = kron_order(num_qubits)
        assert np.array_equal(np.sort(order), np.arange(order.size))
        in_kron_order = np.empty_like(ptm)
        in_kron_order[np.ix_(order, order)] = ptm
        difference = choi_of(ptm) - choi_by_pauli_legs(in_kron_order)
        assert np.max(np.abs(difference)) <= 1e-14 * np.max(np.abs(ptm))


class TestPtmPower:
    """``linalg.compose`` on the real PTM against numpy.linalg.matrix_power (``test_linalg.TestCompose`` has the
    complex steps and the spares it allocates)."""

    @pytest.mark.parametrize("num_qubits", [1, 2, 3])
    @pytest.mark.parametrize("n", POWER_STEPS)
    def test_bit_equal_to_matrix_power(self, num_qubits, n):
        h = random_hamiltonian(np.random.default_rng(num_qubits), 2 * num_qubits, num_qubits)
        step = _qdrift_step_ptm(h, 0.8 / n)
        expected = np.linalg.matrix_power(step, n)
        compose(step, n, np.empty((2, *step.shape)))
        assert np.array_equal(step, expected)

    @pytest.mark.parametrize("n", POWER_STEPS)
    def test_writes_no_array_the_caller_holds(self, n):
        # The power writes only the step and the two spares handed to it: the buffers on either side of the
        # spares and a power the caller still holds keep their values. Two Choi matrices of the same point share
        # no memory and are bit-identical.
        h = random_hamiltonian(np.random.default_rng(3), 6, 3)
        earlier = _qdrift_step_ptm(h, 0.5)
        compose(earlier, 7, np.empty((2, *earlier.shape)))
        kept = earlier.copy()
        step = _qdrift_step_ptm(h, 0.8 / n)
        buffers = np.full((4, *step.shape), np.nan)  # a guard, the two spares, a guard
        compose(step, n, buffers[1:3])
        assert np.array_equal(earlier, kept) and np.isnan(buffers[[0, 3]]).all()
        first, second = _qdrift_choi(h, 0.8, n), _qdrift_choi(h, 0.8, n)
        assert np.array_equal(first, second) and not np.shares_memory(first, second)


# (random_hamiltonian generator seed or ceiling instance name, terms, qubits, t, N): 1-3 qubits and the 5q/32 ceiling.
CHOI_CASES = [(q, 2 * q, q, 0.8, n) for q in (1, 2, 3) for n in (1, 7, 1000)] + [("ceiling_5q32", 32, 5, 1.0, 10)]
CHOI_IDS = [f"{q}q{terms}-N{n}" for _, terms, q, _, n in CHOI_CASES]
CHOI_ROUNDOFF = 8 * np.finfo(float).eps  # 4 ulps of a reading near 2, the largest; the cases reach 2 eps


@functools.cache
def choi_readings(seed, num_terms, num_qubits, t, n):
    """The Hamiltonian, the point's reading, the eigvalsh reading of the same Choi difference, its spectrum, its trace.

    The eigvalsh reading is the one diamond_lower_bound takes, the sum of |eigenvalues| of J_D + J_D^dagger
    over 2d for J_D = J - w w^dagger; mu and the trace are those of (J + J^dagger) / 2 - w w^dagger.
    """
    h = (ceiling_hamiltonian(seed) if isinstance(seed, str)
         else random_hamiltonian(np.random.default_rng(seed), num_terms, num_qubits))
    w = exact_evolution(h, t).reshape(-1)
    j = _qdrift_choi(h, t, n) - np.outer(w, w.conj())
    j += j.conj().T
    mu = np.linalg.eigvalsh(j)
    eigvalsh_reading = float(np.sum(np.abs(mu))) / (2 * 2**num_qubits)
    return h, qdrift_point(h, t, n).epsilon_measured, eigvalsh_reading, mu / 2, np.trace(j).real / 2


class TestQdriftPoint:
    """The command-line qdrift point: the Choi matrix of the PTM power, the exact channel as a rank-one term.

    Its reading is 2 |mu_1| / d from Lanczos, where eigvalsh sums every |mu_i| / d. The two differ by exactly
    (tr + 2 sum_{i >= 2} |min(mu_i, 0)|) / d: roundoff of the computed difference, which is traceless and has
    one negative eigenvalue in exact arithmetic. Both readings carry about u d of roundoff from forming it.
    """

    @staticmethod
    def assert_bit_equal(h, t, n, eigvalsh_reading):
        expected = diamond_lower_bound(qdrift_channel(h, t, n), unitary_channel(exact_evolution(h, t)))
        assert eigvalsh_reading == expected

    @pytest.mark.parametrize("num_qubits", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 7, 1000])
    def test_bit_equal_to_diamond_lower_bound(self, num_qubits, n):
        # diamond_lower_bound reads the command-line Choi difference bit for bit; the point reads it by Lanczos.
        h, point, eigvalsh_reading, mu, trace = choi_readings(num_qubits, 2 * num_qubits, num_qubits, 0.8, n)
        self.assert_bit_equal(h, 0.8, n, eigvalsh_reading)
        noise = (trace + 2 * np.sum(np.abs(np.minimum(mu[1:], 0.0)))) / 2**h.num_qubits
        assert abs(eigvalsh_reading - point - noise) <= CHOI_ROUNDOFF

    def test_ceiling_bit_equal_to_diamond_lower_bound(self):
        h, _, eigvalsh_reading, _, _ = choi_readings("ceiling_5q32", 32, 5, 1.0, 10)
        self.assert_bit_equal(h, 1.0, 10, eigvalsh_reading)

    @pytest.mark.parametrize("seed", [pytest.param("ceiling_5q32", id="0"), 1, 2, 3, 4, 5])
    @pytest.mark.parametrize("n", [10, 1000])
    def test_ceiling_reads_lowest_eigenvalue(self, seed, n):
        # At 5 qubits the trace-and-noise identity of the smaller cases sits below eigvalsh's own roundoff, so
        # the point is compared with 2 |mu_1| / d alone. eigvalsh is backward stable: its eigenvalues are exact
        # for J_D + E with ||E||_2 <= p(m) u ||J_D||_2, p(m) a modestly growing function of the order m = d^2,
        # taken as m. Lanczos reads the same J_D through matrix-vector products under the same bound. Each
        # reading of 2 |mu_1| / d is then within 2 m u ||J_D||_2 / d, or about 1000 eps; these cases reach 29 eps.
        h, point, _, mu, _ = choi_readings(seed, 32, 5, 1.0, n)
        d = 2**h.num_qubits
        m, u = d * d, np.finfo(float).eps / 2
        tolerance = 2 * (2 * m * u * np.max(np.abs(mu)) / d)  # the bound for each of the two readings
        assert abs(point - 2 * abs(mu[0]) / d) <= tolerance

    @pytest.mark.parametrize("case", CHOI_CASES, ids=CHOI_IDS)
    def test_one_negative_eigenvalue(self, case):
        mu = choi_readings(*case)[3]
        assert np.sum(mu < -1e-12) <= 1

    @pytest.mark.parametrize("case", CHOI_CASES, ids=CHOI_IDS)
    def test_reading_at_least_lowest_eigenvalue(self, case):
        # The Kato-Temple term keeps the reading at or above |mu_1|, up to the roundoff both readings carry.
        h, point, _, mu, _ = choi_readings(*case)
        assert point >= 2 * abs(mu[0]) / 2**h.num_qubits - CHOI_ROUNDOFF

    @pytest.mark.parametrize("h,t", [
        (parse_hamiltonian("0.5*XZ + 0.3*ZI + 0.2*IY"), 0.0),
        (parse_hamiltonian("0.7*XYZ"), 1.0),
        (ceiling_hamiltonian("ceiling_5q32"), 0.0),
        (parse_hamiltonian("-0.7*ZZXYZ"), 1.0),
    ], ids=["2q-t0", "3q-single-term", "5q32-t0", "5q-single-term"])
    def test_exact_channels_read_zero(self, h, t):
        # The Choi difference is zero up to roundoff: Lanczos stops at its roundoff floor.
        for n in (1, 1000):
            assert qdrift_point(h, t, n).epsilon_measured <= 1e-12

    @staticmethod
    def weights_missing_one():
        # ROADMAP item 18's t = 0 case, which the corner instances miss: their select weights sum to exactly 1,
        # this 2-qubit, 15-term draw's to 1 - 1.1e-16 left to right. A step that sums p_j (c^2 + s^2) onto its
        # diagonal reads (1 - 1.1e-16) I here, and the point 2.2e-16, 2.2e-13 and 2.2e-10 at N = 1, 10^3 and 10^6.
        h = random_hamiltonian(np.random.default_rng(1), 15, 2)
        assert sum(build_extended(h).weights) != 1.0
        return h

    def test_time_zero_step_is_the_identity(self):
        assert _qdrift_step_ptm(self.weights_missing_one(), 0.0).tobytes() == np.eye(16).tobytes()

    @pytest.mark.parametrize("n", [1, 10**3, 10**6])
    def test_time_zero_reads_zero(self, n):
        assert qdrift_point(self.weights_missing_one(), 0.0, n).epsilon_measured == 0.0

    def test_floor_reading_keeps_the_kato_temple_term(self):
        # ROADMAP item 22's survivor: a Choi matrix within roundoff of the identity channel's, where Lanczos stops
        # at its roundoff floor after one step with a Ritz residual rho above the Ritz value theta. On span{x, y},
        # x = w / 2 and y a basis vector off w, the difference reads [[a, r], [r, 0]] with a = -ulp(4) / 2,
        # so lam_1 = (a - sqrt(a^2 + 4 r^2)) / 2 = -2.23e-15 lies below theta = |a| = 4.4e-16: only the rho term
        # lifts the reading (1.22e-15) above 2 |lam_1| / d = 1.12e-15; without it the point reads 2.2e-16.
        d, a, r = 4, np.nextafter(4.0, 0.0) - 4.0, 2e-15
        w = np.eye(d, dtype=complex).reshape(-1)
        x, y = w / 2, np.eye(d * d)[1]
        j = (d + a) * np.outer(x, x) + r * (np.outer(x, y) + np.outer(y, x))
        difference = (j + j.conj().T) / 2 - np.outer(w, w.conj())
        v = difference @ x
        theta, rho = abs(np.vdot(x, v).real), np.linalg.norm(v - np.vdot(x, v) * x)
        assert theta <= rho <= 4 * np.finfo(float).eps * d  # the floor branch, with rho >= theta
        lam_1 = np.linalg.eigvalsh(difference)[0]
        assert _distance_to_unitary(j, w) >= 2 * abs(lam_1) / d > 2 * theta / d

    @pytest.mark.parametrize("seed", range(8))
    def test_exhausted_krylov_run_keeps_its_basis_orthogonal(self, seed):
        # ROADMAP item 22's second survivor: J - w w^dagger in a random eigenbasis, with the one negative eigenvalue
        # -2e-12 that any positive semidefinite J gives it and the rest 2e-11, 1e-4 and 0.5. lam_1 is so poorly
        # separated that Lanczos runs until the 4-dimensional Krylov space is exhausted, and its last vector has
        # cancelled down to 1e-9 to 1e-6 of its norm: one Gram-Schmidt pass leaves it far from orthogonal, and on
        # seeds 3, 4, 6 and 7 the reading then falls 0.6-11 % below 2 |lam_1| / d. Both passes keep it above.
        d, rng = 2, np.random.default_rng(seed)
        q = np.linalg.qr(rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d)))[0]
        w = np.eye(d, dtype=complex).reshape(-1)
        j = (q * [-2e-12, 2e-11, 1e-4, 0.5]) @ q.conj().T + np.outer(w, w.conj())
        lam_1 = np.linalg.eigvalsh((j + j.conj().T) / 2 - np.outer(w, w.conj()))[0]
        assert _distance_to_unitary(j, w) >= 2 * abs(lam_1) / d - CHOI_ROUNDOFF

    def test_ceiling_roundoff_is_not_a_violation(self):
        # At N = 10**6 the PTM power leaves hundreds of eigenvalues below -1e-12 in the computed difference.
        # Summing every |eigenvalue| read 2.2e-9, above the 1.62e-9 bound; the error itself falls as 1/N
        # (7.8e-9 at N = 10**5), and the one negative eigenvalue reads 8.7e-10.
        point = qdrift_point(ceiling_hamiltonian("ceiling_5q32"), 1e-3, 10**6)
        assert point.bound_satisfied

    @pytest.mark.parametrize("text,n,reference", [
        (TWO_TERM, 10, 0.092247538644738020),
        (TWO_TERM, 100, 0.0095600905149138543),
        (THREE_TERM, 10, 0.11857159226858036),
        (THREE_TERM, 100, 0.012342239426394799),
    ])
    def test_matches_high_precision_reference(self, text, n, reference):
        # The golden qdrift points at t = 1. Each reference is the N-th power of the one-step superoperator
        # sum_j (h_j / lam) conj(U_j) kron U_j in 50-digit mpmath, less conj(U) kron U for U = exp(-iH),
        # reshuffled to the Choi matrix: the sum of |eigenvalues| of its Hermitian part (mpmath.eighe) over d.
        point = qdrift_point(parse_hamiltonian(text), 1.0, n)
        assert point.epsilon_measured == pytest.approx(reference, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n,reference", [
        (1000, 0.00095959838292187873315),
        (10**4, 0.000095995981292414680315),
    ])
    def test_not_below_high_precision_reference(self, n, reference):
        # two_term at t = 1, by the recipe of test_matches_high_precision_reference. The point reads high by
        # 4.3e-11 relative at N = 1000 and 5.2e-9 at N = 10^4: the PTM power's roundoff (ROADMAP item 3).
        assert qdrift_point(parse_hamiltonian(TWO_TERM), 1.0, n).epsilon_measured >= reference

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 1000])
    def test_ceiling_point_memory(self, n):
        # The point peaks at about 24 MiB: the 8 MiB step PTM, which the power overwrites, and one 16 MiB pair
        # that holds the power's two spares and then the Choi matrix. A third spare, matrix_power's own
        # products beside the pair (N = 2 and 3), a complex copy of the power or a second 16 MiB array
        # (superoperator, kron(conj(U), U), another Choi copy) breaks 32 MiB.
        h = ceiling_hamiltonian("ceiling_5q32")
        tracemalloc.start()
        try:
            qdrift_point(h, 1.0, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2**20

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc/self/status")
    def test_ceiling_sweep_resident_peak(self):
        # tracemalloc counts live arrays only; the resident peak also keeps freed heap chunks that later
        # arrays do not reuse. After the N = 10 point, the N = 100 and 1000 points reuse its two buffers,
        # so VmHWM rises by about 0.3 MiB; a power or Choi matrix allocated beside freed buffers rises 6 MiB.
        script = """
from conftest import ceiling_hamiltonian
from zenosim.channels import qdrift_point

def hwm_kib():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

h = ceiling_hamiltonian("ceiling_5q32")
qdrift_point(h, 1.0, 10)
first = hwm_kib()
qdrift_point(h, 1.0, 100)
qdrift_point(h, 1.0, 1000)
print(first, hwm_kib())
"""
        path = os.pathsep.join([str(Path(zenosim.__file__).parents[1]), str(Path(__file__).parent)])
        run = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
                             capture_output=True, text=True, timeout=120, check=True)
        first, last = map(int, run.stdout.split())
        assert last - first <= 2 * 1024, f"VmHWM (first, last) = ({first}, {last}) KiB"


class TestUnitaryChannel:
    def test_identity(self):
        c = unitary_channel(np.eye(2))
        np.testing.assert_allclose(c.superoperator, np.eye(4), atol=1e-15)

    def test_x_permutes_populations(self):
        c = unitary_channel(np.array([[0, 1], [1, 0]], dtype=complex))
        rho0 = np.diag([1.0, 0.0]).astype(complex)
        np.testing.assert_allclose(c.apply(rho0), np.diag([0.0, 1.0]), atol=1e-12)

    def test_composition_with_adjoint_is_identity(self):
        rng = np.random.default_rng(14)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        u, _ = np.linalg.qr(a)
        forward = unitary_channel(u).superoperator
        backward = unitary_channel(u.conj().T).superoperator
        assert np.max(np.abs(forward @ backward - np.eye(9))) < 1e-10

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            unitary_channel(np.array([[1.0, 0.0], [0.0, 0.5]]))


class TestChoiMatrix:
    def test_identity_channel_is_maximally_entangled_projector(self):
        c = unitary_channel(np.eye(2))
        omega = np.zeros(4, dtype=complex)
        omega[0] = omega[3] = 1.0 / np.sqrt(2)  # (|00> + |11>) / sqrt(2)
        np.testing.assert_allclose(choi_matrix(c), 2.0 * np.outer(omega, omega.conj()), atol=1e-12)

    def test_matches_direct_loop_oracle(self, h2, h2q):
        for channel in (qdrift_channel(h2, 1.0, 7), qdrift_channel(h2q, 0.6, 4)):
            np.testing.assert_allclose(
                choi_matrix(channel), choi_by_direct_loop(channel), atol=1e-12
            )

    def test_difference_with_itself_vanishes(self, h2):
        c = qdrift_channel(h2, 1.0, 5)
        assert np.max(np.abs(choi_matrix(c) - choi_matrix(c))) == 0.0

    def test_difference_channel_hermitian_traceless(self, h2):
        j = choi_matrix(qdrift_channel(h2, 1.0, 5)) - choi_matrix(
            unitary_channel(exact_evolution(h2, 1.0))
        )
        assert np.max(np.abs(j - j.conj().T)) < 1e-12
        assert abs(np.trace(j)) < 1e-12


class TestDiamondLowerBound:
    def test_equal_channels(self, h2):
        c = qdrift_channel(h2, 1.0, 5)
        assert diamond_lower_bound(c, c) == 0.0

    def test_identity_vs_bit_flip_is_maximal(self):
        c1 = unitary_channel(np.eye(2))
        c2 = unitary_channel(np.array([[0, 1], [1, 0]], dtype=complex))
        assert diamond_lower_bound(c1, c2) == pytest.approx(2.0, abs=1e-10)

    def test_dimension_mismatch(self, h2, h2q):
        with pytest.raises(ValueError, match="dimensions"):
            diamond_lower_bound(qdrift_channel(h2, 1.0, 2), qdrift_channel(h2q, 1.0, 2))

    def test_qdrift_bound_example(self, h2):
        lb = diamond_lower_bound(
            qdrift_channel(h2, 1.0, 25), unitary_channel(exact_evolution(h2, 1.0))
        )
        assert lb <= 0.16

    @pytest.mark.parametrize("fixture_name", ["h2", "h2q"])
    def test_bound_and_decay_slope(self, fixture_name, request):
        h = request.getfixturevalue(fixture_name)
        exact = unitary_channel(exact_evolution(h, 1.0))
        ns = [5, 10, 25, 50, 100, 200, 400]
        lbs = [diamond_lower_bound(qdrift_channel(h, 1.0, n), exact) for n in ns]
        for n, lb in zip(ns, lbs):
            assert lb <= 4.0 * h.lam**2 / n + 1e-12
        slope = fit_loglog_slope(ns, lbs)
        assert -1.2 <= slope <= -0.8


class TestZenoQdriftKinship:
    def test_single_step_partial_trace_matches_channel(self, h2, h3):
        # One pre-measurement extended step, ancilla traced out, equals the
        # one-step mixture channel on the target register.
        for h in (h2, h3):
            sys = build_extended(h)
            dt = 0.21
            psi = np.zeros(sys.target_dim, dtype=complex)
            psi[0] = 1.0
            combined = np.kron(psi, sys.projector_state)
            evolved = select_unitary(sys, dt) @ combined
            grid = evolved.reshape(sys.target_dim, sys.ancilla_dim)
            rho_target = grid @ grid.conj().T
            expected = qdrift_channel(h, dt, 1).apply(np.outer(psi, psi.conj()))
            assert np.max(np.abs(rho_target - expected)) < 1e-10


class TestTrajectoryChannelConsistency:
    def test_average_approaches_channel(self, h2):
        # Light version of the acceptance check: 2000 trajectories, 6 SE.
        n_steps, samples = 4, 2000
        supers = np.empty((samples, 4, 4), dtype=complex)
        for i in range(samples):
            u = qdrift_sample(h2, 1.0, n_steps, seed=100 + i).resulting_unitary
            supers[i] = conjugation_superoperator(u)
        mean = supers.mean(axis=0)
        exact = qdrift_channel(h2, 1.0, n_steps).superoperator
        for part in (np.real, np.imag):
            dev = np.abs(part(mean) - part(exact))
            se = np.sqrt(part(supers).var(axis=0, ddof=1) / samples)
            assert np.all(dev <= 6.0 * se + 1e-12)


class TestChannelRepValidation:
    def test_shape_checked(self):
        with pytest.raises(ValueError, match="superoperator"):
            ChannelRep(np.eye(3))

    @pytest.mark.parametrize("u", [np.ones((2, 3)), 2 * np.eye(2), np.full((2, 2), np.nan), np.eye(2) + 1e-9])
    def test_unitary_channel_needs_a_square_unitary(self, u):
        with pytest.raises(ValueError, match="^input is not unitary within tolerance 1e-10$"):
            unitary_channel(u)

    def test_unitary_channel_needs_a_matrix(self):
        with pytest.raises(ValueError, match="^expected a 2-D matrix"):
            unitary_channel(np.eye(2)[0])


@pytest.mark.parametrize(
    "make",
    [
        lambda variant: build_extended(parse_hamiltonian(THREE_TERM), variant),
        lambda variant: unitary_channel(np.eye(2)),
        lambda variant: qdrift_sample(parse_hamiltonian(THREE_TERM), 1.0, 3, 7),
    ],
    ids=["ExtendedSystem", "ChannelRep", "QdriftTrajectory"],
)
def test_array_holders_compare_and_hash(make):
    # Systems compare by (hamiltonian, variant); the channel classes by identity, so two equal draws differ.
    x, y = make("standard"), make("mub")
    assert x == x
    assert x != y
    assert hash(x) == hash(x)
