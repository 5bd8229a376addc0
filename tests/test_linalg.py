"""Linear-algebra substrate: exponentials, norms, eigendecomposition."""

import math
import re
from functools import reduce

import numpy as np
import pytest
from conftest import THREE_TERM, ceiling_hamiltonian, random_hamiltonian

from zenosim import (
    ConvergenceError,
    choi_matrix,
    exact_evolution,
    hamiltonian_matrix,
    hermitian_eigen,
    matexp_hermitian,
    parse_hamiltonian,
    qdrift_channel,
    spectral_norm,
    trace_norm,
    unitary_channel,
)
from zenosim.bounds import method_rate, step_time
from zenosim.channels import _qdrift_step_ptm
from zenosim.hamiltonian import pauli_rotations
from zenosim.linalg import as_matrix, compose, hermitian_trace_norm
from zenosim.zeno import _corner, build_extended

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)


def random_complex(rng, rows, cols=None):
    cols = rows if cols is None else cols
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_hermitian(rng, dim):
    a = random_complex(rng, dim)
    return (a + a.conj().T) / 2.0


def matexp_taylor(h, theta, terms=30):
    """Scaled-and-squared truncated Taylor series for exp(-i theta h)."""
    m = -1j * float(theta) * np.asarray(h, dtype=complex)
    squarings = 0
    norm = np.linalg.norm(m, 2)
    while norm > 0.5:
        norm /= 2.0
        squarings += 1
    x = m / (2**squarings)
    out = np.eye(m.shape[0], dtype=complex)
    term = np.eye(m.shape[0], dtype=complex)
    for k in range(1, terms + 1):
        term = term @ x / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def real_matexp(x, alpha):
    """exp(alpha x) for Hermitian x via eigendecomposition (test oracle)."""
    w, u = np.linalg.eigh(x)
    return (u * np.exp(alpha * w)) @ u.conj().T


class TestMatexpHermitian:
    def test_z_quarter_turn(self):
        np.testing.assert_allclose(
            matexp_hermitian(Z, np.pi / 2), np.diag([-1j, 1j]), atol=1e-12
        )

    def test_theta_zero(self):
        np.testing.assert_allclose(matexp_hermitian(X, 0.0), np.eye(2), atol=1e-15)

    def test_against_taylor_oracle(self):
        rng = np.random.default_rng(2)
        h = random_hermitian(rng, 8)
        got = matexp_hermitian(h, 0.7)
        expected = matexp_taylor(h, 0.7)
        assert np.max(np.abs(got - expected)) < 1e-10

    def test_unitary_output(self):
        rng = np.random.default_rng(3)
        h = random_hermitian(rng, 6)
        u = matexp_hermitian(h, 1.3)
        assert np.max(np.abs(u.conj().T @ u - np.eye(6))) < 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            matexp_hermitian(np.array([[0, 1], [0, 0]], dtype=complex), 1.0)

    def test_additivity(self):
        rng = np.random.default_rng(4)
        h = random_hermitian(rng, 5)
        lhs = matexp_hermitian(h, 0.4) @ matexp_hermitian(h, 0.9)
        rhs = matexp_hermitian(h, 1.3)
        assert np.max(np.abs(lhs - rhs)) < 1e-9

    @pytest.mark.parametrize("t", [0.0, 0.7, -1.3, np.float32(0.5), 3])
    def test_exact_evolution_shares_the_formula(self, t):
        h = parse_hamiltonian(THREE_TERM)
        assert np.array_equal(exact_evolution(h, t), matexp_hermitian(hamiltonian_matrix(h), t))

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf, True, np.bool_(True), "1", 1j])
    @pytest.mark.parametrize("entry", ["matexp_hermitian", "exact_evolution"])
    def test_time_or_angle_must_be_finite_and_real(self, entry, theta):
        # Before, nan and +-inf gave NaN matrices, True, np.True_ and "1" ran as 1, and 1j raised TypeError.
        h = parse_hamiltonian(THREE_TERM)
        message = f"^time or angle must be a finite real number, got {re.escape(repr(theta))}$"
        with pytest.raises(ValueError, match=message):
            if entry == "matexp_hermitian":
                matexp_hermitian(hamiltonian_matrix(h), theta)
            else:
                exact_evolution(h, theta)


class TestAsMatrix:
    def test_rejects_a_vector(self):
        with pytest.raises(ValueError, match=re.escape("expected a 2-D matrix, got shape (3,)")):
            as_matrix(np.ones(3))


class TestSpectralNorm:
    @pytest.mark.parametrize("dim", [1, 2, 5, 16])
    def test_identity(self, dim):
        assert spectral_norm(np.eye(dim)) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal(self):
        assert spectral_norm(np.diag([3.0, -4.0])) == pytest.approx(4.0, abs=1e-10)

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((3, 3))) == 0.0

    def test_matches_svd_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a = random_complex(rng, 16)
            expected = float(np.linalg.svd(a, compute_uv=False)[0])
            assert spectral_norm(a) == pytest.approx(expected, abs=1e-8)

    def test_rectangular(self):
        rng = np.random.default_rng(8)
        a = random_complex(rng, 6, 3)
        expected = float(np.linalg.svd(a, compute_uv=False)[0])
        assert spectral_norm(a) == pytest.approx(expected, abs=1e-8)

    def test_restart_when_start_vector_in_null_space(self):
        # The all-ones start vector is exactly annihilated by X - I.
        assert spectral_norm(X - np.eye(2)) == pytest.approx(2.0, abs=1e-9)

    def test_nearly_degenerate_top_pair(self):
        # A top singular pair this close stalls power iteration; SVD resolves it.
        a = np.diag([1.0, np.sqrt(1.0 - 1e-4)]).astype(complex)
        assert abs(spectral_norm(a) - 1.0) <= 1e-12

    def test_submultiplicative_and_triangle(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            a = random_complex(rng, 8)
            b = random_complex(rng, 8)
            na, nb = spectral_norm(a), spectral_norm(b)
            assert spectral_norm(a @ b) <= na * nb + 1e-8
            assert spectral_norm(a + b) <= na + nb + 1e-8


class TestTraceNorm:
    def test_diagonal(self):
        assert trace_norm(np.diag([1.0, -2.0, 3.0])) == pytest.approx(6.0, abs=1e-10)

    def test_zero(self):
        assert trace_norm(np.zeros((4, 4))) == 0.0

    def test_requires_square(self):
        with pytest.raises(ValueError, match="square"):
            trace_norm(np.ones((2, 3)))

    def test_choi_of_unitary_channel(self):
        # Direct construction: J = sum_{i,k} U|i><k|U^dag (x) |i><k| is a
        # rank-1 positive matrix with trace 2, so its trace norm equals 2.
        rng = np.random.default_rng(10)
        h = random_hermitian(rng, 2)
        u = matexp_hermitian(h, 0.37)
        j = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for k in range(2):
                e = np.zeros((2, 2), dtype=complex)
                e[i, k] = 1.0
                j += np.kron(u @ e @ u.conj().T, e)
        assert trace_norm(j) == pytest.approx(2.0, abs=1e-10)


class TestHermitianTraceNorm:
    def test_matches_singular_values_on_random_hermitian(self):
        rng = np.random.default_rng(12)
        for dim in (1, 2, 7, 64, 256):
            a = random_hermitian(rng, dim)
            assert hermitian_trace_norm(a) == pytest.approx(trace_norm(a), rel=1e-10)

    def test_matches_singular_values_on_qdrift_choi_difference(self):
        h = random_hamiltonian(np.random.default_rng(0), 8, 4)
        j = choi_matrix(qdrift_channel(h, 1.0, 1000)) - choi_matrix(unitary_channel(exact_evolution(h, 1.0)))
        j = (j + j.conj().T) / 2.0
        assert hermitian_trace_norm(j) == pytest.approx(trace_norm(j), rel=1e-10)

    def test_orthogonal_unitary_channels(self):
        j = choi_matrix(unitary_channel(np.eye(2))) - choi_matrix(unitary_channel(X))
        assert hermitian_trace_norm(j) / 2 == pytest.approx(2.0, abs=1e-10)

    def test_lapack_failure_is_convergence_error(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(ConvergenceError, match="did not converge"):
            hermitian_trace_norm(np.eye(2))


class TestHermitianEigen:
    def test_sorted_ascending(self):
        w, _ = hermitian_eigen(np.diag([2.0, 1.0]))
        np.testing.assert_allclose(w, [1.0, 2.0])

    def test_pauli_x(self):
        w, _ = hermitian_eigen(X)
        np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("dim", [4, 32, 256])
    def test_reconstruction(self, dim):
        rng = np.random.default_rng(dim)
        h = random_hermitian(rng, dim)
        w, u = hermitian_eigen(h)
        assert spectral_norm((u * w) @ u.conj().T - h) < 1e-9
        assert spectral_norm(u.conj().T @ u - np.eye(dim)) < 1e-9

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_eigen(np.array([[0, 1], [2, 0]], dtype=complex))


class TestOperatorIdentities:
    def test_telescoping(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            dim = int(rng.integers(2, 7))
            n = int(rng.integers(1, 9))
            a = random_complex(rng, dim)
            b = random_complex(rng, dim)
            a /= max(1.0, np.linalg.norm(a, 2))
            b /= max(1.0, np.linalg.norm(b, 2))
            acc = np.zeros((dim, dim), dtype=complex)
            for k in range(n):
                acc += (
                    np.linalg.matrix_power(a, k)
                    @ (a - b)
                    @ np.linalg.matrix_power(b, n - 1 - k)
                )
            lhs = np.linalg.matrix_power(a, n) - np.linalg.matrix_power(b, n)
            assert spectral_norm(lhs - acc) < 1e-10

    @pytest.mark.parametrize("alpha", [0.1, 0.5])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_taylor_remainder_bound(self, alpha, k):
        rng = np.random.default_rng(13 + k)
        for _ in range(10):
            x = random_hermitian(rng, 6)
            norm_x = spectral_norm(x)
            partial = np.zeros((6, 6), dtype=complex)
            power = np.eye(6, dtype=complex)
            factorial = 1.0
            for n in range(k + 1):
                if n > 0:
                    power = power @ x
                    factorial *= n
                partial += (alpha**n / factorial) * power
            remainder = spectral_norm(real_matexp(x, alpha) - partial)
            bound = (
                alpha ** (k + 1)
                * norm_x ** (k + 1)
                * np.exp(alpha * norm_x)
                / math.factorial(k + 1)
            )
            assert remainder <= bound + 1e-12


POWER_STEPS = [1, 2, 3, 4, 5, 10, 100, 1000, 10**6]


def power_step(kind, n):
    """The step each caller of ``compose`` powers at t = 1 and N = n: qdrift's real PTM on a 2-qubit instance, and
    mub's A(dt) and trotter1's product of rotations, both complex 64 x 64 on ``ceiling_6q32``."""
    if kind == "qdrift":
        h = random_hamiltonian(np.random.default_rng(2), 4, 2)
        return _qdrift_step_ptm(h, step_time(1.0, n, h.lam))
    h = ceiling_hamiltonian("ceiling_6q32")
    if kind == "mub":
        return _corner(build_extended(h, "mub"), step_time(1.0, n, method_rate("mub", h)))
    delta_t = step_time(1.0, n, h.lam)
    return reduce(np.matmul, pauli_rotations(h, [term.coefficient * delta_t for term in h.terms]))


class TestCompose:
    """The one N-fold power against numpy.linalg.matrix_power, on every dtype it serves (``test_channels.TestPtmPower``
    runs the real qdrift PTM at 1-3 qubits with spares handed in)."""

    @pytest.mark.parametrize("kind", ["qdrift", "mub", "trotter1"])
    @pytest.mark.parametrize("n", POWER_STEPS)
    def test_bit_equal_to_matrix_power(self, kind, n):
        step = power_step(kind, n)
        expected = np.linalg.matrix_power(step, n)
        assert compose(step, n) is step and np.array_equal(step, expected)

    @pytest.mark.parametrize("kind", ["mub", "trotter1"])
    @pytest.mark.parametrize("n", POWER_STEPS)
    def test_complex_power_writes_only_step_and_spares(self, kind, n):
        step = power_step(kind, n)
        expected = np.linalg.matrix_power(step, n)
        buffers = np.full((4, *step.shape), np.nan, complex)  # a guard, the two spares, a guard
        compose(step, n, buffers[1:3])
        assert np.array_equal(step, expected) and np.isnan(buffers[[0, 3]]).all()
