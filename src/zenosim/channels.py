"""The qdrift and trotter1 baselines, their sweep points, and the randomized-compilation channel machinery.

Each point's t, N and rotation angle lam * t pass ``bounds.step_time``; its record is ``bounds.sweep_point``.
qdrift draws term j with its select weight h_j / lam, which ``zeno.ExtendedSystem.weights`` owns, and turns it by
its block angle lam * dt: one select step with the ancilla traced out is one qdrift step (arXiv:1811.08017).

Superoperators act on column-stacked density matrices: ``vec(M)`` stacks
the columns of ``M``, so ``vec(A X B) = (B^T kron A) vec(X)`` and the
superoperator of conjugation by a unitary ``U`` is ``conj(U) kron U``.
The Choi matrix is unnormalized, ``J = sum_{i,k} E(|i><k|) kron |i><k|``
(output factor first), with trace d for trace-preserving maps. Its trace
norm divided by d is a lower bound on the diamond distance; the exact
diamond norm (a semidefinite program) is intentionally out of scope and
every reported value is labeled as a lower bound.

trotter1's product of rotations and the qdrift step are powered by ``linalg.compose``, the one N-fold power, which
mub's step shares. The qdrift channel is a real Pauli transfer matrix, its Pauli strings numbered b = x d + z by their
(x, z) masks of ``hamiltonian.pauli_tables``, built in O(L d^2) as I plus each term's change (so exactly I at t = 0)
and powered in its own buffer with two spares of its size; Walsh-Hadamard transforms in those masks turn its N-th power
into the Choi matrix J, one X part (d contiguous rows) at a time, written into the spares' memory. The exact channel's
Choi matrix is the rank-one w w^dagger (w = vec(exp(-iHt))), so J - w w^dagger has trace 0 and, J being positive
semidefinite, at most one negative eigenvalue lam_1 (Weyl interlacing): its trace norm is 2 |lam_1|, and every other
eigenvalue lies in [0, |lam_1|].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .bounds import ZenoRunResult, is_count, method_rate, step_time, sweep_point
from .errors import LimitExceededError
from .hamiltonian import PauliHamiltonian, exact_evolution, pauli_rotations, pauli_tables
from .linalg import MATRIX_TOL, as_matrix, compose, hermitian_eigen, hermitian_trace_norm, lapack, spectral_norm
from .zeno import build_extended

CHANNEL_MAX_QUBITS = 5

CP_TOL = 1e-9
TP_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class ChannelRep:
    """Completely positive trace-preserving map in superoperator form."""

    dim: int
    superoperator: np.ndarray

    def __post_init__(self):
        d = self.dim
        if self.superoperator.shape != (d * d, d * d):
            raise ValueError(
                f"superoperator must be {d * d} x {d * d}, got {self.superoperator.shape}"
            )

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Channel output for a density matrix (column stacking in and out)."""
        column = np.asarray(rho, dtype=complex).T.reshape(-1)
        return (self.superoperator @ column).reshape(self.dim, self.dim).T


@dataclass(frozen=True, eq=False)
class QdriftTrajectory:
    """One sampled product of term evolutions.

    Term numbering in ``sampled_indices`` is 1-based, matching the j = 1..L
    labels used elsewhere; factors are applied in sampled order (the first
    sampled index acts first on the state).
    """

    sampled_indices: tuple[int, ...]
    resulting_unitary: np.ndarray
    seed: int


def conjugation_superoperator(u: np.ndarray) -> np.ndarray:
    """Superoperator of rho -> u rho u^dagger (column stacking)."""
    u = np.asarray(u, dtype=complex)
    return np.kron(u.conj(), u)


def trotter_first_order(h: PauliHamiltonian, t: float, n_steps: int) -> np.ndarray:
    """First-order product formula, factors in term order (leftmost first).

    Each factor is the analytic exp(-i * h_j * H_j * delta_t) of one
    weighted term of the physical Hamiltonian.
    """
    delta_t = step_time(t, n_steps, method_rate("trotter1", h))
    return compose(reduce(np.matmul, pauli_rotations(h, [term.coefficient * delta_t for term in h.terms])), n_steps)


def qdrift_sample(h: PauliHamiltonian, t: float, n_steps: int, seed: int) -> QdriftTrajectory:
    """Sample one randomized product of ``n_steps`` factors from ``default_rng(seed)``, the seed an integer >= 0."""
    if not is_count(seed, 0):
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    sys = build_extended(h)
    delta_t = step_time(t, n_steps, method_rate("qdrift", h))
    unitaries = pauli_rotations(h, np.array(sys.block_rates[: h.num_terms]) * delta_t)
    picks = np.random.default_rng(seed).choice(h.num_terms, size=n_steps, p=sys.weights[: h.num_terms])
    product = np.eye(2**h.num_qubits, dtype=complex)
    for j in picks:
        product = unitaries[int(j)] @ product
    return QdriftTrajectory(
        sampled_indices=tuple(int(j) + 1 for j in picks),
        resulting_unitary=product,
        seed=int(seed),
    )


def _qdrift_step_ptm(h: PauliHamiltonian, delta_t: float) -> np.ndarray:
    """Real Pauli transfer matrix Tr(sigma_a E(sigma_b)) / d of one qDRIFT step, exactly I at delta_t = 0.

    Pauli string sigma_(x,z) is number b = x d + z, its masks side by side. With c, s = cos, sin of its block angle,
    term j maps sigma_b to c^2 sigma_b + s^2 P_j sigma_b P_j - i c s [P_j, sigma_b]: sigma_b where they commute, else
    (c^2 - s^2) sigma_b plus 2 P_j sigma_b. So R = I + sum_j p_j (O_j - I) takes 2 p_j s^2 off the diagonal where term
    j anticommutes, and for its word w_j = x_j d + z_j, sigma_(x_j,z_j) sigma_b = product[b] sigma_(b ^ w_j).
    """
    sys = build_extended(h)
    phase, sign = pauli_tables(h.num_qubits)
    d = len(sign)
    b, ptm = np.arange(d * d), np.eye(d * d)
    for p, rate, term in zip(sys.weights, sys.block_rates, h.terms):
        c, s = np.cos(rate * delta_t), np.sin(rate * delta_t)
        xj, zj = term.masks
        partner = b ^ (xj * d + zj)
        product = (phase[xj, zj] * phase * sign[xj]).reshape(-1) * phase.reshape(-1)[partner].conj()  # conj inverts
        ptm[b, b] -= 2.0 * p * s * s * product.imag**2  # 1 where they anticommute: the product is then imaginary
        ptm[partner, b] += 2.0 * p * c * s * term.sign * product.imag
    return ptm


def _choi_of_ptm(ptm: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the Choi matrix (1/d) sum_(a,b) R[a, b] sigma_a kron conj(sigma_b) of a real PTM R into ``out``.

    R is numbered as ``_qdrift_step_ptm`` numbers it, so X part x is the d contiguous rows (x, z) of R. As
    sigma_(x,z)[r, r ^ x] = phase[x, z] sign[r, z] (``pauli_tables``), J[(r, r'), (r ^ x, r' ^ x')] comes from those
    rows, phased and transformed by the sign table over z' and then z, one x-block at a time.
    ``out`` is a C-contiguous complex array of R's shape sharing no memory with R; block temporaries are d x d^2.
    """
    phase, sign = pauli_tables(ptm.shape[0].bit_length() // 2)
    d, r = len(sign), np.arange(len(sign))
    scatter = (r * d**3)[:, None, None] + r * d * d + (r[:, None] ^ r)  # [r, x', r']: J[(r, r'), (0, r' ^ x')]
    for x in range(d):  # each entry of out is written by exactly one block
        block = ptm[x * d : (x + 1) * d].reshape(d, d, d) * (phase[x] / d)[:, None, None]
        block = ((block * phase.conj()).reshape(d * d, d) @ sign).reshape(d, d * d)
        block = (sign @ block.view(float)).view(complex)  # z on the real view: the sign table is real
        out.reshape(-1)[scatter + ((r ^ x) * d)[:, None, None]] = block.reshape(d, d, d)
    return out


def _qdrift_choi(h: PauliHamiltonian, t: float, n_steps: int) -> np.ndarray:
    """Choi matrix of the N-fold composition of the randomized mixture channel.

    A point allocates two arrays: the step's PTM, which the power overwrites, and a pair of PTM-sized buffers
    that holds the power's spares and then, viewed as one complex matrix, the Choi matrix.
    """
    delta_t = step_time(t, n_steps, method_rate("qdrift", h))
    if h.num_qubits > CHANNEL_MAX_QUBITS:
        raise LimitExceededError(f"channel mode supports at most {CHANNEL_MAX_QUBITS} qubits, got {h.num_qubits}")
    ptm = _qdrift_step_ptm(h, delta_t)
    pair = np.empty((2, *ptm.shape))
    return _choi_of_ptm(compose(ptm, n_steps, pair), pair.reshape(ptm.shape[0], -1).view(complex))


def qdrift_channel(h: PauliHamiltonian, t: float, n_steps: int) -> ChannelRep:
    """The N-fold composition of the randomized mixture channel."""
    d = 2**h.num_qubits
    j4 = _qdrift_choi(h, t, n_steps).reshape(d, d, d, d)
    return ChannelRep(dim=d, superoperator=j4.transpose(2, 0, 3, 1).reshape(d * d, d * d))  # undoes choi_matrix


def _checked_unitary(u: np.ndarray) -> np.ndarray:
    """``u`` as a complex matrix, once square with u^dagger u the identity within ``MATRIX_TOL`` (a NaN fails)."""
    u = as_matrix(u)
    if u.shape[0] != u.shape[1] or not np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])), initial=0.0) <= MATRIX_TOL:
        raise ValueError(f"input is not unitary within tolerance {MATRIX_TOL:g}")
    return u


def unitary_channel(u: np.ndarray) -> ChannelRep:
    """Channel of conjugation by a unitary, whose Choi matrix is w w^dagger with w = u.reshape(-1)."""
    u = _checked_unitary(u)
    return ChannelRep(dim=u.shape[0], superoperator=conjugation_superoperator(u))


def choi_matrix(channel: ChannelRep) -> np.ndarray:
    """Unnormalized Choi matrix (output factor first, trace d for TP maps)."""
    d = channel.dim
    s4 = channel.superoperator.reshape(d, d, d, d)
    return s4.transpose(1, 3, 0, 2).reshape(d * d, d * d)


def is_trace_preserving(channel: ChannelRep) -> bool:
    """Check that the Choi matrix partial-traces to the identity."""
    d = channel.dim
    j4 = choi_matrix(channel).reshape(d, d, d, d)
    reduced = np.einsum("mimk->ik", j4)
    return float(np.max(np.abs(reduced - np.eye(d)))) <= TP_TOL


def is_completely_positive(channel: ChannelRep) -> bool:
    """Check that the Choi matrix has no eigenvalue below -CP_TOL."""
    j = choi_matrix(channel)
    evals = lapack(np.linalg.eigvalsh, (j + j.conj().T) / 2.0, "Choi matrix eigenvalue decomposition")
    return float(evals[0]) >= -CP_TOL


def diamond_lower_bound(c1: ChannelRep, c2: ChannelRep) -> float:
    """Trace norm of the Choi difference over d (the sum of its |eigenvalues|): lower-bounds the diamond distance."""
    if c1.dim != c2.dim:
        raise ValueError(f"channel dimensions differ: {c1.dim} vs {c2.dim}")
    j = choi_matrix(ChannelRep(c1.dim, c1.superoperator - c2.superoperator))
    j += j.conj().T  # J is Hermitian up to roundoff
    return hermitian_trace_norm(j) / (2 * c1.dim)


def _distance_to_unitary(j: np.ndarray, w: np.ndarray) -> float:
    """Trace norm over d of J - w w^dagger, for the Choi matrix J of a CPTP map and w = vec(U) of a unitary U.

    That is 2 |lam_1| / d. Lanczos with full reorthogonalisation, started at w / sqrt(d) (whose overlap with the
    lam_1 eigenvector is at least |lam_1| / d), applies (J + J^dagger) / 2 - w w^dagger without forming it. It
    stops once the Ritz residual rho is at most 1e-8 |theta| or a roundoff floor (exact channels), else when the
    Krylov space is exhausted. As lam_2 >= 0, Kato-Temple gives |lam_1| <= |theta| + rho^2 / |theta|, so the
    reading is never low; at the floor, where rho may exceed |theta|, rho stands in for that term.
    """
    d = math.isqrt(w.size)
    basis, alpha, beta = [w / np.linalg.norm(w)], [], []
    for _ in range(w.size):
        x = basis[-1]
        v = (j @ x + (x.conj() @ j).conj()) / 2 - w * np.vdot(w, x)
        alpha.append(np.vdot(x, v).real)
        q = np.array(basis)
        v -= q.T @ (q.conj() @ v)
        v -= q.T @ (q.conj() @ v)  # full reorthogonalisation: twice is enough
        beta.append(np.linalg.norm(v))
        ritz, vectors = hermitian_eigen(np.diag(alpha) + np.diag(beta[:-1], 1) + np.diag(beta[:-1], -1))
        theta, rho = abs(ritz[0]), beta[-1] * abs(vectors[-1, 0])
        if rho <= max(1e-8 * theta, 4 * np.finfo(float).eps * d):
            break
        basis.append(v / beta[-1])
    return float(2 * (theta + (rho * rho / max(theta, rho) if rho else 0.0)) / d)


def qdrift_point(h: PauliHamiltonian, t: float, n_steps: int) -> ZenoRunResult:
    """qdrift's sweep point: the trace norm over d of the Choi difference from the exact channel."""
    choi = _qdrift_choi(h, t, n_steps)
    w = _checked_unitary(exact_evolution(h, t)).reshape(-1)  # the exact channel's Choi matrix is w w^dagger
    return sweep_point("qdrift", h, t, n_steps, _distance_to_unitary(choi, w))


def trotter_point(h: PauliHamiltonian, t: float, n_steps: int) -> ZenoRunResult:
    """trotter1's sweep point: the spectral-norm distance of the product formula from the exact evolution."""
    error = spectral_norm(trotter_first_order(h, t, n_steps) - exact_evolution(h, t))
    return sweep_point("trotter1", h, t, n_steps, error)
