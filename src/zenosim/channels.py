"""The qdrift and trotter1 baselines, their sweep points, and the randomized-compilation channel machinery.

Each point's t and N pass ``bounds.step_time``, and its record is ``bounds.sweep_point``, as for the Zeno runs.

Superoperators act on column-stacked density matrices: ``vec(M)`` stacks
the columns of ``M``, so ``vec(A X B) = (B^T kron A) vec(X)`` and the
superoperator of conjugation by a unitary ``U`` is ``conj(U) kron U``.
The Choi matrix is unnormalized, ``J = sum_{i,k} E(|i><k|) kron |i><k|``
(output factor first), with trace d for trace-preserving maps. Its trace
norm divided by d is a lower bound on the diamond distance; the exact
diamond norm (a semidefinite program) is intentionally out of scope and
every reported value is labeled as a lower bound.

The qdrift channel is a real Pauli transfer matrix, built in O(L d^2) and
powered in its own buffer with two spares of its size; Walsh-Hadamard
transforms in (x, z) Pauli coordinates turn its N-th power into the Choi
matrix J, one X part at a time, written into the spares' memory. The exact
channel's Choi matrix is the rank-one w w^dagger (w = vec(exp(-iHt))), so
J - w w^dagger has trace 0 and, J being positive semidefinite, at most one
negative eigenvalue lam_1 (Weyl interlacing): its trace norm is 2 |lam_1|,
and every other eigenvalue lies in [0, |lam_1|].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .bounds import ZenoRunResult, is_count, step_time, sweep_point
from .errors import LimitExceededError
from .hamiltonian import PAULI_AXES, PauliHamiltonian, exact_evolution, pauli_rotations
from .linalg import as_matrix, hermitian_eigen, hermitian_trace_norm, lapack, spectral_norm

CHANNEL_MAX_QUBITS = 5

CP_TOL = 1e-9
TP_TOL = 1e-9

# sigma_w sigma_b = _PAULI_PHASES[w, b] sigma_(w ^ b), with I, X, Y, Z numbered 0-3.
_PAULI_PHASES = np.array([[1, 1, 1, 1], [1, 1, 1j, -1j], [1, -1j, 1, 1j], [1, 1j, -1j, 1]])


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
    delta_t = step_time(t, n_steps)
    step = reduce(np.matmul, pauli_rotations(h, [term.coefficient * delta_t for term in h.terms]))
    return np.linalg.matrix_power(step, n_steps)


def _qdrift_ensemble(h: PauliHamiltonian, delta_t: float) -> tuple[np.ndarray, float]:
    """qDRIFT's sampling probabilities h_j / lam and its rotation angle lam * dt."""
    return np.array([term.coefficient for term in h.terms]) / h.lam, h.lam * delta_t


def qdrift_sample(h: PauliHamiltonian, t: float, n_steps: int, seed: int) -> QdriftTrajectory:
    """Sample one randomized product of ``n_steps`` factors from ``default_rng(seed)``, the seed an integer >= 0."""
    if not is_count(seed, 0):
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    probs, angle = _qdrift_ensemble(h, step_time(t, n_steps))
    unitaries = pauli_rotations(h, [angle] * h.num_terms)
    picks = np.random.default_rng(seed).choice(h.num_terms, size=n_steps, p=probs)
    product = np.eye(2**h.num_qubits, dtype=complex)
    for j in picks:
        product = unitaries[int(j)] @ product
    return QdriftTrajectory(
        sampled_indices=tuple(int(j) + 1 for j in picks),
        resulting_unitary=product,
        seed=int(seed),
    )


def _qdrift_step_ptm(h: PauliHamiltonian, delta_t: float) -> np.ndarray:
    """Real Pauli transfer matrix Tr(sigma_a E(sigma_b)) / d of one qDRIFT step.

    Pauli strings are in kron order (qubit 0 is the most significant base-4 digit). With
    c, s = cos, sin(lam * dt), term j maps sigma_b to c^2 sigma_b + s^2 P_j sigma_b P_j
    - i c s [P_j, sigma_b]: a diagonal part, plus 2 P_j sigma_b where they anticommute.
    """
    probs, angle = _qdrift_ensemble(h, delta_t)
    c, s = np.cos(angle), np.sin(angle)
    b = np.arange(4**h.num_qubits)
    ptm = np.zeros((b.size, b.size))
    for p, term in zip(probs, h.terms):
        digits = [PAULI_AXES.index(axis) for axis in term.axes]
        phase = reduce(np.kron, _PAULI_PHASES[digits])  # word_j sigma_b = phase[b] sigma_(b ^ w_j)
        ptm[b, b] += p * (c * c + s * s * (phase * phase).real)  # phase^2 is -1 where they anticommute
        ptm[b ^ int("".join(map(str, digits)), 4), b] += 2.0 * p * c * s * term.sign * phase.imag
    return ptm


def _ptm_power(step: np.ndarray, n_steps: int, spares: np.ndarray) -> None:
    """Overwrite step with step^N in numpy.linalg.matrix_power's product order, bit for bit (N = 3 by its short cut).

    ``spares`` holds two more buffers of step's shape; the products go there and into step, and nothing else is
    written. A power that ends in a spare is copied back into step.
    """
    if n_steps == 3:  # matrix_power's (step @ step) @ step; the loop would take step @ (step @ step)
        power = np.matmul(np.matmul(step, step, out=spares[0]), step, out=spares[1])
    else:  # for N = 1 and 2 the loop takes matrix_power's step and step @ step
        buffers, z, power = (step, *spares), None, None

        def spare():
            return next(b for b in buffers if b is not z and b is not power)

        while n_steps:
            z = step if z is None else np.matmul(z, z, out=spare())
            n_steps, bit = divmod(n_steps, 2)
            if bit:
                power = z if power is None else np.matmul(power, z, out=spare())
    if power is not step:
        np.copyto(step, power)


def _xz_tables(num_qubits: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Tables of the (x, z) Pauli coordinates: I, X, Y, Z are (0,0), (1,0), (1,1), (0,1), qubit 0 the top bit.

    index[x, z] numbers that Pauli in kron order, phase[x, z] = (-i)^|x & z|, hadamard[r, z] = (-1)^|r & z|,
    and scatter[r, x', r'] is the flat position of J[(r, r'), (0, r' ^ x')].
    """
    d = 2**num_qubits
    r, x = np.arange(d), np.arange(d)[:, None]
    index = overlap = 0
    for bit in reversed(range(num_qubits)):
        xb, zb = (x >> bit) & 1, (r >> bit) & 1
        index, overlap = 4 * index + np.array([[0, 3], [1, 2]])[xb, zb], overlap + (xb & zb)
    return index, (-1j) ** overlap, (-1.0) ** overlap, (r * d**3)[:, None, None] + r * d * d + (x ^ r)


def _choi_of_ptm(ptm: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the Choi matrix (1/d) sum_(a,b) R[a, b] sigma_a kron conj(sigma_b) of a real PTM R into ``out``.

    As sigma_(x,z)[r, r ^ x] = (-i)^|x & z| (-1)^(z.r), J[(r, r'), (r ^ x, r' ^ x')] comes from the d rows (x, z)
    of R, phased and Walsh-Hadamard transformed over z' and then z, one x-block at a time. ``out`` is a
    C-contiguous complex array of R's shape that shares no memory with R; a block's temporaries are d x d^2.
    """
    index, phase, hadamard, scatter = _xz_tables(ptm.shape[0].bit_length() // 2)
    d, r = index.shape[0], np.arange(index.shape[0])
    for x in range(d):  # each entry of out is written by exactly one block
        block = ptm.take(index[x], axis=0).take(index.reshape(-1), axis=1).reshape(d, d, d)
        block = block * (phase[x] / d)[:, None, None]
        block = ((block * phase.conj()).reshape(d * d, d) @ hadamard).reshape(d, d * d)
        block = (hadamard @ block.view(float)).view(complex)  # z on the real view: H is real
        out.reshape(-1)[scatter + ((r ^ x) * d)[:, None, None]] = block.reshape(d, d, d)
    return out


def _qdrift_choi(h: PauliHamiltonian, t: float, n_steps: int) -> np.ndarray:
    """Choi matrix of the N-fold composition of the randomized mixture channel.

    A point allocates two arrays: the step's PTM, which the power overwrites, and a pair of PTM-sized buffers
    that holds the power's spares and then, viewed as one complex matrix, the Choi matrix.
    """
    delta_t = step_time(t, n_steps)
    if h.num_qubits > CHANNEL_MAX_QUBITS:
        raise LimitExceededError(
            f"channel mode supports at most {CHANNEL_MAX_QUBITS} qubits, got {h.num_qubits}"
        )
    ptm = _qdrift_step_ptm(h, delta_t)
    pair = np.empty((2, *ptm.shape))
    _ptm_power(ptm, n_steps, pair)
    return _choi_of_ptm(ptm, pair.reshape(ptm.shape[0], -1).view(complex))


def qdrift_channel(h: PauliHamiltonian, t: float, n_steps: int) -> ChannelRep:
    """The N-fold composition of the randomized mixture channel."""
    d = 2**h.num_qubits
    j4 = _qdrift_choi(h, t, n_steps).reshape(d, d, d, d)
    return ChannelRep(dim=d, superoperator=j4.transpose(2, 0, 3, 1).reshape(d * d, d * d))  # undoes choi_matrix


def _checked_unitary(u: np.ndarray) -> np.ndarray:
    """``u`` as a complex matrix, once it is square and u^dagger u is the identity within 1e-10 (a NaN fails)."""
    u = as_matrix(u)
    if u.shape[0] != u.shape[1] or not np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])), initial=0.0) <= 1e-10:
        raise ValueError("input is not unitary within tolerance 1e-10")
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
    step_time(t, n_steps)
    w = _checked_unitary(exact_evolution(h, t)).reshape(-1)  # the exact channel's Choi matrix is w w^dagger
    return sweep_point("qdrift", h, t, n_steps, _distance_to_unitary(_qdrift_choi(h, t, n_steps), w))


def trotter_point(h: PauliHamiltonian, t: float, n_steps: int) -> ZenoRunResult:
    """trotter1's sweep point: the spectral-norm distance of the product formula from the exact evolution."""
    error = spectral_norm(trotter_first_order(h, t, n_steps) - exact_evolution(h, t))
    return sweep_point("trotter1", h, t, n_steps, error)
