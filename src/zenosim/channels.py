"""Exact/Trotter baselines and the randomized-compilation channel machinery.

Superoperators act on column-stacked density matrices: ``vec(M)`` stacks
the columns of ``M``, so ``vec(A X B) = (B^T kron A) vec(X)`` and the
superoperator of conjugation by a unitary ``U`` is ``conj(U) kron U``.
The Choi matrix is unnormalized, ``J = sum_{i,k} E(|i><k|) kron |i><k|``
(output factor first), with trace d for trace-preserving maps. Its trace
norm divided by d is a lower bound on the diamond distance; the exact
diamond norm (a semidefinite program) is intentionally out of scope and
every reported value is labeled as a lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import LimitExceededError
from .hamiltonian import PauliHamiltonian, pauli_rotations
from .linalg import is_unitary, trace_norm

CHANNEL_MAX_QUBITS = 5

CP_TOL = 1e-9
TP_TOL = 1e-9


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
    if n_steps < 1:
        raise ValueError(f"step count must be >= 1, got {n_steps}")
    delta_t = t / n_steps
    step = reduce(np.matmul, pauli_rotations(h, [term.coefficient * delta_t for term in h.terms]))
    return np.linalg.matrix_power(step, n_steps)


def _qdrift_ensemble(h: PauliHamiltonian, delta_t: float) -> tuple[np.ndarray, np.ndarray]:
    """qDRIFT's sampling probabilities h_j / lam and its term rotations at angle lam * dt."""
    lam = h.lam
    probs = np.array([term.coefficient / lam for term in h.terms])
    return probs, pauli_rotations(h, [lam * delta_t] * h.num_terms)


def qdrift_sample(h: PauliHamiltonian, t: float, n_steps: int, seed: int) -> QdriftTrajectory:
    """Sample one randomized product of ``n_steps`` factors from ``default_rng(seed)``."""
    if n_steps < 1:
        raise ValueError(f"step count must be >= 1, got {n_steps}")
    probs, unitaries = _qdrift_ensemble(h, t / n_steps)
    picks = np.random.default_rng(seed).choice(h.num_terms, size=n_steps, p=probs)
    product = np.eye(2**h.num_qubits, dtype=complex)
    for j in picks:
        product = unitaries[int(j)] @ product
    return QdriftTrajectory(
        sampled_indices=tuple(int(j) + 1 for j in picks),
        resulting_unitary=product,
        seed=seed,
    )


def qdrift_step_superoperator(h: PauliHamiltonian, delta_t: float) -> np.ndarray:
    """Superoperator of the single-step randomized mixture."""
    out = np.zeros((4**h.num_qubits, 4**h.num_qubits), dtype=complex)
    for p, u in zip(*_qdrift_ensemble(h, delta_t)):
        out += p * conjugation_superoperator(u)
    return out


def qdrift_channel(h: PauliHamiltonian, t: float, n_steps: int) -> ChannelRep:
    """The N-fold composition of the randomized mixture channel."""
    if n_steps < 1:
        raise ValueError(f"step count must be >= 1, got {n_steps}")
    if h.num_qubits > CHANNEL_MAX_QUBITS:
        raise LimitExceededError(
            f"channel mode supports at most {CHANNEL_MAX_QUBITS} qubits, got {h.num_qubits}"
        )
    step = qdrift_step_superoperator(h, t / n_steps)
    total = np.linalg.matrix_power(step, n_steps)
    return ChannelRep(dim=2**h.num_qubits, superoperator=total)


def unitary_channel(u: np.ndarray) -> ChannelRep:
    """Channel of conjugation by a unitary."""
    u = np.asarray(u, dtype=complex)
    if not is_unitary(u):
        raise ValueError("input is not unitary within tolerance 1e-10")
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
    evals = np.linalg.eigvalsh((j + j.conj().T) / 2.0)
    return float(evals[0]) >= -CP_TOL


def diamond_lower_bound(c1: ChannelRep, c2: ChannelRep) -> float:
    """Trace norm of the Choi difference over d: lower-bounds the diamond distance."""
    if c1.dim != c2.dim:
        raise ValueError(f"channel dimensions differ: {c1.dim} vs {c2.dim}")
    return trace_norm(choi_matrix(c1) - choi_matrix(c2)) / c1.dim
