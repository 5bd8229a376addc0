"""Dense complex linear algebra used by every other module.

All operators are plain ``numpy.ndarray`` objects with dtype ``complex128``;
state vectors are 1-D arrays. Matrices stay dense throughout: the measured
sequences run on the target register (dimension at most 2^6 = 64); the
largest are 5-qubit qdrift's 4^5 x 4^5: a real Pauli transfer matrix and
its power's two spares, whose memory then holds the complex Choi matrix J.
Lanczos finds the one negative eigenvalue of J - w w^dagger without forming
it.

Hermiticity is checked to 1e-10, and so is unitarity, where ``channels``
takes a unitary (it holds its own ``CP_TOL`` and ``TP_TOL`` too); equality
assertions in callers should use 1e-9.
"""

from __future__ import annotations

import numpy as np

from .bounds import check_angle, is_real
from .errors import ConvergenceError

HERMITICITY_TOL = 1e-10


def as_matrix(a) -> np.ndarray:
    """Coerce input to a 2-D complex128 array."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    return m


def lapack(routine, a: np.ndarray, what: str, **options):
    """``routine(a, **options)``, with LAPACK's LinAlgError raised as a ConvergenceError naming ``what``."""
    try:
        return routine(a, **options)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"{what} did not converge: {exc}") from exc


def hermitian_eigen(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition h = U diag(w) U^dagger of a Hermitian matrix.

    Returns eigenvalues in ascending order and the unitary of column
    eigenvectors. Input must be Hermitian to within 1e-10.
    """
    h = as_matrix(h)
    if h.shape[0] != h.shape[1] or not np.max(np.abs(h - h.conj().T), initial=0.0) <= HERMITICITY_TOL:
        raise ValueError("matrix is not Hermitian within tolerance 1e-10")
    return lapack(np.linalg.eigh, h, "eigendecomposition")


def spectral_exp(w: np.ndarray, u: np.ndarray, theta: float) -> np.ndarray:
    """exp(-i * theta * h) = U diag(exp(-i * theta * w)) U^dagger from h = U diag(w) U^dagger; theta * max|w| finite.

    At theta = 0 it is exactly the identity, which U U^dagger misses by roundoff.
    """
    if not is_real(theta):
        raise ValueError(f"time or angle must be a finite real number, got {theta!r}")
    check_angle(np.max(np.abs(w), initial=0.0), theta)
    return np.eye(len(u), dtype=complex) if theta == 0 else (u * np.exp(-1j * float(theta) * w)) @ u.conj().T


def matexp_hermitian(h, theta: float) -> np.ndarray:
    """Unitary exp(-i * theta * h) for Hermitian h, via eigendecomposition."""
    return spectral_exp(*hermitian_eigen(h), theta)


def _singular_values(a: np.ndarray) -> np.ndarray:
    return lapack(np.linalg.svd, a, "singular value decomposition", compute_uv=False)


def spectral_norm(a) -> float:
    """Largest singular value, from a LAPACK singular value decomposition."""
    a = as_matrix(a)
    return float(_singular_values(a)[0]) if a.size else 0.0


def hermitian_trace_norm(a: np.ndarray) -> float:
    """Sum of |eigenvalues| of a Hermitian matrix (LAPACK reads its lower triangle)."""
    return float(np.sum(np.abs(lapack(np.linalg.eigvalsh, a, "Hermitian eigenvalue decomposition"))))


def trace_norm(a) -> float:
    """Sum of singular values of a square matrix.

    Uses a direct singular value decomposition: forming a^dagger a and
    taking square roots of its eigenvalues turns the O(eps * norm^2)
    rounding of zero modes into O(sqrt(eps) * norm) errors, which is too
    coarse for rank-deficient inputs such as Choi matrices of unitary
    channels.
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError("trace norm requires a square matrix")
    return float(np.sum(_singular_values(a)))
