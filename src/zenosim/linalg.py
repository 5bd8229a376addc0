"""Dense complex linear algebra used by every other module.

All operators are plain ``numpy.ndarray`` objects with dtype ``complex128``;
state vectors are 1-D arrays. Matrices stay dense throughout: the measured
sequences run on the target register (dimension at most 2^6 = 64) and the
largest matrices are the 5-qubit qdrift superoperators (dimension 4^5).

Tolerances are centralized here. Unless an operation states otherwise,
Hermiticity and unitarity are checked to 1e-10 and equality assertions in
callers should use 1e-9.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError

HERMITICITY_TOL = 1e-10
UNITARITY_TOL = 1e-10
EQUALITY_TOL = 1e-9


def as_matrix(a) -> np.ndarray:
    """Coerce input to a 2-D complex128 array."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    return m


def is_hermitian(a, tol: float = HERMITICITY_TOL) -> bool:
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        return False
    return float(np.max(np.abs(a - a.conj().T), initial=0.0)) <= tol


def is_unitary(a, tol: float = UNITARITY_TOL) -> bool:
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        return False
    eye = np.eye(a.shape[0])
    return float(np.max(np.abs(a.conj().T @ a - eye), initial=0.0)) <= tol


def hermitian_eigen(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition h = U diag(w) U^dagger of a Hermitian matrix.

    Returns eigenvalues in ascending order and the unitary of column
    eigenvectors. Input must be Hermitian to within 1e-10.
    """
    h = as_matrix(h)
    if not is_hermitian(h):
        raise ValueError("matrix is not Hermitian within tolerance 1e-10")
    try:
        w, u = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise ConvergenceError(f"eigendecomposition did not converge: {exc}") from exc
    return w, u


def matexp_hermitian(h, theta: float) -> np.ndarray:
    """Unitary exp(-i * theta * h) for Hermitian h, via eigendecomposition."""
    w, u = hermitian_eigen(h)
    phases = np.exp(-1j * float(theta) * w)
    return (u * phases) @ u.conj().T


def _singular_values(a: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise ConvergenceError(f"singular value decomposition did not converge: {exc}") from exc


def spectral_norm(a) -> float:
    """Largest singular value, from a LAPACK singular value decomposition."""
    a = as_matrix(a)
    return float(_singular_values(a)[0]) if a.size else 0.0


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
