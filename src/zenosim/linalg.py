"""Dense complex linear algebra used by every other module.

All operators are plain ``numpy.ndarray`` objects with dtype ``complex128``
(the qdrift Pauli transfer matrix is real); state vectors are 1-D arrays.
Matrices stay dense throughout: the measured sequences run on the target
register (dimension at most 2^6 = 64); the largest are 5-qubit qdrift's
4^5 x 4^5: a real Pauli transfer matrix and its power's two spares, whose
memory then holds the complex Choi matrix J. Lanczos finds the one negative
eigenvalue of J - w w^dagger without forming it. ``compose`` is the one
N-fold power: of mub's A(dt), trotter1's product of rotations and that PTM.

Hermiticity is checked to ``MATRIX_TOL`` (1e-10), and so are unitarity, where
``channels`` takes a unitary (it holds its own ``CP_TOL`` and ``TP_TOL`` too),
and the norm of an initial state in ``zeno``; equality assertions in callers
should use 1e-9.
"""

from __future__ import annotations

import numpy as np

from .bounds import check_angle, is_real
from .errors import ConvergenceError

MATRIX_TOL = 1e-10  # Hermiticity, unitarity and state normalisation, wherever a caller's input is checked


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
    eigenvectors. Input must be Hermitian to within ``MATRIX_TOL``.
    """
    h = as_matrix(h)
    if h.shape[0] != h.shape[1] or not np.max(np.abs(h - h.conj().T), initial=0.0) <= MATRIX_TOL:
        raise ValueError(f"matrix is not Hermitian within tolerance {MATRIX_TOL:g}")
    return lapack(np.linalg.eigh, h, "eigendecomposition")


def spectral_exp(w: np.ndarray, u: np.ndarray, theta: float) -> np.ndarray:
    """exp(-i * theta * h) = U diag(exp(-i * theta * w)) U^dagger from h = U diag(w) U^dagger; theta * max|w| finite.

    At theta = 0 it is exactly the identity, which U U^dagger misses by roundoff.
    """
    if not is_real(theta):
        raise ValueError(f"time or angle must be a finite real number, got {theta!r}")
    check_angle(np.max(np.abs(w), initial=0.0), theta)
    return np.eye(len(u), dtype=complex) if theta == 0 else (u * np.exp(-1j * float(theta) * w)) @ u.conj().T


def compose(step: np.ndarray, n_steps: int, spares: np.ndarray | None = None) -> np.ndarray:
    """Overwrite step with step^N (N >= 1) and return it: the one N-fold power of mub, trotter1 and the qdrift PTM.

    The products follow numpy.linalg.matrix_power's order: its (step @ step) @ step at N = 3, and otherwise binary
    powering from the low bit. ``spares`` holds two more buffers of step's shape and dtype (allocated when None); the
    products go there and into step, and nothing else is written. A power that ends in a spare is copied back.
    """
    spares = np.empty((2, *step.shape), step.dtype) if spares is None else spares
    if n_steps == 3:  # the loop would take step @ (step @ step)
        power = np.matmul(np.matmul(step, step, out=spares[0]), step, out=spares[1])
    else:  # N = 1 and 2 give step and step @ step
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
    return step


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
