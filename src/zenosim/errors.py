"""Exception hierarchy shared across the package."""


class ZenosimError(Exception):
    """Base class for all package-specific errors."""


class HamiltonianParseError(ZenosimError, ValueError):
    """Raised when a Hamiltonian expression violates the text grammar."""


class CancellationError(HamiltonianParseError):
    """Raised when merging duplicate terms cancels a term to (near) zero.

    A cancelled term silently changes the term count and the ancilla
    register size, so it is reported instead of being dropped.
    """


class ConvergenceError(ZenosimError, RuntimeError):
    """Raised when a LAPACK decomposition does not converge."""


class LimitExceededError(ZenosimError, ValueError):
    """Raised when a request exceeds the supported desk-scale problem size."""


class ConfigError(ZenosimError, ValueError):
    """Raised for invalid experiment configurations (usage errors)."""
