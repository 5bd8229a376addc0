"""Exception hierarchy shared across the package; each class carries its exit status and message prefix."""


class ZenosimError(Exception):
    """Base class for all package-specific errors."""

    exit_code, label = 1, ""


class HamiltonianParseError(ZenosimError, ValueError):
    """Raised when a Hamiltonian expression violates the text grammar."""

    exit_code, label = 2, "parse error: "


class CancellationError(HamiltonianParseError):
    """Raised when a word's merged coefficient is at most 1e-15 times the largest magnitude written for it.

    That is a written 0, or terms that cancel to a value resting on the order
    of summation. A cancelled term silently changes the term count and the
    ancilla register size, so it is reported instead of being dropped.
    """


class ConvergenceError(ZenosimError, RuntimeError):
    """Raised when a LAPACK decomposition does not converge."""

    label = "numerical failure: ConvergenceError: "


class LimitExceededError(ZenosimError, ValueError):
    """Raised when a request exceeds the supported desk-scale problem size."""

    exit_code, label = 3, "limit exceeded: "


class ConfigError(ZenosimError, ValueError):
    """Raised for invalid experiment configurations (usage errors)."""
