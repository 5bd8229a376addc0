"""A sweep point: the checks of its time, step count and rotation angle, its closed-form bounds, and its record.

Every method, Zeno sequence or baseline, reduces to points of a time t, a step count N, a measured error and
its closed-form bound. ``step_time`` is the one check of t and N, beside ``is_real``, the one finite-real rule that
every check of a time, angle, rate or precision reads; ``sweep_point`` builds the ``ZenoRunResult``. That record is
the one declaration of the output row: its fields, in declaration order, are the CSV and JSON columns, save
``fidelity_mean``, which its ``COLUMN`` metadata marks library-only; ``bound_satisfied`` is derived from the others.

Every sequence turns Pauli rotations by a rate times a time. ``method_rate`` states each method's largest rate,
and ``check_angle`` is the one check that a rate times a time is a finite float: ``step_time`` runs it for every
sweep point, the select blocks and ``linalg.spectral_exp`` for theirs. ``_CLOSED_FORMS`` holds every method's
bounds, one row per method, as functions of that angle ``x = method_rate * t`` and of the step count ``n``, so a
bound stays finite where ``t * t`` alone would underflow or ``lam * lam`` overflow. ``method_bounds`` is the one
place that evaluates them. Success-probability lower bounds are clamped at zero (the raw expressions go negative
for small ``n``). The forms use products, not powers: a float ``**`` raises OverflowError where ``*`` gives ``inf``.
Every error row is non-increasing in ``n`` in float arithmetic, so ``steps_for_precision`` finds the least ``n``
whose bound meets a precision by bisection over the same row, and inverts no formula by hand.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from numbers import Integral, Real

from .errors import ConfigError, LimitExceededError

SQRT_HALF = 1.0 / math.sqrt(2.0)
COLUMN = "column"  # field-metadata key: False on a ZenoRunResult field that is no output column

# method -> (x, n) -> (error bound or None, unclamped success bound). mub is zeno1 at its own rate; methods that
# post-select nothing succeed with probability 1; trotter1 states no error bound.
_CLOSED_FORMS = {
    "zeno1": lambda x, n: (x * x / n, 1.0 - 2.0 * x * x / n),
    "zeno2": lambda x, n: (x * x * x / (3.0 * n * n), 1.0 - 4.0 * x * x * x / (3.0 * n * n)),
    "kicks": lambda x, n: ((2.0 / n) * (SQRT_HALF + 1.0) * x * (1.0 + 2.0 * x), 1.0),
    "mub": lambda x, n: _CLOSED_FORMS["zeno1"](x, n),
    "qdrift": lambda x, n: (4.0 * x * x / n, 1.0),
    "trotter1": lambda x, n: (None, 1.0),
}


def is_count(value, least: int) -> bool:
    """Whether ``value`` is an integer (a NumPy one included, a bool not) of at least ``least``."""
    return isinstance(value, Integral) and not isinstance(value, bool) and value >= least


def is_real(value) -> bool:
    """Whether ``value`` is a finite real number: NumPy ones count; a bool, or an int too big for a float, does not."""
    try:
        return isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:
        return False


def method_rate(method: str, h) -> float:
    """``method``'s largest rotation rate on ``h``: lam, or 2^n_ancilla h_max for mub, padded ancillas included."""
    return float(1 << h.n_ancilla) * h.h_max if method == "mub" else h.lam


def check_angle(rate: float, t: float) -> None:
    """LimitExceededError unless the rotation angle rate * t of a finite real ``rate`` and ``t`` is a finite float."""
    if not is_real(float(rate) * float(t)):  # as Python floats, so an overflow gives inf and no NumPy warning
        raise LimitExceededError(f"largest rotation angle (rate {rate:g} times t {t:g}) is not finite")


def step_time(t: float, n: int, rate: float) -> float:
    """A sweep point's step time float(t) / n, once ``n`` is an integer >= 1, ``t`` real >= 0 and rate * t finite."""
    if not is_count(n, 1):
        raise ValueError(f"step count must be an integer >= 1, got {n!r}")
    if not (is_real(t) and t >= 0):
        raise ValueError(f"time must be finite and nonnegative, got {t}")
    check_angle(rate, t)
    return float(t) / n


@dataclass(frozen=True)
class ZenoRunResult:
    """Measured and analytic quantities for one (method, N) point: its fields, in order, are the output columns.

    ``epsilon_measured`` is the restricted spectral-norm gate error and
    ``p_succ_exact`` the post-selection probability for the configured
    initial state (the error itself is state independent; the success
    probability is reported for the state actually used, default |0..0>).
    ``bound_satisfied`` is derived: error at most its bound (true when none is stated) and success at least its
    bound, each with 1e-12 of slack; ``dataclasses.replace`` derives it again. The package builds every one with
    ``sweep_point``. ``fidelity_mean``, the one field marked ``COLUMN: False``, is library-only and no Monte-Carlo
    mean: every surviving sampled shot ends in A^N psi0 / ||A^N psi0||, so it is that state's exact fidelity
    |<e^(-iHt) psi0|A^N psi0>|^2 / ||A^N psi0||^2, and None when no shot survives.
    """

    method: str
    N: int
    delta_t: float
    epsilon_measured: float
    epsilon_bound: float | None
    bound_satisfied: bool = field(init=False)
    p_succ_exact: float
    p_succ_bound: float
    p_succ_sampled: float | None = None
    shots: int | None = None
    seed: int | None = None
    fidelity_mean: float | None = field(default=None, metadata={COLUMN: False})

    def __post_init__(self):
        if not self.epsilon_measured >= 0:  # NaN fails too; an inf reading stays, and fails any finite bound
            raise ValueError(f"measured error must be >= 0, got {self.epsilon_measured}")
        if not 0.0 <= self.p_succ_exact <= 1.0:
            raise ValueError(f"success probability out of range: {self.p_succ_exact}")
        if not is_count(self.N, 1):
            raise ValueError(f"step count must be an integer >= 1, got {self.N!r}")
        error_ok = self.epsilon_bound is None or self.epsilon_measured <= self.epsilon_bound + 1e-12
        object.__setattr__(self, "bound_satisfied", bool(error_ok and self.p_succ_exact >= self.p_succ_bound - 1e-12))


def method_bounds(method: str, h, t: float, n: int) -> tuple[float | None, float]:
    """(error bound or None, success lower bound) for one sweep point of ``method`` on ``h``."""
    rate = method_rate(method, h)
    step_time(t, n, rate)
    if method not in _CLOSED_FORMS:
        raise ValueError(f"no bounds recorded for method {method!r}")
    error, success = _CLOSED_FORMS[method](rate * float(t), n)
    return error, max(0.0, success)


def sweep_point(method: str, h, t: float, n: int, epsilon: float, p_succ: float = 1.0) -> ZenoRunResult:
    """The (method, N) point of a measured error and success probability, with ``method_bounds`` attached."""
    eps_bound, p_bound = method_bounds(method, h, t, n)
    return ZenoRunResult(method=method, N=int(n), delta_t=float(t) / n, epsilon_measured=epsilon,
                         epsilon_bound=eps_bound, p_succ_exact=p_succ, p_succ_bound=p_bound)


def steps_for_precision(method: str, h, t: float, epsilon: float, cap: int) -> int:
    """The least N <= ``cap`` whose ``method_bounds`` error bound is at most ``epsilon``: LimitExceededError if none
    is, ConfigError (a usage error) for a method that states no error bound."""
    if not (is_real(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be finite and positive, got {epsilon!r}")
    epsilon, at_cap = float(epsilon), method_bounds(method, h, t, cap)[0]
    if at_cap is None:
        raise ConfigError(f"method {method!r} states no error bound, so epsilon cannot resolve its step count")
    if at_cap > epsilon:
        raise LimitExceededError(f"the step count {method} needs for epsilon {epsilon!r} exceeds the cap of {cap}")
    return 1 + bisect.bisect_left(range(1, cap + 1), True, key=lambda n: method_bounds(method, h, t, n)[0] <= epsilon)
