"""A sweep point: the check of its time and step count, its closed-form bounds, and its record.

Every method, Zeno sequence or baseline, reduces to points of a time t, a step count N, a measured error and
its closed-form bound. ``step_time`` is the one check of t and N, beside ``is_real``, the one finite-real rule that
every check of a time, angle, rate or precision reads; ``sweep_point`` builds the ``ZenoRunResult``.

``_CLOSED_FORMS`` holds every method's bounds, one row per method, as
functions of the angles ``x = lam * t`` (coefficient 1-norm times time) and
``y = w * h_max * t`` (ancilla register width ``w = 2^n_ancilla`` times the
peak weight times time), and of the step count ``n``. The command line
proves both angles finite before it runs, so a bound stays finite where
``t * t`` alone would underflow or ``lam * lam`` overflow. ``method_bounds``
is the one place that evaluates them. Success-probability lower bounds are
clamped at zero (the raw expressions go negative for small ``n``). The
forms use products, not powers: a float ``**`` raises OverflowError where
``*`` gives ``inf``.

The step-count formula uses a ceiling with a 1e-12 relative nudge so that
exact-ratio inputs (for example ``t=1, lam=1, epsilon=0.01``) are not
pushed up by floating-point roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral, Real

from .errors import LimitExceededError

_CEIL_NUDGE = 1e-12
SQRT_HALF = 1.0 / math.sqrt(2.0)

# method -> (x, y, n) -> (error bound or None, unclamped success bound). mub is zeno1
# at y in place of x; methods that post-select nothing succeed with probability 1;
# trotter1 states no error bound.
_CLOSED_FORMS = {
    "zeno1": lambda x, y, n: (x * x / n, 1.0 - 2.0 * x * x / n),
    "zeno2": lambda x, y, n: (x * x * x / (3.0 * n * n), 1.0 - 4.0 * x * x * x / (3.0 * n * n)),
    "kicks": lambda x, y, n: ((2.0 / n) * (SQRT_HALF + 1.0) * x * (1.0 + 2.0 * x), 1.0),
    "mub": lambda x, y, n: _CLOSED_FORMS["zeno1"](y, y, n),
    "qdrift": lambda x, y, n: (4.0 * x * x / n, 1.0),
    "trotter1": lambda x, y, n: (None, 1.0),
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


def step_time(t: float, n: int) -> float:
    """The step time t / n of a sweep point, once ``n`` is an integer >= 1 and ``t`` a finite real time >= 0."""
    if not is_count(n, 1):
        raise ValueError(f"step count must be an integer >= 1, got {n!r}")
    if not (is_real(t) and t >= 0):
        raise ValueError(f"time must be finite and nonnegative, got {t}")
    return t / n


@dataclass(frozen=True)
class ZenoRunResult:
    """Measured and analytic quantities for one (method, N) point.

    ``epsilon_measured`` is the restricted spectral-norm gate error and
    ``p_succ_exact`` the post-selection probability for the configured
    initial state (the error itself is state independent; the success
    probability is reported for the state actually used, default |0..0>).
    The package builds every one with ``sweep_point``. ``fidelity_mean``
    averages |<exact|final>|^2 over successful sampled trajectories.
    """

    method: str
    N: int
    delta_t: float
    epsilon_measured: float
    epsilon_bound: float | None
    p_succ_exact: float
    p_succ_bound: float
    p_succ_sampled: float | None = None
    shots: int | None = None
    seed: int | None = None
    fidelity_mean: float | None = None

    def __post_init__(self):
        if not self.epsilon_measured >= 0:  # NaN fails too; an inf reading stays, and fails any finite bound
            raise ValueError(f"measured error must be >= 0, got {self.epsilon_measured}")
        if not 0.0 <= self.p_succ_exact <= 1.0:
            raise ValueError(f"success probability out of range: {self.p_succ_exact}")
        if not is_count(self.N, 1):
            raise ValueError(f"step count must be an integer >= 1, got {self.N!r}")

    @property
    def bound_satisfied(self) -> bool:
        """Error at most its bound (true when none is stated), success at least its bound, each with 1e-12 of slack."""
        error_ok = self.epsilon_bound is None or self.epsilon_measured <= self.epsilon_bound + 1e-12
        return bool(error_ok and self.p_succ_exact >= self.p_succ_bound - 1e-12)


def method_bounds(method: str, h, t: float, n: int) -> tuple[float | None, float]:
    """(error bound or None, success lower bound) for one sweep point of ``method`` on ``h``.

    Only mub reads ``h.n_ancilla``: its projector spans all 2^n_ancilla
    ancilla states, padded ones included.
    """
    step_time(t, n)
    if method not in _CLOSED_FORMS:
        raise ValueError(f"no bounds recorded for method {method!r}")
    error, success = _CLOSED_FORMS[method](h.lam * t, float(1 << h.n_ancilla) * h.h_max * t, n)
    return error, max(0.0, success)


def sweep_point(method: str, h, t: float, n: int, epsilon: float, p_succ: float = 1.0) -> ZenoRunResult:
    """The (method, N) point of a measured error and success probability, with ``method_bounds`` attached."""
    eps_bound, p_bound = method_bounds(method, h, t, n)
    return ZenoRunResult(method=method, N=int(n), delta_t=t / n, epsilon_measured=epsilon,
                         epsilon_bound=eps_bound, p_succ_exact=p_succ, p_succ_bound=p_bound)


def steps_for_precision(lam: float, t: float, epsilon: float) -> int:
    """Steps for the first-order error bound to reach ``epsilon``; LimitExceededError if (lam t)^2 / epsilon is inf."""
    if not (is_real(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be finite and positive, got {epsilon!r}")
    step_time(t, 1)
    if not (is_real(lam) and lam > 0):
        raise ValueError(f"coefficient 1-norm must be finite and positive, got {lam!r}")
    x = lam * t
    if not is_real(steps := x * x / epsilon):
        raise LimitExceededError(f"epsilon {epsilon!r} needs a step count (lam t)^2 / epsilon that is not finite")
    return max(1, math.ceil(steps * (1.0 - _CEIL_NUDGE)))
