"""Closed-form error/success bounds and resource formulas.

``_CLOSED_FORMS`` holds every method's bounds, one row per method, as
functions of the coefficient 1-norm ``lam``, the peak weight ``h_max``, the
ancilla register width ``w = 2^n_ancilla``, the evolution time ``t`` and
the step count ``n``. ``method_bounds`` is the one place that evaluates
them. Success-probability lower bounds are clamped at zero (the raw
expressions go negative for small ``n``). The forms use products, not
powers: a float ``**`` raises OverflowError where ``*`` gives ``inf``.

Step-count formulas use a ceiling with a 1e-12 relative nudge so that
exact-ratio inputs (for example ``t=1, lam=1, epsilon=0.01``) are not
pushed up by floating-point roundoff.
"""

from __future__ import annotations

import math

_CEIL_NUDGE = 1e-12
SQRT_HALF = 1.0 / math.sqrt(2.0)

# method -> (lam, h_max, w, t, n) -> (error bound or None, unclamped success bound). mub is
# zeno1 with w * h_max in place of lam; methods that post-select nothing succeed with
# probability 1; trotter1 states no error bound.
_CLOSED_FORMS = {
    "zeno1": lambda lam, h_max, w, t, n: (t * t * lam * lam / n, 1.0 - 2.0 * lam * lam * t * t / n),
    "zeno2": lambda lam, h_max, w, t, n: (
        lam * t * (lam * t) * (lam * t) / (3.0 * n * n),
        1.0 - 4.0 * (lam * t) * (lam * t) * (lam * t) / (3.0 * n * n),
    ),
    "kicks": lambda lam, h_max, w, t, n: (
        (2.0 / n) * (SQRT_HALF + 1.0) * lam * t * (1.0 + 2.0 * lam * t),
        1.0,
    ),
    "mub": lambda lam, h_max, w, t, n: (
        t * t * w * w * h_max * h_max / n,
        1.0 - 2.0 * (w * h_max) * (w * h_max) * t * t / n,
    ),
    "qdrift": lambda lam, h_max, w, t, n: (4.0 * lam * lam * t * t / n, 1.0),
    "trotter1": lambda lam, h_max, w, t, n: (None, 1.0),
}


def method_bounds(method: str, h, n_ancilla: int, t: float, n: int) -> tuple[float | None, float]:
    """(error bound or None, success lower bound) for one sweep point of ``method`` on ``h``.

    Only mub reads ``n_ancilla``: its projector spans all 2^n_ancilla
    ancilla states, padded ones included.
    """
    if method not in _CLOSED_FORMS:
        raise ValueError(f"no bounds recorded for method {method!r}")
    if n < 1:
        raise ValueError(f"step count must be >= 1, got {n}")
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    error, success = _CLOSED_FORMS[method](h.lam, h.h_max, float(1 << n_ancilla), t, n)
    return error, max(0.0, success)


def _check_rate_time(lam: float, t: float) -> None:
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    if lam <= 0:
        raise ValueError(f"coefficient 1-norm must be positive, got {lam}")


def _ceil_steps(x: float) -> int:
    return max(1, math.ceil(x * (1.0 - _CEIL_NUDGE)))


def steps_for_precision(lam: float, t: float, epsilon: float) -> int:
    """Steps needed so the first-order error bound reaches ``epsilon``."""
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    _check_rate_time(lam, t)
    return _ceil_steps(t * t * lam * lam / epsilon)


def steps_for_success(lam: float, t: float, p_target: float) -> int:
    """Step budget at which the first-order success bound reaches ``p_target``."""
    if not 0 <= p_target < 1:
        raise ValueError(f"target success probability must be in [0, 1), got {p_target}")
    _check_rate_time(lam, t)
    return _ceil_steps(2.0 * lam * lam * t * t / (1.0 - p_target))


def circuit_cost_estimate(num_terms: int, per_term_cost: int, lam: float, t: float, epsilon: float) -> int:
    """Order-of-magnitude circuit cost L * C * ceil(t^2 lam^2 / epsilon).

    Asymptotic estimate only; the constants hidden by the scaling are
    unknown.
    """
    if num_terms < 1 or per_term_cost < 1:
        raise ValueError("term count and per-term cost must be positive")
    return num_terms * per_term_cost * steps_for_precision(lam, t, epsilon)
