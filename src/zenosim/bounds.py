"""Closed-form error/success bounds and the first-order step count.

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


def method_bounds(method: str, h, t: float, n: int) -> tuple[float | None, float]:
    """(error bound or None, success lower bound) for one sweep point of ``method`` on ``h``.

    Only mub reads ``h.n_ancilla``: its projector spans all 2^n_ancilla
    ancilla states, padded ones included.
    """
    if method not in _CLOSED_FORMS:
        raise ValueError(f"no bounds recorded for method {method!r}")
    if n < 1:
        raise ValueError(f"step count must be >= 1, got {n}")
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    error, success = _CLOSED_FORMS[method](h.lam * t, float(1 << h.n_ancilla) * h.h_max * t, n)
    return error, max(0.0, success)


def steps_for_precision(lam: float, t: float, epsilon: float) -> int:
    """Steps needed so the first-order error bound reaches ``epsilon``."""
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    if lam <= 0:
        raise ValueError(f"coefficient 1-norm must be positive, got {lam}")
    x = lam * t
    return max(1, math.ceil(x * x / epsilon * (1.0 - _CEIL_NUDGE)))
