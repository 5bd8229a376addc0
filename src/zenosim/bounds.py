"""Closed-form error/success bounds and resource formulas.

All bounds take the coefficient 1-norm ``lam``, the evolution time ``t``
and the step count ``n``. Success-probability lower bounds are clamped at
zero (the raw expressions go negative for small ``n``). ``method_bounds``
is the one place that picks a method's bounds.

Step-count formulas use a ceiling with a 1e-12 relative nudge so that
exact-ratio inputs (for example ``t=1, lam=1, epsilon=0.01``) are not
pushed up by floating-point roundoff.
"""

from __future__ import annotations

import math

_CEIL_NUDGE = 1e-12
SQRT_HALF = 1.0 / math.sqrt(2.0)


def _check_args(lam: float, t: float, n: int) -> None:
    if n < 1:
        raise ValueError(f"step count must be >= 1, got {n}")
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    if lam <= 0:
        raise ValueError(f"coefficient 1-norm must be positive, got {lam}")


def _ceil_steps(x: float) -> int:
    return max(1, math.ceil(x * (1.0 - _CEIL_NUDGE)))


def bound_zeno1_error(lam: float, t: float, n: int) -> float:
    """First-order sequence gate-error bound t^2 lam^2 / n."""
    _check_args(lam, t, n)
    return t * t * lam * lam / n


def bound_zeno1_succ(lam: float, t: float, n: int) -> float:
    """First-order post-selection success lower bound, clamped at 0."""
    return max(0.0, bound_zeno1_succ_raw(lam, t, n))


def bound_zeno1_succ_raw(lam: float, t: float, n: int) -> float:
    _check_args(lam, t, n)
    return 1.0 - 2.0 * lam * lam * t * t / n


def bound_zeno2_error(lam: float, t: float, n: int) -> float:
    """Second-order (reflection) sequence gate-error bound lam^3 t^3 / (3 n^2)."""
    _check_args(lam, t, n)
    x = lam * t  # products, not powers: a float ** raises OverflowError where * gives inf
    return x * x * x / (3.0 * n * n)


def bound_zeno2_succ(lam: float, t: float, n: int) -> float:
    """Second-order success lower bound, clamped at 0."""
    return max(0.0, bound_zeno2_succ_raw(lam, t, n))


def bound_zeno2_succ_raw(lam: float, t: float, n: int) -> float:
    _check_args(lam, t, n)
    x = lam * t
    return 1.0 - 4.0 * x * x * x / (3.0 * n * n)


def bound_kicks_error(lam: float, t: float, n: int) -> float:
    """Gate-error bound for the reflection-kick sequence."""
    _check_args(lam, t, n)
    return (2.0 / n) * (SQRT_HALF + 1.0) * lam * t * (1.0 + 2.0 * lam * t)


def bound_mub_error(h_max: float, n_ancilla: int, t: float, n: int) -> float:
    """Gate-error bound for the unbiased-basis projector, scaled by 2^n_ancilla.

    The padded ancilla register makes the uniform projector span all
    2^n_ancilla basis states, so the register size (not the raw term count)
    enters the bound; ``bound_mub_error_termcount`` gives the term-count
    variant for comparison.
    """
    if n_ancilla < 0:
        raise ValueError(f"ancilla count must be nonnegative, got {n_ancilla}")
    _check_args(h_max, t, n)
    width = float(1 << n_ancilla)
    return t * t * width * width * h_max * h_max / n


def bound_mub_error_termcount(h_max: float, num_terms: int, t: float, n: int) -> float:
    """Term-count (L) variant of the unbiased-basis error bound."""
    if num_terms < 1:
        raise ValueError(f"term count must be >= 1, got {num_terms}")
    _check_args(h_max, t, n)
    return t * t * float(num_terms) ** 2 * h_max * h_max / n


def bound_mub_succ(h_max: float, n_ancilla: int, t: float, n: int) -> float:
    """Success lower bound for the unbiased-basis projector, clamped at 0.

    Follows from the first-order success argument with the block-diagonal
    generator's norm 2^n_ancilla * h_max in place of lam.
    """
    if n_ancilla < 0:
        raise ValueError(f"ancilla count must be nonnegative, got {n_ancilla}")
    _check_args(h_max, t, n)
    eff = float(1 << n_ancilla) * h_max
    return max(0.0, 1.0 - 2.0 * eff * eff * t * t / n)


def bound_qdrift_diamond(lam: float, t: float, n: int) -> float:
    """Diamond-distance bound 4 lam^2 t^2 / n for the randomized channel."""
    _check_args(lam, t, n)
    return 4.0 * lam * lam * t * t / n


def steps_for_precision(lam: float, t: float, epsilon: float) -> int:
    """Steps needed so the first-order error bound reaches ``epsilon``."""
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    if lam <= 0:
        raise ValueError(f"coefficient 1-norm must be positive, got {lam}")
    return _ceil_steps(t * t * lam * lam / epsilon)


def steps_for_success(lam: float, t: float, p_target: float) -> int:
    """Step budget at which the first-order success bound reaches ``p_target``."""
    if not 0 <= p_target < 1:
        raise ValueError(f"target success probability must be in [0, 1), got {p_target}")
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    if lam <= 0:
        raise ValueError(f"coefficient 1-norm must be positive, got {lam}")
    return _ceil_steps(2.0 * lam * lam * t * t / (1.0 - p_target))


def circuit_cost_estimate(num_terms: int, per_term_cost: int, lam: float, t: float, epsilon: float) -> int:
    """Order-of-magnitude circuit cost L * C * ceil(t^2 lam^2 / epsilon).

    Asymptotic estimate only; the constants hidden by the scaling are
    unknown.
    """
    if num_terms < 1 or per_term_cost < 1:
        raise ValueError("term count and per-term cost must be positive")
    return num_terms * per_term_cost * steps_for_precision(lam, t, epsilon)


def method_bounds(
    method: str, h, n_ancilla: int, t: float, n: int
) -> tuple[float | None, float, float | None]:
    """Bounds for one sweep point of ``method`` on Hamiltonian ``h``.

    Returns (error bound, success lower bound, term-count error bound).
    trotter1 states no error bound (None); only mub has a term-count
    variant, and only mub reads ``n_ancilla``.
    """
    lam = h.lam
    if method == "zeno1":
        return bound_zeno1_error(lam, t, n), bound_zeno1_succ(lam, t, n), None
    if method == "zeno2":
        return bound_zeno2_error(lam, t, n), bound_zeno2_succ(lam, t, n), None
    if method == "kicks":
        return bound_kicks_error(lam, t, n), 1.0, None
    if method == "mub":
        return (
            bound_mub_error(h.h_max, n_ancilla, t, n),
            bound_mub_succ(h.h_max, n_ancilla, t, n),
            bound_mub_error_termcount(h.h_max, h.num_terms, t, n),
        )
    if method == "qdrift":
        return bound_qdrift_diamond(lam, t, n), 1.0, None
    if method == "trotter1":
        return None, 1.0, None
    raise ValueError(f"no bounds recorded for method {method!r}")
