#!/usr/bin/env python3
"""Walkthrough: post-selection success probabilities and step budgets.

Every projected step succeeds only when the ancilla register is observed
back in the all-zeros string. This script shows the per-step probability
against its quadratic lower bound, the full-run probability against the
1 - 2 lam^2 t^2 / N bound, and the step counts that invert those bounds.
"""

import bisect
from pathlib import Path

from zenosim import bounds, build_extended, load_hamiltonian, run_zeno, step_success_probability

HERE = Path(__file__).parent

h = load_hamiltonian(HERE / "hamiltonians" / "two_term.txt")
sys = build_extended(h)

print("per-step success probability vs lower bound (single step of width dt):")
print(f"{'dt':>8} {'exact':>12} {'bound':>12}")
for dt in (0.05, 0.1, 0.2, 0.4):
    p = step_success_probability(sys, dt)
    print(f"{dt:>8} {p:>12.8f} {1 - 2 * h.lam**2 * dt * dt:>12.8f}")
print()

t = 1.0
print(f"full-run success probability at t = {t}:")
print(f"{'N':>6} {'exact':>12} {'bound':>12}")
for n in (5, 10, 25, 50, 100):
    r = run_zeno(sys, t, n)
    print(f"{n:>6} {r.p_succ_exact:>12.8f} {r.p_succ_bound:>12.8f}")
print()

# Both budgets invert the bounds the verdict reads (bounds.method_bounds): the least N whose bound meets the target.
cap = 10**6
for eps in (0.1, 0.01):
    n = bounds.steps_for_precision("zeno1", h, t, eps, cap)
    print(f"steps for error bound <= {eps}: N = {n}")
for p_target in (0.9, 0.98):
    # The success bound 1 - 2 lam^2 t^2 / N grows with N, so the least N that reaches p_target is found by bisection.
    n = 1 + bisect.bisect_left(range(1, cap + 1), True,
                               key=lambda k: bounds.method_bounds("zeno1", h, t, k)[1] >= p_target)
    print(f"step budget for success bound >= {p_target}: N = {n}")
