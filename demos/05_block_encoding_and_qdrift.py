#!/usr/bin/env python3
"""Walkthrough: one projected step as a block encoding, and the qdrift link.

The circuit prepare -> select -> unprepare embeds the weighted sum of block
unitaries in its all-zeros ancilla corner: a block encoding of an operator
that is not itself unitary. Keeping the measurement outcome instead of
post-selecting it reproduces, on average, the qdrift mixture channel; this
script checks both identities numerically and then compares the repeated
channel against the exact evolution with a Choi-based lower bound on the
diamond distance.
"""

from pathlib import Path

import numpy as np

from zenosim import (
    block_encoding_matrix,
    build_extended,
    diamond_lower_bound,
    exact_evolution,
    load_hamiltonian,
    matexp_hermitian,
    qdrift_channel,
    qdrift_sample,
    select_unitary,
    term_matrix,
    unitary_channel,
)

HERE = Path(__file__).parent

h = load_hamiltonian(HERE / "hamiltonians" / "three_term.txt")
sys = build_extended(h)
dt = 0.25

corner = block_encoding_matrix(sys, dt)
weighted_sum = sum(
    weight * matexp_hermitian(h.lam * term_matrix(term), dt)
    for weight, term in zip(sys.weights, h.terms)
)
print("block-encoding corner equals the weighted sum of block unitaries:",
      f"{np.max(np.abs(corner - weighted_sum)):.2e}")
print("corner block is not unitary (largest singular value "
      f"{np.linalg.svd(corner, compute_uv=False)[0]:.6f} < 1)")
print()

psi0 = np.zeros(sys.target_dim, dtype=complex)
psi0[0] = 1.0
evolved = select_unitary(sys, dt) @ np.kron(psi0, sys.projector_state)
grid = evolved.reshape(sys.target_dim, sys.ancilla_dim)
rho_traced = grid @ grid.conj().T
rho_channel = qdrift_channel(h, dt, 1).apply(np.outer(psi0, psi0.conj()))
print("tracing out the ancilla after one step reproduces the mixture channel:",
      f"{np.max(np.abs(rho_traced - rho_channel)):.2e}")
print()

t = 1.0
exact = unitary_channel(exact_evolution(h, t))
print(f"repeated mixture channel vs exact evolution at t = {t}:")
print(f"{'N':>6} {'Choi lower bound':>18} {'diamond bound':>15}")
for n in (5, 20, 80, 320):
    lb = diamond_lower_bound(qdrift_channel(h, t, n), exact)
    print(f"{n:>6} {lb:>18.4e} {4 * h.lam**2 * t**2 / n:>15.4e}")
print()

traj = qdrift_sample(h, t, 12, seed=42)
print("one sampled trajectory (term indices, 1-based):", traj.sampled_indices)
print("its product is unitary:",
      np.allclose(traj.resulting_unitary.conj().T @ traj.resulting_unitary,
                  np.eye(sys.target_dim), atol=1e-12))
