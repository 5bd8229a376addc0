#!/usr/bin/env python3
"""Walkthrough: the Hamiltonian text format and the extended register.

Loads a Hamiltonian file, shows the normalized term list, and inspects the
derived objects: the prepared ancilla state, the reflection about it, and
the block-diagonal controlled evolution. Ends by checking
the compression identity that makes the whole construction work:
projecting the (scaled) extended generator onto the prepared ancilla state
reproduces the physical Hamiltonian.
"""

from pathlib import Path

import numpy as np

from zenosim import (
    build_extended,
    extended_hamiltonian,
    hamiltonian_matrix,
    load_hamiltonian,
    select_unitary,
    to_text,
)

HERE = Path(__file__).parent

h = load_hamiltonian(HERE / "hamiltonians" / "three_term.txt")
print("parsed:", to_text(h))
print(f"qubits={h.num_qubits}  terms={h.num_terms}  lam={h.lam}  peak weight={h.h_max}")
print()

sys = build_extended(h)
print(f"ancilla qubits: {sys.n_ancilla} (register of {sys.ancilla_dim} states, "
      f"{sys.ancilla_dim - h.num_terms} padded)")
print("prepared ancilla state (square roots of the normalized weights):")
print(" ", np.round(sys.projector_state.real, 6))
print("the state is normalized:", np.isclose(np.linalg.norm(sys.projector_state), 1.0))
p_anc = np.outer(sys.projector_state, sys.projector_state.conj())
reflection = 2.0 * p_anc - np.eye(sys.ancilla_dim)
print("reflection 2|phi><phi| - 1 squares to the identity:",
      np.allclose(reflection @ reflection, np.eye(sys.ancilla_dim)))
print()

dt = 0.2
u = select_unitary(sys, dt)
print(f"select({dt}) is block-diagonal over ancilla states; block angles per term:")
for j, rate in enumerate(sys.block_rates):
    tag = f"term {j + 1}" if j < h.num_terms else "padded "
    print(f"  {tag}: angle = {rate * dt:.4f} rad")
print("select is unitary:", np.allclose(u.conj().T @ u, np.eye(u.shape[0]), atol=1e-12))
print()

proj = np.kron(np.eye(sys.target_dim), p_anc)
compressed = sys.generator_scale * (proj @ extended_hamiltonian(sys) @ proj)
target = np.kron(hamiltonian_matrix(h), p_anc)
print("compression identity residual:",
      f"{np.max(np.abs(compressed - target)):.2e} (should be ~1e-16)")
