"""Combined-register reference for the measured sequences (tests only).

The library runs every sequence on the target register. This module keeps
the direct construction on the combined register, target (x) ancilla: the
ancilla prepare unitary and reflection, the projector and reflection as
full operators, the projected step as a product of them with the select
unitary, N-fold matrix powers, the shot-by-shot measurement loop, and the
step-by-step path that every surviving shot follows. Tests compare the
library against it.
"""

from functools import reduce

import numpy as np

from zenosim import hamiltonian_matrix, matexp_hermitian, select_unitary, spectral_norm

_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)


def prepare(sys):
    """Unitary V on the ancilla with V|0..0> = projector state.

    Standard variant: the Householder reflection taking |0..0> to the
    (real, nonnegative) weighted state. mub: the Hadamard word.
    """
    if sys.variant == "mub":
        return reduce(np.kron, [_HADAMARD] * sys.n_ancilla, np.eye(1, dtype=complex))
    w = np.eye(sys.ancilla_dim)[0] - np.real(sys.projector_state)
    norm2 = float(np.dot(w, w))
    if norm2 < 1e-28:
        return np.eye(sys.ancilla_dim, dtype=complex)
    return (np.eye(sys.ancilla_dim) - 2.0 * np.outer(w, w) / norm2).astype(complex)


def reflection(sys):
    """R = 2|phi><phi| - 1 about the projector state, on the ancilla."""
    phi = sys.projector_state
    return 2.0 * np.outer(phi, phi.conj()) - np.eye(sys.ancilla_dim, dtype=complex)


def projector_full(sys):
    """Projector onto the prepared ancilla state, on the combined register."""
    p = np.outer(sys.projector_state, sys.projector_state.conj())
    return np.kron(np.eye(sys.target_dim, dtype=complex), p)


def reflection_full(sys):
    """Reflection about the prepared ancilla state, on the combined register."""
    return np.kron(np.eye(sys.target_dim, dtype=complex), reflection(sys))


def zeno_step_operator(sys, delta_t, order=1):
    """One projected evolution step (spectral norm at most 1).

    Order 1 is project, evolve, project; order 2 splits the evolution and
    inserts the reflection between the halves.
    """
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    proj = projector_full(sys)
    if order == 1:
        return proj @ select_unitary(sys, delta_t) @ proj
    half = select_unitary(sys, delta_t / 2.0)
    return proj @ half @ reflection_full(sys) @ half @ proj


def _initial_state(sys, psi0):
    if psi0 is not None:
        return np.asarray(psi0, dtype=complex)
    psi = np.zeros(sys.target_dim, dtype=complex)
    psi[0] = 1.0
    return psi


def zeno_full(sys, t, n_steps, order=1, psi0=None):
    """(error, success probability) of the projected sequence."""
    repeated = np.linalg.matrix_power(zeno_step_operator(sys, t / n_steps, order), n_steps)
    u_exact = matexp_hermitian(hamiltonian_matrix(sys.hamiltonian), t)
    proj = np.outer(sys.projector_state, sys.projector_state.conj())
    epsilon = spectral_norm(repeated - np.kron(u_exact, proj))
    vec0 = np.kron(_initial_state(sys, psi0), sys.projector_state)
    return epsilon, float(min(1.0, np.linalg.norm(repeated @ vec0) ** 2))


def path_survival(sys, t, n_steps, psi0=None):
    """Each step's survival probability along the path A(dt)^k psi0 / ||.|| that every surviving shot follows.

    A(dt) = (1 (x) <phi|) select(dt) (1 (x) |phi>) is read off the combined register, and the path is stepped
    one matrix-vector product at a time (the order-1 sequence).
    """
    d_t, d_a = sys.target_dim, sys.ancilla_dim
    phi = sys.projector_state
    step = np.einsum("a,iajb,b->ij", phi.conj(), select_unitary(sys, t / n_steps).reshape(d_t, d_a, d_t, d_a), phi)
    psi = _initial_state(sys, psi0)
    survival = np.zeros(n_steps)
    for k in range(n_steps):
        psi = step @ psi
        survival[k] = np.vdot(psi, psi).real
        if survival[k] == 0.0:  # no shot survives this step
            break
        psi = psi / np.sqrt(survival[k])
    return survival


def kicks_full(sys, t, n_steps):
    """Error of the kick sequence, restricted to the range of the projector."""
    kick = reflection_full(sys) @ select_unitary(sys, t / n_steps)
    repeated = np.linalg.matrix_power(kick, n_steps)
    u_exact = matexp_hermitian(hamiltonian_matrix(sys.hamiltonian), t)
    target = np.kron(u_exact, np.eye(sys.ancilla_dim, dtype=complex))
    return spectral_norm((repeated - target) @ projector_full(sys))


def sampled_full(sys, t, n_steps, order=1, psi0=None, shots=1000, seed=0):
    """(sampled success fraction, mean fidelity) from per-shot measurement draws."""
    psi = _initial_state(sys, psi0)
    delta_t = t / n_steps
    v = prepare(sys)
    r = reflection(sys)
    # Order 1 applies one full-width evolution per step; order 2 applies the
    # half-width evolution twice around a reflection.
    evolution = select_unitary(sys, delta_t if order == 1 else delta_t / 2.0)
    psi_exact = matexp_hermitian(hamiltonian_matrix(sys.hamiltonian), t) @ psi

    d_t, d_a = sys.target_dim, sys.ancilla_dim
    successes = 0
    fidelities = []
    for shot in range(shots):
        rng = np.random.default_rng(seed + shot)
        state = np.zeros((d_t, d_a), dtype=complex)
        state[:, 0] = psi
        ok = True
        for _ in range(n_steps):
            state = state @ v.T
            state = (evolution @ state.reshape(-1)).reshape(d_t, d_a)
            if order == 2:
                state = state @ r.T
                state = (evolution @ state.reshape(-1)).reshape(d_t, d_a)
            state = state @ v.conj()
            probs = np.sum(np.abs(state) ** 2, axis=0)
            probs = np.clip(probs, 0.0, None)
            probs /= probs.sum()
            outcome = int(rng.choice(d_a, p=probs))
            if outcome != 0:
                ok = False
                break
            column = state[:, 0]
            state = np.zeros_like(state)
            state[:, 0] = column / np.linalg.norm(column)
        if ok:
            successes += 1
            fidelities.append(float(abs(np.vdot(psi_exact, state[:, 0])) ** 2))
    return successes / shots, float(np.mean(fidelities)) if fidelities else None
