"""Extended-register construction and the measurement-driven sequences.

The combined register is target (x) ancilla with the ancilla as the second
tensor factor, so a combined operator is ``np.kron(target_op, ancilla_op)``
and a combined basis index decomposes as
``target_index * ancilla_dim + ancilla_index``.

For a Hamiltonian with terms ``h_j * H_j`` (``H_j`` a signed Pauli string of
norm 1, ``j = 1..L``) the construction attaches term ``j`` to ancilla basis
state ``j - 1``. The controlled short-time evolution is block-diagonal in
the ancilla basis,

    select(dt) = sum_j U_j(dt) (x) |j><j|,

with analytically evaluated blocks ``U_j(dt) = cos(theta) I - i sin(theta) P``
(``P`` the signed Pauli string, ``theta`` the block angle). Two projector
variants are supported:

* ``standard``: ancilla state has amplitudes sqrt(h_j / lam); block angle
  ``lam * dt`` on every real block.
* ``mub``: ancilla state is the uniform superposition over all 2^n_ancilla
  basis states (Hadamard word); block angle ``2^n_ancilla * h_j * dt``.

When L is not a power of two, the ancilla register is padded: the prepared
state has zero amplitude on padded basis states (standard variant) and
select acts as the identity there.

Post-selection keys on the all-zeros ancilla outcome after undoing the
prepare unitary; its probability over a run is the success probability.

The runs stay on the target register: with ``P = 1 (x) |phi><phi|`` (``phi``
the prepared ancilla state), ``P select(dt) P = A(dt) (x) |phi><phi|`` where
``A(dt) = sum_k |phi_k|^2 U_k(dt)``. Only ``select_unitary`` and
``extended_hamiltonian`` build combined-register matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import bounds
from .errors import ZenosimError
from .hamiltonian import PauliHamiltonian, hamiltonian_matrix, term_matrix
from .linalg import matexp_hermitian, spectral_norm

VARIANT_STANDARD = "standard"
VARIANT_MUB = "mub"

_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)


@dataclass(frozen=True)
class ExtendedSystem:
    """Derived operators for one Hamiltonian and projector variant.

    Immutable after construction; safe to share across threads.
    """

    hamiltonian: PauliHamiltonian
    variant: str
    target_dim: int
    n_ancilla: int
    ancilla_dim: int
    prepare: np.ndarray          # unitary V on the ancilla, V|0..0> = projector_state
    projector_state: np.ndarray  # ancilla state defining the projector
    reflection: np.ndarray       # R = 2|state><state| - 1 on the ancilla
    generator_scale: float       # lam (standard) or 2^n_ancilla (mub)
    block_rates: tuple[float, ...]      # per ancilla index, angle per unit time
    block_paulis: tuple[np.ndarray, ...]  # per ancilla index, signed Pauli (identity when padded)


@dataclass(frozen=True)
class ZenoRunResult:
    """Measured and analytic quantities for one (method, N) point.

    ``epsilon_measured`` is the restricted spectral-norm gate error and
    ``p_succ_exact`` the post-selection probability for the configured
    initial state (the error itself is state independent; the success
    probability is reported for the state actually used, default |0..0>).
    ``epsilon_bound_alt`` carries the term-count variant of the
    unbiased-basis bound, recorded alongside the register-size variant.
    ``fidelity_mean`` averages |<exact|final>|^2 over successful sampled
    trajectories.
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
    epsilon_bound_alt: float | None = None
    fidelity_mean: float | None = None

    def __post_init__(self):
        if self.epsilon_measured < 0:
            raise ValueError("measured error cannot be negative")
        if not 0.0 <= self.p_succ_exact <= 1.0:
            raise ValueError(f"success probability out of range: {self.p_succ_exact}")
        if self.N < 1:
            raise ValueError("step count must be >= 1")


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _householder_to(target: np.ndarray) -> np.ndarray:
    """Unitary mapping |0..0> to ``target`` (real nonnegative amplitudes)."""
    dim = target.shape[0]
    e0 = np.zeros(dim)
    e0[0] = 1.0
    w = e0 - np.real(target)
    norm2 = float(np.dot(w, w))
    if norm2 < 1e-28:
        return np.eye(dim, dtype=complex)
    v = np.eye(dim) - 2.0 * np.outer(w, w) / norm2
    return v.astype(complex)


def build_extended(h: PauliHamiltonian, variant: str = VARIANT_STANDARD) -> ExtendedSystem:
    """Construct prepare/select/projector data for ``h``.

    ``variant`` selects the projector: ``standard`` projects onto the
    coefficient-weighted ancilla state, ``mub`` onto the uniform
    superposition.
    """
    if variant not in (VARIANT_STANDARD, VARIANT_MUB):
        raise ValueError(f"unknown variant {variant!r}")
    num_terms = h.num_terms
    n_ancilla = max(0, (num_terms - 1).bit_length())
    ancilla_dim = 1 << n_ancilla
    target_dim = 2**h.num_qubits
    lam = h.lam

    paulis = [term_matrix(t) for t in h.terms]
    paulis.extend(np.eye(target_dim, dtype=complex) for _ in range(ancilla_dim - num_terms))

    if variant == VARIANT_STANDARD:
        state = np.zeros(ancilla_dim, dtype=complex)
        state[:num_terms] = np.sqrt([t.coefficient / lam for t in h.terms])
        prepare = _householder_to(state)
        scale = lam
        rates = [lam] * num_terms
    else:
        state = np.full(ancilla_dim, 1.0 / math.sqrt(ancilla_dim), dtype=complex)
        prepare = reduce(np.kron, [_HADAMARD] * n_ancilla, np.eye(1, dtype=complex))
        scale = float(ancilla_dim)
        rates = [scale * t.coefficient for t in h.terms]
    rates.extend(0.0 for _ in range(ancilla_dim - num_terms))

    reflection = 2.0 * np.outer(state, state.conj()) - np.eye(ancilla_dim, dtype=complex)
    return ExtendedSystem(
        hamiltonian=h,
        variant=variant,
        target_dim=target_dim,
        n_ancilla=n_ancilla,
        ancilla_dim=ancilla_dim,
        prepare=_freeze(prepare),
        projector_state=_freeze(state),
        reflection=_freeze(reflection),
        generator_scale=scale,
        block_rates=tuple(rates),
        block_paulis=tuple(_freeze(p) for p in paulis),
    )


def extended_hamiltonian(sys: ExtendedSystem) -> np.ndarray:
    """Block-diagonal combined-register generator, without the overall scale.

    Standard variant blocks are the bare signed Pauli strings; mub blocks
    carry the term coefficients. Padded blocks are zero. ``select(dt)``
    equals ``exp(-i * generator_scale * dt * extended_hamiltonian)``.
    """
    h = sys.hamiltonian
    dim = sys.target_dim * sys.ancilla_dim
    out = np.zeros((dim, dim), dtype=complex)
    for j, term in enumerate(h.terms):
        block = sys.block_paulis[j]
        if sys.variant == VARIANT_MUB:
            block = term.coefficient * block
        out[j :: sys.ancilla_dim, j :: sys.ancilla_dim] = block
    return out


def _blocks(sys: ExtendedSystem, delta_t: float) -> np.ndarray:
    """Select blocks U_k(dt) = cos(theta_k) I - i sin(theta_k) P_k stacked as (d_a, d_t, d_t)."""
    theta = (np.array(sys.block_rates) * delta_t)[:, None, None]
    eye = np.eye(sys.target_dim, dtype=complex)
    return np.cos(theta) * eye - 1j * np.sin(theta) * np.array(sys.block_paulis)


def select_unitary(sys: ExtendedSystem, delta_t: float) -> np.ndarray:
    """Controlled short-time evolution, analytic per block."""
    dim = sys.target_dim * sys.ancilla_dim
    out = np.zeros((dim, dim), dtype=complex)
    for k, block in enumerate(_blocks(sys, delta_t)):
        out[k :: sys.ancilla_dim, k :: sys.ancilla_dim] = block
    return out


def _corner(sys: ExtendedSystem, delta_t: float) -> np.ndarray:
    """A(dt) = sum_k |phi_k|^2 U_k(dt), so that P select(dt) P = A(dt) (x) |phi><phi|."""
    return np.tensordot(np.abs(sys.projector_state) ** 2, _blocks(sys, delta_t), axes=1)


def _step(sys: ExtendedSystem, delta_t: float, order: int) -> np.ndarray:
    """Target-register operator of one projected step (spectral norm at most 1).

    Order 1 is project, evolve, project: A(dt). Order 2 inserts the
    reflection R = 2|phi><phi| - 1 between two half-steps, which compresses
    to 2 A(dt/2)^2 - A(dt) because U_k(dt/2)^2 = U_k(dt).
    """
    if order == 1:
        return _corner(sys, delta_t)
    half = _corner(sys, delta_t / 2.0)
    return 2.0 * half @ half - _corner(sys, delta_t)


def _initial_state(sys: ExtendedSystem, psi0: np.ndarray | None) -> np.ndarray:
    """The checked initial target state; |0..0> when ``psi0`` is None."""
    psi = np.asarray(np.eye(sys.target_dim)[0] if psi0 is None else psi0, dtype=complex).reshape(-1)
    if psi.shape[0] != sys.target_dim:
        raise ValueError(f"psi0 must have dimension {sys.target_dim}, got {psi.shape[0]}")
    if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
        raise ValueError("psi0 must be normalized")
    return psi


def run_zeno(
    sys: ExtendedSystem,
    t: float,
    n_steps: int,
    order: int = 1,
    psi0: np.ndarray | None = None,
) -> ZenoRunResult:
    """Run the projected sequence and measure error and success probability.

    The run is (step (x) |phi><phi|)^N, so the error is the spectral norm of
    step^N minus the exact evolution, and the success probability is
    ||step^N psi0||^2 (exact post-selection, no sampling).
    """
    if n_steps < 1:
        raise ValueError(f"step count must be >= 1, got {n_steps}")
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    if sys.variant == VARIANT_MUB and order != 1:
        raise ValueError("the second-order sequence is defined for the standard projector only")

    h = sys.hamiltonian
    delta_t = t / n_steps
    repeated = np.linalg.matrix_power(_step(sys, delta_t, order), n_steps)
    epsilon = spectral_norm(repeated - matexp_hermitian(hamiltonian_matrix(h), t))

    psi = _initial_state(sys, psi0)
    p_succ = float(min(1.0, np.linalg.norm(repeated @ psi) ** 2))

    method = "mub" if sys.variant == VARIANT_MUB else f"zeno{order}"
    eps_bound, p_bound, alt = bounds.method_bounds(method, h, sys.n_ancilla, t, n_steps)

    return ZenoRunResult(
        method=method,
        N=n_steps,
        delta_t=delta_t,
        epsilon_measured=epsilon,
        epsilon_bound=eps_bound,
        p_succ_exact=p_succ,
        p_succ_bound=p_bound,
        epsilon_bound_alt=alt,
    )


def run_kicks(sys: ExtendedSystem, t: float, n_steps: int) -> ZenoRunResult:
    """Run the reflection-kick sequence (no measurements, unit success).

    The reported error restricts the difference to the projected subspace,
    where the kick sequence converges to the target evolution; the
    orthogonal block evolves under a different effective Hamiltonian and is
    not part of the contract. Kicks leave the range of the projector, so
    (R select)^N is applied to the d_t columns 1 (x) |phi>, held as the
    stack of their d_a ancilla blocks.
    """
    if sys.variant != VARIANT_STANDARD:
        raise ValueError("kick sequence requires the standard projector variant")
    if n_steps < 1:
        raise ValueError(f"step count must be >= 1, got {n_steps}")
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")

    h = sys.hamiltonian
    delta_t = t / n_steps
    blocks = _blocks(sys, delta_t)
    phi = sys.projector_state
    column = phi[:, None, None]
    slab = column * np.eye(sys.target_dim, dtype=complex)
    for _ in range(n_steps):
        slab = blocks @ slab
        slab = 2.0 * column * np.tensordot(phi.conj(), slab, axes=1) - slab

    u_exact = matexp_hermitian(hamiltonian_matrix(h), t)
    epsilon = spectral_norm((slab - column * u_exact).reshape(-1, sys.target_dim))
    eps_bound, p_bound, _ = bounds.method_bounds("kicks", h, sys.n_ancilla, t, n_steps)

    return ZenoRunResult(
        method="kicks",
        N=n_steps,
        delta_t=delta_t,
        epsilon_measured=epsilon,
        epsilon_bound=eps_bound,
        p_succ_exact=1.0,
        p_succ_bound=p_bound,
    )


def run_sampled(
    sys: ExtendedSystem,
    t: float,
    n_steps: int,
    order: int = 1,
    psi0: np.ndarray | None = None,
    shots: int = 1000,
    seed: int = 0,
) -> ZenoRunResult:
    """Simulate measured trajectories with per-shot seeded generators.

    Shot ``i`` uses ``numpy.random.default_rng(seed + i)`` (PCG64), so shot
    batches partition the seed space deterministically: give batch k the
    base seed ``seed + k * shots`` for statistically independent batches
    (nearby base seeds reuse almost all per-shot seeds by construction).
    Any ancilla outcome other than all-zeros aborts the trajectory, which
    is recorded as failed; no mid-run recovery is attempted. Successful
    trajectories record the fidelity of the final target state against the
    exact evolution.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    exact = run_zeno(sys, t, n_steps, order=order, psi0=psi0)

    psi = _initial_state(sys, psi0)
    psi_exact = matexp_hermitian(hamiltonian_matrix(sys.hamiltonian), t) @ psi
    # Every surviving shot follows the same path step^k psi0 / ||.||, so the
    # per-step survival probabilities are computed once.
    step = _step(sys, exact.delta_t, order)
    survival = np.zeros(n_steps)
    for k in range(n_steps):
        psi = step @ psi
        survival[k] = np.vdot(psi, psi).real
        if survival[k] == 0.0:
            break
        psi = psi / math.sqrt(survival[k])
    # A step's measurement is one uniform draw u that picks the all-zeros
    # outcome iff u < its probability, as in Generator.choice.
    successes = sum(
        bool(np.all(np.random.default_rng(seed + shot).random(n_steps) < survival))
        for shot in range(shots)
    )

    return ZenoRunResult(
        method=exact.method,
        N=exact.N,
        delta_t=exact.delta_t,
        epsilon_measured=exact.epsilon_measured,
        epsilon_bound=exact.epsilon_bound,
        p_succ_exact=exact.p_succ_exact,
        p_succ_bound=exact.p_succ_bound,
        p_succ_sampled=successes / shots,
        shots=shots,
        seed=seed,
        epsilon_bound_alt=exact.epsilon_bound_alt,
        fidelity_mean=float(abs(np.vdot(psi_exact, psi)) ** 2) if successes else None,
    )


def block_encoding_matrix(sys: ExtendedSystem, delta_t: float) -> np.ndarray:
    """Corner block <0|V^dag select(dt) V|0> on the target register.

    Equals the coefficient-weighted sum of the block unitaries, i.e. the
    non-unitary operator the combined circuit embeds.
    """
    if sys.variant != VARIANT_STANDARD:
        raise ZenosimError("block encoding is defined for the standard projector variant")
    return _corner(sys, delta_t)


def step_success_probability(
    sys: ExtendedSystem,
    delta_t: float,
    psi0: np.ndarray | None = None,
) -> float:
    """Probability of the all-zeros ancilla outcome after a single step."""
    psi = _initial_state(sys, psi0)
    return float(min(1.0, np.linalg.norm(_corner(sys, delta_t) @ psi) ** 2))
