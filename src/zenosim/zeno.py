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
(``P`` the signed Pauli string, ``theta`` the block angle; built by
``hamiltonian.pauli_rotations``). Two projector
variants are supported:

* ``standard``: block weights h_j / lam; block angle ``lam * dt`` on every real block.
* ``mub``: the uniform superposition over all 2^n_ancilla basis states (Hadamard word); block angle
  ``2^n_ancilla * h_j * dt``.

``ExtendedSystem.weights`` owns the block weights |phi_j|^2, which ``A(dt)`` below and qdrift in ``channels`` read;
the prepared state phi is their square root. When L is not a power of two, the ancilla register is padded: the
weights are zero on padded basis states (standard variant) and select acts as the identity there.

Post-selection keys on the all-zeros ancilla outcome after undoing the
prepare unitary; its probability over a run is the success probability.

The runs stay on the target register: with ``P = 1 (x) |phi><phi|`` (``phi`` the prepared ancilla state),
``P select(dt) P = A(dt) (x) |phi><phi|`` where ``A(dt) = sum_k w_k U_k(dt)`` with the weights w_k = |phi_k|^2. For the
standard projector every block turns by ``theta = lam dt``, so ``A(dt) = cos(theta) - i sin(theta) H / lam`` is a
function of H, and so is the second-order step ``2 A(dt/2)^2 - A(dt)``: zeno1 and zeno2 act on each eigenvector of H
as a scalar, and all their points read the Hamiltonian's cached ``spectrum``. mub's blocks turn at different angles,
so it powers A(dt) with ``linalg.compose``, the N-fold power of the baselines in ``channels`` too, against
``exact_evolution`` (read from that spectrum) for its error; every mub point reads its success probability from the
spectrum of H' in A(dt) = alpha - i H' (alpha real, H' Hermitian). The kick sequence leaves the range of P but splits
into one invariant plane per eigenvalue of H, where it is a 2x2 unitary whose N-th power ``run_kicks`` reads in closed
form from the same spectrum, its phase from the same ``_phase`` as zeno1 and zeno2. Only ``select_unitary`` and
``extended_hamiltonian`` build combined-register matrices. Each run checks t, N and its largest rotation angle,
``bounds.method_rate`` times t, with ``bounds.step_time`` and returns the ``bounds.sweep_point`` record, as the
baselines in ``channels`` do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cache

import numpy as np

from .bounds import ZenoRunResult, check_angle, is_count, is_real, method_rate, step_time, sweep_point
from .errors import LimitExceededError
from .hamiltonian import PauliHamiltonian, exact_evolution, pauli_rotations, term_matrix
from .linalg import MATRIX_TOL, compose, hermitian_eigen, spectral_norm

VARIANT_STANDARD = "standard"
VARIANT_MUB = "mub"

_CHUNK = 1024  # steps per block of survival probabilities and of uniform draws


@dataclass(frozen=True)
class ExtendedSystem:
    """Derived operators for one Hamiltonian and projector variant.

    ``variant`` selects the projector: ``standard`` projects onto the
    coefficient-weighted ancilla state, ``mub`` onto the uniform
    superposition. Every other field is derived from these two, which alone
    are compared and hashed; ``dataclasses.replace`` derives them again.
    Immutable after construction; safe to share across threads. H's spectrum is ``hamiltonian.spectrum``.
    """

    hamiltonian: PauliHamiltonian
    variant: str = VARIANT_STANDARD
    target_dim: int = field(init=False, compare=False)
    n_ancilla: int = field(init=False, compare=False)
    ancilla_dim: int = field(init=False, compare=False)
    weights: np.ndarray = field(init=False, compare=False)  # |phi_k|^2 per select block, 0 when padded
    projector_state: np.ndarray = field(init=False, compare=False)  # the ancilla state phi = sqrt(weights)
    generator_scale: float = field(init=False, compare=False)  # lam (standard) or 2^n_ancilla (mub)
    block_rates: tuple[float, ...] = field(init=False, compare=False)  # angle per unit time, 0 when padded

    def __post_init__(self):
        h, variant = self.hamiltonian, self.variant
        if variant not in (VARIANT_STANDARD, VARIANT_MUB):
            raise ValueError(f"unknown variant {variant!r}")
        num_terms = h.num_terms
        ancilla_dim = 1 << h.n_ancilla
        lam = h.lam

        if variant == VARIANT_STANDARD:
            weights = np.zeros(ancilla_dim)
            weights[:num_terms] = np.array([t.coefficient for t in h.terms]) / lam
            scale = lam
            rates = [lam] * num_terms
        else:  # |1/sqrt(d_a)|^2, 1 ulp below 1/d_a for odd n_ancilla (ROADMAP item 3)
            weights = np.full(ancilla_dim, 1.0 / math.sqrt(ancilla_dim)) ** 2
            scale = float(ancilla_dim)
            rates = [scale * t.coefficient for t in h.terms]
        rates.extend(0.0 for _ in range(ancilla_dim - num_terms))
        if not is_real(max(rates)):  # 2^n_ancilla times a coefficient can overflow
            raise LimitExceededError(f"select block rate {max(rates):g} is not finite")
        state = np.sqrt(weights).astype(complex)
        for array in (weights, state):
            array.setflags(write=False)
        derived = dict(target_dim=2**h.num_qubits, n_ancilla=h.n_ancilla, ancilla_dim=ancilla_dim, weights=weights,
                       projector_state=state, generator_scale=scale, block_rates=tuple(rates))
        for name, value in derived.items():
            object.__setattr__(self, name, value)


def build_extended(h: PauliHamiltonian, variant: str = VARIANT_STANDARD) -> ExtendedSystem:
    """The extended system of ``h`` under the ``variant`` projector (``standard`` or ``mub``)."""
    return ExtendedSystem(h, variant)


def _combined(sys: ExtendedSystem, blocks) -> np.ndarray:
    """sum_k blocks[k] (x) |k><k| for a (k, d_t, d_t) stack of target blocks; missing blocks are zero."""
    dim = sys.target_dim * sys.ancilla_dim
    out = np.zeros((dim, dim), dtype=complex)
    for k, block in enumerate(blocks):
        out[k :: sys.ancilla_dim, k :: sys.ancilla_dim] = block
    return out


def extended_hamiltonian(sys: ExtendedSystem) -> np.ndarray:
    """Block-diagonal combined-register generator, without the overall scale.

    Block k is term k's signed Pauli string times block_rates[k] / generator_scale
    (1 for standard, the coefficient for mub); padded blocks are zero.
    ``select(dt)`` equals ``exp(-i * generator_scale * dt * extended_hamiltonian)``.
    """
    scales = np.array(sys.block_rates[: sys.hamiltonian.num_terms]) / sys.generator_scale
    return _combined(sys, [s * term_matrix(term) for s, term in zip(scales, sys.hamiltonian.terms)])


def _blocks(sys: ExtendedSystem, delta_t: float) -> np.ndarray:
    """Select blocks U_k(dt) stacked as (d_a, d_t, d_t); padded ancilla states get identity blocks."""
    if not is_real(delta_t):
        raise ValueError(f"step time must be a finite real number, got {delta_t!r}")
    check_angle(max(sys.block_rates), delta_t)
    h = sys.hamiltonian
    rotations = pauli_rotations(h, np.array(sys.block_rates[: h.num_terms]) * delta_t)
    eye = np.eye(sys.target_dim, dtype=complex)
    padding = np.broadcast_to(eye, (sys.ancilla_dim - h.num_terms, *eye.shape))
    return np.concatenate([rotations, padding])


def select_unitary(sys: ExtendedSystem, delta_t: float) -> np.ndarray:
    """Controlled short-time evolution, analytic per block."""
    return _combined(sys, _blocks(sys, delta_t))


def _corner(sys: ExtendedSystem, delta_t: float) -> np.ndarray:
    """A(dt) = sum_k w_k U_k(dt) with w_k = |phi_k|^2 (``weights``), so that P select(dt) P = A(dt) (x) |phi><phi|."""
    return np.tensordot(sys.weights, _blocks(sys, delta_t), axes=1)


def _initial_state(sys: ExtendedSystem, psi0: np.ndarray | None) -> np.ndarray:
    """The checked initial target state; |0..0> when ``psi0`` is None."""
    psi = np.asarray(np.eye(sys.target_dim)[0] if psi0 is None else psi0, dtype=complex).reshape(-1)
    if psi.shape[0] != sys.target_dim:
        raise ValueError(f"psi0 must have dimension {sys.target_dim}, got {psi.shape[0]}")
    if not abs(np.linalg.norm(psi) - 1.0) <= MATRIX_TOL:  # a NaN norm fails too
        raise ValueError("psi0 must be normalized")
    return psi


def _sine_gap(a: np.ndarray, gap: np.ndarray, theta: float) -> np.ndarray:
    """sin(a theta) - a sin(theta), given gap = 1 - a^2.

    Up to theta = 1 this sums a (1 - a^2) sum_k (-1)^(k+1) theta^(2k+1) (1 + a^2 + ... + a^(2k-2)) / (2k+1)!,
    which has no cancellation; ten terms leave under 1e-18 of the first.
    """
    if theta > 1.0:
        return np.sin(a * theta) - a * math.sin(theta)
    b = a * a
    term, geometric, total = theta, np.zeros_like(a), np.zeros_like(a)
    for k in range(1, 11):
        term *= -theta * theta / (2 * k * (2 * k + 1))  # (-1)^k theta^(2k+1) / (2k+1)!
        geometric = 1.0 + b * geometric
        total -= term * geometric
    return a * gap * total


def _phase(a: np.ndarray, gap: np.ndarray, theta: float, drop: np.ndarray, n_steps: int) -> np.ndarray:
    """N arg(mu e^(i a theta)) for the step eigenvalue mu = (1 - drop) - i a sin(theta), given gap = 1 - a^2.

    Im(mu e^(i a theta)) = (1 - drop) sin(a theta) - a sin(theta) cos(a theta) is regrouped around ``_sine_gap``, so
    its O(theta) terms cancel exactly.
    """
    sin_t, sin_at = math.sin(theta), np.sin(a * theta)
    im = _sine_gap(a, gap, theta) - drop * sin_at + 2.0 * a * sin_t * np.sin(a * theta / 2.0) ** 2
    return n_steps * np.arctan2(im, (1.0 - drop) * np.cos(a * theta) + a * sin_t * sin_at)


def _survival(log_r: np.ndarray, weights: np.ndarray, start: int, stop: int) -> np.ndarray:
    """The survival probabilities q_k of steps k = start+1..stop on a normal step with eigenvalue moduli r_j.

    With ``log_r`` holding log r_j^2, w_j the weights of psi0 on the step's eigenvectors and S_k = sum_j w_j r_j^(2k),
    step k survives with q_k = S_k / S_(k-1). Components of zero weight are left out, and the rest are taken
    relative to the slowest-decaying one, so nothing underflows or overflows.
    """
    keep = weights > 0
    log_r, weights = log_r[keep], weights[keep]
    top = log_r.max()
    if top == -math.inf:  # every component is annihilated: no step survives
        return np.zeros(stop - start)
    totals = np.exp(np.multiply.outer(np.arange(max(start, 1), stop + 1), log_r - top)) @ weights
    if start == 0:
        totals = np.concatenate(([weights.sum()], totals))
    return math.exp(top) * totals[1:] / totals[:-1]


def _standard(sys: ExtendedSystem, delta_t: float, n_steps: int, order: int, psi: np.ndarray):
    """(error, overlap <e^(-iHt) psi, A^N psi>, log r_j^2, w_j) from the spectrum of H.

    On the eigenvector psi_j of H, with a = E_j / lam, theta = lam dt and u = 1 - cos(theta), the step is
    mu_j = cos(theta) - i a sin(theta) (order 1) or 1 - a^2 u - i a sin(theta) (order 2). The step is
    normal, so the error is max_j |mu_j^N - e^(-i E_j t)| = sqrt((r^N - 1)^2 + 4 r^N sin^2(delta_j / 2))
    with r = |mu_j| and delta_j = N arg(mu_j) + E_j t, and the overlap is sum_j w_j r^N e^(i delta_j) with
    w_j = |<psi_j|psi>|^2. Nothing is formed by cancellation: |mu|^2 - 1 is -sin(theta)^2 (1 - a^2)
    or -a^2 (1 - a^2) u^2, and as E_j t = N a theta, delta_j is N arg(mu_j e^(i a theta)), whose O(theta)
    terms cancel exactly.
    """
    energies, vectors = sys.hamiltonian.spectrum
    lam = sys.hamiltonian.lam
    a = energies / lam
    gap = np.maximum(0.0, (1.0 - a) * (1.0 + a))  # 1 - a^2; eigh may put |a| a rounding above 1
    theta = lam * delta_t
    sin_t, u = math.sin(theta), 2.0 * math.sin(theta / 2.0) ** 2
    if order == 1:
        drop, modulus = u, -sin_t * sin_t * gap
    else:
        drop, modulus = a * a * u, -((a * u) ** 2) * gap
    phase = _phase(a, gap, theta, drop, n_steps)
    with np.errstate(divide="ignore"):  # mu = 0 for a = 0 at theta = pi / 2
        log_r = np.log1p(modulus)
    weights = np.abs(vectors.conj().T @ psi) ** 2

    half = 0.5 * n_steps * log_r  # log r^N
    epsilon = float(np.max(np.hypot(np.expm1(half), 2.0 * np.exp(0.5 * half) * np.sin(0.5 * phase))))
    return epsilon, np.dot(weights * np.exp(half), np.exp(1j * phase)), log_r, weights


def _mub(sys: ExtendedSystem, t: float, delta_t: float, n_steps: int, psi: np.ndarray):
    """``_standard``'s tuple for the mub projector, whose blocks turn at different angles: A(dt) is no function of H.

    The error and overlap come from A(dt)^N, which ``compose`` writes over A(dt). A(dt) = alpha - i H' with
    alpha = A[0, 0] real and H' Hermitian, so on the eigenvector of H' with eigenvalue mu_j the step has modulus
    r_j^2 = alpha^2 + mu_j^2; both are read before the power.
    """
    step = _corner(sys, delta_t)
    alpha, (mu, basis) = step[0, 0].real, hermitian_eigen(0.5j * (step - step.conj().T))
    exact = exact_evolution(sys.hamiltonian, t)
    repeated = compose(step, n_steps)
    with np.errstate(divide="ignore"):  # r = 0 where alpha = mu_j = 0
        log_r = np.log(alpha**2 + mu**2)
    weights = np.abs(basis.conj().T @ psi) ** 2
    return spectral_norm(repeated - exact), np.vdot(exact @ psi, repeated @ psi), log_r, weights


def _projected(sys: ExtendedSystem, t: float, n_steps: int, order: int, psi0: np.ndarray | None):
    """``run_zeno``'s point, and the step's log r_j^2, the weights of psi0 on its eigenvectors and the fidelity of
    the state that survives all N steps (None when none can)."""
    method = "mub" if sys.variant == VARIANT_MUB else f"zeno{order}"
    delta_t = step_time(t, n_steps, method_rate(method, sys.hamiltonian))
    if not (is_count(order, 1) and order <= 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    if method == "mub" and order != 1:
        raise ValueError("the second-order sequence is defined for the standard projector only")

    psi = _initial_state(sys, psi0)
    if sys.variant == VARIANT_STANDARD:
        epsilon, overlap, log_r, weights = _standard(sys, delta_t, n_steps, order, psi)
    else:
        epsilon, overlap, log_r, weights = _mub(sys, t, delta_t, n_steps, psi)
    survival = np.dot(weights, np.exp(n_steps * log_r))  # sum_j w_j r_j^(2N) = ||A^N psi||^2
    fidelity = float(abs(overlap) ** 2 / survival) if survival else None
    # Divided by sum_j w_j in the same dot product, so t = 0 (every r_j = 1) reads exactly 1 whatever the w_j sum to.
    p_succ = min(float(survival / np.dot(weights, np.ones_like(weights))), 1.0)
    return sweep_point(method, sys.hamiltonian, t, n_steps, epsilon, p_succ), (log_r, weights, fidelity)


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
    ||step^N psi0||^2 (exact post-selection, no sampling). For the standard
    projector both come from the Hamiltonian's spectrum; for mub, the error
    from the N-th matrix power of A(dt), the probability from H'.
    """
    return _projected(sys, t, n_steps, order, psi0)[0]


def run_kicks(sys: ExtendedSystem, t: float, n_steps: int) -> ZenoRunResult:
    """Run the reflection-kick sequence (no measurements, unit success).

    The reported error restricts the difference to the projected subspace,
    where the kick sequence converges to the target evolution; the
    orthogonal block evolves under a different effective Hamiltonian and is
    not part of the contract. On the ancilla states that label a term,
    select(dt) is c - i s Q with c, s = cos, sin(lam dt),
    Q = sum_k |k><k| (x) P_k and Q^2 = 1; phi vanishes on the padded states,
    which are never populated. So the kick R select(dt) is a qubitization
    walk: for each eigenpair (E_j, psi_j) of H it keeps the plane of
    |phi> (x) psi_j and its orthogonal partner, where it is
    K = [[c - i s a_j, -i s b_j], [i s b_j, -c - i s a_j]] with a_j = E_j / lam
    and b_j = sqrt(1 - a_j^2). The planes are mutually orthogonal, so the
    error is the largest per-plane distance between the first column
    (alpha, beta) of K^N and (exp(-i E_j t), 0).

    K^N is read in closed form. K = -i s a + M with M^2 = kappa^2, kappa = hypot(c, s b) = sqrt(1 - s^2 a^2), so K
    has the eigenvalues lambda_+ = kappa - i s a = e^(-i phi) and lambda_- = -e^(i phi), phi = arctan2(s a, kappa).
    With U = (lambda_+^N - lambda_-^N) / (2 kappa), cos(N phi) / kappa for odd N and -i sin(N phi) / kappa for even
    N, alpha = lambda_+^N - (kappa - c) U and beta = i s b U. lambda_+ is zeno's step with drop = 1 - kappa, so
    ``_phase`` gives lambda_+^N e^(i E_j t) = e^(i phase) without cancellation, and kappa - c is s^2 b^2 / (kappa + c)
    when c >= 0. The plane's error is hypot(|expm1(i phase) - (kappa - c) U e^(i E_j t)|, |s b U|).
    """
    h = sys.hamiltonian
    delta_t = step_time(t, n_steps, method_rate("kicks", h))
    if sys.variant != VARIANT_STANDARD:
        raise ValueError("kick sequence requires the standard projector variant")

    energies = h.spectrum[0]
    a = energies / h.lam
    gap = np.maximum(0.0, (1.0 - a) * (1.0 + a))  # b^2 = 1 - a^2; eigh may put |a| a rounding above 1
    theta = h.lam * delta_t
    c, s = math.cos(theta), math.sin(theta)
    kappa = np.hypot(c, s * np.sqrt(gap))  # > 0, as cos(theta) is never 0 in floating point
    turn = n_steps * np.arctan2(s * a, kappa)  # N phi
    split = (np.cos(turn) if n_steps % 2 else -1j * np.sin(turn)) / kappa  # U
    lift = s * s * gap / (kappa + c) if c >= 0 else kappa - c  # kappa - c
    phase = _phase(a, gap, theta, (s * a) ** 2 / (1.0 + kappa), n_steps)  # drop = 1 - kappa
    # alpha e^(i E t) - 1; numpy's complex expm1 of i x is -2 sin^2(x / 2) + i sin(x)
    alpha_gap = np.expm1(1j * phase) - lift * split * np.exp(1j * float(t) * energies)
    epsilon = float(np.max(np.hypot(np.abs(alpha_gap), abs(s) * np.sqrt(gap) * np.abs(split))))
    return sweep_point("kicks", h, t, n_steps, epsilon)


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
    exact evolution. Every surviving shot follows the path A(dt)^k psi0 / ||.||
    of a normal step, so survival and fidelity come from a spectrum: of H for
    the standard projector, of H' (``_mub``) for mub.
    """
    if not is_count(shots, 1):
        raise ValueError(f"shots must be an integer >= 1, got {shots!r}")
    if not is_count(seed, 0):
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    shots, seed = int(shots), int(seed)  # NumPy integers run as int, so seed + shots cannot wrap
    point, (log_r, weights, fidelity) = _projected(sys, t, n_steps, order, psi0)
    successes = _successes(log_r, weights, n_steps, shots, seed)
    return replace(point, p_succ_sampled=successes / shots, shots=shots, seed=seed,
                   fidelity_mean=fidelity if successes else None)


def _successes(log_r: np.ndarray, weights: np.ndarray, n_steps: int, shots: int, seed: int) -> int:
    """The shots of ``default_rng(seed + shot)`` that survive all ``n_steps`` steps.

    A step's measurement is one uniform draw u that picks the all-zeros outcome iff u < its survival
    probability (``_survival``), as in Generator.choice. A shot draws _CHUNK steps at a time and stops at the
    first chunk holding a failed step; PCG64 gives the same draws in chunks as in one call, so the verdicts do
    not depend on _CHUNK. A chunk's survival probabilities are computed when the first shot reaches it and
    kept for the next shots.
    """
    chunk = cache(lambda start: _survival(log_r, weights, start, min(start + _CHUNK, n_steps)))
    return sum(
        all(np.all(rng.random(len(q)) < q) for q in map(chunk, range(0, n_steps, _CHUNK)))
        for rng in map(np.random.default_rng, range(seed, seed + shots))
    )


def block_encoding_matrix(sys: ExtendedSystem, delta_t: float) -> np.ndarray:
    """Corner block <0|V^dag select(dt) V|0> on the target register.

    Equals the coefficient-weighted sum of the block unitaries, i.e. the
    non-unitary operator the combined circuit embeds.
    """
    if sys.variant != VARIANT_STANDARD:
        raise ValueError("block encoding is defined for the standard projector variant")
    return _corner(sys, delta_t)


def step_success_probability(
    sys: ExtendedSystem,
    delta_t: float,
    psi0: np.ndarray | None = None,
) -> float:
    """Probability of the all-zeros ancilla outcome after a single step."""
    psi = _initial_state(sys, psi0)
    return float(min(np.linalg.norm(_corner(sys, delta_t) @ psi) ** 2, 1.0))
