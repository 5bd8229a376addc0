"""Acceptance suite: every bound and contract, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they are checked; each criterion is also an ordinary test.
"""

import json

import numpy as np
import pytest
from full_register import projector_full

from zenosim import (
    ExperimentConfig,
    build_extended,
    diamond_lower_bound,
    exact_evolution,
    fit_loglog_slope,
    hamiltonian_matrix,
    hermitian_eigen,
    matexp_hermitian,
    parse_hamiltonian,
    qdrift_channel,
    qdrift_sample,
    run_experiment,
    run_kicks,
    run_sampled,
    run_zeno,
    select_unitary,
    spectral_norm,
    step_success_probability,
    term_matrix,
    trace_norm,
    trotter_first_order,
    unitary_channel,
)
from zenosim.channels import conjugation_superoperator
from zenosim.cli import main
from zenosim.experiments import render_csv
from zenosim.zeno import extended_hamiltonian

TWO_TERM = "0.6*X + 0.4*Z"
THREE_TERM = "0.5*X + 0.3*Z + 0.2*Y"
TWO_QUBIT = "0.5*XZ + 0.3*ZI + 0.2*IY"

TIMES = (0.5, 1.0, 2.0)
SWEEP_NS = sorted({int(round(x)) for x in np.logspace(0, 3, 15)})
FIT_WINDOW = [n for n in SWEEP_NS if 10 <= n <= 1000]


def report(number, label, ok):
    print(f"[acceptance] criterion {number:>2} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number}: {label}"


@pytest.fixture(scope="module")
def h2():
    return parse_hamiltonian(TWO_TERM)


@pytest.fixture(scope="module")
def sys2(h2):
    return build_extended(h2)


@pytest.fixture(scope="module")
def zeno_sweeps(sys2):
    """run_zeno over every (t, order, N) point used by criteria 1 to 3."""
    data = {}
    for t in TIMES:
        for order in (1, 2):
            data[(t, order)] = [run_zeno(sys2, t, n, order=order) for n in SWEEP_NS]
    return data


def test_criterion_01_first_order_bound(zeno_sweeps):
    ok = True
    for t in TIMES:
        points = zeno_sweeps[(t, 1)]
        ok &= all(p.epsilon_measured <= t * t / p.N + 1e-12 for p in points)
        fit = [(p.N, p.epsilon_measured) for p in points if p.N in FIT_WINDOW]
        slope = fit_loglog_slope([n for n, _ in fit], [e for _, e in fit])
        ok &= slope is not None and -1.15 <= slope <= -0.85
    report(1, "first-order error bound and 1/N slope", ok)


def test_criterion_02_second_order_bound(zeno_sweeps):
    ok = True
    for t in TIMES:
        points = zeno_sweeps[(t, 2)]
        ok &= all(p.epsilon_measured <= t**3 / (3 * p.N**2) + 1e-12 for p in points)
        fit = [(p.N, p.epsilon_measured) for p in points if p.N in FIT_WINDOW]
        slope = fit_loglog_slope([n for n, _ in fit], [e for _, e in fit])
        ok &= slope is not None and -2.2 <= slope <= -1.8
        first = {p.N: p.epsilon_measured for p in zeno_sweeps[(t, 1)]}
        ok &= all(
            p.epsilon_measured <= first[p.N] + 1e-12 for p in points if p.N >= 10
        )
    report(2, "second-order error bound, 1/N^2 slope, beats first order", ok)


def test_criterion_03_success_probabilities(zeno_sweeps, sys2, h2):
    ok = True
    for (t, order), points in zeno_sweeps.items():
        for p in points:
            raw = (
                1 - 2 * t * t / p.N if order == 1 else 1 - 4 * t**3 / (3 * p.N**2)
            )
            if raw >= 0:
                ok &= p.p_succ_exact >= raw - 1e-12
    for dt in np.linspace(0.01, 0.5, 15):
        ok &= step_success_probability(sys2, dt) >= 1 - 2 * h2.lam**2 * dt * dt - 1e-12
    report(3, "total and per-step success lower bounds", ok)


def test_criterion_04_kick_bound(sys2):
    ok = True
    for t in TIMES:
        for n in FIT_WINDOW:
            r = run_kicks(sys2, t, n)
            ok &= r.epsilon_measured <= r.epsilon_bound + 1e-12
    report(4, "unitary-kick restricted error bound", ok)


def test_criterion_05_mub_bound():
    h = parse_hamiltonian(THREE_TERM)
    sys = build_extended(h, "mub")
    assert sys.n_ancilla == 2  # padding exercised: 3 terms in a 4-state register
    width = sys.ancilla_dim
    ok = True
    for t in (0.5, 1.0):
        for n in FIT_WINDOW:
            r = run_zeno(sys, t, n)
            ok &= r.epsilon_measured <= t * t * width**2 * h.h_max**2 / n + 1e-12
    report(5, "unbiased-basis projector error bound", ok)


def test_criterion_06_block_encoding():
    from zenosim import block_encoding_matrix
    from conftest import random_hamiltonian

    rng = np.random.default_rng(2024)
    ok = True
    cases = [2, 3, 4, 8, 2, 3, 4, 8, 3, 4]  # ten random instances
    for num_terms in cases:
        num_qubits = 2 if num_terms > 3 else int(rng.integers(1, 3))
        h = random_hamiltonian(rng, num_terms, num_qubits)
        sys = build_extended(h)
        dt = float(rng.uniform(0.0, 0.5))
        expected = np.zeros((sys.target_dim, sys.target_dim), dtype=complex)
        for term in h.terms:
            u_j = matexp_hermitian(h.lam * term_matrix(term), dt)
            expected += (term.coefficient / h.lam) * u_j
        ok &= spectral_norm(block_encoding_matrix(sys, dt) - expected) < 1e-10
    report(6, "block-encoding corner block equals the weighted sum", ok)


def test_criterion_07_compression_identities():
    ok = True
    for text, variant in [
        (TWO_TERM, "standard"),
        (THREE_TERM, "standard"),
        (THREE_TERM, "mub"),
        (TWO_QUBIT, "standard"),
        (TWO_QUBIT, "mub"),
    ]:
        h = parse_hamiltonian(text)
        sys = build_extended(h, variant)
        proj = projector_full(sys)
        compressed = sys.generator_scale * (proj @ extended_hamiltonian(sys) @ proj)
        p_anc = np.outer(sys.projector_state, sys.projector_state.conj())
        ok &= np.max(np.abs(compressed - np.kron(hamiltonian_matrix(h), p_anc))) < 1e-10

        terms = []
        for j, term in enumerate(h.terms):
            unit = np.zeros((sys.ancilla_dim, sys.ancilla_dim))
            unit[j, j] = 1.0
            terms.append(np.kron(term_matrix(term), unit))
        for i in range(len(terms)):
            for j in range(i + 1, len(terms)):
                ok &= spectral_norm(terms[i] @ terms[j] - terms[j] @ terms[i]) < 1e-12
    report(7, "compression identities and commuting extended terms", ok)


def test_criterion_08_qdrift_channel():
    ok = True
    # Choi lower bound against the analytic channel bound, 1 and 2 qubits.
    for text in (TWO_TERM, TWO_QUBIT):
        h = parse_hamiltonian(text)
        exact = unitary_channel(exact_evolution(h, 1.0))
        for n in (5, 10, 25, 50, 100, 200, 400):
            lb = diamond_lower_bound(qdrift_channel(h, 1.0, n), exact)
            ok &= lb <= 4.0 * h.lam**2 / n + 1e-12

    # 20000-trajectory average reproduces the channel superoperator.
    h = parse_hamiltonian(TWO_TERM)
    n_steps, samples = 6, 20_000
    supers = np.empty((samples, 4, 4), dtype=complex)
    for i in range(samples):
        u = qdrift_sample(h, 1.0, n_steps, seed=7 + i).resulting_unitary
        supers[i] = conjugation_superoperator(u)
    mean = supers.mean(axis=0)
    exact_super = qdrift_channel(h, 1.0, n_steps).superoperator
    for part in (np.real, np.imag):
        dev = np.abs(part(mean) - part(exact_super))
        se = np.sqrt(part(supers).var(axis=0, ddof=1) / samples)
        ok &= bool(np.all(dev <= 5.0 * se + 1e-12))

    # Tracing out the ancilla after one pre-measurement step gives the
    # one-step mixture channel.
    sys = build_extended(h)
    psi = np.zeros(sys.target_dim, dtype=complex)
    psi[0] = 1.0
    evolved = select_unitary(sys, 0.125) @ np.kron(psi, sys.projector_state)
    grid = evolved.reshape(sys.target_dim, sys.ancilla_dim)
    rho = grid @ grid.conj().T
    expected = qdrift_channel(h, 0.125, 1).apply(np.outer(psi, psi.conj()))
    ok &= np.max(np.abs(rho - expected)) < 1e-10
    report(8, "randomized-channel bound, trajectory average, ancilla trace", ok)


def test_criterion_09_sampled_mode(sys2, tmp_path, hfile):
    r = run_sampled(sys2, 1.0, 10, shots=2000, seed=11)
    stderr = np.sqrt(r.p_succ_exact * (1 - r.p_succ_exact) / 2000)
    ok = abs(r.p_succ_sampled - r.p_succ_exact) <= 3 * stderr

    args = [
        "--hamiltonian", hfile(TWO_TERM),
        "--method", "zeno1",
        "--t", "1",
        "--n", "10",
        "--mode", "sampled",
        "--shots", "2000",
        "--seed", "11",
    ]
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    ok &= main(args + ["--out", str(out1)]) == 0
    ok &= main(args + ["--out", str(out2)]) == 0
    ok &= out1.read_bytes() == out2.read_bytes()
    report(9, "sampled frequencies match and identical seeds are byte-identical", ok)


def test_criterion_10_degenerate_cases():
    ok = True
    h1 = parse_hamiltonian("0.7*Z")
    sys1 = build_extended(h1)
    sys1_mub = build_extended(h1, "mub")
    ok &= run_zeno(sys1, 1.0, 8).epsilon_measured < 1e-10
    ok &= run_zeno(sys1, 1.0, 8).p_succ_exact == pytest.approx(1.0, abs=1e-12)
    ok &= run_zeno(sys1, 1.0, 8, order=2).epsilon_measured < 1e-10
    ok &= run_kicks(sys1, 1.0, 8).epsilon_measured < 1e-10
    ok &= run_zeno(sys1_mub, 1.0, 8).epsilon_measured < 1e-10
    ok &= run_zeno(sys1_mub, 1.0, 8).p_succ_exact == pytest.approx(1.0, abs=1e-12)
    ok &= (
        diamond_lower_bound(
            qdrift_channel(h1, 1.0, 8), unitary_channel(exact_evolution(h1, 1.0))
        )
        < 1e-10
    )
    ok &= spectral_norm(trotter_first_order(h1, 1.0, 8) - exact_evolution(h1, 1.0)) < 1e-10

    h2 = parse_hamiltonian(TWO_TERM)
    sys2 = build_extended(h2)
    sys2_mub = build_extended(h2, "mub")
    ok &= run_zeno(sys2, 0.0, 5).epsilon_measured < 1e-12
    ok &= run_zeno(sys2, 0.0, 5, order=2).epsilon_measured < 1e-12
    ok &= run_kicks(sys2, 0.0, 5).epsilon_measured < 1e-12
    ok &= run_zeno(sys2_mub, 0.0, 5).epsilon_measured < 1e-12
    ok &= (
        diamond_lower_bound(
            qdrift_channel(h2, 0.0, 5), unitary_channel(exact_evolution(h2, 0.0))
        )
        < 1e-12
    )
    ok &= spectral_norm(trotter_first_order(h2, 0.0, 5) - np.eye(2)) < 1e-12
    report(10, "single-term and zero-time degenerate cases", ok)


def test_criterion_11_linear_algebra_substrate():
    rng = np.random.default_rng(31)
    ok = True
    for dim in (8, 32, 128, 256):
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h = (a + a.conj().T) / 2
        w, u = hermitian_eigen(h)
        ok &= spectral_norm((u * w) @ u.conj().T - h) < 1e-9

    for _ in range(20):
        a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        ok &= abs(spectral_norm(a) - np.linalg.svd(a, compute_uv=False)[0]) < 1e-8

    # Telescoping identity, 100 random instances.
    for _ in range(100):
        dim = int(rng.integers(2, 7))
        n = int(rng.integers(1, 9))
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        b = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        a /= max(1.0, np.linalg.norm(a, 2))
        b /= max(1.0, np.linalg.norm(b, 2))
        acc = np.zeros((dim, dim), dtype=complex)
        for k in range(n):
            acc += np.linalg.matrix_power(a, k) @ (a - b) @ np.linalg.matrix_power(b, n - 1 - k)
        ok &= (
            spectral_norm(np.linalg.matrix_power(a, n) - np.linalg.matrix_power(b, n) - acc)
            < 1e-10
        )

    # Integral-remainder bound on the exponential series, 100 random instances.
    import math

    for i in range(100):
        dim = 6
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        x = (a + a.conj().T) / 2
        alpha = (0.1, 0.5)[i % 2]
        k = (1, 2, 3)[i % 3]
        w, u = np.linalg.eigh(x)
        expx = (u * np.exp(alpha * w)) @ u.conj().T
        partial = np.zeros((dim, dim), dtype=complex)
        power = np.eye(dim, dtype=complex)
        for n in range(k + 1):
            if n > 0:
                power = power @ x
            partial += (alpha**n / math.factorial(n)) * power
        norm_x = np.linalg.norm(x, 2)
        bound = alpha ** (k + 1) * norm_x ** (k + 1) * np.exp(alpha * norm_x) / math.factorial(k + 1)
        ok &= spectral_norm(expx - partial) <= bound + 1e-12
    report(11, "eigendecomposition, norms, and operator-identity suites", ok)


def test_criterion_12_step_formula_contract(hfile):
    config = ExperimentConfig(
        hamiltonian_path=hfile(TWO_TERM),
        method="zeno1",
        t=1.0,
        epsilon=0.01,
    )
    result = run_experiment(config)
    point = result.points[0]
    ok = point.N == 100
    ok &= point.epsilon_measured <= 0.01
    ok &= point.p_succ_exact >= 0.98
    ok &= result.all_bounds_satisfied
    # Same contract through the command line.
    code = main(
        ["--hamiltonian", config.hamiltonian_path, "--method", "zeno1", "--t", "1", "--epsilon", "0.01"]
    )
    ok &= code == 0
    ok &= "zeno1,100," in render_csv(result)
    report(12, "precision flag picks N=100 with error and success contracts", ok)
