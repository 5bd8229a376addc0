import numpy as np
import pytest

import oracle
import zenosim as z
from instances import Instance, base_panel, conftest_instance, relabel
from zenosim.experiments import _qdrift_point, _trotter_point

TWO_QUBIT = Instance.parse("0.5*XZ + 0.3*ZI + -0.2*IY")
METHODS = ("zeno1", "zeno2", "mub", "kicks", "trotter1", "qdrift")


def _library_point(h, method, n):
    standard, mub = z.build_extended(h), z.build_extended(h, "mub")
    if method == "zeno1":
        return z.run_zeno(standard, 1.0, n, order=1)
    if method == "zeno2":
        return z.run_zeno(standard, 1.0, n, order=2)
    if method == "mub":
        return z.run_zeno(mub, 1.0, n, order=1)
    if method == "kicks":
        return z.run_kicks(standard, 1.0, n)
    if method == "trotter1":
        return _trotter_point(h, 1.0, n)
    return _qdrift_point(h, 1.0, n)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("n", (10, 37))
def test_oracle_agrees_with_library_on_two_qubits(method, n):
    h = z.parse_hamiltonian(TWO_QUBIT.text())
    lib = _library_point(h, method, n)
    assert oracle.error(TWO_QUBIT, method, 1.0, n) == pytest.approx(lib.epsilon_measured, rel=1e-9, abs=1e-12)
    assert oracle.success_probability(TWO_QUBIT, method, 1.0, n) == pytest.approx(lib.p_succ_exact, abs=1e-9)
    assert oracle.bounds(TWO_QUBIT, method, 1.0, n) == (lib.epsilon_bound, lib.p_succ_bound)


@pytest.mark.parametrize("method, order, variant", [("zeno1", 1, "standard"), ("zeno2", 2, "standard"),
                                                    ("mub", 1, "mub")])
def test_sampled_successes_match_library_exactly(method, order, variant):
    h = z.parse_hamiltonian(TWO_QUBIT.text())
    lib = z.run_sampled(z.build_extended(h, variant), 1.0, 12, order=order, shots=300, seed=11)
    assert oracle.sampled_successes(TWO_QUBIT, method, 1.0, 12, 300, 11) / 300 == lib.p_succ_sampled


def test_relabel_is_a_unitary_equivalence_fixing_the_uniform_state():
    base = conftest_instance(np.random.default_rng(0), 5, 3)
    for seed in range(6):
        other = relabel(base, seed)
        assert [t[0] for t in other.terms] == [t[0] for t in base.terms]
        assert len({t[2] for t in other.terms}) == 5
        np.testing.assert_allclose(np.linalg.eigvalsh(other.matrix()), np.linalg.eigvalsh(base.matrix()), atol=1e-12)
        # Every letter X stays X, so the conjugating unitary fixes |+...+>.
        assert sorted(t[2].count("X") for t in other.terms) == sorted(t[2].count("X") for t in base.terms)
        for method in METHODS:
            assert oracle.error(other, method, 1.0, 20) == pytest.approx(oracle.error(base, method, 1.0, 20), rel=1e-9)


def test_relabel_keeps_library_results_including_power_iteration():
    base = conftest_instance(np.random.default_rng(0), 5, 3)
    ref = z.run_zeno(z.build_extended(z.parse_hamiltonian(base.text())), 1.0, 20, order=2).epsilon_measured
    for seed in (1, 7):
        h = z.parse_hamiltonian(relabel(base, seed).text())
        got = z.run_zeno(z.build_extended(h), 1.0, 20, order=2).epsilon_measured
        assert got == pytest.approx(ref, rel=1e-9)


def test_reference_panel_is_the_conftest_recipe():
    manifest = oracle.load_manifest()
    reference = oracle.load_reference()
    panel = base_panel(manifest["panel_seed"], manifest["instances"])
    assert reference["instances"] == {name: inst.text() for name, inst in panel.items()}
    keys = {oracle.point_key(*p) for p in oracle.panel_points(manifest)}
    assert set(reference["epsilon"]) == keys


def test_reference_matches_fresh_oracle_on_small_instances():
    reference = oracle.load_reference()
    panel = {name: Instance.parse(text) for name, text in reference["instances"].items()}
    for key, eps in reference["epsilon"].items():
        name, method, n = key.split()
        if name in ("3q5", "4q8"):
            assert oracle.error(panel[name], method, reference["t"], int(n)) == pytest.approx(eps, rel=1e-9)
