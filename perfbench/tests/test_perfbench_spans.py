import json
import subprocess
import sys

import pytest

import spans
from conftest import BENCH, ROOT


def _span(sid, parent, name, start, end, failed=False, **extra):
    return [sid, parent, name, start, end, failed, extra]


def test_self_time_on_nested_spans():
    tree = [
        _span(0, None, "experiments.run_experiment", 0.0, 10.0),
        _span(1, 0, "zeno.run_zeno", 1.0, 6.0),
        _span(2, 1, "zeno.zeno_step_operator", 1.5, 2.5),
        _span(3, 2, "zeno.select_unitary", 1.6, 2.0),
        _span(4, 1, "linalg.spectral_norm", 3.0, 5.5),
        _span(5, 0, "experiments.render_json", 7.0, 8.0),
    ]
    own = spans.self_times(tree)
    assert own == pytest.approx({0: 4.0, 1: 1.5, 2: 0.6, 3: 0.4, 4: 2.5, 5: 1.0})
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_clips_overlapping_and_overhanging_children():
    tree = [
        _span(0, None, "a", 0.0, 4.0),
        _span(1, 0, "b", 1.0, 3.0),
        _span(2, 0, "c", 2.0, 5.0),
    ]
    assert spans.self_times(tree)[0] == pytest.approx(1.0)


def test_layer_metrics_attribution():
    tree = [
        _span(0, None, "experiments.run_experiment", 0.0, 20.0, failed=True),
        _span(1, 0, "zeno.run_sampled", 1.0, 11.0, dim=8, shots=400),
        _span(2, 1, "zeno.run_zeno", 1.0, 4.0, dim=8),
        _span(3, 2, "zeno.zeno_step_operator", 1.0, 1.5, dim=8),
        _span(4, 3, "zeno.projector_full", 1.1, 1.2, dim=8),
        _span(5, 2, "numpy.matrix_power", 1.5, 2.0, dim=64, n=100),
        _span(6, 2, "linalg.spectral_norm", 2.0, 3.5, failed=True, dim=64, rss_rise_mib=12.0),
        _span(7, 0, "channels.qdrift_channel", 12.0, 15.0),
        _span(8, 7, "numpy.matrix_power", 12.5, 14.5, dim=16, n=10),
        _span(9, 0, "linalg.trace_norm", 15.0, 16.0, dim=256),
    ]
    m = spans.layer_metrics([tree])
    assert m["zeno.step_s"] == pytest.approx(0.5)
    assert m["zeno.compose_s"] == pytest.approx(0.5)
    # 100 = 0b1100100: 6 squarings + 2 multiplies.
    assert m["zeno.compose_gflop"] == pytest.approx(8 * 8 * 64**3 / 1e9)
    # 10 = 0b1010: 3 squarings + 1 multiply.
    assert m["channels.compose_gflop"] == pytest.approx(4 * 8 * 16**3 / 1e9)
    assert m["zeno.shot_loop_s"] == pytest.approx(7.0)
    assert m["zeno.shots"] == 400
    assert m["zeno.max_dim"] == 64
    assert m["linalg.spectral_norm_calls"] == 1
    assert m["linalg.spectral_norm_failed"] == 1
    assert m["linalg.spectral_norm_rss_rise_mib"] == 12.0
    assert m["linalg.trace_norm_s"] == pytest.approx(1.0)
    assert m["channels.qdrift_s"] == pytest.approx(3.0)
    assert m["experiments.run_experiment_self_s"] == pytest.approx(20.0 - 10.0 - 3.0 - 1.0)
    assert (m["linalg.failed"], m["experiments.failed"], m["zeno.failed"]) == (1, 1, 0)


def test_layer_metrics_without_spans_are_zero():
    m = spans.layer_metrics([[]])
    assert set(m) == {name for name, _, _ in spans.LAYER_METRICS} - {"trace_overhead_share"}
    assert not any(m.values())


def _traced(tmp_path, prelude, *cli):
    """Run traced_cli.py after ``prelude`` (executed in the child first)."""
    out = tmp_path / "spans.json"
    code = (
        f"import runpy, sys; sys.path.insert(0, {str(BENCH)!r}); {prelude}; "
        f"sys.argv = ['traced_cli.py', {str(out)!r}, 'inv-1', *{list(cli)!r}]; "
        f"runpy.run_path({str(BENCH / 'traced_cli.py')!r}, run_name='__main__')"
    )
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    return proc, json.loads(out.read_text())


@pytest.fixture
def two_term(tmp_path):
    path = tmp_path / "h.txt"
    path.write_text("0.6*X + 0.4*Z\n")
    return str(path)


def test_traced_cli_records_spans_at_import_sites(tmp_path, two_term):
    proc, dump = _traced(tmp_path, "pass", "--hamiltonian", two_term, "--method", "zeno2",
                         "--t", "1", "--sweep", "10,20", "--format", "json")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["points"][1]["N"] == 20
    assert dump["invocation"] == "inv-1"
    names = [s[2] for s in dump["spans"]]
    for name in ("experiments.run_experiment", "hamiltonian.load_hamiltonian", "zeno.build_extended",
                 "zeno.run_zeno", "zeno.zeno_step_operator", "numpy.matrix_power",
                 "linalg.spectral_norm", "linalg.matexp_hermitian", "experiments.render_json"):
        assert name in names
    m = spans.layer_metrics([dump["spans"]])
    assert m["linalg.spectral_norm_calls"] == 2 and m["zeno.compose_gflop"] > 0
    assert m["zeno.max_dim"] == 4


def test_traced_cli_keeps_exit_code_and_writes_spans_on_failure(tmp_path, two_term):
    prelude = (
        "import zenosim.experiments as x, zenosim.errors as e; "
        "x.spectral_norm = lambda *a, **k: (_ for _ in ()).throw(e.ConvergenceError('boom'))"
    )
    # The replacement is not a function defined in zenosim.linalg, so it is
    # not wrapped; the failure shows in the spans of its caller.
    proc, dump = _traced(tmp_path, prelude, "--hamiltonian", two_term, "--method", "trotter1",
                         "--t", "1", "--n", "10")
    assert proc.returncode == 1 and "ConvergenceError: boom" in proc.stderr
    m = spans.layer_metrics([dump["spans"]])
    assert m["experiments.failed"] == 1 and m["linalg.spectral_norm_calls"] == 0


def test_deleted_function_records_zero(tmp_path, two_term):
    prelude = "import zenosim.zeno as z; del z.zeno_step_operator, z.projector_full"
    proc, dump = _traced(tmp_path, prelude, "--hamiltonian", two_term, "--method", "trotter1",
                         "--t", "1", "--n", "10")
    assert proc.returncode == 0, proc.stderr
    m = spans.layer_metrics([dump["spans"]])
    assert m["zeno.step_s"] == 0 and m["channels.trotter_s"] > 0
