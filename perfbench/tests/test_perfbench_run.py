import json
import shutil
import subprocess
import sys

import pytest

import oracle
import run
from conftest import BENCH, ROOT


def test_invocation_lists():
    manifest = oracle.load_manifest()
    counts = {w: len(run.invocations(manifest, w, 5)) for w in manifest["workloads"]}
    assert counts == {"projected": 12, "sampled": 10, "channel": 3, "sampled-defect": 2}
    sampled = run.invocations(manifest, "sampled", 5)[0]
    assert sampled["id"] == "sampled/3q5/zeno1/N20" and sampled["seed"] == 5
    args = run.cli_args(sampled, "h.txt", 1.0)
    assert args[-6:] == ["--n", "20", "--shots", "400", "--seed", "5"]
    projected = run.invocations(manifest, "projected", 5)[-1]
    assert projected["id"] == "projected/6q32/kicks" and projected["seed"] is None
    assert "--sweep" in run.cli_args(projected, "h.txt", 1.0)


def _record(name, kind, wall, points=3, rss=50.0, timeout=30.0):
    ok = kind == "ok"
    return {"id": name, "kind": kind, "wall_s": wall, "rss_mib": rss,
            "points": points if ok else 0, "charged_s": wall if ok else timeout}


def test_end_to_end_charges_failures_the_timeout():
    records = [_record("a", "ok", 1.0), _record("b", "ok", 3.0), _record("c", "traceback", 2.0, rss=900.0),
               _record("d", "mismatch", 0.5)]
    m = run.end_to_end(records, [0.3, 0.2, 0.4])
    assert m["points_per_s"] == pytest.approx(6 / 64.0)
    assert m["run_s_p50"] == pytest.approx(16.5)
    assert m["peak_rss_mib"] == 900.0
    assert m["ok_share"] == 0.5
    assert m["setup_s"] == 0.3


def test_each_invocation_counts_once_with_its_fastest_pass():
    one = [_record("a", "ok", 1.0), _record("b", "ok", 2.0), _record("c", "ok", 9.0)]
    two = one + [_record("a", "ok", 1.2), _record("b", "ok", 1.5), _record("c", "traceback", 0.1)]
    assert run.end_to_end(one, [0.2])["run_s_p50"] == 2.0
    m = run.end_to_end(two, [0.2])
    assert m["run_s_p50"] == 1.5
    assert m["points_per_s"] == pytest.approx(6 / (1.0 + 1.5 + 30.0))
    assert m["ok_share"] == pytest.approx(5 / 6)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    import spans
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(spans.LAYER_METRICS)
    manifest = oracle.load_manifest()
    gated = {w["name"]: w["why"] for w in spec["workloads"]}
    assert gated == {name: manifest["workloads"][name]["why"] for name in gated}
    assert set(manifest["workloads"]) - set(gated) == {"sampled-defect"}


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "channel", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
