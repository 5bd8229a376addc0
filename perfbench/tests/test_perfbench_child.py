import json
import sys

import pytest

import child

CAP = 2 * 2**30


def _result(returncode=0, timed_out=False, stdout="", stderr=""):
    return child.ChildResult(returncode, timed_out, 1.5, 40.0, stdout, stderr)


def _point(**overrides):
    point = {
        "method": "zeno1", "N": 10, "delta_t": 0.1, "epsilon_measured": 0.25,
        "epsilon_bound": 0.9, "bound_satisfied": True, "p_succ_exact": 0.75,
        "p_succ_bound": 0.2, "p_succ_sampled": None, "shots": None, "seed": None,
    }
    point.update(overrides)
    return point


def _output(*points):
    return json.dumps({"points": list(points)})


TRACEBACK = "Traceback (most recent call last):\n  File \"x\", line 1\nzenosim.errors.ConvergenceError: no\n"
MEMORY = "Traceback (most recent call last):\nnumpy._core._exceptions._ArrayMemoryError: Unable to allocate 32.0 MiB\n"


@pytest.mark.parametrize(
    "result, expected_exit, mismatch, kind",
    [
        (_result(-9, timed_out=True), 0, None, "timeout"),
        (_result(1, stderr=MEMORY), 0, None, "memory_cap"),
        (_result(-11, stderr="OpenBLAS: memory allocation failed"), 0, None, "memory_cap"),
        (_result(-11), 0, None, "signal"),
        (_result(1, stderr=TRACEBACK), 0, None, "traceback"),
        (_result(3, stderr="zenosim: limit exceeded: too many qubits\n"), 0, None, "exit_3"),
        (_result(4), 0, None, "exit_4"),
        (_result(0), 4, None, "exit_0"),
        (_result(0), 0, "N=10 epsilon_measured=0.2, reference 0.25", "mismatch"),
        (_result(4), 4, None, "ok"),
        (_result(0), 0, None, "ok"),
    ],
)
def test_classify(result, expected_exit, mismatch, kind):
    assert child.classify(result, expected_exit, mismatch)[0] == kind


def test_compare_points_tolerances():
    ref = _point(epsilon_measured=0.123456789)
    assert child.compare_points(_output(_point(epsilon_measured=0.123456789 * (1 + 5e-7))), [ref]) is None
    reason = child.compare_points(_output(_point(epsilon_measured=0.123456789 * (1 - 3e-6))), [ref])
    assert reason.startswith("N=10 epsilon_measured")
    assert "p_succ_exact" in child.compare_points(_output(_point(p_succ_exact=0.76)), [_point()])


@pytest.mark.parametrize(
    "field, value",
    [("epsilon_bound", 0.9000000001), ("bound_satisfied", False), ("p_succ_bound", 0.21),
     ("shots", 400), ("seed", 3), ("p_succ_sampled", 0.5), ("N", 11)],
)
def test_compare_points_exact_fields(field, value):
    assert field in child.compare_points(_output(_point(**{field: value})), [_point()])


def test_compare_points_rounds_reference_to_printed_digits():
    ref = _point(epsilon_bound=1 / 3)
    assert child.compare_points(_output(_point(epsilon_bound=float(f"{1 / 3:.12g}"))), [ref]) is None


def test_compare_points_bad_output():
    assert child.compare_points("not json", [_point()]).startswith("unreadable")
    assert child.compare_points(_output(), [_point()]) == "0 points, expected 1"


def test_run_child_reports_exit_rss_and_timeout(tmp_path):
    env = {"PATH": "/usr/bin:/bin"}
    ok = child.run_child([sys.executable, "-c", "import sys; print('hi'); sys.exit(3)"], env, 20, CAP, tmp_path)
    assert (ok.returncode, ok.timed_out, ok.stdout.strip()) == (3, False, "hi")
    assert ok.peak_rss_mib > 1
    slow = child.run_child([sys.executable, "-c", "import time; time.sleep(30)"], env, 0.5, CAP, tmp_path)
    assert slow.timed_out and slow.returncode < 0 and slow.wall_s < 10


def test_run_child_enforces_memory_cap(tmp_path):
    code = "b = bytearray(3 * 2**30)"
    result = child.run_child([sys.executable, "-c", code], {"PATH": "/usr/bin:/bin"}, 20, CAP, tmp_path)
    assert child.classify(result, 0, None)[0] == "memory_cap"
