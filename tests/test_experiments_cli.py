"""Experiment harness, output formats, exit codes, and the CLI."""

import contextlib
import gc
import io
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import CEILING_FILES, ceiling_hamiltonian, eigh_calls_on
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zenosim import (
    ConfigError,
    ExperimentConfig,
    SweepResult,
    ZenoRunResult,
    compare_methods,
    errors,
    fit_loglog_slope,
    parse_hamiltonian,
    run_experiment,
    to_text,
)
from zenosim import __main__ as entry
from zenosim.cli import _build_parser, main
from zenosim.experiments import CSV_COLUMNS, METHODS, MODES, render_csv, render_json
from zenosim.hamiltonian import MAX_FILE_BYTES
from zeno_references import REFERENCES

TWO_TERM = "0.6*X + 0.4*Z"
TWO_TERM_FILE = str(Path(__file__).resolve().parent.parent / "demos" / "hamiltonians" / "two_term.txt")
CEILING_5Q32 = to_text(ceiling_hamiltonian("ceiling_5q32"))  # the channel-mode ceiling
ZENO_REFERENCES = json.loads(REFERENCES.read_text(encoding="utf-8"))
README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
# README's exit-code table: every error class named in a row's last cell, mapped to the row's code.
README_EXIT_CODES = {
    name: int(code)
    for code, classes in re.findall(r"^\| `(\d)` \|.*\| (.*) \|$", README, re.MULTILINE)
    for name in re.findall(r"`(\w+)`", classes)
}
ERROR_CLASSES = [c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, errors.ZenosimError)]


def config(hfile, text=TWO_TERM, **kwargs):
    defaults = dict(method="zeno1", t=1.0, n=10)
    defaults.update(kwargs)
    return ExperimentConfig(hamiltonian_path=hfile(text), **defaults)


class TestRunExperiment:
    def test_zeno1_sweep_slope_and_bounds(self, hfile):
        result = run_experiment(
            config(hfile, n=None, sweep=(10, 20, 40, 80, 160, 320))
        )
        assert result.all_bounds_satisfied
        assert [p.N for p in result.points] == [10, 20, 40, 80, 160, 320]
        assert -1.15 <= result.fitted_slope <= -0.85

    def test_zeno2_sweep_slope(self, hfile):
        result = run_experiment(
            config(hfile, method="zeno2", n=None, sweep=(10, 20, 40, 80, 160, 320))
        )
        assert -2.2 <= result.fitted_slope <= -1.8

    def test_time_zero_any_method(self, hfile):
        for method in ("zeno1", "zeno2", "kicks", "trotter1"):
            result = run_experiment(config(hfile, method=method, t=0.0))
            assert result.points[0].epsilon_measured < 1e-12
        result = run_experiment(config(hfile, method="qdrift", mode="channel", t=0.0))
        assert result.points[0].epsilon_measured < 1e-12

    def test_epsilon_resolves_step_count(self, hfile):
        result = run_experiment(config(hfile, n=None, epsilon=0.01))
        point = result.points[0]
        assert point.N == 100
        assert point.epsilon_measured <= 0.01
        assert result.resolved_config["n_values"] == [100]

    def test_sweep_sorted_and_deduplicated(self, hfile):
        result = run_experiment(config(hfile, n=None, sweep=(40, 10, 40, 20)))
        assert [p.N for p in result.points] == [10, 20, 40]

    def test_psi0_index(self, hfile):
        result = run_experiment(config(hfile, psi0=1))
        assert result.points[0].p_succ_exact >= result.points[0].p_succ_bound

    def test_sampled_mode(self, hfile):
        result = run_experiment(
            config(hfile, mode="sampled", shots=300, seed=5)
        )
        point = result.points[0]
        assert point.p_succ_sampled is not None
        assert point.shots == 300
        assert point.seed == 5

    @pytest.mark.parametrize("method,mode", [("trotter1", "projected"), ("qdrift", "channel")])
    def test_baseline_sweep_reads_one_spectrum(self, hfile, monkeypatch, method, mode):
        # Every point measures against exp(-iHt) from the Hamiltonian's cached spectrum.
        calls = eigh_calls_on(monkeypatch, parse_hamiltonian(TWO_TERM))
        run_experiment(config(hfile, method=method, mode=mode, n=None, sweep=(10, 100, 1000)))
        assert calls == [(2, 2)]

    def test_trotter_has_no_bound(self, hfile):
        result = run_experiment(config(hfile, method="trotter1"))
        assert result.points[0].epsilon_bound is None
        assert result.all_bounds_satisfied


class TestMethodTable:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("method", METHODS)
    def test_allowed_pairs_run_and_others_are_rejected(self, method, mode):
        cfg = ExperimentConfig(
            hamiltonian_path=TWO_TERM_FILE, method=method, t=1.0, n=10, mode=mode, shots=20
        )
        if mode in METHODS[method][0]:
            result = run_experiment(cfg)
            assert [(p.method, p.N) for p in result.points] == [(method, 10)]
            assert (result.points[0].shots is not None) == (mode == "sampled")
        else:
            with pytest.raises(ConfigError, match=f"{method}.*{mode}"):
                run_experiment(cfg)

    def test_method_choices_are_the_table_keys(self):
        (action,) = [a for a in _build_parser()._actions if a.dest == "method"]
        assert tuple(action.choices) == tuple(METHODS)

    def test_compare_runs_each_method_in_its_first_mode(self):
        cfg = ExperimentConfig(
            hamiltonian_path=TWO_TERM_FILE, method="zeno1", t=1.0, n=10, mode="sampled", shots=20
        )
        comparison = compare_methods(cfg, list(METHODS))
        assert list(comparison.results) == list(METHODS)
        for method, sweep in comparison.results.items():
            assert sweep.resolved_config["mode"] == METHODS[method][0][0]
            assert sweep.points[0].shots is None


class TestConfigValidation:
    def test_exactly_one_step_selector(self, hfile):
        with pytest.raises(ConfigError, match="exactly one"):
            run_experiment(config(hfile, n=10, epsilon=0.1))
        with pytest.raises(ConfigError, match="exactly one"):
            run_experiment(config(hfile, n=None))

    def test_channel_mode_only_for_qdrift(self, hfile):
        with pytest.raises(ConfigError, match="channel"):
            run_experiment(config(hfile, mode="channel"))

    def test_qdrift_requires_channel_mode(self, hfile):
        with pytest.raises(ConfigError, match="channel"):
            run_experiment(config(hfile, method="qdrift"))

    def test_sampled_needs_shots(self, hfile):
        with pytest.raises(ConfigError, match="shots"):
            run_experiment(config(hfile, mode="sampled"))

    @pytest.mark.parametrize("fields,message", [
        ({"method": "zeno3"}, "^unknown method 'zeno3'; choose from "),
        ({"output_format": "xml"}, "^unknown output format 'xml'$"),
    ])
    def test_unknown_method_or_format(self, hfile, fields, message):
        with pytest.raises(ConfigError, match=message):
            run_experiment(config(hfile, **fields))

    @pytest.mark.parametrize("psi0", [[1j, 0], np.array([0.6, 0.8j]), 0.0, "1", True])
    def test_psi0_must_be_an_index(self, hfile, psi0):
        with pytest.raises(ConfigError, match="psi0 must be a basis-state index"):
            run_experiment(config(hfile, psi0=psi0))

    @pytest.mark.parametrize("fields,message", [
        ({"n": 10.5}, "n must be >= 1"), ({"n": True}, "n must be >= 1"),
        ({"n": None, "sweep": (10.7, 20)}, "sweep values must be positive integers"),
        ({"shots": 2.5}, "shots must be >= 1"), ({"seed": 1.5}, "seed must be >= 0"), ({"seed": True}, "seed must be >= 0"),
    ])
    def test_counts_must_be_integers(self, hfile, fields, message):
        with pytest.raises(ConfigError, match=message) as caught:
            run_experiment(config(hfile, **{"mode": "sampled", "shots": 10} | fields))
        assert len(str(caught.value).splitlines()) == 1

    @pytest.mark.parametrize("fields,message", [
        ({"t": True}, "t must be finite"), ({"t": "1"}, "t must be finite"), ({"t": None}, "t must be finite"),
        ({"n": None, "epsilon": True}, "epsilon must be finite"), ({"n": None, "epsilon": "0.1"}, "epsilon must be finite"),
        ({"t": 10**400}, "t must be finite"), ({"n": None, "epsilon": 10**400}, "epsilon must be finite"),
    ])
    def test_times_and_precisions_must_be_real(self, hfile, fields, message):
        with pytest.raises(ConfigError, match=message) as caught:
            run_experiment(config(hfile, **fields))
        assert len(str(caught.value).splitlines()) == 1

    def test_numpy_time_and_precision_run_as_given(self, hfile):
        result = run_experiment(config(hfile, t=np.float64(1.0), n=None, epsilon=np.float64(0.1)))
        assert render_json(result) == render_json(run_experiment(config(hfile, n=None, epsilon=0.1)))

    @pytest.mark.parametrize("dtype", [np.float32, np.longdouble])
    @pytest.mark.parametrize("method", ["zeno1", "qdrift"])
    def test_numpy_time_and_precision_run_as_their_floats(self, hfile, dtype, method):
        # A float32 or longdouble t or epsilon used to reach the JSON writer, which cannot serialise it.
        mode = "channel" if method == "qdrift" else "projected"
        t, epsilon = dtype(0.1), dtype(0.003)
        result = run_experiment(config(hfile, method=method, mode=mode, t=t, n=None, epsilon=epsilon))
        assert [type(result.resolved_config[k]) for k in ("t", "epsilon")] == [float, float]
        expected = run_experiment(config(hfile, method=method, mode=mode, t=float(t), n=None, epsilon=float(epsilon)))
        assert render_json(result) == render_json(expected) and render_csv(result) == render_csv(expected)

    def test_numpy_counts_run_as_int(self, hfile):
        counts = dict(n=10, shots=10, seed=3, psi0=1)
        result = run_experiment(config(hfile, mode="sampled", **{k: np.int64(v) for k, v in counts.items()}))
        assert render_json(result) == render_json(run_experiment(config(hfile, mode="sampled", **counts)))

    def test_sampled_rejects_kicks(self, hfile):
        with pytest.raises(ConfigError, match="sampled"):
            run_experiment(config(hfile, method="kicks", mode="sampled", shots=10))

    def test_term_cap(self, hfile):
        from itertools import product

        from zenosim import LimitExceededError

        words = ["".join(w) for w in product("IXYZ", repeat=3) if set(w) != {"I"}][:33]
        text = " + ".join(f"0.1*{w}" for w in words)
        with pytest.raises(LimitExceededError, match="terms"):
            run_experiment(config(hfile, text=text))

    def test_qubit_cap(self, hfile):
        from zenosim import LimitExceededError

        with pytest.raises(LimitExceededError, match="qubits"):
            run_experiment(config(hfile, text="0.5*" + "X" * 7))


class TestEmitResults:
    """The renderers; the CLI's --out tests cover writing their text to a file."""

    def test_header_only_for_empty_sweep(self):
        empty = SweepResult(points=())
        assert render_csv(empty) == ",".join(CSV_COLUMNS) + "\n"

    def test_single_point_single_row(self, hfile):
        result = run_experiment(config(hfile))
        lines = render_csv(result).splitlines()
        assert len(lines) == 2
        assert lines[0] == ",".join(CSV_COLUMNS)
        cells = lines[1].split(",")
        assert len(cells) == len(CSV_COLUMNS)
        assert cells[0] == "zeno1"
        assert cells[1] == "10"
        # Floats carry 12 significant digits.
        assert cells[3] == f"{result.points[0].epsilon_measured:.12g}"
        # No sampling: sampled columns are empty cells.
        assert cells[8] == "" and cells[9] == "" and cells[10] == ""

    def test_six_point_sweep_csv_and_json(self, hfile):
        result = run_experiment(config(hfile, n=None, sweep=(10, 20, 40, 80, 160, 320)))
        lines = render_csv(result).splitlines()
        assert len(lines) == 7  # header + six rows
        assert "fitted_slope" not in lines[0]

        payload = json.loads(render_json(result))
        assert payload["fitted_slope"] == pytest.approx(result.fitted_slope, rel=1e-9)
        assert len(payload["points"]) == 6
        assert payload["all_bounds_satisfied"] is True
        assert payload["config"]["n_values"] == [10, 20, 40, 80, 160, 320]

    def test_json_mirrors_csv_fields(self, hfile):
        result = run_experiment(config(hfile))
        payload = json.loads(render_json(result))
        assert set(payload["points"][0]) == set(CSV_COLUMNS)

    def test_byte_identical_reruns(self, hfile):
        cfg = config(hfile, mode="sampled", shots=120, seed=9)
        first = render_csv(run_experiment(cfg))
        second = render_csv(run_experiment(cfg))
        assert first == second
        assert render_json(run_experiment(cfg)) == render_json(run_experiment(cfg))


class TestCompareMethods:
    def test_single_term_both_near_zero(self, hfile):
        cfg = config(hfile, text="0.7*Z", n=None, sweep=(5, 10))
        comparison = compare_methods(cfg, ["zeno1", "trotter1"])
        for sweep in comparison.results.values():
            assert all(p.epsilon_measured < 1e-10 for p in sweep.points)

    def test_second_order_beats_first_order(self, hfile):
        cfg = config(hfile, n=100)
        comparison = compare_methods(cfg, ["zeno1", "zeno2"])
        eps1 = comparison.results["zeno1"].points[0].epsilon_measured
        eps2 = comparison.results["zeno2"].points[0].epsilon_measured
        assert eps2 <= eps1

    def test_qdrift_alone_single_term(self, hfile):
        cfg = config(hfile, text="0.7*Z", n=None, sweep=(5, 20, 50))
        comparison = compare_methods(cfg, ["qdrift"])
        assert all(p.epsilon_measured < 1e-10 for p in comparison.results["qdrift"].points)
        assert any("channel-level" in note for note in comparison.notes)

    def test_render_contains_methods(self, hfile):
        # At N = 3 zeno1's error and bound print 15 and 14 characters; fixed 13- and 14-character columns pushed
        # every later column two characters right of its header.
        cfg = config(hfile, n=None, sweep=(3, 10, 20))
        comparison = compare_methods(cfg, ["zeno1", "kicks", "qdrift"])
        text = comparison.render()
        assert "zeno1_error" in text and "qdrift_error" in text
        assert "note:" in text
        header, *rows = [line for line in text.splitlines() if not line.startswith("note:")]
        edges = [m.end() for m in re.finditer(r"\S+", header)]
        assert len(rows) == 3 and len(edges) == 7
        for row in rows:
            assert len(row) == len(header)
            assert [m.end() for m in re.finditer(r"\S+", row)] == edges

    def test_duplicate_methods_rejected(self, hfile):
        with pytest.raises(ConfigError, match="distinct"):
            compare_methods(config(hfile), ["zeno1", "zeno1"])

    def test_one_spectrum_per_run(self, hfile, monkeypatch):
        # Every method, of either projector variant or none, reads the loaded Hamiltonian's cached spectrum:
        # the Zeno steps and kicks for their eigenvalues, mub, trotter1 and qdrift for the exact propagator.
        calls = eigh_calls_on(monkeypatch, parse_hamiltonian(TWO_TERM))
        methods = ["zeno1", "zeno2", "mub", "kicks", "trotter1", "qdrift"]
        compare_methods(config(hfile, n=None, sweep=(10, 100)), methods)
        assert calls == [(2, 2)]


class TestCeiling:
    """The advertised size ceiling: 6 qubits and 32 terms, 5 qubits in channel mode."""

    @staticmethod
    def check(result, ns):
        assert [p.N for p in result.points] == list(ns)
        assert result.all_bounds_satisfied
        for p in result.points:
            assert np.isfinite(p.epsilon_measured) and 0.0 <= p.p_succ_exact <= 1.0

    @pytest.mark.parametrize("method", ["zeno1", "zeno2", "mub", "kicks", "trotter1"])
    def test_projected(self, method):
        cfg = ExperimentConfig(hamiltonian_path=CEILING_FILES["ceiling_6q32"], method=method, t=1.0, sweep=(10, 100))
        self.check(run_experiment(cfg), (10, 100))

    @pytest.mark.parametrize("method", ["zeno1", "zeno2", "mub"])
    def test_sampled(self, method):
        cfg = ExperimentConfig(
            hamiltonian_path=CEILING_FILES["ceiling_6q32"], method=method, t=1.0, sweep=(10, 100),
            mode="sampled", shots=50, seed=3,
        )
        self.check(run_experiment(cfg), (10, 100))

    def test_qdrift_channel(self):
        cfg = ExperimentConfig(
            hamiltonian_path=CEILING_FILES["ceiling_5q32"], method="qdrift", t=1.0, n=10, mode="channel"
        )
        self.check(run_experiment(cfg), (10,))

    def test_kicks_at_step_cap(self):
        cfg = ExperimentConfig(hamiltonian_path=CEILING_FILES["ceiling_6q32"], method="kicks", t=1.0, n=10**6)
        start = time.perf_counter()
        self.check(run_experiment(cfg), (10**6,))
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("method", ["zeno1", "zeno2"])
    def test_zeno_at_step_cap(self, method):
        # One eigendecomposition of H, then O(d) per point. The 40-digit per-eigenvalue zeno2 error is
        # 3.602e-10 (tests/zeno_references.py), against a bound of 2.24e-9; an N-fold power of the step
        # read 1.18e-9, its roundoff floor.
        cfg = ExperimentConfig(hamiltonian_path=CEILING_FILES["ceiling_6q32"], method=method, t=1.0, n=10**6)
        start = time.perf_counter()
        result = run_experiment(cfg)
        assert time.perf_counter() - start < 1.0
        self.check(result, (10**6,))
        if method == "zeno2":
            reference = float(ZENO_REFERENCES["ceiling_6q32 zeno2 1000000"]["epsilon"])
            assert result.points[0].epsilon_measured == pytest.approx(reference, rel=1e-6, abs=0.0)


class TestCliExitCodes:
    def test_success(self, hfile, capsys):
        code = main(["--hamiltonian", hfile(TWO_TERM), "--method", "zeno1", "--t", "1", "--n", "10"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith(",".join(CSV_COLUMNS))

    def test_usage_error_bad_flags(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--method", "zeno1"])  # missing required flags
        assert info.value.code == 1

    def test_usage_error_missing_file(self, tmp_path, capsys):
        code = main(
            ["--hamiltonian", str(tmp_path / "nope.txt"), "--method", "zeno1", "--t", "1", "--n", "5"]
        )
        assert code == 1

    def test_usage_error_invalid_combination(self, hfile, capsys):
        code = main(
            ["--hamiltonian", hfile(TWO_TERM), "--method", "zeno1", "--t", "1", "--n", "5", "--mode", "channel"]
        )
        assert code == 1

    def test_parse_error(self, hfile, capsys):
        code = main(
            ["--hamiltonian", hfile("0.5*Q"), "--method", "zeno1", "--t", "1", "--n", "5"]
        )
        assert code == 2
        assert "parse error" in capsys.readouterr().err

    def test_limit_error(self, hfile, capsys):
        code = main(
            ["--hamiltonian", hfile("0.5*" + "Z" * 7), "--method", "zeno1", "--t", "1", "--n", "5"]
        )
        assert code == 3

    @pytest.mark.parametrize("flags,code,message", [
        (["--t", "nan", "--n", "10"], 1, "t must be finite"),
        (["--t", "inf", "--n", "10"], 1, "t must be finite"),
        (["--t", "1", "--epsilon", "0"], 1, "epsilon must be finite and positive"),
        (["--t", "1", "--epsilon", "nan"], 1, "epsilon must be finite and positive"),
        (["--t", "1", "--epsilon", "1e-30"], 3, "exceeds the cap of 1000000"),
        (["--t", "1", "--n", "1000001"], 3, "exceeds the cap of 1000000"),
        (["--t", "1", "--sweep", "10,1000001"], 3, "exceeds the cap of 1000000"),
        (["--t", "1", "--n", "10", "--mode", "sampled", "--shots", "10", "--seed", "-5"], 1, "seed must be >= 0"),
        (["--t", "1", "--n", "5", "--shots", "-3"], 1, "shots must be >= 1"),
        (["--t", "1", "--n", "5", "--mode", "sampled", "--shots", "0"], 1, "shots must be >= 1"),
        # Finite coefficients and t, but lam * t or the largest rotation angle is not a finite float.
        *[
            (["--hamiltonian", "1e308*X + 1e308*Z", "--t", "1", "--n", "10", *more], 3, "is not finite")
            for more in (["--method", "zeno1"], ["--method", "zeno2"], ["--method", "mub"], ["--method", "kicks"],
                         ["--method", "qdrift", "--mode", "channel"], ["--mode", "sampled", "--shots", "10"])
        ],
        *[
            (["--hamiltonian", "1e300*X + 1e300*Z", "--t", "1e10", "--n", "10", *more], 3, "is not finite")
            for more in (["--method", "zeno1"], ["--method", "trotter1"], ["--method", "kicks"],
                         ["--method", "qdrift", "--mode", "channel"])
        ],
        (["--hamiltonian", "5e307*XI + 5e307*ZI + 5e307*IY", "--method", "mub", "--t", "1", "--n", "1"], 3,
         "is not finite"),
        (["--hamiltonian", "0.5*XXXXXX", "--method", "qdrift", "--mode", "channel", "--t", "1", "--n", "2"], 3,
         "channel mode supports at most 5 qubits"),
        # (lam * t)^2 / epsilon = 2.56e18 steps, though t * t underflows to 0.
        (["--hamiltonian", "8e307*XX + 8e307*YY", "--t", "1e-300", "--epsilon", "0.01"], 3, "exceeds the cap of 1000000"),
        # A CancellationError is a parse error.
        (["--hamiltonian", "0.5*X - 0.5*X", "--t", "1", "--n", "5"], 2, "zenosim: parse error: terms with word 'X'"),
        (["--t", "1", "--n", "0"], 1, "n must be >= 1"),
        (["--t", "1", "--n", "-3"], 1, "n must be >= 1"),
        (["--t", "1", "--sweep", "0,10"], 1, "sweep values must be positive integers"),
        (["--t", "1", "--sweep", "10,x"], 1, "--sweep expects comma-separated integers"),
        (["--t", "1", "--sweep", ","], 1, "--sweep list is empty"),
        # Before, an empty --sweep or --out counted as not given: the first ran at N = 5, the second exited 1 over
        # "exactly one of n, epsilon, or sweep", and the third wrote the CSV to stdout and exited 0.
        (["--t", "1", "--n", "5", "--sweep", ""], 1, "--sweep list is empty"),
        (["--t", "1", "--sweep", ""], 1, "--sweep list is empty"),
        (["--t", "1", "--n", "5", "--out", ""], 1, "cannot write output"),
    ])
    def test_non_finite_and_extreme_inputs(self, hfile, capsys, flags, code, message):
        # A repeated flag overrides the defaults below; --hamiltonian values are expressions.
        args = ["--hamiltonian", TWO_TERM, "--method", "zeno1", *flags]
        args = [hfile(a, f"h{i}.txt") if args[i - 1] == "--hamiltonian" else a for i, a in enumerate(args)]
        assert main(args) == code
        err = capsys.readouterr().err
        assert message in err and len(err.splitlines()) == 1

    def test_epsilon_whose_step_count_is_not_finite(self, hfile, capsys):
        # (lam t)^2 / epsilon = 1 / 1e-320 overflows: no count up to the cap meets the bound.
        assert main(["--hamiltonian", hfile(TWO_TERM), "--method", "zeno1", "--t", "1", "--epsilon", "1e-320"]) == 3
        message = "the step count zeno1 needs for epsilon 1e-320 exceeds the cap of 1000000"
        assert capsys.readouterr().err == f"zenosim: limit exceeded: {message}\n"

    @pytest.mark.parametrize("name,flags", [
        ("ceiling_6q32", ["--method", "kicks"]),
        ("ceiling_5q32", ["--method", "qdrift", "--mode", "channel"]),
    ])
    def test_epsilon_beyond_the_cap_for_its_own_bound(self, capsys, name, flags):
        # Before, both ran at zeno1's count (356113 and 405804) and exited 0 with bounds 7.0e-3 and 4.0e-3.
        assert main(["--hamiltonian", CEILING_FILES[name], *flags, "--t", "1", "--epsilon", "1e-3"]) == 3
        message = f"the step count {flags[1]} needs for epsilon 0.001 exceeds the cap of 1000000"
        assert capsys.readouterr().err == f"zenosim: limit exceeded: {message}\n"

    @pytest.mark.parametrize("flags,message", [
        (["--method", "trotter1"], "method 'trotter1' states no error bound, so epsilon cannot resolve its step count"),
        (["--compare", "zeno1,zeno2"], "compare runs every method at shared step counts: set n or sweep, not epsilon"),
    ])
    def test_epsilon_without_one_bound_to_invert(self, hfile, capsys, flags, message):
        assert main(["--hamiltonian", hfile(TWO_TERM), *flags, "--t", "1", "--epsilon", "1e-3"]) == 1
        assert capsys.readouterr().err == f"zenosim: {message}\n"

    @pytest.mark.parametrize("method", ["zeno1", "zeno2", "mub", "kicks", "trotter1", "qdrift"])
    def test_psi0_out_of_range_for_every_method(self, hfile, capsys, method):
        mode = "channel" if method == "qdrift" else "projected"
        args = ["--hamiltonian", hfile(TWO_TERM), "--method", method, "--mode", mode, "--t", "1", "--n", "10"]
        assert main(args + ["--psi0", "99"]) == 1
        err = capsys.readouterr().err
        assert "psi0 index 99 out of range" in err and len(err.splitlines()) == 1

    def test_unreadable_inputs(self, tmp_path, capsys):
        binary = tmp_path / "latin1.txt"
        binary.write_bytes("0.5*X # \xe9t\xe9\n".encode("latin-1"))
        (tmp_path / "loop").symlink_to(tmp_path / "loop")
        flags = ["--method", "zeno1", "--t", "1", "--n", "5"]
        for path, code, message in [
            (tmp_path, 1, "zenosim: is a directory, not a file: "),
            (binary, 2, f"zenosim: parse error: {binary}: not UTF-8 text (byte 8)\n"),
            (tmp_path / "missing.txt", 1, "zenosim: file not found: "),
            # Not a directory, a symlink loop and a name over 255 bytes: each OSError is one line.
            (Path(TWO_TERM_FILE) / "x", 1, "zenosim: cannot read "),
            (tmp_path / "loop", 1, "zenosim: cannot read "),
            (tmp_path / ("h" * 300), 1, "zenosim: cannot read "),
        ]:
            assert main(["--hamiltonian", str(path), *flags]) == code
            err = capsys.readouterr().err
            assert err.startswith(message) and len(err.splitlines()) == 1

    def test_hamiltonian_file_size_cap(self, tmp_path, capsys):
        flags = ["--method", "zeno1", "--t", "1", "--n", "5"]
        over = f"file exceeds the cap of {MAX_FILE_BYTES} bytes"
        head = TWO_TERM + "\n#"  # the expression, then one comment line padding the file to size
        for size, code, err in [(MAX_FILE_BYTES, 0, ""), (MAX_FILE_BYTES + 1, 3, "zenosim: limit exceeded: ")]:
            path = tmp_path / f"{size}.txt"
            path.write_bytes((head + "x" * (size - len(head) - 1) + "\n").encode("ascii"))
            assert path.stat().st_size == size
            assert main(["--hamiltonian", str(path), *flags]) == code
            assert capsys.readouterr().err == (err and f"{err}{path}: {over}\n")
        assert main(["--hamiltonian", "/dev/zero", *flags]) == 3
        assert capsys.readouterr().err == f"zenosim: limit exceeded: /dev/zero: {over}\n"

    def test_method_and_compare_together(self, hfile, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--hamiltonian", hfile(TWO_TERM), "--method", "zeno1", "--compare", "zeno1", "--t", "1", "--n", "5"])
        assert info.value.code == 1
        assert "not allowed with argument" in capsys.readouterr().err

    @pytest.mark.parametrize("error", ERROR_CLASSES, ids=lambda c: c.__name__)
    def test_error_class_exit_codes_match_readme(self, error):
        assert README_EXIT_CODES[error.__name__] == error.exit_code

    def test_sweep_point_cap(self, hfile, capsys):
        args = ["--hamiltonian", hfile(TWO_TERM), "--method", "zeno1", "--t", "1", "--sweep"]
        assert main([*args, ",".join(map(str, range(1, 66)))]) == 3
        err = capsys.readouterr().err
        assert err == "zenosim: limit exceeded: sweep of 65 step counts exceeds the cap of 64\n"
        assert main([*args, ",".join(map(str, range(1, 65))) + ",64"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 64

    def test_empty_compare_list(self, hfile, capsys):
        assert main(["--hamiltonian", hfile(TWO_TERM), "--compare", ",", "--t", "1", "--n", "5"]) == 1
        err = capsys.readouterr().err
        assert "compare needs at least one method" in err and len(err.splitlines()) == 1

    def test_overflowing_bound_is_inf_in_json(self, hfile, capsys):
        def reject(token):
            raise ValueError(f"{token} is not JSON")

        args = ["--hamiltonian", hfile("1e200*X + 1e200*Z"), "--t", "1", "--n", "10", "--format", "json"]
        assert main([*args, "--method", "zeno2"]) == 0
        payload = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert payload["points"][0]["epsilon_bound"] == "inf"
        assert main([*args, "--compare", "zeno1,zeno2"]) == 0
        payload = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert payload["methods"]["zeno2"]["points"][0]["epsilon_bound"] == "inf"

    def test_overflowing_zeno2_bound_is_inf(self, hfile, capsys):
        # lam * t is finite in both, so they run; only the bound overflows.
        for text, method in [("1e200*X + 1e200*Z", "zeno2"), ("1e300*X + 1e300*Z", "zeno1")]:
            code = main(["--hamiltonian", hfile(text), "--method", method, "--t", "1", "--n", "10"])
            assert code == 0
            row = dict(zip(CSV_COLUMNS, capsys.readouterr().out.splitlines()[1].split(",")))
            assert row["epsilon_bound"] == "inf" and row["p_succ_bound"] == "0"

    @pytest.mark.parametrize("more,bound", [
        (["--method", "zeno1"], 1.6e8 * 1.6e8 / 10),
        (["--method", "mub"], 1.6e8 * 1.6e8 / 10),
        (["--method", "kicks"], 0.2 * (2**-0.5 + 1.0) * 1.6e8 * (1.0 + 3.2e8)),
        (["--method", "qdrift", "--mode", "channel"], 4.0 * 1.6e8 * 1.6e8 / 10),
    ], ids=["zeno1", "mub", "kicks", "qdrift"])
    def test_bound_at_tiny_t_and_huge_lam(self, hfile, capsys, more, bound):
        # lam * t = 1.6e8 (and 2^n_a * h_max * t for mub), though t * t underflows and lam * lam overflows.
        code = main(["--hamiltonian", hfile("8e307*XX + 8e307*YY"), "--t", "1e-300", "--n", "10", *more])
        row = dict(zip(CSV_COLUMNS, capsys.readouterr().out.splitlines()[1].split(",")))
        assert code == 0 and row["bound_satisfied"] == "true"
        assert float(row["epsilon_bound"]) == pytest.approx(bound, rel=1e-11)

    @pytest.mark.parametrize("shots,steps,message", [
        ("1000000", ["--n", "1000000"], "1000000 shots exceed the cap of 100000"),
        ("1000000000", ["--n", "1"], "1000000000 shots exceed the cap of 100000"),
        ("100000", ["--n", "10001"], "100000 shots of 10001 steps exceed the cap of 1000000000"),
        ("2000", ["--sweep", "10,500001"], "2000 shots of 500001 steps exceed the cap of 1000000000"),
    ], ids=["shots-and-steps", "shots", "product", "product-sweep"])
    def test_sampled_work_caps(self, hfile, capsys, shots, steps, message):
        args = ["--hamiltonian", hfile(TWO_TERM), "--method", "zeno1", "--mode", "sampled", "--t", "1"]
        assert main([*args, "--shots", shots, *steps]) == 3
        err = capsys.readouterr().err
        assert message in err and len(err.splitlines()) == 1

    def test_non_finite_coefficient_is_parse_error(self, hfile, capsys):
        code = main(["--hamiltonian", hfile("1e400*X + 0.5*Z"), "--method", "zeno1", "--t", "1", "--n", "5"])
        assert code == 2
        assert "not finite" in capsys.readouterr().err

    def test_unwritable_output_path(self, hfile, tmp_path, capsys):
        code = main(
            [
                "--hamiltonian", hfile(TWO_TERM),
                "--method", "zeno1",
                "--t", "1",
                "--n", "5",
                "--out", str(tmp_path / "missing_dir" / "out.csv"),
            ]
        )
        assert code == 1
        assert "cannot write" in capsys.readouterr().err

    @pytest.mark.parametrize("routine,flags", [
        ("eigh", ["--method", "qdrift", "--mode", "channel"]),
        ("eigh", ["--method", "zeno1"]),
        ("svd", ["--method", "mub"]),
        ("eigh", ["--method", "kicks"]),
    ], ids=["qdrift-channel-eigh", "zeno1-projected-eigh", "mub-projected-svd", "kicks-projected-eigh"])
    def test_numerical_failure_is_one_line_exit_1(self, hfile, monkeypatch, capsys, routine, flags):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError(f"{routine} did not converge")

        monkeypatch.setattr(np.linalg, routine, fail)
        # An escaped exception (a traceback from the command line) fails the test here.
        code = main(["--hamiltonian", hfile(TWO_TERM), *flags, "--t", "1", "--n", "10"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("zenosim: numerical failure: ConvergenceError: ") and len(err.splitlines()) == 1

    def test_lanczos_failure_is_one_line_exit_1(self, hfile, monkeypatch, capsys):
        eigh = np.linalg.eigh

        def fail_on_first_tridiagonal(a, *args, **kwargs):
            if len(a) == 1:  # the exact propagator's H is 2 x 2; the Lanczos solve starts from a 1 x 1 matrix
                raise np.linalg.LinAlgError("eigh did not converge")
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", fail_on_first_tridiagonal)
        code = main(["--hamiltonian", hfile(TWO_TERM), "--method", "qdrift", "--mode", "channel",
                     "--t", "1", "--n", "10"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("zenosim: numerical failure: ConvergenceError: ") and len(err.splitlines()) == 1

    def test_channel_point_calls_no_eigvalsh(self, hfile, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("eigvalsh did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        code = main(["--hamiltonian", hfile(TWO_TERM), "--method", "qdrift", "--mode", "channel",
                     "--t", "1", "--n", "10"])
        assert code == 0
        assert capsys.readouterr().err == ""

    def test_bound_violation_exit_code(self, hfile, monkeypatch, capsys):
        # The physics paths never violate their bounds, so exercise the exit
        # path with a fabricated violating sweep.
        bad_point = ZenoRunResult(
            method="zeno1",
            N=10,
            delta_t=0.1,
            epsilon_measured=0.5,
            epsilon_bound=0.1,
            p_succ_exact=1.0,
            p_succ_bound=0.8,
        )
        fake = SweepResult(points=(bad_point,))
        monkeypatch.setattr("zenosim.cli.run_experiment", lambda cfg: fake)
        code = main(["--hamiltonian", hfile(TWO_TERM), "--method", "zeno1", "--t", "1", "--n", "10"])
        assert code == 4


@st.composite
def cli_runs(draw):
    """A Hamiltonian text and command-line flags: every method and mode, or --compare, at up to 6 qubits.

    Coefficients run from 5e-324 to 1e308 over up to 32 terms (repeated words
    merge); t from 0 to 1e10, 1e-300 included. The step counts come from
    --n, --sweep or --epsilon, and --psi0 may be outside the register.
    """
    if draw(st.booleans()):
        methods = draw(st.lists(st.sampled_from(list(METHODS)), min_size=1, max_size=3, unique=True))
        flags = ["--compare", ",".join(methods)]
        sampled = False
    else:
        methods = [draw(st.sampled_from(list(METHODS)))]
        mode = draw(st.sampled_from(METHODS[methods[0]][0]))
        flags = ["--method", methods[0], "--mode", mode]
        sampled = mode == "sampled"
        if sampled:
            flags += ["--shots", str(draw(st.integers(1, 20))), "--seed", str(draw(st.integers(0, 2**32)))]
    # Every method draws 5 qubits too: a 5-qubit channel point takes 0.2-0.3 s at N <= 50 on 2 cores, most
    # of it the transfer-matrix power and the Choi basis change. 6 qubits exit 3 before any channel work.
    num_qubits = draw(st.integers(1, 6))
    coefficients = st.one_of(st.sampled_from([5e-324, 1e-300, 1e-15, 1e-3, 1.0, 1e300, 1e308]),
                             st.floats(5e-324, 1e308))
    terms = draw(st.lists(st.tuples(
        st.sampled_from(["+", "-"]), coefficients, st.text("IXYZ", min_size=num_qubits, max_size=num_qubits)
    ), min_size=1, max_size=32))
    text = " ".join(f"{sign} {coefficient!r}*{word}" for sign, coefficient, word in terms)
    selectors = [
        st.integers(1, 50).map(lambda n: ["--n", str(n)]),
        st.lists(st.integers(1, 50), min_size=1, max_size=3).map(lambda ns: ["--sweep", ",".join(map(str, ns))]),
    ]
    # Sampled shots take N steps one by one; every other run takes a matrix power or the kicks'
    # closed form, so all but sampled runs resolve --epsilon (up to the 10**6 step cap).
    if not sampled:
        selectors.append(st.sampled_from(["1e-6", "1e-2", "1", "1e3"]).map(lambda e: ["--epsilon", e]))
    flags += ["--t", draw(st.sampled_from(["0", "1e-300", "1e-3", "1", "1e10"])), *draw(st.one_of(selectors))]
    if draw(st.booleans()):
        flags += ["--psi0", str(draw(st.integers(0, 2**num_qubits)))]
    return text, flags


class TestCliProperty:
    """Every in-spec input ends in a documented exit code with at most a one-line message."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(run=cli_runs())
    @example(run=(CEILING_5Q32, ["--method", "qdrift", "--mode", "channel", "--t", "1", "--sweep", "10,1000000"]))
    @example(run=(CEILING_5Q32, ["--compare", "zeno1,qdrift", "--t", "1e-3", "--n", "7", "--psi0", "31"]))
    def test_exit_code_and_one_line_message(self, tmp_path_factory, run):
        text, flags = run
        path = tmp_path_factory.mktemp("property") / "h.txt"
        path.write_text(text + "\n", encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        # An escaped exception (a traceback from the command line) fails the test here.
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["--hamiltonian", str(path), *flags])
        assert code in range(5)
        assert len(err.getvalue().splitlines()) <= 1
        if code in (0, 4):
            # Every stated bound is a positive power of lam * t (or of 2^n_a * h_max * t >= lam * t) over N <= 10**6.
            angle = parse_hamiltonian(text).lam * float(flags[flags.index("--t") + 1])
            for line in out.getvalue().splitlines()[1:]:
                row = dict(zip(CSV_COLUMNS, line.split(",")))
                assert not (angle >= 1 and row["epsilon_bound"] == "0"), row


class TestCliBehavior:
    def test_epsilon_selects_n(self, hfile, tmp_path):
        out = tmp_path / "run.json"
        code = main(
            [
                "--hamiltonian", hfile(TWO_TERM),
                "--method", "zeno1",
                "--t", "1",
                "--epsilon", "0.01",
                "--format", "json",
                "--out", str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["points"][0]["N"] == 100
        assert payload["points"][0]["epsilon_measured"] <= 0.01
        assert payload["points"][0]["p_succ_exact"] >= 0.98
        assert payload["config"]["epsilon"] == 0.01

    @pytest.mark.parametrize("method,n", [("zeno1", 1000), ("zeno2", 19), ("mub", 1440)])
    def test_epsilon_reads_each_method_bound(self, capsys, method, n):
        # Each method runs at the least N whose own bound meets epsilon. Before, every method ran at zeno1's
        # N = 1000, where mub's bound read 1.44e-3 and zeno2 needed 53 times fewer steps.
        assert main(["--hamiltonian", TWO_TERM_FILE, "--method", method, "--t", "1", "--epsilon", "1e-3"]) == 0
        row = dict(zip(CSV_COLUMNS, capsys.readouterr().out.splitlines()[1].split(",")))
        assert int(row["N"]) == n and float(row["epsilon_bound"]) <= 1e-3

    def test_output_files_byte_identical(self, hfile, tmp_path):
        args = [
            "--hamiltonian", hfile(TWO_TERM),
            "--method", "zeno1",
            "--t", "1",
            "--n", "10",
            "--mode", "sampled",
            "--shots", "100",
            "--seed", "3",
        ]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("output_format", ["csv", "json"])
    def test_negative_zero_time_runs_as_zero(self, hfile, capsys, output_format):
        outputs = []
        for t in ("-0", "0"):
            args = ["--hamiltonian", hfile(TWO_TERM), "--method", "zeno1", "--t", t, "--n", "10"]
            assert main(args + ["--format", output_format]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        # The values, not the whole text: the JSON also holds the Hamiltonian path, which may contain "-0".
        if output_format == "json":
            payload = json.loads(outputs[0])
            times = [payload["config"]["t"], payload["points"][0]["delta_t"]]
        else:
            header, row = outputs[0].splitlines()
            times = [dict(zip(header.split(","), row.split(",")))["delta_t"]]
        assert all(str(x) in ("0", "0.0") for x in times)

    def test_sweep_flag(self, hfile, capsys):
        code = main(
            [
                "--hamiltonian", hfile(TWO_TERM),
                "--method", "kicks",
                "--t", "1",
                "--sweep", "10,20,40",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4

    def test_compare_flag(self, hfile, tmp_path, capsys):
        out = tmp_path / "cmp.json"
        code = main(
            [
                "--hamiltonian", hfile(TWO_TERM),
                "--compare", "zeno1,zeno2,qdrift",
                "--t", "1",
                "--sweep", "10,40",
                "--format", "json",
                "--out", str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert set(payload["methods"]) == {"zeno1", "zeno2", "qdrift"}
        table = capsys.readouterr().out
        assert "zeno2_error" in table

    def test_module_entry_point(self, hfile, capsys):
        # The child runs through zenosim.__main__.run (frozen heap, stdout flushed in the entry); its stdout must be
        # the bytes in-process main prints.
        base = ["--hamiltonian", hfile(TWO_TERM), "--method", "zeno1", "--t", "1", "--n", "10"]
        outputs = []
        for args in (base, [*base, "--mode", "sampled", "--shots", "50", "--seed", "3", "--format", "json"]):
            proc = subprocess.run([sys.executable, "-m", "zenosim", *args], capture_output=True)
            assert proc.returncode == main(args) == 0
            assert proc.stdout == capsys.readouterr().out.encode("utf-8")
            outputs.append(proc.stdout)
        assert outputs[0].startswith(b"method,N,delta_t") and outputs[1].startswith(b"{")

    def test_run_freezes_once_before_main(self, monkeypatch):
        calls = []
        monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
        monkeypatch.setattr(entry, "main", lambda argv: calls.append(("main", argv)) or 4)
        assert entry.run(["--help"]) == 4
        assert calls == ["freeze", ("main", ["--help"])]

    def test_main_never_freezes(self, hfile, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
        assert main(["--hamiltonian", hfile(TWO_TERM), "--method", "zeno1", "--t", "1", "--n", "10"]) == 0
        assert calls == []

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    @pytest.mark.parametrize("run_help", [False, True], ids=["json", "help"])
    def test_closed_stdout_exits_usage(self, hfile, unbuffered, run_help):
        # The read end is closed before the child starts, so its first write to stdout meets a broken pipe: at the
        # write when stdout is unbuffered, else at the flush in zenosim.__main__.run (without that flush, Python
        # reports it at shutdown as "Exception ignored ... BrokenPipeError" and exits 120). An empty
        # PYTHONUNBUFFERED leaves stdout buffered. --help leaves main through SystemExit after its write, so the
        # flush must run on that path too.
        args = ["--help"] if run_help else [
            "--hamiltonian", hfile(TWO_TERM), "--method", "zeno1", "--t", "1", "--n", "10", "--format", "json"]
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "zenosim", *args],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("zenosim: cannot write output: ")


class TestSlopeFit:
    def test_needs_four_points(self):
        assert fit_loglog_slope([10, 20, 30], [0.1, 0.05, 0.033]) is None

    def test_floor_exclusion(self):
        ns = [10, 20, 40, 80, 160]
        eps = [1e-1, 5e-2, 2.5e-2, 1e-13, 1e-14]
        # Only three usable points remain, so no slope is reported.
        assert fit_loglog_slope(ns, eps) is None

    def test_exact_power_law(self):
        ns = [10, 20, 40, 80]
        eps = [1.0 / n for n in ns]
        assert fit_loglog_slope(ns, eps) == pytest.approx(-1.0, abs=1e-12)

    def test_needs_four_distinct_step_counts(self):
        # Before, one repeated N read -0.238 with numpy's RankWarning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fit_loglog_slope([10, 10, 10, 10], [1.0, 0.5, 0.25, 0.1]) is None

    def test_unequal_lengths_rejected(self):
        # Before, zip dropped the unpaired entries: the first call read None and the second fitted 4 points.
        with pytest.raises(ValueError):
            fit_loglog_slope([1, 2, 3, 4, 5], [1, 2])
        with pytest.raises(ValueError):
            fit_loglog_slope([10, 20, 40, 80, 160], [1.0, 0.5, 0.25, 0.125])

    def test_infinite_reading_is_left_out(self):
        # A ZenoRunResult keeps an inf reading; before, it made the slope nan.
        assert fit_loglog_slope([10, 20, 40, 80, 160], [math.inf, 1.0, 0.5, 0.25, 0.125]) == pytest.approx(-1.0)
