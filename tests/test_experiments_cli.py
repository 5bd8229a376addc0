"""Experiment harness, output formats, exit codes, and the CLI."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import random_hamiltonian

from zenosim import (
    ConfigError,
    ExperimentConfig,
    SweepResult,
    ZenoRunResult,
    compare_methods,
    emit_results,
    fit_loglog_slope,
    run_experiment,
    to_text,
)
from zenosim.cli import _build_parser, main
from zenosim.experiments import CSV_COLUMNS, METHODS, MODES, render_csv, render_json

TWO_TERM = "0.6*X + 0.4*Z"
TWO_TERM_FILE = str(Path(__file__).resolve().parent.parent / "demos" / "hamiltonians" / "two_term.txt")


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

    def test_env_var_lowers_cap(self, hfile, monkeypatch):
        from zenosim import LimitExceededError

        monkeypatch.setenv("ZENOSIM_MAX_QUBITS", "1")
        with pytest.raises(LimitExceededError, match="cap is 1"):
            run_experiment(config(hfile, text="0.5*XX + 0.5*ZZ"))

    def test_env_var_cannot_raise_cap(self, hfile, monkeypatch):
        from zenosim import LimitExceededError

        monkeypatch.setenv("ZENOSIM_MAX_QUBITS", "99")
        with pytest.raises(LimitExceededError, match="cap is 6"):
            run_experiment(config(hfile, text="0.5*" + "X" * 7))


class TestEmitResults:
    def test_header_only_for_empty_sweep(self, tmp_path):
        empty = SweepResult(points=(), fitted_slope=None, all_bounds_satisfied=True)
        path = tmp_path / "empty.csv"
        emit_results(empty, "csv", path)
        assert path.read_text() == ",".join(CSV_COLUMNS) + "\n"

    def test_single_point_single_row(self, hfile, tmp_path):
        result = run_experiment(config(hfile))
        path = tmp_path / "one.csv"
        emit_results(result, "csv", path)
        lines = path.read_text().splitlines()
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

    def test_six_point_sweep_csv_and_json(self, hfile, tmp_path):
        result = run_experiment(config(hfile, n=None, sweep=(10, 20, 40, 80, 160, 320)))
        csv_path = tmp_path / "sweep.csv"
        emit_results(result, "csv", csv_path)
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 7  # header + six rows
        assert "fitted_slope" not in lines[0]

        json_path = tmp_path / "sweep.json"
        emit_results(result, "json", json_path)
        payload = json.loads(json_path.read_text())
        assert payload["fitted_slope"] == pytest.approx(result.fitted_slope, rel=1e-9)
        assert len(payload["points"]) == 6
        assert payload["all_bounds_satisfied"] is True
        assert payload["config"]["n_values"] == [10, 20, 40, 80, 160, 320]

    def test_json_mirrors_csv_fields(self, hfile, tmp_path):
        result = run_experiment(config(hfile))
        payload = json.loads(render_json(result))
        assert set(payload["points"][0]) == set(CSV_COLUMNS)

    def test_byte_identical_reruns(self, hfile, tmp_path):
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
        cfg = config(hfile, n=None, sweep=(10, 20))
        comparison = compare_methods(cfg, ["zeno1", "qdrift"])
        text = comparison.render()
        assert "zeno1_error" in text and "qdrift_error" in text
        assert "note:" in text

    def test_duplicate_methods_rejected(self, hfile):
        with pytest.raises(ConfigError, match="distinct"):
            compare_methods(config(hfile), ["zeno1", "zeno1"])


class TestCeiling:
    """The advertised size ceiling: 6 qubits and 32 terms, 5 qubits in channel mode."""

    @pytest.fixture(scope="class")
    def ceiling_file(self, tmp_path_factory):
        def write(num_qubits):
            h = random_hamiltonian(np.random.default_rng(0), 32, num_qubits)
            path = tmp_path_factory.mktemp("ceiling") / f"{num_qubits}q32.txt"
            path.write_text(to_text(h) + "\n", encoding="utf-8")
            return str(path)

        return write

    @staticmethod
    def check(result, ns):
        assert [p.N for p in result.points] == list(ns)
        assert result.all_bounds_satisfied
        for p in result.points:
            assert np.isfinite(p.epsilon_measured) and 0.0 <= p.p_succ_exact <= 1.0

    @pytest.mark.parametrize("method", ["zeno1", "zeno2", "mub", "kicks", "trotter1"])
    def test_projected(self, ceiling_file, method):
        cfg = ExperimentConfig(hamiltonian_path=ceiling_file(6), method=method, t=1.0, sweep=(10, 100))
        self.check(run_experiment(cfg), (10, 100))

    @pytest.mark.parametrize("method", ["zeno1", "zeno2", "mub"])
    def test_sampled(self, ceiling_file, method):
        cfg = ExperimentConfig(
            hamiltonian_path=ceiling_file(6), method=method, t=1.0, sweep=(10, 100),
            mode="sampled", shots=50, seed=3,
        )
        self.check(run_experiment(cfg), (10, 100))

    def test_qdrift_channel(self, ceiling_file):
        cfg = ExperimentConfig(
            hamiltonian_path=ceiling_file(5), method="qdrift", t=1.0, n=10, mode="channel"
        )
        self.check(run_experiment(cfg), (10,))


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
    ])
    def test_non_finite_and_extreme_inputs(self, hfile, capsys, flags, code, message):
        assert main(["--hamiltonian", hfile(TWO_TERM), "--method", "zeno1", *flags]) == code
        err = capsys.readouterr().err
        assert message in err and len(err.splitlines()) == 1

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
        flags = ["--method", "zeno1", "--t", "1", "--n", "5"]
        for path, code, message in [
            (tmp_path, 1, "is a directory"),
            (binary, 2, "not UTF-8"),
        ]:
            assert main(["--hamiltonian", str(path), *flags]) == code
            err = capsys.readouterr().err
            assert message in err and len(err.splitlines()) == 1

    def test_empty_compare_list(self, hfile, capsys):
        assert main(["--hamiltonian", hfile(TWO_TERM), "--compare", ",", "--t", "1", "--n", "5"]) == 1
        err = capsys.readouterr().err
        assert "compare needs at least one method" in err and len(err.splitlines()) == 1

    def test_overflowing_zeno2_bound_is_inf(self, hfile, capsys):
        code = main(["--hamiltonian", hfile("1e200*X + 1e200*Z"), "--method", "zeno2", "--t", "1", "--n", "10"])
        assert code == 0
        row = dict(zip(CSV_COLUMNS, capsys.readouterr().out.splitlines()[1].split(",")))
        assert row["epsilon_bound"] == "inf" and row["p_succ_bound"] == "0"

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
        fake = SweepResult(points=(bad_point,), fitted_slope=None, all_bounds_satisfied=False)
        monkeypatch.setattr("zenosim.cli.run_experiment", lambda cfg: fake)
        code = main(["--hamiltonian", hfile(TWO_TERM), "--method", "zeno1", "--t", "1", "--n", "10"])
        assert code == 4


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

    def test_module_entry_point(self, hfile):
        proc = subprocess.run(
            [
                sys.executable, "-m", "zenosim",
                "--hamiltonian", hfile(TWO_TERM),
                "--method", "zeno1",
                "--t", "1",
                "--n", "10",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("method,N,delta_t")


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
