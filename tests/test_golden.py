"""Golden outputs: fixed CLI configs must reproduce the checked-in bytes.

Each config runs through ``zenosim.cli.main`` from the repository root (the
JSON output records the Hamiltonian path as given) and its stdout is
compared with ``tests/golden/<name>``. After an intended output change,
rewrite the files with ``PYTHONPATH=src python tests/test_golden.py`` and
review the diff.
"""

import contextlib
import csv
import io
import json
import os
import sys
from decimal import Decimal
from pathlib import Path

import pytest
from zeno_references import REFERENCES

from zenosim.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
SWEEP = "10,20,40,80,160,1000"


def golden_configs():
    """(output file name, CLI arguments) for every golden config."""
    configs = []
    for name in ("two_term", "three_term", "tfim_three_qubit"):
        base = ["--hamiltonian", f"demos/hamiltonians/{name}.txt", "--t", "1"]
        for method in ("zeno1", "zeno2", "mub", "kicks", "trotter1"):
            args = ["--method", method, "--sweep", SWEEP, "--format", "json"]
            configs.append((f"{name}-{method}.json", base + args))
        for method in ("zeno1", "zeno2", "mub"):
            args = base + ["--method", method, "--mode", "sampled", "--shots", "300", "--sweep", "20,100"]
            stem = f"{name}-{method}-sampled"
            configs.append((f"{stem}-seed7.csv", args + ["--seed", "7"]))
            configs.append((f"{stem}-seed2024-psi1.csv", args + ["--seed", "2024", "--psi0", "1"]))
        args = ["--method", "qdrift", "--mode", "channel", "--sweep", "10,100", "--format", "json"]
        configs.append((f"{name}-qdrift.json", base + args))
    configs.append((
        "two_term-compare.csv",
        ["--hamiltonian", "demos/hamiltonians/two_term.txt", "--t", "1", "--sweep", "10,100",
         "--compare", "zeno1,zeno2,mub,kicks,trotter1,qdrift"],
    ))
    return configs


def run_config(args) -> tuple[int, str]:
    """Exit code and stdout of one CLI run from the repository root."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(args)
    finally:
        os.chdir(cwd)
    return code, out.getvalue()


@pytest.mark.parametrize("name,args", golden_configs(), ids=[name for name, _ in golden_configs()])
def test_golden_output(name, args):
    code, out = run_config(args)
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / name).read_bytes()


def golden_files(*methods):
    return [name for name, args in golden_configs() if {*methods, "--compare"} & set(args)]


def golden_rows(name):
    """The printed points of golden file ``name``, JSON or CSV."""
    text = (GOLDEN / name).read_text(encoding="utf-8")
    return json.loads(text)["points"] if name.endswith(".json") else list(csv.DictReader(io.StringIO(text)))


def printed(value):
    """A reference of tests/zeno_references.json rounded to the 12 significant digits the CLI prints."""
    return float(format(Decimal(value), ".12g"))


@pytest.mark.parametrize("name", golden_files("zeno1", "zeno2"))
def test_zeno_digits(name):
    # Every printed zeno1/zeno2 error and success probability is its 40-digit per-eigenvalue reference
    # (tests/zeno_references.py), rounded to the 12 significant digits the CLI prints.
    references = json.loads(REFERENCES.read_text(encoding="utf-8"))
    instance, psi_index = name.split("-")[0], 1 if "psi1" in name else 0
    checked = 0
    for row in golden_rows(name):
        if row["method"] in ("zeno1", "zeno2"):
            reference = references[f"{instance} {row['method']} {row['N']}"]
            for column, value in (("epsilon_measured", reference["epsilon"]), ("p_succ_exact", reference["p_succ"][psi_index])):
                assert float(row[column]) == printed(value), (row["N"], column)
                checked += 1
    assert checked >= 4


@pytest.mark.parametrize("name", golden_files("kicks"))
def test_kicks_digits(name):
    # Every printed kicks error is its per-plane reference (tests/zeno_references.py) at 12 digits.
    references = json.loads(REFERENCES.read_text(encoding="utf-8"))
    instance = name.split("-")[0]
    rows = [row for row in golden_rows(name) if row["method"] == "kicks"]
    for row in rows:
        assert float(row["epsilon_measured"]) == printed(references[f"{instance} kicks {row['N']}"]["epsilon"]), row["N"]
    assert len(rows) >= 2


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, args in golden_configs():
        code, out = run_config(args)
        if code != 0:
            sys.exit(f"{name}: exit code {code}")
        (GOLDEN / name).write_bytes(out.encode("utf-8"))
