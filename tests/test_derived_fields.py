"""No record takes a value its own fields determine.

``PauliHamiltonian(terms)``, ``ChannelRep(superoperator)``, ``SweepResult(points, resolved_config)`` and
``MethodComparison(results)`` are the whole constructors: the qubit count, the channel dimension, a sweep's slope and
verdict and a comparison's step counts and notes are derived, and passing one is a TypeError. On every golden config
and both ceiling files each derived value equals what the callers used to compute and pass in.
"""

import inspect
import json

import numpy as np
import pytest
from ceiling import FILES as CEILING_FILES
from conftest import ceiling_hamiltonian
from test_golden import GOLDEN, ROOT, golden_configs, run_config

from zenosim import (
    ChannelRep,
    MethodComparison,
    PauliHamiltonian,
    PauliTerm,
    SweepResult,
    exact_evolution,
    fit_loglog_slope,
    load_hamiltonian,
    qdrift_channel,
    unitary_channel,
)
from zenosim import cli

# The note compare_methods attached whenever qdrift ran.
QDRIFT_NOTE = ("qdrift error is a channel-level diamond-distance lower bound; "
               "it is not directly comparable to the gate errors of the unitary methods")


@pytest.mark.parametrize("record,arguments", [
    (PauliHamiltonian, ["terms"]),
    (ChannelRep, ["superoperator"]),
    (SweepResult, ["points", "resolved_config"]),
    (MethodComparison, ["results"]),
])
def test_constructor_takes_only_what_is_not_derived(record, arguments):
    assert list(inspect.signature(record).parameters) == arguments


@pytest.mark.parametrize("build", [
    lambda: PauliHamiltonian(num_qubits=1, terms=(PauliTerm(0.5, 1, "X"),)),
    lambda: ChannelRep(dim=2, superoperator=np.eye(4)),
    lambda: SweepResult(points=(), fitted_slope=None),
    lambda: SweepResult(points=(), all_bounds_satisfied=True),
    lambda: MethodComparison(results={}, ns=()),
    lambda: MethodComparison(results={}, notes=()),
], ids=["num_qubits", "dim", "fitted_slope", "all_bounds_satisfied", "ns", "notes"])
def test_passing_a_derived_value_is_a_type_error(build):
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        build()


def assert_sweep_derived(sweep):
    """The slope and verdict ``experiments._sweep`` computed from the points before they were derived."""
    slope = fit_loglog_slope([p.N for p in sweep.points], [p.epsilon_measured for p in sweep.points])
    assert sweep.fitted_slope == slope
    assert sweep.all_bounds_satisfied is all(p.bound_satisfied for p in sweep.points)


def assert_hamiltonian_derived(h):
    """``parse_hamiltonian`` passed the length of the first word, which every word shares."""
    assert {len(term.axes) for term in h.terms} == {h.num_qubits}


def assert_channel_derived(h, t, n):
    """``qdrift_channel`` passed 2^n, and ``unitary_channel`` the side of its unitary."""
    d = 2**h.num_qubits
    assert qdrift_channel(h, t, n).dim == d
    assert unitary_channel(exact_evolution(h, t)).dim == d


def recorded_runs(monkeypatch):
    """The list of the records ``cli.main`` gets from ``run_experiment`` and ``compare_methods``, as it runs."""
    made = []
    for runner in ("run_experiment", "compare_methods"):
        real = getattr(cli, runner)
        monkeypatch.setattr(cli, runner, lambda *args, real=real: made.append(real(*args)) or made[-1])
    return made


def assert_printed(printed, sweep, num_qubits):
    """A JSON run prints the derived slope (at 12 digits), verdict and qubit count."""
    slope = sweep.fitted_slope
    assert printed["fitted_slope"] == (None if slope is None else float(f"{slope:.12g}"))
    assert printed["all_bounds_satisfied"] is sweep.all_bounds_satisfied
    assert printed["config"]["num_qubits"] == num_qubits


@pytest.mark.parametrize("name,args", golden_configs(), ids=[name for name, _ in golden_configs()])
def test_golden_config_derives_the_parent_values(name, args, monkeypatch):
    made = recorded_runs(monkeypatch)
    code, out = run_config(args)
    assert code == 0 and out.encode("utf-8") == (GOLDEN / name).read_bytes()
    (result,) = made
    if isinstance(result, MethodComparison):
        sweeps = list(result.results.values())
        assert result.ns == tuple(p.N for p in sweeps[0].points)
        assert result.notes == ((QDRIFT_NOTE,) if "qdrift" in result.results else ())
    else:
        sweeps = [result]
    for sweep in sweeps:
        assert_sweep_derived(sweep)
    h = load_hamiltonian(ROOT / args[args.index("--hamiltonian") + 1])
    assert_hamiltonian_derived(h)
    if name.endswith(".json"):
        assert_printed(json.loads(out), result, h.num_qubits)
    if "qdrift" in args or "--compare" in args:
        assert_channel_derived(h, 1.0, 10)


@pytest.mark.parametrize("instance,method,mode,qubits", [
    ("ceiling_6q32", "zeno1", "projected", 6),
    ("ceiling_5q32", "qdrift", "channel", 5),
])
def test_ceiling_file_derives_the_parent_values(instance, method, mode, qubits, tmp_path, monkeypatch):
    h = ceiling_hamiltonian(instance)
    assert h.num_qubits == qubits
    assert_hamiltonian_derived(h)
    if mode == "channel":
        assert_channel_derived(h, 1.0, 10)
    made = recorded_runs(monkeypatch)
    out = tmp_path / "out.json"
    args = ["--hamiltonian", CEILING_FILES[instance], "--method", method, "--mode", mode, "--t", "1",
            "--sweep", "10,20,40,80", "--format", "json", "--out", str(out)]
    assert cli.main(args) == 0
    (sweep,) = made
    assert_sweep_derived(sweep)
    assert sweep.fitted_slope is not None and sweep.all_bounds_satisfied
    assert_printed(json.loads(out.read_text(encoding="utf-8")), sweep, qubits)
