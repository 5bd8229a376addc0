"""Experiment harness: configs, sweeps, slope fits, and output rendering.

A config names a Hamiltonian file, a method, an evolution time, and exactly
one way to choose step counts: a fixed ``n``, a target ``epsilon`` (the least
N whose method's error bound meets it), or an explicit ``sweep`` list. Runs
are deterministic: the same config (seed included) produces byte-identical
output files.

CSV columns are derived from ``ZenoRunResult``: ``CSV_COLUMNS`` are its
column fields in declaration order. Floats are printed with 12 significant
digits, a non-finite one as ``inf`` (a string in JSON); absent values are
empty cells (CSV) or null (JSON). JSON output mirrors the same per-point
fields and adds the resolved config and the fitted log-log slope.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial

import numpy as np

from . import bounds
from .bounds import ZenoRunResult
from .channels import qdrift_point, trotter_point
from .errors import ConfigError, LimitExceededError
from .hamiltonian import PauliHamiltonian, load_hamiltonian, path_text
from .zeno import VARIANT_MUB, VARIANT_STANDARD, build_extended, run_kicks, run_sampled, run_zeno

FORMATS = ("json", "csv")  # --format's choices

MAX_QUBITS = 6
MAX_TERMS = 32
MAX_STEPS = 10**6  # largest step count from --n, --sweep or --epsilon
MAX_SWEEP_POINTS = 64  # most distinct step counts in one --sweep
MAX_SHOTS = 10**5  # largest --shots in sampled mode
MAX_SHOT_STEPS = 10**9  # largest shots times the sum of the step counts in sampled mode (one uniform draw each)

SLOPE_FLOOR = 1e-12
SLOPE_MIN_POINTS = 4

QDRIFT_NOTE = ("qdrift error is a channel-level diamond-distance lower bound; "
               "it is not directly comparable to the gate errors of the unitary methods")


@dataclass(frozen=True)
class ExperimentConfig:
    hamiltonian_path: str
    method: str
    t: float
    n: int | None = None
    epsilon: float | None = None
    sweep: tuple[int, ...] | None = None
    mode: str | None = None  # the first mode of the method's METHODS row when None
    shots: int | None = None
    seed: int = 0
    psi0: int | None = None  # initial target state as a basis-state index; |0..0> when None
    output_format: str = "csv"
    output_path: str | None = None


@dataclass(frozen=True)
class SweepResult:
    """Run results for every step count; the fitted convergence slope and the verdict are derived from the points."""

    points: tuple[ZenoRunResult, ...]
    fitted_slope: float | None = field(init=False)
    all_bounds_satisfied: bool = field(init=False)
    resolved_config: dict = field(default_factory=dict)

    def __post_init__(self):
        slope = fit_loglog_slope([p.N for p in self.points], [p.epsilon_measured for p in self.points])
        object.__setattr__(self, "fitted_slope", slope)
        object.__setattr__(self, "all_bounds_satisfied", all(p.bound_satisfied for p in self.points))


@dataclass(frozen=True)
class MethodComparison:
    """Side-by-side error metrics for several methods on one instance; the step counts (the first method's) and the
    notes are derived from the results."""

    ns: tuple[int, ...] = field(init=False)
    results: dict[str, SweepResult]
    notes: tuple[str, ...] = field(init=False)

    def __post_init__(self):
        sweeps = list(self.results.values())
        object.__setattr__(self, "ns", tuple(p.N for p in sweeps[0].points) if sweeps else ())
        object.__setattr__(self, "notes", (QDRIFT_NOTE,) if "qdrift" in self.results else ())

    def render(self) -> str:
        """A table of N and each method's error and bound, every column as wide as its widest cell, then the notes."""
        columns = {"N": [str(n) for n in self.ns]}
        for m, sweep in self.results.items():
            columns[f"{m}_error"] = [_fmt(p.epsilon_measured) for p in sweep.points]
            columns[f"{m}_bound"] = ["-" if p.epsilon_bound is None else _fmt(p.epsilon_bound) for p in sweep.points]
        widths = [max(map(len, [name, *cells])) for name, cells in columns.items()]
        rows = [" ".join(map(str.rjust, row, widths)) for row in [list(columns), *zip(*columns.values())]]
        return "\n".join(rows + [f"note: {n}" for n in self.notes])


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _validate_config(config: ExperimentConfig) -> ExperimentConfig:
    """The checked config: the path as a str, the mode resolved (the first of its method's row when None), t (-0 as 0)
    and epsilon as floats, shots, seed and psi0 as ints, so the JSON serialises, and the sweep read once as a tuple."""
    if not isinstance(config.method, str) or config.method not in METHODS:
        raise ConfigError(f"unknown method {config.method!r}; choose from {tuple(METHODS)}")
    modes = METHODS[config.method][0]
    mode = modes[0] if config.mode is None else config.mode
    if mode not in modes:
        raise ConfigError(f"method {config.method!r} runs in mode {' or '.join(modes)}, not {mode!r}")
    chosen = [x is not None for x in (config.n, config.epsilon, config.sweep)]
    if sum(chosen) != 1:
        raise ConfigError("exactly one of n, epsilon, or sweep must be set")
    if not (bounds.is_real(config.t) and config.t >= 0):
        raise ConfigError(f"t must be finite and nonnegative, got {config.t}")
    if config.epsilon is not None and not (bounds.is_real(config.epsilon) and config.epsilon > 0):
        raise ConfigError(f"epsilon must be finite and positive, got {config.epsilon}")
    if config.shots is not None and not bounds.is_count(config.shots, 1):
        raise ConfigError(f"shots must be >= 1 and an integer, got {config.shots!r}")
    if mode == "sampled" and config.shots is None:
        raise ConfigError("sampled mode requires shots >= 1")
    if config.psi0 is not None and not bounds.is_count(config.psi0, 0):
        raise ConfigError(f"psi0 must be a basis-state index, got {config.psi0!r}")
    if not bounds.is_count(config.seed, 0):
        raise ConfigError(f"seed must be >= 0 and an integer, got {config.seed!r}")
    if config.output_format not in FORMATS:
        raise ConfigError(f"unknown output format {config.output_format!r}")
    counts = {k: int(v) for k in ("shots", "seed", "psi0") if (v := getattr(config, k)) is not None}
    try:
        sweep = None if config.sweep is None else tuple(config.sweep)
    except TypeError:  # no iterable: read as empty, which _resolve rejects
        sweep = ()
    return replace(config, hamiltonian_path=path_text(config.hamiltonian_path), mode=mode, t=abs(float(config.t)),
                   epsilon=config.epsilon and float(config.epsilon), sweep=sweep, **counts)


def _resolve(config: ExperimentConfig, h: PauliHamiltonian) -> tuple[list[int], np.ndarray | None]:
    """Check ``h``'s size limits and resolve the config's step counts and initial state; each run checks its angle."""
    if h.num_qubits > MAX_QUBITS:
        raise LimitExceededError(f"Hamiltonian acts on {h.num_qubits} qubits, cap is {MAX_QUBITS}")
    if h.num_terms > MAX_TERMS:
        raise LimitExceededError(f"Hamiltonian has {h.num_terms} terms, cap is {MAX_TERMS}")
    if config.sweep is not None:
        if not config.sweep or not all(bounds.is_count(n, 1) for n in config.sweep):
            raise ConfigError("sweep values must be positive integers")
        ns = sorted(set(map(int, config.sweep)))
        if len(ns) > MAX_SWEEP_POINTS:
            raise LimitExceededError(f"sweep of {len(ns)} step counts exceeds the cap of {MAX_SWEEP_POINTS}")
    elif config.n is not None:
        if not bounds.is_count(config.n, 1):
            raise ConfigError(f"n must be >= 1 and an integer, got {config.n!r}")
        ns = [int(config.n)]
    else:
        ns = [bounds.steps_for_precision(config.method, h, config.t, config.epsilon, MAX_STEPS)]
    if ns[-1] > MAX_STEPS:
        raise LimitExceededError(f"step count {ns[-1]} exceeds the cap of {MAX_STEPS}")
    if config.mode == "sampled" and config.shots > MAX_SHOTS:
        raise LimitExceededError(f"{config.shots} shots exceed the cap of {MAX_SHOTS}")
    if config.mode == "sampled" and config.shots * sum(ns) > MAX_SHOT_STEPS:
        steps = f"{sum(ns)} steps in total" if len(ns) > 1 else f"{ns[0]} steps"
        raise LimitExceededError(f"{config.shots} shots of {steps} exceed the cap of {MAX_SHOT_STEPS} sampled steps")
    dim = 2**h.num_qubits
    if config.psi0 is not None and config.psi0 >= dim:
        raise ConfigError(f"psi0 index {config.psi0} out of range for dimension {dim}")
    return ns, None if config.psi0 is None else np.eye(dim, dtype=complex)[config.psi0]


def _zeno_point(system, t, n, *, order, psi0, shots, seed):
    """Sweep point of the projected sequence of ``order``; sampled when ``shots`` is given."""
    if shots is None:
        return run_zeno(system, t, n, order=order, psi0=psi0)
    return run_sampled(system, t, n, order, psi0, shots, seed)


# The method table: for each method, the modes it runs in (a run without a mode,
# each --compare method's included, runs in the first), the projector variant
# handed to build_extended (None for the baselines, which run on the Hamiltonian
# itself), and the function computing one sweep point as point(system or
# Hamiltonian, t, n); a method that also runs sampled post-selects, and its
# point reads psi0=, shots= and seed= too.
METHODS = {
    "zeno1": (("projected", "sampled"), VARIANT_STANDARD, partial(_zeno_point, order=1)),
    "zeno2": (("projected", "sampled"), VARIANT_STANDARD, partial(_zeno_point, order=2)),
    "kicks": (("projected",), VARIANT_STANDARD, run_kicks),
    "mub": (("projected", "sampled"), VARIANT_MUB, partial(_zeno_point, order=1)),
    "qdrift": (("channel",), None, qdrift_point),
    "trotter1": (("projected",), None, trotter_point),
}
MODES = tuple(dict.fromkeys(mode for modes, _, _ in METHODS.values() for mode in modes))  # first-seen order
_qdrift_point, _trotter_point = qdrift_point, trotter_point  # the names perfbench's oracle test imports


def fit_loglog_slope(ns, errors) -> float | None:
    """Least-squares slope of log(error) against log(N).

    Only finite errors above ``SLOPE_FLOOR`` are fitted, so neither the
    floating-point floor nor an infinite reading contaminates the fit;
    returns None unless they span ``SLOPE_MIN_POINTS`` distinct step counts.
    Lists of unequal length raise ValueError.
    """
    pairs = [(n, e) for n, e in zip(ns, errors, strict=True) if bounds.is_real(e) and e > SLOPE_FLOOR]
    if len({n for n, _ in pairs}) < SLOPE_MIN_POINTS:
        return None
    log_n = np.log([p[0] for p in pairs])
    log_e = np.log([p[1] for p in pairs])
    return float(np.polyfit(log_n, log_e, 1)[0])


def _resolved_config_dict(config: ExperimentConfig, ns: list[int], h: PauliHamiltonian) -> dict:
    """The config's fields in order, with the resolved step counts as ``n_values`` in place of n and sweep."""
    resolved = {("n_values" if k == "sweep" else k): v for k, v in asdict(config).items() if k != "n"}
    resolved["n_values"] = list(ns)
    return resolved | {"lam": h.lam, "h_max": h.h_max, "num_terms": h.num_terms, "num_qubits": h.num_qubits}


def run_experiment(config: ExperimentConfig) -> SweepResult:
    """Execute one config: validate, load, check limits, run every step count."""
    config = _validate_config(config)
    return _sweep(config, load_hamiltonian(config.hamiltonian_path))


def _sweep(config: ExperimentConfig, h: PauliHamiltonian) -> SweepResult:
    """Run every step count of a validated config on ``h`` or on its system for the method's projector variant."""
    ns, psi0 = _resolve(config, h)
    modes, variant, point = METHODS[config.method]
    subject = h if variant is None else build_extended(h, variant)
    if "sampled" in modes:
        point = partial(point, psi0=psi0, shots=config.shots if config.mode == "sampled" else None, seed=config.seed)
    return SweepResult(tuple(point(subject, config.t, n) for n in ns), _resolved_config_dict(config, ns, h))


def compare_methods(config: ExperimentConfig, methods) -> MethodComparison:
    """Run several methods on the shared Hamiltonian, time, and sweep.

    Each method runs in the first of its modes; ``config.mode`` is ignored. The Hamiltonian is loaded once, and
    every method reads its cached spectrum, so the comparison takes one ``eigh`` of H. The methods share their step
    counts, so ``config`` sets ``n`` or ``sweep``; an ``epsilon`` (one N per method) is a ConfigError.
    """
    if isinstance(methods, str) or not isinstance(methods, Iterable):
        raise ConfigError(f"compare expects a list of method names, got {methods!r}")
    methods = list(methods)
    if not methods:
        raise ConfigError("compare needs at least one method")
    if config.epsilon is not None:
        raise ConfigError("compare runs every method at shared step counts: set n or sweep, not epsilon")
    configs = [_validate_config(replace(config, method=m, mode=None)) for m in methods]
    if len(set(methods)) != len(methods):
        raise ConfigError("compare methods must be distinct")
    h = load_hamiltonian(configs[0].hamiltonian_path)
    return MethodComparison({m: _sweep(c, h) for m, c in zip(methods, configs)})


CSV_COLUMNS = tuple(f.name for f in fields(ZenoRunResult) if f.metadata.get(bounds.COLUMN, True))


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _fmt(value)
    return str(value)


def _point_record(point: ZenoRunResult) -> dict:
    return {name: getattr(point, name) for name in CSV_COLUMNS}


def render_csv(*results: SweepResult) -> str:
    """One CSV table holding the points of every result, in order."""
    lines = [",".join(CSV_COLUMNS)]
    for result in results:
        for point in result.points:
            lines.append(",".join(_csv_cell(v) for v in _point_record(point).values()))
    return "\n".join(lines) + "\n"


def _round_floats(obj):
    if isinstance(obj, float):
        return float(_fmt(obj)) if bounds.is_real(obj) else _fmt(obj)
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _sweep_record(sweep: SweepResult) -> dict:
    return {"fitted_slope": sweep.fitted_slope, "all_bounds_satisfied": sweep.all_bounds_satisfied,
            "points": [_point_record(p) for p in sweep.points]}


def render_json(result: SweepResult) -> str:
    payload = {"config": result.resolved_config, **_sweep_record(result)}
    return json.dumps(_round_floats(payload), indent=2, allow_nan=False) + "\n"


def render_comparison_json(comparison: MethodComparison) -> str:
    payload = {
        "n_values": list(comparison.ns),
        "notes": list(comparison.notes),
        "methods": {name: _sweep_record(sweep) for name, sweep in comparison.results.items()},
    }
    return json.dumps(_round_floats(payload), indent=2, allow_nan=False) + "\n"
