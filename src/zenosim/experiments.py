"""Experiment harness: configs, sweeps, slope fits, and result emission.

A config names a Hamiltonian file, a method, an evolution time, and exactly
one way to choose step counts: a fixed ``n``, a target ``epsilon`` (which
resolves to the first-order step formula), or an explicit ``sweep`` list.
Runs are deterministic: the same config (seed included) produces
byte-identical output files.

CSV columns are fixed:

    method,N,delta_t,epsilon_measured,epsilon_bound,bound_satisfied,
    p_succ_exact,p_succ_bound,p_succ_sampled,shots,seed

Floats are printed with 12 significant digits; absent values are empty
cells (CSV) or null (JSON). JSON output mirrors the same per-point fields
and adds the resolved config and the fitted log-log slope.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import bounds
from .channels import (
    CHANNEL_MAX_QUBITS,
    diamond_lower_bound,
    exact_evolution,
    qdrift_channel,
    trotter_first_order,
    unitary_channel,
)
from .errors import ConfigError, LimitExceededError
from .hamiltonian import PauliHamiltonian, load_hamiltonian
from .linalg import spectral_norm
from .zeno import (
    VARIANT_MUB,
    VARIANT_STANDARD,
    ZenoRunResult,
    build_extended,
    run_kicks,
    run_sampled,
    run_zeno,
)

MODES = ("projected", "sampled", "channel")

DEFAULT_MAX_QUBITS = 6
MAX_TERMS = 32
MAX_STEPS = 10**6  # largest step count from --n, --sweep or --epsilon
MAX_QUBITS_ENV = "ZENOSIM_MAX_QUBITS"

SLOPE_FLOOR = 1e-12
SLOPE_MIN_POINTS = 4


@dataclass(frozen=True)
class ExperimentConfig:
    hamiltonian_path: str
    method: str
    t: float
    n: int | None = None
    epsilon: float | None = None
    sweep: tuple[int, ...] | None = None
    mode: str = "projected"
    shots: int | None = None
    seed: int = 0
    psi0: int | list | None = None
    output_format: str = "csv"
    output_path: str | None = None


@dataclass(frozen=True)
class SweepResult:
    """Run results for every step count, plus the fitted convergence slope."""

    points: tuple[ZenoRunResult, ...]
    fitted_slope: float | None
    all_bounds_satisfied: bool
    resolved_config: dict = field(default_factory=dict)


@dataclass(frozen=True)
class MethodComparison:
    """Side-by-side error metrics for several methods on one instance."""

    ns: tuple[int, ...]
    results: dict[str, SweepResult]
    notes: tuple[str, ...]

    def render(self) -> str:
        header = ["N"] + [f"{m}_error {m}_bound" for m in self.results]
        rows = [" ".join(f"{h:>28}" for h in header)]
        for i, n in enumerate(self.ns):
            cells = [f"{n:>28}"]
            for m, sweep in self.results.items():
                point = sweep.points[i]
                bound = "-" if point.epsilon_bound is None else _fmt(point.epsilon_bound)
                cells.append(f"{_fmt(point.epsilon_measured):>13} {bound:>14}")
            rows.append(" ".join(cells))
        rows.extend(f"note: {n}" for n in self.notes)
        return "\n".join(rows)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def max_qubits_cap() -> int:
    """Effective target-qubit cap; the environment may lower it, never raise it."""
    raw = os.environ.get(MAX_QUBITS_ENV)
    if raw is None:
        return DEFAULT_MAX_QUBITS
    try:
        value = int(raw)
    except ValueError as exc:
        raise ConfigError(f"{MAX_QUBITS_ENV} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ConfigError(f"{MAX_QUBITS_ENV} must be >= 1, got {value}")
    return min(DEFAULT_MAX_QUBITS, value)


def _modes(method: str) -> tuple[str, ...]:
    """The modes ``method`` runs in, from the method table."""
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r}; choose from {tuple(METHODS)}")
    return METHODS[method][0]


def _validate_config(config: ExperimentConfig) -> None:
    modes = _modes(config.method)
    if config.mode not in modes:
        raise ConfigError(f"method {config.method!r} runs in mode {' or '.join(modes)}, not {config.mode!r}")
    chosen = [x is not None for x in (config.n, config.epsilon, config.sweep)]
    if sum(chosen) != 1:
        raise ConfigError("exactly one of n, epsilon, or sweep must be set")
    if not (math.isfinite(config.t) and config.t >= 0):
        raise ConfigError(f"t must be finite and nonnegative, got {config.t}")
    if config.epsilon is not None and not (math.isfinite(config.epsilon) and config.epsilon > 0):
        raise ConfigError(f"epsilon must be finite and positive, got {config.epsilon}")
    if config.mode == "sampled" and (config.shots is None or config.shots < 1):
        raise ConfigError("sampled mode requires shots >= 1")
    if config.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {config.seed}")
    if config.output_format not in ("json", "csv"):
        raise ConfigError(f"unknown output format {config.output_format!r}")


def _check_limits(h: PauliHamiltonian, config: ExperimentConfig) -> None:
    cap = max_qubits_cap()
    if h.num_qubits > cap:
        raise LimitExceededError(
            f"Hamiltonian acts on {h.num_qubits} qubits, cap is {cap}"
        )
    if h.num_terms > MAX_TERMS:
        raise LimitExceededError(
            f"Hamiltonian has {h.num_terms} terms, cap is {MAX_TERMS}"
        )
    if config.mode == "channel" and h.num_qubits > CHANNEL_MAX_QUBITS:
        raise LimitExceededError(
            f"channel mode supports at most {CHANNEL_MAX_QUBITS} qubits, got {h.num_qubits}"
        )


def _resolve_ns(config: ExperimentConfig, h: PauliHamiltonian) -> list[int]:
    if config.sweep is not None:
        ns = [int(n) for n in config.sweep]
        if not ns or any(n < 1 for n in ns):
            raise ConfigError("sweep values must be positive integers")
        ns = sorted(set(ns))
    elif config.n is not None:
        if config.n < 1:
            raise ConfigError("n must be >= 1")
        ns = [int(config.n)]
    else:
        try:
            ns = [bounds.steps_for_precision(h.lam, config.t, config.epsilon)]
        except OverflowError as exc:  # t^2 lam^2 / epsilon is infinite
            raise LimitExceededError(f"epsilon {config.epsilon} needs more than {MAX_STEPS} steps") from exc
    if ns[-1] > MAX_STEPS:
        raise LimitExceededError(f"step count {ns[-1]} exceeds the cap of {MAX_STEPS}")
    return ns


def _resolve_psi0(config: ExperimentConfig, target_dim: int) -> np.ndarray | None:
    if config.psi0 is None:
        return None
    if isinstance(config.psi0, int):
        if not 0 <= config.psi0 < target_dim:
            raise ConfigError(f"psi0 index {config.psi0} out of range for dimension {target_dim}")
        psi = np.zeros(target_dim, dtype=complex)
        psi[config.psi0] = 1.0
        return psi
    psi = np.asarray(config.psi0, dtype=complex).reshape(-1)
    if psi.shape[0] != target_dim:
        raise ConfigError(f"psi0 amplitude list must have length {target_dim}")
    norm = np.linalg.norm(psi)
    if norm < 1e-12:
        raise ConfigError("psi0 amplitude list is (numerically) zero")
    return psi / norm


def _zeno_point(order: int):
    """Sweep point of the projected sequence of ``order``; sampled when ``shots`` is given."""

    def point(system, t, n, psi0=None, shots=None, seed=0):
        if shots is None:
            return run_zeno(system, t, n, order=order, psi0=psi0)
        return run_sampled(system, t, n, order, psi0, shots, seed)

    return point


def _kicks_point(system, t: float, n: int, **_) -> ZenoRunResult:
    return run_kicks(system, t, n)


def _baseline_point(method: str, h: PauliHamiltonian, t: float, n: int, error: float) -> ZenoRunResult:
    eps_bound, p_bound, _ = bounds.method_bounds(method, h, 0, t, n)
    return ZenoRunResult(
        method=method,
        N=n,
        delta_t=t / n,
        epsilon_measured=error,
        epsilon_bound=eps_bound,
        p_succ_exact=1.0,
        p_succ_bound=p_bound,
    )


def _qdrift_point(h: PauliHamiltonian, t: float, n: int, **_) -> ZenoRunResult:
    lower = diamond_lower_bound(
        qdrift_channel(h, t, n),
        unitary_channel(exact_evolution(h, t), label="exact"),
    )
    return _baseline_point("qdrift", h, t, n, lower)


def _trotter_point(h: PauliHamiltonian, t: float, n: int, **_) -> ZenoRunResult:
    error = spectral_norm(trotter_first_order(h, t, n) - exact_evolution(h, t))
    return _baseline_point("trotter1", h, t, n, error)


# The method table: for each method, the modes it runs in (--compare runs the
# first), the projector variant handed to build_extended (None for the
# baselines, which run on the Hamiltonian itself), and the function computing
# one sweep point as point(system or Hamiltonian, t, n, psi0=, shots=, seed=).
METHODS = {
    "zeno1": (("projected", "sampled"), VARIANT_STANDARD, _zeno_point(1)),
    "zeno2": (("projected", "sampled"), VARIANT_STANDARD, _zeno_point(2)),
    "kicks": (("projected",), VARIANT_STANDARD, _kicks_point),
    "mub": (("projected", "sampled"), VARIANT_MUB, _zeno_point(1)),
    "qdrift": (("channel",), None, _qdrift_point),
    "trotter1": (("projected",), None, _trotter_point),
}


def fit_loglog_slope(
    ns,
    errors,
    floor: float = SLOPE_FLOOR,
    min_points: int = SLOPE_MIN_POINTS,
) -> float | None:
    """Least-squares slope of log(error) against log(N).

    Points at or below ``floor`` are excluded so the floating-point floor
    does not contaminate the fit; returns None with fewer than
    ``min_points`` usable points.
    """
    pairs = [(n, e) for n, e in zip(ns, errors) if e > floor]
    if len(pairs) < min_points:
        return None
    log_n = np.log([p[0] for p in pairs])
    log_e = np.log([p[1] for p in pairs])
    return float(np.polyfit(log_n, log_e, 1)[0])


def _point_satisfied(point: ZenoRunResult) -> bool:
    if point.epsilon_bound is None:
        return True
    # Allow a hair of floating-point slack relative to the bound magnitude.
    return point.epsilon_measured <= point.epsilon_bound + 1e-12


def _resolved_config_dict(config: ExperimentConfig, ns: list[int], h: PauliHamiltonian) -> dict:
    return {
        "hamiltonian_path": config.hamiltonian_path,
        "method": config.method,
        "t": config.t,
        "epsilon": config.epsilon,
        "n_values": list(ns),
        "mode": config.mode,
        "shots": config.shots,
        "seed": config.seed,
        "psi0": config.psi0 if not isinstance(config.psi0, np.ndarray) else list(map(complex, config.psi0)),
        "output_format": config.output_format,
        "output_path": config.output_path,
        "lam": h.lam,
        "h_max": h.h_max,
        "num_terms": h.num_terms,
        "num_qubits": h.num_qubits,
    }


def run_experiment(config: ExperimentConfig) -> SweepResult:
    """Execute one config: load, validate limits, run every step count."""
    _validate_config(config)
    h = load_hamiltonian(config.hamiltonian_path)
    _check_limits(h, config)
    ns = _resolve_ns(config, h)
    psi0 = _resolve_psi0(config, 2**h.num_qubits)
    _, variant, point = METHODS[config.method]
    subject = h if variant is None else build_extended(h, variant)
    shots = config.shots if config.mode == "sampled" else None
    points = [point(subject, config.t, n, psi0=psi0, shots=shots, seed=config.seed) for n in ns]
    slope = fit_loglog_slope([p.N for p in points], [p.epsilon_measured for p in points])
    return SweepResult(
        points=tuple(points),
        fitted_slope=slope,
        all_bounds_satisfied=all(_point_satisfied(p) for p in points),
        resolved_config=_resolved_config_dict(config, ns, h),
    )


def compare_methods(config: ExperimentConfig, methods) -> MethodComparison:
    """Run several methods on the shared Hamiltonian, time, and sweep.

    Each method runs in the first of its modes; ``config.mode`` is ignored.
    """
    methods = list(methods)
    if not methods:
        raise ConfigError("compare needs at least one method")
    if len(set(methods)) != len(methods):
        raise ConfigError("compare methods must be distinct")
    results = {m: run_experiment(replace(config, method=m, mode=_modes(m)[0])) for m in methods}
    ns = tuple(p.N for p in results[methods[0]].points)
    notes = []
    if "qdrift" in results:
        notes.append(
            "qdrift error is a channel-level diamond-distance lower bound; "
            "it is not directly comparable to the gate errors of the unitary methods"
        )
    return MethodComparison(ns=ns, results=results, notes=tuple(notes))


CSV_COLUMNS = (
    "method",
    "N",
    "delta_t",
    "epsilon_measured",
    "epsilon_bound",
    "bound_satisfied",
    "p_succ_exact",
    "p_succ_bound",
    "p_succ_sampled",
    "shots",
    "seed",
)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _fmt(value)
    return str(value)


def _point_record(point: ZenoRunResult) -> dict:
    return {
        "method": point.method,
        "N": point.N,
        "delta_t": point.delta_t,
        "epsilon_measured": point.epsilon_measured,
        "epsilon_bound": point.epsilon_bound,
        "bound_satisfied": _point_satisfied(point),
        "p_succ_exact": point.p_succ_exact,
        "p_succ_bound": point.p_succ_bound,
        "p_succ_sampled": point.p_succ_sampled,
        "shots": point.shots,
        "seed": point.seed,
    }


def render_csv(*results: SweepResult) -> str:
    """One CSV table holding the points of every result, in order."""
    lines = [",".join(CSV_COLUMNS)]
    for result in results:
        for point in result.points:
            record = _point_record(point)
            lines.append(",".join(_csv_cell(record[c]) for c in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def _round_floats(obj):
    if isinstance(obj, float):
        return float(_fmt(obj))
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def render_json(result: SweepResult) -> str:
    payload = {
        "config": result.resolved_config,
        "fitted_slope": result.fitted_slope,
        "all_bounds_satisfied": result.all_bounds_satisfied,
        "points": [_point_record(p) for p in result.points],
    }
    return json.dumps(_round_floats(payload), indent=2) + "\n"


def emit_results(result: SweepResult, output_format: str, path) -> None:
    """Write a sweep to disk in the requested format."""
    if output_format == "csv":
        text = render_csv(result)
    elif output_format == "json":
        text = render_json(result)
    else:
        raise ConfigError(f"unknown output format {output_format!r}")
    Path(path).write_text(text, encoding="utf-8", newline="\n")


def render_comparison_json(comparison: MethodComparison) -> str:
    payload = {
        "n_values": list(comparison.ns),
        "notes": list(comparison.notes),
        "methods": {
            name: {
                "fitted_slope": sweep.fitted_slope,
                "all_bounds_satisfied": sweep.all_bounds_satisfied,
                "points": [_point_record(p) for p in sweep.points],
            }
            for name, sweep in comparison.results.items()
        },
    }
    return json.dumps(_round_floats(payload), indent=2) + "\n"
