"""Span recording around zenosim's public functions, and per-layer metrics.

``Recorder.install`` wraps every public function defined in the traced
modules and rebinds it at each import site inside the package, so calls
made through ``from .zeno import run_zeno`` are seen too. It also wraps
``numpy.linalg.matrix_power`` to time N-fold composition. Spans stay in
memory and are written as JSON when the traced process exits.

A span is ``[id, parent id, name, start, end, failed, extra]``; ``extra``
holds the operand dimension, the matrix-power exponent, the shot count or
the peak-RSS rise, where they apply. A layer's self time is its span's
duration minus the part of that interval covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import resource
import time

TRACED_MODULES = ("hamiltonian", "zeno", "linalg", "channels", "experiments")
MATRIX_POWER = "numpy.matrix_power"
RSS_SPAN = "linalg.spectral_norm"

_STEP = ("zeno.select_unitary", "zeno.projector_full", "zeno.reflection_full", "zeno.zeno_step_operator")
_RENDER = (
    "experiments.render_csv",
    "experiments.render_json",
    "experiments.render_comparison_csv",
    "experiments.render_comparison_json",
)
_ZENO_COMPOSERS = ("zeno.run_zeno", "zeno.run_kicks")

# (metric name, unit, better) for every per-layer metric, in report order.
LAYER_METRICS = (
    ("linalg.spectral_norm_s", "s", "lower"),
    ("linalg.spectral_norm_calls", "count", "lower"),
    ("linalg.spectral_norm_failed", "count", "lower"),
    ("linalg.spectral_norm_rss_rise_mib", "MiB", "lower"),
    ("zeno.step_s", "s", "lower"),
    ("zeno.compose_s", "s", "lower"),
    ("zeno.compose_gflop", "GFLOP", "lower"),
    ("zeno.max_dim", "dim", "lower"),
    ("zeno.build_extended_s", "s", "lower"),
    ("zeno.shot_loop_s", "s", "lower"),
    ("zeno.shots", "count", "higher"),
    ("linalg.matexp_s", "s", "lower"),
    ("linalg.matexp_calls", "count", "lower"),
    ("hamiltonian.matrix_s", "s", "lower"),
    ("channels.qdrift_s", "s", "lower"),
    ("channels.compose_gflop", "GFLOP", "lower"),
    ("channels.choi_s", "s", "lower"),
    ("linalg.trace_norm_s", "s", "lower"),
    ("channels.trotter_s", "s", "lower"),
    ("hamiltonian.load_s", "s", "lower"),
    ("experiments.run_experiment_self_s", "s", "lower"),
    ("experiments.render_s", "s", "lower"),
    ("hamiltonian.failed", "count", "lower"),
    ("zeno.failed", "count", "lower"),
    ("linalg.failed", "count", "lower"),
    ("channels.failed", "count", "lower"),
    ("experiments.failed", "count", "lower"),
    ("trace_overhead_share", "ratio", "lower"),
)


def _max_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _operand_dim(args) -> int:
    dim = 0
    for a in args:
        shape = getattr(a, "shape", None)
        if shape:
            dim = max(dim, max(shape))
        elif hasattr(a, "target_dim") and hasattr(a, "ancilla_dim"):
            dim = max(dim, a.target_dim * a.ancilla_dim)
    return dim


class Recorder:
    """Collects spans for one traced process."""

    def __init__(self, invocation: str):
        self.invocation = invocation
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]
        signature = inspect.signature(fn) if name == "zeno.run_sampled" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = [span_id, parent, name, 0.0, 0.0, False, {}]
            self.spans.append(span)
            extra = span[6]
            if layer in ("zeno", "linalg"):
                extra["dim"] = _operand_dim(args)
            if name == MATRIX_POWER:
                extra["dim"] = args[0].shape[0]
                extra["n"] = int(args[1] if len(args) > 1 else kwargs["n"])
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                extra["shots"] = int(bound.arguments["shots"])
            rss = _max_rss_mib() if name == RSS_SPAN else None
            self._stack.append(span_id)
            span[3] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[4] = time.perf_counter()
                self._stack.pop()
                if rss is not None:
                    extra["rss_rise_mib"] = _max_rss_mib() - rss

        return wrapper

    def install(self) -> None:
        """Wrap the traced modules' public functions at every import site."""
        import numpy
        import zenosim

        wrapped = {}
        for short in TRACED_MODULES:
            module = importlib.import_module(f"zenosim.{short}")
            for attr, value in vars(module).items():
                if inspect.isfunction(value) and value.__module__ == module.__name__ and not attr.startswith("_"):
                    wrapped[value] = self.wrap(f"{short}.{attr}", value)
        modules = [zenosim] + [
            importlib.import_module(f"zenosim.{m}") for m in (*TRACED_MODULES, "cli", "bounds")
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(module, attr, wrapped[value])
        numpy.linalg.matrix_power = self.wrap(MATRIX_POWER, numpy.linalg.matrix_power)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"invocation": self.invocation, "spans": self.spans}, fh)


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list] = {}
    for s in spans:
        if s[1] is not None:
            children.setdefault(s[1], []).append(s)
    out = {}
    for s in spans:
        start, end = s[3], s[4]
        covered, reach = 0.0, start
        for c in sorted(children.get(s[0], ()), key=lambda c: c[3]):
            lo, hi = max(c[3], reach), min(c[4], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s[0]] = (end - start) - covered
    return out


def _ancestors(span, by_id):
    parent = span[1]
    while parent is not None:
        yield by_id[parent]
        parent = by_id[parent][1]


def _compose_gflop(dim: int, n: int) -> float:
    """numpy's binary matrix_power: (squarings + multiplies) x 8 dim^3 flops."""
    products = max(0, n.bit_length() - 1) + max(0, bin(n).count("1") - 1)
    return products * 8.0 * dim**3 / 1e9


def layer_metrics(span_sets) -> dict[str, float]:
    """Sum per-layer metrics over the span lists of several invocations.

    A function missing from the traced program contributes zero.
    """
    m = {name: 0.0 for name, _, _ in LAYER_METRICS if name != "trace_overhead_share"}
    for spans in span_sets:
        by_id = {s[0]: s for s in spans}
        own = self_times(spans)
        for s in spans:
            name, dur, failed, extra = s[2], s[4] - s[3], s[5], s[6]
            names = [a[2] for a in _ancestors(s, by_id)]
            layer = name.split(".", 1)[0]
            if failed and layer in TRACED_MODULES:
                m[f"{layer}.failed"] += 1
            under_zeno = layer == "zeno" or any(n.startswith("zeno.") for n in names)
            if under_zeno and layer in ("zeno", "linalg", "numpy"):
                m["zeno.max_dim"] = max(m["zeno.max_dim"], extra.get("dim", 0))
            if name == RSS_SPAN:
                m["linalg.spectral_norm_s"] += own[s[0]]
                m["linalg.spectral_norm_calls"] += 1
                m["linalg.spectral_norm_failed"] += failed
                m["linalg.spectral_norm_rss_rise_mib"] = max(
                    m["linalg.spectral_norm_rss_rise_mib"], extra.get("rss_rise_mib", 0.0)
                )
            elif name in _STEP:
                m["zeno.step_s"] += own[s[0]]
            elif name == MATRIX_POWER:
                gflop = _compose_gflop(extra["dim"], extra["n"])
                if any(n in _ZENO_COMPOSERS for n in names):
                    m["zeno.compose_s"] += dur
                    m["zeno.compose_gflop"] += gflop
                elif any(n.startswith("channels.") for n in names):
                    m["channels.compose_gflop"] += gflop
            elif name == "zeno.build_extended":
                m["zeno.build_extended_s"] += dur
            elif name == "zeno.run_sampled":
                inner = sum(c[4] - c[3] for c in spans if c[1] == s[0] and c[2] == "zeno.run_zeno")
                m["zeno.shot_loop_s"] += dur - inner
                m["zeno.shots"] += extra.get("shots", 0)
            elif name == "experiments.run_experiment":
                m["experiments.run_experiment_self_s"] += own[s[0]]
            outermost = name not in names
            if not outermost:
                continue
            if name == "linalg.matexp_hermitian":
                m["linalg.matexp_s"] += dur
                m["linalg.matexp_calls"] += 1
            elif name == "hamiltonian.hamiltonian_matrix":
                m["hamiltonian.matrix_s"] += dur
            elif name == "channels.qdrift_channel":
                m["channels.qdrift_s"] += dur
            elif name == "channels.choi_matrix":
                m["channels.choi_s"] += dur
            elif name == "linalg.trace_norm":
                m["linalg.trace_norm_s"] += dur
            elif name == "channels.trotter_first_order":
                m["channels.trotter_s"] += dur
            elif name == "hamiltonian.load_hamiltonian":
                m["hamiltonian.load_s"] += dur
            elif name in _RENDER and not any(n in _RENDER for n in names):
                m["experiments.render_s"] += dur
    return m
