"""zenosim benchmark runner.

    python3 perfbench/run.py --workload <projected|sampled|channel|sampled-defect|all>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a zenosim checkout; the program is imported from
``src/``. One closed-loop client runs one ``python -m zenosim`` child at a
time, each under a memory cap and a timeout, and checks every emitted point
against the reference. Passes over the workload's invocation list repeat
until the workload's ``min_passes`` are done and another pass, at the mean
pass time so far, would end after ``--seconds`` (whole passes only). With
``--trace 1`` the run makes one untraced pass and one pass through
``traced_cli.py``, and reports per-layer metrics instead of end-to-end ones.

The last line of a workload's report is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``--workload all``
runs every workload in turn, each report ending with its own line.
``sampled-defect`` is not in ``BENCHMARK.json``: it holds the points whose
output the program gets wrong at the seed commit, so it reports
``correct: false`` until that is fixed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import child
import oracle
import spans
from instances import Instance, write_instances

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

PROBE = (
    "import json, sys, numpy, zenosim\n"
    "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
    "print(json.dumps({'zenosim': zenosim.__file__, 'python': sys.version.split()[0],"
    " 'numpy': numpy.__version__, 'blas': f\"{blas.get('name')} {blas.get('version')}\"}))\n"
)

END_TO_END = (
    ("points_per_s", "1/s"),
    ("run_s_p50", "s"),
    ("peak_rss_mib", "MiB"),
    ("ok_share", "ratio"),
    ("setup_s", "s"),
)


def invocations(manifest: dict, workload: str, seed: int) -> list[dict]:
    """Every CLI invocation of one pass, in a fixed order."""
    spec = manifest["workloads"][workload]
    out = []
    for group in spec["groups"]:
        for name in group["instances"]:
            for method in group["methods"]:
                if "sweep" in group:
                    out.append({"id": f"{workload}/{name}/{method}", "instance": name,
                                "method": method, "ns": group["sweep"]})
                else:
                    for n in group["n"]:
                        out.append({"id": f"{workload}/{name}/{method}/N{n}", "instance": name,
                                    "method": method, "ns": [n]})
    for inv in out:
        inv["mode"] = spec["mode"]
        inv["shots"] = spec.get("shots")
        inv["seed"] = seed if spec["mode"] == "sampled" else None
    return out


def cli_args(inv: dict, path: Path, t: float) -> list[str]:
    args = ["--hamiltonian", str(path), "--method", inv["method"], "--t", repr(t),
            "--mode", inv["mode"], "--format", "json"]
    if len(inv["ns"]) > 1:
        args += ["--sweep", ",".join(map(str, inv["ns"]))]
    else:
        args += ["--n", str(inv["ns"][0])]
    if inv["mode"] == "sampled":
        args += ["--shots", str(inv["shots"]), "--seed", str(inv["seed"])]
    return args


def git_commit() -> str:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "n/a"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "n/a (not a git checkout)"
    return lines[1]


class Runner:
    def __init__(self, manifest: dict, workload: str, workdir: Path):
        self.manifest = manifest
        self.workdir = workdir
        # Small mat-vecs run slower, on twice the CPU, when OpenBLAS spins a
        # second thread, so each workload names its own thread count.
        self.threads = min(manifest["workloads"][workload]["blas_threads"], len(os.sched_getaffinity(0)))
        self.cap = manifest["memory_cap_mib"] * 2**20
        self.timeout = manifest["timeout_s"]
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        self.env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(self.threads)

    def spawn(self, args) -> child.ChildResult:
        return child.run_child([sys.executable, *args], self.env, self.timeout, self.cap, self.workdir)

    def provenance(self) -> dict:
        result = self.spawn(["-c", PROBE])
        if result.returncode != 0:
            raise SystemExit(f"perfbench: cannot import zenosim from {ROOT / 'src'}:\n{result.stderr}")
        info = json.loads(result.stdout)
        if not Path(info["zenosim"]).resolve().is_relative_to(ROOT / "src"):
            raise SystemExit(f"perfbench: zenosim imported from {info['zenosim']}, not {ROOT / 'src'}")
        info.update(nproc=len(os.sched_getaffinity(0)), blas_threads=self.threads,
                    memory_cap_mib=self.manifest["memory_cap_mib"],
                    timeout_s=self.timeout, git_commit=git_commit())
        return info

    def setup_probe(self) -> float:
        """Wall time of a child that only imports zenosim."""
        return self.spawn(["-c", "import zenosim"]).wall_s

    def run(self, inv: dict, files: dict, traced: bool, deadline: float) -> dict:
        path = files[inv["instance"]][1]
        expected = inv["expected"]
        record = {"id": inv["id"], "points": 0, "charged_s": float(self.timeout), "spans": None}
        if time.perf_counter() > deadline:
            record.update(kind="deadline", wall_s=0.0, rss_mib=0.0, detail="run deadline passed; not started")
            return record
        args = cli_args(inv, path, self.manifest["t"])
        span_path = self.workdir / "spans.json"
        if traced:
            span_path.unlink(missing_ok=True)
            result = self.spawn([str(HERE / "traced_cli.py"), str(span_path), inv["id"], *args])
            if span_path.exists():
                record["spans"] = json.loads(span_path.read_text(encoding="utf-8"))["spans"]
        else:
            result = self.spawn(["-m", "zenosim", *args])
        expected_exit = 0 if all(p["bound_satisfied"] for p in expected) else 4
        mismatch = None
        if not result.timed_out and result.returncode == expected_exit:
            mismatch = child.compare_points(result.stdout, expected)
        kind, detail = child.classify(result, expected_exit, mismatch)
        record.update(kind=kind, detail=detail, wall_s=result.wall_s, rss_mib=result.peak_rss_mib)
        if kind == "ok":
            record.update(points=len(expected), charged_s=result.wall_s)
        return record


def end_to_end(records: list[dict], setup: list[float]) -> dict[str, float]:
    """Each invocation counts once, with its fastest pass.

    Other tenants of a shared host only ever slow a child down (by up to
    40%, for minutes, on a 2-vCPU host), so the fastest of several passes
    is the steadiest estimate of what the program costs. A failed
    pass keeps the timeout charge, so an invocation that fails in any pass
    counts as failed.
    """
    ok = sum(r["kind"] == "ok" for r in records)
    best: dict[str, dict] = {}
    for r in records:
        kept = best.get(r["id"])
        if kept is None or (kept["kind"] == "ok" and (r["kind"] != "ok" or r["charged_s"] < kept["charged_s"])):
            best[r["id"]] = r
    return {
        "points_per_s": sum(r["points"] for r in best.values()) / sum(r["charged_s"] for r in best.values()),
        "run_s_p50": statistics.median(r["charged_s"] for r in best.values()),
        "peak_rss_mib": max(r["rss_mib"] for r in records),
        "ok_share": ok / len(records),
        "setup_s": statistics.median(setup),
    }


def run_workload(manifest: dict, reference: dict, workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    """Run one workload, print its report and return the result object."""
    started = time.perf_counter()
    deadline = started + manifest["run_deadline_s"]
    t = manifest["t"]
    spec = manifest["workloads"][workload]
    workdir = Path(ROOT / f".perfbench-run-{os.getpid()}")
    workdir.mkdir()
    try:
        panel = {name: Instance.parse(text) for name, text in reference["instances"].items()}
        files = write_instances(panel, seed, workdir)
        plan = invocations(manifest, workload, seed)
        for inv in plan:
            epsilons = [reference["epsilon"][oracle.point_key(inv["instance"], inv["method"], n)]
                        for n in inv["ns"]]
            inv["expected"] = oracle.expected_points(
                files[inv["instance"]][0], inv["method"], inv["mode"], inv["ns"], t, epsilons,
                shots=inv["shots"], seed=inv["seed"],
            )

        runner = Runner(manifest, workload, workdir)
        env_block = runner.provenance()
        # Set-up probes: some up front, then one before each invocation of
        # the first pass, so that the median samples more than one moment.
        setup = [runner.setup_probe() for _ in range(max(0, manifest["setup_probes"] - len(plan)))]
        passes = []
        while True:
            traced = trace and len(passes) == 1
            records = []
            for inv in plan:
                if not passes:
                    setup.append(runner.setup_probe())
                records.append(runner.run(inv, files, traced, deadline))
            passes.append(records)
            elapsed = time.perf_counter() - started
            if trace:
                if len(passes) == 2:
                    break
            elif len(passes) >= spec.get("min_passes", 1) and elapsed + elapsed / len(passes) > seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = [r for p in passes for r in p]
    print(f"# perfbench workload={workload} seed={seed} seconds={seconds:g} trace={int(trace)}")
    print("env " + json.dumps(env_block, sort_keys=True))
    print("setup_probes_s " + " ".join(f"{s:.4f}" for s in setup))
    for i, p in enumerate(passes, 1):
        label = "traced" if trace and i == 2 else "untraced"
        print(f"pass {i} ({label}): {len(p)} invocations, {sum(r['wall_s'] for r in p):.3f} s")
    print(f"{'invocation':<28} {'result':<11} {'wall_s':>8} {'rss_mib':>8}  detail (pass 1)")
    for r in passes[0]:
        print(f"{r['id']:<28} {r['kind']:<11} {r['wall_s']:>8.3f} {r['rss_mib']:>8.1f}  {r['detail']}")
    failing = sorted({r["id"] + " (" + r["kind"] + ")" for r in records if r["kind"] != "ok"})
    print(f"failing invocations: {len(failing)}")
    for line in failing:
        print(f"  FAIL {line}")

    failed = sum(r["kind"] != "ok" for r in records)
    if trace:
        untraced, traced = passes
        metrics = spans.layer_metrics(r["spans"] for r in traced if r["spans"])
        metrics["trace_overhead_share"] = (
            sum(r["wall_s"] for r in traced) / sum(r["wall_s"] for r in untraced)
        )
        units = {name: unit for name, unit, _ in spans.LAYER_METRICS}
    else:
        metrics = end_to_end(records, setup)
        units = dict(END_TO_END)
        print(f"failed_share {failed / len(records)} ratio ({failed} of {len(records)} invocations)")
        print(f"{len(passes)} pass(es); each invocation counts once, with its fastest pass; "
              f"run_s_p50 over {len(plan)} invocations; setup_s over {len(setup)} probes")
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    return {
        "correct": not any(r["kind"] == "mismatch" for r in records),
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "zenosim" / "__main__.py").is_file():
        print(f"perfbench: no zenosim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    manifest = oracle.load_manifest()
    names = list(manifest["workloads"]) if args.workload == "all" else [args.workload]
    if not set(names) <= set(manifest["workloads"]):
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    reference = oracle.load_reference()
    for name in names:
        result = run_workload(manifest, reference, name, args.seed, args.seconds, args.trace == 1)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
