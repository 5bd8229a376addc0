"""Running one CLI child under a memory cap and a timeout, and judging its result."""

from __future__ import annotations

import json
import math
import os
import resource
import signal
import subprocess
import time
from dataclasses import dataclass

REL_TOL = 1e-6
ABS_TOL = 1e-12
MEASURED_FIELDS = ("epsilon_measured", "p_succ_exact")
EXACT_FIELDS = (
    "method",
    "N",
    "delta_t",
    "epsilon_bound",
    "bound_satisfied",
    "p_succ_bound",
    "p_succ_sampled",
    "shots",
    "seed",
)


@dataclass
class ChildResult:
    returncode: int
    timed_out: bool
    wall_s: float
    peak_rss_mib: float
    stdout: str
    stderr: str


def run_child(cmd, env, timeout_s: float, cap_bytes: int, workdir) -> ChildResult:
    """Spawn ``cmd`` in its own session, wait with wait4 for its rusage.

    The address-space cap is set in the child before exec. On timeout the
    whole session is killed with SIGKILL; the wait still reaps the child.
    """
    out_path = os.path.join(workdir, "child.out")
    err_path = os.path.join(workdir, "child.err")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap_bytes, cap_bytes))

    timed_out = False
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, stdout=out, stderr=err, env=env, preexec_fn=limit, start_new_session=True
        )

        def on_alarm(signum, frame):
            nonlocal timed_out
            timed_out = True
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, timeout_s)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return ChildResult(proc.returncode, timed_out, wall, usage.ru_maxrss / 1024.0, stdout, stderr)


def _rounded(value):
    """The CLI prints floats with 12 significant digits."""
    return float(f"{value:.12g}") if isinstance(value, float) else value


def _close(got, want) -> bool:
    return (
        isinstance(got, (int, float))
        and math.isfinite(got)
        and abs(got - want) <= REL_TOL * abs(want) + ABS_TOL
    )


def compare_points(stdout: str, expected: list[dict]) -> str | None:
    """Return why the CLI's JSON output disagrees with the reference, or None."""
    try:
        got = json.loads(stdout)["points"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc}"
    if len(got) != len(expected):
        return f"{len(got)} points, expected {len(expected)}"
    for g, e in zip(got, expected):
        for key in EXACT_FIELDS:
            if g.get(key) != _rounded(e[key]):
                return f"N={e['N']} {key}={g.get(key)!r}, reference {_rounded(e[key])!r}"
        for key in MEASURED_FIELDS:
            if not _close(g.get(key), e[key]):
                return f"N={e['N']} {key}={g.get(key)!r}, reference {e[key]:.12g}"
    return None


def last_line(text: str) -> str:
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    return lines[-1][:160] if lines else ""


def classify(result: ChildResult, expected_exit: int, mismatch: str | None) -> tuple[str, str]:
    """(kind, detail) with kind one of ok, timeout, memory_cap, signal, traceback,
    exit_<code> or mismatch."""
    err = result.stderr
    if result.timed_out:
        return "timeout", f"killed after {result.wall_s:.1f} s"
    if result.returncode != expected_exit and ("MemoryError" in err or "memory" in last_line(err).lower()):
        return "memory_cap", last_line(err)
    if result.returncode < 0:
        return "signal", f"signal {-result.returncode}: {last_line(err)}"
    if "Traceback (most recent call last)" in err:
        return "traceback", last_line(err)
    if result.returncode != expected_exit:
        return f"exit_{result.returncode}", last_line(err)
    if mismatch is not None:
        return "mismatch", mismatch
    return "ok", ""
