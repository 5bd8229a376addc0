"""Print a Markdown row per run of ``tests/ceiling.json``; exit 1 if one fails: ``PYTHONPATH=src python tests/ceiling.py``"""

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.append(str(ROOT / "perfbench"))
from child import run_child

CEILING = json.loads((ROOT / "tests" / "ceiling.json").read_text(encoding="utf-8"))
FILES = {name: str(ROOT / instance["file"]) for name, instance in CEILING["instances"].items()}
INSTANCE_OF = {mode: name for name, instance in CEILING["instances"].items() for mode in instance["modes"]}


def runs():
    """Yield (instance, CLI args, expected exit, peak-RSS limit in MiB or None) of every ceiling run."""
    caps, times = CEILING["shot_caps"], CEILING["corners"]["t"]
    sampled = [{"args": f"--method {m} --mode sampled --t {t} {shots}"}
               for shots in caps["args"] for m in caps["methods"] for t in times]
    for entry in CEILING["runs"] + sampled:
        words = entry["args"].split()
        mode = dict(zip(words[::2], words[1::2])).get("--mode", "projected")
        yield INSTANCE_OF[mode], entry["args"], 4 * (entry["args"] in CEILING["exit_4"]["args"]), entry.get("rss_mib")


def run(argv, exit_code, rss_mib):
    """Run ``argv`` with perfbench's ``run_child`` under the ceiling's caps; return whether it passed (no timeout,
    the expected exit code, a peak RSS within ``rss_mib`` unless that is None) and its table row."""
    with tempfile.TemporaryDirectory() as workdir:
        result = run_child(argv, None, CEILING["timeout_s"], CEILING["address_space_mib"] << 20, workdir)
    code = "timeout" if result.timed_out else result.returncode
    passed = code == exit_code and (rss_mib is None or result.peak_rss_mib <= rss_mib)
    return passed, (f"| {'ok' if passed else 'FAIL'} | {code} | {exit_code} | {result.peak_rss_mib:.1f} "
                    f"| {rss_mib or '-'} | {result.wall_s:.2f} |")


if __name__ == "__main__":
    print("| verdict | exit | expected | peak RSS MiB | limit MiB | wall s | run |\n|---|---|---|---|---|---|---|")
    failed = 0
    for name, args, exit_code, rss_mib in runs():
        passed, row = run([sys.executable, "-m", "zenosim", "--hamiltonian", FILES[name], *args.split()],
                          exit_code, rss_mib)
        print(f"{row} {name} {args} |", flush=True)
        failed += not passed
    sys.exit(failed > 0)
