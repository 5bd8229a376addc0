"""Command-line front end.

Exit codes: 0 all bounds satisfied; 1 usage error (bad flags, neither or both
of --method and --compare, a Hamiltonian path that cannot be read, a method
and mode the method table does not pair, non-finite or negative t, epsilon not
finite and positive, --epsilon with trotter1 or --compare, shots below 1 in
any mode, a negative seed, a psi0 index outside the target register, an empty
--compare list, an --out path that cannot be written) or numerical failure (a
LAPACK decomposition that did not converge); 2 Hamiltonian parse error
(including non-finite coefficients and files that are not UTF-8); 3 desk-scale
limit exceeded (a step count above ``MAX_STEPS``, --epsilon's included, a
sweep of more than ``MAX_SWEEP_POINTS`` step counts, sampled mode with more
than ``MAX_SHOTS`` shots or more than ``MAX_SHOT_STEPS`` shots times steps,
and a float overflowing in lam, a mub block rate or the largest rotation angle
rate * t); 4 at least one measured value violated its analytic bound. The
error classes in ``errors`` carry these codes.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial

from .errors import ConfigError, ZenosimError
from .experiments import (
    FORMATS,
    METHODS,
    MODES,
    ExperimentConfig,
    compare_methods,
    render_comparison_json,
    render_csv,
    render_json,
    run_experiment,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BOUND_VIOLATION = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    def print_help(self, file=None):  # argparse swallows a failed write; let a closed stdout raise as a run's does
        (file or sys.stdout).write(self.format_help())


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="zenosim",
        description=(
            "Run measurement-driven (Zeno) Hamiltonian simulation sequences and "
            "baselines on a dense simulator and check every measured quantity "
            "against its analytic bound."
        ),
    )
    # Dests name ExperimentConfig fields (compare aside), and an omitted flag leaves its field's default to
    # ExperimentConfig. --method and --compare are added apart, so the usage line still shows both as optional flags.
    parser.add_argument(
        "--hamiltonian", dest="hamiltonian_path", metavar="HAMILTONIAN", required=True,
        help="path to the Hamiltonian text file",
    )
    runs = parser.add_mutually_exclusive_group(required=True)
    runs.add_argument("--method", choices=tuple(METHODS), help="sequence or baseline to run")
    parser.add_argument("--t", type=float, required=True, help="evolution time")
    parser.add_argument("--n", type=int, help="fixed step count")
    parser.add_argument("--epsilon", type=float, help="target precision (resolves the step count)")
    parser.add_argument("--mode", choices=MODES, default=argparse.SUPPRESS, help="execution mode")
    parser.add_argument("--shots", type=int, help="trajectories for sampled mode")
    parser.add_argument(
        "--seed", type=int, default=argparse.SUPPRESS, help="base seed for sampled mode (shot i uses seed + i)"
    )
    parser.add_argument("--sweep", help="comma-separated step counts, e.g. 10,20,40")
    parser.add_argument("--psi0", type=int, help="initial target state as a basis-state index")
    parser.add_argument("--format", dest="output_format", choices=FORMATS, default=argparse.SUPPRESS,
                        help="output format")
    parser.add_argument(
        "--out", dest="output_path", metavar="OUT", help="output file path (defaults to stdout)"
    )
    runs.add_argument("--compare", help="comma-separated method list to run side by side")
    return parser


def _parse_sweep(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(f"--sweep expects comma-separated integers, got {text!r}") from exc
    if not values:
        raise ConfigError("--sweep list is empty")
    return values


def main(argv=None) -> int:
    flags = vars(_build_parser().parse_args(argv))
    compare = flags.pop("compare")

    try:
        sweep = None if flags["sweep"] is None else _parse_sweep(flags["sweep"])
        config = ExperimentConfig(**flags | {"sweep": sweep})

        # The branches differ only in what they run, their JSON renderer, --out summary and notes.
        if compare is not None:
            comparison = compare_methods(config, [m.strip() for m in compare.split(",") if m.strip()])
            results = tuple(comparison.results.values())
            to_json = partial(render_comparison_json, comparison)
            summary, notes = comparison.render(), comparison.notes
        else:
            result = run_experiment(config)
            results = (result,)
            to_json = partial(render_json, result)
            slope = "n/a" if result.fitted_slope is None else f"{result.fitted_slope:.4f}"
            summary = (
                f"{config.method}: {len(result.points)} point(s) written to {config.output_path} "
                f"(slope {slope}, bounds {'ok' if result.all_bounds_satisfied else 'VIOLATED'})"
            )
            notes = ()

        rendered = render_csv(*results) if config.output_format == "csv" else to_json()
        if config.output_path is not None:
            try:
                with open(config.output_path, "w", encoding="utf-8", newline="\n") as fh:
                    fh.write(rendered)
            except OSError as exc:
                raise ConfigError(f"cannot write output: {exc}") from exc
            print(summary)
        else:
            sys.stdout.write(rendered)
            for note in notes:
                print(f"note: {note}", file=sys.stderr)
        return EXIT_OK if all(r.all_bounds_satisfied for r in results) else EXIT_BOUND_VIOLATION

    except ZenosimError as exc:
        print(f"zenosim: {exc.label}{exc}", file=sys.stderr)
        return exc.exit_code

