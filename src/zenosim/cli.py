"""Command-line front end.

Exit codes: 0 all bounds satisfied; 1 usage error (bad flags, a Hamiltonian
path that is missing or a directory, a method and mode the method table does
not pair, non-finite or negative t, epsilon not finite and positive, shots
below 1 in any mode, a negative seed, a psi0 index outside the target
register, an empty --compare list, an --out path that cannot be written)
or numerical failure (a LAPACK decomposition that did not converge); 2
Hamiltonian parse error (including non-finite coefficients and files that
are not UTF-8); 3 desk-scale limit exceeded (including a step count above
``MAX_STEPS``, sampled mode with more than ``MAX_SHOTS`` shots or more than
``MAX_SHOT_STEPS`` shots times steps, and lam * t or the largest rotation
angle overflowing a float); 4 at least one measured value violated its
analytic bound.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial

from .errors import ConfigError, ConvergenceError, HamiltonianParseError, LimitExceededError
from .experiments import (
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
EXIT_PARSE = 2
EXIT_LIMITS = 3
EXIT_BOUND_VIOLATION = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="zenosim",
        description=(
            "Run measurement-driven (Zeno) Hamiltonian simulation sequences and "
            "baselines on a dense simulator and check every measured quantity "
            "against its analytic bound."
        ),
    )
    parser.add_argument("--hamiltonian", required=True, help="path to the Hamiltonian text file")
    parser.add_argument("--method", choices=tuple(METHODS), help="sequence or baseline to run")
    parser.add_argument("--t", type=float, required=True, help="evolution time")
    parser.add_argument("--n", type=int, help="fixed step count")
    parser.add_argument("--epsilon", type=float, help="target precision (resolves the step count)")
    parser.add_argument("--mode", choices=MODES, default="projected", help="execution mode")
    parser.add_argument("--shots", type=int, help="trajectories for sampled mode")
    parser.add_argument("--seed", type=int, default=0, help="base seed for sampled mode (shot i uses seed + i)")
    parser.add_argument("--sweep", help="comma-separated step counts, e.g. 10,20,40")
    parser.add_argument("--psi0", type=int, help="initial target state as a basis-state index")
    parser.add_argument("--format", choices=("json", "csv"), default="csv", help="output format")
    parser.add_argument("--out", help="output file path (defaults to stdout)")
    parser.add_argument("--compare", help="comma-separated method list to run side by side")
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
    parser = _build_parser()
    args = parser.parse_args(argv)

    try:
        sweep = _parse_sweep(args.sweep) if args.sweep else None
        if args.compare is None and args.method is None:
            raise ConfigError("either --method or --compare is required")

        config = ExperimentConfig(
            hamiltonian_path=args.hamiltonian,
            method=args.method,
            t=args.t,
            n=args.n,
            epsilon=args.epsilon,
            sweep=sweep,
            mode=args.mode,
            shots=args.shots,
            seed=args.seed,
            psi0=args.psi0,
            output_format=args.format,
            output_path=args.out,
        )

        # The branches differ only in what they run, their JSON renderer, --out summary and notes.
        if args.compare is not None:
            comparison = compare_methods(config, [m.strip() for m in args.compare.split(",") if m.strip()])
            results = tuple(comparison.results.values())
            to_json = partial(render_comparison_json, comparison)
            summary, notes = comparison.render(), comparison.notes
        else:
            result = run_experiment(config)
            results = (result,)
            to_json = partial(render_json, result)
            slope = "n/a" if result.fitted_slope is None else f"{result.fitted_slope:.4f}"
            summary = (
                f"{config.method}: {len(result.points)} point(s) written to {args.out} "
                f"(slope {slope}, bounds {'ok' if result.all_bounds_satisfied else 'VIOLATED'})"
            )
            notes = ()

        rendered = render_csv(*results) if args.format == "csv" else to_json()
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                    fh.write(rendered)
            except OSError as exc:
                print(f"zenosim: cannot write output: {exc}", file=sys.stderr)
                return EXIT_USAGE
            print(summary)
        else:
            sys.stdout.write(rendered)
            for note in notes:
                print(f"note: {note}", file=sys.stderr)
        return EXIT_OK if all(r.all_bounds_satisfied for r in results) else EXIT_BOUND_VIOLATION

    except FileNotFoundError as exc:
        print(f"zenosim: file not found: {exc.filename or exc}", file=sys.stderr)
        return EXIT_USAGE
    except IsADirectoryError as exc:
        print(f"zenosim: is a directory, not a file: {exc.filename or exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"zenosim: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConvergenceError as exc:
        print(f"zenosim: numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except HamiltonianParseError as exc:
        print(f"zenosim: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except LimitExceededError as exc:
        print(f"zenosim: limit exceeded: {exc}", file=sys.stderr)
        return EXIT_LIMITS


if __name__ == "__main__":
    sys.exit(main())
