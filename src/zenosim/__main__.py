"""Process entry of ``python -m zenosim`` and of the ``zenosim`` script: ``run`` freezes the import-time heap, runs
``cli.main`` and returns its exit code.

A reader that closes stdout before the output is written ends the run with exit 1 and one stderr line, as an
``--out`` path that cannot be written does. Library callers and tests call ``cli.main(argv)``, which leaves the
garbage collector alone.
"""

import gc
import os
import sys

from .cli import EXIT_USAGE, main


def run(argv=None) -> int:
    # The objects the imports made (modules, functions, numpy's tables) live until exit, so no collection, the one at
    # interpreter shutdown included, needs to walk them.
    gc.freeze()
    try:
        try:
            return main(argv)
        finally:
            # Inside the try, so a closed pipe raises here and not at shutdown, also when main exits through
            # SystemExit (--help).
            sys.stdout.flush()
    except BrokenPipeError as exc:
        # Point stdout at devnull, so the flush at shutdown cannot raise again (the recipe in Python's signal docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"zenosim: cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(run())
