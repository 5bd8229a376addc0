"""Traced entry point: ``python traced_cli.py <spans.json> <invocation id> <zenosim args...>``.

Installs the span wrappers, runs ``zenosim.cli.main`` with the given
arguments and writes the spans when the CLI exits, whether it returns or
raises. Exit codes and tracebacks are those of ``python -m zenosim``.
"""

import sys
import traceback

from spans import Recorder


def main() -> None:
    out, invocation, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    recorder = Recorder(invocation)
    recorder.install()
    from zenosim import cli

    try:
        code = cli.main(argv)
    except BaseException as exc:
        # Release the failed call's locals (a MemoryError may hold the
        # memory cap's worth of arrays) before writing the spans.
        traceback.clear_frames(exc.__traceback__)
        recorder.dump(out)
        raise
    recorder.dump(out)
    sys.exit(code)


if __name__ == "__main__":
    main()
