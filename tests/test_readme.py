"""README's library quick start runs as written, and its output schema names the columns the CLI writes."""

import contextlib
import io
import re
from pathlib import Path

from zenosim.experiments import CSV_COLUMNS

README = Path(__file__).resolve().parent.parent / "README.md"


def _first_block(heading: str, language: str = "") -> str:
    section = README.read_text(encoding="utf-8").split(f"## {heading}", 1)[1]
    return re.search(f"```{language}\\n(.*?)```", section, re.DOTALL).group(1)


def quick_start_code() -> str:
    return _first_block("Library quick start", "python")


def test_quick_start_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(quick_start_code(), str(README), "exec"), {})
    assert len(out.getvalue().splitlines()) == 3


def test_output_schema_lists_the_csv_columns():
    # The block wraps the header line in two.
    assert _first_block("Output schema").replace("\n", "") == ",".join(CSV_COLUMNS)
