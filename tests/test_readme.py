"""README's library quick start runs as written, its output schema names the columns the CLI writes, and its mode
table is the method table."""

import contextlib
import io
import re
from functools import partial
from pathlib import Path

from zenosim.experiments import CSV_COLUMNS, METHODS

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


def test_mode_table_lists_each_methods_modes_in_table_order():
    # The first mode listed is the one a run without --mode runs in, so the order is checked, not only the set.
    table = README.read_text(encoding="utf-8").split("| method | modes |", 1)[1].split("\n\n", 1)[0]
    rows = re.findall(r"^ *\| (`.*`) \| (`.*`) \|$", table, re.MULTILINE)
    names = partial(re.findall, r"`(\w+)`")
    listed = [(method, tuple(names(modes))) for methods, modes in rows for method in names(methods)]
    assert sorted(listed) == sorted((method, row[0]) for method, row in METHODS.items())
