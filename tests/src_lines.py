"""The size of ``src/`` at a base commit and in the working tree, in all lines and in code-only lines.

Code-only lines are those that are not blank, not only a comment and not part of a module, class or function
docstring. Prints one line per count, ``<count>: <base> -> <working tree> (<delta>)``.

Run from anywhere, with git on the path: ``python tests/src_lines.py <base-ref>``.
"""

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout


def code_lines(text: str) -> int:
    """Lines that are not blank, not only a comment and not part of a module, class or function docstring."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.Expr) \
                and isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str):
            docstrings.update(range(body[0].lineno, body[0].end_lineno + 1))
    return sum(1 for number, line in enumerate(text.splitlines(), 1)
               if number not in docstrings and line.strip() and not line.strip().startswith("#"))


def main(base: str):
    before = [git("show", f"{base}:{name}") for name in git("ls-tree", "-r", "--name-only", base, "--", "src").split()
              if name.endswith(".py")]
    after = [(ROOT / name).read_text(encoding="utf-8") for name in git("ls-files", "--", "src").split()
             if name.endswith(".py")]
    counts = {"src/ lines": lambda text: text.count("\n"),
              "src/ code-only lines (no docstrings, comments or blank lines)": code_lines}
    for label, count in counts.items():
        old, new = sum(map(count, before)), sum(map(count, after))
        print(f"{label}: {old} -> {new} ({new - old:+d})")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tests/src_lines.py <base-ref>")
    main(sys.argv[1])
