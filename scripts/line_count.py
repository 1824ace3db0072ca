"""Count the lines of each module of ``src/pcpkit`` outside ``ordering_data.py``: all
lines, and code lines, which leave out docstrings, comments and blank lines.

    python scripts/line_count.py

Prints one row per module and a total.  Informational: it sets no threshold.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pcpkit"
EXCLUDED = "ordering_data.py"       # the stored ordering tables: data, not code


def code_lines(source: str) -> int:
    """The number of lines holding code: a line counts when a token other than a
    comment, a docstring or a line break starts or runs through it."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER, tokenize.ENCODING}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in skip:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def count_rows(package: Path = PACKAGE) -> list[tuple[str, int, int]]:
    """``(module, lines, code lines)`` for each module of ``package`` but ``EXCLUDED``,
    by name, then ``("total", ...)``."""
    rows = []
    for path in sorted(package.glob("*.py")):
        if path.name != EXCLUDED:
            source = path.read_text()
            rows.append((path.name, len(source.splitlines()), code_lines(source)))
    return rows + [("total", sum(r[1] for r in rows), sum(r[2] for r in rows))]


if __name__ == "__main__":
    rows = count_rows()
    width = max(len(r[0]) for r in rows)
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}")
    for name, total, code in rows:
        print(f"{name:<{width}}  {total:>6}  {code:>6}")
