import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "line_count.py"
spec = importlib.util.spec_from_file_location("line_count", SCRIPT)
line_count = importlib.util.module_from_spec(spec)
spec.loader.exec_module(line_count)

SOURCE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its line


def f(x):
    """One-line docstring."""
    # a comment line
    return math.sqrt(
        x)


class C:
    """Docstring."""

    label = """a string that is not a docstring"""
'''


def test_code_lines_leave_out_docstrings_comments_and_blank_lines():
    # import, def, return over two lines, class and the assigned string
    assert line_count.code_lines(SOURCE) == 6


def test_the_total_row_sums_the_modules_but_the_ordering_data(tmp_path):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    (tmp_path / "ordering_data.py").write_text("y = 2\n")
    rows = line_count.count_rows(tmp_path)
    assert [r[0] for r in rows] == ["a.py", "b.py", "total"]
    assert rows[-1][1:] == (len(SOURCE.splitlines()) + 3, 7)
