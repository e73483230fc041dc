import importlib.util
from pathlib import Path

import pytest

import sparselb

TOOL = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"
spec = importlib.util.spec_from_file_location("src_lines", TOOL)
src_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(src_lines)

# Lines 1-2, 8: docstrings; 3, 7, 9-12: code (10 is a blank line inside a
# plain string); 5: a comment; 4, 6: blank.
SAMPLE = '''"""Module docstring,
over two lines."""
import os  # a trailing comment: the line is code

# a comment line

def f(x):
    """One-line docstring."""
    s = """a plain string

    with a blank line inside"""
    return x
'''


def test_a_hand_counted_sample_is_classified_right():
    assert src_lines.count_lines(SAMPLE) == src_lines.Counts(
        code=6, docstrings=3, comments=1, blanks=2)


@pytest.mark.parametrize("path", sorted(Path(sparselb.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_each_module_counts_sum_to_its_lines(path):
    text = path.read_text()
    assert sum(src_lines.count_lines(text)) == len(text.splitlines())


def test_the_report_ends_with_the_totals(capsys):
    assert src_lines.main([str(Path(sparselb.__file__).parent)]) == 0
    *modules, total = capsys.readouterr().out.splitlines()[1:]
    columns = [list(map(int, row.split()[1:])) for row in modules]
    assert total.split()[0] == "total"
    assert list(map(int, total.split()[1:])) == [sum(c) for c in zip(*columns)]
