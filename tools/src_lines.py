"""Count the lines of each module of src/sparselb as code, docstrings,
comments and blanks, and the totals.

A docstring line is any line of a module, class or function docstring
(found by ast).  Of the other lines, one holding a token other than a
comment is code, one holding only a comment is a comment, and the rest are
blank (found by tokenize).  A blank line inside a docstring is a docstring
line, and one inside any other string is code.  The four counts of a module
sum to its line count.

    python3 tools/src_lines.py [DIR]

DIR defaults to the package next to this script, src/sparselb.
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path
from typing import NamedTuple

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}


class Counts(NamedTuple):
    code: int
    docstrings: int
    comments: int
    blanks: int


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_lines(text: str) -> Counts:
    """The code, docstring, comment and blank line counts of one module."""
    doc = _docstring_lines(ast.parse(text))
    code, comment = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    kinds = [
        "docstrings" if n in doc else "code" if n in code else "comments" if n in comment
        else "blanks"
        for n in range(1, len(text.splitlines()) + 1)
    ]
    return Counts(*(kinds.count(kind) for kind in Counts._fields))


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "sparselb"
    rows = {path.name: count_lines(path.read_text()) for path in sorted(root.glob("*.py"))}
    rows["total"] = Counts(*(sum(column) for column in zip(*rows.values())))
    print(f"{'module':<16}{'lines':>7}" + "".join(f"{kind:>12}" for kind in Counts._fields))
    for name, counts in rows.items():
        print(f"{name:<16}{sum(counts):>7}" + "".join(f"{n:>12}" for n in counts))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
