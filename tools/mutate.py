"""Mutation scan of one sparselb module: make one small change at a time and
see whether the tests notice.

The changes, at each site in the scanned functions:
- a comparison turns into its neighbour: < and <=, > and >=, == and !=,
  is and is not, in and not in;
- an arithmetic operator turns into another: + and -, * and /, // into *,
  % into //, ** into *, in expressions and augmented assignments;
- a number constant grows by one;
- a statement is dropped (replaced by pass).
Docstrings, annotations, decorators, defaults, f-strings and imports are
left alone; the bodies of nested functions are scanned.

Each mutant is spliced into the source text of a copy of the repository
(src, tests, tools, perfbench and pyproject.toml) in a temporary directory,
so every other line of the module stays as it is.  The module's own tests
(tests/test_MODULE.py, or --tests) run first and stop at the first failure;
a mutant that passes them runs the whole suite.  A mutant that passes both
survives.  The unmutated copy must pass both first, and each run that took
sets the timeout of its tests: TIMEOUT_FACTOR times its time, and at least
TIMEOUT_FLOOR seconds, unless --timeout gives one for every run.  A run
that outlasts its timeout counts as killed, so a mutant that never ends
costs seconds, not minutes.

    python3 tools/mutate.py MODULE [--only NAME ...] [--tests FILE ...] [--timeout S]

--only limits the scan to the named top-level functions, or classes.  The
scan prints one line per mutant and the survivors at the end, and exits
with status 1 if any survives.  It is not part of the test suite: a scan of
a whole module takes hours on two CPUs, so scan per module or per function.
"""
from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "tools", "perfbench", "pyproject.toml")
COMPARE = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
           ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
           ast.In: ast.NotIn, ast.NotIn: ast.In}
ARITH = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
         ast.FloorDiv: ast.Mult, ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult}
KEPT = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)
TIMEOUT_FACTOR, TIMEOUT_FLOOR = 10.0, 60.0


def _children(node: ast.AST):
    """The child nodes that a scan enters: none of f-strings, annotations,
    decorators or the defaults of arguments."""
    if isinstance(node, ast.JoinedStr):
        return
    for name, value in ast.iter_fields(node):
        if name not in ("annotation", "returns", "decorator_list"):
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, ast.AST) and not isinstance(child, ast.arguments):
                    yield child


def _sites(node: ast.AST):
    """(node, replacement text, label) for each mutant in node."""
    if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
        return  # a docstring
    if isinstance(node, ast.Compare):
        for k, op in enumerate(node.ops):
            if type(op) in COMPARE:
                ops = [*node.ops[:k], COMPARE[type(op)](), *node.ops[k + 1:]]
                new = ast.Compare(node.left, ops, node.comparators)
                yield node, f"({ast.unparse(new)})", f"{type(op).__name__} -> {type(ops[k]).__name__}"
    elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in ARITH:
        new = type(node)(**{**{f: getattr(node, f) for f in node._fields}, "op": ARITH[type(node.op)]()})
        text = ast.unparse(new)
        label = f"{type(node.op).__name__} -> {type(new.op).__name__}"
        yield node, text if isinstance(node, ast.AugAssign) else f"({text})", label
    elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
        yield node, f"({node.value!r} + 1)", f"{node.value!r} -> {node.value!r} + 1"
    if isinstance(node, ast.stmt) and not isinstance(node, KEPT):
        yield node, "pass", f"drop {type(node).__name__}"
    for child in _children(node):
        yield from _sites(child)


def mutants(source: str, only: set[str] | None):
    """(line, top-level name, label, mutated source) for each site in the
    top-level functions and classes of source, or those named in only."""
    data = source.encode()
    starts = [0]  # the byte offset of each line, as ast counts columns
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line.encode()))
    for top in ast.parse(source).body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and (not only or top.name in only):
            for stmt in top.body:
                for node, text, label in _sites(stmt):
                    a = starts[node.lineno - 1] + node.col_offset
                    b = starts[node.end_lineno - 1] + node.end_col_offset
                    yield node.lineno, top.name, label, (data[:a] + text.encode() + data[b:]).decode()


def timeout_for(seconds: float) -> float:
    """The timeout of a run of tests that took seconds on the unmutated copy."""
    return max(TIMEOUT_FLOOR, TIMEOUT_FACTOR * seconds)


def _passes(copy: Path, tests: list[str], timeout: float | None) -> float | None:
    """The seconds that tests took if they passed within timeout, else None."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": str(copy / "src")}
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                               *tests], cwd=copy, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None
    return time.perf_counter() - start if proc.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", help="a module of src/sparselb, such as fluid_sync")
    parser.add_argument("--only", nargs="+", metavar="NAME", help="top-level names to scan")
    parser.add_argument("--tests", nargs="+", metavar="FILE", help="the module's own tests")
    parser.add_argument("--timeout", type=float, default=None,
                        help="seconds per test run; default scaled from the unmutated runs")
    args = parser.parse_args(argv)
    own = args.tests or [f"tests/test_{args.module}.py"]
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, copy / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(src, copy / name)
        target = copy / "src" / "sparselb" / f"{args.module}.py"
        original = target.read_text()
        limits = []  # the timeouts of the module's own tests and of the suite
        for tests in (own, ["tests"]):
            took = _passes(copy, tests, args.timeout)
            if took is None:
                print(f"the unmutated code fails {' '.join(tests)}", file=sys.stderr)
                return 2
            limits.append(timeout_for(took) if args.timeout is None else args.timeout)
        own_limit, suite_limit = limits
        survivors, count = [], 0
        for count, (line, name, label, text) in enumerate(
                mutants(original, set(args.only) if args.only else None), 1):
            target.write_text(text)
            if _passes(copy, own, own_limit) is None:
                verdict = "killed"
            elif _passes(copy, ["tests"], suite_limit) is None:
                verdict = "killed by the suite"
            else:
                verdict = "survived"
            print(f"{count:4d}  {args.module}.py:{line}  {name}  {label}: {verdict}", flush=True)
            if verdict == "survived":
                survivors.append(f"{args.module}.py:{line}  {name}  {label}")
        target.write_text(original)
    print(f"{len(survivors)} of {count} survived")
    for entry in survivors:
        print("  " + entry)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
