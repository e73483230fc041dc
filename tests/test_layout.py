"""Rules of the package layout that no other test sees: the package's
__init__ re-exports nothing, every import sits at module level, but for the
scipy imports that ctmc defers so that the CLI loads without scipy, the
synchronous limit does not depend on the asynchronous one, and only model
reads the state budget.  The modules are parsed, not imported."""
import ast
import importlib.util
from pathlib import Path

PACKAGE = Path(importlib.util.find_spec("sparselb").origin).parent
MODULES = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}


def imports(tree):
    """(node, module name) for every import in tree, relative names with
    their dots; "from . import x" reads module ".x"."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            yield node, base
            if not node.module:
                yield from ((node, base + alias.name) for alias in node.names)


def test_package_init_holds_only_its_docstring():
    # callers import the submodules; a second import surface would drift
    [node] = MODULES["__init__"].body
    assert isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)


def test_no_import_inside_a_function():
    deferred = {(name, module)
                for name, tree in MODULES.items()
                for func in ast.walk(tree)
                if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                for _, module in imports(func)}
    assert deferred == {("ctmc", "scipy.sparse"), ("ctmc", "scipy.sparse.linalg")}


def test_fluid_sync_imports_nothing_from_fluid_async():
    modules = [module for _, module in imports(MODULES["fluid_sync"])]
    assert modules and not any(module.endswith("fluid_async") for module in modules)


def test_only_model_names_the_state_budget():
    # every other layer asks model.check_state_budget, so the byte rule has one copy
    naming = {name for name, tree in MODULES.items() for node in ast.walk(tree)
              if "MAX_STATE_BYTES" in (getattr(node, "id", None), getattr(node, "attr", None),
                                       getattr(node, "name", None))}
    assert naming == {"model"}
