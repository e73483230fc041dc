"""Rules of the package layout that no other test sees: the package's
__init__ re-exports nothing, every import sits at module level, but for the
scipy imports that ctmc defers so that the CLI loads without scipy, the
synchronous limit does not depend on the asynchronous one, only model
reads the state budget, words the delta rule and the probe rule, tests the
rates against their bounds and writes the stationary level's formula, the
exact chain reads the policy kind only in its move table, the simulator has
one entry, a fluid run has one owner of its stored states and one start,
the async step path has one owner of its driver, of its step
rule and of its arrival move and calls no numpy method through a Python
wrapper, the simulator's per-event hooks
read no enum member, and only policies reads a random stream, through a
WordDraws that borrows no Generator method.  The modules are parsed, not
imported."""
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


def functions(tree):
    """Top-level function definitions of a module, by name."""
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def names(node):
    """Every name and attribute that node reads."""
    return {getattr(sub, "id", None) or getattr(sub, "attr", None) for sub in ast.walk(node)}


def test_only_driver_of_builds_the_async_driver():
    # u, n and zeta come from one rule: the capacity tolerance, the bisection
    # for n and the AsyncDriver result appear in driver_of alone, and
    # rhs_async asks driver_of rather than holding a copy
    funcs = functions(MODULES["fluid_async"])
    rule = {"CAP_TOL", "bisect_right", "AsyncDriver"}
    holders = {name for name, func in funcs.items() if names(func) & rule}
    assert holders == {"driver_of"}
    called = {sub.func.id for sub in ast.walk(funcs["rhs_async"])
              if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)}
    assert "driver_of" in called


def test_only_fluid_async_works_out_the_async_step():
    # fluid_async.step_for is the one rule for the RK4 step and its count:
    # no other module reads max_dt or prices the steps (model defines
    # check_step_budget and calls it nowhere)
    naming = {name for name, tree in MODULES.items() if "max_dt" in names(tree)}
    pricing = {name for name, tree in MODULES.items() for sub in ast.walk(tree)
               if isinstance(sub, ast.Call) and "check_step_budget" in names(sub.func)}
    assert naming == pricing == {"fluid_async"}


def test_rhs_async_moves_arrivals_by_arrive():
    # _arrive is the one code that takes arrivals out of a column and puts
    # them a queue level up in the next, for rhs_async and the stiff stages
    funcs = functions(MODULES["fluid_async"])
    callers = {name for name, func in funcs.items() for sub in ast.walk(func)
               if isinstance(sub, ast.Call) and getattr(sub.func, "id", None) == "_arrive"}
    assert callers == {"rhs_async", "_rk4"}


# ndarray methods that numpy routes through Python functions in numpy._core._methods
WRAPPED = {"sum", "prod", "any", "all", "min", "max", "mean", "var", "std", "clip", "ptp"}


def test_async_step_path_skips_numpy_python_wrappers():
    # a step on a small block costs numpy's per-call overhead, which a
    # wrapper adds to; np.add.reduce and np.logical_or.reduce go straight to C
    funcs = functions(MODULES["fluid_async"])
    wrapped = {(name, sub.func.attr)
               for name in ("rhs_async", "_rk4", "_advance")
               for sub in ast.walk(funcs[name])
               if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute)
               and sub.func.attr in WRAPPED}
    assert wrapped == set()


def test_only_model_words_the_delta_rule():
    # des and ctmc ask model.check_delta, so the agreement rule has one copy
    holders = {path.stem for path in PACKAGE.glob("*.py") if "disagrees with" in path.read_text()}
    assert holders == {"model"}


def test_only_model_words_the_probe_rule():
    # des and ctmc ask model.check_probes, so the d <= N rule has one copy
    holders = {path.stem for path in PACKAGE.glob("*.py")
               if "distinct servers, more than" in path.read_text()}
    assert holders == {"model"}
    callers = {name for name, tree in MODULES.items() for sub in ast.walk(tree)
               if isinstance(sub, ast.Call) and "check_probes" in names(sub.func)}
    assert callers == {"des", "ctmc"}


def test_ctmc_reads_the_policy_kind_only_in_its_table():
    # _table is the one place that maps a kind to its local states and moves
    tree = MODULES["ctmc"]
    table = functions(tree)["_table"]
    inside = set(map(id, ast.walk(table)))
    outside = {getattr(sub, "id", None) or getattr(sub, "attr", None)
               for sub in ast.walk(tree) if id(sub) not in inside}
    assert {"PolicyKind", "kind"} <= names(table)
    assert not {"PolicyKind", "kind"} & outside


def test_only_model_compares_the_rates_with_their_bounds():
    # every layer asks model.check_rates; cli's --lambda type and
    # policies.PARAM_RULES, which test_model ties to it, name their value x
    def rate_tests(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare):  # on its bare operands, not m_star's scan
                sides = [node.left, *node.comparators]
                named = {getattr(side, "id", None) or getattr(side, "attr", None) for side in sides}
                bounds = {side.value for side in sides if isinstance(side, ast.Constant)}
                if named & {"lam", "delta"} and (bounds & {0, 1} or "inf" in named):
                    yield node

    holders = {name for name, tree in MODULES.items() if any(rate_tests(tree))}
    assert holders == {"model"}


def test_one_way_to_run_the_simulator():
    # a single run is run_replications(config, 1), so the snapshot budget it
    # checks covers every run; only _share, under it, calls _run
    assert "run" not in functions(MODULES["des"])
    callers = {(module, name)
               for module, tree in MODULES.items()
               for name, func in functions(tree).items()
               for sub in ast.walk(func)
               if isinstance(sub, ast.Call) and "_run" in (getattr(sub.func, "id", None),
                                                           getattr(sub.func, "attr", None))}
    assert callers == {("des", "_share")}


def test_policy_hooks_read_no_enum_member():
    # the hooks run once or more per event, and PolicyKind.X costs a class
    # attribute lookup where the module global policies.X is a dict read
    hooks = functions(MODULES["policies"])
    [view] = [node for node in MODULES["policies"].body
              if isinstance(node, ast.ClassDef) and node.name == "DispatcherView"]
    methods = functions(view)
    bodies = {name: hooks[name] for name in
              ("dispatch", "on_assign", "on_update", "apply_global_update", "on_idle")}
    bodies |= {f"DispatcherView.{name}": methods[name] for name in ("set_estimate", "set_estimates")}
    bodies["des._run"] = functions(MODULES["des"])["_run"]
    reads = {(name, sub.attr) for name, body in bodies.items() for sub in ast.walk(body)
             if isinstance(sub, ast.Attribute) and getattr(sub.value, "id", None) == "PolicyKind"}
    assert reads == set()


def test_only_model_writes_the_level_formula():
    # every layer asks model.m_star, or default_jmax on top of it, so the
    # stationary level -log(1-lam)/log(1+delta) has one copy
    def level_formulas(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and "log1p" in names(node.func):
                if any("delta" in names(arg) for arg in node.args):
                    yield node

    holders = {name for name, tree in MODULES.items() if any(level_formulas(tree))}
    assert holders == {"model"}


def calls_of(name):
    """(module, top-level definition) for every call of name in the package,
    by bare name or as an attribute."""
    return {(module, getattr(node, "name", "<module>"))
            for module, tree in MODULES.items()
            for node in tree.body
            for sub in ast.walk(node)
            if isinstance(sub, ast.Call) and name in (getattr(sub.func, "id", None),
                                                      getattr(sub.func, "attr", None))}


def test_one_owner_of_a_fluid_runs_stored_states():
    # stored_stops refuses a run by its epochs before stops builds them and
    # by its stops after, so no caller of stops skips the budget; _run_start
    # is the one start, and the one FluidRun, of both integrators
    assert calls_of("stops") == {("fluid_sync", "stored_stops")}
    assert calls_of("FluidRun") == {("fluid_sync", "_run_start")}


def test_only_policies_reads_a_stream():
    # des hands policies its Generators: raw words and exponential draws are
    # read in policies alone, and a WordDraws takes nothing but its words
    readers = {name for name, tree in MODULES.items() for sub in ast.walk(tree)
               if isinstance(sub, ast.Attribute) and sub.attr in ("random_raw", "exponential")}
    assert readers == {"policies"}
    [draws] = [node for node in MODULES["policies"].body
               if isinstance(node, ast.ClassDef) and node.name == "WordDraws"]
    init = functions(draws)["__init__"].args
    assert [arg.arg for arg in init.args] == ["self", "next_word"]
    assert not (init.posonlyargs or init.kwonlyargs or init.vararg or init.kwarg)
