import importlib.util
from pathlib import Path


def test_benchmark_tracer_installs_on_this_tree():
    # perfbench/run.py --trace 1 wraps every name in INNER at start-up and
    # stops if one is gone, so each must still exist here.
    path = Path(__file__).parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    originals = [(module, attr, getattr(module, attr)) for module, attr, _ in tracing.INNER]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(getattr(module, attr) is not fn for module, attr, fn in originals)
    finally:
        tracer.uninstall()
    assert all(getattr(module, attr) is fn for module, attr, fn in originals)
