import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "mutate.py"
spec = importlib.util.spec_from_file_location("mutate", TOOL)
mutate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutate)


@pytest.mark.parametrize("seconds, timeout", [
    (0.0, 60.0), (5.9, 60.0), (6.0, 60.0), (15.0, 150.0), (100.0, 1000.0),
])
def test_timeout_is_ten_unmutated_runs_and_at_least_a_minute(seconds, timeout):
    assert mutate.timeout_for(seconds) == timeout


def _scan(monkeypatch, tmp_path, *flags: str) -> list:
    """The (tests, timeout) of each test run that a scan of a one-line
    module makes, with the runs faked: the unmutated code passes its own
    tests in 3 s and the suite in 20 s, and its one mutant (the return
    dropped) passes its own tests and fails the suite."""
    (tmp_path / "src" / "sparselb").mkdir(parents=True)
    (tmp_path / "src" / "sparselb" / "toy.py").write_text("def f(x):\n    return x\n")
    monkeypatch.setattr(mutate, "ROOT", tmp_path)
    monkeypatch.setattr(mutate, "COPIED", ("src",))
    runs = []

    def passes(copy, tests, timeout):
        runs.append((tests, timeout))
        suite = tests == ["tests"]
        if "return x" not in (copy / "src" / "sparselb" / "toy.py").read_text():
            return None if suite else 3.0
        return 20.0 if suite else 3.0

    monkeypatch.setattr(mutate, "_passes", passes)
    assert mutate.main(["toy", *flags]) == 0  # the one mutant is killed by the suite
    return runs


def test_each_run_times_out_at_ten_unmutated_runs(monkeypatch, tmp_path):
    own = ["tests/test_toy.py"]
    assert _scan(monkeypatch, tmp_path) == [
        (own, None), (["tests"], None), (own, 60.0), (["tests"], 200.0)]


def test_timeout_flag_sets_every_run(monkeypatch, tmp_path):
    own = ["tests/test_toy.py"]
    assert _scan(monkeypatch, tmp_path, "--timeout", "7") == [
        (own, 7.0), (["tests"], 7.0), (own, 7.0), (["tests"], 7.0)]
