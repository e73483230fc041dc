import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sparselb
from sparselb import cli
from sparselb.cli import main


def run_cli(args):
    return main(args)


def test_fixed_point_json(tmp_path):
    out = tmp_path / "fp.json"
    assert run_cli(["fixed-point", "--lambda", "0.7", "--delta", "0.85",
                    "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["m_star"] == 1
    assert doc["nu"] == pytest.approx(4.272592788435048, abs=1e-8)
    assert doc["q_tilde"] == pytest.approx(1.072318373869227, abs=1e-8)
    assert doc["residual"] < 1e-8
    assert doc["m_star_det"] == 1
    total = sum(v for _, _, v in doc["y_star"])
    assert total == pytest.approx(1.0, abs=1e-9)


def test_fixed_point_sweep_monotone(tmp_path):
    out = tmp_path / "sweep.csv"
    grid = [f"{d:g}" for d in np.linspace(0.15, 2.25, 8)]
    assert run_cli(["fixed-point", "--lambda", "0.7", "--delta-grid", *grid,
                    "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "delta,m_star,nu,q_tilde"
    rows = [line.split(",") for line in lines[1:]]
    q_vals = [float(r[3]) for r in rows]
    assert all(a > b for a, b in zip(q_vals, q_vals[1:]))
    for r in rows:
        m, d, q = int(r[1]), float(r[0]), float(r[3])
        assert m - 0.7 / d - 1e-9 <= q <= m + 1 - 0.7 / d + 1e-9


def test_fixed_point_known_value(tmp_path):
    out = tmp_path / "fp.json"
    run_cli(["fixed-point", "--lambda", "0.5", "--delta", "1.0", "--out", str(out)])
    doc = json.loads(out.read_text())
    assert doc["q_tilde"] == pytest.approx(0.5, abs=1e-9)


def test_fluid_sync_csv_sawtooth(tmp_path):
    out = tmp_path / "traj.csv"
    assert run_cli(["fluid", "sync", "--lambda", "0.7", "--delta", "0.85",
                    "--t-end", "4", "--grid-dt", "0.05", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,i,j,y"
    rows = [line.split(",") for line in lines[1:]]
    # w_1 rises between epochs and collapses at the first epoch (t=1/0.85)
    w1 = {}
    for t, i, j, y in rows:
        if j == "1":
            w1[float(t)] = w1.get(float(t), 0.0) + float(y)
    epoch = 1 / 0.85
    before = max(t for t in w1 if t < epoch - 0.01)
    assert w1[before] == pytest.approx(0.7 * before, abs=1e-6)
    just_after = min(t for t in w1 if t > epoch + 0.01)
    assert w1[just_after] < w1[before]


def test_fluid_async_constant_from_fixed_point(tmp_path):
    out = tmp_path / "traj.csv"
    assert run_cli(["fluid", "async", "--lambda", "0.7", "--delta", "2.5",
                    "--t-end", "2", "--grid-dt", "0.5", "--dt", "0.004",
                    "--y0", "fixed-point", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()[1:]
    by_time = {}
    for line in lines:
        t, i, j, y = line.split(",")
        by_time.setdefault(float(t), {})[(int(i), int(j))] = float(y)
    times = sorted(by_time)
    first, last = by_time[times[0]], by_time[times[-1]]
    for key in first:
        assert last.get(key, 0.0) == pytest.approx(first[key], abs=1e-6)


def test_simulate_json(tmp_path):
    out = tmp_path / "sim.json"
    assert run_cli(["simulate", "--policy", "jsq-d:2", "--n", "50",
                    "--lambda", "0.7", "--horizon", "100", "--seed", "4",
                    "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["msgs_per_job"] == 4.0
    assert doc["mean_wait"] >= 0.0


def test_sweep_csv_schema_and_determinism(tmp_path):
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    args = ["sweep", "--n", "30", "--lambda", "0.7",
            "--policies", "sujsq-det", "random", "jsq-d:2",
            "--sweep", "0.5", "1.0", "--runs", "2",
            "--horizon", "60", "--warmup", "12", "--seed", "5"]
    assert run_cli(args + ["--out", str(out1)]) == 0
    assert run_cli(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().strip().splitlines()
    assert lines[0] == "policy,param,msgs_per_job,mean_wait,mean_queue,ci_halfwidth"
    rows = [line.split(",") for line in lines[1:]]
    # sorted by (policy, param); parameterless rows appear once
    keys = [(r[0], float(r[1]) if r[1] else -1.0) for r in rows]
    assert keys == sorted(keys)
    assert sum(1 for r in rows if r[0] == "random") == 1
    assert sum(1 for r in rows if r[0] == "sujsq-det") == 2
    jsq = [r for r in rows if r[0] == "jsq-d"]
    assert len(jsq) == 1 and float(jsq[0][2]) == 4.0


def test_sweep_default_policies(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run_cli(["sweep", "--n", "20", "--runs", "2", "--horizon", "50",
                    "--warmup", "10", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    jsq = [r for r in rows if r[0] == "jsq-d"]
    assert len(jsq) == 1 and float(jsq[0][2]) == 4.0


def test_sweep_refuses_bare_jsq_d(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        run_cli(["sweep", "--n", "20", "--policies", "jsq-d", "--runs", "2",
                 "--horizon", "50", "--warmup", "10",
                 "--out", str(tmp_path / "sweep.csv")])
    assert exit_info.value.code == 2
    assert "explicit integer d" in capsys.readouterr().err


def test_sweep_refuses_bad_policy_before_simulating(monkeypatch):
    # jiq-p:1.4 is no probability; the refusal comes before random is run
    args = ["sweep", "--n", "20", "--runs", "2", "--horizon", "50", "--warmup", "10",
            "--policies", "random", "jiq-p", "--sweep", "0.5", "1.4"]
    simulated = []
    monkeypatch.setattr(sparselb.des, "run_replications",
                        lambda *a: simulated.append(a))
    with pytest.raises(SystemExit) as exit_info:
        run_cli(args)
    assert exit_info.value.code == 2
    assert simulated == []
    env = {**os.environ, "PYTHONPATH": str(Path(sparselb.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "sparselb.cli", *args],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "jiq-p" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_sweep_config_file_with_overrides(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "n": 20, "lam": 0.6, "policies": ["random"],
        "sweep": [1.0], "runs": 2, "horizon": 50.0, "warmup": 10.0,
        "seed": 9, "out": str(tmp_path / "from_config.csv"),
    }))
    assert run_cli(["sweep", "--config", str(cfg)]) == 0
    assert (tmp_path / "from_config.csv").exists()
    # flag overrides the file's output path
    other = tmp_path / "override.csv"
    assert run_cli(["sweep", "--config", str(cfg), "--out", str(other)]) == 0
    assert other.exists()



def test_sweep_manifest_reads_as_flags(tmp_path, capsys):
    # A manifest gives the same bytes as its flags; a flag after it wins.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 20, "lam": 0.6, "policies": ["random", "sujsq-det"],
                               "sweep": [1.0, 0.5], "runs": 2, "horizon": 50.0}))
    flags = ["--n", "20", "--lambda", "0.6", "--policies", "random", "sujsq-det",
             "--sweep", "1.0", "0.5", "--runs", "2", "--horizon", "50.0"]
    outputs = []
    for argv in (["--config", str(cfg)], flags, ["--config", str(cfg), "--runs", "3"],
                 [*flags, "--runs", "3"]):
        assert run_cli(["sweep", *argv, "--warmup", "10"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] != outputs[2] == outputs[3]


def test_sweep_one_run_leaves_the_interval_empty(capsys):
    assert run_cli(["sweep", "--n", "20", "--policies", "random", "jiq-p", "--sweep", "0.5",
                    "--runs", "1", "--horizon", "50", "--warmup", "10"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert [(r[0], r[1], r[5]) for r in rows] == [("jiq-p", "0.5", ""), ("random", "", "")]


def test_fluid_rerun_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["fluid", "async", "--lambda", "0.7", "--delta", "0.85",
            "--t-end", "3", "--grid-dt", "0.2", "--dt", "0.01"]
    run_cli(args + ["--out", str(a)])
    run_cli(args + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_fluid_initial_state_from_file(tmp_path):
    state = tmp_path / "y0.json"
    state.write_text(json.dumps({"entries": [[0, 0, 0.3], [1, 1, 0.7]]}))
    out = tmp_path / "traj.csv"
    assert run_cli(["fluid", "sync", "--lambda", "0.7", "--delta", "2.5",
                    "--t-end", "0.8", "--grid-dt", "0.4",
                    "--y0", str(state), "--out", str(out)]) == 0
    first = out.read_text().strip().splitlines()[1]
    assert first == "0,0,0,0.3"


def test_fluid_des_overlay(tmp_path):
    out = tmp_path / "traj.csv"
    assert run_cli(["fluid", "async", "--lambda", "0.7", "--delta", "0.85",
                    "--t-end", "2", "--grid-dt", "0.5", "--dt", "0.01",
                    "--n", "100", "--des-runs", "2", "--seed", "8",
                    "--out", str(out)]) == 0
    overlay = tmp_path / "traj_des.csv"
    assert overlay.exists()
    lines = overlay.read_text().strip().splitlines()
    assert lines[0] == "t,i,j,y"
    # simulated fractions stay in [0, 1] and sum to 1 per time point
    sums = {}
    for line in lines[1:]:
        t, _, _, y = line.split(",")
        sums[t] = sums.get(t, 0.0) + float(y)
    assert all(abs(s - 1.0) < 1e-9 for s in sums.values())


def test_validate_smoke_passes(tmp_path):
    out = tmp_path / "report.json"
    rc = run_cli(["validate", "--budget", "smoke", "--seed", "3",
                  "--out", str(out)])
    doc = json.loads(out.read_text())
    assert rc == 0, doc
    assert doc["passed"]
    assert [c["name"] for c in doc["checks"]] == [
        "poisson_ab_identity",
        "poisson_a_ratio_monotone",
        "queue_bound_is_minimal",
        "fixed_point_residual",
        "sync_trajectory_checks",
        "fluid_vs_des_supnorm",
        "ctmc_vs_des_tv",
    ]


def test_validate_failing_check_exits_1(tmp_path, monkeypatch):
    monkeypatch.setattr(sparselb.checks, "fluid_des_distance", lambda *a: 1.0)
    out = tmp_path / "report.json"
    rc = run_cli(["validate", "--budget", "smoke", "--seed", "3", "--out", str(out)])
    assert rc == 1
    doc = json.loads(out.read_text())
    assert not doc["passed"]
    assert [c["name"] for c in doc["checks"] if not c["passed"]] == ["fluid_vs_des_supnorm"]


def test_validate_stable_across_seeds(tmp_path):
    results = []
    for seed in (3, 4, 5):
        out = tmp_path / f"r{seed}.json"
        rc = run_cli(["validate", "--budget", "smoke", "--seed", str(seed),
                      "--out", str(out)])
        results.append(rc)
    assert results == [0, 0, 0]


def test_cli_import_loads_no_scipy():
    # scipy costs about 0.35 s to import; only building a chain needs it
    code = ("import sys, sparselb, sparselb.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(sparselb.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout
    assert out.strip() == "[]"


class ReadRecorder(argparse.Namespace):
    """A namespace that remembers which of its attributes were read."""

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "__dict__").setdefault("_read", set()).add(name)
        return object.__getattribute__(self, name)


@pytest.mark.parametrize("argv", [
    ["sweep", "--n", "10", "--policies", "random", "--runs", "2", "--horizon", "20",
     "--warmup", "5"],
    ["fluid", "sync", "--t-end", "0.4", "--grid-dt", "0.2", "--des-runs", "1",
     "--n", "10"],
    ["fixed-point"],
    ["simulate", "--policy", "random", "--n", "10", "--horizon", "20"],
    ["validate", "--budget", "smoke"],
    ["fluid", "async", "--dt", "0.01", "--t-end", "0.4", "--grid-dt", "0.2",
     "--des-runs", "1", "--n", "10"],
])
def test_every_flag_is_read(argv, monkeypatch, tmp_path):
    # validate's checks are stubbed: its flags are read when they are passed
    monkeypatch.setattr(cli, "_validate_checks", lambda *a: sparselb.fluid_sync.CheckReport())
    argv = [*argv, "--out", str(tmp_path / "out")]
    args = cli.build_parser().parse_args(argv, namespace=ReadRecorder())
    vars(args)["_read"] = set()
    monkeypatch.setattr(cli, "build_parser", lambda: argparse.Namespace(parse_args=lambda _: args))
    assert main(argv) == 0
    assert set(vars(args)) - {"_read"} - vars(args)["_read"] == set()


def test_removed_flags_are_refused():
    for argv in (["fixed-point", "--seed", "2"],
                 ["simulate", "--policy", "aujsq-exp:0.85", "--delta", "0.5"],
                 ["validate", "--lambda", "0.5"], ["validate", "--delta", "0.5"]):
        with pytest.raises(SystemExit):
            main(argv)


@pytest.mark.parametrize("delta", ["0.85", "0.5"])
def test_fixed_point_delta_and_grid_exclude_each_other(delta, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["fixed-point", "--delta", delta, "--delta-grid", "0.5", "1.0"])
    assert exit_info.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_fluid_overlay_simulates_the_exact_delta(monkeypatch, tmp_path):
    seen = []
    real = sparselb.des.run_replications
    monkeypatch.setattr(sparselb.des, "run_replications",
                        lambda config, runs: seen.append(config) or real(config, runs))
    assert run_cli(["fluid", "sync", "--delta", "0.123456789", "--t-end", "0.4",
                    "--grid-dt", "0.2", "--des-runs", "1", "--n", "10",
                    "--out", str(tmp_path / "traj.csv")]) == 0
    assert seen[0].policy.delta == 0.123456789


def test_sweep_points_keep_the_exact_value():
    assert cli._sweep_specs("sujsq-det", [0.1234567])[0].delta == 0.1234567


# --y0 files that cannot be read as a state on the grid of jmax = 40
Y0_FILES = {
    "negative.json": '{"entries": [[-2, -2, 0.5], [0, 0, 0.5]]}',
    "above-jmax.json": '{"entries": [[41, 41, 0.5], [0, 0, 0.5]]}',
    "below-diagonal.json": '{"entries": [[2, 1, 0.5], [0, 0, 0.5]]}',
    "not-json.json": '{"entries": [[0, 0, 1.0]',
}


def refused(argv, monkeypatch, capsys):
    """The stderr of an argv that must exit 2 with nothing run or written."""
    ran = []
    for module, name in ((sparselb.des, "run_replications"),
                         (sparselb.fluid_sync, "integrate_sync"),
                         (sparselb.fluid_async, "integrate_async")):
        monkeypatch.setattr(module, name, lambda *a, name=name, **k: ran.append(name))
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert ran == []
    out, err = capsys.readouterr()
    assert out == ""
    return err


@pytest.mark.parametrize("argv, flag", [
    (["fluid", "sync", "--dt", "0.001"], "--dt"),
    (["fluid", "async", "--grid-dt", "0"], "--grid-dt"),
    (["fluid", "sync", "--t-end", "0"], "--t-end"),
    (["fluid", "sync", "--t-end", "-1"], "--t-end"),
    (["fluid", "sync", "--des-runs", "-1"], "--des-runs"),
    (["fluid", "sync", "--lambda", "1.2"], "--lambda"),
    (["fluid", "async", "--delta", "0"], "--delta"),
    (["fluid", "async", "--dt", "0"], "--dt"),
    (["sweep", "--name", "demo"], "--name"),
    (["sweep", "--runs", "0"], "--runs"),
    (["simulate", "--policy", "random", "--runs", "0"], "--runs"),
    (["simulate", "--policy", "random", "--runs", "-2"], "--runs"),
    (["fluid", "async", "--dt", "0.5"], "--dt"),
    (["fluid", "async", "--delta", "2.5", "--dt", "0.005"], "--dt"),
    (["simulate", "--policy", "random", "--lambda", "1.5"], "--lambda"),
    (["fixed-point", "--lambda", "1.2"], "--lambda"),
    (["fixed-point", "--delta", "0"], "--delta"),
    (["sweep", "--n", "0"], "--n"),
    (["simulate", "--policy", "random", "--n", "0"], "--n"),
    (["fluid", "async", "--jmax", "-3"], "--jmax"),
    (["simulate", "--policy", "bogus"], "--policy"),
    (["simulate", "--policy", "jsq-d:5", "--n", "2"], "--policy"),
    (["simulate", "--policy", "random", "--horizon", "10", "--warmup", "20"], "--warmup"),
    (["sweep", "--policies", "sujsq-det", "--sweep", "0"], "--sweep"),
    (["simulate", "--policy", "random", "--horizon", "inf"], "--horizon"),
    (["sweep", "--horizon", "0"], "--horizon"),
    (["simulate", "--policy", "sujsq-det:inf", "--n", "5", "--horizon", "10"], "--policy"),
    (["sweep", "--sweep", "inf"], "--sweep"),
    (["fixed-point", "--delta", "1e-5"], "--delta"),
    (["fixed-point", "--delta-grid", "0.5", "1e-5"], "--delta-grid"),
    (["fluid", "sync", "--y0", "fixed-point", "--delta", "1e-5"], "--delta"),
    (["fluid", "async", "--y0", "fixed-point", "--delta", "0.05", "--jmax", "5"], "--y0"),
    *((["fluid", "sync", "--y0", name, "--jmax", "40", "--t-end", "0.2"], "--y0")
      for name in ("negative.json", "above-jmax.json", "below-diagonal.json",
                   "not-json.json", "missing.json")),
])
def test_bad_inputs_are_refused(argv, flag, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, text in Y0_FILES.items():
        (tmp_path / name).write_text(text)
    assert flag in refused(argv, monkeypatch, capsys)


def test_fluid_refuses_states_over_the_memory_budget(monkeypatch, capsys, tmp_path):
    need = 101 * 8 * 41 ** 2  # the default run stores 101 states on jmax = 40
    monkeypatch.setattr(sparselb.fixed_point, "MAX_STATE_BYTES", need - 1)
    monkeypatch.setattr(cli, "_initial_state", lambda *a: pytest.fail("y0 was built"))
    assert "--jmax/--delta/--t-end/--grid-dt" in refused(["fluid", "sync"], monkeypatch, capsys)
    monkeypatch.undo()
    monkeypatch.setattr(sparselb.fixed_point, "MAX_STATE_BYTES", need)
    assert main(["fluid", "sync", "--out", str(tmp_path / "traj.csv")]) == 0


def test_fluid_counts_every_des_stack_against_the_budget(monkeypatch, capsys, tmp_path):
    # the fluid states, the two runs' snapshot stacks and their mean
    need = 4 * 101 * 8 * 41 ** 2
    argv = ["fluid", "sync", "--des-runs", "2", "--n", "10"]
    monkeypatch.setattr(sparselb.fixed_point, "MAX_STATE_BYTES", need - 1)
    monkeypatch.setattr(cli, "_initial_state", lambda *a: pytest.fail("y0 was built"))
    assert "--des-runs" in refused(argv, monkeypatch, capsys)
    monkeypatch.undo()
    monkeypatch.setattr(sparselb.fixed_point, "MAX_STATE_BYTES", need)
    assert main(argv + ["--out", str(tmp_path / "traj.csv")]) == 0
    assert (tmp_path / "traj_des.csv").read_text().startswith("t,i,j,y\n")


@pytest.mark.parametrize("manifest, named", [
    ({"name": "demo"}, "'name'"),
    ({"nme": 3}, "'nme'"),
    ({"n": 20, "warmup": None}, "'warmup'"),
    ({"n": "ten"}, "--n"),
    ({"n": 20.5}, "--n"),
    ({"runs": [2, 3]}, "unrecognized arguments: 3"),
    ({"policies": []}, "--policies"),
    ({"config": "other.json"}, "'config'"),
    ([["--n", "20"]], "JSON object"),
])
def test_bad_manifests_are_refused(manifest, named, tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(manifest))
    assert named in refused(["sweep", "--config", str(cfg)], monkeypatch, capsys)
