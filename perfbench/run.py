"""Benchmark of sparselb at the three scales of the model.

    python3 perfbench/run.py --workload sweep|mean-field|small-n|all \
        [--seed 1] [--trace 0|1] [--seconds 30]

Run it from the root of a checkout; sparselb is imported from src/ there.
Each workload runs in a child process of its own (perfbench/workloads.py),
with the BLAS threads pinned.  SETUP_PROBES more children, half before and
half after it, stop at the first layer call, so that set-up time is a
median of several starts at different moments.  Each start is scaled by
the start of a bare Python process that imports numpy, timed before and
after it (see reference.py).

A run makes one pass of fixed size, 15 to 23 s of wall_s, so that wall_s of
any two runs times the same work.  wall_s is in seconds of the reference
host at its fast speed: the workload times a fixed reference load
(reference.py) between its calls and scales each call by it (see Ledger in
workloads.py).
--seconds is accepted because BENCHMARK.json's run_seconds is passed with
it; it does not change the run.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics for --trace 0, the
per-layer metrics of a traced pass for --trace 1.  The lines before it
report the same run for a reader, with the check values.  Seed 1 is the
default; seed 2 is held out for confirming a claimed gain.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import START_REF_S, timed_start

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOADS = ("sweep", "mean-field", "small-n")
SETUP_PROBES = 8
RUN_TIMEOUT_S = 170.0  # all children of one workload's run together

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}  # name -> unit
# Printed for a reader but not part of the JSON result.  fail_share is zero
# when all is well, and the JSON carries attempted and failed.
# fluid_to_tol_s and chain_solve_s apply to one workload each.  jobs_per_s
# is the simulator's part of wall_s, timed the same way; the bound on
# wall_s covers it.
REPORT_ONLY = {
    "jobs_per_s": "jobs/s",
    "fail_share": "ratio",
    "fluid_to_tol_s": "s",
    "chain_solve_s": "s",
}
LAYER_UNITS = {
    "des.busy_s": "s",
    "des.jobs": "count",
    "des.self_s": "s",
    "policies.dispatch.calls": "count",
    "policies.dispatch.busy_s": "s",
    "policies.dispatch.us_per_call": "us",
    "policies.bookkeeping.busy_s": "s",
    "fluid_sync.busy_s": "s",
    "fluid_sync.rhs_evals": "count",
    "fluid_sync.switch_splits": "count",
    "fluid_sync.units_per_s": "1/s",
    "fluid_async.busy_s": "s",
    "fluid_async.rhs_evals": "count",
    "fluid_async.switch_splits": "count",
    "fluid_async.units_per_s": "1/s",
    "fixed_point.calls": "count",
    "fixed_point.us_per_solve": "us",
    "ctmc.states": "count",
    "ctmc.nnz": "count",
    "ctmc.generator_mb_computed": "MB",
    "ctmc.build_s": "s",
    "ctmc.solve_s": "s",
    "check.busy_s": "s",
    "trace.overhead_share": "ratio",
    "trace.coverage": "ratio",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    # The dense LAPACK solve in ctmc.stationary is the only multi-threaded
    # call; two threads at most, and never more than the CPUs we may use.
    threads = str(min(2, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def run_child(args: list[str], deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "workloads.py"), *args, "--t0", repr(time.monotonic())]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, trace: int) -> dict:
    base = ["--workload", workload, "--seed", str(seed)]
    probes = SETUP_PROBES // 2 if not trace else 0
    deadline = time.monotonic() + RUN_TIMEOUT_S

    def setup_times():
        """Set-up times of children that stop at the first layer call,
        each scaled by START_REF_S over the mean of the bare starts around
        it."""
        def bare_start():
            return timed_start(child_env(), max(1.0, deadline - time.monotonic()))

        starts, times = [bare_start()], []
        for _ in range(probes):
            seconds = run_child(base + ["--setup-only"], deadline)["setup_s"]
            starts.append(bare_start())
            times.append(seconds * START_REF_S / (0.5 * (starts[-2] + starts[-1])))
        return times

    setups = setup_times()
    out = run_child(base + ["--trace", str(trace)], deadline)
    setups += setup_times()
    passes = out["passes"]  # the first one is untraced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    report = {
        "jobs_per_s": passes[0]["jobs"] / passes[0]["des_s"],
        "fail_share": failed / attempted,
        "fluid_to_tol_s": passes[0]["fluid_s"],
        "chain_solve_s": passes[0]["chain_s"],
    }
    if trace:
        metrics = out["layers"]
    else:
        metrics = {
            "wall_s": passes[0]["wall_s"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": out["peak_rss_mb"],
        }
    units = LAYER_UNITS if trace else END_TO_END
    return {
        "workload": workload,
        "seed": seed,
        "env": out["env"],
        "passes": passes,
        "report": report,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        },
    }


def print_report(res: dict) -> None:
    print(f"# workload {res['workload']}  seed {res['seed']}")
    print("# env " + json.dumps(res["env"]))
    for p in res["passes"]:
        for name, value in p["checks"].items():
            print(f"#   check {name}: {json.dumps(value)}")
        for label, rate in p["jobs_per_s"].items():
            print(f"#   jobs/s {label}: {rate:.0f}")
        for failure in p["failures"]:
            print(f"#   FAILED {failure}")
        probes = p["probes"]
        print(
            f"#   speed probes: {probes['count']} in {probes['seconds']:.2f} s; reference load "
            "min/median/max " + "/".join(f"{r * 1e3:.2f}" for r in probes["reference_s"]) + " ms"
        )
        if probes["wide_s"]:
            print("#   wide reference load min/median/max " + "/".join(f"{r * 1e3:.2f}" for r in probes["wide_s"]) + " ms")
        if probes["lapack_s"]:
            print("#   LAPACK load: " + ", ".join(f"{r * 1e3:.1f}" for r in probes["lapack_s"]) + " ms")
    for name, m in res["result"]["metrics"].items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    for name, value in res["report"].items():
        if name == "fail_share" or value:
            print(f"# {name} = {value:.6g} {REPORT_ONLY[name]}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0, help="accepted; does not change the run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "sparselb" / "__init__.py").is_file():
        print(f"no sparselb sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(w, args.seed, args.trace) for w in names]
    except (RuntimeError, subprocess.SubprocessError, ValueError, KeyError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for res in results:
        print_report(res)
    if len(results) == 1:
        print(json.dumps(results[0]["result"]))
    else:
        print(json.dumps({
            "correct": all(r["result"]["correct"] for r in results),
            "attempted": sum(r["result"]["attempted"] for r in results),
            "failed": sum(r["result"]["failed"] for r in results),
            "metrics": {
                f"{r['workload']}.{k}": m
                for r in results
                for k, m in r["result"]["metrics"].items()
            },
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
