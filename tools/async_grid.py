"""Run the asynchronous fluid limit from empty over a grid of (lambda,
delta) and check each run against a run at a tenth of its step.

For each point it prints the RK4 steps taken (switch bisections and
halved steps included) and their ratio to the steps that the run's spans
between stored states need at dt, the wall time of the run, the most
negative entry clamped, the largest gap of a stored state to the run at
dt/10, and the gap of the final state to the fixed point y_star.  A point
fails when its run raises, when its gap exceeds GAP_BOUND or when its step
ratio exceeds STEP_MULTIPLE; the script then exits with status 1.

    python3 tools/async_grid.py [--t-end T] [--points LAM:DELTA ...]

The default grid is lambda in {0.5, 0.7, 0.9} x delta in {0.1, 0.2, 0.3,
0.5, 0.85, 1.0, 1.5, 2.5}, to t = 20 at the default step and store grid,
then three runs that went negative under plain RK4 steps: lambda 0.9,
delta 1.5 at the CLI's defaults; lambda 0.7, delta 0.3, jmax 58,
dt 5e-3 to t = 60; and lambda 0.9, delta 0.3, jmax 40, dt 0.01 to t = 30.
It imports sparselb from the src directory next to this script.
"""
from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sparselb import fluid_async, fluid_sync  # noqa: E402
from sparselb.fixed_point import y_star  # noqa: E402
from sparselb.model import FluidState, default_jmax  # noqa: E402

GRID = [(lam, delta) for lam in (0.5, 0.7, 0.9)
        for delta in (0.1, 0.2, 0.3, 0.5, 0.85, 1.0, 1.5, 2.5)]
# (lam, delta, jmax, dt, t_end, store grid step), None for the default
FAILURE_POINTS = [
    (0.9, 1.5, None, None, 10.0, 0.1),
    (0.7, 0.3, 58, 5e-3, 60.0, None),
    (0.9, 0.3, 40, 0.01, 30.0, None),
]
# The largest gap of a stored state to the run at dt/10, and the most RK4
# steps per step that the spans need at dt, that a point may show: 6.5 and
# 1.3 times the most seen on the grid above (1.53e-6 at lambda 0.9, delta
# 0.2, and 1.128 at lambda 0.9, delta 0.1).
GAP_BOUND = 1e-5
STEP_MULTIPLE = 1.5


class Point(NamedTuple):
    steps: int  # RK4 steps taken, bisection trials and halved steps included
    needed: int  # steps of dt that the spans between stored states need
    wall_s: float
    clamped: float
    gap: float  # to the run at dt/10
    to_fixed_point: float


def counted_run(lam, delta, jmax, dt, t_end, store):
    """integrate_async from empty, with the number of RK4 steps it took."""
    steps = [0]
    step = fluid_async._rk4

    def counting(*args):
        steps[0] += 1
        return step(*args)

    fluid_async._rk4 = counting
    try:
        run = fluid_async.integrate_async(FluidState.empty(jmax), lam, delta, t_end, dt, store)
    finally:
        fluid_async._rk4 = step
    return run, steps[0]


def run_point(lam, delta, jmax=None, dt=None, t_end=20.0, grid_dt=None) -> Point:
    """Run one point and its dt/10 run; raises what the runs raise."""
    jmax = jmax or default_jmax(lam, delta)
    dt = fluid_async.step_for(t_end, delta, dt)
    store = None if grid_dt is None else np.arange(0.0, t_end + 1e-12, grid_dt)
    start = time.perf_counter()
    run, steps = counted_run(lam, delta, jmax, dt, t_end, store)
    wall = time.perf_counter() - start
    fine, _ = counted_run(lam, delta, jmax, dt / 10.0, t_end, store)
    needed = sum(max(1, math.ceil(span / dt - 1e-9)) for span in np.diff(run.times))
    return Point(steps, needed, wall, run.clamped, float(np.abs(run.states - fine.states).max()),
                 float(np.abs(run.final() - y_star(lam, delta, jmax=jmax).y_star.y).max()))


def check_point(lam, delta, jmax=None, dt=None, t_end=20.0, grid_dt=None) -> bool:
    """Print one point's line; whether it passes."""
    label = f"lam {lam:<4} delta {delta:<5} jmax {jmax or default_jmax(lam, delta):<3}"
    try:
        dt = fluid_async.step_for(t_end, delta, dt)
        label += f" dt {dt:<8.3g} t {t_end:<5g}"
        p = run_point(lam, delta, jmax, dt, t_end, grid_dt)
    except (fluid_sync.IntegrationError, ValueError) as err:
        print(f"{label}  FAILED: {type(err).__name__}: {err}")
        return False
    ok = p.gap <= GAP_BOUND and p.steps <= STEP_MULTIPLE * p.needed
    print(f"{label}  steps {p.steps:>6} ({p.steps / p.needed:.3f}x)  {p.wall_s:6.3f} s  "
          f"min {-p.clamped:9.2e}  gap dt/10 {p.gap:8.2e}  gap y_star {p.to_fixed_point:8.2e}"
          f"{'' if ok else '  FAILED'}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--t-end", type=float, default=20.0)
    parser.add_argument("--points", nargs="+", metavar="LAM:DELTA",
                        help="run these points only, at --t-end")
    args = parser.parse_args(argv)
    if args.points:
        runs = [dict(lam=float(a), delta=float(b), t_end=args.t_end)
                for a, b in (point.split(":") for point in args.points)]
    else:
        runs = [dict(lam=lam, delta=delta, t_end=args.t_end) for lam, delta in GRID]
        runs += [dict(zip(("lam", "delta", "jmax", "dt", "t_end", "grid_dt"), point))
                 for point in FAILURE_POINTS]
    failed = sum(not check_point(**run) for run in runs)
    print(f"{len(runs) - failed} of {len(runs)} points pass")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
