"""Cross-layer agreement measures shared by `sparselb validate` and the
acceptance suite.  Each function returns raw distances; the caller picks
the sizes, seeds and tolerances."""
from __future__ import annotations

import numpy as np

from . import ctmc, des
from .fixed_point import poisson_ab
from .fluid_sync import FluidRun
from .model import ModelParams, derive
from .policies import PolicySpec


def poisson_identity_residuals(times) -> tuple[float, float]:
    """Over levels L = 1..20 at the given times: the worst |A + B - L| and
    the worst rise of A(L)/L from L to L + 1 (positive when the ratio is
    not monotone)."""
    worst_ab = 0.0
    worst_mono = 0.0
    for level in range(1, 21):
        for t in times:
            pm = poisson_ab(level, float(t))
            worst_ab = max(worst_ab, abs(pm.a + pm.b - level))
            nxt = poisson_ab(level + 1, float(t))
            worst_mono = max(worst_mono, pm.a / level - nxt.a / (level + 1))
    return worst_ab, worst_mono


def fluid_des_distance(traj: des.Trajectory, fluid_run: FluidRun) -> float:
    """Sup distance over v0..v2 and w0..w2 between simulated snapshots and
    the fluid states stored at the same times, read from the run's block.
    Times are matched after rounding to 9 decimals, so a run whose stops
    merged with update epochs still lines up with the simulation grid.
    Raises ValueError when the snapshots clipped any server at their jmax,
    which the fluid states do not."""
    if traj.clipped:
        raise ValueError(
            f"a fraction {traj.clipped:g} of the servers exceeded the snapshot "
            "jmax; raise SimConfig.snapshot_jmax"
        )
    by_time = {round(t, 9): s for t, s in zip(fluid_run.times, fluid_run.block)}
    worst = 0.0
    for t, y in zip(traj.times, traj.y):
        d_sim = derive(y)
        d_fl = derive(by_time[round(t, 9)])
        for c in range(3):
            worst = max(worst, abs(d_sim.v[c] - d_fl.v[c]),
                        abs(d_sim.w[c] - d_fl.w[c]))
    return worst


def chain_vs_des(
    params: ModelParams, spec: PolicySpec, cap: int, horizon: float, seed: int
) -> tuple[float, des.MetricsRecord, float, float]:
    """Solve the exact chain truncated at cap and run the simulator once
    with warmup 0.1 * horizon.  Returns the total-variation distance
    between the two queue-length laws, the simulation record, the chain's
    mean wait and its truncation loss."""
    chain = ctmc.build_generator(params, spec, cap=cap)
    pi = ctmc.stationary(chain)
    marginal = ctmc.queue_marginal(chain, pi)
    _, wait_exact = ctmc.oracle_metrics(chain, pi)
    rec = des.run_replications(des.SimConfig(
        params=params, policy=spec, horizon=horizon, warmup=0.1 * horizon, seed=seed
    ), 1)
    hist = np.zeros(max(len(marginal), len(rec.queue_len_hist)))
    hist[: len(rec.queue_len_hist)] = rec.queue_len_hist
    exact = np.zeros_like(hist)
    exact[: len(marginal)] = marginal
    tv = float(0.5 * np.abs(hist - exact).sum())
    return tv, rec, wait_exact, ctmc.truncation_loss(chain, pi)
