"""Acceptance suite: every headline criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s to see them live).  Fluid
targets are exact; simulation targets are tolerance bands at fixed seeds.
"""
import time

import numpy as np
import pytest

from sparselb.checks import chain_vs_des, fluid_des_distance, poisson_identity_residuals
from sparselb.model import FluidState, ModelParams
from sparselb.policies import PolicySpec
from sparselb.des import SimConfig, run_replications
from sparselb.fluid_sync import integrate_sync
from sparselb.fluid_async import integrate_async
from sparselb.fixed_point import m_star, queue_bound, sigma, y_star

LAM = 0.7


def report(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {label} -- {detail}")
    assert ok, f"criterion {num}: {label}: {detail}"


def two_point_state(lam: float, jmax: int = 40) -> np.ndarray:
    y = np.zeros((jmax + 1, jmax + 1))
    y[0, 0] = 1.0 - lam
    y[1, 1] = lam
    return y


def sim(policy: str, n: int, horizon: float, warmup: float, seed: int, **kw) -> SimConfig:
    spec = PolicySpec.parse(policy)
    return SimConfig(
        params=ModelParams(n_servers=n, lam=LAM, delta=spec.delta),
        policy=spec,
        horizon=horizon,
        warmup=warmup,
        seed=seed,
        **kw,
    )


def test_criterion_01_sync_cycle():
    t0 = time.time()
    delta = 2.5
    period = 1.0 / delta
    target = two_point_state(LAM)
    grid = np.arange(0.05, 20 * period, 0.1)
    run_s = integrate_sync(target.copy(), LAM, delta, 20 * period, store_times=grid)
    epoch_err = 0.0
    for te in run_s.update_epochs:
        idx = int(np.argmin(np.abs(run_s.times - te)))
        epoch_err = max(epoch_err, float(np.abs(run_s.states[idx] - target).max()))
    interior_err = 0.0
    for t, y in zip(run_s.times, run_s.states):
        s = t % period
        if s < 1e-9 or period - s < 1e-9:
            continue
        interior_err = max(interior_err, abs(y[0, 0] - (1 - LAM - LAM * s)))
    elapsed = time.time() - t0
    ok = epoch_err < 1e-6 and interior_err < 1e-6 and elapsed < 5.0
    report(
        1,
        "stationary cycle under fast synchronized updates",
        ok,
        f"epoch err {epoch_err:.2e}, interior err {interior_err:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_sync_convergence():
    t0 = time.time()
    delta = 2.5
    period = 1.0 / delta
    run_s = integrate_sync(
        FluidState.empty(40), LAM, delta, 200 * period, store_times=[200 * period]
    )
    err = float(np.abs(run_s.states[-1] - two_point_state(LAM)).max())
    elapsed = time.time() - t0
    ok = err < 1e-4 and elapsed < 30.0
    report(2, "synchronized updates converge from empty", ok,
           f"err {err:.2e} at epoch 200, {elapsed:.1f}s")


def test_criterion_03_async_fixed_point():
    worst_resid = 0.0
    worst_conv = 0.0
    for lam, delta in [(0.7, 0.85), (0.7, 2.5), (0.5, 1.0)]:
        fp = y_star(lam, delta, jmax=40)
        worst_resid = max(worst_resid, fp.residual)
        dt = min(1.0 / delta, 1.0) / 100
        run_a = integrate_async(
            FluidState.empty(40), lam, delta, 200.0, dt=dt, store_times=[200.0]
        )
        worst_conv = max(
            worst_conv, float(np.abs(run_a.final() - fp.y_star.y).max())
        )
    ok = worst_resid < 1e-8 and worst_conv < 1e-4
    report(3, "asynchronous fixed point is stationary and attracting", ok,
           f"max residual {worst_resid:.2e}, max convergence gap {worst_conv:.2e}")


def test_criterion_04_fluid_vs_des():
    t0 = time.time()
    grid = np.arange(0.05, 10.0, 0.1)
    worst = 0.0
    for policy, delta, is_async in [
        ("sujsq-det:0.85", 0.85, False),
        ("sujsq-det:2.5", 2.5, False),
        ("aujsq-exp:0.85", 0.85, True),
        ("aujsq-exp:2.5", 2.5, True),
    ]:
        cfg = sim(policy, n=1000, horizon=10.0, warmup=0.0, seed=7,
                  trajectory_grid=grid, snapshot_jmax=40)
        rec = run_replications(cfg, 10)
        dt = min(1.0 / delta, 1.0) / 200
        if is_async:
            fl = integrate_async(FluidState.empty(40), LAM, delta, 10.0, dt=dt,
                                 store_times=grid)
        else:
            fl = integrate_sync(FluidState.empty(40), LAM, delta, 10.0, store_times=grid)
        worst = max(worst, fluid_des_distance(rec.trajectory, fl))
    elapsed = time.time() - t0
    ok = worst <= 0.05 and elapsed < 300.0
    report(4, "fluid limit matches 1000-server averages", ok,
           f"sup distance {worst:.4f} over v0..v2,w0..w2, t in [0,10]; {elapsed:.0f}s")


def test_criterion_05_message_accounting():
    rec = run_replications(sim("sujsq-det:0.7", n=200, horizon=1100.0, warmup=200.0, seed=3), 1)
    ratio_ok = 0.98 <= rec.msgs_per_job <= 1.02 and rec.n_arrivals >= 10**5
    jsq = run_replications(sim("jsq-d:2", n=200, horizon=300.0, warmup=60.0, seed=3), 1)
    jiq = run_replications(sim("jiq", n=200, horizon=600.0, warmup=120.0, seed=3), 1)
    jiq_caps = []
    for p in (0.3, 0.8):
        r = run_replications(sim(f"jiq-p:{p}", n=200, horizon=600.0, warmup=120.0, seed=3), 1)
        jiq_caps.append(r.msgs_per_job <= p + 1e-9)
    ok = ratio_ok and jsq.msgs_per_job == 4.0 and jiq.msgs_per_job <= 1.0 and all(jiq_caps)
    report(5, "message budgets per job", ok,
           f"update ratio {rec.msgs_per_job:.4f} ({rec.n_arrivals} jobs), "
           f"probe pair {jsq.msgs_per_job}, idle tokens {jiq.msgs_per_job:.4f}")


def test_criterion_06_no_queueing_threshold():
    rec = run_replications(sim("aujsq-exp:2.5", n=1000, horizon=60.0, warmup=20.0, seed=5), 1)
    fl = integrate_async(FluidState.empty(40), LAM, 2.5, 200.0, dt=0.004,
                         store_times=[200.0])
    v2 = float(fl.final().sum(axis=1)[2])
    ok = rec.frac_wait_positive < 0.02 and v2 < 1e-6
    report(6, "fast updates eliminate queueing", ok,
           f"positive-wait fraction {rec.frac_wait_positive:.4f}, fluid v2 {v2:.2e}")


def test_criterion_07_bounded_support():
    delta = 0.3
    level = m_star(LAM, delta)
    rec = run_replications(
        sim(f"aujsq-exp:{delta}", n=1000, horizon=300.0, warmup=150.0, seed=5), 1)
    above = float(rec.queue_len_hist[level + 2 :].sum())
    ok = above <= 0.01
    report(7, "stationary queue support is bounded", ok,
           f"m*={level}, fraction above level {level + 1}: {above:.5f}")


def test_criterion_08_mean_queue_agreement():
    details = []
    ok = True
    for delta in (0.85, 2.5):
        fp = y_star(LAM, delta)
        rec = run_replications(
            sim(f"aujsq-exp:{delta}", n=1000, horizon=150.0, warmup=50.0, seed=5), 1)
        rel = abs(rec.mean_queue_per_server - fp.q_tilde) / fp.q_tilde
        details.append(f"delta={delta}: sim {rec.mean_queue_per_server:.4f} "
                       f"vs {fp.q_tilde:.4f} ({rel:.2%})")
        ok = ok and rel < 0.05
    report(8, "stationary mean queue matches the fixed point", ok, "; ".join(details))


def test_criterion_09_low_frequency_dichotomy():
    waits = {}
    for delta in (0.05, 0.1):
        rec = run_replications(
            sim(f"sujsq-det:{delta}", n=500, horizon=1500.0, warmup=500.0, seed=9), 1)
        waits[delta] = rec.mean_wait
    sync_rel = abs(waits[0.05] - waits[0.1]) / waits[0.1]
    queues = {}
    tracks = True
    for delta in (0.05, 0.1):
        rec = run_replications(
            sim(f"aujsq-exp:{delta}", n=500, horizon=1500.0, warmup=700.0, seed=9), 1)
        queues[delta] = rec.mean_queue_per_server
        ref = m_star(LAM, delta) - LAM / delta
        tracks = tracks and abs(queues[delta] - ref) <= 1.0
    ok = sync_rel < 0.25 and tracks and queues[0.05] > queues[0.1]
    report(9, "synchronized waits stay bounded, asynchronous queues grow", ok,
           f"sync wait change {sync_rel:.1%}; async queues "
           f"{queues[0.1]:.2f} -> {queues[0.05]:.2f}")


def test_criterion_10_exact_chain_oracle():
    delta = 0.85
    params = ModelParams(n_servers=2, lam=LAM, delta=delta)
    spec = PolicySpec.parse(f"aujsq-exp:{delta}")
    tv, rec, wait_exact, loss = chain_vs_des(params, spec, cap=14,
                                             horizon=400000.0, seed=13)
    rel_wait = abs(rec.mean_wait - wait_exact) / wait_exact
    ok = tv <= 0.02 and rel_wait < 0.03 and loss < 1e-4
    report(10, "two-server chain validates the simulator", ok,
           f"TV {tv:.4f}, wait {rec.mean_wait:.4f} vs {wait_exact:.4f} "
           f"({rel_wait:.2%}), truncation loss {loss:.1e}")


def test_criterion_11_analytic_identities():
    worst_ab, worst_mono = poisson_identity_residuals(np.linspace(0.0, 5.0, 26))
    bound = queue_bound(LAM, 1 / 0.85)
    # independent scan with the same ingredients, run forward
    scan = next(
        level for level in range(1, 100)
        if LAM / 0.85 < sigma(level, LAM, 1 / 0.85)
    )
    agree = True
    for lam in np.linspace(0.07, 0.93, 10):
        for delta in np.linspace(0.11, 3.41, 10):
            closed = int(np.floor(-np.log1p(-lam) / np.log1p(delta)))
            agree = agree and closed == m_star(float(lam), float(delta))
    ok = worst_ab == 0.0 and worst_mono <= 1e-12 and bound.s_star == scan == 7 and agree
    report(11, "analytic identities", ok,
           f"A+B exact (err {worst_ab:.1e}), ratio monotone (worst {worst_mono:.1e}), "
           f"level bound {bound.s_star}, level formulas agree on 100-pt grid: {agree}")


def test_criterion_12_sparse_feedback_ordering():
    runs = 10
    base = sim("sujsq-det:0.21", n=200, horizon=1500.0, warmup=300.0, seed=42)
    rec_s = run_replications(base, runs)
    rec_j = run_replications(
        sim("jiq-p:0.7", n=200, horizon=1500.0, warmup=300.0, seed=42), runs
    )
    matched = (rec_s.msgs_per_job < 0.5 and rec_j.msgs_per_job < 0.5
               and rec_j.msgs_per_job >= rec_s.msgs_per_job)
    separated = (rec_s.mean_wait + rec_s.mean_wait_ci
                 < rec_j.mean_wait - rec_j.mean_wait_ci)
    idle = run_replications(
        sim(f"sujsq-det-idle:{LAM / (1 - LAM)}", n=200, horizon=1500.0,
            warmup=300.0, seed=42),
        runs,
    )
    idle_ok = idle.mean_wait < 0.1 and abs(idle.msgs_per_job - 1.0) < 0.1
    ok = matched and separated and idle_ok
    report(12, "sparse-feedback ordering of the schemes", ok,
           f"update scheme {rec_s.mean_wait:.3f}+-{rec_s.mean_wait_ci:.3f} "
           f"@ {rec_s.msgs_per_job:.2f} msg/job beats tokens "
           f"{rec_j.mean_wait:.3f}+-{rec_j.mean_wait_ci:.3f} "
           f"@ {rec_j.msgs_per_job:.2f}; idle variant wait {idle.mean_wait:.3f} "
           f"@ {idle.msgs_per_job:.2f} msg/job")
