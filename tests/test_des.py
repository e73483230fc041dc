import numpy as np
import pytest

from sparselb import des
from sparselb.model import ModelParams, derive
from sparselb.policies import ESTIMATE_KINDS, PolicySpec, dispatch
from sparselb.des import (
    MetricsRecord,
    SimConfig,
    SimulationError,
    rng_streams,
    run,
    run_replications,
    snapshot_fractions,
)


def make_config(policy, n=50, lam=0.7, horizon=200.0, warmup=40.0, seed=3, **kw):
    spec = PolicySpec.parse(policy)
    params = ModelParams(n_servers=n, lam=lam, delta=spec.delta)
    return SimConfig(
        params=params, policy=spec, horizon=horizon, warmup=warmup, seed=seed, **kw
    )


def records_equal(a: MetricsRecord, b: MetricsRecord) -> bool:
    return (
        a.mean_wait == b.mean_wait
        and a.msgs_per_job == b.msgs_per_job
        and a.mean_queue_per_server == b.mean_queue_per_server
        and np.array_equal(a.queue_len_hist, b.queue_len_hist)
        and a.n_arrivals == b.n_arrivals
    )


def test_same_seed_is_bit_identical():
    cfg = make_config("sujsq-det:0.85")
    assert records_equal(run(cfg), run(cfg))


def test_different_seed_differs():
    a = run(make_config("random", seed=1))
    b = run(make_config("random", seed=2))
    assert a.mean_wait != b.mean_wait


def test_mm1_waiting_time():
    # single random server is an M/M/1 queue: Wq = lam / (1 - lam)
    cfg = make_config("random", n=1, lam=0.7, horizon=300000.0, warmup=20000.0, seed=7)
    rec = run(cfg)
    assert rec.mean_wait == pytest.approx(0.7 / 0.3, rel=0.05)
    assert rec.mean_queue_per_server == pytest.approx(0.7 / 0.3, rel=0.05)


def test_queue_hist_normalized_and_geometricish():
    cfg = make_config("random", n=1, lam=0.5, horizon=100000.0, warmup=5000.0, seed=11)
    rec = run(cfg)
    assert rec.queue_len_hist.sum() == pytest.approx(1.0, abs=1e-9)
    assert rec.queue_len_hist[0] == pytest.approx(0.5, abs=0.02)


def test_update_message_rate_matches_frequency_ratio():
    # messages per job settle on delta/lam for plain update kinds
    for policy in ("sujsq-det:0.7", "sujsq-exp:0.7", "aujsq-exp:0.7", "aujsq-det:0.7"):
        cfg = make_config(policy, n=100, horizon=600.0, warmup=100.0)
        rec = run(cfg)
        assert rec.msgs_per_job == pytest.approx(1.0, rel=0.05), policy


def test_jsq_d_messages_exact():
    rec = run(make_config("jsq-d:2", n=100))
    assert rec.msgs_per_job == 4.0
    rec = run(make_config("jsq-d:3", n=100))
    assert rec.msgs_per_job == 6.0


def test_jiq_message_budgets():
    rec = run(make_config("jiq", n=100, horizon=500.0, warmup=100.0))
    assert rec.msgs_per_job <= 1.0
    for p in (0.3, 0.8):
        rec = run(make_config(f"jiq-p:{p}", n=100, horizon=500.0, warmup=100.0))
        assert rec.msgs_per_job <= p + 1e-9


def test_jsq_1_matches_random_in_law():
    a = run(make_config("jsq-d:1", n=20, horizon=4000.0, warmup=500.0, seed=5))
    b = run(make_config("random", n=20, horizon=4000.0, warmup=500.0, seed=6))
    assert a.mean_wait == pytest.approx(b.mean_wait, rel=0.08)


def test_round_robin_assignment_balance():
    cfg = make_config("round-robin", n=7, horizon=300.0, warmup=0.0, track_assignments=True)
    rec = run(cfg)
    assert rec.assignments.max() - rec.assignments.min() <= 1


def test_estimate_dominance_invariant_checked():
    # invariant-checking mode asserts estimate >= queue after every event
    for policy in ("sujsq-det:0.6", "aujsq-exp:1.3", "sujsq-det-idle:0.9"):
        cfg = make_config(policy, n=20, horizon=120.0, warmup=20.0, check_invariants=True)
        run(cfg)


CORRUPTIONS = {
    "unsorted": lambda view: view.levels[view.lowest].reverse(),
    "misplaced": lambda view: view.levels.append([view.levels[view.lowest].pop()]),
    "dropped": lambda view: view.levels[view.lowest].pop(),
    "lowest": lambda view: setattr(view, "lowest", view.lowest + 1),
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_level_index_invariant_checked(corruption, monkeypatch):
    # invariant-checking mode asserts that the level index matches the
    # estimates; break it after the first assignment and expect the check
    real = des.on_assign

    def corrupting_assign(view, server):
        real(view, server)
        CORRUPTIONS[corruption](view)

    monkeypatch.setattr(des, "on_assign", corrupting_assign)
    cfg = make_config("aujsq-exp:0.85", n=4, horizon=20.0, warmup=5.0,
                      check_invariants=True)
    with pytest.raises(AssertionError):
        run(cfg)


def scan_dispatch(spec, view, queues, rng):
    """The O(N) scan that the level index replaced, kept as the reference."""
    if not spec.uses_estimates:
        return dispatch(spec, view, queues, rng)
    est = view.estimates
    lowest = np.flatnonzero(est == est.min())
    if lowest.size == 1:
        return int(lowest[0]), 0
    return int(lowest[rng.integers(lowest.size)]), 0


@pytest.mark.parametrize("n, horizon", [(2, 600.0), (7, 200.0), (60, 40.0)])
@pytest.mark.parametrize("kind", sorted(k.value for k in ESTIMATE_KINDS))
def test_level_index_replays_the_scan(kind, n, horizon, monkeypatch):
    cfg = make_config(f"{kind}:0.85", n=n, lam=0.9, horizon=horizon,
                      warmup=horizon / 5, trajectory_grid=horizon / 40,
                      track_assignments=True)
    indexed = run(cfg)
    monkeypatch.setattr(des, "dispatch", scan_dispatch)
    scanned = run(cfg)
    assert indexed.mean_wait == scanned.mean_wait
    assert indexed.msgs_per_job == scanned.msgs_per_job
    assert np.array_equal(indexed.queue_len_hist, scanned.queue_len_hist)
    assert np.array_equal(indexed.assignments, scanned.assignments)
    assert np.array_equal(indexed.trajectory.y, scanned.trajectory.y)


def test_sync_epoch_equalizes_estimates():
    cfg = make_config("sujsq-det:0.5", n=30, horizon=50.0, warmup=0.0,
                      trajectory_grid=np.array([2.0 + 1e-9]))
    rec = run(cfg)
    # right after the epoch at t=2 every server sits on the diagonal
    y = rec.trajectory.y[0]
    assert np.abs(y - np.diag(np.diag(y))).max() == 0.0


def test_warmup_too_long_raises():
    with pytest.raises(SimulationError):
        SimConfig(
            params=ModelParams(2, 0.5, 1.0),
            policy=PolicySpec.parse("random"),
            horizon=10.0,
            warmup=10.0,
        )


def test_no_post_warmup_arrivals_raises():
    cfg = SimConfig(
        params=ModelParams(1, 0.01, 1.0),
        policy=PolicySpec.parse("random"),
        horizon=0.02,
        warmup=0.019,
        seed=1,
    )
    with pytest.raises(SimulationError):
        run(cfg)


def test_trajectory_snapshots():
    grid = np.array([0.0, 1.0, 2.0])
    cfg = make_config("sujsq-det:0.85", n=10, horizon=5.0, warmup=0.0,
                      trajectory_grid=grid)
    rec = run(cfg)
    assert rec.trajectory.y.shape[0] == 3
    # empty start: everything at (0, 0)
    assert rec.trajectory.y[0][0, 0] == 1.0
    for y in rec.trajectory.y:
        assert y.sum() == pytest.approx(1.0, abs=1e-12)


def test_snapshot_fractions_matches_count_matrix():
    queues = np.array([0, 1, 0, 2])
    estimates = np.array([0, 1, 3, 2])
    y = snapshot_fractions(queues, estimates, jmax=5)
    counts = np.zeros((6, 6))
    for i, j in [(0, 0), (1, 1), (0, 3), (2, 2)]:
        counts[i, j] += 1
    assert np.allclose(y, counts / 4)
    d = derive(y)
    assert d.v[0] == pytest.approx(0.5)
    assert d.m == 0


def test_replications_deterministic_and_averaged():
    cfg = make_config("sujsq-det:0.85", n=30, horizon=100.0, warmup=20.0)
    agg1 = run_replications(cfg, 4)
    agg2 = run_replications(cfg, 4)
    assert records_equal(agg1, agg2)
    assert len(agg1.per_run) == 4
    assert agg1.mean_wait == pytest.approx(
        np.mean([r.mean_wait for r in agg1.per_run])
    )
    assert agg1.mean_wait_ci is not None
    # per-run records differ from each other (independent streams)
    waits = {r.mean_wait for r in agg1.per_run}
    assert len(waits) == 4


def test_single_replication_equals_run():
    cfg = make_config("aujsq-exp:1.0", n=20, horizon=100.0, warmup=20.0)
    assert records_equal(run_replications(cfg, 1), run(cfg))


def test_rng_streams_distinct():
    streams = rng_streams(1, 0)
    vals = {name: g.random() for name, g in streams.items()}
    assert len(set(vals.values())) == len(vals)
    again = rng_streams(1, 0)
    assert all(again[k].random() == vals[k] for k in vals)
    other_run = rng_streams(1, 1)
    assert any(other_run[k].random() != vals[k] for k in vals)
