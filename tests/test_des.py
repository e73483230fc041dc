import dataclasses
import hashlib
import heapq
import itertools
import math
import os
import time
from bisect import insort
from collections import deque
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sparselb import des, policies
from sparselb.checks import fluid_des_distance
from sparselb.fluid_async import integrate_async
from sparselb.model import FluidState, ModelParams, derive
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


def count_targets(monkeypatch, n, real=dispatch):
    """Patch des.dispatch with real, counting the servers it picks (warmup
    included) in the returned list of n counts."""
    counts = [0] * n

    def counted(*args):
        target, msgs = real(*args)
        counts[target] += 1
        return target, msgs

    monkeypatch.setattr(des, "dispatch", counted)
    return counts


def test_round_robin_assignment_balance(monkeypatch):
    counts = count_targets(monkeypatch, 7)
    run(make_config("round-robin", n=7, horizon=300.0, warmup=0.0))
    assert max(counts) - min(counts) <= 1


def test_estimate_dominance_invariant_checked():
    # invariant-checking mode asserts estimate >= queue after every event
    for policy in ("sujsq-det:0.6", "aujsq-exp:1.3", "sujsq-det-idle:0.9"):
        cfg = make_config(policy, n=20, horizon=120.0, warmup=20.0, check_invariants=True)
        run(cfg)


def misplace(view, server):
    """Move the server just assigned into the lowest level, in order."""
    for level in view.levels:
        if server in level:
            level.remove(server)
    insort(view.levels[view.lowest], server)


# name -> (a break of the level index after an assignment to server, the
# message of the one check in check_index that must catch it)
CORRUPTIONS = {
    "unsorted": (lambda view, server: view.levels[view.lowest].reverse(), "not sorted"),
    "misplaced": (misplace, "stranger"),
    "dropped": (lambda view, server: view.levels[view.lowest].pop(), "unlisted"),
    "lowest": (lambda view, server: setattr(view, "lowest", view.lowest + 1), "least"),
    "ceiling": (lambda view, server: setattr(view, "ceiling", view.ceiling + 1), "top level"),
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_level_index_invariant_checked(corruption, monkeypatch):
    # invariant-checking mode asserts that the level index matches the
    # estimates; break it after the first assignment and expect the check,
    # in a view that lists every level (n = 4) and in one under a ceiling
    real = des.on_assign
    corrupt, message = CORRUPTIONS[corruption]

    def corrupting_assign(view, server):
        real(view, server)
        corrupt(view, server)

    monkeypatch.setattr(des, "on_assign", corrupting_assign)
    for n in (4, 40):
        assert (n < policies.LIST_ALL_BELOW) == (n == 4)
        cfg = make_config("aujsq-exp:0.85", n=n, horizon=20.0, warmup=5.0,
                          check_invariants=True)
        with pytest.raises(AssertionError, match=message):
            run(cfg)


CALENDAR_CORRUPTIONS = {
    "dropped": lambda heap, entry: None,
    "doubled": lambda heap, entry: heap.extend([entry, entry]),
    "misrouted": lambda heap, entry: heap.append((*entry[:2], (entry[2] + 1) % 4)),
}


@pytest.mark.parametrize("corruption", sorted(CALENDAR_CORRUPTIONS))
def test_departure_calendar_invariant_checked(corruption, monkeypatch):
    # invariant-checking mode asserts that the departure heap holds one
    # entry per busy server; corrupt the first departure and expect the check
    pushed = []

    def heappush(heap, entry):
        if pushed:
            heapq.heappush(heap, entry)
        else:
            CALENDAR_CORRUPTIONS[corruption](heap, entry)
        pushed.append(entry)

    monkeypatch.setattr(des, "heapq", SimpleNamespace(
        heappush=heappush, heapreplace=heapq.heapreplace, heappop=heapq.heappop))
    cfg = make_config("aujsq-exp:0.85", n=4, horizon=20.0, warmup=5.0,
                      check_invariants=True)
    with pytest.raises(AssertionError):
        run(cfg)
    assert len(pushed) == 1


def scan_dispatch(spec, view, queues, rng):
    """The O(N) scan that the level index replaced, kept as the reference."""
    if not spec.uses_estimates:
        return dispatch(spec, view, queues, rng)
    est = np.array(view.est)
    lowest = np.flatnonzero(est == est.min())
    if lowest.size == 1:
        return int(lowest[0]), 0
    return int(lowest[rng.integers(lowest.size)]), 0


@pytest.mark.parametrize("n, horizon", [(2, 600.0), (7, 200.0), (60, 40.0), (3000, 4.0)])
@pytest.mark.parametrize("kind", sorted(k.value for k in ESTIMATE_KINDS))
def test_level_index_replays_the_scan(kind, n, horizon, monkeypatch):
    grid = np.arange(0.0, horizon + 1e-12, horizon / 40)
    cfg = make_config(f"{kind}:0.85", n=n, lam=0.9, horizon=horizon,
                      warmup=horizon / 5, trajectory_grid=grid)
    indexed_targets = count_targets(monkeypatch, n)
    indexed = run(cfg)
    scanned_targets = count_targets(monkeypatch, n, scan_dispatch)
    scanned = run(cfg)
    assert indexed.mean_wait == scanned.mean_wait
    assert indexed.msgs_per_job == scanned.msgs_per_job
    assert np.array_equal(indexed.queue_len_hist, scanned.queue_len_hist)
    assert indexed_targets == scanned_targets
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


@pytest.mark.parametrize("horizon", [math.inf, math.nan])
def test_non_finite_horizon_refused(horizon):
    # Only built, never run: an infinite horizon would never end.
    with pytest.raises(SimulationError, match="finite horizon"):
        SimConfig(
            params=ModelParams(2, 0.5, 1.0),
            policy=PolicySpec.parse("random"),
            horizon=horizon,
            warmup=1.0,
        )


@pytest.mark.parametrize("setting", [
    {"snapshot_jmax": -1},
    {"snapshot_jmax": 2.5},
    {"trajectory_grid": np.array([0.5, math.nan])},
    {"trajectory_grid": np.array([0.5, math.inf])},
    {"trajectory_grid": [-math.inf]},
], ids=["negative-jmax", "fractional-jmax", "nan-time", "inf-time", "minus-inf-time"])
def test_bad_snapshot_settings_refused(setting):
    # Only built, never run: the refusal comes before any event.
    with pytest.raises(SimulationError, match="snapshot_jmax|trajectory_grid"):
        make_config("random", n=4, horizon=5.0, warmup=0.0, **setting)


def test_grid_times_past_the_horizon_dropped():
    cfg = make_config("random", n=4, horizon=5.0, warmup=0.0,
                      trajectory_grid=np.array([1.0, 5.0, 6.0]))
    assert cfg.grid_times().tolist() == [1.0, 5.0]


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


def test_trajectory_grid_takes_only_times():
    # a bare spacing is refused, not read as one snapshot time
    cfg = make_config("random", n=10, horizon=5.0, warmup=0.0, trajectory_grid=1.0)
    with pytest.raises(SimulationError, match="trajectory_grid"):
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


def every_field(rec: MetricsRecord) -> dict:
    """Every field of rec but per_run, arrays as (shape, bytes), so that ==
    compares them exactly."""
    out = {f.name: getattr(rec, f.name) for f in dataclasses.fields(rec)
           if f.name not in ("queue_len_hist", "trajectory", "per_run")}
    out["queue_len_hist"] = rec.queue_len_hist.shape, rec.queue_len_hist.tobytes()
    if (traj := rec.trajectory) is not None:
        out["trajectory"] = (traj.times.tobytes(), traj.y.shape, traj.y.tobytes(),
                             traj.clipped)
    return out


def on_cpus(monkeypatch, cpus: int) -> list[int]:
    """Give this process cpus CPUs as des sees them; the list returned
    counts the forks made."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    forks, real_fork = [], os.fork

    def fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.mark.parametrize("policy, grid", [
    ("aujsq-exp:0.85", np.arange(0.5, 30.0, 2.5)),
    ("jiq", None),
])
def test_replications_do_not_depend_on_the_cpu_count(policy, grid, monkeypatch):
    cfg = make_config(policy, n=40, horizon=30.0, warmup=5.0, seed=11,
                      trajectory_grid=grid, snapshot_jmax=6)
    results = {}
    for cpus in (1, 2, 3):
        forks = on_cpus(monkeypatch, cpus)
        rec = run_replications(cfg, 5)
        assert len(forks) == cpus - 1 and no_child_left()
        results[cpus] = [every_field(rec)] + [every_field(r) for r in rec.per_run]
        monkeypatch.undo()
    assert results[1] == results[2] == results[3]


def failing_runs(monkeypatch, failures):
    """Patch des._run so that run k first does what failures[k] says:
    "sleep" sleeps a minute, a callable is called, and any other value
    raises SimulationError("run k failed")."""
    real = des._run

    def _run(config, run_index):
        failure = failures.get(run_index)
        if failure == "sleep":
            time.sleep(60.0)
        elif callable(failure):
            failure()
        elif failure is not None:
            raise SimulationError(f"run {run_index} failed")
        return real(config, run_index)

    monkeypatch.setattr(des, "_run", _run)


def interrupt():
    raise KeyboardInterrupt


@pytest.mark.parametrize("failures, raised, message", [
    ({1: True}, SimulationError, "^run 1 failed$"),  # in the worker
    ({0: True}, SimulationError, "^run 0 failed$"),  # in the caller
    ({1: True, 2: True}, SimulationError, "^run 1 failed$"),  # the lowest index
    ({1: lambda: os._exit(3)}, SimulationError, "ended without sending its runs"),
    ({0: interrupt, 1: "sleep"}, KeyboardInterrupt, None),  # the worker is killed
])
def test_a_worker_failure_reaches_the_caller(failures, raised, message, monkeypatch):
    cfg = make_config("sujsq-det:0.85", n=20, horizon=20.0, warmup=4.0)
    on_cpus(monkeypatch, 2)
    failing_runs(monkeypatch, failures)
    start = time.monotonic()
    with pytest.raises(raised, match=message):
        run_replications(cfg, 3)
    assert time.monotonic() - start < 30.0 and no_child_left()
    monkeypatch.undo()
    on_cpus(monkeypatch, 2)
    assert len(run_replications(cfg, 3).per_run) == 3 and no_child_left()


def test_rng_streams_distinct():
    streams = rng_streams(1, 0)
    vals = {name: g.random() for name, g in streams.items()}
    assert len(set(vals.values())) == len(vals)
    again = rng_streams(1, 0)
    assert all(again[k].random() == vals[k] for k in vals)
    other_run = rng_streams(1, 1)
    assert any(other_run[k].random() != vals[k] for k in vals)


@pytest.mark.parametrize("scale", [1.0, 1.0 / 140])
def test_block_draws_equal_scalar_draws(scale):
    blocks = des.exponentials(np.random.default_rng(4), scale)
    scalar = np.random.default_rng(4)
    count = 2 * des.BLOCK + 5  # across two block boundaries
    assert [next(blocks) for _ in range(count)] == [
        scalar.exponential(scale) for _ in range(count)
    ]


# A draw is an int n for integers(n) or None for random().
draws = st.one_of(st.none(), st.integers(1, 2**32 - 1), st.sampled_from([2**31 + 1, 3 * 2**30]))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.lists(draws, min_size=1, max_size=12))
@example(5, [2**31 + 1])  # rejects about half its first candidates
@example(6, [1, None, 200, 1])
def test_word_draws_equal_generator_draws(seed, pattern):
    assume(pattern != [1] * len(pattern))  # n == 1 alone reads no word
    source = des.raw_words(np.random.default_rng(seed))
    read = 0

    def next_word():
        nonlocal read
        read += 1
        return next(source)

    words = des.WordDraws(next_word)
    scalar = np.random.default_rng(seed)
    k = 0
    while read <= 3 * des.BLOCK:  # across three block boundaries
        n = pattern[k % len(pattern)]
        if n is None:
            assert words.random() == scalar.random()
        else:
            assert words.integers(n) == scalar.integers(n)
        k += 1


def test_word_draws_n_one_reads_no_word():
    read = []
    words = des.WordDraws(lambda: read.append(1) or 2**64 - 1)
    assert [words.integers(1) for _ in range(5)] == [0] * 5
    assert read == []
    assert words.integers(np.int64(3)) == 2 and words.integers(3) == 2
    assert len(read) == 1  # one word serves two draws


@pytest.mark.parametrize("n", [0, -1, 2**32, 2**40, np.int64(2**40), 2.5, 3.0, "3"])
def test_word_draws_refuse_bad_bounds(n):
    words = des.WordDraws(des.raw_words(np.random.default_rng(0)).__next__)
    with pytest.raises(ValueError):
        words.integers(n)


@st.composite
def choice_args(draw):
    """(n, d) for choice(n, d, replace=False), in both of numpy's branches:
    Floyd's algorithm, or a partial shuffle of range(n) when n > 10000 and
    d > n // 50."""
    n = draw(st.one_of(st.integers(1, 60), st.integers(1, 20000)))
    if n > 10000 and draw(st.booleans()):
        return n, draw(st.integers(n // 50 + 1, n))
    return n, draw(st.one_of(st.just(1), st.just(n), st.integers(0, min(n, 12))))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.lists(st.one_of(draws, choice_args()), min_size=1, max_size=6))
@example(1, [(20000, 401), 7, None])  # the smallest partial shuffle at n = 20000
@example(2, [(10001, 201), (10001, 200)])  # either side of the branch
@example(3, [(12000, 3000), None, (10001, 10001)])
@example(4, [(10000, 10000), (2, 2), (1, 1), (300, 1)])
def test_word_draws_sample_equals_generator_choice(seed, pattern):
    words = des.WordDraws(des.raw_words(np.random.default_rng(seed)).__next__)
    scalar = np.random.default_rng(seed)
    for step in pattern * 3:
        if step is None:
            assert words.random() == scalar.random()
        elif isinstance(step, tuple):
            assert words.sample(*step) == scalar.choice(*step, replace=False).tolist()
        else:
            assert words.integers(step) == scalar.integers(step)


@pytest.mark.parametrize("n, d", [(3, 4), (3, -1), (20000, 20001)])
def test_word_draws_sample_refuses_bad_sizes(n, d):
    words = des.WordDraws(des.raw_words(np.random.default_rng(0)).__next__)
    with pytest.raises(ValueError):
        words.sample(n, d)


def reference_aujsq_exp(delta, n, rng):
    """aujsq-exp's update schedule on a plain Generator, kept as the
    reference for the one that takes its integers from raw words."""
    t = 0.0
    while True:
        t += rng.exponential(1.0 / (delta * n))
        yield t, int(rng.integers(n))


@pytest.mark.parametrize("n", [1, 7, 300])
def test_aujsq_exp_schedule_replays_plain_draws(n, monkeypatch):
    grid = np.arange(0.0, 3000.0 / n + 1e-12, 30.0 / n)
    cfg = make_config("aujsq-exp:0.85", n=n, lam=0.9, horizon=3000.0 / n,
                      warmup=100.0 / n, trajectory_grid=grid, seed=12)
    fast_targets = count_targets(monkeypatch, n)
    fast = run(cfg)
    monkeypatch.setattr(des, "schedule_updates", lambda spec, params, rng: reference_aujsq_exp(
        spec.delta, params.n_servers, rng_streams(cfg.seed, 0)["updates"]))
    plain_targets = count_targets(monkeypatch, n)
    plain = run(cfg)
    assert fast.mean_wait == plain.mean_wait
    assert fast.msgs_per_job == plain.msgs_per_job
    assert np.array_equal(fast.queue_len_hist, plain.queue_len_hist)
    assert fast_targets == plain_targets
    assert np.array_equal(fast.trajectory.y, plain.trajectory.y)


@pytest.mark.parametrize("policy", ["sujsq-det:0.85", "aujsq-exp:0.85", "jiq-p:0.5"])
def test_policy_hooks_reached_through_des(policy, monkeypatch):
    # A tracer times the policy layer by patching these names in des, so
    # every call must still go through them.
    calls = {}
    # the same run with no warmup counts every arrival
    arrivals = run(make_config(policy, n=20, horizon=50.0, warmup=0.0)).n_arrivals

    def counted(name):
        real = getattr(des, name)

        def hook(*args):
            calls[name] = calls.get(name, 0) + 1
            return real(*args)
        return hook

    hooks = ("dispatch", "on_assign", "on_update", "apply_global_update", "on_idle")
    for name in hooks:
        monkeypatch.setattr(des, name, counted(name))
    rec = run(make_config(policy, n=20, horizon=50.0, warmup=10.0))
    assert arrivals > rec.n_arrivals
    assert calls["dispatch"] == arrivals
    assert calls["on_idle"] > 0
    kind = policy.split(":")[0]
    assert calls.get("on_assign", 0) == (arrivals if kind != "jiq-p" else 0)
    assert calls.get("apply_global_update", 0) == (42 if kind == "sujsq-det" else 0)
    assert (calls.get("on_update", 0) > 0) == (kind == "aujsq-exp")


def test_snapshot_clipping_is_counted():
    grid = np.arange(0.0, 60.0 + 1e-12, 2.0)
    wide = make_config("random", n=20, lam=0.95, horizon=60.0, warmup=0.0,
                       trajectory_grid=grid, snapshot_jmax=60)
    narrow = make_config("random", n=20, lam=0.95, horizon=60.0, warmup=0.0,
                         trajectory_grid=grid, snapshot_jmax=2)
    full = run(wide).trajectory
    assert full.clipped == 0.0 and full.y[:, 60, :].sum() == 0.0
    expect = max(y[3:, :].sum() for y in full.y)
    assert expect > 0.0
    cut = run(narrow).trajectory
    assert cut.clipped == pytest.approx(expect, abs=1e-12)
    agg = run_replications(narrow, 3)
    assert agg.trajectory.clipped == max(r.trajectory.clipped for r in agg.per_run)
    fluid = integrate_async(FluidState.empty(40), 0.95, 1.0, 0.1)
    with pytest.raises(ValueError, match=f"fraction {cut.clipped:g}"):
        fluid_des_distance(cut, fluid)


def test_jsq_d_more_probes_than_servers_refused():
    with pytest.raises(SimulationError, match=r"jsq-d:2 .* N = 1"):
        make_config("jsq-d:2", n=1)


def test_model_delta_must_match_the_policy():
    with pytest.raises(SimulationError, match=r"0\.85 .* 2\.5"):
        SimConfig(params=ModelParams(20, 0.7, 0.85),
                  policy=PolicySpec.parse("aujsq-exp:2.5"), horizon=10.0)


@pytest.mark.parametrize("df, quantile", [
    (1, 12.706204736174694), (9, 2.262157162798205), (29, 2.045229642132703),
])
def test_t_975_quantiles(df, quantile):
    assert abs(des.t_975(df) - quantile) < 1e-9


def test_replication_interval_uses_student_t():
    cfg = make_config("random", n=20, horizon=60.0, warmup=10.0)
    agg = run_replications(cfg, 10)
    waits = [r.mean_wait for r in agg.per_run]
    half = 2.262157162798205 * np.std(waits, ddof=1) / np.sqrt(10)
    assert agg.mean_wait_ci == pytest.approx(half, rel=1e-9)


# Outputs of ten policies at N = 2 (horizon 5000) and N = 200 (horizon 50),
# lambda = 0.7, seed 17: about 7000 arrivals and as many services per run, so
# each stream crosses several draw blocks.  Recorded before the arrival and
# service draws were taken in blocks; any change to a draw or to the order of
# a float sum shows here.  The N = 200 histograms were recorded again when
# the histogram came to be folded per level at each change of that level,
# which reordered its float sums (a move of at most 6.7e-15 relative).
# Values: mean_wait, msgs_per_job, mean_queue_per_server, queue_len_hist.
PINNED = {
    ("sujsq-det:0.85", 2): (
        1.098192900849077, 1.247248716067498, 1.4251668751668984,
        [0.3230669318710664, 0.28741038980516787, 0.19242213934366748,
         0.1092127429515028, 0.0482452544021923, 0.019682117132654213,
         0.01226384336633032, 0.004968285920706933, 0.0011513375013769292,
         0.00033249316647447814, 0.0005210585553057854, 0.0005732829600769946,
         0.00015012302347747664],
    ),
    ("sujsq-exp:0.85", 2): (
        1.1455027446173807, 1.2193690388848129, 1.4573967062340654,
        [0.32306693187106644, 0.2828029608209703, 0.18767165530210964,
         0.1079956048452809, 0.05278677930614641, 0.02405538955184997,
         0.013784074527589467, 0.005014866308679103, 0.0015503148524994685,
         0.000244571738254308, 0.00032539652485388614, 0.000416726774153517,
         0.00014497685535718574, 0.00010681262654986767, 3.293809463957587e-05],
    ),
    ("aujsq-det:0.85", 2): (
        1.1083934241703648, 1.247248716067498, 1.432163613793908,
        [0.3229868360082722, 0.2849058419110054, 0.19362734516343585,
         0.10891070516531327, 0.04766019844264193, 0.02276705490962132,
         0.011367927926112173, 0.005014732141720969, 0.0012771666432958,
         0.0005441111374630054, 0.0002843035433779733, 0.00042566452361813845,
         0.00012093567800513938, 0.0001071768061168541],
    ),
    ("aujsq-exp:0.85", 2): (
        1.2462281157290642, 1.2360601614086573, 1.5263239164088769,
        [0.32302433257555274, 0.2623652921643699, 0.18620912706476297,
         0.11836379371761638, 0.057044126688123524, 0.029009124476202245,
         0.01328894784729863, 0.006337114106703751, 0.002353126844316222,
         0.0007189714043200865, 0.0005811587601184556, 0.0004325832040700561,
         0.0002723011465450327],
    ),
    ("sujsq-det-idle:0.85", 2): (
        1.2668198845800962, 0.41177549523110785, 1.5400440078336688,
        [0.3230344681226477, 0.28522954531835126, 0.17156373918500292,
         0.10084483800593212, 0.05761657934136662, 0.030395453808377056,
         0.013987787596901797, 0.008098742148935372, 0.004807998315287279,
         0.0020774051664454304, 0.0009071905416081165, 0.00012753304451689474,
         0.00028599332590829364, 4.3077704281586197e-05, 0.000413884135959961,
         0.0003829746155187195, 0.00018278962295892141],
    ),
    ("jiq", 2): (
        1.2226564564696862, 0.48202494497432136, 1.5100053045478166,
        [0.32297193580829825, 0.3290883509112645, 0.1478867401391272,
         0.08375877027684592, 0.04596817767930184, 0.03348361718358559,
         0.0162268541294668, 0.007578371827636716, 0.0041049850511370774,
         0.0029190395354689257, 0.0012740608600837504, 0.0018269956539539293,
         0.001119368691290333, 0.0008958063332839287, 0.00020481227179595861,
         9.11492060964747e-05, 2.0587454362271275e-05, 0.00012404841209149708,
         0.00020314042366976538, 0.00025318815123932836],
    ),
    ("jiq-p:0.5", 2): (
        1.6768555241056957, 0.18286867204695526, 1.8195270275913757,
        [0.3230952646877091, 0.2528097547456692, 0.15320270726338517,
         0.09830752486940479, 0.06310971214842816, 0.04191840817010865,
         0.028642028910377277, 0.014741406653135385, 0.008326497160580289,
         0.006107963721890173, 0.0037860832164484464, 0.00326368567006142,
         0.0019851672609930804, 0.0007037955218088996],
    ),
    ("jsq-d:2", 2): (
        0.9930141058899998, 4.0, 1.3535614532154072,
        [0.32297193580829814, 0.31401083863903395, 0.19224236901545141,
         0.0940544062030958, 0.04063227467963156, 0.019079405564540054,
         0.009971979690836321, 0.004711811765529262, 0.0007652116101539263,
         0.0002692160939097903, 0.0005787270599039402, 0.0007118238696158415],
    ),
    ("random", 2): (
        2.120858468833272, 0.0, 2.1232718795667562,
        [0.3228974159758236, 0.214552578900739, 0.13961011141661675, 0.1019184115554658,
         0.0717522660784938, 0.05033305695039384, 0.031705327185975934,
         0.021597028366302014, 0.01471874223433474, 0.010799769890135678,
         0.007559372976719657, 0.004956138220638337, 0.003960392834327621,
         0.0016226600042931237, 0.0006360997185373378, 0.0010155178461523065,
         0.0003651098450504833],
    ),
    ("round-robin", 2): (
        1.5104288743426872, 0.0, 1.7060554528576668,
        [0.3230719646899282, 0.26847499869597913, 0.1546949268140895,
         0.09820274814661145, 0.061635853756739335, 0.03806127025598876,
         0.025446480782932015, 0.015021227408260784, 0.007845681443844996,
         0.003358557328954447, 0.001900011670797852, 0.0010862482493382685,
         0.0008104081681802881, 0.00024875408046477786, 0.00010793041325052854,
         3.293809463957587e-05],
    ),
    ("sujsq-det:0.85", 200): (
        0.27036161621256233, 1.247248716067498, 0.865506468000522,
        [0.3241072046912548, 0.4862791226169721, 0.1896136726917751],
    ),
    ("sujsq-exp:0.85", 200): (
        0.3223992987103492, 1.3939838591342626, 0.8993001967196149,
        [0.32675954896833576, 0.46272653505304295, 0.19572026948265606,
         0.01404146328260435, 0.0007521832133614464],
    ),
    ("aujsq-det:0.85", 200): (
        0.20609384564484148, 1.247248716067498, 0.8215790257332196,
        [0.3240544412014217, 0.5303120918639385, 0.14563346693463952],
    ),
    ("aujsq-exp:0.85", 200): (
        0.43627808528925044, 1.2360601614086573, 0.9797408519278681,
        [0.3253385710356609, 0.37132979748019435, 0.30158384000475796,
         0.001747791479386041],
    ),
    ("sujsq-det-idle:0.85", 200): (
        0.337713903713525, 0.47010271460014674, 0.9131016661893079,
        [0.324986226049073, 0.45019847883398423, 0.21154269799550637,
         0.0132725971214367],
    ),
    ("jiq", 200): (
        0.008360910056088635, 0.991929567131328, 0.6818781184193978,
        [0.32381984178382633, 0.670482198012951, 0.005697960203224404],
    ),
    ("jiq-p:0.5", 200): (
        1.040501542934292, 0.235509904622157, 1.434801676505628,
        [0.32923142037694714, 0.32916629776469525, 0.1586020754045451,
         0.07930817474744312, 0.046173602454478505, 0.02711133452120371,
         0.011389262570628094, 0.006674179837201581, 0.0046455191641319145,
         0.0029098101354059977, 0.001990282711750062, 0.0018666321385422075,
         0.0006957444411390612, 0.00023566373188897938],
    ),
    ("jsq-d:2", 200): (
        0.5192582465504234, 4.0, 1.0425308338851913,
        [0.3248378129824069, 0.3689824752710756, 0.24738071253157498,
         0.05640906330881106, 0.002389935906133766],
    ),
    ("random", 200): (
        1.685246079732242, 0.0, 1.8681910252100535,
        [0.33365845800176114, 0.22651972926960642, 0.15886853461791395,
         0.09547384217261956, 0.06932359172754343, 0.04336555156627826,
         0.028159126058589553, 0.01757100418998563, 0.010813642004703387,
         0.00688075380293991, 0.0034248724970343584, 0.0032040936601043847,
         0.0020692913337884704, 0.0006675090971325441],
    ),
    ("round-robin", 200): (
        0.6567081393133993, 0.0, 1.1397007439833529,
        [0.32849579440927634, 0.38529064640596256, 0.17060885433975007,
         0.0708637848384571, 0.02944698202176275, 0.010960635417539465,
         0.003138773538732317, 0.0005779983757294644, 0.0004174765298213492,
         0.00019905412296624192],
    ),
}


@pytest.mark.parametrize("policy, n", sorted(PINNED))
def test_outputs_pinned(policy, n):
    horizon = {2: 5000.0, 200: 50.0}[n]
    rec = run(make_config(policy, n=n, horizon=horizon, warmup=horizon / 5, seed=17))
    mean_wait, msgs_per_job, mean_queue, hist = PINNED[policy, n]
    assert rec.mean_wait == mean_wait
    assert rec.msgs_per_job == msgs_per_job
    assert rec.mean_queue_per_server == mean_queue
    assert rec.queue_len_hist.tolist() == hist


# Trajectories at N = 2000 (horizon 5, a snapshot every 0.1, seed 17), where
# the estimate kinds' levels hold hundreds of servers and the snapshots read
# whole queue and estimate lists.  Recorded before the level index got its
# ceiling and the snapshots their one conversion per list.  Values: sha256 of
# trajectory.y.tobytes(), clipped, mean_wait, msgs_per_job,
# mean_queue_per_server, queue_len_hist.
PINNED_TRAJECTORIES = {
    "aujsq-exp:0.85": (
        "a44dcacda0b642b2fa57578116f1c363cfdbbee534e45f620dd98827e2580415", 0.0,
        0.08777213546495506, 1.2360601614086573, 0.6687243283275724,
        [0.4251335509625418, 0.48100856974734785, 0.0938578792901128],
    ),
    "random": (
        "792a5088a78e0acfd5c5589f629f87d773ff7852f7cfea7eb03cc27055878a82", 0.0,
        0.31086145320896663, 0.0, 0.8587866744187054,
        [0.496803675464939, 0.2835862890782411, 0.13239131119065767,
         0.054353008552399454, 0.022130274786105353, 0.00675542814245113,
         0.0028687889175210667, 0.0010420270013511792, 6.91968663360556e-05],
    ),
    "sujsq-det:0.85": (
        "1441faaa503f55d0b683778cf4e1d73ef32773be23a92fa5da22fd6fab571fba", 0.0,
        0.0782137962668462, 1.467351430667645, 0.6646218742783733,
        [0.41882719112410943, 0.4977237434734116, 0.08344906540247951],
    ),
}


@pytest.mark.parametrize("policy", sorted(PINNED_TRAJECTORIES))
def test_trajectories_pinned(policy):
    rec = run(make_config(policy, n=2000, horizon=5.0, warmup=1.0, seed=17,
                          trajectory_grid=np.arange(0.1, 5.05, 0.1)))
    digest, clipped, mean_wait, msgs_per_job, mean_queue, hist = PINNED_TRAJECTORIES[policy]
    assert rec.trajectory.y.shape == (50, 41, 41)
    assert hashlib.sha256(rec.trajectory.y.tobytes()).hexdigest() == digest
    assert rec.trajectory.clipped == clipped
    assert rec.mean_wait == mean_wait
    assert rec.msgs_per_job == msgs_per_job
    assert rec.mean_queue_per_server == mean_queue
    assert rec.queue_len_hist.tolist() == hist


# Arrival gaps of 0.5 and services of 1.0, 2.0, 1.0, ... put arrivals,
# departures and the epochs of delta 1.0 on one grid, so the calendar meets
# exact ties of all three clocks and of departures among themselves.  jiq
# pins departures before arrivals, sujsq-det departures before updates before
# arrivals, and both the scheduling order of tied departures.  The values are
# those of the single-heap calendar that the three clocks replaced.
TIED = {
    "jiq": (
        0.8723404255319149, 0.40625, 1.5972222222222223, 0.5851063829787234,
        96, 94,
        [0.003472222222222222, 0.5, 0.3923611111111111, 0.10416666666666667],
        [31, 46, 43],
    ),
    "sujsq-det:1.0": (
        0.47368421052631576, 1.5, 1.3194444444444444, 0.5263157894736842,
        96, 95, [0.003472222222222222, 0.6736111111111112, 0.3229166666666667],
        [40, 33, 47],
    ),
    "sujsq-det-idle:1.0": (
        0.48947368421052634, 0.5, 1.3333333333333333, 0.49473684210526314,
        96, 95, [0.0, 0.6666666666666666, 0.3333333333333333], [32, 58, 30],
    ),
}


@pytest.mark.parametrize("policy", sorted(TIED))
def test_exact_ties_follow_the_tie_rule(policy, monkeypatch):
    def dyadic(rng, scale):  # the service stream is the one of scale 1
        return itertools.cycle([1.0, 2.0]) if scale == 1.0 else itertools.repeat(0.5)

    monkeypatch.setattr(des, "exponentials", dyadic)
    targets = count_targets(monkeypatch, 3)
    rec = run(make_config(policy, n=3, horizon=60.0, warmup=12.0, seed=4,
                          check_invariants=True))
    assert (
        rec.mean_wait, rec.msgs_per_job, rec.mean_queue_per_server,
        rec.frac_wait_positive, rec.n_arrivals, rec.n_waits,
        rec.queue_len_hist.tolist(), targets,
    ) == TIED[policy]


def account_replay(cfg, events, targets, messages):
    """The outputs of one run rebuilt from its events in calendar order, the
    dispatched servers and the (time, messages) of each policy hook, with
    the per-event account loop that the level fold replaced: at every queue
    change, every occupied level gains count x stretch.  Kept as the
    reference."""
    n, warmup, horizon = cfg.params.n_servers, cfg.warmup, cfg.horizon
    jmax = cfg.snapshot_jmax
    queues = [0] * n
    waiting = [deque() for _ in range(n)]
    level_counts, hist_area, top = [n], [0.0], 0
    total_queue, area_queue, t_mark = 0, 0.0, 0.0
    wait_sum, n_waits, n_arrivals = 0.0, 0, 0
    grid, snaps = cfg.grid_times().tolist(), []

    def account(t):
        nonlocal area_queue, t_mark
        lo = t_mark if t_mark > warmup else warmup
        hi = t if t < horizon else horizon
        if hi > lo:
            dt = hi - lo
            area_queue += total_queue * dt
            for j in range(top + 1):
                c = level_counts[j]
                if c:
                    hist_area[j] += c * dt
        t_mark = t

    def snapshot():
        snaps.append(np.bincount(np.minimum(queues, jmax), minlength=jmax + 1))

    targets = iter(targets)
    for t, kind, _, server in events:
        if t > horizon:
            break
        while grid and grid[0] < t:
            snapshot()
            grid.pop(0)
        if kind == des.UPDATE:
            continue
        account(t)
        if kind == des.ARRIVAL:
            server = next(targets)
            n_arrivals += t > warmup
            q_old = queues[server]
            queues[server] += 1
            total_queue += 1
            if q_old == top:
                top += 1
                if top == len(level_counts):
                    level_counts.append(0)
                    hist_area.append(0.0)
            level_counts[q_old] -= 1
            level_counts[q_old + 1] += 1
            if q_old:
                waiting[server].append(t)
            elif t > warmup:
                n_waits += 1
        else:
            q_old = queues[server]
            queues[server] -= 1
            total_queue -= 1
            level_counts[q_old] -= 1
            level_counts[q_old - 1] += 1
            if q_old == top and not level_counts[q_old]:
                top -= 1
            if q_old > 1:
                arrived = waiting[server].popleft()
                if arrived > warmup:
                    wait_sum += t - arrived
                    n_waits += 1
    account(horizon)
    for _ in grid:
        snapshot()
    window = (horizon - warmup) * n
    hist = np.array(hist_area) / window
    hist = hist[: int(np.flatnonzero(hist)[-1]) + 1]
    return {
        "mean_wait": wait_sum / n_waits if n_waits else 0.0,
        "msgs_per_job": sum(m for t, m in messages if t > warmup) / n_arrivals,
        "mean_queue_per_server": area_queue / window,
        "n_arrivals": n_arrivals,
        "queue_len_hist": hist,
        "queue_counts": np.array(snaps),
    }


@pytest.mark.parametrize("n, horizon, warmup", [(2, 700.3, 151.7), (200, 20.3, 4.1)])
@pytest.mark.parametrize("policy", sorted({policy for policy, _ in PINNED}))
def test_level_fold_replays_the_account_loop(policy, n, horizon, warmup, monkeypatch):
    # The events are rebuilt from what the loop schedules, as (t, kind, seq,
    # server): arrival times from the arrival gaps, updates from the
    # schedule and departures from the heap pushes.  Sorted, they follow
    # the tie rule; the run ends at the first event past the horizon.
    arrivals, updates, departures, idled = [], [], [], []
    targets, messages, streams = [], [], {}
    real = {name: getattr(des, name)
            for name in ("dispatch", "on_idle", "on_update", "apply_global_update",
                         "rng_streams", "exponentials", "schedule_updates")}

    def rng_streams(*args):
        streams.update(real["rng_streams"](*args))
        return streams

    def exponentials(rng, scale):
        for gap in real["exponentials"](rng, scale):
            if rng is streams["arrivals"]:
                t = arrivals[-1][0] + gap if arrivals else gap
                arrivals.append((t, des.ARRIVAL, len(arrivals), -1))
            yield gap

    def schedule_updates(*args):
        for t, server in real["schedule_updates"](*args):
            mark = -1 if server is None else server
            updates.append((t, des.UPDATE, len(updates), mark))
            yield t, server

    def scheduled(push):
        def departure(heap, entry):
            departures.append((entry[0], des.DEPARTURE, entry[1], entry[2]))
            return push(heap, entry)
        return departure

    def heappop(heap):
        idled.append(heap[0])
        return heapq.heappop(heap)

    # Each hook runs while its own clock still reads the current event.
    def dispatch(*args):
        target, msgs = real["dispatch"](*args)
        targets.append(target)
        messages.append((arrivals[-1][0], msgs))
        return target, msgs

    def recorded(name, clock):
        def hook(*args):
            msgs = real[name](*args)
            messages.append((clock[-1][0], msgs))
            return msgs
        return hook

    monkeypatch.setattr(des, "heapq", SimpleNamespace(
        heappush=scheduled(heapq.heappush), heapreplace=scheduled(heapq.heapreplace),
        heappop=heappop))
    monkeypatch.setattr(des, "rng_streams", rng_streams)
    monkeypatch.setattr(des, "exponentials", exponentials)
    monkeypatch.setattr(des, "schedule_updates", schedule_updates)
    monkeypatch.setattr(des, "dispatch", dispatch)
    for name, clock in (("on_idle", idled), ("on_update", updates),
                        ("apply_global_update", updates)):
        monkeypatch.setattr(des, name, recorded(name, clock))
    grid = np.arange(0.0, horizon, horizon / 37)
    cfg = make_config(policy, n=n, horizon=horizon, warmup=warmup, seed=5,
                      trajectory_grid=grid)
    rec = run(cfg)
    events = sorted(arrivals + updates + departures)
    events = events[: next(i for i, e in enumerate(events) if e[0] > horizon) + 1]
    ref = account_replay(cfg, events, targets, messages)
    # warmup and horizon each fall inside a stretch between queue changes
    changes = [t for t, kind, _, _ in events if kind != des.UPDATE]
    assert changes[0] < warmup < changes[-1] and events[-1][0] > horizon
    assert warmup not in changes and horizon not in changes
    for name in ("mean_wait", "msgs_per_job", "mean_queue_per_server", "n_arrivals"):
        assert getattr(rec, name) == ref[name], name
    assert len(rec.queue_len_hist) == len(ref["queue_len_hist"])
    assert np.all(np.abs(rec.queue_len_hist - ref["queue_len_hist"])
                  <= 1e-14 * ref["queue_len_hist"])
    assert np.array_equal(np.rint(rec.trajectory.y.sum(axis=2) * n), ref["queue_counts"])
