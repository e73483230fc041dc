import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparselb import fluid_async, fluid_sync, model
from sparselb.cli import main
from sparselb.fixed_point import y_star
from sparselb.model import (
    FluidState,
    StateError,
    TruncationError,
    default_jmax,
    min_estimate_level,
)
from sparselb.fluid_async import integrate_async
from sparselb.fluid_sync import (
    CheckReport,
    IntegrationError,
    apply_sync_update,
    check_trajectory_invariants,
    integrate_sync,
    move_leftover,
    poisson_ab,
    queue_bound,
    rhs_sync,
    sigma,
)


def two_point_state(lam, jmax=6):
    y = np.zeros((jmax + 1, jmax + 1))
    y[0, 0] = 1.0 - lam
    y[1, 1] = lam
    return y


# --- derivative ------------------------------------------------------------


def test_rhs_at_two_point_state():
    lam = 0.7
    dy = rhs_sync(two_point_state(lam), lam)
    assert dy[0, 0] == pytest.approx(-lam)
    assert dy[0, 1] == pytest.approx(lam)  # completions at (1,1) land here
    assert dy[1, 1] == pytest.approx(0.0)
    assert dy.sum() == pytest.approx(0.0, abs=1e-15)


def test_rhs_empty_start():
    lam = 0.7
    y = np.zeros((4, 4))
    y[0, 0] = 1.0
    dy = rhs_sync(y, lam)
    assert dy[0, 0] == pytest.approx(-lam)
    assert dy[1, 1] == pytest.approx(lam)
    dy[0, 0] = dy[1, 1] = 0.0
    assert np.abs(dy).max() == 0.0


def test_rhs_conserves_mass_on_random_states():
    rng = np.random.default_rng(17)
    for _ in range(25):
        y = np.triu(rng.random((7, 7)))
        y /= y.sum()
        assert rhs_sync(y, 0.6).sum() == pytest.approx(0.0, abs=1e-14)


# --- epoch jump ------------------------------------------------------------


def test_apply_sync_update_collapses_columns():
    y = np.zeros((3, 3))
    y[0, 1] = 0.4
    y[1, 1] = 0.6
    out = apply_sync_update(y)
    assert out[0, 0] == pytest.approx(0.4)
    assert out[1, 1] == pytest.approx(0.6)
    assert out.sum() == pytest.approx(1.0)


def test_apply_sync_update_idempotent_on_diagonal():
    y = np.diag([0.2, 0.5, 0.3])
    assert np.allclose(apply_sync_update(y), y)


def test_apply_sync_update_recovers_cycle_endpoint():
    lam, T = 0.7, 0.3
    y = np.zeros((3, 3))
    y[0, 0] = 1 - lam - lam * T
    y[0, 1] = lam * T
    y[1, 1] = lam
    out = apply_sync_update(y)
    assert out[0, 0] == pytest.approx(1 - lam)
    assert out[1, 1] == pytest.approx(lam)


# --- integration -----------------------------------------------------------


def test_cycle_stays_at_two_point_state():
    lam, delta = 0.7, 2.5
    y0 = two_point_state(lam, jmax=40)
    T = 1.0 / delta
    run = integrate_sync(y0, lam, delta, 20 * T)
    for te in run.update_epochs:
        idx = int(np.argmin(np.abs(run.times - te)))
        assert np.abs(run.states[idx] - y0).max() < 1e-6


def test_cycle_interior_is_linear():
    lam, delta = 0.7, 2.5
    y0 = two_point_state(lam, jmax=40)
    T = 1.0 / delta
    grid = np.arange(0.05, 20 * T, 0.1)
    run = integrate_sync(y0, lam, delta, 20 * T, store_times=grid)
    for t, y in zip(run.times, run.states):
        s = t % T
        if s < 1e-9 or T - s < 1e-9:
            continue
        assert y[0, 0] == pytest.approx(1 - lam - lam * s, abs=1e-6)
        assert y[0, 1] == pytest.approx(lam * s, abs=1e-6)
        assert y[1, 1] == pytest.approx(lam, abs=1e-6)


def test_slow_updates_build_queues_of_two():
    # sparse updates: some servers accumulate two jobs
    run = integrate_sync(FluidState.empty(40), 0.7, 0.85, 6.0)
    v2_max = max(s.sum(axis=1)[2] for s in run.states)
    assert v2_max > 1e-3


def test_min_level_never_decreases_between_epochs():
    run = integrate_sync(FluidState.empty(40), 0.7, 0.85, 6.0)
    epochs = set(np.round(run.update_epochs, 12))
    prev_m = None
    for t, y in zip(run.times, run.states):
        w = y.sum(axis=0)
        m = int(np.flatnonzero(w > 1e-9)[0])
        if prev_m is not None and round(t, 12) not in epochs:
            assert m >= prev_m
        prev_m = m


def test_mass_and_positivity_along_run():
    run = integrate_sync(FluidState.empty(40), 0.7, 0.85, 8.0)
    totals = run.states.sum(axis=(1, 2))
    assert np.abs(totals - 1.0).max() < 1e-9
    assert run.states.min() >= 0.0
    assert run.clamped <= 1e-12


def test_explicit_epoch_list():
    # epochs sit at k/delta: 1/0.85, 2/0.85 and 3/0.85 before t_end = 4
    epochs = [k / 0.85 for k in (1, 2, 3)]
    first = 1.0 / 0.85
    # a store time one ulp below an epoch merges into it
    grid = np.append(np.linspace(0.0, 4.0, 1001), np.nextafter(first, 0.0))
    run = integrate_sync(FluidState.empty(40), 0.7, 0.85, 4.0, store_times=grid)
    assert list(run.update_epochs) == pytest.approx(epochs, abs=1e-12)
    assert list(run.times).count(first) == 1
    assert np.nextafter(first, 0.0) not in run.times
    # post-epoch states are diagonal
    for te in epochs:
        idx = int(np.argmin(np.abs(run.times - te)))
        y = run.states[idx]
        assert np.abs(y - np.diag(np.diag(y))).max() < 1e-12


@pytest.mark.parametrize("integrate", [integrate_sync, integrate_async])
def test_run_ends_exactly_at_t_end(integrate):
    # the grid's last point overshoots t_end by an ulp and merges into it
    grid = np.arange(0, 7.3 + 1e-12, 0.1)
    assert grid[-1] > 7.3
    kwargs = {"dt": 0.01} if integrate is integrate_async else {}
    run = integrate(FluidState.empty(40), 0.7, 0.85, 7.3, store_times=grid, **kwargs)
    assert run.times[-1] == 7.3
    assert np.all(np.diff(run.times) > 0.0)


@pytest.mark.parametrize("integrate, states", [
    (integrate_sync, 1004),  # time 0, the 1000 default store times and 3 epochs
    (integrate_async, 1001),
])
def test_stored_states_over_the_budget_are_refused(integrate, states, monkeypatch):
    kwargs = {"dt": 0.01} if integrate is integrate_async else {}
    monkeypatch.setattr(model, "MAX_STATE_BYTES", states * 8 * 41 ** 2 - 1)
    with pytest.raises(StateError, match=f"{integrate.__name__}: {states} x .* budget"):
        integrate(FluidState.empty(40), 0.7, 0.85, 4.0, **kwargs)
    monkeypatch.setattr(model, "MAX_STATE_BYTES", states * 8 * 41 ** 2)
    assert len(integrate(FluidState.empty(40), 0.7, 0.85, 4.0, **kwargs).states) == states


@pytest.mark.parametrize("t_end, delta, grid_dt, floor, states", [
    (10.0, 0.85, 0.1, 101, 109),  # the CLI's grids, counted in test_cli
    (100.0, 2.5, 1.0, 251, 301),  # 250 epochs
    (7.3, None, 0.2, 37, 38),
    (4.0, 250.0, 1.0, 1001, 1001),  # 1000 epochs, every store time on one
])
def test_stored_stops_refuse_by_the_epochs_then_by_the_stops(t_end, delta, grid_dt, floor,
                                                              states, monkeypatch):
    # floor is the CLI's: the store times, or the epochs and time 0 if they
    # are more; the owner refuses by the epochs, then by the store times,
    # before it calls stops
    store = np.arange(0.0, t_end + 1e-12, grid_dt)
    epochs = 1 + sum(is_epoch for _, is_epoch in fluid_sync.stops(t_end, delta, store))
    assert max(len(store), epochs) == floor

    class Built(Exception):
        pass

    def built(*args):
        raise Built

    def stored(budget):
        monkeypatch.setattr(model, "MAX_STATE_BYTES", budget * 8 * 41 ** 2)
        return fluid_sync.stored_stops(t_end, delta, store, 40, "run")

    with monkeypatch.context() as patch:
        patch.setattr(fluid_sync, "stops", built)
        with pytest.raises(StateError, match=f"run: {epochs} x "):
            stored(epochs - 1)
        with pytest.raises(StateError, match=f"run: {floor} x "):
            stored(floor - 1)
        with pytest.raises(Built):
            stored(floor)
    with pytest.raises(StateError, match=f"run: {states} x "):
        stored(states - 1)
    assert len(stored(states)) + 1 == states


def test_stops_merge_onto_an_epoch_then_t_end_then_the_first_time():
    gap = 1e-13  # under the merge gap, 1e-12 * max(1, t_end)
    assert fluid_sync.stops(2.0, 1.0, [1.0 - gap, 1.5, 1.5 + gap, 2.0 - gap]) == [
        (1.0, True), (1.5, False), (2.0, True)]
    assert fluid_sync.stops(1.0, None, [0.5, 1.0 - gap]) == [(0.5, False), (1.0, False)]
    # times exactly the gap apart merge, and 1.5 times it apart do not
    assert fluid_sync.stops(1.0, None, [1e-12, 2e-12]) == [(1e-12, False), (1.0, False)]
    assert len(fluid_sync.stops(1.0, None, [0.5, 0.5 + 1.5e-12])) == 3
    assert len(fluid_sync.stops(100.0, None, [50.0, 50.0 + 9e-11])) == 2


def test_an_epoch_just_past_t_end_is_no_stop():
    # the 10,000th epoch, 10.0, lies within the merge gap of t_end but past it
    t_end = 10.0 - 5e-12
    marks = fluid_sync.stops(t_end, 1000.0, [])
    assert sum(is_epoch for _, is_epoch in marks) == 9999
    assert marks[-1] == (t_end, False)


def test_no_store_time_past_t_end_is_a_stop():
    # the epoch wins t_end's group and keeps its earlier time; a store time
    # past t_end, more than the gap from that time, is no stop of its own
    late = 1.0 + 6e-13
    assert fluid_sync.stops(1.0, 1 / (1 - 6e-13), [late]) == [(0.9999999999994, True)]
    run = integrate_sync(FluidState.empty(40), 0.7, 1 / (1 - 6e-13), 1.0,
                         store_times=np.array([0.5, late]))
    assert run.times.tolist() == [0.0, 0.5, 0.9999999999994]
    # an epoch just past t_end, within the gap, stays a stop past it
    assert fluid_sync.stops(1.0, 1 / (1 + 6e-13), [late]) == [(1.0000000000006, True)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1.0, 100.0]), st.sampled_from([None, 1.0, 2.0]),
       st.lists(st.tuples(st.sampled_from([0.5, 1.0]), st.integers(-12, 12)), max_size=10))
@example(1.0, 2.0, [(0.5, -3), (0.5, 3), (1.0, 0)])  # 1.5 gaps apart, merged into one epoch
def test_store_time_floor_refuses_no_run_its_stops_fit(t_end, delta, offsets):
    # store times packed around a store time, t_end and the epochs, a
    # quarter gap apart: each budget the stops fit passes the floor
    gap = fluid_sync._merge_gap(t_end)
    store = [t_end * base + k * gap / 4 for base, k in offsets]
    states = len(fluid_sync.stops(t_end, delta, store)) + 1
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model, "MAX_STATE_BYTES", states * 8 * 41 ** 2)
        assert len(fluid_sync.stored_stops(t_end, delta, store, 40, "run")) + 1 == states


def test_many_store_times_are_refused_before_stops(monkeypatch):
    # 2,000,001 store times cost stops about 435 MB of tuples; the floor
    # on the stops they make refuses them from one sorted copy
    monkeypatch.setattr(fluid_sync, "stops", lambda *a: pytest.fail("stops built"))
    store = np.linspace(0, 20, 2_000_001)
    tracemalloc.start()
    try:
        with pytest.raises(StateError, match="integrate_async: 2000001 x "):
            integrate_async(FluidState.empty(40), 0.7, 0.85, 20.0, store_times=store)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64_000_000


@pytest.mark.parametrize("delta", [1e5, 1e9, 1e12, 1e308])
def test_integrate_sync_refuses_before_building_its_stops(delta, monkeypatch):
    # 10^6 epochs and up, past the largest float at 1e308: each is refused
    # by its count before stops lists a single one
    monkeypatch.setattr(fluid_sync, "stops", lambda *a: pytest.fail("stops built"))
    y0 = FluidState.empty(40)
    tracemalloc.start()
    try:
        with pytest.raises(StateError, match="integrate_sync: |float infinity"):
            integrate_sync(y0, 0.7, delta, 10.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_truncation_guard_trips():
    y0 = np.zeros((3, 3))
    y0[0, 0] = 1.0
    with pytest.raises(TruncationError):
        integrate_sync(y0, 0.7, 0.85, 4.0)


def test_dt_precondition():
    # integrate_async is the one integrator that takes steps
    for dt in (0.5, 0.0, -1e-3):
        with pytest.raises(ValueError, match="dt"):
            integrate_async(FluidState.empty(40), 0.7, 0.85, 1.0, dt=dt)


@pytest.mark.parametrize("integrate", [integrate_sync, integrate_async])
@pytest.mark.parametrize("t_end", [0.0, -1.0])
def test_t_end_must_be_positive(integrate, t_end):
    with pytest.raises(ValueError, match="t_end"):
        integrate(FluidState.empty(40), 0.7, 0.85, t_end)


# --- Poisson drain quantities ----------------------------------------------


def test_poisson_ab_closed_forms():
    # A(1, t) = e^-t
    pm = poisson_ab(1, 0.5)
    assert pm.a == pytest.approx(math.exp(-0.5), abs=1e-12)
    # frozen direct-pmf value: B(2, 1) = p1 + 2(1 - p0 - p1)
    assert poisson_ab(2, 1.0).b == pytest.approx(0.896361676485673, abs=1e-12)
    # no time, no completions
    pm = poisson_ab(5, 0.0)
    assert pm.a == 5.0 and pm.b == 0.0


def test_queue_bound_scan_values():
    # frozen scan-oracle values
    assert queue_bound(0.7, 1 / 0.85).s_star == 7
    assert queue_bound(0.7, 0.4).s_star == 5


def test_queue_bound_minimality_and_margin():
    analysis = queue_bound(0.7, 1 / 0.85)
    lam_t = 0.7 / 0.85
    assert analysis.delta_margin > 0
    assert analysis.delta_margin == pytest.approx(
        sigma(analysis.s_star, 0.7, 1 / 0.85) - lam_t
    )
    assert sigma(analysis.s_star - 1, 0.7, 1 / 0.85) <= lam_t


def test_queue_bound_at_least_two():
    for lam in (0.1, 0.5, 0.9):
        for T in (0.2, 1.0, 3.0):
            assert queue_bound(lam, T).s_star >= 2


def test_tail_mass_vanishes_above_bound():
    # fast updates: tail above the bound dies out along epoch states
    lam, delta = 0.7, 2.5
    bound = queue_bound(lam, 1 / delta).s_star
    y0 = np.zeros((41, 41))
    y0[0, 0] = 0.5
    y0[3, 3] = 0.5  # start with queue mass at level 3
    run = integrate_sync(y0, lam, delta, 60.0)
    v = run.states[-1].sum(axis=1)
    idx = np.arange(41)
    tail = float(((idx[idx > bound] - bound) * v[idx > bound]).sum())
    assert tail < 1e-6


# --- trajectory checks ------------------------------------------------------


def test_trajectory_checks_pass_on_cycle_run():
    lam, delta = 0.7, 2.5
    run = integrate_sync(two_point_state(lam, 40), lam, delta, 8 / delta)
    report = check_trajectory_invariants(run)
    assert report.passed, report.violations
    assert report.residuals["queue_balance"] < 1e-6


def test_trajectory_checks_pass_from_empty():
    run = integrate_sync(FluidState.empty(40), 0.7, 0.85, 6.0)
    report = check_trajectory_invariants(run)
    assert report.passed, report.violations


def test_trajectory_checks_flag_doctored_run():
    run = integrate_sync(FluidState.empty(40), 0.7, 0.85, 3.0)
    run.states[-1] *= 1.5  # break mass conservation
    report = check_trajectory_invariants(run)
    assert not report.passed
    assert "mass_conservation" in report.violations


def test_check_report_keeps_nan():
    report = CheckReport()
    report.record("x", float("nan"), 1e-3)
    report.record("x", 1e-5, 1e-3)  # a later finite residual must not hide it
    assert "x" in report.violations


def loop_checks(run):
    """The per-step slope and tail-mass loops that check_trajectory_invariants
    replaced with array operations, kept as its reference."""
    report = CheckReport()
    times, states, lam = run.times, run.states, run.lam
    epoch_set = set(np.round(run.update_epochs, 12))
    n_levels = states.shape[2]
    v_all = states.sum(axis=2)
    w_all = states.sum(axis=1)
    m_all = np.array([min_estimate_level(w) for w in w_all])
    idx_lv = np.arange(n_levels)
    for k in range(len(times) - 1):
        t0, t1 = times[k], times[k + 1]
        h = t1 - t0
        if h <= 1e-12 or round(t1, 12) in epoch_set or round(t0, 12) in epoch_set:
            continue
        if m_all[k] != m_all[k + 1]:
            continue
        m = m_all[k]
        dw_m = (w_all[k + 1, m] - w_all[k, m]) / h
        report.record("min_level_drain_slope", abs(dw_m + lam), 1e-3)
        if m + 1 < n_levels:
            dw_up = (w_all[k + 1, m + 1] - w_all[k, m + 1]) / h
            report.record("next_level_fill_slope", abs(dw_up - lam), 1e-3)
    q_gt = {}
    max_support = int(np.max(np.nonzero(v_all.sum(axis=0) > 1e-12))) if v_all.any() else 0
    for level in range(1, max_support + 2):
        above = idx_lv > level
        q_gt[level] = v_all[:, above] @ (idx_lv[above] - level)
    for k in range(len(times) - 1):
        if times[k + 1] - times[k] <= 1e-12:
            continue
        for level in q_gt:
            if m_all[k] <= level - 1 and m_all[k + 1] <= level - 1:
                rise = q_gt[level][k + 1] - q_gt[level][k]
                report.record("tail_mass_monotone", max(rise, 0.0), 1e-9)
    return report


@pytest.mark.parametrize("y0, lam, delta, t_end", [
    (two_point_state(0.7, 40), 0.7, 2.5, 3.2),
    (FluidState.empty(40), 0.7, 0.85, 6.0),
    (FluidState.empty(40), 0.9, 0.3, 8.0),
])
def test_trajectory_checks_replay_the_loops(y0, lam, delta, t_end):
    run = integrate_sync(y0, lam, delta, t_end)
    report = check_trajectory_invariants(run)
    ref = loop_checks(run)
    for name in ("min_level_drain_slope", "next_level_fill_slope", "tail_mass_monotone"):
        assert report.residuals[name] == ref.residuals[name]
        assert report.tolerances[name] == ref.tolerances[name]


@pytest.mark.parametrize("lam, delta", [(0.7, 0.3), (0.7, 0.5), (0.5, 0.2), (0.9, 0.85)])
def test_sparse_feedback_runs_from_empty(lam, delta):
    # Each ended in IntegrationError while a drained column kept cells of
    # opposite sign after the switch-point bisection.
    jmax = default_jmax(lam, delta)
    for integrate in (integrate_sync, integrate_async):
        run = integrate(FluidState.empty(jmax), lam, delta, 8.0)
        assert run.times[-1] == 8.0
        assert run.states.min() >= 0.0
        assert np.abs(run.states.sum(axis=(1, 2)) - 1.0).max() < 1e-9


def test_a_landing_with_large_drained_cells_is_refused():
    # column 1 sums to zero but holds cells of -+1e-6: no round-off leftover
    y = np.zeros((4, 4))
    y[0, 2], y[1, 2], y[2, 2] = 0.5, 0.3, 0.2
    y[0, 1], y[1, 1] = -1e-6, 1e-6
    assert not fluid_sync.landed(y[:, 1])
    with pytest.raises(IntegrationError, match="drained column 1 keeps a cell of 1e-06"):
        move_leftover(y.copy(), 1)
    # within SWITCH_TOL the cells are leftover: each moves up a level in its row
    y[0, 1], y[1, 1] = -4e-11, 6e-11
    assert fluid_sync.landed(y[:, 1])
    moved = y.copy()
    move_leftover(moved, 1)
    assert not moved[:, 1].any()
    assert moved[0, 2] == 0.5 - 4e-11 and moved[1, 2] == 0.3 + 6e-11


@pytest.mark.parametrize("cell", [0.0, 1e-6])
def test_switch_bisection_lands_only_on_small_cells(cell):
    # a step that drains column 0 linearly to zero at h = 0.3, its cells
    # -+cell apart: the bisection lands near 0.3, or nowhere
    y = np.zeros((3, 3))
    y[0, 0], y[0, 1] = 0.3, 0.7

    def step(z, h):
        out = z.copy()
        out[0, 0], out[1, 0] = 0.3 - h - cell, cell
        out[0, 1] += h
        return out

    if cell:
        with pytest.raises(IntegrationError, match="bisection"):
            fluid_sync.split_step_at_switch(step, y, 1.0, 0)
    else:
        h, landing = fluid_sync.split_step_at_switch(step, y, 1.0, 0)
        assert h == pytest.approx(0.3, abs=1e-10) and fluid_sync.landed(landing[:, 0])


def test_fluid_cli_starts_from_the_fixed_point(tmp_path):
    out = tmp_path / "traj.csv"
    assert main(["fluid", "sync", "--y0", "fixed-point", "--out", str(out)]) == 0
    assert out.read_text().startswith("t,i,j,y\n")


# --- exact flow against RK4 ---------------------------------------------------


def rk4_sync(y0, lam, delta, t_end, store_times):
    """The synchronous limit by fine RK4 steps: fluid_async._advance(rhs_sync)
    from each store time or epoch to the next, with the epoch jump applied
    at each epoch; t_end must not be an epoch.  Arrivals drain column m at
    rate lam, so its composition relaxes at lam / w_m."""
    dt = min(1.0 / delta, 1.0) / 10000.0
    y = np.array(y0.y if isinstance(y0, FluidState) else y0, dtype=float)
    epochs = {*np.arange(1, math.floor(t_end * delta + 1e-12) + 1) / delta}
    states, start = [], 0.0
    for end in sorted(epochs | {t for t in store_times if t > 0.0} | {t_end}):
        fluid_async._advance(lambda z: rhs_sync(z, lam), lambda z, w, m: lam / w[m], y,
                             end - start, dt)
        if end in epochs:
            y = apply_sync_update(y)
        states.append(y.copy())
        start = end
    return np.array(states)


@pytest.mark.parametrize("y0, delta, t_end", [
    (FluidState.empty(40), 0.85, 4.0),
    (FluidState.empty(40), 2.5, 2.1),
    (FluidState.empty(40), 0.3, 7.0),
    (two_point_state(0.7, 40), 2.5, 2.1),
    (y_star(0.7, 0.85, jmax=40).y_star, 0.85, 3.0),
])
def test_exact_flow_matches_fine_rk4(y0, delta, t_end):
    lam = 0.7
    grid = np.linspace(0.0, t_end, 41)
    run = integrate_sync(y0, lam, delta, t_end, store_times=grid)
    ref = rk4_sync(y0, lam, delta, t_end, grid)
    assert len(run.states) == len(ref) + 1
    assert np.abs(run.states[1:] - ref).max() < 1e-8


def test_sync_takes_no_rk4_steps(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the synchronous limit must not step")

    for name in ("rhs_sync", "split_step_at_switch"):
        monkeypatch.setattr(fluid_sync, name, refuse)
    monkeypatch.setattr(fluid_async, "_rk4", refuse)
    for y0 in (FluidState.empty(40), y_star(0.7, 0.85, jmax=40).y_star):
        run = integrate_sync(y0, 0.7, 0.85, 6.0)
        assert run.times[-1] == 6.0
        assert np.abs(run.states.sum(axis=(1, 2)) - 1.0).max() < 1e-9


def poisson_ab_reference(level, t):
    """A and B summed in full precision from the pmf e^(-t + g log t - lgamma(g + 1)),
    B over the whole support, with no use of A + B = L."""
    if t == 0.0:
        return float(level), 0.0
    reach = int(t + 40.0 * math.sqrt(t)) + level + 60
    pmf = [math.exp(-t + g * math.log(t) - math.lgamma(g + 1)) for g in range(reach)]
    return (math.fsum((level - g) * pmf[g] for g in range(level + 1)),
            math.fsum(min(g, level) * p for g, p in enumerate(pmf)))


@pytest.mark.parametrize("t", [0.0, 1e-17, 1e-10, 0.5, 5.0, 700.0, 750.0, 800.0, 5000.0])
def test_poisson_ab_matches_an_lgamma_reference(t):
    # e^-t underflows past t = 745, and 1 - e^-t rounds to 0 below t = 1e-16
    for level in (0, 1, 2, 7, 40, 800, 6000):
        ref_a, ref_b = poisson_ab_reference(level, t)
        pm = poisson_ab(level, t)
        assert pm.a == pytest.approx(ref_a, rel=1e-9, abs=1e-300)
        assert pm.b == pytest.approx(ref_b, rel=1e-9, abs=1e-300)
        assert pm.a >= 0.0 and pm.b >= 0.0 and pm.a + pm.b == level


def test_queue_bound_at_a_long_period():
    # sigma(1870) = (1 - 561/1870) B(1870, 800) = 0.7 B, and B < T = 800, so
    # 1871 is the first level past lam T = 560; with e^-800 read as 0, A(L, 800)
    # was 0 for every level and the scan stopped at 1122
    assert poisson_ab(800, 800.0).a == pytest.approx(11.282616337, rel=1e-9)
    assert queue_bound(0.7, 800.0).s_star == 1871


@pytest.mark.parametrize("level, t", [(-1, 1.0), (3, -0.5)])
def test_poisson_ab_refuses_a_negative_level_or_time(level, t):
    with pytest.raises(ValueError, match="need level >= 0 and t >= 0"):
        poisson_ab(level, t)
