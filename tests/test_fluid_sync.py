import math

import numpy as np
import pytest

from sparselb.model import FluidState, TruncationError
from sparselb.fluid_async import integrate_async
from sparselb.fluid_sync import (
    apply_sync_update,
    check_trajectory_invariants,
    integrate_sync,
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
    run = integrate_sync(y0, lam, delta, 20 * T, dt=T / 400)
    for te in run.update_epochs:
        idx = int(np.argmin(np.abs(run.times - te)))
        assert np.abs(run.states[idx] - y0).max() < 1e-6


def test_cycle_interior_is_linear():
    lam, delta = 0.7, 2.5
    y0 = two_point_state(lam, jmax=40)
    T = 1.0 / delta
    grid = np.arange(0.05, 20 * T, 0.1)
    run = integrate_sync(y0, lam, delta, 20 * T, dt=T / 400, store_times=grid)
    for t, y in zip(run.times, run.states):
        s = t % T
        if s < 1e-9 or T - s < 1e-9:
            continue
        assert y[0, 0] == pytest.approx(1 - lam - lam * s, abs=1e-6)
        assert y[0, 1] == pytest.approx(lam * s, abs=1e-6)
        assert y[1, 1] == pytest.approx(lam, abs=1e-6)


def test_convergence_from_empty_fast_updates():
    lam, delta = 0.7, 2.5
    T = 1.0 / delta
    target = two_point_state(lam, jmax=40)
    run = integrate_sync(
        FluidState.empty(40), lam, delta, 200 * T, dt=T / 250, store_times=[200 * T]
    )
    assert np.abs(run.states[-1] - target).max() < 1e-4


def test_slow_updates_build_queues_of_two():
    # sparse updates: some servers accumulate two jobs
    run = integrate_sync(FluidState.empty(40), 0.7, 0.85, 6.0, dt=1e-3)
    v2_max = max(s.sum(axis=1)[2] for s in run.states)
    assert v2_max > 1e-3


def test_min_level_never_decreases_between_epochs():
    run = integrate_sync(FluidState.empty(40), 0.7, 0.85, 6.0, dt=1e-3)
    epochs = set(np.round(run.update_epochs, 12))
    prev_m = None
    for t, y in zip(run.times, run.states):
        w = y.sum(axis=0)
        m = int(np.flatnonzero(w > 1e-9)[0])
        if prev_m is not None and round(t, 12) not in epochs:
            assert m >= prev_m
        prev_m = m


def test_mass_and_positivity_along_run():
    run = integrate_sync(FluidState.empty(40), 0.7, 0.85, 8.0, dt=1e-3)
    totals = run.states.sum(axis=(1, 2))
    assert np.abs(totals - 1.0).max() < 1e-9
    assert run.states.min() >= 0.0
    assert run.clamped <= 1e-12


def test_explicit_epoch_list():
    epochs = [0.7, 1.1, 2.9]
    # a store time one ulp below an epoch merges into it
    grid = np.append(np.linspace(0.0, 3.0, 1001), np.nextafter(1.1, 0.0))
    run = integrate_sync(
        FluidState.empty(40), 0.7, 0.85, 3.0, dt=1e-3, epochs=epochs, store_times=grid
    )
    assert list(run.update_epochs) == epochs
    assert list(run.times).count(1.1) == 1
    assert np.nextafter(1.1, 0.0) not in run.times
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
    run = integrate(FluidState.empty(40), 0.7, 0.85, 7.3, dt=0.01, store_times=grid)
    assert run.times[-1] == 7.3
    assert np.all(np.diff(run.times) > 0.0)


def test_truncation_guard_trips():
    y0 = np.zeros((3, 3))
    y0[0, 0] = 1.0
    with pytest.raises(TruncationError):
        integrate_sync(y0, 0.7, 0.85, 4.0, dt=1e-3)


def test_dt_precondition():
    with pytest.raises(ValueError):
        integrate_sync(FluidState.empty(40), 0.7, 0.85, 1.0, dt=0.5)


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


def test_poisson_ab_identity_and_monotonicity():
    for level in range(1, 21):
        for t in np.linspace(0.0, 5.0, 26):
            pm = poisson_ab(level, float(t))
            assert pm.a + pm.b == pytest.approx(level, abs=1e-12)
            nxt = poisson_ab(level + 1, float(t))
            assert pm.a / level <= nxt.a / (level + 1) + 1e-12


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
    run = integrate_sync(y0, lam, delta, 60.0, dt=1e-3)
    v = run.states[-1].sum(axis=1)
    idx = np.arange(41)
    tail = float(((idx[idx > bound] - bound) * v[idx > bound]).sum())
    assert tail < 1e-6


# --- trajectory checks ------------------------------------------------------


def test_trajectory_checks_pass_on_cycle_run():
    lam, delta = 0.7, 2.5
    run = integrate_sync(two_point_state(lam, 40), lam, delta, 8 / delta, dt=4e-4)
    report = check_trajectory_invariants(run)
    assert report.passed, report.violations
    assert report.residuals["queue_balance"] < 1e-6


def test_trajectory_checks_pass_from_empty():
    run = integrate_sync(FluidState.empty(40), 0.7, 0.85, 6.0, dt=1e-3)
    report = check_trajectory_invariants(run)
    assert report.passed, report.violations


def test_trajectory_checks_flag_doctored_run():
    run = integrate_sync(FluidState.empty(40), 0.7, 0.85, 3.0, dt=1e-3)
    run.states[-1] *= 1.5  # break mass conservation
    report = check_trajectory_invariants(run)
    assert not report.passed
    assert "mass_conservation" in report.violations
