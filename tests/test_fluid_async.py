import hashlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from sparselb import fluid_async, fluid_sync
from sparselb.model import (NEG_TOL, SWITCH_TOL, FluidState, StateError, default_jmax,
                            min_estimate_level)
from sparselb.fluid_async import (
    CAP_TOL,
    driver_of,
    integrate_async,
    rhs_async,
)
from sparselb.fixed_point import y_star
from sparselb.fluid_sync import IntegrationError, rhs_sync


def driver(y, lam, delta):
    """driver_of on the queue and estimate marginals of an occupancy array."""
    return driver_of(y.sum(axis=1).tolist(), y.sum(axis=0).tolist(), lam, delta)


def test_driver_empty_state():
    y = np.zeros((4, 4))
    y[0, 0] = 1.0
    drv = driver(y, 0.7, 0.85)
    assert drv.n == 0
    assert drv.zeta == pytest.approx(0.7)
    assert drv.u[0] == 0.0


def test_driver_capacity_values():
    # all mass idle with estimate 3: u_k = delta * k for k <= 3
    y = np.zeros((6, 6))
    y[0, 3] = 1.0
    drv = driver(y, 0.7, 0.3)
    assert np.allclose(drv.u[:5], [0.0, 0.3, 0.6, 0.9, 1.2])
    # capacity below the minimum estimate exceeds lam, so the dispatch level
    # drops to the highest level whose capacity still fits under lam
    assert drv.n == 2
    assert drv.zeta == pytest.approx(0.7 - 0.6)


def test_driver_zeta_zero_at_capacity_boundary():
    # u_1 = delta * v_0 = lam exactly
    y = np.zeros((4, 4))
    y[0, 1] = 0.5
    y[1, 1] = 0.5
    drv = driver(y, 0.5, 1.0)
    assert drv.n == 1
    assert drv.zeta == pytest.approx(0.0, abs=1e-12)


def test_driver_capacity_formula_on_random_states():
    # every estimate at the top level, so that u lists every level 0..len(v)
    rng = np.random.default_rng(23)
    for _ in range(20):
        v = rng.random(6)
        delta = rng.uniform(0.1, 3.0)
        y = np.zeros((6, 6))
        y[:, -1] = v
        u = driver(y, 0.7, delta).u
        assert len(u) == len(v) + 1
        for k in range(len(v) + 1):
            direct = delta * sum((k - i) * v[i] for i in range(min(k, len(v))))
            assert u[k] == pytest.approx(direct, abs=1e-12)


def numpy_driver(y, lam, delta):
    """driver_of as it was computed with numpy arrays, kept as the reference:
    u up to level m + 1, n and zeta."""
    v, w = y.sum(axis=1), y.sum(axis=0)
    m = int(np.flatnonzero(w > SWITCH_TOL)[0])
    u = np.concatenate([[0.0], delta * np.cumsum(np.cumsum(v))])
    if u[m] <= lam + CAP_TOL:
        n = m
    else:
        n = int(np.searchsorted(u[: m + 1], lam + CAP_TOL, side="right")) - 1
    return u[: m + 2].tolist(), n, max(lam - u[n], 0.0)


def test_driver_equals_numpy_driver_on_random_states():
    # states with low estimates left empty, so that the capacity below the
    # minimum level often exceeds lam, and with entries of either sign, as
    # in an RK4 stage, so that u need not be sorted
    # u[:5] = [0, 0.1, 0.5, 0.1, 0.5] at lam 0.2: a binary search and a scan
    # for the last u[k] <= lam disagree
    y = np.zeros((6, 6))
    y[:5, 4] = [0.1, 0.3, -0.8, 0.8, 0.6]
    assert driver(y, 0.2, 1.0).n == numpy_driver(y, 0.2, 1.0)[1] == 1
    rng = np.random.default_rng(31)
    branches = set()
    for _ in range(400):
        size = int(rng.integers(2, 30))
        y = np.triu(rng.random((size, size)) * 10.0 ** rng.uniform(-12, 0, (size, size)))
        y[:, : int(rng.integers(0, size))] = 0.0
        y[0, -1] += 1e-3
        if rng.random() < 0.5:
            y -= np.triu(rng.random((size, size))) * 1e-3 * y.max()
        lam, delta = rng.uniform(0.05, 0.99), rng.uniform(0.01, 5.0)
        drv = driver(y, lam, delta)
        u, n, zeta = numpy_driver(y, lam, delta)
        assert (drv.u, drv.n, drv.zeta) == (u, n, zeta)
        branches.add(n == len(u) - 2)
    assert branches == {True, False}


def test_rhs_zero_at_fixed_point():
    for lam, delta in [(0.7, 0.85), (0.7, 2.5), (0.5, 1.0)]:
        fp = y_star(lam, delta)
        dy = rhs_async(fp.y_star.y, lam, delta)
        assert np.abs(dy).max() < 1e-8


def test_rhs_empty_state_flows_up():
    lam, delta = 0.7, 0.85
    y = np.zeros((4, 4))
    y[0, 0] = 1.0
    dy = rhs_async(y, lam, delta)
    assert dy[0, 0] == pytest.approx(-lam)
    assert dy[1, 1] == pytest.approx(lam)


def test_rhs_conserves_mass_on_random_states():
    rng = np.random.default_rng(29)
    for _ in range(25):
        y = np.triu(rng.random((7, 7)))
        y /= y.sum()
        assert rhs_async(y, 0.6, 0.9).sum() == pytest.approx(0.0, abs=1e-13)


def test_slow_updates_create_queueing():
    run = integrate_async(FluidState.empty(40), 0.7, 0.85, 10.0, dt=1e-3)
    v2 = np.array([s.sum(axis=1)[2] for s in run.states])
    w2 = np.array([s.sum(axis=0)[2] for s in run.states])
    assert v2.max() > 1e-3
    assert w2.max() > 1e-3


def test_zeta_bounded_along_trajectory():
    lam, delta = 0.7, 0.85
    run = integrate_async(FluidState.empty(40), lam, delta, 20.0, dt=1e-3)
    for y in run.states:
        drv = driver(y, lam, delta)
        assert -1e-12 <= drv.zeta <= lam + 1e-12


def test_min_level_follows_dispatch_level():
    # start with everyone idle but estimates stuck at 3: the dispatch level
    # drops below the minimum estimate and mass immediately builds there
    lam, delta = 0.7, 0.3
    y0 = np.zeros((41, 41))
    y0[0, 3] = 1.0
    drv0 = driver(y0, lam, delta)
    assert drv0.n == 2
    run = integrate_async(y0, lam, delta, 0.05, dt=1e-3, store_times=[0.01, 0.05])
    w = run.states[1].sum(axis=0)
    m_after = int(np.flatnonzero(w > 1e-9)[0])
    assert m_after <= drv0.n + 1


def test_stationary_support_is_bounded():
    from sparselb.fixed_point import m_star

    lam, delta = 0.7, 0.3
    run = integrate_async(
        FluidState.empty(58), lam, delta, 300.0, dt=5e-3, store_times=[300.0]
    )
    v = run.final().sum(axis=1)
    assert v[m_star(lam, delta) + 2 :].max() < 1e-6


def test_mass_and_positivity():
    run = integrate_async(FluidState.empty(40), 0.7, 0.85, 30.0, dt=1e-3)
    totals = run.states.sum(axis=(1, 2))
    assert np.abs(totals - 1.0).max() < 1e-9
    assert run.states.min() >= 0.0


def test_sparse_feedback_run_stays_non_negative():
    # test_stationary_support_is_bounded's inputs, stored on the default grid
    # to t = 60: the states stored at t = 19.20-19.62 hold entries down to
    # -0.164, which its one store at t = 300 never sees.
    run = integrate_async(FluidState.empty(58), 0.7, 0.3, 60.0, dt=5e-3)
    assert run.states.min() >= 0.0


def test_item_one_run_at_lambda_09_stays_non_negative():
    # the third run that went negative under plain RK4 steps: -5.0e-4 at t = 7.59
    run = integrate_async(FluidState.empty(40), 0.9, 0.3, 30.0, dt=0.01)
    assert run.times[-1] == 30.0
    assert run.states.min() >= 0.0 and run.clamped <= NEG_TOL
    assert np.abs(run.states.sum(axis=(1, 2)) - 1.0).max() < 1e-9


TOOL = Path(__file__).resolve().parents[1] / "tools" / "async_grid.py"
spec = importlib.util.spec_from_file_location("async_grid", TOOL)
async_grid = importlib.util.module_from_spec(spec)
spec.loader.exec_module(async_grid)


@pytest.mark.parametrize("lam, delta", [(0.5, 1.0), (0.7, 0.2), (0.9, 0.1)])
def test_grid_runs_stay_near_a_run_at_a_tenth_of_the_step(lam, delta):
    # tools/async_grid.py's oracle on three of its points, from empty to
    # t = 20 at the default dt.  At (0.5, 1.0), the no-queueing threshold,
    # top-ups hold column 0 near empty, where a step bound on w_n / zeta
    # stalled; (0.7, 0.2) moved 4.7e-5 off the dt/10 run without the halved
    # steps, and (0.9, 0.1) takes the most bisection trials.
    point = async_grid.run_point(lam, delta)
    assert point.clamped <= NEG_TOL
    assert point.gap <= async_grid.GAP_BOUND
    assert point.steps <= async_grid.STEP_MULTIPLE * point.needed


def test_default_dt_is_the_largest_dt_check_dt_admits(monkeypatch):
    steps = []
    monkeypatch.setattr(fluid_async, "_advance", lambda rhs, drain, y, span, dt: steps.append(dt))
    integrate_async(FluidState.empty(40), 0.7, 2.5, 1.0, store_times=[1.0])
    assert steps == [fluid_async.max_dt(2.5)] == [0.004]
    assert fluid_async.step_for(1.0, 2.5, 0.004) == 0.004
    with pytest.raises(ValueError, match="dt"):
        fluid_async.step_for(1.0, 2.5, np.nextafter(0.004, 1.0))


def test_run_over_the_step_budget_is_refused_before_a_step(monkeypatch):
    # min(1/delta, 1)/100 = 1e-302 asks for 1e301 steps: the run never ended
    monkeypatch.setattr(fluid_async, "_rk4", lambda *a: pytest.fail("stepped"))
    with pytest.raises(StateError, match="integrate_async: 1e\\+301 RK4 steps, over the"):
        integrate_async(FluidState.empty(40), 0.7, 1e300, 0.1)


@pytest.mark.parametrize("z, x", [(0.3, 0.0), (3.0, -0.9), (40.0, 0.5), (40.0, -0.999),
                                  (1e4, 0.0), (1e9, -0.5), (5.0, 12.0)])
def test_kept_weights_match_a_quadrature_of_the_decay(z, x):
    # 6/h int_0^h (phi(h) / phi(t)) l_i(t) dt with phi(t) = exp(-int_0^t a),
    # a(t) h = z / (1 + x t/h), against scipy's adaptive quadrature
    def weight(tau):
        tail = z * (1.0 - tau) if not x else z / x * np.log((1.0 + x) / (1.0 + x * tau))
        return np.exp(-tail)
    basis = [lambda t: (1 - 2 * t) * (1 - t), lambda t: 4 * t * (1 - t), lambda t: t * (2 * t - 1)]
    points = [1.0 - 2.0 ** -k for k in range(1, 40)]
    ref = [6.0 * quad(lambda t, b=b: weight(t) * b(t), 0.0, 1.0, points=points, limit=500,
                      epsabs=1e-13)[0] for b in basis]
    assert fluid_async._kept(z, x) == pytest.approx(ref, rel=1e-8, abs=1e-12)


def test_kept_weights_are_rk4s_without_decay_and_none_past_a_drain():
    assert fluid_async._kept(1e-300, 0.0) == pytest.approx([1.0, 4.0, 1.0], rel=1e-12)
    assert list(fluid_async._kept(5.0, -1.0)) == [0.0, 0.0, 0.0]


# --- block steps against full-array steps --------------------------------------


def full_advance(rhs, drain, y, span, dt):
    """The stepper before steps worked on the occupied block: every RK4 step,
    halving and bisection works on all of y.  Kept as the reference."""
    add = np.add.reduce
    remaining = span
    while remaining > 1e-14:
        w = add(y, axis=0).tolist()
        m = min_estimate_level(w)
        h = min(dt, remaining)
        rate = drain(y, w, m)
        if rate is None:
            y_new = fluid_async._rk4(rhs, y, h)[0]
        else:
            y_new, low = fluid_async._rk4(rhs, y, h, m, rate)
            while low <= SWITCH_TOL < add(y_new[:, m]) < w[m]:  # a stage saw the drain
                h *= 0.5
                y_new, low = fluid_async._rk4(rhs, y, h, m, rate)
            if add(y_new[:, m]) <= SWITCH_TOL:
                if not fluid_sync.landed(y_new[:, m]):
                    step = lambda z, hh: fluid_async._rk4(rhs, z, hh, m, rate)[0]
                    h, y_new = fluid_sync.split_step_at_switch(step, y, h, m)
                fluid_sync.move_leftover(y_new, m)
        y = y_new
        remaining -= h
    return y


def random_state(rng, jmax, extent):
    """A random upper-triangular state whose last occupied level is
    extent - 1, with entries spread over nine decades.  Its lowest occupied
    column, often the last one, holds little enough mass to drain within a
    few steps, and half the states hold a total mass of 0.01 to 1, so that
    a column can drain within one stage and the next one after it."""
    y = np.zeros((jmax + 1, jmax + 1))
    cells = np.triu(rng.random((extent, extent)) * 10.0 ** rng.uniform(-9, 0, (extent, extent)))
    low = extent - 1 if rng.random() < 0.3 else int(rng.integers(0, extent))
    cells[:, :low] = 0.0
    cells[0, extent - 1] += 0.1
    cells /= cells.sum()
    cells[:, low] *= rng.uniform(1e-4, 1e-2) / cells[:, low].sum()
    mass = 1.0 if rng.random() < 0.5 else 10.0 ** rng.uniform(-2, 0)
    y[:extent, :extent] = cells * (mass / cells.sum())
    return y


@pytest.mark.parametrize("kind", ["async", "sync"])
def test_block_step_equals_full_array_step(kind, monkeypatch):
    # The trailing cases sit on both sides of numpy's first pairwise run of
    # 64 entries (side 130) and 120 entries (side 251): past it the block
    # must be the whole state.
    rng = np.random.default_rng(12 if kind == "async" else 13)
    cases = [(int(rng.integers(3, 46)), None) for _ in range(150)]
    cases += [(129, 58), (129, 61), (129, 66), (129, 70), (250, 113), (250, 117), (250, 124)]
    splits, sides, failed = [], [], 0
    split = fluid_sync.split_step_at_switch
    monkeypatch.setattr(fluid_sync, "split_step_at_switch",
                        lambda *args: splits.append(1) or split(*args))
    for jmax, extent in cases:
        size = jmax + 1
        if extent is None:
            extent = size if rng.random() < 0.25 else int(rng.integers(1, size + 1))
        y = random_state(rng, jmax, extent)
        lam, delta = rng.uniform(0.3, 0.95), rng.uniform(0.1, 3.0)
        dt = min(1.0 / delta, 1.0) / 100.0 * rng.uniform(0.1, 1.0)
        span = dt * rng.uniform(2.0, 6.0)
        if kind == "async":
            rhs = lambda z: rhs_async(z, lam, delta)
            drain = fluid_async._async_drain(lam, delta, dt)
        else:
            rhs = lambda z: rhs_sync(z, lam)
            drain = lambda z, w, m: lam / w[m]
        block_rhs = lambda z: sides.append(len(z) < size) or rhs(z)
        try:
            ref = full_advance(rhs, drain, y, span, dt)
        except (IntegrationError, StateError) as err:  # no landing, no level
            with pytest.raises(type(err)):
                fluid_async._advance(block_rhs, drain, y, span, dt)
            failed += 1
            continue
        fluid_async._advance(block_rhs, drain, y, span, dt)
        assert np.array_equal(y, ref), (jmax, extent)
        # array_equal takes -0.0 for +0.0; the pinned digests do not
        assert y.tobytes() == ref.tobytes(), (jmax, extent)
    assert splits  # the bisection ran on blocks
    assert failed < len(cases) / 10
    assert any(sides) and not all(sides)  # blocks smaller than the state, and whole states


def test_block_scanned_once_per_span_and_side_change(monkeypatch):
    # The pinned sparse-feedback run, whose block grows from 8 to 16: the
    # whole block is scanned where each span between stored states starts
    # and where a step leaves its edge occupied, not after every step.
    sides = []
    scan = fluid_async._block_side
    monkeypatch.setattr(fluid_async, "_block_side",
                        lambda y, n: sides.append(scan(y, n)) or sides[-1])
    run = integrate_async(FluidState.empty(default_jmax(0.7, 0.3)), 0.7, 0.3, 10.0)
    changes = sum(a != b for a, b in zip(sides, sides[1:]))
    assert {8, 16} <= set(sides)
    assert len(sides) <= len(run.states) + changes



# Runs from empty by (lam, delta, jmax, dt, t_end), None for the default,
# with the sha256 of their states.tobytes() and their number of switch
# bisections, recorded when the default dt became max_dt and the arrivals'
# relaxation of a near-empty column became exact.
ASYNC_PINNED = [
    ((0.7, 0.85, 40, 1e-3, 2.0),
     "e33441ae15a4a14e937f5bd1544f99ac1405936e359c3470d9f1f0cff00e6c97", 1),
    ((0.7, 0.3, None, None, 10.0),
     "1734840adb505dfc78f6599641311d634f9e97442b54db7536dcb1b6f6f90f2a", 3),
]


@pytest.mark.parametrize("inputs, digest, n_splits", ASYNC_PINNED,
                         ids=["mean-field", "sparse-feedback"])
def test_async_outputs_pinned(inputs, digest, n_splits, monkeypatch):
    lam, delta, jmax, dt, t_end = inputs
    splits = []
    split = fluid_sync.split_step_at_switch
    monkeypatch.setattr(fluid_sync, "split_step_at_switch",
                        lambda *args: splits.append(1) or split(*args))
    y0 = FluidState.empty(jmax or default_jmax(lam, delta))
    run = integrate_async(y0, lam, delta, t_end, dt)
    assert hashlib.sha256(run.states.tobytes()).hexdigest() == digest
    assert len(splits) == n_splits


# RK4 steps and switch-bisection trials of the ASYNC_PINNED runs, recorded
# with them.  perfbench's fluid_async.rhs_evals counts four evaluations for
# each, through the rhs_async module global.
ASYNC_EVALS = [(2001, 22), (1003, 68)]


@pytest.mark.parametrize("inputs, steps, trials",
                         [(pin[0], *evals) for pin, evals in zip(ASYNC_PINNED, ASYNC_EVALS)],
                         ids=["mean-field", "sparse-feedback"])
def test_rhs_async_looked_up_at_every_evaluation(inputs, steps, trials, monkeypatch):
    evals = {False: 0, True: 0}  # by whether a switch bisection is running
    bisecting = [False]
    rhs, split = fluid_async.rhs_async, fluid_sync.split_step_at_switch

    def counted(*args):
        evals[bisecting[0]] += 1
        return rhs(*args)

    def bisect(*args):
        bisecting[0] = True
        try:
            return split(*args)
        finally:
            bisecting[0] = False

    monkeypatch.setattr(fluid_async, "rhs_async", counted)
    monkeypatch.setattr(fluid_sync, "split_step_at_switch", bisect)
    lam, delta, jmax, dt, t_end = inputs
    integrate_async(FluidState.empty(jmax or default_jmax(lam, delta)), lam, delta, t_end, dt)
    assert evals == {False: 4 * steps, True: 4 * trials}


def test_a_run_clamps_round_off_and_refuses_a_negative_entry(monkeypatch):
    # _settle clamps an entry in (-NEG_TOL, 0) to zero and reports the
    # largest clamp on the run; an entry below -NEG_TOL stops the run
    low = [-0.5 * NEG_TOL]

    def advance(rhs, drain, y, span, dt):
        y[0, 1] = low[0]

    monkeypatch.setattr(fluid_async, "_advance", advance)
    run = integrate_async(FluidState.empty(40), 0.7, 0.85, 0.2, store_times=[0.1, 0.2])
    assert run.clamped == 0.5 * NEG_TOL and run.states.min() == 0.0
    low[0] = -2.0 * NEG_TOL
    with pytest.raises(IntegrationError, match="state entry fell to -2e-12"):
        integrate_async(FluidState.empty(40), 0.7, 0.85, 0.2)


def test_an_entry_at_minus_neg_tol_is_clamped_not_refused(monkeypatch):
    # the refusal is for entries below -NEG_TOL; one at it is round-off
    def advance(rhs, drain, y, span, dt):
        y[0, 1] = -NEG_TOL

    monkeypatch.setattr(fluid_async, "_advance", advance)
    run = integrate_async(FluidState.empty(40), 0.7, 0.85, 0.2, store_times=[0.1, 0.2])
    assert run.clamped == NEG_TOL and run.states.min() == 0.0
