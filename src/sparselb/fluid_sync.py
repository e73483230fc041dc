"""Fluid limits: the fixed-step integrator shared by both update schemes,
and the synchronized limit built on it.

Under synchronized updates the occupancy fractions follow a piecewise-smooth
ODE between epochs whose assignment flux targets the minimum estimate
level; at each epoch every column collapses onto the diagonal (estimates
snap to true queue lengths).  fluid_async runs the same integrator with no
epochs.  The module also carries the Poisson drain quantities A/B, the
queue-length bound scan, and trajectory-level consistency checks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import (
    FluidState,
    check_truncation,
    min_estimate_level,
)

# An estimate level counts as occupied above this mass; the step bisection
# at level switches drives the depleting column to within it of zero.
SWITCH_TOL = 1e-10


class IntegrationError(RuntimeError):
    pass


def rhs_sync(y: np.ndarray | FluidState, lam: float) -> np.ndarray:
    """Time derivative of the occupancy array between update epochs.

    Service moves mass (i, j) -> (i-1, j); arrivals move mass
    (i, m) -> (i+1, m+1) at total rate lam, spread over the minimum
    occupied estimate level m proportionally to its queue composition.
    """
    if isinstance(y, FluidState):
        y = y.y
    w = y.sum(axis=0)
    m = min_estimate_level(w, SWITCH_TOL)
    dy = np.zeros_like(y)
    dy[:-1, :] += y[1:, :]
    dy[1:, :] -= y[1:, :]
    arr = y[:, m] / w[m]  # assignment split over level m
    dy[:, m] -= lam * arr
    if m + 1 < y.shape[1]:
        dy[1:, m + 1] += lam * arr[:-1]
    return dy


def apply_sync_update(y: np.ndarray | FluidState) -> np.ndarray:
    """Epoch jump: every estimate snaps to the true queue length, so each
    row collapses onto the diagonal.  Queue-length marginals are untouched."""
    if isinstance(y, FluidState):
        y = y.y
    out = np.zeros_like(y)
    np.fill_diagonal(out, y.sum(axis=1))
    return out


@dataclass
class FluidRun:
    """Stored trajectory: states are right-continuous (post-jump at epochs);
    update_epochs lists the epochs at which a jump was applied."""

    times: np.ndarray
    states: np.ndarray
    update_epochs: np.ndarray
    lam: float
    clamped: float = 0.0

    def final(self) -> np.ndarray:
        return self.states[-1]


def _rk4(rhs, y: np.ndarray, h: float) -> np.ndarray:
    k1 = rhs(y)
    k2 = rhs(y + 0.5 * h * k1)
    k3 = rhs(y + 0.5 * h * k2)
    k4 = rhs(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def split_step_at_switch(step, y: np.ndarray, h: float, m: int):
    """Bisect a step length onto the point where column m drains to zero.

    The depleting column shrinks linearly, so bisection converges fast.
    Only endpoints with the column mass in [0, SWITCH_TOL] are accepted; a
    negative landing would leave negative entries behind.
    """
    lo, hi = 0.0, h
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        y_mid = step(y, mid)
        wm = y_mid[:, m].sum()
        if -1e-13 <= wm <= SWITCH_TOL:
            return mid, y_mid
        if wm > 0.0:
            lo = mid
        else:
            hi = mid
    raise IntegrationError("switch-point bisection did not converge")


def _advance(rhs, y: np.ndarray, span: float, dt: float) -> np.ndarray:
    """Integrate over a span containing no epochs, splitting steps exactly
    at minimum-estimate switch points (where the lowest occupied column
    hits zero mass)."""
    remaining = span
    while remaining > 1e-14:
        m = min_estimate_level(y.sum(axis=0), SWITCH_TOL)
        h = min(dt, remaining)
        y_new = _rk4(rhs, y, h)
        if y_new[:, m].sum() < -1e-13:
            h, y_new = split_step_at_switch(lambda z, hh: _rk4(rhs, z, hh), y, h, m)
        y = y_new
        remaining -= h
    return y


def _marks(t_end: float, epochs, store_times) -> list[tuple[float, bool]]:
    """Sorted (time, is_epoch) stops in (0, t_end], merging times within
    1e-12 * max(1, t_end) of each other.  A merged group keeps its epoch's
    time if it has one, else t_end if it holds t_end, else its first time."""
    eps = 1e-12 * max(1.0, t_end)
    # rank 0: store time, 1: t_end, 2: epoch
    stops = sorted(
        (float(t), rank)
        for times, rank in ((epochs, 2), (store_times, 0), ([t_end], 1))
        for t in times
        if 0.0 < t <= t_end + eps
    )
    marks: list[tuple[float, int]] = []
    for t, rank in stops:
        if marks and t - marks[-1][0] <= eps:
            marks[-1] = max(marks[-1], (t, rank), key=lambda mark: mark[1])
        else:
            marks.append((t, rank))
    return [(t, rank == 2) for t, rank in marks]


def integrate_fluid(
    rhs,
    y0: FluidState | np.ndarray,
    lam: float,
    delta: float,
    t_end: float,
    dt: float | None = None,
    store_times: np.ndarray | None = None,
    epochs=(),
    jump=None,
) -> FluidRun:
    """Integrate y' = rhs(y) on [0, t_end] with y = jump(y) at each epoch.
    Classic fixed-step 4th-order integration, split exactly at epochs,
    stored grid points, and estimate-level switches."""
    y = np.array(y0.y if isinstance(y0, FluidState) else y0, dtype=float)
    if dt is None:
        dt = min(1.0 / delta, 1.0) / 1000.0
    if dt > min(1.0 / delta, 1.0) / 100.0:
        raise ValueError("dt too coarse: need dt <= min(1/delta, 1)/100")
    if store_times is None:
        store_times = np.linspace(0.0, t_end, 1001)

    times = [0.0]
    states = [y.copy()]
    epoch_times: list[float] = []
    clamped = 0.0
    t = 0.0
    for t_next, is_epoch in _marks(t_end, epochs, store_times):
        y = _advance(rhs, y, t_next - t, dt)
        low = y.min()
        if low < 0.0:
            if low < -1e-12:
                raise IntegrationError(f"state entry fell to {low}")
            clamped = max(clamped, -low)
            y = np.maximum(y, 0.0)
        check_truncation(y)
        if is_epoch:
            epoch_times.append(t_next)
            y = jump(y)
        times.append(t_next)
        states.append(y.copy())
        t = t_next
    return FluidRun(
        times=np.asarray(times),
        states=np.asarray(states),
        update_epochs=np.asarray(epoch_times),
        lam=lam,
        clamped=clamped,
    )


def integrate_sync(
    y0: FluidState | np.ndarray,
    lam: float,
    delta: float,
    t_end: float,
    dt: float | None = None,
    epochs: np.ndarray | None = None,
    store_times: np.ndarray | None = None,
) -> FluidRun:
    """Integrate the synchronous fluid limit on [0, t_end].

    Update epochs default to k/delta (deterministic schedule); pass an
    explicit epoch array for exponentially spaced epochs.
    """
    if epochs is None:
        period = 1.0 / delta
        epochs = np.arange(1, math.floor(t_end / period + 1e-12) + 1) * period
    return integrate_fluid(
        lambda y: rhs_sync(y, lam), y0, lam, delta, t_end, dt, store_times,
        epochs=epochs, jump=apply_sync_update,
    )


# ---------------------------------------------------------------------------
# Poisson drain quantities and the queue-length bound scan.


@dataclass(frozen=True)
class PoissonMoments:
    """For a queue of L unit-rate jobs left alone for time t: pmf of the
    number of potential completions G ~ Poisson(t), expected remaining work
    A = E[max(L - G, 0)], expected completions B = E[min(G, L)] = L - A."""

    level: int
    t: float
    pmf: np.ndarray
    a: float
    b: float


def poisson_ab(level: int, t: float) -> PoissonMoments:
    """Direct pmf computation of A and B (B derived via A + B = L)."""
    if level < 0 or t < 0.0:
        raise ValueError("need level >= 0 and t >= 0")
    pmf = np.empty(level + 1)
    pmf[0] = math.exp(-t)
    for l in range(level):
        pmf[l + 1] = pmf[l] * t / (l + 1)
    a = float(np.dot(level - np.arange(level + 1), pmf))
    return PoissonMoments(level=level, t=t, pmf=pmf, a=a, b=level - a)


def sigma(level: int, lam: float, t_period: float) -> float:
    """Drain margin of level: the expected completions B(level, T) scaled
    down by the relative headroom, compared against lam*T elsewhere."""
    return (1.0 - (lam * t_period + 1.0) / level) * poisson_ab(level, t_period).b


@dataclass(frozen=True)
class SyncAnalysis:
    """Queue-length bound for the synchronous scheme: s_star is the lowest
    level whose drain margin beats the per-epoch arrival volume."""

    lam: float
    t_period: float
    s_star: int
    delta_margin: float


def queue_bound(lam: float, t_period: float) -> SyncAnalysis:
    """Scan L = 1, 2, ... for the first level with lam*T < sigma(L)."""
    if not 0.0 < lam < 1.0 or not t_period > 0.0:
        raise ValueError("need 0 < lam < 1 and T > 0")
    target = lam * t_period
    level = 0
    while True:
        level += 1
        val = sigma(level, lam, t_period)
        if target < val:
            return SyncAnalysis(
                lam=lam,
                t_period=t_period,
                s_star=level,
                delta_margin=val - target,
            )
        if level > 100000:
            raise IntegrationError("queue-bound scan failed to terminate")


# ---------------------------------------------------------------------------
# Trajectory-level consistency checks.


@dataclass
class CheckReport:
    """Named residuals from trajectory checks; a check passes when its
    residual stays within tolerance."""

    residuals: dict[str, float] = field(default_factory=dict)
    tolerances: dict[str, float] = field(default_factory=dict)

    def record(self, name: str, residual: float, tol: float) -> None:
        self.residuals[name] = max(residual, self.residuals.get(name, 0.0))
        self.tolerances[name] = tol

    @property
    def violations(self) -> dict[str, float]:
        return {
            k: r for k, r in self.residuals.items() if r > self.tolerances[k]
        }

    @property
    def passed(self) -> bool:
        return not self.violations


def check_trajectory_invariants(
    run: FluidRun,
    slope_tol: float = 1e-3,
    monotone_tol: float = 1e-9,
    balance_tol: float = 1e-5,
    mass_tol: float = 1e-9,
) -> CheckReport:
    """Verify structural facts of a stored synchronous trajectory:

    - mass conservation at every stored state;
    - between epochs the minimum-estimate column drains at slope -lam and
      the next column fills at +lam;
    - the queue mass above K never increases while the minimum estimate
      stays below K;
    - the terminal queue mass balances arrivals minus integrated busy
      fraction.
    """
    report = CheckReport()
    times, states = run.times, run.states
    lam = run.lam

    totals = states.sum(axis=(1, 2))
    report.record("mass_conservation", float(np.abs(totals - 1.0).max()), mass_tol)

    epoch_set = set(np.round(run.update_epochs, 12))
    n_levels = states.shape[2]
    v_all = states.sum(axis=2)
    w_all = states.sum(axis=1)
    m_all = np.array([min_estimate_level(w, SWITCH_TOL) for w in w_all])
    idx_lv = np.arange(n_levels)

    for k in range(len(times) - 1):
        t0, t1 = times[k], times[k + 1]
        h = t1 - t0
        if h <= 1e-12 or round(t1, 12) in epoch_set or round(t0, 12) in epoch_set:
            continue
        if m_all[k] != m_all[k + 1]:
            continue  # slope checks only apply away from level switches
        m = m_all[k]
        dw_m = (w_all[k + 1, m] - w_all[k, m]) / h
        report.record("min_level_drain_slope", abs(dw_m + lam), slope_tol)
        if m + 1 < n_levels:
            dw_up = (w_all[k + 1, m + 1] - w_all[k, m + 1]) / h
            report.record("next_level_fill_slope", abs(dw_up - lam), slope_tol)

    # Tail-mass monotonicity while the minimum estimate sits below K.
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
                report.record("tail_mass_monotone", max(rise, 0.0), monotone_tol)

    # Arrival/departure balance: Q(t_end) = Q(0) + lam*t_end - int(1 - v0).
    q_mass = v_all @ idx_lv
    busy = 1.0 - v_all[:, 0]
    integral = float(np.trapezoid(busy, times))
    balance = q_mass[-1] - (q_mass[0] + lam * times[-1] - integral)
    report.record("queue_balance", abs(balance), balance_tol)
    return report
