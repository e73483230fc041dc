"""Stationary state of the asynchronous-update fluid limit.

The stationary occupancy concentrates on two estimate columns, the
stationary minimum estimate m_star and m_star + 1.  A single scalar nu
(the jump rate of assignments relative to the mass at level m_star) pins
down every entry; it solves a monotone scalar equation matching the idle
fraction to 1 - lam.  The module also carries the level bounds of
deterministic update gaps: m_star_det and the synchronous scheme's
queue-length bound scan, on the Poisson drain quantities A and B.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (SWITCH_TOL, FluidState, StateError, check_rates, check_state_budget,
                    default_jmax, m_star)
from .fluid_async import rhs_async

NU_TOL = 1e-12
RESIDUAL_TOL = 1e-8


class ConsistencyError(RuntimeError):
    """The constructed stationary state fails its own residual check."""


def h_value(nu: float, delta: float, m: int) -> float:
    """Idle fraction of the candidate stationary state as a function of nu;
    strictly decreasing from (1+delta)^-m down to (1+delta)^-(m+1)."""
    a = 1.0 / (1.0 + delta)
    b = 1.0 / (1.0 + delta + nu)
    return a ** (m + 1) + (a * delta) ** 2 * b ** (m - 1) / (1.0 + nu) / (delta + nu)


def solve_nu(lam: float, delta: float, m: int) -> float:
    """Solve h(nu) = 1 - lam by bisection on a geometrically grown bracket."""
    target = 1.0 - lam
    h0 = h_value(0.0, delta, m)
    if h0 <= target + 1e-14:
        return 0.0
    hi = 1.0
    while h_value(hi, delta, m) > target:
        hi *= 2.0
        if hi > 1e12:
            raise StateError(f"nu passes 1e12 at delta = {delta}, too near the no-queueing "
                             "threshold")
    lo = 0.0
    while hi - lo > NU_TOL:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # past nu ~ 8192 one ulp of nu exceeds NU_TOL
            break
        if h_value(mid, delta, m) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class FixedPoint:
    m_star: int
    nu: float
    y_star: FluidState
    q_tilde: float
    residual: float


def q_tilde(lam: float, delta: float, nu: float, m: int) -> float:
    """Stationary mean queue length per server."""
    return m + 1.0 - lam / delta - (
        delta / (1.0 + delta) * (1.0 + delta + nu) / (delta + nu) / (1.0 + nu))


def y_star(lam: float, delta: float, jmax: int | None = None) -> FixedPoint:
    """Construct the stationary occupancy state and validate it.

    The result carries the residual of the asynchronous fluid derivative at
    the constructed state; residuals at or above 1e-8 times max(1, delta)
    raise, since the derivative's terms scale with delta.  StateError (a
    ValueError) refuses rates that check_rates refuses and a grid over the
    state budget, up front, and a delta so near above the no-queueing
    threshold that column m_star would hold at most SWITCH_TOL.
    """
    m = m_star(lam, delta)
    jm = default_jmax(lam, delta) if jmax is None else jmax
    if jm < m + 2:
        raise ValueError(f"jmax={jm} too small for support level {m + 1}")
    check_state_budget(1, jm, "y_star")
    nu = solve_nu(lam, delta, m)
    a = 1.0 / (1.0 + delta)
    b = 1.0 / (1.0 + delta + nu)

    y = np.zeros((jm + 1, jm + 1))
    y[0, m] = a * b ** (m - 1) * delta / (1.0 + nu) / (delta + nu)
    for i in range(1, m + 1):
        y[i, m] = a * b ** (m - i) * delta / (1.0 + nu)
    top = a ** (m + 1) - a * (a * delta) * b ** (m - 1) / (1.0 + nu) / (delta + nu)
    y[0, m + 1] = top
    y[1, m + 1] = delta * top
    for i in range(2, m + 2):
        y[i, m + 1] = delta * (a ** (m + 2 - i) - a * b ** (m + 1 - i) / (1.0 + nu))

    state = FluidState(y)
    if not (held := state.y[:, m].sum()) > SWITCH_TOL:  # else rhs_async takes level m + 1
        raise StateError(f"column m_star holds {held:.1e} at delta = {delta}, too near the "
                         "no-queueing threshold")
    residual = float(np.abs(rhs_async(state.y, lam, delta)).max())
    if residual / max(1.0, delta) >= RESIDUAL_TOL:
        raise ConsistencyError(
            f"stationary state residual {residual:.3e} >= {RESIDUAL_TOL} x max(1, delta)"
        )
    qt = q_tilde(lam, delta, nu, m)
    return FixedPoint(m_star=m, nu=nu, y_star=state, q_tilde=qt, residual=residual)


def m_star_det(lam: float, delta: float) -> int:
    """Stationary level bound for deterministic per-server update gaps: the
    largest m whose expected per-interval completions, starting from m jobs,
    stay within the per-interval arrivals lam/delta.  The exponential-gap
    level m_star bounds the scan: a level past it raises ConsistencyError.
    A default_jmax grid over the state budget is refused first, as in y_star."""
    m_exp = m_star(lam, delta)
    check_state_budget(1, default_jmax(lam, delta), "m_star_det")
    period = 1.0 / delta
    budget = lam / delta
    m = 0
    while poisson_ab(m + 1, period).b <= budget:
        if m == m_exp:
            raise ConsistencyError(f"deterministic-gap level {m + 1} exceeds m_star = {m_exp}")
        m += 1
    return m


@dataclass(frozen=True)
class PoissonMoments:
    """For a queue of L unit-rate jobs left alone for time t, with
    G ~ Poisson(t) potential completions: expected remaining work
    A = E[max(L - G, 0)], expected completions B = E[min(G, L)] = L - A."""

    a: float
    b: float


def poisson_ab(level: int, t: float) -> PoissonMoments:
    """A = sum (L - g) p(g) and B = t F(L-1) + L (1 - F(L)) from the Poisson
    pmf p, built in logs lest e^-t underflow, with 1 - F(L) = -expm1(-t) -
    sum p(1..L); the smaller is kept and the other is L minus it."""
    if level < 0 or t < 0.0:
        raise ValueError("need level >= 0 and t >= 0")
    if t == 0.0:
        return PoissonMoments(a=float(level), b=0.0)
    g = np.arange(level + 1.0)
    pmf = np.exp(np.cumsum(np.concatenate(([-t], math.log(t) - np.log(g[1:])))))
    a = float(np.dot(level - g, pmf))
    b = t * float(pmf[:-1].sum()) + level * (-math.expm1(-t) - float(pmf[1:].sum()))
    return PoissonMoments(a=a, b=level - a) if a <= b else PoissonMoments(a=level - b, b=b)


def sigma(level: int, lam: float, t_period: float) -> float:
    """Drain margin of level: the expected completions B(level, T) scaled
    down by the relative headroom, compared against lam*T elsewhere."""
    return (1.0 - (lam * t_period + 1.0) / level) * poisson_ab(level, t_period).b


@dataclass(frozen=True)
class SyncAnalysis:
    """Queue-length bound for the synchronous scheme: s_star is the lowest
    level whose drain margin beats the per-epoch arrival volume."""

    s_star: int
    delta_margin: float


def queue_bound(lam: float, t_period: float) -> SyncAnalysis:
    """Scan L = 1, 2, ... for the first level with lam*T < sigma(L), up to
    the largest level that a state within the state budget can hold."""
    if not t_period > 0.0:
        raise StateError(f"need T > 0, got {t_period}")
    check_rates(lam, 1.0 / t_period)
    target = lam * t_period
    level = 0
    while True:
        level += 1
        check_state_budget(1, level, "queue_bound")
        val = sigma(level, lam, t_period)
        if target < val:
            return SyncAnalysis(s_star=level, delta_margin=val - target)
