"""Stationary state of the asynchronous-update fluid limit.

The stationary occupancy concentrates on two estimate columns, the
stationary minimum estimate m_star and m_star + 1.  A single scalar nu
(the jump rate of assignments relative to the mass at level m_star) pins
down every entry; it solves a monotone scalar equation matching the idle
fraction to 1 - lam.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import FluidState, default_jmax
from .fluid_async import rhs_async
from .fluid_sync import poisson_ab

NU_TOL = 1e-12
RESIDUAL_TOL = 1e-8


class ConsistencyError(RuntimeError):
    """The constructed stationary state fails its own residual check."""


def m_star(lam: float, delta: float) -> int:
    """Stationary minimum estimate level.

    Scan form: the smallest m with lam < 1 - (1+delta)^-(m+1).  The
    closed-form floor(-log(1-lam)/log(1+delta)) is cross-checked; on the
    rare float disagreement near a boundary the scan form wins.
    """
    if not 0.0 < lam < 1.0 or not delta > 0.0:
        raise ValueError("need 0 < lam < 1 and delta > 0")
    m = 0
    while not lam < 1.0 - (1.0 + delta) ** (-(m + 1)):
        m += 1
    m_closed = math.floor(-math.log1p(-lam) / math.log1p(delta))
    if m_closed != m and abs(m_closed - m) > 1:
        raise RuntimeError(f"level formulas disagree badly: {m} vs {m_closed}")
    return m


def h_value(nu: float, lam: float, delta: float, m: int) -> float:
    """Idle fraction of the candidate stationary state as a function of nu;
    strictly decreasing from (1+delta)^-m down to (1+delta)^-(m+1)."""
    a = 1.0 / (1.0 + delta)
    b = 1.0 / (1.0 + delta + nu)
    return a ** (m + 1) + a * a * b ** (m - 1) * delta * delta / (
        (1.0 + nu) * (delta + nu)
    )


def solve_nu(lam: float, delta: float, m: int) -> float:
    """Solve h(nu) = 1 - lam by bisection on a geometrically grown bracket."""
    target = 1.0 - lam
    h0 = h_value(0.0, lam, delta, m)
    if h0 <= target + 1e-14:
        return 0.0
    hi = 1.0
    while h_value(hi, lam, delta, m) > target:
        hi *= 2.0
        if hi > 1e12:
            raise RuntimeError("failed to bracket nu")
    lo = 0.0
    while hi - lo > NU_TOL:
        mid = 0.5 * (lo + hi)
        if h_value(mid, lam, delta, m) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class FixedPoint:
    m_star: int
    nu: float
    a: float
    b: float
    y_star: FluidState
    q_tilde: float
    residual: float


def q_tilde(lam: float, delta: float, nu: float, m: int) -> float:
    """Stationary mean queue length per server."""
    return (
        m
        + 1.0
        - lam / delta
        - (1.0 + delta + nu) * delta / ((1.0 + delta) * (1.0 + nu) * (delta + nu))
    )


def y_star(lam: float, delta: float, jmax: int | None = None) -> FixedPoint:
    """Construct the stationary occupancy state and validate it.

    The result carries the residual of the asynchronous fluid derivative at
    the constructed state; residuals at or above 1e-8 raise.
    """
    m = m_star(lam, delta)
    nu = solve_nu(lam, delta, m)
    a = 1.0 / (1.0 + delta)
    b = 1.0 / (1.0 + delta + nu)
    jm = default_jmax(lam, delta) if jmax is None else jmax
    if jm < m + 2:
        raise ValueError(f"jmax={jm} too small for support level {m + 1}")

    y = np.zeros((jm + 1, jm + 1))
    y[0, m] = a * b ** (m - 1) * delta / ((1.0 + nu) * (delta + nu))
    for i in range(1, m + 1):
        y[i, m] = a * b ** (m - i) * delta / (1.0 + nu)
    top = a ** (m + 1) - a * a * b ** (m - 1) * delta / ((1.0 + nu) * (delta + nu))
    y[0, m + 1] = top
    y[1, m + 1] = delta * top
    for i in range(2, m + 2):
        y[i, m + 1] = delta * (a ** (m + 2 - i) - a * b ** (m + 1 - i) / (1.0 + nu))

    state = FluidState(y)
    residual = float(np.abs(rhs_async(state.y, lam, delta)).max())
    if residual >= RESIDUAL_TOL:
        raise ConsistencyError(
            f"stationary state residual {residual:.3e} >= {RESIDUAL_TOL}"
        )
    qt = q_tilde(lam, delta, nu, m)
    return FixedPoint(
        m_star=m, nu=nu, a=a, b=b, y_star=state, q_tilde=qt, residual=residual
    )


def m_star_det(lam: float, delta: float) -> int:
    """Stationary level bound for deterministic per-server update gaps: the
    largest m whose expected per-interval completions, starting from m jobs,
    stay within the per-interval arrivals lam/delta.  Never exceeds the
    exponential-gap level m_star."""
    if not 0.0 < lam < 1.0 or not delta > 0.0:
        raise ValueError("need 0 < lam < 1 and delta > 0")
    period = 1.0 / delta
    budget = lam / delta
    m = 0
    while poisson_ab(m + 1, period).b <= budget:
        m += 1
        if m > 100000:
            raise RuntimeError("level scan failed to terminate")
    m_exp = m_star(lam, delta)
    if m > m_exp:
        raise ConsistencyError(
            f"deterministic-gap level {m} exceeds exponential-gap level {m_exp}"
        )
    return m
