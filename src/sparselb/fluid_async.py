"""Fluid limit under asynchronous exponential status updates.

Updates arrive continuously at rate delta per server, so the limit has no
jumps: it runs on the shared integrator of fluid_sync with no epochs.  A
server reporting a queue below the effective dispatch level is topped up
instantly at fluid scale; the level n and the residual arrival rate zeta
feeding it are recomputed from the state at every derivative evaluation.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .model import FluidState, min_estimate_level
from .fluid_sync import SWITCH_TOL, FluidRun, integrate_fluid

# The minimum estimate level is located with the integrator's SWITCH_TOL,
# or drained crumb columns would keep receiving assignment flux.  CAP_TOL
# is slack on the capacity comparison that prevents chattering when u_n
# sits exactly on lam.
CAP_TOL = 1e-12


@dataclass(frozen=True)
class AsyncDriver:
    """Assignment driver derived from a state: u[k] is the rate at which
    update-triggered top-ups can absorb jobs below estimate level k, listed
    for k = 0..m + 1 with m the minimum occupied estimate level; n is the
    dispatch level; zeta = lam - u[n] >= 0 is the residual rate of jobs
    assigned at level n itself."""

    u: list[float]
    n: int
    zeta: float


def _driver(v: list[float], w: list[float], lam: float, delta: float) -> AsyncDriver:
    """driver_of from the queue marginal v and the estimate marginal w, in
    Python floats: u[k] = delta * sum_{i<k} (k - i) v[i], summed as two
    running sums in the order of numpy's cumsum of a cumsum, so every value
    equals numpy's."""
    m = min_estimate_level(w, SWITCH_TOL)
    u = [0.0]
    c1 = c2 = 0.0
    for vi in v[: m + 1]:
        c1 += vi
        c2 += c1
        u.append(delta * c2)
    if u[m] <= lam + CAP_TOL:
        n = m
    else:  # bisect_right is numpy's searchsorted(side="right") step for step
        n = bisect.bisect_right(u, lam + CAP_TOL, 0, m + 1) - 1
    return AsyncDriver(u=u, n=n, zeta=max(lam - u[n], 0.0))


def driver_of(y: np.ndarray, lam: float, delta: float) -> AsyncDriver:
    """Dispatch level and residual rate for a state.

    n equals the minimum occupied estimate level m when the top-up capacity
    below m stays within lam; otherwise n is the highest level whose
    capacity still fits under lam (then n <= m - 1 and updates soak up u[n]
    of the arrival flow before it ever reaches level m).
    """
    return _driver(y.sum(axis=1).tolist(), y.sum(axis=0).tolist(), lam, delta)


def rhs_async(y: np.ndarray, lam: float, delta: float) -> np.ndarray:
    """Time derivative of the occupancy array under asynchronous updates.

    Six flux groups: service shifts, residual assignments into and out of
    the dispatch level n, top-ups from below landing at (n, n), on-level
    reports refreshing the diagonal at i = j >= n, and the uniform update
    drain -delta*y.  Each moves mass at most one level.
    """
    v = y.sum(axis=1)
    drv = _driver(v.tolist(), y.sum(axis=0).tolist(), lam, delta)
    n, zeta = drv.n, drv.zeta
    w_n = y[:, n].sum()
    size = y.shape[0]

    dy = np.multiply(-delta, y, order="C")  # C order: the diagonal is a view
    dy[:-1, :] += y[1:, :]
    dy[1:, :] -= y[1:, :]
    if w_n > SWITCH_TOL and zeta > 0.0:
        arr = y[:, n] / w_n
        dy[:, n] -= zeta * arr
        if n + 1 < size:
            dy[1:, n + 1] += zeta * arr[:-1]
    dy.reshape(-1)[n * (size + 1) :: size + 1] += delta * v[n:]
    if n >= 1:
        dy[n, n] += delta * v[:n].sum()
    return dy


def integrate_async(
    y0: FluidState | np.ndarray,
    lam: float,
    delta: float,
    t_end: float,
    dt: float | None = None,
    store_times: np.ndarray | None = None,
) -> FluidRun:
    """Fixed-step 4th-order integration on [0, t_end]; the dispatch level is
    re-derived from the state at every evaluation, and there are no jumps."""
    return integrate_fluid(
        lambda y: rhs_async(y, lam, delta), y0, lam, delta, t_end, dt, store_times
    )
