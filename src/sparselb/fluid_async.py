"""Fluid limit under asynchronous exponential status updates.

Updates arrive continuously at rate delta per server, so the limit has no
jumps: it runs on the shared integrator of fluid_sync with no epochs.  A
server reporting a queue below the effective dispatch level is topped up
instantly at fluid scale; the level n and the residual arrival rate zeta
feeding it are recomputed from the state at every derivative evaluation.
"""
from __future__ import annotations

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
    update-triggered top-ups can absorb jobs below estimate level k; n is
    the dispatch level; zeta = lam - u[n] >= 0 is the residual rate of jobs
    assigned at level n itself."""

    u: np.ndarray
    n: int
    zeta: float


def update_capacity(v: np.ndarray, delta: float) -> np.ndarray:
    """u[k] = delta * sum_{i<k} (k - i) v[i] for k = 0..len(v)."""
    c1 = np.cumsum(v)
    u = np.empty(len(v) + 1)
    u[0] = 0.0
    u[1:] = delta * np.cumsum(c1)
    return u


def driver_of(y: np.ndarray | FluidState, lam: float, delta: float) -> AsyncDriver:
    """Dispatch level and residual rate for a state.

    n equals the minimum occupied estimate level m when the top-up capacity
    below m stays within lam; otherwise n is the highest level whose
    capacity still fits under lam (then n <= m - 1 and updates soak up u[n]
    of the arrival flow before it ever reaches level m).
    """
    if isinstance(y, FluidState):
        y = y.y
    v = y.sum(axis=1)
    w = y.sum(axis=0)
    m = min_estimate_level(w, SWITCH_TOL)
    u = update_capacity(v, delta)
    if u[m] <= lam + CAP_TOL:
        n = m
    else:
        n = int(np.searchsorted(u[: m + 1], lam + CAP_TOL, side="right")) - 1
    return AsyncDriver(u=u, n=n, zeta=max(lam - u[n], 0.0))


def rhs_async(y: np.ndarray | FluidState, lam: float, delta: float) -> np.ndarray:
    """Time derivative of the occupancy array under asynchronous updates.

    Six flux groups: service shifts, residual assignments into and out of
    the dispatch level n, top-ups from below landing at (n, n), on-level
    reports refreshing the diagonal at i = j >= n, and the uniform update
    drain -delta*y.
    """
    if isinstance(y, FluidState):
        y = y.y
    drv = driver_of(y, lam, delta)
    n, zeta = drv.n, drv.zeta
    w_n = y[:, n].sum()
    v = y.sum(axis=1)
    jmax = y.shape[0] - 1

    dy = -delta * y
    dy[:-1, :] += y[1:, :]
    dy[1:, :] -= y[1:, :]
    if w_n > SWITCH_TOL and zeta > 0.0:
        arr = y[:, n] / w_n
        dy[:, n] -= zeta * arr
        if n + 1 <= jmax:
            dy[1:, n + 1] += zeta * arr[:-1]
    diag = np.arange(n, jmax + 1)
    dy[diag, diag] += delta * v[n:]
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
