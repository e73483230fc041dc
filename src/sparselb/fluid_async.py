"""Fluid limit under asynchronous exponential status updates, and the
fixed-step RK4 integrator that runs it.

Updates arrive continuously at rate delta per server, so the limit has no
jumps and no epochs.  A server reporting a queue below the effective
dispatch level is topped up instantly at fluid scale; the level n and the
residual arrival rate zeta feeding it are recomputed from the state at
every derivative evaluation.
"""
from __future__ import annotations

import bisect
from typing import NamedTuple

import numpy as np

from . import fluid_sync
from .model import SWITCH_TOL, FluidState, check_rates, check_state_budget, min_estimate_level
from .fluid_sync import FluidRun, _settle, _state_array, move_leftover, stops

# Slack on the capacity comparison that prevents chattering when u_n sits
# exactly on lam.
CAP_TOL = 1e-12

# Levels past the occupied ones that an RK4 step works on: its four stages
# each move mass at most one level, so the step leaves every cell beyond
# them at zero.
BLOCK_MARGIN = 4


class AsyncDriver(NamedTuple):
    """Assignment driver derived from a state: u[k] is the rate at which
    update-triggered top-ups can absorb jobs below estimate level k, listed
    for k = 0..m + 1 with m the minimum occupied estimate level; n is the
    dispatch level; zeta = lam - u[n] >= 0 is the residual rate of jobs
    assigned at level n itself."""

    u: list[float]
    n: int
    zeta: float


def driver_of(v: np.ndarray, w: list[float], lam: float, delta: float) -> AsyncDriver:
    """Dispatch level and residual rate for a state with queue marginal v
    (only v[:m + 1] is read) and estimate marginal w, a list of Python
    floats.

    n equals the minimum occupied estimate level m when the top-up capacity
    below m stays within lam; otherwise n is the highest level whose
    capacity still fits under lam (then n <= m - 1 and updates soak up u[n]
    of the arrival flow before it ever reaches level m).  u[k] = delta *
    sum_{i<k} (k - i) v[i] is summed as two running sums in the order of
    numpy's cumsum of a cumsum, so every value equals numpy's.
    """
    m = min_estimate_level(w)
    u = [0.0]
    c1 = c2 = 0.0
    for vi in np.asarray(v[: m + 1]).tolist():
        c1 += vi
        c2 += c1
        u.append(delta * c2)
    if u[m] <= lam + CAP_TOL:
        n = m
    else:  # bisect_right is numpy's searchsorted(side="right") step for step
        n = bisect.bisect_right(u, lam + CAP_TOL, 0, m + 1) - 1
    zeta = lam - u[n]
    return AsyncDriver(u, n, 0.0 if zeta < 0.0 else zeta)  # max(zeta, 0.0), without the call


def rhs_async(y: np.ndarray, lam: float, delta: float) -> np.ndarray:
    """Time derivative of the occupancy array under asynchronous updates.

    Six flux groups: service shifts, residual assignments into and out of
    the dispatch level n, top-ups from below landing at (n, n), on-level
    reports refreshing the diagonal at i = j >= n, and the uniform update
    drain -delta*y.  Each moves mass at most one level.  Every slice update
    is made in place on a view held by name: dy[a:b] += x would also copy
    the view back onto itself through __setitem__.
    """
    add = np.add.reduce  # ndarray.sum would go through numpy's Python wrapper
    v = add(y, axis=1)
    _, n, zeta = driver_of(v, add(y, axis=0).tolist(), lam, delta)
    size = len(y)
    below = y[1:]

    dy = np.multiply(-delta, y, order="C")  # C order: the diagonal is a view
    part = dy[:-1]
    part += below
    part = dy[1:]
    part -= below
    if zeta > 0.0:
        col = y[:, n]
        w_n = add(col)
        if w_n > SWITCH_TOL:
            flux = col / w_n
            flux *= zeta
            part = dy[:, n]
            part -= flux
            if n + 1 < size:
                part = dy[1:, n + 1]
                part += flux[:-1]
    part = dy.ravel()[n * (size + 1) :: size + 1]
    top = v[n:]
    top *= delta  # in place; v[:n], summed below, keeps its values
    part += top
    if n >= 1:
        part[0] += delta * add(v[:n])
    return dy


def _rk4(rhs, y: np.ndarray, h: float) -> np.ndarray:
    """One classic RK4 step of y' = rhs(y), its stages and their sum formed
    in place.  Every product and sum is one that y + (h/2) k1, ...,
    y + (h/6) (k1 + 2 k2 + 2 k3 + k4) make, in their order, some with their
    operands swapped, which IEEE + and * allow bit for bit.  rhs returns a
    new array at each call, since k2 and k3 are overwritten."""
    half = 0.5 * h
    k1 = rhs(y)
    stage = np.multiply(k1, half)
    stage += y
    k2 = rhs(stage)
    np.multiply(k2, half, out=stage)
    stage += y
    k3 = rhs(stage)
    np.multiply(k3, h, out=stage)
    stage += y
    k4 = rhs(stage)
    k2 += k2  # 2 k2, exactly, with no scalar operand
    k2 += k1
    k3 += k3
    k2 += k3
    k2 += k4
    k2 *= h / 6.0
    k2 += y
    return k2


def _block_side(y: np.ndarray, n: int) -> int:
    """Side k of the leading block [:k, :k] of an n-by-n state that one RK4
    step works on; y is a leading block of the state that holds all of its
    non-zero cells.

    The block holds every non-zero cell and BLOCK_MARGIN more levels,
    rounded up to a multiple of eight.  numpy sums a row or column pairwise,
    with eight partial sums over a leading run of at most 128 entries, so
    such a block, or any larger one whose side is a multiple of eight and
    within that run, sums every line in the order the whole state would.
    Where no such side fits, the block is the whole state.
    """
    any_ = np.logical_or.reduce  # ndarray.any would go through numpy's Python wrapper
    occupied = (any_(y, axis=0) | any_(y, axis=1)).nonzero()[0]
    extent = int(occupied[-1]) + 1 if occupied.size else 0
    side = -(-(extent + BLOCK_MARGIN) // 8) * 8
    leaf = n  # numpy's leading pairwise run for a line of n entries
    while leaf > 128:
        leaf = leaf // 2 - leaf // 2 % 8
    return side if side <= leaf else n


def _advance(rhs, y: np.ndarray, span: float, dt: float) -> None:
    """Integrate y' = rhs(y) over a span in place, splitting steps exactly
    at minimum-estimate switch points (where the lowest occupied column hits
    zero mass).

    The steps and bisections work on a C-ordered copy of the leading block
    of y that holds the occupied levels (see _block_side), written back at
    the end of the span.  Precondition: rhs moves mass at most one level per
    evaluation, as rhs_async and fluid_sync.rhs_sync do.  Then every cell
    past the block has a derivative of exactly zero in all four RK4 stages,
    so the block step equals a step of all of y bit for bit.  So the block
    needs re-deriving only when a step leaves a cell within BLOCK_MARGIN of
    its edge occupied; until then it is kept, even where the occupied levels
    recede.
    """
    n = len(y)
    k = _block_side(y, n)
    block = y[:k, :k].copy()
    edge = k - BLOCK_MARGIN
    remaining = span
    while remaining > 1e-14:
        m = min_estimate_level(np.add.reduce(block, axis=0).tolist())
        h = min(dt, remaining)
        y_new = _rk4(rhs, block, h)
        if np.add.reduce(y_new[:, m]) < -1e-13:
            # Called via fluid_sync, where perfbench's INNER patches it, until INNER is mended.
            h, y_new = fluid_sync.split_step_at_switch(
                lambda z, hh: _rk4(rhs, z, hh), block, h, m)
            move_leftover(y_new, m)
        block = y_new
        if k < n and (np.count_nonzero(block[edge:]) or np.count_nonzero(block[:, edge:])):
            y[:k, :k] = block
            k = _block_side(block, n)
            block = y[:k, :k].copy()
            edge = k - BLOCK_MARGIN
        remaining -= h
    y[:k, :k] = block


def check_dt(dt: float, delta: float) -> None:
    """Refuse an RK4 step dt outside (0, min(1/delta, 1)/100]."""
    if not 0.0 < dt <= min(1.0 / delta, 1.0) / 100.0:
        raise ValueError(f"need 0 < dt <= min(1/delta, 1)/100, got {dt}")


def integrate_async(
    y0: FluidState | np.ndarray,
    lam: float,
    delta: float,
    t_end: float,
    dt: float | None = None,
    store_times: np.ndarray | None = None,
) -> FluidRun:
    """The asynchronous limit on [0, t_end] by classic fixed-step 4th-order
    steps of dt (default min(1/delta, 1)/1000), split exactly at stored
    grid points and estimate-level switches.  The dispatch level is
    re-derived from the state at every evaluation, and there are no jumps."""
    check_rates(lam, delta)
    if dt is None:
        dt = min(1.0 / delta, 1.0) / 1000.0
    check_dt(dt, delta)
    y = _state_array(y0)
    marks = stops(t_end, None, store_times)
    check_state_budget(len(marks) + 1, len(y) - 1, "integrate_async")
    states = np.empty((len(marks) + 1, *y.shape))
    states[0] = y
    clamped = 0.0
    t = 0.0
    for k, (t_next, _) in enumerate(marks, 1):
        _advance(lambda z: rhs_async(z, lam, delta), y, t_next - t, dt)
        clamped = _settle(y, clamped)
        states[k] = y
        t = t_next
    return FluidRun(
        times=np.array([0.0, *(t for t, _ in marks)]),
        states=states,
        update_epochs=np.empty(0),
        lam=lam,
        clamped=clamped,
    )
