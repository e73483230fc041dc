"""Fluid limit under asynchronous exponential status updates, and the
fixed-step RK4 integrator that runs it, which integrates exactly the stiff
relaxation that arrivals impose on a near-empty column.

Updates arrive continuously at rate delta per server, so the limit has no
jumps and no epochs.  A server reporting a queue below the effective
dispatch level is topped up instantly at fluid scale; the level n and the
residual arrival rate zeta feeding it are recomputed from the state at
every derivative evaluation.
"""
from __future__ import annotations

import bisect
import functools
import math
from typing import NamedTuple

import numpy as np

from . import fluid_sync
from .model import SWITCH_TOL, FluidState, check_step_budget, min_estimate_level
from .fluid_sync import (BLOCK_MARGIN, FluidRun, _block_side, _pad, _run_start, _settle,
                         move_leftover)

# Slack on the capacity comparison that prevents chattering when u_n sits
# exactly on lam.
CAP_TOL = 1e-12

# Steps with rate * h below this (see _rk4) are classic RK4 steps: there
# RK4's factor for the decay, 1 - z + z^2/2 - z^3/6 + z^4/24, is within
# 1e-5 of e^-z, and it keeps a held column's steady composition exactly.
# On tools/async_grid.py's grid 0.1 and 0.25 give the same gaps to the
# dt/10 runs, and 1.0 gaps of up to 1.3e-4.
STIFF = 0.25


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

    Six flux groups: service shifts, residual assignments out of the
    dispatch level n and one queue level up (by _arrive), top-ups from below
    landing at (n, n), on-level reports refreshing the diagonal at i = j >=
    n, and the uniform update drain -delta*y.  Each moves mass at most one level.  Every slice update
    is made in place on a view held by name: dy[a:b] += x would also copy
    the view back onto itself through __setitem__.
    """
    add = np.add.reduce  # ndarray.sum would go through numpy's Python wrapper
    v = add(y, axis=1)
    w = add(y, axis=0).tolist()
    u, n, zeta = driver_of(v, w, lam, delta)
    size = len(y)
    below = y[1:]

    dy = np.multiply(-delta, y, order="C")  # C order: the diagonal is a view
    part = dy[:-1]
    part += below
    part = dy[1:]
    part -= below
    if zeta > 0.0 and w[n] > SWITCH_TOL:
        _arrive(dy, n, y[:, n], zeta / w[n])
    part = dy.ravel()[n * (size + 1) :: size + 1]
    top = v[n:]
    top *= delta
    part += top
    if n >= 1:
        part[0] += u[n] - u[n - 1]  # delta * sum(v[:n]), by u's running sums
    return dy


def _rk4(rhs, y: np.ndarray, h: float, m: int | None = None, rate: float = 0.0):
    """One RK4 step of y' = rhs(y), and the least column-m sum of its stages
    2-4 (inf when m is None).  rate is zeta / w_m, the rate at which
    arrivals at level m relax the composition of column m; a step with
    rate * h below STIFF is classic RK4, and every product and sum is one
    that y + (h/2) k1, ..., y + (h/6) (k1 + 2 k2 + 2 k3 + k4) make, in their
    order.  rhs returns a new array at each call, since k2 and k3 are
    overwritten.

    Otherwise the step integrates that relaxation exactly.  Arrivals take
    zeta * col / w_m from column m = y[:, m] and put it one queue level up
    in column m + 1.  Near a drain, where w_m is small, their Jacobian is
    L(t) = a(t) A P: P takes a column to its part off p = col / w_m, A moves
    a column's cells out of column m and one row up into m + 1 (see
    _arrive), and a(t) = zeta / w_m(t), where w_m(t) = w_m (1 + c t)
    follows the column's sum at its slope at the start of the step; p,
    rate and c are frozen there.  Its exponential moves the part off p by
    the factor 1 - phi(t), phi(t) = exp(-int_0^t a): e^(-rate t) while top-ups
    hold the column, 1 - rate t while arrivals alone drain it.  So one scalar
    per stage serves both columns.  The stages are those of Lawson's RK4 on
    the remainder rhs - L(t) (Hochbruck and Ostermann, Acta Numerica 2010);
    P y[:, m] = 0, so each stage subtracts a(t) A P (stage - y).  The step
    keeps in column m the part off p that the exact flow keeps when that
    remainder follows the quadratic through its stage values (_kept), and
    moves the rest on to column m + 1; the sums and every other column are
    classic RK4."""
    add = np.add.reduce
    half = 0.5 * h
    stiff = rate * h >= STIFF
    k1 = rhs(y)
    stage = np.multiply(k1, half)
    if stiff:
        w_m = add(y[:, m])
        p = y[:, m] / w_m
        slope, d1 = _off(k1[:, m], p)
        z, x = rate * h, slope / w_m * h
        # phi(h/2), a(h/2) h, phi(h), phi(h) / phi(h/2) and a(h) h, each 0
        # once the column's sum, at its frozen slope, has emptied
        phi_h = a_h = phi = r = a = 0.0
        if 1.0 + 0.5 * x > 0.0:
            phi_h, a_h = math.exp(-_exponent(z, x, 0.0, 0.5, math.log1p)), z / (1.0 + 0.5 * x)
        if 1.0 + x > 0.0:
            phi, a = math.exp(-_exponent(z, x, 0.0, 1.0, math.log1p)), z / (1.0 + x)
            r = math.exp(-_exponent(z, x, 0.5, 0.5, math.log1p))
        _arrive(stage, m, d1, half * (1.0 - phi_h))
    stage += y
    low = math.inf if m is None else add(stage[:, m])
    k2 = rhs(stage)
    if stiff:
        _arrive(k2, m, d1, -0.5 * a_h * phi_h)
        d2 = _off(k2[:, m], p)[1]
    np.multiply(k2, half, out=stage)
    stage += y
    if m is not None:
        low = min(low, add(stage[:, m]))
    k3 = rhs(stage)
    if stiff:
        _arrive(k3, m, d2, -0.5 * a_h)
        d3 = _off(k3[:, m], p)[1]
    np.multiply(k3, h, out=stage)
    if stiff:
        _arrive(stage, m, d3, h * (1.0 - r))
    stage += y
    if m is not None:
        low = min(low, add(stage[:, m]))
    k4 = rhs(stage)
    if stiff:
        _arrive(k4, m, d3, -a * r)
        d4 = _off(k4[:, m], p)[1]
    k2 += k2  # 2 k2, exactly, with no scalar operand
    k2 += k1
    k3 += k3
    k2 += k3
    k2 += k4
    if stiff:
        kept = _kept(z, x)
        d2 += d3
        d2 *= 2.0 - 0.5 * kept[1]
        d2 += (1.0 - kept[0]) * d1
        d2 += (1.0 - kept[2]) * d4
        _arrive(k2, m, d2, 1.0)
    k2 *= h / 6.0
    k2 += y
    return k2, low



def _off(col: np.ndarray, p: np.ndarray) -> tuple[float, np.ndarray]:
    """The sum of a column and its part off the direction p, col - sum p."""
    total = np.add.reduce(col)
    return total, col - total * p


def _arrive(y: np.ndarray, m: int, d: np.ndarray, coef: float) -> None:
    """Move coef * d, in place, out of column m of y and into column m + 1
    one queue level up, as arrivals at level m move mass; a cell moved past
    the last level is dropped.  rhs_async's arrival flux and the stiff
    stages of _rk4 both move mass by it."""
    if coef:
        moved = coef * d
        part = y[:, m]
        part -= moved
        if m + 1 < y.shape[1]:
            part = y[1:, m + 1]
            part += moved[:-1]


def _exponent(z: float, x: float, s, width, log1p=np.log1p):
    """int_s^(s + width) a(u h) h du, the decay exponent over a fraction
    width of a step from its fraction s on, where a(u h) h = z / (1 + x u);
    written so that it keeps its precision as width or x goes to 0.  Needs
    1 + x (s + width) > 0.  s and width are floats, with math.log1p, or
    arrays."""
    if not x:
        return z * width
    return z / x * log1p(x * width / (1.0 + x * s))


# The positive nodes of the 6-point Gauss-Legendre rule on [-1, 1] and
# their weights, as numpy.polynomial.legendre.leggauss(6) gives them.
_GAUSS_NODES = np.array([0.2386191860831969, 0.6612093864662645, 0.9324695142031521])
_GAUSS_WEIGHTS = np.array([0.4679139345726910, 0.3607615730481386, 0.1713244923791704])


@functools.cache
def _rule(panels: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes sigma = 1 - t/h, ascending, of a 6-point Gauss-Legendre rule
    on panels of [0, 1] that halve towards both ends: [0, 2^-panels], each
    [2^-(k+1), 2^-k] below 1/2, and each [1 - 2^-j, 1 - 2^-(j+1)] above it
    down to [1 - 2^-8, 1]; 6 x its weights times the quadratic Lagrange
    basis on t/h = 0, 1/2, 1; and the lower edges of its panels."""
    nodes = np.concatenate((-_GAUSS_NODES[::-1], _GAUSS_NODES))
    weights = np.concatenate((_GAUSS_WEIGHTS[::-1], _GAUSS_WEIGHTS))
    edges = np.concatenate(([0.0], 2.0 ** -np.arange(float(panels), 0.0, -1.0),
                            1.0 - 2.0 ** -np.arange(2.0, 9.0), [1.0]))
    width = np.diff(edges)[:, None]
    sigma = (edges[:-1, None] + width * (nodes + 1.0) / 2.0).ravel()
    basis = [(2.0 * sigma - 1.0) * sigma, 4.0 * (1.0 - sigma) * sigma,
             (1.0 - sigma) * (1.0 - 2.0 * sigma)]
    return sigma, 6.0 * (width * weights / 2.0).ravel() * np.array(basis), edges[:-1]


def _kept(z: float, x: float) -> np.ndarray:
    """6/h times int_0^h (phi(h) / phi(t)) l_i(t) dt for the quadratic
    Lagrange basis l_i on t = 0, h/2, h: the share of a remainder that
    follows that quadratic which a step keeps in column m; (1, 4, 1), as in
    RK4, where nothing decays.  None is kept once the column's sum, at its
    frozen slope, empties within the step.  The rule's panels halve
    towards the step's end, where the weight of a stiff step lives, down to
    one on which the weight moves by a factor e at most (up to 2^40 = 1.1e12
    for rate * h), and towards its start, where a column that fills fast
    puts the weight's branch point near t = 0.  Panels on which the weight
    is below e^-50 are left out."""
    if not 1.0 + x > 0.0:
        return np.zeros(3)
    sigma, keep, lower = _rule(min(40, max(0, math.ceil(math.log2(z / (1.0 + min(x, 0.0)))))))
    end = 6 * max(1, int(np.searchsorted(lower, 50.0 * (1.0 + max(x, 0.0)) / z, side="right")))
    sigma = sigma[:end]
    return keep[:, :end] @ np.exp(-_exponent(z, x, 1.0 - sigma, sigma))


def _advance(rhs, drain, y: np.ndarray, span: float, dt: float) -> None:
    """Integrate y' = rhs(y) over a span in place, splitting steps exactly
    at minimum-estimate switch points (where the lowest occupied column m
    hits zero mass).

    drain(block, w, m), given the block's column sums w as a list, returns
    None when column m cannot come near draining within a step of dt, and
    otherwise the rate at which arrivals relax its composition (see _rk4).
    Only then does a step watch column m in its stages.  A step whose stage
    already sees column m drained, while its end does not and its end holds
    less than its start, is halved until no stage sees the drain: its later
    slopes would carry the arrivals on past a switch that the step never
    reaches.  A step that ends with column m at most SWITCH_TOL reaches the
    switch: it is bisected onto a landing (fluid_sync.landed) unless it
    lands, and column m's leftover moves up a level.

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
    add = np.add.reduce
    size = len(y)
    k = _block_side(y, size)
    block = y[:k, :k].copy()
    edge = k - BLOCK_MARGIN
    remaining = span
    while remaining > 1e-14:
        w = add(block, axis=0).tolist()
        m = min_estimate_level(w)
        h = min(dt, remaining)
        rate = drain(block, w, m)
        if rate is None:
            y_new = _rk4(rhs, block, h)[0]
        else:
            y_new, low = _rk4(rhs, block, h, m, rate)
            end = add(y_new[:, m])
            while low <= SWITCH_TOL < end < w[m]:
                h *= 0.5
                y_new, low = _rk4(rhs, block, h, m, rate)
                end = add(y_new[:, m])
            if end <= SWITCH_TOL:
                if not fluid_sync.landed(y_new[:, m]):
                    # Called via fluid_sync, where perfbench's INNER patches it, until INNER is mended.
                    h, y_new = fluid_sync.split_step_at_switch(
                        lambda z, hh: _rk4(rhs, z, hh, m, rate)[0], block, h, m)
                move_leftover(y_new, m)
        block = y_new
        if k < size and (np.count_nonzero(block[edge:]) or np.count_nonzero(block[:, edge:])):
            y[:k, :k] = block
            k = _block_side(block, size)
            block = y[:k, :k].copy()
            edge = k - BLOCK_MARGIN
        remaining -= h
    y[:k, :k] = block


def _async_drain(lam: float, delta: float, dt: float):
    """drain for rhs_async (see _advance).  Column m loses mass at most at
    rate lam + delta * w_m, by arrivals and the update drain, so while a
    step of dt takes less than STIFF * w_m from it, it can neither drain nor
    be stiff.  Otherwise the rate is zeta / w_m when m is the dispatch
    level, and 0 when arrivals pass column m by."""
    def drain(block: np.ndarray, w: list[float], m: int) -> float | None:
        if dt * (lam + delta * w[m]) < STIFF * w[m]:
            return None
        _, n, zeta = driver_of(np.add.reduce(block, axis=1), w, lam, delta)
        return zeta / w[m] if n == m else 0.0
    return drain


def max_dt(delta: float) -> float:
    """The longest RK4 step, min(1/delta, 1)/100, and the default one."""
    return min(1.0 / delta, 1.0) / 100.0


def step_for(t_end: float, delta: float, dt: float | None = None) -> float:
    """The RK4 step of a run to t_end: dt, or max_dt(delta) when dt is None.
    Raises ValueError for a dt outside (0, max_dt(delta)], and then
    StateError for a run of more than model.MAX_STEPS steps."""
    if dt is None:
        dt = max_dt(delta)
    elif not 0.0 < dt <= max_dt(delta):
        raise ValueError(f"need 0 < dt <= min(1/delta, 1)/100, got {dt}")
    check_step_budget(t_end / dt, "integrate_async")
    return dt


def integrate_async(
    y0: FluidState | np.ndarray,
    lam: float,
    delta: float,
    t_end: float,
    dt: float | None = None,
    store_times: np.ndarray | None = None,
) -> FluidRun:
    """The asynchronous limit on [0, t_end] by fixed 4th-order steps of
    step_for(t_end, delta, dt), which refuses a dt or a step count it does
    not admit before the first step, split exactly at stored grid points and
    estimate-level switches, with the arrivals' stiff relaxation of a
    near-empty column integrated exactly (see _rk4).  The dispatch level is
    re-derived from the state at every evaluation, and there are no jumps."""
    run, marks = _run_start(y0, lam, delta, t_end, store_times, False)
    dt = step_for(t_end, delta, dt)
    y = _pad(run.block[0], run.jmax + 1)
    drain = _async_drain(lam, delta, dt)
    t = 0.0
    for k, (t_next, _) in enumerate(marks, 1):
        _advance(lambda z: rhs_async(z, lam, delta), drain, y, t_next - t, dt)
        run.clamped = _settle(y, run.clamped)
        states = run.grow(y)
        side = states.shape[-1]
        states[k] = y[:side, :side]
        t = t_next
    return run
