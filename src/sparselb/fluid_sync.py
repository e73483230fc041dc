"""Fluid limits: the synchronized limit as an exact piecewise flow, and what
both limits share.

Under synchronized updates the occupancy fractions follow a piecewise-smooth
ODE between epochs whose assignment flux targets the minimum estimate
level; at each epoch every column collapses onto the diagonal (estimates
snap to true queue lengths).  Between two stops that flow has a closed
form, so integrate_sync takes no steps.  Both limits start in _run_start,
which checks the rates, copies the initial state and builds the one
FluidRun, on stored_stops, the one owner of the stored states: it refuses a
run by its update epochs before stops builds anything, then by its stops.
A FluidRun stores the leading block of its states that holds their occupied
levels, by _block_side, the one block rule of both limits.  They also share
the clamp and the leftover move at a switch; fluid_async's RK4 stepper calls
split_step_at_switch.  The module also carries the trajectory checks.
"""
from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from .model import (NEG_TOL, SWITCH_TOL, FluidState, StateError, check_rates,
                    check_state_budget, check_truncation, min_estimate_level)


# Levels past the occupied ones that a block holds (see _block_side): the four
# stages of an RK4 step each move mass at most one level, so a step leaves
# every cell beyond them at zero, and the exact flow between two stops moves
# mass at most one level.
BLOCK_MARGIN = 4


class IntegrationError(RuntimeError):
    pass


def rhs_sync(y: np.ndarray, lam: float) -> np.ndarray:
    """Time derivative of the occupancy array between update epochs.

    Service moves mass (i, j) -> (i-1, j); arrivals move mass
    (i, m) -> (i+1, m+1) at total rate lam, spread over the minimum
    occupied estimate level m proportionally to its queue composition.
    """
    w = y.sum(axis=0)
    m = min_estimate_level(w)
    dy = np.zeros_like(y)
    dy[:-1, :] += y[1:, :]
    dy[1:, :] -= y[1:, :]
    arr = y[:, m] / w[m]  # assignment split over level m
    dy[:, m] -= lam * arr
    if m + 1 < y.shape[1]:
        dy[1:, m + 1] += lam * arr[:-1]
    return dy


def apply_sync_update(y: np.ndarray) -> np.ndarray:
    """Epoch jump: every estimate snaps to the true queue length, so each
    row collapses onto the diagonal.  Queue-length marginals are untouched."""
    out = np.zeros_like(y)
    np.fill_diagonal(out, y.sum(axis=1))
    return out


def _block_side(y: np.ndarray, n: int) -> int:
    """Side k of the leading block [:k, :k] of an n-by-n state that holds
    its occupied levels; y is a leading block of the state that holds all
    of its non-zero cells.

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


def _pad(block: np.ndarray, n: int) -> np.ndarray:
    """A new array of block's leading shape and n-by-n states, holding
    block in the leading corner of each state and zeros elsewhere."""
    out = np.zeros((*block.shape[:-2], n, n))
    side = block.shape[-1]
    out[..., :side, :side] = block
    return out


@dataclass
class FluidRun:
    """Stored trajectory: states are right-continuous (post-jump at epochs);
    update_epochs lists the epochs at which a jump was applied.

    A run is made from its states, a (T, jmax + 1, jmax + 1) array, and
    keeps block, their leading [:, :k, :k] block with the side k that
    _block_side gives the cells that any of them occupies; every cell past
    it is zero.  The states property pads block to the whole grid on
    demand, and final() pads the last state alone.  An integrator stores
    each state into block as it runs, widening it by grow first."""

    times: np.ndarray
    states: InitVar[np.ndarray]
    update_epochs: np.ndarray
    lam: float
    clamped: float = 0.0
    jmax: int = field(init=False)
    block: np.ndarray = field(init=False)

    def __post_init__(self, states: np.ndarray) -> None:
        self.jmax = states.shape[-1] - 1
        side = _block_side(np.logical_or.reduce(states, axis=0), self.jmax + 1)
        self.block = states[:, :side, :side].copy()

    def grow(self, y: np.ndarray) -> np.ndarray:
        """block, first widened to the side that _block_side gives y, a
        leading block of a state that holds all of its non-zero cells, if
        it is narrower."""
        side = _block_side(y, self.jmax + 1)
        if side > self.block.shape[-1]:
            self.block = _pad(self.block, side)
        return self.block

    def final(self) -> np.ndarray:
        return _pad(self.block[-1], self.jmax + 1)


# Set after the class, where a property of this name would be the default of
# the states argument.
FluidRun.states = property(lambda run: _pad(run.block, run.jmax + 1),
                           doc="The stored states on the whole grid, built on each read.")


def landed(col: np.ndarray) -> bool:
    """Whether a drained column m has landed on its switch: its mass lies
    in [-1e-13, SWITCH_TOL] and no cell exceeds SWITCH_TOL in magnitude,
    so the leftover that move_leftover carries up is round-off."""
    return (-1e-13 <= np.add.reduce(col) <= SWITCH_TOL
            and np.maximum.reduce(np.abs(col)) <= SWITCH_TOL)


def split_step_at_switch(step, y: np.ndarray, h: float, m: int):
    """Bisect a step length onto the point where column m drains to zero.

    The depleting column shrinks linearly, so bisection converges fast.
    Only endpoints where column m has landed (see landed) are accepted; a
    negative landing, or one with large cells of either sign, would leave
    negative entries behind.
    """
    lo, hi = 0.0, h
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        y_mid = step(y, mid)
        if landed(y_mid[:, m]):
            return mid, y_mid
        if np.add.reduce(y_mid[:, m]) > 0.0:
            lo = mid
        else:
            hi = mid
    raise IntegrationError("switch-point bisection did not converge")


def move_leftover(y: np.ndarray, m: int) -> None:
    """At a switch, zero the drained column m of y in place and move its
    leftover (at most SWITCH_TOL in total, in cells of either sign) up one
    estimate level.  When m is the last level, y is left as it is.  A cell
    of column m above SWITCH_TOL in magnitude is no leftover: it is refused."""
    worst = np.maximum.reduce(np.abs(y[:, m]))
    if not worst <= SWITCH_TOL:
        raise IntegrationError(f"drained column {m} keeps a cell of {worst:.3g}")
    if m + 1 < y.shape[1]:
        y[:, m + 1] += y[:, m]
        y[:, m] = 0.0


def _epoch_count(t_end: float, delta: float | None) -> int:
    """The update epochs k/delta in (0, t_end]; none for delta None."""
    return 0 if delta is None else math.floor(t_end / (1.0 / delta) + 1e-12)


def stops(t_end: float, delta: float | None, store_times) -> list[tuple[float, bool]]:
    """Sorted (time, is_epoch) stops of a fluid run: the update epochs
    k/delta of a synchronous run (none for delta None, the asynchronous
    run) and the store times, merging times within 1e-12 * max(1, t_end)
    of each other.  A merged group keeps its epoch's time if it has one,
    else t_end if it holds t_end, else its first time.  Store times are
    kept in (0, t_end] and epochs in (0, t_end + that gap], so no stop
    lies past t_end but an epoch's.  The run stores one state at time 0
    and one at each stop.  Only stored_stops calls it."""
    epochs = () if delta is None else np.arange(1, _epoch_count(t_end, delta) + 1) * (1.0 / delta)
    eps = _merge_gap(t_end)
    # rank 0: store time, 1: t_end, 2: epoch
    ranked = sorted(
        (float(t), rank)
        for times, rank, end in ((epochs, 2, t_end + eps), (store_times, 0, t_end),
                                 ([t_end], 1, t_end))
        for t in times
        if 0.0 < t <= end
    )
    marks: list[tuple[float, int]] = []
    for t, rank in ranked:
        if marks and t - marks[-1][0] <= eps:
            marks[-1] = max(marks[-1], (t, rank), key=lambda mark: mark[1])
        else:
            marks.append((t, rank))
    return [(t, rank == 2) for t, rank in marks]


def _merge_gap(t_end: float) -> float:
    """How near two stops of a run to t_end may come before stops merges
    them, and a switch that near a stop is taken to fall on it."""
    return 1e-12 * max(1.0, t_end)


def stored_stops(t_end: float, delta: float | None, store_times, jmax: int, what: str) -> list:
    """stops(t_end, delta, store_times), for a run that holds a state of
    (jmax + 1)^2 floats at time 0 and at each stop; store_times defaults
    to 1001 points from 0 to t_end.  check_state_budget refuses it, with
    StateError, first by the update epochs alone, then by a floor on the
    stops that the store times make, both before stops builds anything,
    and then by the stops.  The one caller of stops."""
    if not t_end > 0.0:
        raise ValueError(f"need t_end > 0, got {t_end}")
    try:
        check_state_budget(_epoch_count(t_end, delta) + 1, jmax, what)
    except OverflowError as err:  # t_end * delta is past the largest float
        raise StateError(err) from None
    if store_times is None:
        store_times = np.linspace(0.0, t_end, 1001)
    # A merged group spans at most three gaps, as its kept time moves at most
    # twice, so store times more than 4 gaps apart fall in different stops.
    kept = np.asarray(store_times, dtype=float)
    kept = np.sort(kept[(kept > 0.0) & (kept <= t_end)])
    groups = np.count_nonzero(np.diff(kept) > 4.0 * _merge_gap(t_end)) + (len(kept) > 0)
    check_state_budget(groups + 1, jmax, what)
    marks = stops(t_end, delta, store_times)
    check_state_budget(len(marks) + 1, jmax, what)
    return marks


def _run_start(y0: FluidState | np.ndarray, lam, delta, t_end, store_times, epochs: bool):
    """The start of a run of integrate_sync (epochs True) or integrate_async:
    check the rates, copy y0 and ask stored_stops for the stops; return the
    stops and the run's FluidRun, whose block holds y0's block as every
    state until the integrator stores the next ones.  The one builder of a
    FluidRun."""
    check_rates(lam, delta)
    y = np.array(y0.y if isinstance(y0, FluidState) else y0, dtype=float)
    marks = stored_stops(t_end, delta if epochs else None, store_times, len(y) - 1,
                         "integrate_sync" if epochs else "integrate_async")
    # a read-only view of y as every state; FluidRun copies out its block
    states = np.broadcast_to(y, (len(marks) + 1, *y.shape))
    return FluidRun(np.array([0.0, *(t for t, _ in marks)]), states,
                    np.array([t for t, is_epoch in marks if is_epoch]), lam), marks


def _settle(y: np.ndarray, clamped: float) -> float:
    """Clamp round-off below zero in y, in place, and check the truncation
    boundary; returns the largest clamp so far.  y is a state or a stored
    block of one: a block narrower than the state keeps its last row and
    column empty by BLOCK_MARGIN, so only a block that has grown to the
    whole state meets the real boundary."""
    low = y.min()
    if low < 0.0:
        if low < -NEG_TOL:
            raise IntegrationError(f"state entry fell to {low}")
        clamped = max(clamped, -low)
        np.maximum(y, 0.0, out=y)
    check_truncation(y)
    return clamped


def _flow(y: np.ndarray, m: int, lam: float, r: np.ndarray, out: np.ndarray) -> None:
    """Write the exact flow from y over each time in r (ascending, none past
    the switch w_m/lam of the minimum level m) into out[0..len(r)-1].  y
    and the states of out share a side: a state's, or its stored block's.

    Every column moves under service, whose exponential at time r is
    sum_k pois(k; r) P^k (uniformization).  Queue levels above the highest
    occupied one, L, stay empty but for arrivals at L + 1, so the flow is
    worked out on rows 0..L+1 alone; there P^(L+1) holds all mass at level
    0, and the Poisson tail from L + 1 on is lumped onto it.  Column m also
    feeds arrivals at rate lam, which scales it by (w_m - lam r)/w_m.
    Column m + 1 gains them one level up: lam sum_k pois(k; r) R_k, where
    R_0 = 0, R_{k+1} = P R_k + B P^k x0 and x0 = y[:, m]/w_m; B moves mass
    one level up and drops the top row, as rhs_sync does.  The sums run in
    einsum, not BLAS: on two OpenBLAS threads these small products took
    about ten times longer.
    """
    n = len(y)
    rows = min(int(np.flatnonzero(y.any(axis=1))[-1]) + 2, n)
    y = y[:rows]
    w_m = y[:, m].sum()
    terms = max(rows, int(r[-1] + 12.0 * math.sqrt(r[-1]) + 40.0))
    k = np.arange(terms)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(k[1:]))))
    pmf = np.exp(np.log(r)[:, None] * k - r[:, None] - log_fact)
    weights = pmf[:, :rows].copy()
    weights[:, -1] = 1.0 - pmf[:, : rows - 1].sum(axis=1)
    # P^k y for k < rows: row i >= 1 is row i + k of y, row 0 holds rows 0..k
    powers = np.concatenate((y, np.zeros_like(y)))[np.add.outer(k[:rows], k[:rows])]
    powers[:, 0] = np.cumsum(y, axis=0)
    np.einsum("sk,kij->sij", weights, powers, out=out[:, :rows])
    out[:, rows:] = 0.0
    out[:, :, m] *= (np.maximum(w_m - lam * r, 0.0) / w_m)[:, None]
    if m + 1 < n:
        inflow = np.zeros((terms, rows))  # B P^k x0
        inflow[:, 1:] = powers[np.minimum(k, rows - 1), :-1, m] / w_m
        acc = np.zeros((terms, rows))  # R_k
        for j in range(1, terms):
            acc[j, 0] = acc[j - 1, 0] + acc[j - 1, 1]
            acc[j, 1:-1] = acc[j - 1, 2:]
            acc[j] += inflow[j - 1]
        out[:, :rows, m + 1] += lam * np.einsum("sk,ki->si", pmf, acc)


def integrate_sync(
    y0: FluidState | np.ndarray,
    lam: float,
    delta: float,
    t_end: float,
    store_times: np.ndarray | None = None,
) -> FluidRun:
    """The synchronous fluid limit on [0, t_end], with update epochs at
    k/delta (deterministic schedule), as an exact piecewise flow.

    The flow (see _flow) stops at every epoch and at every switch, where
    the minimum-estimate column m has drained at w_m/lam; there column m
    is zeroed and its round-off residue moves up to column m + 1.  All
    stored times between two stops come from one call, which writes them
    straight into the run's block.
    """
    run, marks = _run_start(y0, lam, delta, t_end, store_times, True)
    times, y = run.times, run.block[0].copy()
    # index of each epoch mark, then of the last mark
    ends = np.append(np.flatnonzero([is_epoch for _, is_epoch in marks]), len(marks) - 1)
    eps = _merge_gap(t_end)
    t, i = 0.0, 0  # the flow has reached time t and marks[:i]
    while i < len(marks):
        # a flow moves mass at most one level up, so its states fit the block
        states = run.grow(y)
        if len(y) < states.shape[-1]:
            y = _pad(y, states.shape[-1])
        m = min_estimate_level(y.sum(axis=0))
        span = y[:, m].sum() / lam  # until column m drains
        last = ends[np.searchsorted(ends, i)]
        ahead = times[i + 1 : last + 2] - t
        j = int(np.searchsorted(ahead, span + eps, side="right"))  # marks reached
        at_mark = j > 0 and ahead[j - 1] >= span - eps  # the last one is the switch
        switched = at_mark or j < len(ahead)
        r = np.minimum(ahead[:j], span)
        if switched and not at_mark:
            r = np.append(r, span)  # the switch itself, in the next mark's row
        block = states[i + 1 : i + 1 + len(r)]
        _flow(y, m, lam, r, block)
        if switched:
            move_leftover(block[-1], m)
        for state in block[:j]:
            run.clamped = _settle(state, run.clamped)
        if j == len(r) and marks[i + j - 1][1]:
            block[-1] = apply_sync_update(block[-1])
        y = block[-1].copy()
        t = times[i + j] if j == len(r) else t + span
        i += j
    return run


# ---------------------------------------------------------------------------
# Trajectory-level consistency checks.


@dataclass
class CheckReport:
    """Named residuals from trajectory checks; a check passes when its
    residual stays within tolerance."""

    residuals: dict[str, float] = field(default_factory=dict)
    tolerances: dict[str, float] = field(default_factory=dict)

    def record(self, name: str, residual: float, tol: float) -> None:
        # np.maximum, unlike max, keeps a NaN once recorded
        self.residuals[name] = float(np.maximum(residual, self.residuals.get(name, 0.0)))
        self.tolerances[name] = tol

    @property
    def violations(self) -> dict[str, float]:
        # "not r <= tol" so that a NaN residual fails
        return {
            k: r for k, r in self.residuals.items() if not r <= self.tolerances[k]
        }

    @property
    def passed(self) -> bool:
        return not self.violations


def check_trajectory_invariants(run: FluidRun) -> CheckReport:
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
    times, states, lam = run.times, run.block, run.lam

    totals = states.sum(axis=(1, 2))
    report.record("mass_conservation", float(np.abs(totals - 1.0).max()), 1e-9)

    v_all = states.sum(axis=2)
    w_all = states.sum(axis=1)
    m_all = np.array([min_estimate_level(w) for w in w_all])
    idx_lv = np.arange(states.shape[2])
    h = np.diff(times)
    at_epoch = np.isin(np.round(times, 12), np.round(run.update_epochs, 12))
    # Slope checks only apply between epochs and away from level switches.
    steady = ~at_epoch[1:] & ~at_epoch[:-1] & (m_all[1:] == m_all[:-1])
    steps = np.flatnonzero((h > 1e-12) & steady)
    cols = m_all[steps]
    up = cols + 1 < len(idx_lv)
    for name, k, m, rate in (("min_level_drain_slope", steps, cols, -lam),
                             ("next_level_fill_slope", steps[up], cols[up] + 1, lam)):
        if k.size:
            dw = (w_all[k + 1, m] - w_all[k, m]) / h[k]
            report.record(name, np.max(np.abs(dw - rate)), 1e-3)

    # Tail-mass monotonicity while the minimum estimate sits below K; row
    # K - 1 of q_gt is the queue mass above K at each stored time.
    max_support = int(np.max(np.nonzero(v_all.sum(axis=0) > 1e-12))) if v_all.any() else 0
    levels = np.arange(1, max_support + 2)
    q_gt = np.array([v_all[:, idx_lv > K] @ (idx_lv[idx_lv > K] - K) for K in levels])
    k = np.flatnonzero(h > 1e-12)
    below = levels[:, None] - 1
    held = (m_all[k] <= below) & (m_all[k + 1] <= below)
    if held.any():
        rise = (q_gt[:, k + 1] - q_gt[:, k])[held]
        report.record("tail_mass_monotone", np.max(np.maximum(rise, 0.0)), 1e-9)

    # Arrival/departure balance: Q(t_end) = Q(0) + lam*t_end - int(1 - v0).
    q_mass = v_all @ idx_lv
    busy = 1.0 - v_all[:, 0]
    integral = float(np.trapezoid(busy, times))
    balance = q_mass[-1] - (q_mass[0] + lam * times[-1] - integral)
    report.record("queue_balance", abs(balance), 1e-5)
    return report
