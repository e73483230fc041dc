"""Event-driven simulation of the finite-N dispatching system.

One replication is a single-threaded event loop over a binary-heap calendar
with a fixed tie-break (departures before updates before arrivals, then
insertion order), so a seed pins down the whole trace.  Waiting time is
measured from arrival to service start; statistics only count the window
after warmup.
"""
from __future__ import annotations

import heapq
import math
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .model import ModelParams
from .policies import (
    DispatcherView,
    PolicySpec,
    apply_global_update,
    dispatch,
    on_assign,
    on_idle,
    on_update,
    schedule_updates,
)

DEPARTURE, UPDATE, ARRIVAL = 0, 1, 2

STREAM_NAMES = ("arrivals", "services", "policy", "updates")

# Draws per numpy call for the single-purpose arrival and service streams.
BLOCK = 1024


class SimulationError(RuntimeError):
    pass


def rng_streams(seed: int, run_index: int) -> dict[str, np.random.Generator]:
    """One generator per purpose, derived from (seed, run index) by fixed
    spawn labels so replications and purposes never share a stream."""
    root = np.random.SeedSequence(seed, spawn_key=(run_index,))
    children = root.spawn(len(STREAM_NAMES))
    return {name: np.random.default_rng(c) for name, c in zip(STREAM_NAMES, children)}


def exponentials(rng: np.random.Generator, scale: float) -> Iterator[float]:
    """Exponential(scale) draws taken from rng BLOCK at a time.  They are the
    values successive scalar rng.exponential(scale) calls would return, so
    only a stream that draws nothing else may be read this way."""
    while True:
        yield from rng.exponential(scale, BLOCK).tolist()


@dataclass
class SimConfig:
    params: ModelParams
    policy: PolicySpec
    horizon: float
    warmup: float | None = None
    seed: int = 0
    trajectory_grid: float | np.ndarray | None = None
    snapshot_jmax: int = 40
    track_assignments: bool = False
    check_invariants: bool = False

    def __post_init__(self) -> None:
        if self.warmup is None:
            self.warmup = 0.2 * self.horizon
        if not 0.0 <= self.warmup < self.horizon:
            raise SimulationError(
                f"need 0 <= warmup < horizon, got {self.warmup}, {self.horizon}"
            )
        delta = self.policy.delta
        if delta is not None and self.params.delta not in (None, delta):
            raise SimulationError(
                f"ModelParams.delta = {self.params.delta} disagrees with "
                f"the policy's delta = {delta}"
            )
        d, n = self.policy.d, self.params.n_servers
        if d is not None and d > n:
            raise SimulationError(
                f"jsq-d:{d} probes d = {d} distinct servers, more than N = {n}"
            )

    def grid_times(self) -> np.ndarray | None:
        g = self.trajectory_grid
        if g is None:
            return None
        if np.isscalar(g):
            return np.arange(0.0, self.horizon + 1e-12, float(g))
        g = np.asarray(g, dtype=float)
        return g[g <= self.horizon + 1e-12]


@dataclass
class Trajectory:
    times: np.ndarray
    y: np.ndarray  # (len(times), jmax+1, jmax+1) fluid-scaled counts


@dataclass
class MetricsRecord:
    mean_wait: float
    msgs_per_job: float
    mean_queue_per_server: float
    queue_len_hist: np.ndarray
    frac_wait_positive: float
    n_arrivals: int
    n_waits: int
    trajectory: Trajectory | None = None
    assignments: np.ndarray | None = None
    per_run: list["MetricsRecord"] | None = None
    mean_wait_ci: float | None = None

    def to_dict(self) -> dict:
        out = {
            "mean_wait": self.mean_wait,
            "msgs_per_job": self.msgs_per_job,
            "mean_queue_per_server": self.mean_queue_per_server,
            "queue_len_hist": [float(x) for x in self.queue_len_hist],
            "frac_wait_positive": self.frac_wait_positive,
            "n_arrivals": self.n_arrivals,
            "n_waits": self.n_waits,
        }
        if self.mean_wait_ci is not None:
            out["mean_wait_ci"] = self.mean_wait_ci
        return out


def snapshot_fractions(
    queues: np.ndarray, estimates: np.ndarray | None, jmax: int
) -> np.ndarray:
    """Fluid-scaled occupancy array from per-server queue lengths and
    estimates (estimate = queue length for kinds without estimates)."""
    y = np.zeros((jmax + 1, jmax + 1))
    qc = np.minimum(queues, jmax)
    ec = qc if estimates is None else np.minimum(np.maximum(estimates, qc), jmax)
    np.add.at(y, (qc, ec), 1.0)
    return y / len(queues)


def run(config: SimConfig) -> MetricsRecord:
    """Simulate one replication."""
    return _run(config, run_index=0)


def t_975(df: int) -> float:
    """The 0.975 quantile of Student's t with df >= 1 degrees of freedom,
    by bisection on theta = atan(t / sqrt(df)): P(|T| < t) is a finite
    series in cos(theta)^2 (Abramowitz & Stegun 26.7.3-4)."""
    odd = df % 2

    def inside(theta: float) -> float:
        c, s = math.cos(theta), math.sin(theta)
        total, term = 0.0, 1.0
        for k in range(1, df // 2 + 1):
            total += term
            term *= c * c * (2 * k - 1 + odd) / (2 * k + odd)
        return (theta + s * c * total) * 2.0 / math.pi if odd else s * total

    lo, hi = 0.0, 0.5 * math.pi
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if inside(mid) < 0.95 else (lo, mid)
    return math.sqrt(df) * math.tan(lo)


def run_replications(config: SimConfig, runs: int) -> MetricsRecord:
    """Independent replications with per-run derived seeds; scalar metrics
    are averaged and trajectories are pointwise means."""
    if runs < 1:
        raise SimulationError("runs must be >= 1")
    records = [_run(config, run_index=k) for k in range(runs)]
    if runs == 1:
        return records[0]
    waits = np.array([r.mean_wait for r in records])
    hist_len = max(len(r.queue_len_hist) for r in records)
    hist = np.zeros(hist_len)
    for r in records:
        hist[: len(r.queue_len_hist)] += r.queue_len_hist
    hist /= runs
    traj = None
    if records[0].trajectory is not None:
        traj = Trajectory(
            times=records[0].trajectory.times,
            y=np.mean([r.trajectory.y for r in records], axis=0),
        )
    ci = t_975(runs - 1) * float(np.std(waits, ddof=1)) / np.sqrt(runs)
    return MetricsRecord(
        mean_wait=float(np.mean(waits)),
        msgs_per_job=float(np.mean([r.msgs_per_job for r in records])),
        mean_queue_per_server=float(
            np.mean([r.mean_queue_per_server for r in records])
        ),
        queue_len_hist=hist,
        frac_wait_positive=float(np.mean([r.frac_wait_positive for r in records])),
        n_arrivals=sum(r.n_arrivals for r in records),
        n_waits=sum(r.n_waits for r in records),
        trajectory=traj,
        per_run=records,
        mean_wait_ci=ci,
    )


def _run(config: SimConfig, run_index: int) -> MetricsRecord:
    params, spec = config.params, config.policy
    n = params.n_servers
    lam_total = params.lam * n
    horizon, warmup = config.horizon, config.warmup
    rngs = rng_streams(config.seed, run_index)
    next_arrival_gap = exponentials(rngs["arrivals"], 1.0 / lam_total).__next__
    next_service = exponentials(rngs["services"], 1.0).__next__
    rng_pol, rng_upd = rngs["policy"], rngs["updates"]

    view = DispatcherView(spec, n)
    queues = np.zeros(n, dtype=np.int64)
    waiting: list[deque[float]] = [deque() for _ in range(n)]
    updates = schedule_updates(spec, params, rng_upd) if spec.uses_estimates else None

    heap: list[tuple[float, int, int, int]] = []
    seq = 0

    def push(t: float, kind: int, server: int) -> None:
        nonlocal seq
        heapq.heappush(heap, (t, kind, seq, server))
        seq += 1

    push(next_arrival_gap(), ARRIVAL, -1)
    if updates is not None:
        t_up, s_up = next(updates)
        push(t_up, UPDATE, -1 if s_up is None else s_up)

    # Post-warmup accumulators.
    wait_sum = 0.0
    n_waits = 0
    n_positive = 0
    n_arrivals_pw = 0
    messages_pw = 0
    total_queue = 0
    area_queue = 0.0
    # level_counts[j] servers hold j jobs; none hold more than top.
    level_counts = [n]
    hist_area = [0.0]
    top = 0
    t_mark = 0.0
    assignments = np.zeros(n, dtype=np.int64) if config.track_assignments else None

    grid = config.grid_times()
    snaps: list[np.ndarray] = []
    gi = 0
    jmax = config.snapshot_jmax

    def account(t: float) -> None:
        """Fold the constant stretch since the last queue change into the
        time-averaged totals (clipped to the measurement window)."""
        nonlocal area_queue, t_mark
        lo = t_mark if t_mark > warmup else warmup
        hi = t if t < horizon else horizon
        if hi > lo:
            dt = hi - lo
            area_queue += total_queue * dt
            # Empty levels would add 0.0, so skipping them changes no sum.
            for j in range(top + 1):
                c = level_counts[j]
                if c:
                    hist_area[j] += c * dt
        t_mark = t

    def start_service(server: int, t: float, arrived: float) -> None:
        nonlocal wait_sum, n_waits, n_positive
        if arrived > warmup:
            w = t - arrived
            wait_sum += w
            n_waits += 1
            if w > 0.0:
                n_positive += 1
        push(t + next_service(), DEPARTURE, server)

    while heap:
        t, kind, _, server = heapq.heappop(heap)
        if t > horizon:
            break
        if grid is not None:
            while gi < len(grid) and grid[gi] < t:
                snaps.append(snapshot_fractions(queues, view.estimates, jmax))
                gi += 1

        if kind == ARRIVAL:
            target, msgs = dispatch(spec, view, queues, rng_pol)
            if t > warmup:
                n_arrivals_pw += 1
                messages_pw += msgs
            account(t)
            q_old = int(queues[target])
            queues[target] = q_old + 1
            total_queue += 1
            if q_old == top:
                top += 1
                if top == len(level_counts):
                    level_counts.append(0)
                    hist_area.append(0.0)
            level_counts[q_old] -= 1
            level_counts[q_old + 1] += 1
            on_assign(view, target)
            if assignments is not None:
                assignments[target] += 1
            if q_old == 0:
                start_service(target, t, t)
            else:
                waiting[target].append(t)
            push(t + next_arrival_gap(), ARRIVAL, -1)
        elif kind == DEPARTURE:
            account(t)
            q_old = int(queues[server])
            queues[server] = q_old - 1
            total_queue -= 1
            level_counts[q_old] -= 1
            level_counts[q_old - 1] += 1
            if q_old == top and not level_counts[q_old]:
                top -= 1
            if q_old > 1:
                start_service(server, t, waiting[server].popleft())
            else:
                msgs = on_idle(spec, view, server, rng_pol)
                if t > warmup:
                    messages_pw += msgs
        else:  # UPDATE
            if server < 0:
                msgs = apply_global_update(spec, view, queues)
            else:
                msgs = on_update(spec, view, server, int(queues[server]))
            if t > warmup:
                messages_pw += msgs
            t_up, s_up = next(updates)
            push(t_up, UPDATE, -1 if s_up is None else s_up)

        if config.check_invariants:
            assert queues.min() >= 0
            assert top == int(queues.max()) and not any(level_counts[top + 1 :])
            assert level_counts[: top + 1] == np.bincount(queues).tolist()
            if view.estimates is not None:
                assert (view.estimates >= queues).all()
                view.check_index()
            assert sum(len(d) for d in waiting) == int(
                np.maximum(queues - 1, 0).sum()
            )

    account(horizon)
    if grid is not None:
        while gi < len(grid) and grid[gi] <= horizon + 1e-12:
            snaps.append(snapshot_fractions(queues, view.estimates, jmax))
            gi += 1

    if n_arrivals_pw == 0:
        raise SimulationError(
            "horizon too short: no arrivals observed after warmup"
        )

    window = (horizon - warmup) * n
    hist = np.array(hist_area) / window
    nz = np.nonzero(hist)[0]
    hist = hist[: int(nz[-1]) + 1] if nz.size else hist[:1]
    trajectory = (
        Trajectory(times=grid.copy(), y=np.asarray(snaps)) if grid is not None else None
    )
    return MetricsRecord(
        mean_wait=wait_sum / n_waits if n_waits else 0.0,
        msgs_per_job=messages_pw / n_arrivals_pw,
        mean_queue_per_server=area_queue / window,
        queue_len_hist=hist,
        frac_wait_positive=n_positive / n_waits if n_waits else 0.0,
        n_arrivals=n_arrivals_pw,
        n_waits=n_waits,
        trajectory=trajectory,
        assignments=assignments,
    )
