"""Event-driven simulation of the finite-N dispatching system.

One replication is a single-threaded event loop over a calendar of three
clocks: the next arrival, the next update, and a binary heap of departures
holding one per busy server.  Each turn takes the earliest clock, with a
fixed tie-break (departures before updates before arrivals, and tied
departures in the order they were scheduled), so a seed pins down the whole
trace.  Waiting time is measured from arrival to service start; statistics
only count the window after warmup.

Each replication draws from four numpy streams, one per purpose, and each
stream has one reader.  Arrival gaps and service times are drawn BLOCK at a
time (exponentials).  The policy stream is read as raw PCG64 words BLOCK at
a time, and WordDraws turns them into the values the Generator itself would
return; the update stream, whose draws may interleave with exponential
ones, takes its words one at a time.  So every draw, and every output for a
seed, is what scalar Generator calls give.  The loop keeps the queues and
the dispatcher's estimates in Python lists, which are faster than numpy
arrays for one element at a time.
"""
from __future__ import annotations

import heapq
import math
import operator
import os
import pickle
from collections import deque
from collections.abc import Callable, Iterator
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

# Draws (or raw words) per numpy call for the streams read in blocks.
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


def raw_words(rng: np.random.Generator) -> Iterator[int]:
    """The raw 64-bit words of rng's bit generator, read BLOCK at a time.
    Reading ahead is exact only for a stream whose every draw goes through
    a WordDraws over these words."""
    bit_generator = rng.bit_generator
    while True:
        yield from bit_generator.random_raw(BLOCK).tolist()


class WordDraws:
    """Generator.integers(n), random() and choice(n, d, replace=False) of a
    PCG64 stream, rebuilt bit for bit from its raw 64-bit words (next_word
    gives the next one), at a fraction of numpy's per-call cost.

    integers(n) is numpy's Lemire method on 32-bit halves: each word serves
    two draws, low half first, and the high half waits for the next draw as
    in the bit generator's next_uint32, while random() takes a whole word
    and leaves a waiting half alone, as numpy's next_double does.  n == 1
    reads nothing.  sample(n, d) is the choice, built from integers draws.
    exponential, when given, is the Generator's own method, for a stream
    whose words are taken one at a time so that both readers stay in order.
    """

    __slots__ = ("_next_word", "_half", "exponential")

    def __init__(self, next_word: Callable[[], int], exponential=None):
        self._next_word = next_word
        self._half: int | None = None
        self.exponential = exponential

    def integers(self, n) -> int:
        try:
            n = operator.index(n)
        except TypeError:
            raise ValueError(f"integers(n) needs an integer n, got {n!r}") from None
        if not 0 < n < 0x100000000:
            raise ValueError(f"integers(n) needs 1 <= n < 2**32, got {n}")
        if n == 1:
            return 0
        while True:
            half = self._half
            if half is None:
                word = self._next_word()
                self._half = word >> 32
                m = (word & 0xFFFFFFFF) * n
            else:
                self._half = None
                m = half * n
            low = m & 0xFFFFFFFF
            # numpy rejects low < 2**32 % n; testing low >= n first, as
            # numpy does, spares the modulo on almost every draw.
            if low >= n or low >= 0x100000000 % n:
                return m >> 32

    def random(self) -> float:
        return (self._next_word() >> 11) * 2.0**-53

    def sample(self, n: int, d: int) -> list[int]:
        """Generator.choice(n, d, replace=False).tolist().  As in numpy,
        Floyd's algorithm picks d values of range(n), or for n > 10000 and
        d > n // 50 all of range(n) is taken; the last d places are then
        shuffled top down, place i with place integers(i + 1)."""
        if not 0 <= d <= n:
            raise ValueError(f"sample(n, d) needs 0 <= d <= n, got n = {n}, d = {d}")
        if n > 10000 and d > n // 50:
            picked = list(range(n))
        else:
            picked, seen = [], set()
            for k in range(n - d, n):
                value = self.integers(k + 1)
                if value in seen:
                    value = k
                seen.add(value)
                picked.append(value)
        top = len(picked)
        for i in range(top - 1, top - d - 1, -1):
            j = self.integers(i + 1)
            picked[i], picked[j] = picked[j], picked[i]
        return picked[top - d :]


@dataclass
class SimConfig:
    params: ModelParams
    policy: PolicySpec
    horizon: float
    warmup: float | None = None
    seed: int = 0
    trajectory_grid: np.ndarray | None = None  # snapshot times
    snapshot_jmax: int = 40
    check_invariants: bool = False

    def __post_init__(self) -> None:
        if not math.isfinite(self.horizon):
            raise SimulationError(f"need a finite horizon, got {self.horizon}")
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
        jmax = self.snapshot_jmax
        if not isinstance(jmax, (int, np.integer)) or jmax < 0:
            raise SimulationError(f"need an integer snapshot_jmax >= 0, got {jmax!r}")
        grid = self.trajectory_grid
        if grid is not None and not np.isfinite(np.asarray(grid, dtype=float)).all():
            raise SimulationError("trajectory_grid times must be finite")

    def grid_times(self) -> np.ndarray | None:
        if self.trajectory_grid is None:
            return None
        g = np.asarray(self.trajectory_grid, dtype=float)
        if g.ndim != 1:
            raise SimulationError("trajectory_grid must be a 1-d array of times")
        return g[g <= self.horizon + 1e-12]


@dataclass
class Trajectory:
    times: np.ndarray
    y: np.ndarray  # (len(times), jmax+1, jmax+1) fluid-scaled counts
    # The largest fraction of servers, at any one snapshot, whose queue or
    # estimate exceeded jmax and was clipped to it in y.
    clipped: float


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
    estimates (estimate = queue length for kinds without estimates), both
    clipped at jmax."""
    qc = np.minimum(queues, jmax)
    ec = qc if estimates is None else np.minimum(np.maximum(estimates, qc), jmax)
    counts = np.bincount(qc * (jmax + 1) + ec, minlength=(jmax + 1) ** 2)
    return counts.reshape(jmax + 1, jmax + 1) / len(queues)


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
    are averaged and trajectories are pointwise means.

    The runs are shared among min(runs, CPUs) workers, where the CPUs are
    those of this process's affinity mask: the caller runs indices
    0, w, 2w, ... and forks one worker for each other residue mod w.  Each
    run reads only its own (seed, run index) streams and the records are
    put back in run-index order, so every output is the same for any
    number of CPUs; `taskset -c 0` gives a serial run.  One run, one CPU,
    or a platform without os.fork or os.sched_getaffinity runs every
    index in the caller.  Calls that the runs make into patched names
    (a tracer's tallies, say) stay in the worker that made them.  Python
    3.12 and later warn on a fork in a process with threads, and numpy's
    BLAS thread pool makes this process one.
    """
    if runs < 1:
        raise SimulationError("runs must be >= 1")
    records = _replicate(config, runs)
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
        # A running sum, not np.mean over the list, which would stack a
        # second copy of every run; the sum and the division are the ones
        # np.mean(..., axis=0) makes, so the mean is bit for bit the same.
        y = records[0].trajectory.y.copy()
        for r in records[1:]:
            y += r.trajectory.y
        y /= runs
        traj = Trajectory(
            times=records[0].trajectory.times,
            y=y,
            clipped=max(r.trajectory.clipped for r in records),
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


def _share(config: SimConfig, runs: int, workers: int, first: int) -> tuple:
    """Runs first, first + workers, ... below runs, in order: their records,
    and the exception that stopped the share, or None."""
    records = []
    try:
        for k in range(first, runs, workers):
            records.append(_run(config, run_index=k))
    except Exception as exc:
        return records, exc
    return records, None


def _replicate(config: SimConfig, runs: int) -> list[MetricsRecord]:
    """The records of runs 0 .. runs - 1, in order, from the workers that
    run_replications describes.  A worker pickles its share, or what
    stopped it, into a pipe and leaves by os._exit; each is reaped on every
    path, and killed first if its runs are no longer wanted.  A failure
    raises the exception of the lowest failing run index, as a serial loop
    would."""
    can_fork = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    workers = min(runs, len(os.sched_getaffinity(0))) if can_fork else 1
    children = []  # (pid, read end of its pipe)
    done = False
    try:
        for first in range(1, workers):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:  # the worker never returns into the caller's frames
                try:
                    os.close(read_fd)
                    share = _share(config, runs, workers, first)
                    with os.fdopen(write_fd, "wb") as pipe:
                        pickle.dump(share, pipe, pickle.HIGHEST_PROTOCOL)
                finally:
                    os._exit(0)
            os.close(write_fd)
            children.append((pid, os.fdopen(read_fd, "rb")))
        shares = [_share(config, runs, workers, 0)]
        for _, pipe in children:
            try:
                shares.append(pickle.load(pipe))
            except (EOFError, pickle.UnpicklingError):
                raise SimulationError(
                    "a replication worker ended without sending its runs"
                ) from None
        done = True
    finally:
        for pid, pipe in children:
            pipe.close()
            if not done:
                os.kill(pid, 9)  # SIGKILL, without importing signal
            os.waitpid(pid, 0)
    failures = [
        (first + len(records) * workers, exc)
        for first, (records, exc) in enumerate(shares)
        if exc is not None
    ]
    if failures:
        raise min(failures)[1]  # run indices differ, so no exceptions are compared
    return [shares[k % workers][0][k // workers] for k in range(runs)]


def _run(config: SimConfig, run_index: int) -> MetricsRecord:
    params, spec = config.params, config.policy
    n = params.n_servers
    lam_total = params.lam * n
    horizon, warmup = config.horizon, config.warmup
    rngs = rng_streams(config.seed, run_index)
    next_arrival_gap = exponentials(rngs["arrivals"], 1.0 / lam_total).__next__
    next_service = exponentials(rngs["services"], 1.0).__next__
    rng_pol = WordDraws(raw_words(rngs["policy"]).__next__)
    uses_estimates = spec.uses_estimates
    t_up, s_up = math.inf, None  # the update clock and its server
    if uses_estimates:  # one word at a time, in step with exponential's reads
        upd = rngs["updates"]
        updates = schedule_updates(
            spec, params, WordDraws(upd.bit_generator.random_raw, upd.exponential))
        t_up, s_up = next(updates)

    view = DispatcherView(spec, n)
    queues = [0] * n
    waiting: list[deque[float]] = [deque() for _ in range(n)]

    departures: list[tuple[float, int, int]] = []  # (time, seq, server)
    heappush, heapreplace, heappop = heapq.heappush, heapq.heapreplace, heapq.heappop
    t_arr, seq = next_arrival_gap(), 0
    check = config.check_invariants

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
    # The time averages are folded in as each stretch of constant state
    # ends: area_queue since t_mark, the last queue change, and hist_area[j]
    # since level_since[j], the last change of level j.  Both are clipped
    # to the window, so they stay at warmup until an event passes it.
    t_mark = warmup
    level_since = [warmup]

    grid = config.grid_times()
    grid_left = [] if grid is None else grid.tolist()[::-1]  # next time last
    snaps: list[np.ndarray] = []
    clipped = 0.0
    jmax = config.snapshot_jmax

    def snapshot() -> None:
        nonlocal clipped
        q = np.fromiter(queues, np.int64, n)
        e = None if view.est is None else np.fromiter(view.est, np.int64, n)
        snaps.append(snapshot_fractions(q, e, jmax))
        high = q if e is None else np.maximum(q, e)
        clipped = max(clipped, np.count_nonzero(high > jmax) / n)

    # dispatch, on_assign, on_update, apply_global_update and on_idle are
    # looked up as module globals at each call, so that a tracer or a test
    # that patches them in this module sees every call.
    while True:  # ties go to departures, then the update, then the arrival
        t, kind = (t_up, UPDATE) if t_up <= t_arr else (t_arr, ARRIVAL)
        if departures and departures[0][0] <= t:
            (t, _, server), kind = departures[0], DEPARTURE
        if t > horizon:
            break
        while grid_left and grid_left[-1] < t:
            snapshot()
            grid_left.pop()

        if kind == ARRIVAL:
            target, msgs = dispatch(spec, view, queues, rng_pol)
            q_old = queues[target]
            q_new = q_old + 1
            if q_old == top:
                top = q_new
                if top == len(level_counts):
                    level_counts.append(0)
                    hist_area.append(0.0)
                    level_since.append(warmup)
            if t > warmup:
                n_arrivals_pw += 1
                messages_pw += msgs
                area_queue += total_queue * (t - t_mark)
                t_mark = t
                hist_area[q_old] += level_counts[q_old] * (t - level_since[q_old])
                hist_area[q_new] += level_counts[q_new] * (t - level_since[q_new])
                level_since[q_old] = level_since[q_new] = t
            queues[target] = q_new
            total_queue += 1
            level_counts[q_old] -= 1
            level_counts[q_new] += 1
            if uses_estimates:
                on_assign(view, target)
            if q_old:
                waiting[target].append(t)
            else:
                # Service starts on arrival: a zero wait.
                if t > warmup:
                    n_waits += 1
                heappush(departures, (t + next_service(), seq, target))
                seq += 1
            t_arr = t + next_arrival_gap()
        elif kind == DEPARTURE:
            q_old = queues[server]
            q_new = q_old - 1
            if t > warmup:
                area_queue += total_queue * (t - t_mark)
                t_mark = t
                hist_area[q_new] += level_counts[q_new] * (t - level_since[q_new])
                hist_area[q_old] += level_counts[q_old] * (t - level_since[q_old])
                level_since[q_new] = level_since[q_old] = t
            queues[server] = q_new
            total_queue -= 1
            level_counts[q_old] -= 1
            level_counts[q_new] += 1
            if q_old == top and not level_counts[q_old]:
                top = q_new
            if q_new:
                arrived = waiting[server].popleft()
                if arrived > warmup:
                    w = t - arrived
                    wait_sum += w
                    n_waits += 1
                    if w > 0.0:
                        n_positive += 1
                heapreplace(departures, (t + next_service(), seq, server))
                seq += 1
            else:
                heappop(departures)
                msgs = on_idle(spec, view, server, rng_pol)
                if t > warmup:
                    messages_pw += msgs
        else:  # UPDATE
            if s_up is None:
                msgs = apply_global_update(spec, view, queues)
            else:
                msgs = on_update(view, s_up, queues[s_up])
            if t > warmup:
                messages_pw += msgs
            t_up, s_up = next(updates)

        if check:
            assert min(queues) >= 0
            assert top == max(queues) and not any(level_counts[top + 1 :])
            assert level_counts[: top + 1] == np.bincount(queues).tolist()
            if view.est is not None:
                assert all(e >= q for e, q in zip(view.est, queues))
                view.check_index()
            assert sum(map(len, waiting)) == sum(q - 1 for q in queues if q)
            assert sorted(e[2] for e in departures) == np.flatnonzero(queues).tolist()

    area_queue += total_queue * (horizon - t_mark)
    for j, c in enumerate(level_counts):
        hist_area[j] += c * (horizon - level_since[j])
    for _ in grid_left:
        snapshot()

    if n_arrivals_pw == 0:
        raise SimulationError(
            "horizon too short: no arrivals observed after warmup"
        )

    window = (horizon - warmup) * n
    hist = np.array(hist_area) / window
    nz = np.nonzero(hist)[0]
    hist = hist[: int(nz[-1]) + 1] if nz.size else hist[:1]
    trajectory = None
    if grid is not None:
        trajectory = Trajectory(times=grid.copy(), y=np.asarray(snaps), clipped=clipped)
    return MetricsRecord(
        mean_wait=wait_sum / n_waits if n_waits else 0.0,
        msgs_per_job=messages_pw / n_arrivals_pw,
        mean_queue_per_server=area_queue / window,
        queue_len_hist=hist,
        frac_wait_positive=n_positive / n_waits if n_waits else 0.0,
        n_arrivals=n_arrivals_pw,
        n_waits=n_waits,
        trajectory=trajectory,
    )
