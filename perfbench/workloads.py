"""The benchmark's three workloads, one per scale of the model.

    sweep       finite N = 200: the Figure-1 trade-off over all ten policies
    mean-field  many servers: fluid limits, fixed points, N = 10000 transients
    small-n     N = 2: the exact chain against a long simulation

perfbench/run.py starts this file once per workload as a child process of its
own, so that peak RSS belongs to one workload:

    python3 perfbench/workloads.py --workload sweep --seed 1 --trace 0 \
        --t0 <time.monotonic() of the parent at spawn>

It prints one JSON line: set-up time, the records of its passes (wall time
as Ledger charges it, operations attempted and failed, check values), peak
RSS and, for --trace 1, the per-layer metrics of a traced pass.  An untraced
run makes one pass; a traced run makes an untraced baseline pass and the
traced one.  Every call into sparselb goes through Tracer.call, so a pass
is covered by layer and check spans.
"""
from __future__ import annotations

import argparse
import dataclasses
import importlib.metadata
import json
import math
import os
import platform
import resource
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import sparselb
from sparselb import ctmc, des, fixed_point, fluid_async, fluid_sync
from sparselb.model import FluidState, ModelParams, derive
from sparselb.policies import PolicyKind, PolicySpec

from reference import (
    LAPACK_REF_S, REF_S, WIDE_REF_S, WIDE_SERVERS, timed_lapack, timed_reference, timed_wide_reference,
)
from tracing import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
LAM = 0.7
# A probe of the host's speed follows any call that ends this long after
# the last probe; shorter calls share the probes around them.
PROBE_GAP_S = 0.1
# A call is scaled by the mean of the probes within this many seconds of
# it.  The speed flips within seconds, so the two probes at the ends of a
# call of seconds are a poor sample of its speed; the spells last minutes.
PROBE_WINDOW_S = 3.0
# Scaled by the LAPACK load, timed right before and after each call:
# dense solves, which the host's slow spells slow less than the
# interpreter-bound reference load.
LAPACK_BOUND = (ctmc.stationary,)


class CheckFailed(AssertionError):
    pass


class Ledger:
    """Operations of one pass, and the timing of its calls.

    An operation is one simulation call, one fluid integration, one chain,
    one round of the fixed-point grid, one first call or one check; a raise or
    a failed check is logged and never stops the operations after it.

    Every call into sparselb is timed under a label.  The calls under one
    label do the same kind of work on different inputs: replications of one
    simulation config with different seeds (work counted in simulated jobs),
    or deterministic calls on different states or parameters (work counted
    in calls), so a cache across calls cannot make a label cheaper.

    The host's shared cores run the same code at a fast speed or up to two
    times slower, in spells of seconds to minutes, so a whole pass can fall
    in a slow spell.  The ledger therefore times the fixed reference load of
    reference.py at the start, at the end, and after every call that ends
    PROBE_GAP_S or more after the last such probe.  Each call's time is
    scaled by REF_S over the mean of the probes within PROBE_WINDOW_S of it,
    the two right around it always among them: seconds of the reference
    host at its fast speed.  Simulations of WIDE_SERVERS servers are scaled
    the same way by the wide reference load, which a pass that runs them
    probes too (see widen).  The dense LAPACK solve of ctmc.stationary,
    which the slow spells slow less, is scaled by the LAPACK load of
    reference.py, timed right before and after it.  A label costs its work times the median of its calls' scaled times
    per unit of work.

    A pass opens with one small first call into each function it times: a
    cost paid once per process (a lazy import, a table built on first use)
    lands there, where the median over a label's calls would hide it.  A
    pass's wall time is the labels' cost plus the first calls plus the time
    in checks, all scaled."""

    def __init__(self, tracer: Tracer) -> None:
        self.tr = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.values: dict[str, object] = {}
        self.counts: dict[str, float] = {"des.jobs": 0}
        self.probes: list[float] = []  # seconds of the reference load, in order
        self.probe_times: list[float] = []  # the middle of each probe
        self.wide_probes: list[float] = []  # the same for the wide load, if widened
        self.wide_times: list[float] = []
        self.lapack_probes: list[float] = []  # seconds of the LAPACK load
        self.probe_s = 0.0  # time spent in probes, which no span covers
        self._last_probe = 0.0
        # [label or None, layer, function name, work, seconds, start, LAPACK
        # scale or None, wide]; label None for first calls and checks
        self.calls: list[list] = []
        # Set by close(): label -> [layer, function name, work, scaled
        # seconds per unit of work], and the scaled first-call and check time.
        self.costs: dict[str, list] = {}
        self.first_s = 0.0
        self.check_s = 0.0
        self.probe()

    def probe(self) -> None:
        start = time.perf_counter()
        self.probes.append(timed_reference())
        self._last_probe = time.perf_counter()
        self.probe_times.append(0.5 * (start + self._last_probe))
        if self.wide_times:
            self._wide_probe()
        self.probe_s += time.perf_counter() - start

    def _wide_probe(self) -> None:
        start = time.perf_counter()
        self.wide_probes.append(timed_wide_reference())
        self._last_probe = time.perf_counter()
        self.wide_times.append(0.5 * (start + self._last_probe))

    def widen(self) -> None:
        """Probe the wide reference load from now on, with every probe."""
        start = time.perf_counter()
        self._wide_probe()
        self.probe_s += time.perf_counter() - start

    def lapack_probe(self) -> float:
        start = time.perf_counter()
        self.lapack_probes.append(timed_lapack())
        self.probe_s += time.perf_counter() - start
        return self.lapack_probes[-1]

    def _record(self, label, layer: str, name: str, work: float, start: float, seconds: float,
                scale=None, wide: bool = False) -> None:
        self.calls.append([label, layer, name, work, seconds, start, scale, wide])
        if time.perf_counter() - self._last_probe >= PROBE_GAP_S:
            self.probe()

    @contextmanager
    def op(self, name: str):
        self.attempted += 1
        try:
            with self.tr.span("op", "op", name):
                yield
        except Exception as exc:
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)

    def check(self, name: str, fn) -> None:
        """fn returns (passed, value); the value is reported either way."""
        with self.op(name):
            start = time.perf_counter()
            try:
                with self.tr.span("check", "check", name):
                    passed, value = fn()
            finally:
                self._record(None, "check", name, 1, start, time.perf_counter() - start)
            self.values[name] = value
            if not passed:
                raise CheckFailed(f"{value}")

    def first(self, layer: str, fn, *args, **kwargs):
        """A small first call into fn, as one operation; None if it raised."""
        with self.op(f"first call {layer}.{fn.__name__}"):
            start = time.perf_counter()
            try:
                return self.tr.call(layer, fn, *args, **kwargs)
            finally:
                self._record(None, layer, fn.__name__, 1, start, time.perf_counter() - start)

    def timed(self, label: str, layer: str, work, fn, *args, wide: bool = False, **kwargs):
        """One call under a label; work is a number, or a function of the
        result that gives it.  wide: scale by the wide reference load."""
        lapack = fn in LAPACK_BOUND
        before = self.lapack_probe() if lapack else None
        start = time.perf_counter()
        result = self.tr.call(layer, fn, *args, **kwargs)
        seconds = time.perf_counter() - start
        scale = LAPACK_REF_S / (0.5 * (before + self.lapack_probe())) if lapack else None
        if callable(work):
            work = work(result)
        self._record(label, layer, fn.__name__, work, start, seconds, scale, wide)
        return result

    def simulate(self, label: str, config: des.SimConfig, runs: int) -> des.MetricsRecord:
        """One call to des.run_replications; its work is the simulated jobs."""
        rec = self.timed(
            label, "des", lambda r: r.n_arrivals, des.run_replications, config, runs,
            wide=config.params.n_servers >= WIDE_SERVERS,
        )
        self.counts["des.jobs"] += rec.n_arrivals
        return rec

    def call(self, label: str, layer: str, fn, *args, **kwargs):
        """A deterministic call; its work is one call."""
        return self.timed(label, layer, 1, fn, *args, **kwargs)

    def close(self) -> None:
        """Take the last probe and charge every call."""
        self.probe()
        narrow = np.array(self.probe_times), np.array(self.probes), REF_S
        wide = np.array(self.wide_times), np.array(self.wide_probes), WIDE_REF_S
        per_unit: dict[str, list[float]] = {}
        for label, layer, name, work, seconds, start, scale, is_wide in self.calls:
            if scale is None:
                times, refs, ref_s = wide if is_wide else narrow
                end = start + seconds
                # The last probe before the call and the first after it.
                lo = np.searchsorted(times, start) - 1
                hi = np.searchsorted(times, end) + 1
                lo = min(lo, np.searchsorted(times, start - PROBE_WINDOW_S))
                hi = max(hi, np.searchsorted(times, end + PROBE_WINDOW_S))
                scale = ref_s / refs[lo:hi].mean()
            seconds *= scale
            if label is None:
                if layer == "check":
                    self.check_s += seconds
                else:
                    self.first_s += seconds
                continue
            cost = self.costs.setdefault(label, [layer, name, 0, 0.0])
            cost[2] += work
            per_unit.setdefault(label, []).append(seconds / work)
        for label, times in per_unit.items():
            self.costs[label][3] = float(np.median(times))

    def cost(self, layers=None, names=None) -> float:
        return sum(
            work * per_unit
            for layer, name, work, per_unit in self.costs.values()
            if (layers is None or layer in layers) and (names is None or name in names)
        )

    def add_count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value


def first_simulations(led: Ledger, specs, **extra) -> None:
    """First calls into des: a short run at N = 8 for each policy."""
    for spec in specs:
        params = ModelParams(n_servers=8, lam=LAM, delta=spec.delta)
        config = des.SimConfig(params=params, policy=spec, horizon=5.0, warmup=1.0, seed=0, **extra)
        led.first("des", des.run_replications, config, 1)


def runs_of(recs: list[des.MetricsRecord]) -> list[des.MetricsRecord]:
    """The single replications inside records of des.run_replications."""
    return [r for rec in recs for r in (rec.per_run or [rec])]


def mean_over(runs: list[des.MetricsRecord], field: str) -> float:
    """Mean of a per-replication metric, as des.run_replications takes it."""
    return float(np.mean([getattr(r, field) for r in runs]))


def t_halfwidth(samples: list[float]) -> float:
    """Half-width of the 95% Student-t interval for the mean of samples."""
    # Imported here, not at start-up, so that set-up time is mostly
    # sparselb's own (scipy.stats alone would add 1.4 s to it).
    from scipy.special import stdtrit

    n = len(samples)
    return float(stdtrit(n - 1, 0.975) * np.std(samples, ddof=1) / math.sqrt(n))


def seeds_for(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


# -- sweep ------------------------------------------------------------------

SWEEP_N = 200
ESTIMATE_KINDS = ("sujsq-det", "sujsq-exp", "aujsq-det", "aujsq-exp", "sujsq-det-idle")
# 0.21 is criterion 12's update rate (0.3 messages per job for the update
# kinds); lam/(1-lam) is its idle-variant rate, where the idle kind sends
# about one message per job and the update kinds 3.3.
SWEEP_DELTAS = (0.21, LAM / (1.0 - LAM))
IDLE_POINT = str(PolicySpec(PolicyKind.SUJSQ_DET_IDLE, delta=SWEEP_DELTAS[1]))
# Every point is simulated in SWEEP_CALLS calls to des.run_replications,
# one per round, so that each point is timed at different moments of the
# pass.  (replications per call, horizon, warmup) per point.  The
# criterion-12 pair needs at least twelve replications in all for its
# Student-t intervals to separate: with ten, over six seeds, the gap between
# them exceeded the two half-widths by only 0.03 to 0.07.  The idle point needs
# 600 time units after warmup in all for its messages per job to stay within
# 0.1 of one (225 gave 1.03 to 1.11).  random and round-robin are checked
# against stationary waits, and a server started empty at load 0.7 takes
# about 40 time units to relax, so they get a long warmup; they are the
# cheapest kinds per job.  sujsq-exp:0.21 has one global update event per
# 1/0.21 time units: 2000 time units after warmup give about 420 events,
# whose Poisson count has five standard deviations at 0.24 of its mean.
SWEEP_CALLS = 8
SWEEP_DEFAULT = (1, 25.0, 5.0)
SWEEP_SIZE = {
    "sujsq-det:0.21": (2, 100.0, 25.0),
    "sujsq-exp:0.21": (2, 150.0, 25.0),
    "jiq-p:0.7": (2, 100.0, 25.0),
    IDLE_POINT: (1, 100.0, 25.0),
    "random": (1, 175.0, 100.0),
    "round-robin": (1, 175.0, 100.0),
}
# Relative band for the random and round-robin waits.  Over ten seeds, with
# 300 time units after warmup in all, the relative error had mean -0.041
# and sd 0.036 (random) and mean -0.016 and sd 0.048 (round-robin); 600 time
# units cut the sd by sqrt(2), so the bias plus five sd stays under 0.2.
STATIONARY_WAIT_BAND = 0.2
# kind -> messages per update event: a global event polls every server, a
# per-server event is one report.
UPDATE_KINDS = {
    PolicyKind.SUJSQ_DET: SWEEP_N,
    PolicyKind.SUJSQ_EXP: SWEEP_N,
    PolicyKind.AUJSQ_DET: 1,
    PolicyKind.AUJSQ_EXP: 1,
}


def erlang_k_m1_wait(k: int, lam: float) -> float:
    """Mean wait in queue of the E_k/M/1 queue with arrival rate lam and unit
    service: W = s/(1-s), s the root in (0,1) of s = (k lam/(k lam + 1 - s))^k.
    Round-robin over N servers gives each one an E_N/M/1 queue.  Iterating
    the map from 0 climbs monotonically to that root."""
    s = 0.0
    for _ in range(10000):
        nxt = (k * lam / (k * lam + 1.0 - s)) ** k
        if abs(nxt - s) < 1e-15:
            break
        s = nxt
    return s / (1.0 - s)


def sweep_inputs(seed: int) -> list[tuple[str, list[des.SimConfig], int]]:
    """(label, one simulation config per call, replications per call) for
    each of the 15 points."""
    specs = [
        PolicySpec(PolicyKind(kind), delta=delta)
        for kind in ESTIMATE_KINDS
        for delta in SWEEP_DELTAS
    ]
    specs += [PolicySpec.parse(t) for t in ("jiq", "jiq-p:0.7", "jsq-d:2", "random", "round-robin")]
    call_seeds = iter(seeds_for(seed, len(specs) * SWEEP_CALLS))
    points = []
    for spec in specs:
        reps, horizon, warmup = SWEEP_SIZE.get(str(spec), SWEEP_DEFAULT)
        params = ModelParams(n_servers=SWEEP_N, lam=LAM, delta=spec.delta)
        cfgs = [
            des.SimConfig(params=params, policy=spec, horizon=horizon, warmup=warmup, seed=next(call_seeds))
            for _ in range(SWEEP_CALLS)
        ]
        points.append((str(spec), cfgs, reps))
    return points


def budget_check(spec: PolicySpec, runs: list[des.MetricsRecord], window: float):
    """Messages per job against the policy's budget; window is the time
    after warmup of each replication."""
    m = mean_over(runs, "msgs_per_job")
    kind = spec.kind
    if kind in UPDATE_KINDS:
        # Messages of each replication, from its post-warmup counts.
        msgs = [round(r.msgs_per_job * r.n_arrivals) for r in runs]
        expected = SWEEP_N * spec.delta * window
        if kind in (PolicyKind.SUJSQ_DET, PolicyKind.AUJSQ_DET):
            # Deterministic clocks of period 1/delta, one global or one per
            # server: each ticks delta * window times in the window, within
            # one tick, so every replication is within N messages.
            worst = max(abs(x - expected) for x in msgs)
            return worst <= SWEEP_N, {
                "msgs_per_job": m, "target": spec.delta / LAM,
                "worst_msgs_off": worst, "at_most": SWEEP_N,
            }
        # Poisson clocks: the events of all replications are a Poisson count;
        # within five standard deviations of its mean.
        per_event = UPDATE_KINDS[kind]
        events = sum(msgs) / per_event
        mean = len(runs) * expected / per_event
        rel = abs(events / mean - 1.0)
        tol = 5.0 / math.sqrt(mean)
        return rel <= tol, {
            "msgs_per_job": m, "target": spec.delta / LAM, "events": events,
            "rel": rel, "rel_tol": tol,
        }
    if kind is PolicyKind.SUJSQ_DET_IDLE:
        return m <= spec.delta / LAM, {"msgs_per_job": m, "at_most": spec.delta / LAM}
    if kind is PolicyKind.JSQ_D:
        return m == 2 * spec.d, {"msgs_per_job": m, "exactly": 2 * spec.d}
    if kind is PolicyKind.JIQ:
        # One token per idle event.  Each idle event in the window needs an
        # arrival in the window, except the first of each server busy when
        # the window opens, so per replication messages <= arrivals + N.
        worst = max(r.msgs_per_job - SWEEP_N / r.n_arrivals for r in runs)
        return worst <= 1.0, {"msgs_per_job": m, "worst_minus_n_over_jobs": worst, "at_most": 1.0}
    if kind is PolicyKind.JIQ_P:
        return m <= spec.p + 1e-9, {"msgs_per_job": m, "at_most": spec.p}
    return m == 0.0, {"msgs_per_job": m, "exactly": 0.0}


def sweep_pass(led: Ledger, inputs) -> None:
    first_simulations(led, {cfgs[0].policy.kind: cfgs[0].policy for _, cfgs, _ in inputs}.values())
    recs: dict[str, list[des.MetricsRecord]] = {name: [] for name, _, _ in inputs}
    for k in range(SWEEP_CALLS):
        for name, cfgs, reps in inputs:
            with led.op(f"point {name} call {k}"):
                recs[name].append(led.simulate(name, cfgs[k], reps))
    runs = {name: runs_of(r) for name, r in recs.items()}
    for name, cfgs, _ in inputs:
        cfg = cfgs[0]
        led.check(
            f"budget {name}",
            lambda: budget_check(cfg.policy, runs[name], cfg.horizon - cfg.warmup),
        )

    def stationary_wait(name, exact):
        def check():
            wait = mean_over(runs[name], "mean_wait")
            rel = abs(wait / exact - 1.0)
            return rel <= STATIONARY_WAIT_BAND, {"mean_wait": wait, "exact": exact, "rel": rel}
        return check

    def ordering():
        # Criterion 12 at the sweep's sizes: at matched sparse feedback the
        # update scheme beats idle tokens by more than both t intervals, and
        # the idle variant reaches near-zero wait at about one message per job.
        upd, tok, idle = runs["sujsq-det:0.21"], runs["jiq-p:0.7"], runs[IDLE_POINT]
        (w_u, m_u), (w_t, m_t), (w_i, m_i) = (
            (mean_over(r, "mean_wait"), mean_over(r, "msgs_per_job")) for r in (upd, tok, idle)
        )
        hw_u = t_halfwidth([r.mean_wait for r in upd])
        hw_t = t_halfwidth([r.mean_wait for r in tok])
        matched = m_u < 0.5 and m_t < 0.5 and m_t >= m_u
        separated = w_u + hw_u < w_t - hw_t
        idle_ok = w_i < 0.1 and abs(m_i - 1.0) < 0.1
        return matched and separated and idle_ok, {
            "update": [w_u, hw_u, m_u],
            "tokens": [w_t, hw_t, m_t],
            "idle": [w_i, m_i],
        }

    # Random splitting makes each server an M/M/1 queue.
    led.check("random M/M/1 wait", stationary_wait("random", LAM / (1.0 - LAM)))
    led.check("round-robin E_N/M/1 wait", stationary_wait("round-robin", erlang_k_m1_wait(SWEEP_N, LAM)))
    led.check("criterion-12 ordering", ordering)


# -- mean-field ---------------------------------------------------------------

MF_N = 10000
MF_DELTA = 0.85
MF_T = 10.0
MF_JMAX = 40
MF_GRID = np.arange(0.05, MF_T, 0.1)
# One replication at N = 10000 peaked at 0.042 of the 0.05 bound over eight
# seeds; the mean of three keeps the check from failing by chance.  Each
# round runs one replication per policy, then its share of the pieces of
# the async integrations (see Pieces) and of the fixed-point sweeps, so
# that every kind of call is timed at several moments of the pass.  The
# sync integration is one call in each round of MF_SYNC_DELTAS: in pieces,
# the quadratic merge of its 2001 store times would shrink from 0.16 s to
# 0.02 s.  Only the delta = 0.85 run is compared with the DES.
MF_ROUNDS = 3
MF_SYNC_DELTAS = {0: MF_DELTA, 2: MF_DELTA + 0.01}  # round -> delta
# Async from empty at dt = 0.01 is within 4e-5 of y_star by t = 60.
MF_CONVERGE_T = 60.0
MF_GAP_TOL = 1e-4
# The t = 10 async run (dt = 1e-3) and the t = 60 run (dt = 0.01) agreed
# within 6e-9 at t = 9.95.
MF_STEP_TOL = 1e-6
# Where the pieces of the async integrations end: at every tenth point of
# MF_GRID for the run to t = 10, every 5 time units for the run to
# convergence, all on the step grid of one call.  About 0.1 to 0.3 s each.
ASYNC_BOUNDS = [0.0, *MF_GRID[9::10], MF_T]
CONVERGE_BOUNDS = list(np.arange(0.0, MF_CONVERGE_T + 1.0, 5.0))
FP_GRID = [(lam, delta) for lam in (0.3, 0.5, 0.7, 0.9) for delta in (0.3, 0.85, 2.5)]
# Grid sweeps per round (a solve takes about 200 us); sweep k scales every
# delta by 1 + FP_SHIFT * k, so no two calls repeat their arguments.
FP_SWEEPS = 5
FP_SHIFT = 1e-3


class Pieces:
    """One async integration from y0 to bounds[-1], made as one call per
    piece between consecutive bounds, each from the state the one before
    ended in; the states stored are the same as one call's.  Calls of a few
    tenths of a second are each scaled by the speed probes next to them,
    where one call of seconds would span changes of the host's speed.  A
    piece's work is its length in time units."""

    def __init__(self, label: str, y0, bounds, store_times, **kwargs):
        self.label, self.kwargs = label, kwargs
        self.y, self.bounds, self.store = y0, list(bounds), np.asarray(store_times)
        self.runs: list[tuple[float, object]] = []  # (start time, run of a piece)
        self.failed = False

    def advance(self, led: Ledger, share: float) -> None:
        """Make the pieces up to this share of all of them."""
        while not self.failed and len(self.runs) < round(share * (len(self.bounds) - 1)):
            a, b = self.bounds[len(self.runs)], self.bounds[len(self.runs) + 1]
            inside = self.store[(self.store > a) & (self.store < b)] - a
            self.failed = True
            with led.op(f"{self.label} piece {len(self.runs)}"):
                run = led.timed(
                    self.label, "fluid_async", b - a, fluid_async.integrate_async,
                    self.y, LAM, MF_DELTA, b - a, store_times=inside, **self.kwargs,
                )
                self.runs.append((a, run))
                self.y, self.failed = run.states[-1], False

    def run(self):
        """The pieces joined into the run one call would return."""
        if self.failed or len(self.runs) < len(self.bounds) - 1:
            raise CheckFailed(f"{self.label} did not complete")
        first = self.runs[0][1]
        return dataclasses.replace(
            first,
            times=np.concatenate([first.times[:1]] + [a + r.times[1:] for a, r in self.runs]),
            states=np.concatenate([first.states[:1]] + [r.states[1:] for _, r in self.runs]),
            clamped=max(r.clamped for _, r in self.runs),
        )


def sup_distance(traj_y: np.ndarray, times: np.ndarray, states: np.ndarray) -> float:
    """Largest gap over v0..v2 and w0..w2 between simulated snapshots on
    MF_GRID and the fluid states stored at the same times."""
    by_time = {round(float(t), 9): y for t, y in zip(times, states)}
    worst = 0.0
    for k, t in enumerate(MF_GRID):
        d_sim = derive(traj_y[k])
        d_fl = derive(by_time[round(float(t), 9)])
        worst = max(
            worst,
            float(np.abs(d_sim.v[:3] - d_fl.v[:3]).max()),
            float(np.abs(d_sim.w[:3] - d_fl.w[:3]).max()),
        )
    return worst


def mean_field_inputs(seed: int) -> dict:
    sims = {}
    run_seeds = iter(seeds_for(seed, 2 * MF_ROUNDS))
    for text in ("sujsq-det:0.85", "aujsq-exp:0.85"):
        spec = PolicySpec.parse(text)
        sims[text] = [
            des.SimConfig(
                params=ModelParams(n_servers=MF_N, lam=LAM, delta=MF_DELTA),
                policy=spec,
                horizon=MF_T,
                warmup=0.0,
                seed=next(run_seeds),
                trajectory_grid=MF_GRID,
                snapshot_jmax=MF_JMAX,
            )
            for _ in range(MF_ROUNDS)
        ]
    return {"sims": sims, "y0": FluidState.empty(MF_JMAX)}


def mean_field_pass(led: Ledger, inputs) -> None:
    y0, sims = inputs["y0"], inputs["sims"]
    led.widen()  # for the simulations at N = MF_N
    first_simulations(
        led, [cfgs[0].policy for cfgs in sims.values()],
        trajectory_grid=np.array([0.5, 1.5]), snapshot_jmax=MF_JMAX,
    )
    led.first("fluid_sync", fluid_sync.integrate_sync, y0, LAM, MF_DELTA, 0.1)
    led.first("fluid_async", fluid_async.integrate_async, y0, LAM, MF_DELTA, 0.1)
    led.first("fixed_point", fixed_point.y_star, 0.5, 1.0)
    led.first("fixed_point", fixed_point.m_star_det, 0.5, 1.0)

    fluid = {
        "async": Pieces("integrate_async", y0, ASYNC_BOUNDS, MF_GRID),
        "converge": Pieces("integrate_async to convergence", y0, CONVERGE_BOUNDS, [MF_GRID[-1]], dt=0.01),
    }
    sync = {}  # delta -> run
    recs = {text: [] for text in sims}
    levels = []  # (lam, delta, m_star_det) of every fixed-point solve
    for r in range(MF_ROUNDS):
        for text, cfgs in sims.items():
            with led.op(f"simulate {text} N={MF_N} round {r}"):
                recs[text].append(led.simulate(text, cfgs[r], 1))
        if r in MF_SYNC_DELTAS:
            delta = MF_SYNC_DELTAS[r]
            with led.op(f"integrate_sync delta={delta:g}"):
                # The dense store grid keeps the trapezoid balance check
                # exact enough; it contains every point of MF_GRID.
                sync[delta] = led.call(
                    "integrate_sync", "fluid_sync", fluid_sync.integrate_sync, y0, LAM, delta, MF_T,
                    store_times=np.linspace(0.0, MF_T, 2001),
                )
        for pieces in fluid.values():
            pieces.advance(led, (r + 1) / MF_ROUNDS)
        with led.op(f"fixed-point grid round {r}"):
            for k in range(r * FP_SWEEPS, (r + 1) * FP_SWEEPS):
                scale = 1.0 + FP_SHIFT * k
                for lam, d in FP_GRID:
                    led.call(f"y_star {lam} {d}", "fixed_point", fixed_point.y_star, lam, d * scale)
                    level = led.call(
                        f"m_star_det {lam} {d}", "fixed_point", fixed_point.m_star_det, lam, d * scale
                    )
                    levels.append((lam, d * scale, level))
    fixed = {}
    with led.op("y_star at jmax"):
        fixed["y_star"] = led.call(
            "y_star jmax", "fixed_point", fixed_point.y_star, LAM, MF_DELTA, jmax=MF_JMAX
        )

    def sup(text, result):
        def check():
            run = result()
            traj = np.mean([rec.trajectory.y for rec in recs[text]], axis=0)
            dist = sup_distance(traj, run.times, run.states)
            return dist <= 0.05, {"sup_distance": dist}
        return check

    def at(run, t):
        return run.states[int(np.argmin(np.abs(run.times - t)))]

    def gap():
        dist = float(np.abs(fluid["converge"].run().final() - fixed["y_star"].y_star.y).max())
        return dist <= MF_GAP_TOL, {"gap": dist, "t": MF_CONVERGE_T}

    def step_sizes():
        t = MF_GRID[-1]
        dist = float(np.abs(at(fluid["async"].run(), t) - at(fluid["converge"].run(), t)).max())
        return dist <= MF_STEP_TOL, {"max_diff": dist, "t": float(t)}

    def invariants(delta):
        def check():
            report = fluid_sync.check_trajectory_invariants(sync[delta])
            return report.passed, {k: float(v) for k, v in report.residuals.items()}
        return check

    def det_levels():
        bad = [p for p in levels if p[2] > fixed_point.m_star(p[0], p[1])]
        return not bad, {"violations": len(bad), "points": len(levels)}

    led.check("sync vs DES sup distance", sup("sujsq-det:0.85", lambda: sync[MF_DELTA]))
    led.check("async vs DES sup distance", sup("aujsq-exp:0.85", fluid["async"].run))
    led.check("async gap to y_star", gap)
    led.check("async step sizes agree", step_sizes)
    for delta in MF_SYNC_DELTAS.values():
        led.check(f"sync trajectory invariants delta={delta:g}", invariants(delta))
    led.check("m_star_det <= m_star", det_levels)


# -- small-n --------------------------------------------------------------------

SN_CAP = 14
SN_DELTA = 0.85
SN_KINDS = ("aujsq-exp", "sujsq-exp")
# Each kind is simulated in SN_ROUNDS replications of SN_HORIZON, the first
# tenth of it warmup, one per round.  Each chain is built and solved once:
# a solve takes about 5.5 s.
SN_ROUNDS = 8
SN_HORIZON = 15000.0
# Over ten seeds with 108000 time units after warmup in all, the TV
# distance stayed within 0.0022 to 0.0089, and the relative wait error had
# sd 0.017 (mean +0.015 for sujsq-exp); the wait band is that bias plus five
# sd.  The truncation loss is deterministic: 7e-5 (aujsq) and 1.3e-4
# (sujsq) at cap 14.
SN_TV_TOL = 0.02
SN_WAIT_TOL = 0.1
SN_LOSS_TOL = 1e-3


def nonzeros(matrix) -> int:
    return int(matrix.nnz if hasattr(matrix, "nnz") else np.count_nonzero(matrix))


def stored_bytes(matrix) -> int:
    """Bytes of the generator's arrays, dense or scipy.sparse."""
    if isinstance(matrix, np.ndarray):
        return matrix.nbytes
    return sum(getattr(matrix, a).nbytes for a in ("data", "indices", "indptr", "row", "col", "offsets") if hasattr(matrix, a))


def small_n_inputs(seed: int) -> dict:
    """kind -> one simulation config per round."""
    params = ModelParams(n_servers=2, lam=LAM, delta=SN_DELTA)
    out = {}
    run_seeds = iter(seeds_for(seed, len(SN_KINDS) * SN_ROUNDS))
    for kind in SN_KINDS:
        spec = PolicySpec.parse(f"{kind}:{SN_DELTA}")
        out[kind] = [
            des.SimConfig(
                params=params, policy=spec, horizon=SN_HORIZON, warmup=0.1 * SN_HORIZON,
                seed=next(run_seeds),
            )
            for _ in range(SN_ROUNDS)
        ]
    return out


def chain_op(led: Ledger, kind: str, params: ModelParams, spec: PolicySpec) -> dict:
    """Build and solve one chain, reduced to what the checks need before
    the next one is built: the dense generator alone takes 422 MB."""
    chain = led.call(f"build {kind}", "ctmc", ctmc.build_generator, params, spec, SN_CAP)
    pi = led.call(f"stationary {kind}", "ctmc", ctmc.stationary, chain)
    return {
        "marginal": led.call(f"queue_marginal {kind}", "ctmc", ctmc.queue_marginal, chain, pi),
        "wait": led.call(f"oracle_metrics {kind}", "ctmc", ctmc.oracle_metrics, chain, pi)[1],
        "loss": led.call(f"truncation_loss {kind}", "ctmc", ctmc.truncation_loss, chain, pi),
        "counts": {
            "ctmc.states": chain.n_states,
            "ctmc.nnz": nonzeros(chain.generator),
            "ctmc.generator_mb_computed": stored_bytes(chain.generator) / 1e6,
        },
    }


def small_n_pass(led: Ledger, inputs) -> None:
    first_simulations(led, [sims[0].policy for sims in inputs.values()])
    # A small chain at cap 2 for the first calls into ctmc.
    params = ModelParams(n_servers=2, lam=LAM, delta=1.0)
    chain = led.first("ctmc", ctmc.build_generator, params, PolicySpec.parse(f"{SN_KINDS[0]}:1.0"), 2)
    pi = led.first("ctmc", ctmc.stationary, chain)
    for fn in (ctmc.queue_marginal, ctmc.oracle_metrics, ctmc.truncation_loss):
        led.first("ctmc", fn, chain, pi)

    res = {}
    for kind, sims in inputs.items():
        with led.op(f"chain {kind} N=2 cap={SN_CAP}"):
            res[kind] = chain_op(led, kind, sims[0].params, sims[0].policy)
            for name, value in res[kind]["counts"].items():
                led.add_count(name, value)
    recs = {kind: [] for kind in inputs}
    for r in range(SN_ROUNDS):
        for kind, sims in inputs.items():
            with led.op(f"simulate {kind} N=2 round {r}"):
                recs[kind].append(led.simulate(kind, sims[r], 1))

    for kind in inputs:
        out = res.get(kind, {})

        def tv():
            marginal, hists = out["marginal"], [r.queue_len_hist for r in recs[kind]]
            size = max(len(marginal), *(len(h) for h in hists))
            a, b = np.zeros(size), np.zeros(size)
            a[: len(marginal)] = marginal
            for h in hists:
                b[: len(h)] += h / len(hists)
            dist = float(0.5 * np.abs(a - b).sum())
            return dist <= SN_TV_TOL, {"tv": dist}

        def wait():
            sim = mean_over(recs[kind], "mean_wait")
            rel = abs(sim / out["wait"] - 1.0)
            return rel <= SN_WAIT_TOL, {"sim": sim, "exact": out["wait"], "rel": rel}

        def loss():
            return out["loss"] <= SN_LOSS_TOL, {"truncation_loss": out["loss"]}

        led.check(f"{kind} TV distance", tv)
        led.check(f"{kind} relative wait", wait)
        led.check(f"{kind} truncation loss", loss)


WORKLOADS = {
    "sweep": (sweep_inputs, sweep_pass),
    "mean-field": (mean_field_inputs, mean_field_pass),
    "small-n": (small_n_inputs, small_n_pass),
}


# -- passes ------------------------------------------------------------------------

def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def run_pass(pass_fn, inputs, tracer: Tracer) -> tuple[dict, Ledger]:
    start = time.perf_counter()
    led = Ledger(tracer)  # takes the first speed probe
    pass_fn(led, inputs)
    led.close()
    # The probes are the benchmark's own work, and no span covers them.
    elapsed = time.perf_counter() - start - led.probe_s
    record = {
        "wall_s": led.cost() + led.first_s + led.check_s,
        "elapsed_s": elapsed,
        "probes": {
            "count": len(led.probes),
            "seconds": led.probe_s,
            "reference_s": [min(led.probes), float(np.median(led.probes)), max(led.probes)],
            "wide_s": [min(w), float(np.median(w)), max(w)] if (w := led.wide_probes) else [],
            "lapack_s": led.lapack_probes,
        },
        "covered_s": tracer.covered(),
        "des_s": led.cost({"des"}),
        "fluid_s": led.cost({"fluid_sync", "fluid_async"}),
        "chain_s": led.cost({"ctmc"}, {"build_generator", "stationary"}),
        "jobs": led.counts["des.jobs"],
        "attempted": led.attempted,
        "failed": len(led.failures),
        "failures": led.failures,
        "checks": led.values,
        "jobs_per_s": {
            label: 1.0 / per_unit for label, (layer, _, _, per_unit) in led.costs.items() if layer == "des"
        },
    }
    return record, led


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    src = (ROOT / "src").resolve()
    if src not in Path(sparselb.__file__).resolve().parents:
        print(f"sparselb was imported from {sparselb.__file__}, not {src}", file=sys.stderr)
        return 2
    make_inputs, pass_fn = WORKLOADS[args.workload]
    inputs = make_inputs(args.seed)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    out = {"setup_s": setup_s, "env": environment()}
    if args.trace:
        # An untraced pass as the baseline, then the traced pass; both
        # are checked.
        baseline, _ = run_pass(pass_fn, inputs, Tracer())
        tracer = Tracer()
        tracer.install()
        try:
            record, led = run_pass(pass_fn, inputs, tracer)
        finally:
            tracer.uninstall()
        out["layers"] = layer_metrics(tracer, led.counts)
        # Scaled wall time, so that a change of the host's speed between
        # the two passes does not read as overhead.
        out["layers"]["trace.overhead_share"] = record["wall_s"] / baseline["wall_s"] - 1.0
        out["layers"]["trace.coverage"] = record["covered_s"] / record["elapsed_s"]
        trace_out = ROOT / "perfbench" / "out" / f"trace-{args.workload}-{args.seed}.json"
        trace_out.parent.mkdir(exist_ok=True)
        trace_out.write_text(json.dumps(tracer.dump()))
        out["passes"] = [baseline, record]
    else:
        out["passes"] = [run_pass(pass_fn, inputs, Tracer())[0]]
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
