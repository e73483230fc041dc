"""Fixed reference loads, timed next to the workload to gauge the host's speed.

The reference host's cores are shared, and the same code runs at a fast
speed or up to two times slower, in spells of seconds to minutes.  A whole
run can fall inside one slow spell, so no rule over the calls of one run
(fastest, median) removes it.  So the benchmark times loads of the same
kind as the work it measures, next to it, and charges that work in seconds
of the reference host at its fast speed: a time t measured when a load
takes r is charged as t * R / r, R being the load's time at the fast speed.
None of the loads uses sparselb, so no change to the program can change
their time.

- reference_load (R = REF_S): a small event loop of the simulator's kind, a
  heap of events, numpy random draws and an argmin over 64 queues.  It
  scales every call into sparselb but those below.
- the same loop over 10000 queues (R = WIDE_REF_S), for simulations of
  10000 servers, whose dispatch scans arrays of that size and follows the
  spells less closely than the small loop does.
- a dense LU solve (R = LAPACK_REF_S), for the LAPACK solve of
  ctmc.stationary, which the slow spells slow less than the interpreter.
- the start of a Python process that imports numpy (R = START_REF_S), for
  set-up time, which is process start and imports.

Measured on the reference host (2 shared vCPUs of an Intel Xeon at
2.0 GHz): over five minutes, the fastest simulator time per job of
10-round groups (N = 200) spread by 0.31 of its median (interquartile
range), and by 0.05 to 0.07 once divided by the event loop's time in the
same rounds; over two minutes, medians of nine set-up times spread by
0.18, and by 0.024 once divided by the bare starts around them.
"""
from __future__ import annotations

import heapq
import subprocess
import sys
import time

import numpy as np

# The event loop's fastest time on the reference host at its fast speed;
# timed_reference takes the fastest of REF_REPEATS, about 0.015 s in all.
REF_S = 0.0070
REF_EVENTS = 1500
REF_SERVERS = 64
REF_REPEATS = 2
# The same loop over WIDE_SERVERS queues, for simulations of as many
# servers, whose dispatch scans arrays of that size.
WIDE_REF_S = 0.0087
WIDE_EVENTS = 400
WIDE_SERVERS = 10000
# The same for a dense solve of LAPACK_N equations, with the BLAS threads
# the workload has.
LAPACK_REF_S = 0.066
LAPACK_N = 1500
# The same for the start of a Python process that imports numpy.
START_REF_S = 0.18


def reference_load(servers: int = REF_SERVERS, events: int = REF_EVENTS) -> int:
    """Join-the-shortest-queue over servers queues for events events;
    returns the jobs served, which is always the same."""
    rng = np.random.default_rng(12345)
    queues = np.zeros(servers, dtype=np.int64)
    heap = [(float(rng.exponential(1.0)), 0, -1)]
    served = seq = 0
    for _ in range(events):
        t, _, server = heapq.heappop(heap)
        seq += 1
        if server < 0:
            lowest = np.flatnonzero(queues == queues.min())
            target = int(lowest[rng.integers(len(lowest))])
            queues[target] += 1
            heapq.heappush(heap, (t + float(rng.exponential(1.0 / (0.7 * servers))), seq, -1))
            if queues[target] == 1:
                heapq.heappush(heap, (t + float(rng.exponential(1.0)), seq, target))
        else:
            queues[server] -= 1
            served += 1
            if queues[server]:
                heapq.heappush(heap, (t + float(rng.exponential(1.0)), seq, server))
    return served


def _fastest(load, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        load()
        best = min(best, time.perf_counter() - start)
    return best


def timed_reference() -> float:
    """Seconds of the reference load now: the fastest of REF_REPEATS."""
    return _fastest(reference_load, REF_REPEATS)


def timed_wide_reference() -> float:
    """Seconds of the wide reference load now: the fastest of REF_REPEATS."""
    return _fastest(lambda: reference_load(WIDE_SERVERS, WIDE_EVENTS), REF_REPEATS)


def timed_lapack() -> float:
    """Seconds of a dense LU solve of LAPACK_N equations, as in
    ctmc.stationary, now: the fastest of REF_REPEATS, after one untimed
    solve that wakes the BLAS threads.  The system is made afresh and
    dropped after, so that it adds nothing to a workload's peak memory,
    which the chain's own solve sets."""
    rng = np.random.default_rng(12345)
    a, b = rng.random((LAPACK_N, LAPACK_N)) + LAPACK_N * np.eye(LAPACK_N), np.ones(LAPACK_N)
    np.linalg.solve(a, b)
    return _fastest(lambda: np.linalg.solve(a, b), REF_REPEATS)


def timed_start(env: dict, timeout: float) -> float:
    """Seconds to start a Python process that imports numpy and exits: the
    same kind of work as a workload's set-up, none of it sparselb's."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=env, check=True, timeout=timeout)
    return time.perf_counter() - start
