"""Dispatching policies: decision rules, estimate bookkeeping, update
schedules, message accounting, and the readers that turn a random stream
into draws.

Message counting is pull-based: one message per status report, dispatch
decisions themselves are free.  JSQ(d) is the exception, paying 2d probe
messages per job at dispatch time.

Every draw is the value a scalar Generator call would return.  Exponential
draws of a stream that draws nothing else are read BLOCK at a time
(exponentials), and so are the raw PCG64 words of one read only through a
WordDraws (raw_words).  schedule_updates takes the update stream's
Generator itself: sujsq-exp reads its gaps in blocks, and aujsq-exp, whose
integers draws interleave with the Generator's exponential ones, takes its
words one at a time.  A choice among one option reads nothing (integers(1)).
"""
from __future__ import annotations

import math
import operator
import sys
from bisect import bisect_left, insort
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from enum import Enum
from heapq import heapify, heapreplace
from itertools import chain
from operator import countOf
from typing import NamedTuple

from .model import ModelParams


class PolicyKind(str, Enum):
    SUJSQ_DET = "sujsq-det"
    SUJSQ_EXP = "sujsq-exp"
    AUJSQ_DET = "aujsq-det"
    AUJSQ_EXP = "aujsq-exp"
    SUJSQ_DET_IDLE = "sujsq-det-idle"
    JIQ = "jiq"
    JIQ_P = "jiq-p"
    JSQ_D = "jsq-d"
    RANDOM = "random"
    ROUND_ROBIN = "round-robin"


# The kinds as module globals: the hooks below test a kind once or twice per
# event, and a global is read several times faster than an enum member.
(SUJSQ_DET, SUJSQ_EXP, AUJSQ_DET, AUJSQ_EXP, SUJSQ_DET_IDLE,
 JIQ, JIQ_P, JSQ_D, RANDOM, ROUND_ROBIN) = PolicyKind

# Kinds that keep a per-server queue estimate at the dispatcher.
ESTIMATE_KINDS = frozenset({SUJSQ_DET, SUJSQ_EXP, AUJSQ_DET, AUJSQ_EXP, SUJSQ_DET_IDLE})
TOKEN_KINDS = frozenset({JIQ, JIQ_P})


class ParamRule(NamedTuple):
    """A kind's one parameter: the PolicySpec field that holds it, the type
    parse reads its text as, and its admitted range as a test and in words."""
    field: str
    type: type
    admits: Callable[[float], bool]
    range: str


PARAM_RULES: dict[PolicyKind, ParamRule] = {
    **dict.fromkeys(
        ESTIMATE_KINDS,
        ParamRule("delta", float, lambda x: 0.0 < x < math.inf, "a finite delta > 0"),
    ),
    JSQ_D: ParamRule("d", int, lambda x: x >= 1, "an integer d >= 1"),
    JIQ_P: ParamRule("p", float, lambda x: 0.0 <= x <= 1.0, "p in [0, 1]"),
}


@dataclass(frozen=True)
class PolicySpec:
    """Tagged policy selector.  Exactly the parameter that PARAM_RULES names
    for the kind must be present, and none for a kind it does not list."""

    kind: PolicyKind
    delta: float | None = None
    d: int | None = None
    p: float | None = None

    def __post_init__(self) -> None:
        rule = PARAM_RULES.get(self.kind)
        if rule is not None:
            value = getattr(self, rule.field)
            if value is None or not rule.admits(value):
                raise ValueError(f"{self.kind.value} requires {rule.range}")
        for name in ("delta", "d", "p"):
            if getattr(self, name) is not None and (rule is None or name != rule.field):
                raise ValueError(f"{self.kind.value} takes no {name} parameter")

    @property
    def uses_estimates(self) -> bool:
        return self.kind in ESTIMATE_KINDS

    @property
    def param(self) -> float | int | None:
        """The kind's own parameter (delta, d, or p), if any."""
        rule = PARAM_RULES.get(self.kind)
        return None if rule is None else getattr(self, rule.field)

    @classmethod
    def parse(cls, text: str) -> "PolicySpec":
        """Parse selector strings like "sujsq-det:0.85", "jsq-d:2", "jiq"."""
        name, sep, arg = text.strip().partition(":")
        try:
            kind = PolicyKind(name)
        except ValueError:
            raise ValueError(f"unknown policy kind {name!r}") from None
        if not sep:
            return cls(kind)
        rule = PARAM_RULES.get(kind)
        if rule is None:
            raise ValueError(f"policy {name!r} takes no parameter, got {arg!r}")
        return cls(kind, **{rule.field: rule.type(arg)})

    def __str__(self) -> str:
        """The selector that parse reads back as this spec.  The parameter
        is printed with :g where that reads back exactly, and otherwise (an
        int of seven digits or more, a float :g rounds) as str gives it."""
        rule = PARAM_RULES.get(self.kind)
        if rule is None:
            return self.kind.value
        param = getattr(self, rule.field)
        text = f"{param:g}"
        if rule.type is int or float(text) != param:
            text = str(param)
        return f"{self.kind.value}:{text}"


# Views of fewer servers list every level (their ceiling is sys.maxsize).
# Under a ceiling, a view of a few servers empties its lowest level and
# scans est about once per job: replayed policy calls of the sync kinds took
# 1.2 to 1.7 times as long at N = 2 as with every level listed, about as long
# at N = 8 to 16, and no longer from N = 32 on.
LIST_ALL_BELOW = 32


class DispatcherView:
    """Dispatcher-side state owned by a single simulation: per-server queue
    estimates for the estimate-based kinds, idle tokens for JIQ kinds, and
    the round-robin cursor.

    For the estimate kinds the state is est, a Python list of int estimates,
    and an index of its low end: for each level j up to a ceiling, levels[j]
    is the ascending list of the servers whose estimate is j, and lowest is
    the lowest non-empty level, so dispatch finds the least-estimate servers
    without scanning all N.  Servers above the ceiling are in no list, so a
    move among the large levels in the middle of the queue-length law
    shifts no list.  With N >= LIST_ALL_BELOW the ceiling starts at 0 and a
    synchronous epoch sets it to the lowest estimate; when the lowest level
    empties with no listed level above it, one scan of est lists the new
    lowest level and the ceiling rises to it.  Smaller views list every
    level.  set_estimate and set_estimates are the only writers of est and
    keep the index in step; a report equal to the estimate changes nothing.
    """

    def __init__(self, spec: PolicySpec, n_servers: int):
        self.n_servers = n_servers
        self.est: list[int] | None = None
        self.levels: list[list[int]] = []
        self.lowest = 0
        self.ceiling = 0
        if spec.uses_estimates:
            self.est = [0] * n_servers
            self.levels = [list(range(n_servers))]
            if n_servers < LIST_ALL_BELOW:
                self.ceiling = sys.maxsize
        self.idle_tokens: list[int] = []
        self.rr_counter = 0

    def set_estimate(self, server: int, value: int) -> None:
        """Set one server's estimate and move it between listed levels."""
        est = self.est
        old = est[server]
        if value == old:
            return
        est[server] = value
        levels, ceiling = self.levels, self.ceiling
        if old <= ceiling:
            level = levels[old]
            del level[bisect_left(level, server)]
        if value <= ceiling:
            while value >= len(levels):
                levels.append([])
            insort(levels[value], server)
        if value < self.lowest:
            self.lowest = value
            return
        try:
            while not levels[self.lowest]:
                self.lowest += 1
        except IndexError:
            # Past the ceiling: list the new lowest level by one scan.
            lowest = self.lowest = self.ceiling = min(est)
            levels.extend([] for _ in range(lowest - len(levels)))
            levels.append([s for s, e in enumerate(est) if e == lowest])

    def set_estimates(self, values) -> None:
        """Overwrite every estimate with a copy of values, a sequence of
        ints, and rebuild the index: every level by one counting pass, or
        under a ceiling only the lowest, by one scan."""
        est = list(values)
        lowest = min(est)
        if self.ceiling == sys.maxsize:
            levels: list[list[int]] = [[] for _ in range(max(est) + 1)]
            for server, value in enumerate(est):
                levels[value].append(server)
        else:
            self.ceiling = lowest
            levels = [[] for _ in range(lowest)]
            levels.append([s for s, e in enumerate(est) if e == lowest])
        self.est, self.levels, self.lowest = est, levels, lowest

    def check_index(self) -> None:
        """Assert that the level index agrees with the estimates."""
        est, levels, ceiling = self.est, self.levels, self.ceiling
        assert ceiling in (len(levels) - 1, sys.maxsize), "the ceiling is not the top level"
        members = []
        for j, servers in enumerate(levels):
            assert servers == sorted(servers), f"level {j} is not sorted"
            assert all(est[s] == j for s in servers), f"level {j} holds a stranger"
            members.extend(servers)
        listed = [s for s, e in enumerate(est) if e <= ceiling]
        assert sorted(members) == listed, "a server at or below the ceiling is unlisted"
        assert self.lowest == min(est) <= ceiling, "lowest is not the least listed estimate"


def dispatch(spec: PolicySpec, view: DispatcherView, queues: list[int], rng) -> tuple[int, int]:
    """Pick the target server for one arriving job.  rng is the policy
    stream's WordDraws.

    Returns (server index, messages incurred by the decision).
    """
    kind = spec.kind
    if kind in ESTIMATE_KINDS:
        lowest = view.levels[view.lowest]
        return lowest[rng.integers(len(lowest))], 0
    if kind in TOKEN_KINDS:
        tokens = view.idle_tokens
        if tokens:
            i = rng.integers(len(tokens))
            tokens[i], tokens[-1] = tokens[-1], tokens[i]
            return tokens.pop(), 0
        return rng.integers(view.n_servers), 0
    if kind is JSQ_D:
        cand = rng.sample(view.n_servers, spec.d)
        lens = [queues[c] for c in cand]
        least = min(lens)
        ties = [c for c, q in zip(cand, lens) if q == least]
        return ties[rng.integers(len(ties))], 2 * spec.d
    if kind is RANDOM:
        return rng.integers(view.n_servers), 0
    # round-robin: cyclic sweep over server indices
    server = view.rr_counter % view.n_servers
    view.rr_counter += 1
    return server, 0


def on_assign(view: DispatcherView, server: int) -> None:
    """Bookkeeping after a job is sent: bump the server's estimate."""
    if view.est is not None:
        view.set_estimate(server, view.est[server] + 1)


def on_update(view: DispatcherView, server: int, true_len: int) -> int:
    """Apply one server's own report (asynchronous kinds); returns messages sent."""
    view.set_estimate(server, true_len)
    return 1


def apply_global_update(spec: PolicySpec, view: DispatcherView, queues: list[int]) -> int:
    """Synchronous epoch: every server reports at once (idle variant: only
    the idle ones).  Returns messages sent."""
    if spec.kind is SUJSQ_DET_IDLE:
        view.set_estimates([e if q else 0 for q, e in zip(queues, view.est)])
        return countOf(queues, 0)
    view.set_estimates(queues)
    return view.n_servers


def on_idle(spec: PolicySpec, view: DispatcherView, server: int, rng) -> int:
    """A server just drained its queue; JIQ kinds may emit a token.  rng is
    the policy stream's WordDraws."""
    kind = spec.kind
    if kind is JIQ:
        view.idle_tokens.append(server)
        return 1
    if kind is JIQ_P:
        # Degenerate p values skip the draw so that p=1 replays JIQ and p=0
        # replays Random under the same stream.
        if spec.p >= 1.0:
            view.idle_tokens.append(server)
            return 1
        if spec.p <= 0.0:
            return 0
        if rng.random() < spec.p:
            view.idle_tokens.append(server)
            return 1
        return 0
    return 0


# Draws (or raw words) per numpy call for the streams read in blocks.
BLOCK = 1024


def exponentials(rng, scale: float) -> Iterator[float]:
    """Exponential(scale) draws taken BLOCK at a time from the Generator
    rng, through a chain over the blocks, so a draw resumes no Python frame.
    They are the values scalar rng.exponential(scale) calls would return,
    so only a stream that draws nothing else may be read this way."""
    return chain.from_iterable(iter(lambda: rng.exponential(scale, BLOCK).tolist(), None))


def raw_words(rng) -> Iterator[int]:
    """The raw 64-bit words of the Generator rng's bit generator, read BLOCK
    at a time as exponentials reads its draws.  Reading ahead is exact only
    for a stream whose every draw goes through a WordDraws over these words."""
    random_raw = rng.bit_generator.random_raw
    return chain.from_iterable(iter(lambda: random_raw(BLOCK).tolist(), None))


class WordDraws:
    """Generator.integers(n), random() and choice(n, d, replace=False) of a
    PCG64 stream, rebuilt bit for bit from its raw 64-bit words (next_word
    gives the next one), at a fraction of numpy's per-call cost.

    integers(n) is numpy's Lemire method on 32-bit halves: each word serves
    two draws, low half first, and the high half waits for the next draw as
    in the bit generator's next_uint32, while random() takes a whole word
    and leaves a waiting half alone, as numpy's next_double does.  n == 1
    reads nothing.  sample(n, d) is the choice, built from integers draws.
    """

    __slots__ = ("_next_word", "_half")

    def __init__(self, next_word: Callable[[], int]):
        self._next_word = next_word
        self._half: int | None = None

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


def schedule_updates(spec: PolicySpec, params: ModelParams, rng):
    """Infinite stream of update events as (time, server) pairs; server is
    None for synchronous (all-at-once) epochs.  rng is the update stream's
    Generator: sujsq-exp, whose gaps are the stream's only draws, reads them
    BLOCK at a time, and aujsq-exp, whose gaps interleave with integers
    draws, reads its words one at a time through a WordDraws.

    sujsq-det / sujsq-det-idle: fixed epochs k/delta.
    sujsq-exp: global epochs with i.i.d. Exponential(delta) gaps.
    aujsq-det: per-server clocks with period 1/delta and independent
        uniform initial phases.
    aujsq-exp: per-server Poisson clocks of rate delta (generated as the
        superposed rate-N*delta stream with uniform server marks).
    """
    if not spec.uses_estimates:
        raise ValueError(f"{spec.kind.value} has no update schedule")
    kind, delta, n = spec.kind, spec.delta, params.n_servers
    if kind is SUJSQ_DET or kind is SUJSQ_DET_IDLE:
        k = 1
        while True:
            yield k / delta, None
            k += 1
    elif kind is SUJSQ_EXP:
        t = 0.0
        for gap in exponentials(rng, 1.0 / delta):
            t += gap
            yield t, None
    elif kind is AUJSQ_DET:
        period = 1.0 / delta
        # uniform(0, 1/delta) as numpy computes it: 0.0 + (1/delta) * random().
        clocks = [(period * rng.random(), s) for s in range(n)]
        heapify(clocks)
        # The (time, server) keys are unique, so replacing the head yields
        # the order that a pop and a push would.
        while True:
            t, s = clocks[0]
            yield t, s
            heapreplace(clocks, (t + period, s))
    else:  # AUJSQ_EXP
        scale = 1.0 / (delta * n)
        words = WordDraws(rng.bit_generator.random_raw)
        t = 0.0
        while True:
            t += rng.exponential(scale)
            yield t, words.integers(n)
