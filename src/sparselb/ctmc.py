"""Exact stationary analysis of the small-N Markov models.

Six kinds are Markovian on the servers' local states, and their servers
are exchangeable, so a state is the multiset of the local states, stored
as the sorted tuple of their indices: (queue, estimate) under aujsq-exp
and sujsq-exp, (0, token) or (queue, no token) under jiq and jiq-p, and
(queue,) under random and jsq-d.  _table lists each kind's local states and
moves.  One arrival rule covers all six: a job goes to the least dispatch
key among d distinct servers drawn uniformly, ties split evenly, so d = N
sends it to the least key (the least estimate, a token holder) and d = 1 to
a uniform server.  An arrival at a local state with no room above it (a
queue or estimate at the cap) is rejected and its rate recorded as
truncation loss.  The other kinds (the deterministic clocks and
round-robin) raise ChainError.

The memory of a chain is bounded through its state count: the generator
holds nnz entries, the incomplete LU that preconditions the solve at most
ILU_FILL_FACTOR * nnz, and GMRES GMRES_RESTART + 1 vectors of one entry
per state.  So MAX_STATES bounds memory too.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .model import ModelParams, check_delta, check_probes
from .policies import PolicyKind, PolicySpec

if TYPE_CHECKING:
    from scipy.sparse import csr_array

MAX_STATES = 50000
# stationary's solver.  On 180 chains (both kinds at N 1-3, caps 3-14,
# lam 0.3-0.95, delta 0.05-50) GMRES took at most 51 iterations, and on
# the 171 of them small enough for a complete sparse LU every pi came
# within 2.1e-12 of its solve's.  A relative residual of 1e-13 is out of
# reach where pi[0] is small (the solve fixes pi[0] = 1): at N = 3, cap 6,
# lam 0.95, delta 0.05 (aujsq-exp, pi[0] = 1.4e-5) the residual of
# b - A x stalls at 8e-13.
ILU_DROP_TOL = 0.1
ILU_FILL_FACTOR = 10
GMRES_RTOL = 1e-12
GMRES_RESTART = 50
GMRES_MAXITER = 10


class ChainError(RuntimeError):
    pass


State = tuple[int, ...]  # each server's index into pairs, sorted


@dataclass
class TruncatedChain:
    """A chain truncated at cap.  pairs holds the kind's local states, queue
    first (the name is older than the kinds without an estimate); a state
    is the sorted tuple of its servers' indices into pairs."""
    cap: int
    pairs: list[tuple[int, ...]]
    states: list[State]
    generator: csr_array
    truncation_rates: np.ndarray
    params: ModelParams

    @property
    def n_states(self) -> int:
        return len(self.states)


def _table(policy: PolicySpec, cap: int, n: int) -> tuple:
    """The kind's move table, as (local, key, up, down, report, d, together).
    local lists the local states a server can be in, queue first, the start
    first.  By index into local: key is each state's dispatch key, up its
    arrival target (None at the cap), down its service targets with their
    per-server rates and report its report target (itself where a report
    changes nothing).  A job samples d distinct servers; together says
    whether a report moves every server at once.  The only code in ctmc
    that names a kind."""
    kind, d = policy.kind, n
    if kind in (PolicyKind.AUJSQ_EXP, PolicyKind.SUJSQ_EXP):
        local = ((i, j) for j in range(cap + 1) for i in range(j + 1))

        def moves(i, j):  # (queue, estimate)
            return j, (i + 1, j + 1), [((i - 1, j), 1.0)] * (i > 0), (i, i)
    elif kind in (PolicyKind.JIQ, PolicyKind.JIQ_P):
        # An emptied server sends a token with probability p.  With p > 0
        # every server starts idle with a token: the DES's token-free start
        # is transient at p = 1, and stationary fixes pi[0] = 1.
        p = 1.0 if kind is PolicyKind.JIQ else policy.p
        local = itertools.chain([(0, 1)] * (p > 0), ((i, 0) for i in range(cap + 1)))

        def moves(i, t):  # (0, token) or (queue, no token)
            down = [((0, 1), p), ((0, 0), 1.0 - p)] if i == 1 else [((i - 1, 0), 1.0)] * (i > 1)
            return 1 - t, (i + 1, 0), down, (i, t)
    elif kind in (PolicyKind.RANDOM, PolicyKind.JSQ_D):
        d = policy.d or 1
        local = ((i,) for i in range(cap + 1))

        def moves(i):  # (queue,)
            return i, (i + 1,), [((i - 1,), 1.0)] * (i > 0), (i,)
    else:
        raise ChainError(f"{kind.value} is not Markovian on a multiset of local states")
    # A chain state holds at most n distinct local states, and the chain
    # reaches every listed one but the token-free idle state of jiq and
    # jiq-p:1.  So a list of over n * MAX_STATES + 1 needs more chain states
    # than MAX_STATES, and is refused before it is listed further.
    local = list(itertools.islice(local, n * MAX_STATES + 2))
    if len(local) > n * MAX_STATES + 1:
        raise ChainError(f"state space exceeds budget of {MAX_STATES}")
    index = {s: k for k, s in enumerate(local)}
    key, up, down, report = zip(*(moves(*s) for s in local))
    down = [[(index[s], rate) for s, rate in targets if rate > 0.0] for targets in down]
    return (local, key, [index.get(s) for s in up], down, [index[s] for s in report], d,
            kind is PolicyKind.SUJSQ_EXP)


def build_generator(params: ModelParams, policy: PolicySpec, cap: int) -> TruncatedChain:
    """Enumerate the reachable occupancy states from every server at the
    table's start and assemble the sparse (CSR) rate matrix.  Raises
    ChainError for a kind _table does not list."""
    # Imported here, not at module top, so that the CLI loads without
    # scipy's import time; most callers never build a chain.
    from scipy.sparse import coo_array

    check_delta(params, policy.delta, ChainError)
    check_probes(params, policy.d, ChainError)
    n = params.n_servers
    pairs, key, up, down, report, d, together = _table(policy, cap, n)
    lam_total, delta, ways = params.lam * n, policy.delta, math.comb(n, d)
    init = (0,) * n  # all at pairs[0], the start

    # Breadth-first: states grows while it is walked, so every state is
    # expanded once, in the order it was found.
    states: list[State] = [init]
    state_index: dict[State, int] = {init: 0}
    rows: list[int] = []
    cols: list[int] = []
    rates: list[float] = []
    trunc_rates: list[float] = []
    for si, s in enumerate(states):
        # (position of its first copy, local state index, count) of each
        # occupied local state, in index order.
        occupied = [(s.index(k), k, s.count(k)) for k in dict.fromkeys(s)]
        moves: list[tuple[State, float]] = []
        trunc = 0.0  # the rate of arrivals rejected at the cap

        def moved(pos: int, dst: int) -> State:
            return tuple(sorted(s[:pos] + (dst,) + s[pos + 1:]))

        # Arrivals: the job goes to the least key among d distinct servers
        # drawn uniformly, so key group g, in ascending order, wins with
        # probability [C(n>=g, d) - C(n>g, d)] / C(N, d), split evenly.
        above = n  # servers at or above g
        for g in sorted({key[k] for k in s}):
            if above < d:
                break
            w = sum(c for _, k, c in occupied if key[k] == g)
            share = (math.comb(above, d) - math.comb(above - w, d)) / ways
            for pos, k, c in occupied:
                if key[k] == g:
                    rate = lam_total * share * c / w
                    if up[k] is None:
                        trunc += rate
                    else:
                        moves.append((moved(pos, up[k]), rate))
            above -= w
        for pos, k, c in occupied:
            moves.extend((moved(pos, dst), rate * c) for dst, rate in down[k])
        if together:  # one report collapses every server at rate delta
            collapsed = tuple(sorted(report[k] for k in s))
            if collapsed != s:
                moves.append((collapsed, delta))
        else:
            moves.extend((moved(pos, report[k]), delta * c)
                         for pos, k, c in occupied if report[k] != k)
        trunc_rates.append(trunc)
        for target, rate in moves:
            if target not in state_index:
                if len(states) >= MAX_STATES:
                    raise ChainError(f"state space exceeds budget of {MAX_STATES}")
                state_index[target] = len(states)
                states.append(target)
            rows.append(si)
            cols.append(state_index[target])
            rates.append(rate)

    n = len(states)
    # The diagonal holds minus each row's total outflow; the CSR conversion
    # sums repeated (row, col) entries.
    diag = np.arange(n)
    data = np.concatenate([rates, -np.bincount(rows, weights=rates, minlength=n)])
    entries = (np.concatenate([rows, diag]), np.concatenate([cols, diag]))
    gen = coo_array((data, entries), shape=(n, n)).tocsr()
    return TruncatedChain(cap=cap, pairs=pairs, states=states, generator=gen,
                          truncation_rates=np.asarray(trunc_rates), params=params)


def _singular(gen: csr_array) -> ChainError:
    sinks = np.flatnonzero(abs(gen).sum(axis=1) == 0.0).tolist()
    return ChainError(f"singular or reducible chain; absorbing states: {sinks}")


def stationary(chain: TruncatedChain) -> np.ndarray:
    """Solve pi G = 0, sum(pi) = 1: fix pi[0] = 1, solve the other n - 1
    balance equations by ILU-preconditioned GMRES, then normalise."""
    # Imported here for the same reason as in build_generator;
    # scipy.sparse.linalg alone takes about 0.35 s to import.
    from scipy.sparse.linalg import LinearOperator, gmres, spilu

    gen = chain.generator
    n = gen.shape[0]
    # Every state but 0, last found first: build_generator found the states
    # breadth-first from state 0, so this is a reverse Cuthill-McKee-type
    # order and the factorisation needs no ordering step of its own.
    rev = np.arange(n - 1, 0, -1)
    a = gen[rev[:, None], rev].T.tocsc()
    b = -gen[[0]].toarray().ravel()[rev]
    try:
        # The columns of A are rows of the generator, symmetrically
        # permuted, so A is column diagonally dominant and is factored
        # without pivoting, in that order.
        ilu = spilu(
            a, drop_tol=ILU_DROP_TOL, fill_factor=ILU_FILL_FACTOR,
            permc_spec="NATURAL", diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError:  # SuperLU: "matrix is singular"
        raise _singular(gen) from None
    residuals: list[float] = []
    x, info = gmres(
        a, b, rtol=GMRES_RTOL, atol=0.0, restart=GMRES_RESTART,
        maxiter=GMRES_MAXITER, M=LinearOperator(a.shape, ilu.solve),
        callback=residuals.append, callback_type="pr_norm",
    )
    if info:
        rel = float(np.linalg.norm(b - a @ x) / np.linalg.norm(b))
        raise ChainError(
            f"GMRES stopped unconverged after {len(residuals)} iterations: "
            f"relative residual {rel:.3g} > {GMRES_RTOL}"
        )
    pi = np.ones(n)
    pi[rev] = x
    if not np.isfinite(pi).all():
        raise _singular(gen)
    if pi.min() < -1e-10:
        raise ChainError(f"stationary solve produced pi_min={pi.min()}")
    pi = np.maximum(pi, 0.0)
    pi /= pi.sum()
    residual = float(np.abs(gen.T @ pi).max())
    if residual > 1e-10:
        raise ChainError(f"stationary residual {residual} exceeds 1e-10")
    return pi


def _queues(chain: TruncatedChain) -> np.ndarray:
    """(n_states, N) array of each server's queue length."""
    return np.array([local[0] for local in chain.pairs])[np.asarray(chain.states)]


def queue_marginal(chain: TruncatedChain, dist: np.ndarray) -> np.ndarray:
    """Stationary distribution of a single server's queue length."""
    queues = _queues(chain)
    weights = np.repeat(dist / chain.params.n_servers, queues.shape[1])
    return np.bincount(queues.ravel(), weights=weights, minlength=chain.cap + 1)


def truncation_loss(chain: TruncatedChain, dist: np.ndarray) -> float:
    """Fraction of offered arrivals rejected at the cap."""
    lam_total = chain.params.lam * chain.params.n_servers
    return float(dist @ chain.truncation_rates) / lam_total


def oracle_metrics(chain: TruncatedChain, dist: np.ndarray) -> tuple[float, float]:
    """(mean queue per server, mean wait) from the stationary law; the wait
    comes from the flow identity mean_queue = lam * (wait + service)."""
    jobs = _queues(chain).sum(axis=1)
    mean_queue = float(dist @ jobs) / chain.params.n_servers
    mean_wait = mean_queue / chain.params.lam - 1.0
    return mean_queue, mean_wait
