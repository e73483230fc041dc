"""Exact stationary analysis of the small-N Markov models.

Only the exponential-update variants are Markovian on the occupancy state.
Server exchangeability reduces the state to occupancy counts over
(queue, estimate) pairs; arrivals that would push the minimum estimate past
the cap are rejected and their rate recorded as truncation loss.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .model import ModelParams
from .policies import PolicyKind, PolicySpec

if TYPE_CHECKING:
    from scipy.sparse import csr_array

MAX_STATES = 50000


class ChainError(RuntimeError):
    pass


State = tuple[int, ...]  # counts over enumerated (i, j) pairs


@dataclass
class TruncatedChain:
    cap: int
    pairs: list[tuple[int, int]]
    states: list[State]
    generator: csr_array  # stationary also takes a dense ndarray
    truncation_rates: np.ndarray
    params: ModelParams

    @property
    def n_states(self) -> int:
        return len(self.states)


def _transitions(
    state: State,
    pairs: list[tuple[int, int]],
    pair_index: dict[tuple[int, int], int],
    params: ModelParams,
    policy: PolicySpec,
    cap: int,
) -> tuple[list[tuple[State, float]], float]:
    """Outgoing (state, rate) list plus the rejected-arrival rate."""
    lam_total = params.lam * params.n_servers
    delta = policy.delta
    moves: list[tuple[State, float]] = []
    trunc = 0.0
    # (index, (queue, estimate), count) of the occupied pairs, in index
    # order: at most n_servers of the state's entries are non-zero.
    occupied = [(idx, pairs[idx], c) for idx, c in enumerate(state) if c]

    def moved(src: int, dst: int) -> State:
        nxt = list(state)
        nxt[src] -= 1
        nxt[dst] += 1
        return tuple(nxt)

    # Arrivals: uniformly random server among those at the minimum estimate.
    w = {}
    for _, (_, j), c in occupied:
        w[j] = w.get(j, 0) + c
    m = min(w)
    if m >= cap:
        trunc += lam_total
    else:
        for idx, (i, j), c in occupied:
            if j == m:
                rate = lam_total * c / w[m]
                moves.append((moved(idx, pair_index[(i + 1, j + 1)]), rate))

    # Services: each busy server completes at unit rate.
    for idx, (i, j), c in occupied:
        if i >= 1:
            moves.append((moved(idx, pair_index[(i - 1, j)]), float(c)))

    # Updates.
    if policy.kind is PolicyKind.AUJSQ_EXP:
        for idx, (i, j), c in occupied:
            if j > i:
                moves.append((moved(idx, pair_index[(i, i)]), delta * c))
    else:  # SUJSQ_EXP: one global collapse at rate delta
        collapsed = [0] * len(state)
        for _, (i, _), c in occupied:
            collapsed[pair_index[(i, i)]] += c
        collapsed = tuple(collapsed)
        if collapsed != state:
            moves.append((collapsed, delta))
    return moves, trunc


def build_generator(
    params: ModelParams, policy: PolicySpec, cap: int
) -> TruncatedChain:
    """Enumerate reachable occupancy states from the all-idle start and
    assemble the sparse (CSR) rate matrix."""
    # Imported here, not at module top, so that `import sparselb` does not
    # pay scipy's import time; most callers never build a chain.
    from scipy.sparse import coo_array

    if policy.kind not in (PolicyKind.AUJSQ_EXP, PolicyKind.SUJSQ_EXP):
        raise ChainError(
            "only exponential-update kinds are Markovian on this state space"
        )
    if params.delta not in (None, policy.delta):
        raise ChainError(
            f"ModelParams.delta = {params.delta} disagrees with the policy's "
            f"delta = {policy.delta}"
        )
    pairs = [(i, j) for j in range(cap + 1) for i in range(j + 1)]
    pair_index = {p: k for k, p in enumerate(pairs)}
    init = (params.n_servers,) + (0,) * (len(pairs) - 1)  # all at pairs[0] = (0, 0)

    # Breadth-first: states grows while it is walked, so every state is
    # expanded once, in the order it was found.
    states: list[State] = [init]
    state_index: dict[State, int] = {init: 0}
    rows: list[int] = []
    cols: list[int] = []
    rates: list[float] = []
    trunc_rates: list[float] = []
    for si, s in enumerate(states):
        moves, trunc = _transitions(s, pairs, pair_index, params, policy, cap)
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
    gen = coo_array(
        (
            np.concatenate([rates, -np.bincount(rows, weights=rates, minlength=n)]),
            (np.concatenate([rows, diag]), np.concatenate([cols, diag])),
        ),
        shape=(n, n),
    ).tocsr()
    return TruncatedChain(
        cap=cap,
        pairs=pairs,
        states=states,
        generator=gen,
        truncation_rates=np.asarray(trunc_rates),
        params=params,
    )


def _singular(gen: csr_array) -> ChainError:
    sinks = np.flatnonzero(abs(gen).sum(axis=1) == 0.0).tolist()
    return ChainError(f"singular or reducible chain; absorbing states: {sinks}")


def stationary(chain: TruncatedChain) -> np.ndarray:
    """Solve pi G = 0, sum(pi) = 1 by a sparse LU solve: fix pi[0] = 1,
    solve the other n - 1 balance equations, then normalise.  The generator
    may be dense or scipy.sparse."""
    # Imported here for the same reason as in build_generator;
    # scipy.sparse.linalg alone takes about 0.35 s to import.
    from scipy.sparse import csr_array
    from scipy.sparse.linalg import splu

    gen = csr_array(chain.generator)
    n = gen.shape[0]
    pi = np.ones(n)
    try:
        # A minimum-degree ordering on A^T + A keeps the LU fill-in of these
        # chains well below that of the default COLAMD ordering.
        lu = splu(gen[1:, 1:].T.tocsc(), permc_spec="MMD_AT_PLUS_A")
        pi[1:] = lu.solve(-gen[[0], 1:].toarray().ravel())
    except RuntimeError:  # SuperLU: "Factor is exactly singular"
        raise _singular(gen) from None
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


def queue_marginal(chain: TruncatedChain, dist: np.ndarray) -> np.ndarray:
    """Stationary distribution of a single server's queue length."""
    probs = np.zeros(chain.cap + 1)
    n = chain.params.n_servers
    for s, p in zip(chain.states, dist):
        for idx, c in enumerate(s):
            if c:
                probs[chain.pairs[idx][0]] += p * c / n
    return probs


def truncation_loss(chain: TruncatedChain, dist: np.ndarray) -> float:
    """Fraction of offered arrivals rejected at the cap."""
    lam_total = chain.params.lam * chain.params.n_servers
    return float(dist @ chain.truncation_rates) / lam_total


def oracle_metrics(chain: TruncatedChain, dist: np.ndarray) -> tuple[float, float]:
    """(mean queue per server, mean wait) from the stationary law; the wait
    comes from the flow identity mean_queue = lam * (wait + service)."""
    n = chain.params.n_servers
    mean_queue = 0.0
    for s, p in zip(chain.states, dist):
        jobs = sum(c * chain.pairs[idx][0] for idx, c in enumerate(s))
        mean_queue += p * jobs / n
    mean_wait = mean_queue / chain.params.lam - 1.0
    return mean_queue, mean_wait
