"""Exact stationary analysis of the small-N Markov models.

Only the exponential-update variants are Markovian on the occupancy state.
Server exchangeability reduces the state to the multiset of the servers'
(queue, estimate) pairs, stored as the sorted tuple of their pair indices;
arrivals that would push the minimum estimate past the cap are rejected and
their rate recorded as truncation loss.

The memory of a chain is bounded through its state count: the generator
holds nnz entries, the incomplete LU that preconditions the solve at most
ILU_FILL_FACTOR * nnz, and GMRES GMRES_RESTART + 1 vectors of one entry
per state.  So MAX_STATES bounds memory too.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .model import ModelParams, check_delta
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
    cap: int
    pairs: list[tuple[int, int]]
    states: list[State]
    generator: csr_array
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
    # (position of its first copy, (queue, estimate), count) of each
    # occupied pair, in index order.
    occupied = [
        (state.index(idx), pairs[idx], state.count(idx)) for idx in dict.fromkeys(state)
    ]

    def moved(pos: int, dst: int) -> State:
        return tuple(sorted(state[:pos] + (dst,) + state[pos + 1:]))

    # Arrivals: uniformly random server among those at the minimum estimate.
    # The pairs run in estimate order, so state[0] holds the minimum.
    m = pairs[state[0]][1]
    if m >= cap:
        trunc += lam_total
    else:
        w = sum(1 for idx in state if pairs[idx][1] == m)
        for pos, (i, j), c in occupied:
            if j == m:
                rate = lam_total * c / w
                moves.append((moved(pos, pair_index[(i + 1, j + 1)]), rate))

    # Services: each busy server completes at unit rate.
    for pos, (i, j), c in occupied:
        if i >= 1:
            moves.append((moved(pos, pair_index[(i - 1, j)]), float(c)))

    # Updates.
    if policy.kind is PolicyKind.AUJSQ_EXP:
        for pos, (i, j), c in occupied:
            if j > i:
                moves.append((moved(pos, pair_index[(i, i)]), delta * c))
    else:  # SUJSQ_EXP: one global collapse at rate delta
        collapsed = tuple(sorted(pair_index[(pairs[idx][0],) * 2] for idx in state))
        if collapsed != state:
            moves.append((collapsed, delta))
    return moves, trunc


def build_generator(
    params: ModelParams, policy: PolicySpec, cap: int
) -> TruncatedChain:
    """Enumerate reachable occupancy states from the all-idle start and
    assemble the sparse (CSR) rate matrix."""
    # Imported here, not at module top, so that the CLI loads without
    # scipy's import time; most callers never build a chain.
    from scipy.sparse import coo_array

    if policy.kind not in (PolicyKind.AUJSQ_EXP, PolicyKind.SUJSQ_EXP):
        raise ChainError(
            "only exponential-update kinds are Markovian on this state space"
        )
    check_delta(params, policy.delta, ChainError)
    pairs = [(i, j) for j in range(cap + 1) for i in range(j + 1)]
    pair_index = {p: k for k, p in enumerate(pairs)}
    init = (0,) * params.n_servers  # all at pairs[0] = (0, 0)

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
    return np.array([i for i, _ in chain.pairs])[np.asarray(chain.states)]


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
