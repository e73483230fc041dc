import os
import subprocess
import sys
import tracemalloc
from itertools import product
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg
from scipy.sparse import coo_array, csr_array

import sparselb
from sparselb import ctmc
from sparselb.checks import chain_vs_des
from sparselb.model import ModelParams
from sparselb.policies import PolicyKind, PolicySpec
from sparselb.ctmc import (
    ChainError,
    TruncatedChain,
    build_generator,
    oracle_metrics,
    queue_marginal,
    stationary,
    truncation_loss,
)


def build(n=2, lam=0.7, delta=0.85, kind="aujsq-exp", cap=6):
    params = ModelParams(n, lam, delta)
    spec = PolicySpec.parse(f"{kind}:{delta}")
    return build_generator(params, spec, cap=cap)


def test_generator_rows_sum_to_zero():
    for kind in ("aujsq-exp", "sujsq-exp"):
        chain = build(kind=kind)
        assert np.abs(chain.generator.sum(axis=1)).max() < 1e-12


def test_stationary_two_state_toy():
    # closed-form check on a hand-built two-state chain
    gen = csr_array(np.array([[-2.0, 2.0], [3.0, -3.0]]))
    chain = TruncatedChain(
        cap=0, pairs=[(0, 0)], states=[(1,), (2,)], generator=gen,
        truncation_rates=np.zeros(2), params=ModelParams(1, 0.5),
    )
    pi = stationary(chain)
    assert pi == pytest.approx([0.6, 0.4])


def test_stationary_reducible_chain_raises():
    gen = csr_array((2, 2))  # two absorbing states
    chain = TruncatedChain(
        cap=0, pairs=[(0, 0)], states=[(1,), (2,)], generator=gen,
        truncation_rates=np.zeros(2), params=ModelParams(1, 0.5),
    )
    with pytest.raises(ChainError):
        stationary(chain)


def test_stationary_matches_dense_solve():
    # reference: the dense solve of G^T pi = 0 with the last equation
    # replaced by sum(pi) = 1
    for kind, (n, cap) in product(("aujsq-exp", "sujsq-exp"), ((2, 6), (3, 4), (3, 5))):
        chain = build(n=n, kind=kind, cap=cap)
        a = chain.generator.toarray().T
        a[-1, :] = 1.0
        b = np.zeros(chain.n_states)
        b[-1] = 1.0
        assert np.abs(stationary(chain) - np.linalg.solve(a, b)).max() < 1e-12


@pytest.mark.parametrize("kind, cap", [("aujsq-exp", 7), ("sujsq-exp", 8)])
def test_stationary_matches_sparse_lu(kind, cap):
    # reference: a complete sparse LU of the same balance system at N = 3.
    # aujsq-exp stops at cap 7 (8,436 states): at cap 8 its complete LU
    # holds 3e7 non-zeros
    chain = build(n=3, kind=kind, cap=cap)
    gen = chain.generator
    lu = scipy.sparse.linalg.splu(gen[1:, 1:].T.tocsc(), permc_spec="MMD_AT_PLUS_A")
    ref = np.ones(chain.n_states)
    ref[1:] = lu.solve(-gen[[0], 1:].toarray().ravel())
    ref /= ref.sum()
    assert np.abs(stationary(chain) - ref).max() < 1e-12


def test_singular_chain_names_its_absorbing_state():
    gen = csr_array(np.array([
        [-1.0, 1.0, 0.0, 0.0],
        [1.0, -2.0, 0.0, 1.0],
        [0.0, 0.0, 0.0, 0.0],  # state 2 has no way out
        [0.0, 1.0, 0.0, -1.0],
    ]))
    chain = TruncatedChain(
        cap=0, pairs=[(0, 0)], states=[(k,) for k in range(4)], generator=gen,
        truncation_rates=np.zeros(4), params=ModelParams(1, 0.5),
    )
    with pytest.raises(ChainError, match=r"absorbing states: \[2\]$"):
        stationary(chain)


def test_build_rejects_state_space_over_budget(monkeypatch):
    monkeypatch.setattr(ctmc, "MAX_STATES", 50)
    with pytest.raises(ChainError, match="budget of 50"):
        build()


def test_state_budget_boundary_is_exact(monkeypatch):
    n_states = build().n_states
    monkeypatch.setattr(ctmc, "MAX_STATES", n_states)
    assert build().n_states == n_states
    monkeypatch.setattr(ctmc, "MAX_STATES", n_states - 1)
    with pytest.raises(ChainError, match=f"budget of {n_states - 1}"):
        build()


KINDS = ["aujsq-exp:0.85", "sujsq-exp:0.85", "random", "jsq-d:2", "jiq", "jiq-p:1",
         "jiq-p:0.3", "jiq-p:0"]


@pytest.mark.parametrize("n, cap", [(2, 4), (3, 3)])
@pytest.mark.parametrize("kind", KINDS)
def test_every_listed_local_state_is_reached(kind, n, cap):
    # the fact the table's refusal rests on: a chain of S states reaches at
    # most n * S local states, and it reaches every listed one but the
    # token-free idle state that jiq's token start never enters
    chain = build_kind(kind, n, cap)
    unreached = set(range(len(chain.pairs))) - {k for s in chain.states for k in s}
    assert [chain.pairs[k] for k in unreached] == ([(0, 0)] * (kind in ("jiq", "jiq-p:1")))


def test_table_refuses_before_listing_past_the_budget():
    # 501,501 local states: the table listed all of them, and the chain
    # found 50,000 states, before the refusal; now the table lists 100,002
    build()  # scipy's imports, outside the trace
    tracemalloc.start()
    try:
        with pytest.raises(ChainError, match=f"budget of {ctmc.MAX_STATES}"):
            build(cap=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10_000_000


def test_table_budget_spares_the_unreached_idle_state(monkeypatch):
    # at N = 1 a chain state is one local state: jiq-p:1 lists cap + 2 and
    # reaches cap + 1, so a budget of cap + 1 chain states builds it
    cap = 7
    monkeypatch.setattr(ctmc, "MAX_STATES", cap + 1)
    assert build_kind("jiq-p:1", 1, cap).n_states == cap + 1
    monkeypatch.setattr(ctmc, "MAX_STATES", cap)
    with pytest.raises(ChainError, match=f"budget of {cap}"):
        build_kind("jiq-p:1", 1, cap)


def test_import_loads_no_scipy():
    # scipy.sparse is imported inside the chain functions only, so that
    # importing the package does not pay for it
    src = str(Path(sparselb.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = (
        "import sys, sparselb; "
        "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_stationary_properties():
    chain = build()
    pi = stationary(chain)
    assert pi.min() >= 0.0
    assert pi.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.abs(pi @ chain.generator).max() < 1e-10


def test_single_server_is_mm1_when_updates_fast():
    # with near-instant updates the estimate tracks the queue, so the queue
    # is a truncated birth-death chain with geometric stationary weights
    lam, cap = 0.5, 12
    chain = build(n=1, lam=lam, delta=50.0, cap=cap)
    pi = stationary(chain)
    marg = queue_marginal(chain, pi)
    weights = lam ** np.arange(cap + 1)
    weights /= weights.sum()
    assert 0.5 * np.abs(marg - weights).sum() < 0.02
    mq, _ = oracle_metrics(chain, pi)
    exact = float(np.dot(np.arange(cap + 1), weights))
    assert mq == pytest.approx(exact, rel=0.02)


def test_oracle_metrics_littles_law():
    # mean_wait = mean_queue / lam - 1 by construction; sanity at mid load
    chain = build(n=1, lam=0.5, delta=50.0, cap=12)
    pi = stationary(chain)
    mq, mw = oracle_metrics(chain, pi)
    assert mw == pytest.approx(mq / 0.5 - 1.0, abs=1e-12)
    assert mw == pytest.approx(1.0, rel=0.05)  # M/M/1 at lam=0.5: Wq = 1


def test_truncation_loss_decreases_with_cap():
    losses = []
    for cap in (4, 6, 8):
        chain = build(cap=cap)
        losses.append(truncation_loss(chain, stationary(chain)))
    assert losses[0] > losses[1] > losses[2]
    assert losses[2] < 1e-2


def test_marginal_sums_to_one():
    chain = build()
    marg = queue_marginal(chain, stationary(chain))
    assert marg.sum() == pytest.approx(1.0, abs=1e-12)
    assert marg.min() >= 0.0


def test_model_delta_must_match_the_policy():
    with pytest.raises(ChainError, match=r"0\.85 .* 2\.5"):
        build_generator(ModelParams(2, 0.7, 0.85), PolicySpec.parse("aujsq-exp:2.5"), cap=4)


@pytest.mark.parametrize("kind", ["sujsq-det:0.85", "sujsq-det-idle:0.85", "aujsq-det:0.85",
                                  "round-robin"])
def test_rejects_non_markovian_kinds(kind):
    params = ModelParams(2, 0.7, 0.85)
    with pytest.raises(ChainError):
        build_generator(params, PolicySpec.parse(kind), cap=4)


def test_jsq_d_probes_at_most_n_servers():
    # model.check_probes refuses d > N before math.comb(N, d) = 0 divides
    with pytest.raises(ChainError) as err:
        build_generator(ModelParams(2, 0.7), PolicySpec.parse("jsq-d:3"), cap=4)
    assert str(err.value) == "jsq-d:3 probes d = 3 distinct servers, more than N = 2"
    assert build_generator(ModelParams(2, 0.7), PolicySpec.parse("jsq-d:2"), cap=4).n_states


def build_kind(kind, n, cap, lam=0.7):
    return build_generator(ModelParams(n, lam), PolicySpec.parse(kind), cap=cap)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("kind", ["random", "jsq-d:1", "jiq-p:0"])
def test_uniform_dispatch_meets_the_truncated_geometric_law(kind, n):
    # one sampled server, or no token ever, makes each server an M/M/1
    # queue of capacity cap fed at rate lam: pi_i = (1 - lam) lam^i / (1 - lam^(cap + 1))
    lam, cap = 0.7, 10
    chain = build_kind(kind, n, cap, lam)
    law = (1 - lam) * lam ** np.arange(cap + 1) / (1 - lam ** (cap + 1))
    assert np.abs(queue_marginal(chain, stationary(chain)) - law).max() < 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_jiq_is_jiq_p_at_one(n):
    jiq, coin = build_kind("jiq", n, 6), build_kind("jiq-p:1", n, 6)
    for name in ("data", "indices", "indptr"):
        assert getattr(jiq.generator, name).tobytes() == getattr(coin.generator, name).tobytes()
    assert jiq.truncation_rates.tobytes() == coin.truncation_rates.tobytes()


def test_jsq_2_of_2_matches_the_labeled_jsq_chain():
    # both servers sampled: the job joins the shorter queue, a tie splits
    # evenly, and a job whose chosen queue is at the cap is rejected
    lam, cap, n = 0.6, 5, 2
    reduced = build_kind("jsq-d:2", n, cap, lam)
    pi_red = stationary(reduced)
    states = list(product(range(cap + 1), repeat=n))
    index = {s: k for k, s in enumerate(states)}
    gen = np.zeros((len(states), len(states)))
    for s, k in index.items():
        shortest = [h for h in range(n) if s[h] == min(s)]
        for h in shortest:
            if s[h] < cap:
                nxt = list(s)
                nxt[h] += 1
                gen[k, index[tuple(nxt)]] += lam * n / len(shortest)
        for h in range(n):
            if s[h] >= 1:
                nxt = list(s)
                nxt[h] -= 1
                gen[k, index[tuple(nxt)]] += 1.0
    np.fill_diagonal(gen, gen.diagonal() - gen.sum(axis=1))
    a = gen.T.copy()
    a[-1, :] = 1.0
    b = np.zeros(len(states))
    b[-1] = 1.0
    pi_full = np.linalg.solve(a, b)
    marg_full = np.zeros(cap + 1)
    for s, k in index.items():
        for q in s:
            marg_full[q] += pi_full[k] / n
    assert np.abs(marg_full - queue_marginal(reduced, pi_red)).max() < 1e-10
    # only a job that finds both queues at the cap is rejected
    assert truncation_loss(reduced, pi_red) == pytest.approx(pi_full[index[cap, cap]], abs=1e-12)


@pytest.mark.parametrize("kind, n, wait", [
    ("random", 2, 2.3333), ("random", 3, 2.3333), ("jsq-d:2", 2, 1.1082), ("jsq-d:2", 3, 0.8848),
    ("jiq", 2, 1.3611), ("jiq", 3, 0.9233), ("jiq-p:0.5", 2, 1.8735), ("jiq-p:0.5", 3, 1.6823),
])
def test_table_kinds_reproduce_the_independent_exact_waits(kind, n, wait):
    # waits of a separate builder over (queue) and (queue, token) states,
    # solved by a complete sparse LU from the token-free start, at cap 40
    chain = build_kind(kind, n, 40)
    assert oracle_metrics(chain, stationary(chain))[1] == pytest.approx(wait, abs=5e-5)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind", ["random", "jsq-d:2", "jiq", "jiq-p:0.3"])
def test_table_kinds_match_the_simulator(kind, n):
    # bands from seeds 1-10 at this horizon: TV at most 0.024 and the wait
    # within 11%; seed 11 was held out.  Reversing jiq-p's coin moves the law
    # by a TV of 0.044 (N = 2) and 0.066 (N = 3)
    tv, rec, wait, loss = chain_vs_des(ModelParams(n, 0.7), PolicySpec.parse(kind), cap=30,
                                       horizon=20000.0, seed=11)
    assert tv <= 0.03
    assert abs(rec.mean_wait - wait) <= 0.15 * wait
    assert loss < 1e-5


def test_occupancy_reduction_matches_labeled_chain():
    # rebuild a tiny instance without the exchangeability reduction: full
    # labeled chain over ((q1, e1), (q2, e2)) must give the same marginal
    lam, delta, cap, n = 0.6, 0.9, 3, 2
    params = ModelParams(n, lam, delta)
    spec = PolicySpec.parse(f"aujsq-exp:{delta}")
    reduced = build_generator(params, spec, cap=cap)
    pi_red = stationary(reduced)
    marg_red = queue_marginal(reduced, pi_red)

    pairs = [(i, j) for j in range(cap + 1) for i in range(j + 1)]
    states = [(a, b) for a in pairs for b in pairs]
    index = {s: k for k, s in enumerate(states)}
    gen = np.zeros((len(states), len(states)))
    lam_total = lam * n
    for s, k in index.items():
        m = min(e for _, e in s)
        lowest = [h for h, (_, e) in enumerate(s) if e == m]
        for h in lowest:
            q, e = s[h]
            if e + 1 <= cap:
                nxt = list(s)
                nxt[h] = (q + 1, e + 1)
                gen[k, index[tuple(nxt)]] += lam_total / len(lowest)
        for h, (q, e) in enumerate(s):
            if q >= 1:
                nxt = list(s)
                nxt[h] = (q - 1, e)
                gen[k, index[tuple(nxt)]] += 1.0
            if e > q:
                nxt = list(s)
                nxt[h] = (q, q)
                gen[k, index[tuple(nxt)]] += delta
    np.fill_diagonal(gen, gen.diagonal() - gen.sum(axis=1))
    a = gen.T.copy()
    a[-1, :] = 1.0
    b = np.zeros(len(states))
    b[-1] = 1.0
    pi_full = np.linalg.solve(a, b)
    marg_full = np.zeros(cap + 1)
    for s, k in index.items():
        for q, _ in s:
            marg_full[q] += pi_full[k] / n
    assert np.abs(marg_full - marg_red).max() < 1e-10


def test_unconverged_gmres_raises(monkeypatch):
    monkeypatch.setattr(scipy.sparse.linalg, "gmres",
                        lambda a, b, **kwargs: (np.zeros_like(b), 10))
    with pytest.raises(ChainError, match=r"unconverged after \d+ iterations: relative residual 1 "):
        stationary(build())


def reference_transitions(state, pairs, pair_index, params, policy, cap):
    """Outgoing moves of a state stored as counts over pairs: the
    enumeration that the server multisets replaced, kept as the reference."""
    lam_total = params.lam * params.n_servers
    moves = []
    trunc = 0.0
    occupied = [(idx, pairs[idx], c) for idx, c in enumerate(state) if c]

    def moved(src, dst):
        nxt = list(state)
        nxt[src] -= 1
        nxt[dst] += 1
        return tuple(nxt)

    w = {}
    for _, (_, j), c in occupied:
        w[j] = w.get(j, 0) + c
    m = min(w)
    if m >= cap:
        trunc += lam_total
    else:
        for idx, (i, j), c in occupied:
            if j == m:
                moves.append((moved(idx, pair_index[(i + 1, j + 1)]), lam_total * c / w[m]))
    for idx, (i, j), c in occupied:
        if i >= 1:
            moves.append((moved(idx, pair_index[(i - 1, j)]), float(c)))
    if policy.kind is PolicyKind.AUJSQ_EXP:
        for idx, (i, j), c in occupied:
            if j > i:
                moves.append((moved(idx, pair_index[(i, i)]), policy.delta * c))
    else:
        collapsed = [0] * len(state)
        for _, (i, _), c in occupied:
            collapsed[pair_index[(i, i)]] += c
        if tuple(collapsed) != state:
            moves.append((tuple(collapsed), policy.delta))
    return moves, trunc


def reference_build(params, policy, cap):
    """(count-vector states, CSR generator, truncation rates) in the
    breadth-first order of the count-vector enumeration."""
    pairs = [(i, j) for j in range(cap + 1) for i in range(j + 1)]
    pair_index = {p: k for k, p in enumerate(pairs)}
    init = (params.n_servers,) + (0,) * (len(pairs) - 1)
    states, state_index = [init], {init: 0}
    rows, cols, rates, trunc_rates = [], [], [], []
    for si, s in enumerate(states):
        moves, trunc = reference_transitions(s, pairs, pair_index, params, policy, cap)
        trunc_rates.append(trunc)
        for target, rate in moves:
            if target not in state_index:
                state_index[target] = len(states)
                states.append(target)
            rows.append(si)
            cols.append(state_index[target])
            rates.append(rate)
    n = len(states)
    diag = np.arange(n)
    gen = coo_array(
        (
            np.concatenate([rates, -np.bincount(rows, weights=rates, minlength=n)]),
            (np.concatenate([rows, diag]), np.concatenate([cols, diag])),
        ),
        shape=(n, n),
    ).tocsr()
    return states, gen, np.asarray(trunc_rates)


@pytest.mark.parametrize("n, cap", [(1, 3), (1, 10), (2, 4), (2, 9), (3, 3), (3, 5)])
@pytest.mark.parametrize("kind", ["aujsq-exp", "sujsq-exp"])
def test_multiset_enumeration_replays_the_count_vectors(kind, n, cap):
    params = ModelParams(n, 0.7, 0.85)
    spec = PolicySpec.parse(f"{kind}:0.85")
    chain = build_generator(params, spec, cap=cap)
    states, gen, trunc = reference_build(params, spec, cap)
    counts = [tuple(np.bincount(s, minlength=len(chain.pairs)).tolist()) for s in chain.states]
    assert counts == states
    for name in ("data", "indices", "indptr"):
        assert getattr(chain.generator, name).tobytes() == getattr(gen, name).tobytes()
    assert chain.truncation_rates.tobytes() == trunc.tobytes()


@pytest.mark.parametrize("n, cap", [(2, 8), (3, 5)])
def test_vectorised_summaries_match_the_loops(n, cap):
    # the per-state loops over count vectors that queue_marginal and
    # oracle_metrics replaced; they sum in another order, so the two agree
    # to round-off
    chain = build(n=n, cap=cap)
    pi = stationary(chain)
    states, _, _ = reference_build(chain.params, PolicySpec.parse("aujsq-exp:0.85"), cap)
    marginal = np.zeros(cap + 1)
    mean_queue = 0.0
    for s, p in zip(states, pi):
        for idx, c in enumerate(s):
            if c:
                marginal[chain.pairs[idx][0]] += p * c / n
        mean_queue += p * sum(c * chain.pairs[idx][0] for idx, c in enumerate(s)) / n
    assert np.abs(queue_marginal(chain, pi) - marginal).max() < 1e-14
    assert oracle_metrics(chain, pi)[0] == pytest.approx(mean_queue, abs=1e-14)


@pytest.mark.parametrize("entry, error", [
    (np.nan, r"singular or reducible chain"),
    (-1e-6, r"pi_min=-1e-06"),
    (1e-6, r"stationary residual .* exceeds 1e-10"),
])
def test_stationary_refuses_a_bad_solution(entry, error, monkeypatch):
    # a solve whose first unknown is non-finite, negative past round-off, or
    # off the balance equations is refused, not normalised into a law
    solve = scipy.sparse.linalg.gmres

    def spoiled(a, b, **kwargs):
        x, info = solve(a, b, **kwargs)
        x[0] = entry
        return x, info

    monkeypatch.setattr(scipy.sparse.linalg, "gmres", spoiled)
    with pytest.raises(ChainError, match=error):
        stationary(build())
