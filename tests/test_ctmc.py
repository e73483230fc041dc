import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sparselb
from sparselb import ctmc
from sparselb.model import ModelParams
from sparselb.policies import PolicySpec
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
    gen = np.array([[-2.0, 2.0], [3.0, -3.0]])
    chain = TruncatedChain(
        cap=0, pairs=[(0, 0)], states=[(1,), (2,)], generator=gen,
        truncation_rates=np.zeros(2), params=ModelParams(1, 0.5),
    )
    pi = stationary(chain)
    assert pi == pytest.approx([0.6, 0.4])


def test_stationary_reducible_chain_raises():
    gen = np.zeros((2, 2))  # two absorbing states
    chain = TruncatedChain(
        cap=0, pairs=[(0, 0)], states=[(1,), (2,)], generator=gen,
        truncation_rates=np.zeros(2), params=ModelParams(1, 0.5),
    )
    with pytest.raises(ChainError):
        stationary(chain)


def test_stationary_matches_dense_solve():
    # reference: the dense solve of G^T pi = 0 with the last equation
    # replaced by sum(pi) = 1
    for kind in ("aujsq-exp", "sujsq-exp"):
        chain = build(kind=kind)
        a = chain.generator.toarray().T
        a[-1, :] = 1.0
        b = np.zeros(chain.n_states)
        b[-1] = 1.0
        assert np.abs(stationary(chain) - np.linalg.solve(a, b)).max() < 1e-12


def test_build_rejects_state_space_over_budget(monkeypatch):
    monkeypatch.setattr(ctmc, "MAX_STATES", 50)
    with pytest.raises(ChainError, match="budget of 50"):
        build()


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


def test_rejects_non_markovian_kinds():
    params = ModelParams(2, 0.7, 0.85)
    with pytest.raises(ChainError):
        build_generator(params, PolicySpec.parse("sujsq-det:0.85"), cap=4)


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
