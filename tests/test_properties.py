"""Property tests: every policy keeps the simulator's invariants on random
small configurations, and both fluid derivatives conserve mass and
positivity on random states."""
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from sparselb import des
from sparselb.des import SimConfig, run_replications
from sparselb.fluid_async import rhs_async
from sparselb.fluid_sync import rhs_sync
from sparselb.model import ModelParams
from sparselb.policies import ESTIMATE_KINDS, PolicyKind, PolicySpec, dispatch


@st.composite
def configs(draw):
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(list(PolicyKind)))
    if kind in ESTIMATE_KINDS:
        spec = PolicySpec(kind, delta=draw(st.floats(0.05, 5.0)))
    elif kind is PolicyKind.JSQ_D:
        spec = PolicySpec(kind, d=draw(st.integers(1, n)))
    elif kind is PolicyKind.JIQ_P:
        spec = PolicySpec(kind, p=draw(st.floats(0.0, 1.0)))
    else:
        spec = PolicySpec(kind)
    lam = draw(st.floats(0.05, 0.98))
    # at least about 30 arrivals, so that the run has some after warmup
    horizon = max(draw(st.floats(5.0, 40.0)), 30.0 / (lam * n))
    return SimConfig(
        params=ModelParams(n, lam, spec.delta),
        policy=spec,
        horizon=horizon,
        warmup=0.0,
        seed=draw(st.integers(0, 2**16)),
        check_invariants=True,
    )


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(configs())
def test_every_policy_keeps_invariants(cfg):
    counts = [0] * cfg.params.n_servers

    def counted(*args):
        target, msgs = dispatch(*args)
        counts[target] += 1
        return target, msgs

    # the monkeypatch fixture is not reset between hypothesis examples
    with patch.object(des, "dispatch", counted):
        rec = run_replications(cfg, 1)
    assert sum(counts) == rec.n_arrivals
    assert rec.queue_len_hist.sum() == pytest.approx(1.0, abs=1e-9)
    assert rec.msgs_per_job >= 0.0


@st.composite
def fluid_states(draw):
    """Upper-triangular fractions with the last row and column empty (so no
    flux leaves the grid) and many cells exactly zero."""
    size = draw(st.integers(2, 10))
    cells = [(i, j) for j in range(size - 1) for i in range(j + 1)]
    values = draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(1e-6, 1.0)),
            min_size=len(cells),
            max_size=len(cells),
        )
    )
    assume(sum(values) > 0.0)
    y = np.zeros((size, size))
    for (i, j), value in zip(cells, values):
        y[i, j] = value
    return y / y.sum()


@settings(max_examples=300, deadline=None)
@given(fluid_states(), st.floats(0.05, 0.95), st.floats(0.05, 5.0))
def test_fluid_derivatives_conserve_mass_and_positivity(y, lam, delta):
    for dy in (rhs_sync(y, lam), rhs_async(y, lam, delta)):
        assert abs(dy.sum()) <= 1e-12
        assert not np.tril(dy, -1).any()
        assert dy[y == 0.0].min(initial=0.0) >= 0.0
