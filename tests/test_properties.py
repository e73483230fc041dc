"""Property tests: every policy keeps the simulator's invariants on random
small configurations."""
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sparselb.des import SimConfig, run
from sparselb.model import ModelParams
from sparselb.policies import ESTIMATE_KINDS, PolicyKind, PolicySpec


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
        track_assignments=True,
        check_invariants=True,
    )


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(configs())
def test_every_policy_keeps_invariants(cfg):
    rec = run(cfg)
    assert rec.assignments.sum() == rec.n_arrivals
    assert rec.queue_len_hist.sum() == pytest.approx(1.0, abs=1e-9)
    assert rec.msgs_per_job >= 0.0
