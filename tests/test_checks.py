import numpy as np
import pytest

from sparselb import ctmc
from sparselb.checks import chain_vs_des
from sparselb.model import ModelParams
from sparselb.policies import PolicySpec


def test_chain_vs_des_reports_half_the_l1_distance():
    # negative control: recompute the TV from the chain's marginal and the
    # returned record, so a TV off by any factor fails
    params = ModelParams(2, 0.7, 0.85)
    spec = PolicySpec.parse("aujsq-exp:0.85")
    tv, rec, _, _ = chain_vs_des(params, spec, cap=6, horizon=2000.0, seed=3)
    chain = ctmc.build_generator(params, spec, cap=6)
    exact = ctmc.queue_marginal(chain, ctmc.stationary(chain))
    sim = np.asarray(rec.queue_len_hist)
    size = max(len(exact), len(sim))
    l1 = np.abs(np.pad(sim, (0, size - len(sim))) - np.pad(exact, (0, size - len(exact)))).sum()
    assert tv > 0.01
    assert tv == pytest.approx(0.5 * l1, rel=1e-12)
