import numpy as np
import pytest

from sparselb import checks, ctmc
from sparselb.checks import chain_vs_des, fluid_des_distance, poisson_identity_residuals
from sparselb.des import Trajectory
from sparselb.fixed_point import PoissonMoments
from sparselb.fluid_sync import FluidRun
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


def states(*cells):
    """Two stored 6 x 6 states, at t = 0 and 0.5, with mass at the given
    (i, j, value) cells."""
    y = np.zeros((6, 6))
    for i, j, value in cells:
        y[i, j] = value
    return np.array([y, y])


def distance(fluid, sim):
    times = np.array([0.0, 0.5])
    return fluid_des_distance(Trajectory(times, sim, clipped=0.0),
                              FluidRun(times, fluid, np.empty(0), lam=0.7))


def test_fluid_des_distance_is_zero_on_equal_states():
    # negative control: a worst that starts above 0 reads it here
    fluid = states((0, 0, 0.5), (1, 2, 0.3), (2, 2, 0.2))
    assert distance(fluid, fluid.copy()) == 0.0


def test_fluid_des_distance_reads_levels_0_to_2_only():
    # moving mass from (3, 3) to (4, 4) changes v and w at levels 3 and 4
    # alone, which the distance leaves out; a scan of four levels reads 0.5
    fluid = states((0, 0, 0.5), (3, 3, 0.5))
    assert distance(fluid, states((0, 0, 0.5), (4, 4, 0.5))) == 0.0
    # moving 0.2 from (2, 2) to (3, 3) moves v2 and w2 by 0.2
    fluid = states((0, 0, 0.5), (2, 2, 0.5))
    assert distance(fluid, states((0, 0, 0.5), (2, 2, 0.3), (3, 3, 0.2))) == 0.5 - 0.3


def test_poisson_monotonicity_residual_fires_over_levels_1_to_21(monkeypatch):
    # negative control: A(L)/L = 1 up to L = 5 and 1/2 from L = 6 on, so the
    # ratio falls by 1/2 once and never rises; levels 1..20 and their
    # successors are asked for, and no other
    levels = set()

    def moments(level, t):
        levels.add(level)
        a = float(level) if level <= 5 else 0.5 * level
        return PoissonMoments(a=a, b=level - a)

    monkeypatch.setattr(checks, "poisson_ab", moments)
    assert poisson_identity_residuals([0.5, 1.0]) == (0.0, 0.5)
    assert levels == set(range(1, 22))


def test_chain_vs_des_warms_up_for_a_tenth_of_the_horizon(monkeypatch):
    seen = []
    replicate = checks.des.run_replications

    def capture(config, runs):
        seen.append((config, runs))
        return replicate(config, runs)

    monkeypatch.setattr(checks.des, "run_replications", capture)
    chain_vs_des(ModelParams(2, 0.7, 0.85), PolicySpec.parse("aujsq-exp:0.85"), cap=6,
                 horizon=300.0, seed=3)
    [(config, runs)] = seen
    assert (config.horizon, config.warmup, runs) == (300.0, 30.0, 1)
