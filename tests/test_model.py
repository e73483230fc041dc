import math

import numpy as np
import pytest

from sparselb import model
from sparselb.cli import build_parser
from sparselb.fixed_point import m_star, m_star_det, y_star
from sparselb.fluid_async import integrate_async
from sparselb.fluid_sync import integrate_sync, queue_bound
from sparselb.model import (
    SWITCH_TOL,
    FluidState,
    ModelParams,
    StateError,
    check_probes,
    check_rates,
    check_state_budget,
    default_jmax,
    derive,
    min_estimate_level,
)
from sparselb.policies import PARAM_RULES, PolicySpec


def test_model_params_validation():
    ModelParams(1, 0.5, 1.0)
    with pytest.raises(StateError):
        ModelParams(0, 0.5, 1.0)
    with pytest.raises(StateError):
        ModelParams(1, 1.0, 1.0)
    with pytest.raises(StateError):
        ModelParams(1, 0.0, 1.0)
    with pytest.raises(StateError):
        ModelParams(1, 0.5, 0.0)


def test_derive_two_level_state():
    state = FluidState.from_entries({(0, 0): 0.3, (1, 1): 0.7}, jmax=3)
    d = derive(state.y)
    assert d.v[0] == pytest.approx(0.3)
    assert d.v[1] == pytest.approx(0.7)
    assert d.w[0] == pytest.approx(0.3)
    assert d.w[1] == pytest.approx(0.7)


def test_derive_stationary_shape_values():
    # stationary two-point state for lam = 0.7: idle fraction 1-lam
    lam = 0.7
    state = FluidState.from_entries({(0, 0): 1 - lam, (1, 1): lam}, jmax=4)
    d = derive(state.y)
    assert min_estimate_level(d.w) == 0
    assert np.dot(np.arange(len(d.v)), d.v) == pytest.approx(lam)
    assert d.v[1:].sum() == pytest.approx(lam)
    assert d.v[2:].sum() == pytest.approx(0.0)


@pytest.mark.parametrize("cell", [(-2, -2), (0, -1), (-1, 3), (5, 5), (0, 5)])
def test_from_entries_refuses_cells_off_the_grid(cell):
    # a negative index would otherwise write from the far end of the grid
    with pytest.raises(StateError, match="outside the grid 0..4"):
        FluidState.from_entries({(0, 0): 0.5, cell: 0.5}, jmax=4)


def test_check_state_budget_counts_dense_float_states(monkeypatch):
    monkeypatch.setattr(model, "MAX_STATE_BYTES", 3 * 8 * 41 ** 2)
    check_state_budget(3, 40, "three")
    with pytest.raises(StateError, match=r"^four: 4 x \(jmax\+1\)\^2 floats at jmax=40 .* budget$"):
        check_state_budget(4, 40, "four")
    with pytest.raises(OverflowError, match="wider"):
        check_state_budget(3, 41, "wider", OverflowError)


@pytest.mark.parametrize("build", [
    FluidState.empty,
    lambda jmax: FluidState.from_entries({(0, 0): 1.0}, jmax),
], ids=["empty", "from_entries"])
def test_states_over_the_budget_are_refused(build, monkeypatch):
    monkeypatch.setattr(model, "MAX_STATE_BYTES", 8 * 41 ** 2)
    assert build(40).y.shape == (41, 41)
    monkeypatch.setattr(model, "MAX_STATE_BYTES", 8 * 41 ** 2 - 1)
    with pytest.raises(StateError, match="budget"):
        build(40)


def test_fluid_state_rejects_zero_total():
    with pytest.raises(StateError):
        FluidState(np.zeros((3, 3)))


def test_fluid_state_normalizes_and_freezes():
    y = np.zeros((3, 3))
    y[0, 0] = 2.0
    s = FluidState(y)
    assert s.y.sum() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        s.y[0, 0] = 5.0


def test_fluid_state_rejects_lower_triangle_and_negatives():
    y = np.zeros((3, 3))
    y[2, 1] = 1.0
    with pytest.raises(StateError):
        FluidState(y)
    y = np.zeros((3, 3))
    y[0, 0] = 1.0
    y[1, 1] = -1e-6
    with pytest.raises(StateError):
        FluidState(y)


def test_min_estimate_matches_definition_on_random_states():
    rng = np.random.default_rng(3)
    for _ in range(20):
        y = np.triu(rng.random((5, 5)))
        y[:, : rng.integers(0, 3)] = 0.0
        d = derive(FluidState(y).y)
        positive = np.flatnonzero(d.w > 0)
        assert min_estimate_level(d.w) == positive[0]


def test_min_estimate_level_needs_more_than_switch_tol():
    assert min_estimate_level([0.0, SWITCH_TOL, 2 * SWITCH_TOL, 1.0]) == 2
    assert min_estimate_level(np.array([SWITCH_TOL, 0.5])) == 1
    with pytest.raises(StateError, match="no estimate level"):
        min_estimate_level([0.0, SWITCH_TOL, -1.0])


def test_default_jmax():
    assert default_jmax(0.7, 2.5) == 40
    assert default_jmax(0.7, 0.85) == 40
    assert default_jmax(0.7, 0.05) == 58


# Every library entry point that takes the model's rates, called as (lam, delta);
# queue_bound takes the epoch period T = 1/delta, with delta = 0 read as T = inf.
RATE_TAKERS = {
    "ModelParams": lambda lam, delta: ModelParams(1, lam, delta),
    "m_star": m_star,
    "m_star_det": m_star_det,
    "y_star": y_star,
    "default_jmax": default_jmax,
    "queue_bound": lambda lam, delta: queue_bound(lam, math.inf if delta == 0 else 1 / delta),
    "integrate_sync": lambda lam, delta: integrate_sync(FluidState.empty(40), lam, delta, 1.0),
    "integrate_async": lambda lam, delta: integrate_async(FluidState.empty(40), lam, delta, 1.0),
}
BAD_RATES = [(lam, 0.85) for lam in (0.0, 1.0, -0.5, 1.5, math.nan)] + [
    (0.7, delta) for delta in (0.0, -1.0, math.inf, math.nan)]
# Unchecked, these two scan levels without end, so
# test_fixed_point.test_endless_level_scans_are_refused runs them in a subprocess.
ENDLESS = {("m_star_det", math.inf), ("queue_bound", 0.0)}


@pytest.mark.parametrize("name, lam, delta", [
    (name, lam, delta) for name in RATE_TAKERS for lam, delta in BAD_RATES
    if (name, delta) not in ENDLESS
])
def test_every_layer_refuses_rates_the_model_cannot_have(name, lam, delta):
    with pytest.raises(StateError):
        RATE_TAKERS[name](lam, delta)


def admits(call, value) -> bool:
    try:
        call(value)
    except (ValueError, SystemExit):
        return False
    return True


@pytest.mark.parametrize("value", [
    -1.0, 0.0, 5e-324, 0.5, 1.0 - 2.0 ** -53, 1.0, 1.5, 1e300, math.inf, math.nan])
def test_parse_time_rate_rules_agree_with_check_rates(value, capsys):
    lam_ok = admits(check_rates, value)
    parser = build_parser()
    assert admits(lambda x: parser.parse_args(["fixed-point", "--lambda", repr(x)]), value) == lam_ok
    delta_ok = admits(lambda x: check_rates(0.5, x), value)
    for kind, rule in PARAM_RULES.items():
        if rule.field == "delta":
            assert admits(lambda x: PolicySpec(kind, delta=x), value) == delta_ok
    capsys.readouterr()  # argparse's usage messages


def test_step_budget_boundary_is_exact():
    model.check_step_budget(model.MAX_STEPS, "run")
    for steps in (model.MAX_STEPS + 1, math.inf, math.nan):
        with pytest.raises(StateError, match="run: .* RK4 steps, over the 10,000,000 step budget"):
            model.check_step_budget(steps, "run")


@pytest.mark.parametrize("shape", [(2, 3), (3,)])
def test_fluid_state_refuses_a_non_square_array(shape):
    with pytest.raises(StateError, match="must be a square array, got shape"):
        FluidState(np.triu(np.ones(shape)) if len(shape) == 2 else np.ones(shape))


def test_probe_rule_admits_d_up_to_n():
    params = ModelParams(3, 0.7)
    for d in (None, 1, 3):
        check_probes(params, d, KeyError)
    with pytest.raises(KeyError, match="jsq-d:4 probes d = 4 distinct servers, more than N = 3"):
        check_probes(params, 4, KeyError)
