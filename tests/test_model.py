import numpy as np
import pytest

from sparselb.model import (
    FluidState,
    ModelParams,
    StateError,
    default_jmax,
    derive,
)


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
    assert d.m == 0
    assert d.q_mass == pytest.approx(0.7)


def test_derive_stationary_shape_values():
    # stationary two-point state for lam = 0.7: idle fraction 1-lam
    lam = 0.7
    state = FluidState.from_entries({(0, 0): 1 - lam, (1, 1): lam}, jmax=4)
    d = derive(state.y)
    assert d.m == 0
    assert d.q_mass == pytest.approx(lam)
    assert d.z[1] == pytest.approx(lam)
    assert d.z[2] == pytest.approx(0.0)


@pytest.mark.parametrize("cell", [(-2, -2), (0, -1), (-1, 3), (5, 5), (0, 5)])
def test_from_entries_refuses_cells_off_the_grid(cell):
    # a negative index would otherwise write from the far end of the grid
    with pytest.raises(StateError, match="outside the grid 0..4"):
        FluidState.from_entries({(0, 0): 0.5, cell: 0.5}, jmax=4)


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


def test_tail_fraction_recursion_on_random_states():
    rng = np.random.default_rng(11)
    for _ in range(20):
        y = np.triu(rng.random((5, 5)))
        d = derive(FluidState(y).y)
        assert d.z[0] == pytest.approx(1.0, abs=1e-9)
        for k in range(len(d.z) - 1):
            assert d.z[k] == pytest.approx(d.z[k + 1] + d.v[k], abs=1e-12)
        assert np.all(np.diff(d.z) <= 1e-15)


def test_min_estimate_matches_definition_on_random_states():
    rng = np.random.default_rng(3)
    for _ in range(20):
        y = np.triu(rng.random((5, 5)))
        y[:, : rng.integers(0, 3)] = 0.0
        d = derive(FluidState(y).y)
        positive = np.flatnonzero(d.w > 0)
        assert d.m == positive[0]


def test_default_jmax():
    assert default_jmax(0.7, 2.5) == 40
    assert default_jmax(0.7, 0.85) == 40
    assert default_jmax(0.7, 0.05) == 58
