import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sparselb
from sparselb import fixed_point, model
from sparselb.fluid_sync import PoissonMoments
from sparselb.model import MAX_STATE_BYTES, StateError, default_jmax
from sparselb.fixed_point import (
    ConsistencyError,
    h_value,
    m_star,
    m_star_det,
    q_tilde,
    solve_nu,
    y_star,
)


def nu_quadratic_level1(lam, delta):
    """Independent oracle: with a single stationary level the idle-fraction
    equation reduces to a quadratic (1+nu)(delta+nu) = rhs."""
    a = 1.0 / (1.0 + delta)
    rhs = delta * delta / ((1.0 - lam) / (a * a) - 1.0)
    b = 1.0 + delta
    c = delta - rhs
    return (-b + math.sqrt(b * b - 4 * c)) / 2.0


def nu_quadratic_level0(lam, delta):
    """Independent oracle for the zero-level case."""
    a = 1.0 / (1.0 + delta)
    k = (1.0 - lam - a) / (a * a * delta * delta)
    qa = k
    qb = k * (1.0 + delta) - 1.0
    qc = k * delta - 1.0 - delta
    return (-qb + math.sqrt(qb * qb - 4.0 * qa * qc)) / (2.0 * qa)


def test_m_star_values():
    assert m_star(0.7, 0.85) == 1
    assert m_star(0.7, 2.5) == 0
    assert m_star(0.5, 1.0) == 1  # boundary: lam = 1 - (1+delta)^-1 exactly
    assert m_star(0.7, 0.3) == 4
    assert m_star(0.7, 0.05) == 24


def test_m_star_closed_form_agreement_grid():
    lams = np.linspace(0.07, 0.93, 10)
    deltas = np.linspace(0.11, 3.41, 10)
    for lam in lams:
        for delta in deltas:
            scan = m_star(lam, delta)
            closed = math.floor(-math.log1p(-lam) / math.log1p(delta))
            assert scan == closed


def test_m_star_zero_iff_fast_updates():
    for lam in (0.3, 0.5, 0.7, 0.9):
        thresh = lam / (1 - lam)
        assert m_star(lam, thresh * 1.001) == 0
        assert m_star(lam, thresh * 0.999) >= 1


def test_solve_nu_against_quadratic_oracles():
    # frozen oracle values recomputed here from the quadratics
    nu1 = nu_quadratic_level1(0.7, 0.85)
    assert nu1 == pytest.approx(4.272592788435048, abs=1e-9)
    assert solve_nu(0.7, 0.85, 1) == pytest.approx(nu1, abs=1e-9)

    nu0 = nu_quadratic_level0(0.7, 2.5)
    assert nu0 == pytest.approx(35.65042945434554, abs=1e-9)
    assert solve_nu(0.7, 2.5, 0) == pytest.approx(nu0, abs=1e-9)


def test_solve_nu_boundary_case_is_zero():
    assert solve_nu(0.5, 1.0, 1) == 0.0


def test_h_is_decreasing_with_stated_limits():
    for lam, delta in [(0.7, 0.85), (0.6, 0.4), (0.9, 1.7)]:
        m = m_star(lam, delta)
        a = 1.0 / (1.0 + delta)
        grid = np.linspace(0.0, 50.0, 200)
        vals = [h_value(nu, delta, m) for nu in grid]
        assert all(x > y for x, y in zip(vals, vals[1:]))
        assert vals[0] == pytest.approx(a**m, abs=1e-12)
        assert h_value(1e9, delta, m) == pytest.approx(a ** (m + 1), rel=1e-6)


def test_y_star_boundary_case_entries():
    fp = y_star(0.5, 1.0)
    y = fp.y_star.y
    assert fp.nu == 0.0
    assert y[0, 1] == pytest.approx(0.5)
    assert y[1, 1] == pytest.approx(0.5)
    assert np.abs(y[:, 2]).max() == 0.0  # second column empty in this case


def test_y_star_idle_fraction_and_normalization():
    for lam, delta in [(0.7, 0.85), (0.7, 2.5), (0.3, 0.2), (0.9, 1.0)]:
        fp = y_star(lam, delta)
        y = fp.y_star.y
        assert y.sum() == pytest.approx(1.0, abs=1e-12)
        idle = y[0, fp.m_star] + y[0, fp.m_star + 1]
        assert idle == pytest.approx(1.0 - lam, abs=1e-10)
        # support confined to the two stationary columns
        mask = np.ones(y.shape[1], dtype=bool)
        mask[[fp.m_star, fp.m_star + 1]] = False
        assert np.abs(y[:, mask]).max() == 0.0
        assert fp.residual < 1e-8


def test_q_tilde_values():
    assert y_star(0.5, 1.0).q_tilde == pytest.approx(0.5, abs=1e-12)
    # frozen oracle values (nu from the quadratics above)
    assert y_star(0.7, 0.85).q_tilde == pytest.approx(1.072318373869227, abs=1e-9)
    assert y_star(0.7, 2.5).q_tilde == pytest.approx(0.7, abs=1e-9)


def test_q_tilde_matches_moment_sum():
    for lam, delta in [(0.7, 0.85), (0.7, 2.5), (0.4, 0.15), (0.9, 0.6)]:
        fp = y_star(lam, delta)
        v = fp.y_star.y.sum(axis=1)
        moment = float(np.dot(np.arange(len(v)), v))
        assert fp.q_tilde == pytest.approx(moment, abs=1e-10)


def test_q_tilde_bounds_and_monotonicity():
    for lam, delta in [(0.7, 0.85), (0.7, 0.3), (0.5, 0.2)]:
        fp = y_star(lam, delta)
        assert fp.m_star - lam / delta - 1e-12 <= fp.q_tilde
        assert fp.q_tilde <= fp.m_star + 1 - lam / delta + 1e-12
    assert y_star(0.7, 0.05).q_tilde > y_star(0.7, 0.1).q_tilde
    # strictly decreasing while queueing persists, then saturated at lam
    # (every queue holds 0 or 1 jobs, so the mean equals the utilization)
    deltas = np.linspace(0.1, 3.0, 25)
    q_vals = [y_star(0.7, d).q_tilde for d in deltas]
    assert all(a >= b - 1e-9 for a, b in zip(q_vals, q_vals[1:]))
    below = [q for d, q in zip(deltas, q_vals) if d < 0.7 / 0.3]
    assert all(a > b for a, b in zip(below, below[1:]))
    assert y_star(0.7, 3.0).q_tilde == pytest.approx(0.7, abs=1e-9)


def test_y_star_refuses_grids_over_the_memory_budget():
    # default_jmax(0.7, 1e-4) = 24090: 4.6 GB per dense array
    with pytest.raises(ValueError, match="budget"):
        y_star(0.7, 1e-4)
    assert 8 * (default_jmax(0.7, 5e-4) + 1) ** 2 <= MAX_STATE_BYTES


def test_m_star_det_values_and_dominance():
    assert m_star_det(0.7, 0.85) == 1
    assert m_star_det(0.7, 2.5) == 0
    assert m_star_det(0.7, 0.3) == 2
    for lam in (0.3, 0.5, 0.7, 0.9):
        for delta in (0.1, 0.5, 1.0, 2.5):
            assert m_star_det(lam, delta) <= m_star(lam, delta)


def test_m_star_det_level1_feasibility():
    # level 1 is feasible exactly when 1 - e^{-1/delta} <= lam/delta
    for lam, delta in [(0.7, 0.85), (0.2, 0.5), (0.9, 3.0)]:
        feasible = 1.0 - math.exp(-1.0 / delta) <= lam / delta
        assert (m_star_det(lam, delta) >= 1) == feasible


def test_solve_nu_returns_past_the_float_resolution_of_nu_tol():
    # at lam 0.5 the root nu grows as 1/(delta - 1); past about 8192 one ulp
    # of nu exceeds NU_TOL, and the bisection must still stop.  A subprocess,
    # so that a hang fails the test instead of stalling the suite
    code = (
        "from sparselb.fixed_point import h_value, y_star; "
        "fp = y_star(0.5, 1.0001); "
        "print(fp.nu, h_value(fp.nu, 1.0001, fp.m_star))"
    )
    src = str(Path(sparselb.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60, check=True)
    nu, h = map(float, proc.stdout.split())
    assert nu > 8192.0
    assert h == pytest.approx(0.5, rel=1e-9)


def test_endless_level_scans_are_refused():
    # m_star_det at delta = inf and queue_bound at T = inf (delta = 0) scan
    # levels without end unless refused, and y_star at delta = inf divides by
    # zero.  A subprocess, so that a hang fails the test instead of stalling
    # the suite
    code = (
        "from math import inf\n"
        "from sparselb.fixed_point import m_star_det, y_star\n"
        "from sparselb.fluid_sync import queue_bound\n"
        "from sparselb.model import StateError\n"
        "for call in (lambda: m_star_det(0.7, inf), lambda: y_star(0.7, inf),\n"
        "             lambda: queue_bound(0.7, inf)):\n"
        "    try:\n"
        "        call()\n"
        "    except StateError:\n"
        "        print('refused')\n"
    )
    src = str(Path(sparselb.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout.split() == ["refused"] * 3


def test_y_star_refuses_just_above_the_no_queueing_threshold():
    # at lam 0.5 the threshold is delta = 1, and nu grows as 1/(delta - 1):
    # the state's column m_star holds about 1/(2 nu)
    fp = y_star(0.5, 1.000001)
    assert fp.nu == pytest.approx(1000001.4997, abs=1e-4)
    assert fp.y_star.y[:, fp.m_star].sum() == pytest.approx(5.0e-7, rel=1e-5)
    with pytest.raises(StateError, match="column m_star"):  # 5e-12, below SWITCH_TOL
        y_star(0.5, 1.00000000001)
    with pytest.raises(StateError, match="nu passes 1e12"):
        y_star(0.5, 1.0000000000001)


def random_pairs():
    rng = np.random.default_rng(1)
    lams = rng.uniform(1e-6, 1.0 - 1e-6, 20000)
    deltas = 10.0 ** rng.uniform(-3.0, 2.0, 20000)
    return [(float(lam), float(delta)) for lam, delta in zip(lams, deltas)]


def boundary_pairs():
    # lam = 1 - (1+delta)^-k: the defining inequality holds with equality at
    # m = k - 1, where the rounding of the closed form's logarithms decides
    rng = np.random.default_rng(2)
    deltas = 10.0 ** rng.uniform(-3.0, 1.0, 5000)
    ks = np.ceil(rng.uniform(0.01, 30.0, 5000) / np.log1p(deltas))
    return [(1.0 - (1.0 + float(delta)) ** -int(k), float(delta)) for delta, k in zip(deltas, ks)]


def below_boundary_pairs():
    # one float below each boundary, where the answer is k - 1
    return [(math.nextafter(lam, 0.0), delta) for lam, delta in boundary_pairs()]


@pytest.mark.parametrize("pairs", [random_pairs, boundary_pairs, below_boundary_pairs])
def test_m_star_is_the_least_level_meeting_its_inequality(pairs):
    low = high = 0
    for lam, delta in pairs():
        m = m_star(lam, delta)
        assert lam < 1.0 - (1.0 + delta) ** -(m + 1)
        assert m == 0 or not lam < 1.0 - (1.0 + delta) ** -m
        floor = math.floor(-math.log1p(-lam) / math.log1p(delta))
        low, high = low + (floor < m), high + (floor > m)
    # the closed form's floor alone is one level low on many boundaries, and
    # one level high just below some
    if pairs is not random_pairs:
        assert (low if pairs is boundary_pairs else high) > 0


def test_y_star_support_check_boundary():
    # at lam 0.7, delta 0.85 the support is levels 1 and 2
    with pytest.raises(ValueError, match="jmax=2 too small for support level 2"):
        y_star(0.7, 0.85, jmax=2)
    assert y_star(0.7, 0.85, jmax=3).y_star.y.shape == (4, 4)


def test_y_star_state_budget_boundary_is_exact(monkeypatch):
    monkeypatch.setattr(model, "MAX_STATE_BYTES", 8 * 11 ** 2)
    assert y_star(0.7, 0.85, jmax=10).y_star.y.shape == (11, 11)
    monkeypatch.setattr(model, "MAX_STATE_BYTES", 8 * 11 ** 2 - 1)
    with pytest.raises(StateError, match="y_star: 1 x .* budget"):
        y_star(0.7, 0.85, jmax=10)


def test_m_star_det_stops_at_m_star(monkeypatch):
    # with no completions every level fits the budget: the scan must raise at
    # m_star + 1, neither stop at m_star as if it were the answer nor run on
    monkeypatch.setattr(fixed_point, "poisson_ab", lambda level, t: PoissonMoments(level, 0.0))
    with pytest.raises(ConsistencyError, match="level 2 exceeds m_star = 1"):
        m_star_det(0.7, 0.85)


def test_m_star_det_refuses_grids_over_the_memory_budget():
    # m_star(0.7, 1e-4) = 12040 levels, each a Poisson pmf as long as the level
    with pytest.raises(StateError, match="m_star_det: .* budget"):
        m_star_det(0.7, 1e-4)


@pytest.mark.parametrize("delta", [1e150, 1e154, 1e155, 1e300, 1.7e308])
def test_y_star_at_huge_delta(delta):
    # far above the threshold the queues hold 0 or 1 job, so q_tilde = lam;
    # (1+delta)^-2 and (1+delta)^2 (1+nu) are out of float range here
    fp = y_star(0.7, delta)
    assert fp.m_star == 0 and m_star_det(0.7, delta) == 0
    assert fp.q_tilde == pytest.approx(0.7, abs=1e-12)
    assert fp.y_star.y[0, 0] == pytest.approx(0.3, abs=1e-12)
    assert fp.y_star.y[1, 1] == pytest.approx(0.7, abs=1e-12)


def test_level_scans_end_at_extreme_periods():
    # each call ran without end or to a 100,000-level cap: 1 - e^-t rounded to
    # 0 at t = 5e-17 and 1e-17, and queue_bound's level grows with T.  A
    # subprocess, so that a hang fails the test instead of stalling the suite
    code = (
        "from sparselb.fixed_point import m_star_det\n"
        "from sparselb.fluid_sync import queue_bound\n"
        "from sparselb.model import StateError\n"
        "print(m_star_det(0.7, 2e16), queue_bound(0.7, 1e-17).s_star)\n"
        "try:\n"
        "    queue_bound(0.7, 1e5)\n"
        "except StateError as err:\n"
        "    print(err)\n"
    )
    src = str(Path(sparselb.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60, check=True)
    first, refusal = proc.stdout.splitlines()
    assert first == "0 4"
    assert refusal.startswith("queue_bound: 1 x (jmax+1)^2 floats at jmax=")


def test_y_star_solves_at_large_delta():
    # rhs_async's terms scale with delta, so the residual gate scales with
    # max(1, delta): gated absolutely, 254 of these pairs raised by rounding,
    # at delta from 8e7 to 1e18, where the scaled residual reads <= 2.1e-16
    rng = np.random.default_rng(7)
    lams = rng.uniform(0.05, 0.999, 1500)
    deltas = 10.0 ** rng.uniform(4, 20, 1500)
    for lam, delta in zip(lams.tolist(), deltas.tolist()):
        fp = y_star(lam, delta)
        assert fp.residual / delta < 1e-15


@pytest.mark.parametrize("delta", [0.85, 1e12])
def test_y_star_refuses_a_residual_over_its_gate(delta, monkeypatch):
    # the gate fires on a derivative 2e-8 x max(1, delta) off zero at one entry
    rhs = fixed_point.rhs_async

    def off(y, lam, d):
        dy = rhs(y, lam, d)
        dy[0, 0] += 2e-8 * max(1.0, d)
        return dy

    monkeypatch.setattr(fixed_point, "rhs_async", off)
    with pytest.raises(ConsistencyError, match="stationary state residual"):
        y_star(0.7, delta)
