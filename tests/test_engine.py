import math
import random

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from unruh_otto import engine
from unruh_otto.engine import (CycleSolution, EngineConfig,
                               classical_delta_p, critical_probability,
                               solve_cycle, stage_ledger, work_comparison)
from unruh_otto.errors import DomainError
from unruh_otto.response import j_function

# frozen outputs of the validated build
P0_40_15_08 = 0.3114024704452785
DP_HOT_40_15_08 = 0.0055994935863911055
GOLDEN_CYCLE_DP = 5.5994935863911065e-05   # same point at g = 0.1
CLASSICAL_40_15 = 0.010410822069900998


def _cfg(**overrides):
    base = dict(omega1=1.0, omega2=2.0, alpha_H=80.0, alpha_C=15.0,
                v=0.8, g=0.1)
    base.update(overrides)
    return EngineConfig(**base)


def kick_sum(a_H, a_C, v):
    """Independent route to the cycle-closing equation, affine in p."""
    y = 2.0 * math.atanh(v)
    j_sum = j_function(-1.0 / a_H, y) + j_function(-1.0 / a_C, y)
    slope = -2.0 * j_sum - math.atanh(v) * (a_H + a_C) / (2.0 * a_H * a_C)
    return lambda p: j_sum + slope * p


# ---------------------------------------------------------------------------
# stage ledger

def test_ledger_worked_example():
    led = stage_ledger(_cfg(p=0.3), dp_hot=0.01)
    assert led.w1 == pytest.approx(0.3, rel=1e-14)
    assert led.q2 == pytest.approx(0.02, rel=1e-14)
    assert led.w3 == pytest.approx(-0.31, rel=1e-14)
    assert led.q4 == pytest.approx(-0.01, rel=1e-14)
    assert led.w_ext == pytest.approx(0.01, rel=1e-12)
    assert led.eta == 0.5


def test_ledger_contact_stages_are_pure_heat():
    led = stage_ledger(_cfg(p=0.42), dp_hot=0.003)
    assert led.q1 == led.w2 == led.q3 == led.w4 == 0.0


def test_degenerate_gap():
    led = stage_ledger(_cfg(omega2=1.0, alpha_H=8.0, p=0.3), dp_hot=0.01)
    assert led.w1 == led.w3 == 0.0
    assert led.q_total == 0.0 and led.w_ext == 0.0
    assert led.eta == 0.0


@given(omega1=st.floats(0.1, 10.0), scale=st.floats(1.0, 10.0),
       p=st.floats(0.0, 1.0), dp=st.floats(-0.2, 0.2))
@example(omega1=0.5, scale=2.0, p=0.0, dp=5e-324)  # every stage term subnormal
@settings(max_examples=200, deadline=None)
def test_first_law(omega1, scale, p, dp):
    cfg = _cfg(omega1=omega1, omega2=omega1 * scale, p=p)
    led = stage_ledger(cfg, dp)
    assert led.first_law_residual <= 1e-12
    assert led.q_total + led.w_total == pytest.approx(0.0, abs=1e-12)


def test_efficiency_ignores_everything_but_gaps():
    etas = {stage_ledger(_cfg(alpha_H=aH, alpha_C=aC, v=v, g=g, p=p),
                         dp).eta
            for aH, aC, v, g, p, dp in [
                (80.0, 15.0, 0.8, 0.1, 0.0, 0.01),
                (2.0, 90.0, 0.3, 1.0, 0.7, -0.05),
                (33.0, 33.0, 0.95, 0.5, 0.5, 0.0)]}
    assert etas == {0.5}


# ---------------------------------------------------------------------------
# critical probability

def test_fixed_point_reference():
    assert critical_probability(40.0, 15.0, 0.8) == pytest.approx(
        P0_40_15_08, rel=1e-12)


def test_fixed_point_closes_cycle():
    f = kick_sum(40.0, 15.0, 0.8)
    assert abs(f(critical_probability(40.0, 15.0, 0.8))) < 1e-15


def test_fixed_point_can_leave_unit_interval():
    # both contacts de-excite here, so the affine fixed point is negative
    p0 = critical_probability(10.0, 5.0, 0.5)
    assert p0 == pytest.approx(-0.40757952471692505, rel=1e-10)


def test_fixed_point_matches_independent_root():
    p0 = critical_probability(10.0, 5.0, 0.5)
    root = brentq(kick_sum(10.0, 5.0, 0.5), -5.0, 5.0, xtol=1e-14)
    assert p0 == pytest.approx(root, abs=1e-9)


def test_symmetric_contacts_kick_nothing():
    # dp_hot is exactly 0 on a_H = a_C, so feasible no longer follows the
    # sign of rounding noise (it was true at a = 5 and 1000 at v = 0.8)
    for a in (3.0, 5.0, 40.0, 150.0, 204.0, 1000.0):
        p0 = critical_probability(a, a, 0.8)
        sol = solve_cycle(EngineConfig(omega1=1.0, omega2=1.0, alpha_H=a,
                                       alpha_C=a, v=0.8))
        assert sol.p0 == p0
        assert sol.dp_hot == 0.0
        assert not sol.feasible
        assert work_comparison(a, a, [0.3, 0.8])[1][1] == 0.0


@pytest.mark.parametrize("args", [(0.0, 1.0, 0.5), (1.0, -2.0, 0.5),
                                  (1.0, 1.0, 0.0), (1.0, 1.0, 0.9999)])
def test_fixed_point_domain(args):
    with pytest.raises(DomainError):
        critical_probability(*args)


def _fixed_point_50_digits(a_H, a_C, v):
    """p0 = P / (1 + 2 P) and dp_hot at g = 1, to 50 digits from the two
    float J values, each with the scale its float evaluation errs on.

    Both scales carry the condition number of the denominator
    D = (1/a_H + 1/a_C) t + 4 (J_H + J_C), which is 1 unless its terms
    cancel (next to P = -1/2); dp_hot's scale also carries the cancellation
    in a_H J_H - a_C J_C.
    """
    y = 2.0 * math.atanh(v)
    j_hot, j_cold = j_function(-1.0 / a_H, y), j_function(-1.0 / a_C, y)
    with mpmath.workdps(50):
        a_H, a_C = mpmath.mpf(a_H), mpmath.mpf(a_C)
        j_hot, j_cold = mpmath.mpf(j_hot), mpmath.mpf(j_cold)
        t = mpmath.atanh(mpmath.mpf(v))
        pump = 2 * a_H * a_C * (j_hot + j_cold) / ((a_H + a_C) * t)
        p0 = pump / (1 + 2 * pump)
        dp_hot = (a_H * j_hot - a_C * j_cold) / ((a_H + a_C) * (1 + 2 * pump))
        rate = (1 / a_H + 1 / a_C) * t
        cond = ((rate + 4 * (abs(j_hot) + abs(j_cold)))
                / abs(rate + 4 * (j_hot + j_cold)))
        dp_scale = ((a_H * abs(j_hot) + a_C * abs(j_cold))
                    / ((a_H + a_C) * abs(1 + 2 * pump)))
        return (float(p0), float(dp_hot), float(abs(p0) * cond),
                float(dp_scale * cond))


def test_fixed_point_where_the_pump_underflows():
    # (a_H + a_C) atanh(v) = 3e-600 rounds to 0.0, and so does the
    # numerator of P; D has no such product
    p0, dp_hot = engine._fixed_point(1e-300, 2e-300, 1e-300)
    assert p0 == pytest.approx(-0.49786143366223283, rel=1e-15)
    assert dp_hot == pytest.approx(0.03322682335445088, rel=1e-15)


@pytest.mark.parametrize("v", [1e-12, 0.5, 0.99])
def test_fixed_point_across_the_float_range(v):
    # log-uniform accelerations, where a_H a_C or (a_H + a_C) t leaves the
    # float range at about one point in seven; no term of D does
    rng = random.Random(27)
    for _ in range(100):
        a_H, a_C = (10.0 ** rng.uniform(-300.0, 300.0) for _ in range(2))
        p0, dp_hot = engine._fixed_point(a_H, a_C, v)
        want_p0, want_dp, p0_scale, dp_scale = _fixed_point_50_digits(
            a_H, a_C, v)
        assert abs(p0 - want_p0) <= 1e-14 * p0_scale, (a_H, a_C)
        assert abs(dp_hot - want_dp) <= 1e-14 * dp_scale, (a_H, a_C)


# ---------------------------------------------------------------------------
# cycle solution

def test_reference_cycle():
    sol = solve_cycle(_cfg())
    assert isinstance(sol, CycleSolution)
    assert sol.p0 == pytest.approx(P0_40_15_08, rel=1e-12)
    assert sol.dp_hot == pytest.approx(GOLDEN_CYCLE_DP, rel=1e-12)
    assert sol.dp_cold == -sol.dp_hot
    assert sol.feasible
    assert sol.validity_hot.passed and sol.validity_cold.passed
    assert sol.validity_hot.in_unit_interval


def test_reference_cycle_uses_reduced_accelerations():
    # alpha_H=80 at gap 2 and alpha_C=15 at gap 1 is the (40, 15) cycle
    cfg = _cfg()
    assert cfg.a_H == 40.0 and cfg.a_C == 15.0
    assert solve_cycle(cfg).dp_hot == pytest.approx(
        0.01 * DP_HOT_40_15_08, rel=1e-12)


def test_swapping_contacts_flips_feasibility():
    hot_dominant = solve_cycle(_cfg())
    cold_dominant = solve_cycle(_cfg(alpha_H=15.0 * 2.0, alpha_C=40.0))
    assert hot_dominant.feasible
    assert not cold_dominant.feasible
    assert cold_dominant.dp_hot < 0.0


def test_solution_scale_with_coupling():
    weak = solve_cycle(_cfg(g=0.1))
    strong = solve_cycle(_cfg(g=1.0))
    assert weak.p0 == strong.p0
    assert weak.dp_hot == pytest.approx(strong.dp_hot * 0.01, rel=1e-12)


@pytest.mark.parametrize("bad", [
    dict(omega1=0.0), dict(omega1=-1.0), dict(omega2=0.5),
    dict(alpha_H=0.0), dict(alpha_C=-3.0), dict(v=0.0), dict(v=0.999),
    dict(g=0.0), dict(p=-0.1), dict(p=1.5),
])
def test_config_domain(bad):
    with pytest.raises(DomainError):
        _cfg(**bad)


# ---------------------------------------------------------------------------
# classical comparison

def test_classical_reference_value():
    assert classical_delta_p(40.0, 15.0) == pytest.approx(CLASSICAL_40_15,
                                                          rel=1e-12)


def test_classical_equal_temperatures():
    assert classical_delta_p(7.3, 7.3) == 0.0


def test_classical_saturation():
    assert classical_delta_p(1e12, 1e-12) == pytest.approx(0.5, rel=1e-9)


def test_classical_hotter_bath_pumps_up():
    rng = random.Random(7)
    for _ in range(50):
        a_C = rng.uniform(0.1, 100.0)
        a_H = a_C * rng.uniform(1.001, 10.0)
        assert classical_delta_p(a_H, a_C) > 0.0


def test_work_comparison_table():
    rows = work_comparison(40.0, 15.0, [0.3, 0.5, 0.7, 0.9])
    assert [r[0] for r in rows] == [0.3, 0.5, 0.7, 0.9]
    w_unruh = [r[1] for r in rows]
    assert w_unruh == sorted(w_unruh)           # grows with contact length
    assert all(r[2] == rows[0][2] for r in rows)  # bath value has no v
    assert all(r[1] < r[2] for r in rows)       # always below full thermalization
    assert rows[1][1] == pytest.approx(0.002795594863061117, rel=1e-12)


def _count_j_calls(monkeypatch):
    calls = []

    def counted(x, y):
        calls.append((x, y))
        return j_function(x, y)

    monkeypatch.setattr(engine, "j_function", counted)
    return calls


def test_solve_cycle_evaluates_j_twice(monkeypatch):
    # J(-1/a_H, y) and J(-1/a_C, y) serve p0, its residual check and dp_hot
    calls = _count_j_calls(monkeypatch)
    sol = solve_cycle(_cfg())
    y = 2.0 * math.atanh(0.8)
    assert sorted(calls) == sorted([(-1.0 / 40.0, y), (-1.0 / 15.0, y)])
    assert sol.dp_hot == pytest.approx(0.01 * DP_HOT_40_15_08, rel=1e-12)


def test_work_comparison_evaluates_j_twice_per_speed(monkeypatch):
    calls = _count_j_calls(monkeypatch)
    rows = work_comparison(40.0, 15.0, [0.3, 0.5, 0.7])
    assert len(calls) == 2 * len(rows)
    assert rows[1][1] == pytest.approx(0.002795594863061117, rel=1e-12)


def test_work_comparison_degenerate_contacts():
    rows = work_comparison(25.0, 25.0, [0.5])
    assert rows[0][1] == pytest.approx(0.0, abs=1e-15)
    assert rows[0][2] == 0.0
