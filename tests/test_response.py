import math
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unruh_otto import specfun
from unruh_otto.errors import DomainError
from unruh_otto.response import (V_MAX, delta_p, delta_p_unreduced,
                                 j_function, perturbative_validity, v_max_for,
                                 vacuum_response)

EPS = 2.0 ** -52
Y8 = 2.0 * math.atanh(0.8)
Y5 = 2.0 * math.atanh(0.5)

# frozen reference values, cross-validated against both quadrature oracles
J_M40 = 0.026182410419473473   # J(-1/40, 2*atanh 0.8)
J_P40 = 0.039915064027824854   # J(+1/40, 2*atanh 0.8)
J_M15 = 0.015387774305436582   # J(-1/15, 2*atanh 0.8)
J_M100 = 0.008611099822741896  # J(-0.01, 2*atanh 0.5)


@pytest.mark.parametrize("x,y,expected", [
    (-1 / 40, Y8, J_M40),
    (1 / 40, Y8, J_P40),
    (-1 / 15, Y8, J_M15),
    (-0.01, Y5, J_M100),
])
def test_reference_values(x, y, expected):
    assert j_function(x, y) == pytest.approx(expected, rel=1e-12)


def test_asymmetry_at_a_point():
    x, y = 0.3, 1.0
    assert j_function(x, y) - j_function(-x, y) == pytest.approx(0.075,
                                                                 abs=1e-10)


@given(x=st.floats(-5.0, 5.0).filter(lambda t: abs(t) > 1e-3),
       y=st.floats(0.01, 2.0 * math.pi - 0.01))
@settings(max_examples=200, deadline=None)
def test_asymmetry_identity(x, y):
    assert abs(j_function(x, y) - j_function(-x, y) - x * y / 4.0) < 1e-10


def test_vanishing_window():
    for x in (-2.0, -0.1, 0.1, 2.0):
        assert abs(j_function(x, 1e-6)) < 1e-6


@pytest.mark.parametrize("y", [1e-200, 1e-300, 5e-324])
@pytest.mark.parametrize("x", [0.025, 2.0])
def test_asymmetry_where_sin_squared_underflows(x, y):
    # sin(y/2)^2 underflows to 0 here; it divided by zero before
    plus, minus = j_function(x, y), j_function(-x, y)
    assert math.isfinite(plus) and math.isfinite(minus)
    assert abs(plus - minus - x * y / 4.0) <= 1e-15


@pytest.mark.parametrize("x", [1e300, 1e308])
def test_asymmetry_where_lerch_weight_underflows(x):
    # z = e^{-2 pi |x|} is 0 here, and |x| y^2 overflowed into inf * 0
    y = 5.0
    for signed in (x, -x):
        plus, minus = j_function(signed, y), j_function(-signed, y)
        assert math.isfinite(plus) and math.isfinite(minus)
        expected = 0.25 * signed * y
        assert abs(plus - minus - expected) <= 4 * EPS * abs(expected)


def test_small_window_slope():
    # J ~ sign(x) |x| y / 8 for y -> 0
    x, y = 0.7, 1e-4
    assert j_function(x, y) == pytest.approx(x * y / 8.0, rel=1e-3)


@pytest.mark.parametrize("x,y", [
    (0.0, 1.0), (math.inf, 1.0), (math.nan, 1.0),
    (0.5, 0.0), (0.5, -1.0), (0.5, 2.0 * math.pi), (0.5, 7.0),
])
def test_j_domain(x, y):
    with pytest.raises(DomainError):
        j_function(x, y)


def test_vacuum_response_is_reduced_j():
    assert vacuum_response(40.0, -1.0, Y8 / 40.0) == j_function(-1 / 40, Y8)
    assert vacuum_response(2.0, 3.0, 0.5) == j_function(1.5, 1.0)
    with pytest.raises(DomainError, match="alpha must be positive and finite"):
        vacuum_response(math.inf, 1.0, 0.5)
    with pytest.raises(DomainError, match="duration must be positive and finite"):
        vacuum_response(2.0, 1.0, math.inf)


def test_population_kick_reference():
    assert delta_p(40.0, 0.5, 0.8) == pytest.approx(-0.006866326804175686,
                                                    rel=1e-12)


def test_kick_signs_near_crossover():
    # hot contact pumps up, cold contact drains, below the fixed point
    assert delta_p(40.0, 0.293, 0.8) > 0.0
    assert delta_p(15.0, 0.293, 0.8) < 0.0


@pytest.mark.parametrize("a,v,g", [(40.0, 0.8, 1.0), (5.0, 0.3, 0.5),
                                   (100.0, 0.9, 2.0)])
def test_balanced_population_closed_form(a, v, g):
    expected = -g * g * math.atanh(v) / (4.0 * a)
    assert delta_p(a, 0.5, v, g) == pytest.approx(expected, rel=1e-12)


def test_vanishing_contact_time():
    assert abs(delta_p(7.0, 0.4, 1e-8)) < 1e-7


@given(a=st.floats(0.5, 200.0), p=st.floats(0.0, 1.0),
       v=st.floats(0.05, 0.95), g=st.floats(0.1, 2.0))
@settings(max_examples=150, deadline=None)
def test_reduced_and_unreduced_agree(a, p, v, g):
    assert delta_p(a, p, v, g) == pytest.approx(
        delta_p_unreduced(a, p, v, g), abs=1e-10)


@given(a=st.floats(0.5, 200.0), p1=st.floats(0.0, 0.5),
       p3=st.floats(0.5, 1.0), v=st.floats(0.05, 0.95))
@settings(max_examples=150, deadline=None)
def test_affine_in_population(a, p1, p3, v):
    p2 = 0.5 * (p1 + p3)
    second_diff = delta_p(a, p1, v) + delta_p(a, p3, v) - 2.0 * delta_p(a, p2, v)
    assert abs(second_diff) < 1e-12


@pytest.mark.parametrize("kwargs", [
    dict(a=0.0, p=0.5, v=0.5), dict(a=-1.0, p=0.5, v=0.5),
    dict(a=1.0, p=-0.1, v=0.5), dict(a=1.0, p=1.1, v=0.5),
    dict(a=1.0, p=0.5, v=0.0), dict(a=1.0, p=0.5, v=1.1),
    dict(a=1.0, p=0.5, v=0.999),  # above tanh(pi)
    dict(a=1.0, p=0.5, v=0.5, g=0.0), dict(a=1.0, p=0.5, v=0.5, g=math.inf),
])
def test_kick_domain(kwargs):
    with pytest.raises(DomainError):
        delta_p(**kwargs)


def _j_mpmath(x, y, dps=30):
    """J(x, y) from its closed form with mpmath.lerchphi at ``dps`` digits."""
    with mpmath.workdps(dps):
        x, y = mpmath.mpf(x), mpmath.mpf(y)
        ax = abs(x)
        z = mpmath.exp(-2 * mpmath.pi * ax)
        shift = y / (2 * mpmath.pi)
        value = ((y / 2) ** 2 * mpmath.exp(-ax * y)
                 / (8 * mpmath.sin(y / 2) ** 2)
                 - mpmath.mpf(1) / 8 + (ax * y / 4 if x > 0 else 0))
        for s, weight in ((2, y * y * z / (32 * mpmath.pi ** 2)),
                          (1, ax * y * y * z / (16 * mpmath.pi))):
            value += weight * (mpmath.lerchphi(z, s, 1 + shift)
                               - mpmath.lerchphi(z, s, 1 - shift))
        return float(value)


@pytest.mark.parametrize("a,v", [
    (1e2, 0.3), (1e3, 0.95), (10 ** 4.5, 0.5), (1e6, 0.8),
    (3e6, 0.8), (10 ** 7.5, 0.3), (1e9, 0.95),
    (1e18, 0.8), (1e30, 0.3), (1e30, 0.95),  # z rounds to 1 in floats
])
def test_large_acceleration_matches_mpmath(a, v):
    # z = e^{-2 pi / a} -> 1: the Lerch terms take the log-z expansion.
    # Beyond a ~ 1e16 the reference needs more digits to resolve 1 - z.
    y = 2.0 * math.atanh(v)
    dps = 30 + max(0, int(math.log10(a)) - 16)
    for x in (-1.0 / a, 1.0 / a):
        assert j_function(x, y) == pytest.approx(_j_mpmath(x, y, dps),
                                                 abs=1e-12)


def test_speed_ceiling_message():
    with pytest.raises(DomainError, match=r"v out of \(0, tanh\(pi\)\)"):
        delta_p(40.0, 0.1, 1.1)
    assert 0.9962 < V_MAX < 0.9963


def test_validity_ratio_pass_and_fail():
    good = perturbative_validity(40.0, 0.99, 1.0)
    assert good.passed and good.ratio == pytest.approx(15.11, abs=0.01)
    bad = perturbative_validity(1.0, 0.99, 1.0)
    assert not bad.passed and bad.ratio == pytest.approx(0.378, abs=0.001)


def test_validity_speed_ceiling():
    assert v_max_for(2.0, 1.0) == pytest.approx(math.tanh(2.0), rel=1e-15)
    verdict = perturbative_validity(2.0, 0.5, 1.0)
    assert verdict.v_max == pytest.approx(0.9640, abs=5e-5)


@pytest.mark.parametrize("a,g,name", [(math.inf, 1.0, "a"),
                                      (1.0, math.inf, "g")])
def test_v_max_for_rejects_non_finite(a, g, name):
    with pytest.raises(DomainError, match=f"{name} must be positive and finite"):
        v_max_for(a, g)


def test_validity_reports_shifted_population():
    verdict = perturbative_validity(40.0, 0.8, 1.0, p=0.5)
    assert verdict.population_after == pytest.approx(
        0.5 + delta_p(40.0, 0.5, 0.8), rel=1e-14)
    assert verdict.in_unit_interval is True


def test_validity_where_the_product_underflows():
    # g^2 atanh(v) = 1e-336 rounds to 0.0, where a / 0 raised
    # ZeroDivisionError; the ratio is inf, and p + delta_p is p
    verdict = perturbative_validity(1.0, 1e-300, 1e-18, p=0.3)
    assert verdict.ratio == math.inf and verdict.passed
    assert verdict.population_after == 0.3 and verdict.in_unit_interval


def test_validity_rejects_infinite_coupling():
    with pytest.raises(DomainError, match="g must be positive and finite"):
        perturbative_validity(40.0, 0.8, g=math.inf)


def test_validity_speed_domain_without_population():
    with pytest.raises(DomainError, match=r"v out of \(0, tanh\(pi\)\)"):
        perturbative_validity(40.0, 0.999)


# repr(J(x, y)) as computed before the Lerch sums of one call shared their
# terms and the shift-only values were cached: both Lerch branches on both
# sides of reduced acceleration 100, z rounding to 1 (|x| = 1e-18), y near 0
# and y = 2 pi - 1e-3.  These pin bytes, not accuracy: the rows at
# y = 2 pi - 1e-3 carry the double-pole cancellation (ROADMAP item 3).
FROZEN_J = (
    (-0.025, 2.1972245773362196, "0.026182410419473473"),
    (-0.5, 2.1972245773362196, "-0.06446832440912838"),
    (0.5, 2.1972245773362196, "0.21018474775789908"),
    (-0.05, 2.1972245773362196, "0.0196349739247234"),
    (0.05, 2.1972245773362196, "0.04710028114142614"),
    (-0.010101010101010102, 2.1972245773362196, "0.03018546066512845"),
    (0.010101010101010102, 2.1972245773362196, "0.03573400757759365"),
    (-0.009900990099009901, 2.1972245773362196, "0.030239715785823712"),
    (0.009900990099009901, 2.1972245773362196, "0.03567839048220049"),
    (-0.0001, 2.1972245773362196, "0.032914903164271356"),
    (0.0001, 2.1972245773362196, "0.03296983377870476"),
    (-1e-06, 2.1972245773362196, "0.032942092116363716"),
    (1e-06, 2.1972245773362196, "0.03294264142250805"),
    (-1e-18, 2.1972245773362196, "0.03294236676926569"),
    (1e-18, 2.1972245773362196, "0.03294236676926569"),
    (-0.5, 1e-06, "-6.249997393237306e-08"),
    (0.05, 1e-06, "6.250010598978765e-09"),
    (-0.001, 1e-06, "-1.2498957424852753e-10"),
    (-1e-18, 1e-06, "1.0436094008465246e-14"),
    (-0.5, 0.001, "-6.247396636961901e-05"),
    (0.05, 0.001, "6.2605704443749575e-06"),
    (-0.001, 0.001, "-1.1458569335319339e-07"),
    (-0.5, 6.282185307179586, "-0.07144619256743567"),
    (0.05, 6.282185307179586, "0.20224495183961722"),
    (-0.001, 6.282185307179586, "0.1604103329311073"),
    (1e-18, 6.282185307179586, "0.1611948693171094"),
)


@pytest.mark.parametrize("x,y,expected", FROZEN_J)
def test_j_bytes_are_frozen(x, y, expected):
    assert repr(j_function(x, y)) == expected


def _clear_shift_caches():
    specfun._shift_terms.cache_clear()


# both Lerch branches at every y: the log-z one from reduced acceleration 100
SWEEP_X = tuple(sign / a for a in (2.0, 40.0, 99.0, 101.0, 215.0, 1e4, 1e6)
                for sign in (-1.0, 1.0))


def test_shift_caches_keep_bytes():
    rng = random.Random(24)
    ys = [rng.uniform(0.01, 2.0 * math.pi - 0.01) for _ in range(6)]
    points = [(x, y) for y in ys for x in SWEEP_X]
    cold = {}
    for point in points:
        _clear_shift_caches()
        cold[point] = repr(j_function(*point))
    in_sweep_order = {point: repr(j_function(*point)) for point in points}
    interleaved = {(x, y): repr(j_function(x, y))
                   for x in SWEEP_X for y in ys}
    assert in_sweep_order == cold
    assert interleaved == cold

    # four threads share the caches; a short switch interval lets them
    # interleave inside a call
    calls = [rng.choice(points) for _ in range(800)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            threaded = list(pool.map(
                lambda part: [repr(j_function(*c)) for c in part],
                [calls[i::4] for i in range(4)], timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == [[cold[c] for c in calls[i::4]] for i in range(4)]
