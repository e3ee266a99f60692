import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unruh_otto import specfun
from unruh_otto.specfun import (_bernoulli_numbers, _digamma, _hurwitz_zeta,
                                _log_z_series, lerch_part)

# J's Lerch part at z = 0.9 and c = 0.3 (shifts 1.3 and 0.7), independently
# computed with 50-digit working precision from mpmath.lerchphi
GOLDEN_X = -math.log(0.9) / (2.0 * math.pi)
GOLDEN_Y = 0.6 * math.pi
GOLDEN = -0.017757740870957873
EPS = 2.0 ** -52


def test_golden_value():
    # the direct branch: |log z| = 0.105 is beyond the log-z switch
    value = lerch_part(0.9, math.log(0.9), GOLDEN_X, GOLDEN_Y)
    assert value == pytest.approx(GOLDEN, rel=4 * EPS)


def test_s1_matches_logarithm():
    # sum z^k/(k+1) = -log(1-z)/z, at the switch and inside it
    for w in (-specfun._LOG_Z_SWITCH, -1e-2, -1e-4, -1e-9):
        expected = -math.log(-math.expm1(w)) * math.exp(-w)
        assert _log_z_series(w, 1, 1.0) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("z,s,y", [
    (0.3, 1, 0.5),
    (0.7, 2, 1.0),
    (0.95, 2, 0.05),
    (0.999, 1, 2.5),
    (0.5, 2, 3.0),
])
def test_matches_extended_precision(z, s, y):
    # the order-s pair of J's Lerch part, weight * [phi(z,s,1+c) -
    # phi(z,s,1-c)] with c = y/2pi, on both branches (the log-z one for
    # z = 0.95 and 0.999).  lerch_part is linear in x_abs, the weight of the
    # order-1 pair, so x_abs = 0 leaves the order-2 pair alone.  2e-12 of
    # the weight is the log-z expansion's bound on the two phi
    log_z = math.log(z)
    x_abs = -log_z / (2.0 * math.pi)
    with mpmath.workdps(50):
        c = mpmath.mpf(y) / (2 * mpmath.pi)
        weight = mpmath.mpf(y) ** 2 * z / (32 * mpmath.pi ** 2)
        if s == 1:
            weight = x_abs * mpmath.mpf(y) ** 2 * z / (16 * mpmath.pi)
        expected = weight * (mpmath.lerchphi(z, s, 1 + c)
                             - mpmath.lerchphi(z, s, 1 - c))
    value = lerch_part(z, log_z, 0.0, y)
    if s == 1:
        value = lerch_part(z, log_z, x_abs, y) - value
    assert abs(value - expected) <= 2e-12 * weight + 8 * EPS * abs(expected)


@pytest.mark.parametrize("z,s,a", [
    (0.95, 2, 0.05),
    (math.exp(-specfun._LOG_Z_SWITCH), 1, 1e-6),
    (math.exp(-specfun._LOG_Z_SWITCH), 2, 2.0),
    (0.999, 1, 1.5),
    (1 - 1e-12, 2, 0.5),
])
def test_log_z_series_matches_extended_precision(z, s, a):
    expected = mpmath.lerchphi(z, s, a)
    value = _log_z_series(math.log(z), s, a)
    assert abs(value - expected) <= 1e-12 + 8 * EPS * abs(expected)


def test_near_one_takes_log_z_expansion():
    # direct summation would need about 1e13 terms at tol 1e-12
    z = 1 - 1e-12
    expected = float(mpmath.lerchphi(z, 2, 1.0))
    assert abs(_log_z_series(math.log(z), 2, 1.0) - expected) <= 1e-12


@given(log_a=st.floats(2.0, 9.0), a=st.floats(1e-6, 2.0),
       s=st.sampled_from([1, 2]))
@settings(max_examples=60, deadline=None)
def test_matches_mpmath_across_log_z_switch(log_a, a, s):
    # z = e^{-2 pi / A} for reduced accelerations A in [100, 1e9]: the
    # log-z expansion from its switch up (the direct branch is J's, and
    # test_response checks it).  1e-12 bounds the truncation; rounding adds
    # a few ulps of the value, which only shows where phi ~ a^-s is large.
    z = math.exp(-2.0 * math.pi / 10.0 ** log_a)
    value = _log_z_series(math.log(z), s, a)
    assert type(value) is float
    expected = mpmath.lerchphi(mpmath.mpf(z), s, mpmath.mpf(a))
    assert abs(value - expected) <= 1e-12 + 8 * EPS * abs(expected)


@pytest.mark.parametrize("s", [1, 2, 3])
def test_log_z_terms_certify_tol(s):
    # the module docstring's tail bound after K = _NEGATIVE_TERMS terms, at
    # the largest |w| the expansion takes: z^-a [(pi^2/3) |w|^(s-1) r^(K+1)
    # / ((K+1)^s (1-r)) + |w|^(s+K) / ((s+K)! (1-|w|))], the second part
    # for a > 1 only.  Five terms leave about 1e-10 at s = 1, a > 1
    w = -specfun._LOG_Z_SWITCH
    r = -w / (2.0 * math.pi)
    k = specfun._NEGATIVE_TERMS
    grid = [i / 100 for i in range(1, 201)]  # up to a = 2
    for a in [1e-6, math.nextafter(1.0, 2.0)] + grid:
        bound = (math.pi ** 2 / 3.0 * (-w) ** (s - 1) * r ** (k + 1)
                 / ((k + 1) ** s * (1.0 - r)))
        if a > 1.0:
            bound += (-w) ** (s + k) / (math.factorial(s + k) * (1.0 + w))
        assert math.exp(-a * w) * bound <= 1e-12, a


def test_direct_prefix_meets_its_bound_at_the_switch():
    # the module docstring's tail bound after the longest prefix,
    # z^(N+1) |r(N+1)| / (1 - z) with N = 512, is below 2^-60 z |r(1)| for
    # every c at the switch, where z is largest: no term cap is needed
    w = -specfun._LOG_Z_SWITCH
    x_abs = -w / (2.0 * math.pi)
    n = specfun._MAX_TERMS
    for c in [i / 1000 for i in range(1000)] + [1.0 - 1e-16]:
        def r(m):
            d = m * m - c * c
            return (m / (math.pi * d) + x_abs) / d
        assert math.exp(n * w) * r(n + 1) <= 2.0 ** -60 * -math.expm1(w) * r(1), c


# w = log z over the log-z expansion's range
LOG_Z = st.floats(-specfun._LOG_Z_SWITCH, -1e-12)


@given(w=LOG_Z, a1=st.floats(1e-6, 1.9), bump=st.floats(0.01, 1.0),
       s=st.sampled_from([1, 2]))
@settings(max_examples=60, deadline=None)
def test_decreasing_in_a(w, a1, bump, s):
    # every series term 1/(k+a)^s shrinks as a grows
    a2 = a1 + bump * (2.0 - a1)
    assert _log_z_series(w, s, a1) > _log_z_series(w, s, a2)


@given(w=LOG_Z, a=st.floats(1.0, 2.0))
@settings(max_examples=60, deadline=None)
def test_s2_below_s1(w, a):
    # term-wise 1/(k+a)^2 <= 1/(k+a) once a >= 1
    assert _log_z_series(w, 2, a) <= _log_z_series(w, 1, a) + 1e-15


def test_bernoulli_numbers_are_exact():
    numbers = _bernoulli_numbers()
    assert numbers[:5] == (1, Fraction(-1, 2), Fraction(1, 6), 0,
                           Fraction(-1, 30))
    assert numbers[30] == Fraction(8615841276005, 14322)
    assert all(b == 0 for b in numbers[3::2])


# a log-uniform over [1e-6, 2], the range the log-z expansion asks for.
# The bounds are the largest errors of scipy.special.digamma and zeta over
# 3005 such points against 30-digit mpmath, which these replace.
LOG_A = st.floats(-6.0, math.log10(2.0))


@given(log_a=LOG_A)
@settings(max_examples=300, deadline=None)
def test_digamma_matches_mpmath(log_a):
    a = min(2.0, 10.0 ** log_a)
    with mpmath.workdps(30):
        expected = mpmath.digamma(mpmath.mpf(a))
        assert abs(_digamma(a) - expected) <= 3.4e-16 * max(1, abs(expected))


@given(log_a=LOG_A, n=st.sampled_from([2, 3, 5]))
@settings(max_examples=300, deadline=None)
def test_hurwitz_zeta_matches_mpmath(log_a, n):
    a = min(2.0, 10.0 ** log_a)
    with mpmath.workdps(30):
        expected = mpmath.zeta(n, mpmath.mpf(a))
        assert abs(_hurwitz_zeta(n, a) - expected) <= 8.0e-16 * expected


@pytest.mark.parametrize("a", [1e-6, 0.5, 1.0, 1.4616321449683622, 2.0])
def test_digamma_and_zeta_at_edges(a):
    with mpmath.workdps(30):
        psi = mpmath.digamma(mpmath.mpf(a))
        assert abs(_digamma(a) - psi) <= 3.4e-16 * max(1, abs(psi))
        for n in (2, 3, 5, 30):
            zeta = mpmath.zeta(n, mpmath.mpf(a))
            assert abs(_hurwitz_zeta(n, a) - zeta) <= 8.0e-16 * zeta


def test_hurwitz_zeta_beyond_float_range_is_inf():
    assert _hurwitz_zeta(60, 1e-6) == math.inf
