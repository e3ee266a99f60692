import math
import random
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unruh_otto import specfun
from unruh_otto.errors import DomainError, ResourceLimitError
from unruh_otto.specfun import (_bernoulli_numbers, _digamma, _hurwitz_zeta,
                                _lerch_table, lerch_phi)

# independently computed with 50-digit working precision
GOLDEN = 0.9522918415301704  # z=0.9, s=2, a=1.3
EPS = 2.0 ** -52


def test_golden_value():
    assert lerch_phi(0.9, 2, 1.3) == pytest.approx(GOLDEN, rel=1e-13)


def test_z_zero_is_first_term_only():
    assert lerch_phi(0.0, 2, 1.7) == 1.7 ** -2
    assert lerch_phi(0.0, 1, 0.25) == 4.0


def test_s1_matches_logarithm():
    # sum z^k/(k+1) = -log(1-z)/z
    for z in (0.1, 0.5, 0.9, 0.99):
        assert lerch_phi(z, 1, 1.0) == pytest.approx(-math.log1p(-z) / z,
                                                     rel=1e-12)


@pytest.mark.parametrize("z,s,a", [
    (0.3, 1, 0.5),
    (0.7, 2, 1.0),
    (0.95, 2, 0.05),
    (0.999, 1, 2.5),
    (0.5, 2, 3.0),
])
def test_matches_extended_precision(z, s, a):
    expected = float(mpmath.lerchphi(z, s, a))
    assert lerch_phi(z, s, a) == pytest.approx(expected, rel=1e-11)


@pytest.mark.parametrize("z", [-0.1, 1.0, 1.5, math.inf, math.nan])
def test_z_domain(z):
    with pytest.raises(DomainError):
        lerch_phi(z, 2, 1.0)


@pytest.mark.parametrize("a", [0.0, -1.0, math.nan])
def test_a_domain(a):
    with pytest.raises(DomainError):
        lerch_phi(0.5, 2, a)


@pytest.mark.parametrize("s", [0, -1, 1.5])
def test_s_domain(s):
    with pytest.raises(DomainError):
        lerch_phi(0.5, s, 1.0)


def test_term_cap_raises():
    # a > 2 keeps z near 1 on the direct branch, which the cap guards
    with pytest.raises(ResourceLimitError):
        lerch_phi(1 - 1e-9, 2, 5.0)


def test_near_one_takes_log_z_expansion():
    # direct summation would need about 1e13 terms at tol 1e-12
    expected = float(mpmath.lerchphi(1 - 1e-12, 2, 1.0))
    assert abs(lerch_phi(1 - 1e-12, 2, 1.0) - expected) <= 1e-12


@given(log_a=st.floats(1.0, 9.0), a=st.floats(1e-6, 2.0),
       s=st.sampled_from([1, 2]))
@settings(max_examples=60, deadline=None)
def test_matches_mpmath_across_log_z_switch(log_a, a, s):
    # z = e^{-2 pi / A} for reduced accelerations A in [10, 1e9]: the
    # direct branch below A ~ 100, the log-z expansion above.  1e-12 bounds
    # the truncation; rounding adds a few ulps of the value, which only
    # shows where phi ~ a^-s is large.
    z = math.exp(-2.0 * math.pi / 10.0 ** log_a)
    value = lerch_phi(z, s, a)
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
        assert math.exp(-a * w) * bound <= specfun.TOL, a


def _full_chunk_sum(z, s, a):
    """The direct branch as it summed before: whole 4096-term chunks."""
    log_z, total, n = math.log(z), 0.0, 0
    while True:
        k = np.arange(n, n + 4096, dtype=float)
        total += float(np.sum(np.exp(k * log_z) / (k + a) ** s))
        n += 4096
        if math.exp(n * log_z) / ((n + a) ** s * (1.0 - z)) <= 1e-12:
            return total


def test_short_prefix_keeps_full_chunk_bytes():
    # reduced accelerations 2 to 100 (the direct branch), shifts in (0, 2]
    rng = random.Random(8)
    for i in range(500):
        z = math.exp(-math.pi / 50.0 ** rng.random())
        s = rng.choice((1, 2))
        a = 2.0 * (1.0 - rng.random())
        value = lerch_phi(z, s, a)
        assert value == _full_chunk_sum(z, s, a), (z, s, a)
        if i % 10 == 0:
            expected = mpmath.lerchphi(z, s, a)
            assert abs(value - expected) <= 1e-12 + 8 * EPS * abs(expected)


@given(z=st.floats(0.0, 0.95), a1=st.floats(0.05, 10.0),
       bump=st.floats(0.1, 10.0), s=st.sampled_from([1, 2]))
@settings(max_examples=60, deadline=None)
def test_decreasing_in_a(z, a1, bump, s):
    # every series term 1/(k+a)^s shrinks as a grows
    assert lerch_phi(z, s, a1) > lerch_phi(z, s, a1 + bump)


@given(z=st.floats(0.0, 0.99), a=st.floats(1.0, 5.0))
@settings(max_examples=60, deadline=None)
def test_s2_below_s1(z, a):
    # term-wise 1/(k+a)^2 <= 1/(k+a) once a >= 1
    assert lerch_phi(z, 2, a) <= lerch_phi(z, 1, a) + 1e-15


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


@pytest.mark.parametrize("z", [0.9999, 0.5, 0.0],
                         ids=["log-z", "direct", "first-term"])
def test_lerch_beyond_float_range_is_inf(z):
    # a^-s = 1e360: nan (inf - inf in the log-z sum), inf with a numpy
    # RuntimeWarning, and an untyped OverflowError before
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert lerch_phi(z, 60, 1e-6) == math.inf


@pytest.mark.parametrize("s, a", [(2, 1e150), (2, 1.3e154), (2, 1.4e154),
                                  (2, 1e160), (2, 1e300), (1, 1e308)])
def test_lerch_at_huge_shift(s, a):
    # (n + a)^s beyond the float range raised an untyped OverflowError in
    # the tail bound from a = 1.4e154 at s = 2.  (1 + k / a)^-s rounds to 1,
    # so phi = a^-s / (1 - z): subnormal from a = 1.3e154 and 0.0 at
    # a = 1e300, where a^-s underflows
    z = 0.8
    want = float(1 / (Fraction(a) ** s * (1 - Fraction(z))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = lerch_phi(z, s, a)
    assert value == pytest.approx(want, rel=4 * EPS, abs=4 * 5e-324)


@pytest.mark.parametrize("z", [0.3, 0.99, math.exp(-2.0 * math.pi / 150.0),
                               0.9999],
                         ids=["short", "long", "log-z", "multi-chunk"])
def test_lerch_table_entries_are_lerch_phi(z):
    # one chunk and one z^k serve every direct entry, beside log-z entries
    # (shifts <= 2) and sums of more than one chunk (shifts > 2 at z = 0.9999)
    orders, shifts = (1, 2, 3), (0.3, 1.7, 2.5, 7.0)
    table = _lerch_table(z, math.log(z), orders, shifts)
    assert table == [[lerch_phi(z, s, a) for a in shifts] for s in orders]


def test_lerch_table_keeps_the_term_cap():
    with pytest.raises(ResourceLimitError, match="more than 10000000 terms"):
        _lerch_table(0.999999, math.log(0.999999), (1, 2), (1.5, 5.0))
