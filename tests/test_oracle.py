"""Checks for the two quadrature routes and their shared result contract.

The closed-form comparisons here use single points with the default
spec, except the checks that every point of the CLI grid lies within its
own error estimate and that the sinh route meets J to 1e-9 there; the
grid agreement within the acceptance tolerance lives in the acceptance
suite.  The regulated kernels, whose epsilon -> 0 limit both routes take
exactly, survive here as a test-only reference.
"""

import cmath
import math
import random
import sys
import tracemalloc
import warnings

import mpmath
import pytest
from scipy.integrate import IntegrationWarning, quad

from unruh_otto import oracle
from unruh_otto.cli import GRID_A, GRID_V
from unruh_otto.errors import DomainError, NonConvergenceError
from unruh_otto.oracle import (QuadratureSpec, _image_remainder,
                               _sinh_remainder, _window_tail, _window_weight,
                               integrate_imagesum_1d, integrate_sinh_2d)
from unruh_otto.response import j_function, vacuum_response

EPS = 2.0 ** -52
Y8 = 2.0 * math.atanh(0.8)
Y5 = 2.0 * math.atanh(0.5)

# frozen outputs of the validated build (default QuadratureSpec).  Re-frozen
# when both routes took epsilon -> 0 exactly instead of Richardson-
# extrapolating a regulator ladder: SINH100_J moved from 0.008595993554054437
# to 5.6e-14 from J = 0.008611099822741842.  Re-frozen again when the image
# route summed every image instead of stopping at k = 20000: IM40_J moved
# from 0.026180956630426522, 1.5e-6 below J = 0.026182410419473473, to
# 2.8e-17 from it (an error estimate of 1.5e-14 in j)
IM40_VALUE = 0.07559120520973675      # alpha=40, omega=-1, T=Y8/40
IM40_J = 0.0261824104194735
SINH100_VALUE = 0.06680554991139893   # alpha=100, omega=-1, T=Y5/100
SINH100_J = 0.008611099822797869


def test_imagesum_reference_point():
    res = integrate_imagesum_1d(40.0, -1.0, Y8 / 40.0)
    assert res.representation == "imagesum1d"
    assert res.value == pytest.approx(IM40_VALUE, rel=1e-9)
    assert res.j_estimate == pytest.approx(IM40_J, rel=1e-9)


def test_imagesum_tracks_closed_form():
    res = integrate_imagesum_1d(40.0, -1.0, Y8 / 40.0)
    diff = abs(res.j_estimate - j_function(-1.0 / 40.0, Y8))
    assert diff <= res.j_error_estimate
    assert diff <= max(1e-3 * abs(j_function(-1.0 / 40.0, Y8)), 1e-6) * 2.0


def test_imagesum_positive_frequency():
    res = integrate_imagesum_1d(15.0, 1.0, Y8 / 15.0)
    assert res.j_estimate == pytest.approx(j_function(1.0 / 15.0, Y8),
                                           abs=5e-6)


def test_sinh2d_reference_point():
    res = integrate_sinh_2d(100.0, -1.0, Y5 / 100.0)
    assert res.representation == "sinh2d"
    assert res.value == pytest.approx(SINH100_VALUE, rel=1e-9)
    assert res.j_estimate == pytest.approx(SINH100_J, rel=1e-9)
    assert abs(res.j_estimate - j_function(-0.01, Y5)) <= res.j_error_estimate


@pytest.mark.parametrize("u, T", [(0.0, 1.0), (0.0, 3e-2), (0.7, 1.0),
                                  (-2.5, 0.4), (40.0, 1.0), (1e3, 5e-2)])
def test_window_weight_is_the_exact_convolution(u, T):
    # the closed form integrate_sinh_2d uses in place of the r-integral,
    # checked by quadrature in physical units, where it is T w_1(u / T);
    # the integrand is even in s, so the half line gives half of the full
    # integral
    def g(s):
        return T ** 4 / (((s + u) ** 2 + T * T) * ((s - u) ** 2 + T * T))

    au = abs(u)
    near, _ = quad(g, 0.0, 2.0 * au + T, points=[au], limit=200,
                   epsabs=0.0, epsrel=1e-13)
    far, _ = quad(g, 2.0 * au + T, math.inf, limit=200,
                  epsabs=0.0, epsrel=1e-13)
    assert T * _window_weight(u / T) == pytest.approx(near + far, rel=1e-12,
                                                      abs=0.0)


def _abs_kernel(y, s):
    """|K(s)| off the diagonal, with 1/sinh^2(y s / 2) taken as
    4 e^{-y s} / (1 - e^{-y s})^2, which does not overflow."""
    x = y * s
    return y * y / (16.0 * math.pi ** 2) * 4.0 * math.exp(-x) / math.expm1(-x) ** 2


def _assert_tail_bound_is_tight(y, window):
    """2 tail <= _window_tail(y, window) <= 3 * 2 tail, where tail is one side
    of the cut, w_1 |K| integrated from the window to infinity, and 3 is
    the supremum, approached as y window -> 0 with window >> 1.  Where both
    sides underflow (y window beyond about 700) they are compared to the
    smallest normal float."""
    def cut(s):
        return _window_weight(s) * _abs_kernel(y, s)

    one_side, _ = quad(cut, window, math.inf, limit=200, epsabs=0.0,
                       epsrel=1e-12)
    bound = _window_tail(y, window)
    slack = sys.float_info.min
    assert 2.0 * one_side <= bound + slack
    assert bound <= 6.0 * one_side + slack


@pytest.mark.parametrize("alpha, T, u_max", [
    (0.05, 1.0, 0.5), (0.1, 2.0, 1.0), (2.0, 0.5, 0.5), (40.0, 0.015, 0.3)])
def test_window_tail_bounds_the_cut(alpha, T, u_max):
    # y * window = alpha * u_max = 0.025, 0.1, 1 and 12, in window units
    _assert_tail_bound_is_tight(alpha * T, u_max / T)


def test_window_tail_is_tight_on_random_points():
    # log-uniform y in [1e-3, 300] and window in [1e-2, 100], where a bound
    # through w_1(s) < pi / (4 s^2) reached 14455 times the tails
    rng = random.Random(2210)
    for _ in range(200):
        y = 10.0 ** rng.uniform(-3.0, math.log10(300.0))
        window = 10.0 ** rng.uniform(-2.0, 2.0)
        _assert_tail_bound_is_tight(y, window)


def test_window_tail_small_alpha_limit():
    # y * window = 4e-199 and, below it, 0.0: |K| tends to 1 / (4 pi^2 s^2),
    # so the bound tends to 2 w_1(W) / (4 pi^2 W) = 1 / (8 pi W (W^2 + 1))
    for y in (2e-200, 1e-320):
        assert _window_tail(y, 20.0) == pytest.approx(
            1.0 / (8.0 * math.pi * 20.0 * 401.0), rel=1e-12)


@pytest.mark.parametrize("integrate", [integrate_imagesum_1d,
                                       integrate_sinh_2d])
@pytest.mark.parametrize("omega", [0.05, -0.05])
def test_error_estimate_covers_short_window(integrate, omega):
    # alpha * window * T = 0.05: most of the integral lies beyond the cut,
    # so the estimate stands or falls with the window-tail bound
    res = integrate(0.1, omega, 1.0, QuadratureSpec(window=0.5))
    diff = abs(res.j_estimate - vacuum_response(0.1, omega, 1.0))
    assert diff <= res.j_error_estimate


@pytest.mark.parametrize("integrate, rep", [
    (integrate_imagesum_1d, "imagesum1d"), (integrate_sinh_2d, "sinh2d")])
def test_error_estimate_covers_grid(integrate, rep):
    misses = []
    for a in GRID_A:
        for v in GRID_V:
            duration = 2.0 * math.atanh(v) / a
            for omega in (-1.0, 1.0):
                res = integrate(a, omega, duration)
                assert res.representation == rep
                diff = abs(res.j_estimate - vacuum_response(a, omega, duration))
                if diff > res.j_error_estimate:
                    misses.append((a, v, omega, diff, res.j_error_estimate))
    assert not misses


def test_sinh2d_meets_closed_form_on_grid():
    # the ladder left up to 8.6e-7 here; the exact limit leaves 4.4e-10
    worst = 0.0
    for a in GRID_A:
        for v in GRID_V:
            duration = 2.0 * math.atanh(v) / a
            for omega in (-1.0, 1.0):
                res = integrate_sinh_2d(a, omega, duration)
                worst = max(worst, abs(res.j_estimate
                                       - vacuum_response(a, omega, duration)))
    assert worst <= 1e-9


def test_sinh2d_confirms_the_anchor_responses():
    # J(-1/40, y) and J(-1/15, y) at v = 0.8, the two values behind the
    # fixed point p0 = 0.3114... of README "Known discrepancies"
    for x in (-1.0 / 40.0, -1.0 / 15.0):
        res = integrate_sinh_2d(1.0, x, Y8)
        diff = abs(res.j_estimate - j_function(x, Y8))
        assert diff <= res.j_error_estimate <= 1e-14


def test_cross_representation_agreement():
    a = integrate_imagesum_1d(1.0, 0.5, 1.0)
    b = integrate_sinh_2d(1.0, 0.5, 1.0)
    assert abs(a.value - b.value) <= a.error_estimate + b.error_estimate


def test_real_valuedness():
    # the window weight and R are even, so the sin(q s) part of e^{i q s}
    # integrates to 0 against them and against f.p. 1/s^2, and the delta'
    # term is real (module docstring): the value is a float
    for res in (integrate_imagesum_1d(40.0, -1.0, Y8 / 40.0),
                integrate_sinh_2d(1.0, 0.5, 1.0)):
        assert type(res.value) is float


@pytest.mark.parametrize("y", [0.3, 2.2, 5.0])
def test_sinh_remainder_matches_mpmath(y):
    # both sides of the series switch at h = y s / 2 = 0.1, where the direct
    # form 1 - (h / sinh h)^2 cancels
    remainder = _sinh_remainder(y)
    with mpmath.workdps(50):
        for h in (1e-8, 1e-3, 0.05, 0.0999, 0.1, 0.1001, 0.3, 1.0, 10.0, 400.0):
            s = 2.0 * h / y
            hm = mpmath.mpf(y) / 2 * mpmath.mpf(s)
            want = (1 - (hm / mpmath.sinh(hm)) ** 2) / (4 * mpmath.pi ** 2
                                                        * mpmath.mpf(s) ** 2)
            assert abs(remainder(s) - want) <= 1e-13 * want


@pytest.mark.parametrize("y", [0.01, 0.3, 2.2, 6.0, 900.0])
def test_image_remainder_is_the_sinh_remainder(y):
    # the image sum is the partial-fraction expansion of the sinh form, and
    # every image is summed, so the two agree to rounding: of R itself, and
    # of the image pairs the sum cancels, whose sizes add up to about
    # y / (pi s) / (4 pi^2) when y s >> 1 (1021 ulps of R at y = 900,
    # s = 19.9, 0.2 ulps of that sum).  The reference is the sinh form at
    # 50 digits, because _sinh_remainder cancels too: 159 ulps of R at
    # y = 0.3, s = 1.  Summed only to k = 1000, the images missed R by up
    # to 1.04 at y = 900.  The bound on the far images' power series is
    # far below rounding.
    image, error = _image_remainder(y, 20.0)
    assert error <= EPS * 1e-3
    with mpmath.workdps(50):
        for s in (1e-3, 0.2, 1.0, 7.3, 19.9):
            hm = mpmath.mpf(y) / 2 * mpmath.mpf(s)
            want = float((1 - (hm / mpmath.sinh(hm)) ** 2)
                         / (4 * mpmath.pi ** 2 * mpmath.mpf(s) ** 2))
            cancelled = y / (4.0 * math.pi ** 3 * s)
            assert abs(image(s) - want) <= 8 * EPS * (want + cancelled)


def test_routes_agree_at_long_contact():
    # alpha T = 900 with a window of 1: 143 image poles inside it; the
    # images beyond k = 20000, once cut off, left j 0.11 short
    spec = QuadratureSpec(window=1.0)
    image = integrate_imagesum_1d(900.0, 1.0, 1.0, spec)
    sinh = integrate_sinh_2d(900.0, 1.0, 1.0, spec)
    assert abs(image.j_estimate - sinh.j_estimate) <= 1e-12


def _regulated(y, q, kernel, pole, window=20.0):
    """Full-window complex quadrature of w_1 e^{i q s} kernel(s), with a
    regulated pole at s = i pole, by scipy's quad (not the rule under test)."""
    def integrand(s):
        return _window_weight(s) * cmath.exp(1j * q * s) * kernel(s)
    spikes = [pole * 4.0 ** i for i in range(8)]
    pts = sorted({0.0} | {sign * p for p in spikes if p < window
                          for sign in (1.0, -1.0)})
    return quad(integrand, -window, window, points=pts, limit=300,
                epsabs=1e-12, epsrel=1e-10, complex_func=True)[0]


def test_half_window_matches_full_complex_quadrature():
    # The exact half-window value against the regulated kernels integrated
    # over the full window and Richardson-extrapolated from eps and eps/2.
    # The extrapolant's error is O(eps^2): it falls about 4x per halving, to
    # 4.6e-7 (sinh) and 1.1e-7 (images) at eps = 2.5e-3, while a single rung
    # is 1.3e-4 off.
    y, q = Y8, -Y8 / 40.0
    image = _image_remainder(y, 20.0)[0]
    routes = [
        (integrate_sinh_2d, 2.0, lambda s, eps: -y * y / (
            16.0 * math.pi ** 2 * cmath.sinh(0.5 * y * s - 1j * eps) ** 2)),
        (integrate_imagesum_1d, 1.0, lambda s, eps: image(s) - 1.0 / (
            4.0 * math.pi ** 2 * (s - 1j * eps / y) ** 2)),
    ]
    for integrate, height, kernel in routes:
        exact = integrate(y, q, 1.0).value
        misses = []
        for eps in (5e-3, 2.5e-3):
            coarse, fine = (_regulated(y, q, lambda s: kernel(s, e),
                                       height * e / y) for e in (eps, eps / 2.0))
            misses.append(abs(2.0 * fine - coarse - exact))
        assert misses[1] <= misses[0] / 3.0
        assert misses[1] <= 1e-6


def test_frequency_reversal_odd_part():
    # value(omega) - value(-omega) = omega*T/8: the raw-integral form of
    # the closed form's x*y/4 asymmetry (the affine map doubles it), carried
    # by the delta' term alone
    alpha, omega, T = 2.0, 1.0, 0.9
    for integrate in (integrate_imagesum_1d, integrate_sinh_2d):
        plus = integrate(alpha, omega, T)
        minus = integrate(alpha, -omega, T)
        odd = plus.value - minus.value
        assert odd == pytest.approx(omega * T / 8.0, abs=1e-15)
        assert (plus.j_estimate - minus.j_estimate ==
                pytest.approx(omega * T / 4.0, abs=1e-15))


def test_epsilon_list_is_ignored():
    # kept on QuadratureSpec for callers that still pass a regulator ladder
    # or an image-sum truncation order
    ladder = QuadratureSpec(epsilon_list=(2.5e-3, 1.25e-3, 6.25e-4), k_max=50)
    for integrate in (integrate_imagesum_1d, integrate_sinh_2d):
        assert (integrate(40.0, -1.0, Y8 / 40.0, ladder)
                == integrate(40.0, -1.0, Y8 / 40.0))


def test_vanishing_window():
    # alpha T = 1e-6: the regulator ladder put its pole (eps = 1e-2) 1e4
    # window durations off the axis and raised; the exact limit reaches the
    # vanishing-window limit value -> 1/16 and J with the default spec
    for integrate in (integrate_imagesum_1d, integrate_sinh_2d):
        res = integrate(1.0, 1.0, 1e-6)
        diff = abs(res.j_estimate - vacuum_response(1.0, 1.0, 1e-6))
        assert diff <= res.j_error_estimate
        assert res.value == pytest.approx(1.0 / 16.0, abs=1e-4)


@pytest.mark.parametrize("integrate", [integrate_imagesum_1d,
                                       integrate_sinh_2d])
@pytest.mark.parametrize("scale", [1e-200, 1e-100, 1.0, 1e50, 1e150])
def test_scale_invariance(integrate, scale):
    # the integral depends on alpha T and omega T alone; T^3 and alpha^2
    # gave nan at 1e50 and 1e150, a miss at 1e-100 and OverflowError at 1e-200
    unit = integrate(1.0, 1.0, 1.0)
    res = integrate(scale, scale, 1.0 / scale)
    assert res.j_estimate == pytest.approx(unit.j_estimate, rel=1e-9)
    assert res.j_error_estimate == pytest.approx(unit.j_error_estimate,
                                                 rel=1e-9)
    diff = abs(res.j_estimate - vacuum_response(scale, scale, 1.0 / scale))
    assert diff <= res.j_error_estimate


def test_long_window_sinh2d_is_finite():
    # window = 2000 at (alpha, omega, T) = (1, 0.5, 1): sinh^2 of the
    # kernel overflowed far from the diagonal and left nan in every field
    result = integrate_sinh_2d(1.0, 0.5, 1.0, QuadratureSpec(window=2000.0))
    numbers = [result.value, result.error_estimate]
    assert all(math.isfinite(n) for n in numbers)
    assert abs(result.j_estimate - j_function(0.5, 1.0)) <= \
        result.j_error_estimate


@pytest.mark.parametrize("y", [1e3, 1e5, 1e8])
def test_long_contact_sinh2d(y):
    # alpha T >> 1: R falls to 1 / (4 pi^2 s^2) within s ~ 2/y, and the
    # integral of R alone tends to y / (16 pi) (the integral of
    # 1/h^2 - 1/sinh^2 h over h > 0 is 1), on top of the vanishing-window
    # 1/16; the next term is near pi / (16 y).  Without break points at the
    # scale 2/y the quadrature stepped over R and returned 1/16 at y = 1e5.
    res = integrate_sinh_2d(y, 1.0, 1.0)
    limit = y / (16.0 * math.pi) + 1.0 / 16.0
    assert abs(res.value - limit) <= res.error_estimate + 1.0 / y


@pytest.mark.parametrize("integrate", [integrate_imagesum_1d,
                                       integrate_sinh_2d])
def test_huge_alpha_T_meets_long_contact_limit(integrate):
    # alpha T = 1e92: the sinh route refused 151 break points from 2/y up
    # to 0.1.  The cut at 2^8 / y leaves 4, and both routes meet the
    # long-contact limit of test_long_contact_sinh2d
    res = integrate(1e92, 1.0, 1.0)
    limit = 1e92 / (16.0 * math.pi) + 1.0 / 16.0
    assert abs(res.value - limit) <= 1e-15 * limit <= res.error_estimate


@pytest.mark.filterwarnings("error")
def test_huge_alpha_T_imagesum_is_typed_error():
    # alpha T = 1e200 in a window of 1e-200: R is near y^2 / (48 pi^2),
    # beyond the float range.  The image table overflowed with numpy's
    # warning on stderr before a nan raised the typed error, and power sums
    # taken as (y / 2 pi)^(2j) in Python floats raise a bare OverflowError
    with pytest.raises(NonConvergenceError, match="float range"):
        integrate_imagesum_1d(1e200, 1.0, 1.0, QuadratureSpec(window=1e-200))


@pytest.mark.filterwarnings("error")
def test_large_alpha_T_tiny_window_imagesum():
    # alpha T = 1e100 in a window of 1e-100: R is near 2e197, in range, but
    # the power sums' (y / 2 pi)^(2j) is not from j = 2 on, which gave a
    # nan and NonConvergenceError after numpy's overflow warning.  w_1 is
    # flat on the scale 1/y, so the two tails are
    # (y / 16 pi)(coth(1/2) - 1) = 2.32e98 and the error estimate is little
    # more; the bound through w_1 < pi / (4 s^2) made it 3.7e298
    y, window = 1e100, 1e-100
    res = integrate_imagesum_1d(y, 1.0, 1.0, QuadratureSpec(window=window))
    ref = integrate_sinh_2d(y, 1.0, 1.0, QuadratureSpec(window=window))
    assert res.value == pytest.approx(ref.value, rel=1e-12)
    for result in (res, ref):
        assert result.error_estimate <= 2.4e98


def test_long_window_imagesum_meets_closed_form():
    # the same window held 636 image poles, each a break point, which the
    # route refused (NonConvergenceError); it now stops at the cut s = 32
    res = integrate_imagesum_1d(1.0, 0.5, 1.0, QuadratureSpec(window=2000.0))
    assert abs(res.j_estimate - j_function(0.5, 1.0)) <= res.j_error_estimate


def test_long_window_imagesum_memory_stays_small():
    # window = 1e6 holds 318308 image poles; the near images are counted
    # from the cut, not the window, so the table stays small
    tracemalloc.start()
    try:
        res = integrate_imagesum_1d(1.0, 0.5, 1.0, QuadratureSpec(window=1e6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(res.j_estimate - j_function(0.5, 1.0)) <= res.j_error_estimate
    assert peak < 1e6


@pytest.mark.parametrize("integrate", [integrate_imagesum_1d,
                                       integrate_sinh_2d])
@pytest.mark.parametrize("window", [1e5, 1e7, 1e300])
def test_long_window_meets_closed_form(integrate, window):
    # at window 1e5 the sinh route stepped over the integrand and returned
    # j = -1.3e-15 against J = 0.175, within a claimed 3.8e-12, and 0.0 at
    # 1e7; the image route refused every such window.  Both stop at the
    # cut s = 32 now
    res = integrate(1.0, 1.0, 1.0, QuadratureSpec(window=window))
    assert abs(res.j_estimate - j_function(1.0, 1.0)) <= res.j_error_estimate
    assert res.j_error_estimate <= 1e-14


@pytest.mark.parametrize("integrate", [integrate_imagesum_1d,
                                       integrate_sinh_2d])
def test_long_window_at_small_alpha_T(integrate):
    # alpha T = 1e-10 and 1e-200: the cut does not start from 1/y, or a
    # quadrature over [0, 1e10] would step over the Lorentzian and return
    # j = -1/8 with an estimate of 7e-21.  The cut is below 7e4 for every y
    for y in (1e-10, 1e-200):
        res = integrate(y, 0.3 * y, 1.0, QuadratureSpec(window=1e300))
        diff = abs(res.j_estimate - vacuum_response(y, 0.3 * y, 1.0))
        assert diff <= res.j_error_estimate <= 1e-14


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("integrate", [integrate_imagesum_1d,
                                       integrate_sinh_2d])
def test_cut_is_exact_within_the_tail_bound(integrate):
    # value(W) - value(S) = -2 Integral_S^W w_1(s) cos(q s) |K(s)| ds for
    # W >= S, at most _window_tail(y, S) (module docstring), between the
    # cut S of a short window and the cut W of the longest: log-uniform y
    # in [1e-2, 30], short window in [0.1, 30] and |q / y| in [1e-3, 30].
    # Without break points every 4 periods of cos(q s), the long cut held
    # tens of periods at small y, and the estimate fell short of the error
    # beyond |q / y| = 5 (3x at y = 0.03, q = -0.68).  The reference is
    # scipy's quad, not the rule under test
    rng = random.Random(2611)
    for _ in range(40):
        y = 10.0 ** rng.uniform(-2.0, math.log10(30.0))
        q = rng.choice((-1.0, 1.0)) * y * 10.0 ** rng.uniform(-3.0, math.log10(30.0))
        short = 10.0 ** rng.uniform(-1.0, math.log10(30.0))
        S, W = oracle._cut(y, short), oracle._cut(y, 1e300)
        capped = integrate(y, q, 1.0, QuadratureSpec(window=short))
        full = integrate(y, q, 1.0, QuadratureSpec(window=1e300))
        between, between_error = quad(
            lambda s: _window_weight(s) * math.cos(q * s) * _abs_kernel(y, s),
            S, W, limit=1000, epsabs=1e-17, epsrel=1e-14)
        # each estimate less its tail bound: the quadratures' own errors
        slack = (capped.error_estimate - _window_tail(y, S)
                 + full.error_estimate - _window_tail(y, W)
                 + 2.0 * between_error + 4 * EPS * abs(full.value))
        between *= -2.0
        difference = full.value - capped.value
        assert abs(difference - between) <= slack
        assert abs(difference) <= _window_tail(y, S) + slack


def _scipy_quad(func, a, b, **kwargs):
    """scipy's quad in the place of the oracle's rule, one node per call."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        return quad(lambda s: float(func(s)), a, b, **kwargs)


def test_rule_agrees_with_scipy_quad(monkeypatch):
    # 200 seeded points, log-uniform y in [1e-2, 5.5] and |x| in [1e-3, 10],
    # both routes, with the in-house rule and with scipy's quad at the same
    # break points and tolerances: the values agree within the summed
    # estimates (0.02 of them at worst).  Where J is trusted (|x y| <= 15)
    # the rule's estimate covers J wherever scipy's does; both miss by
    # about 5e-15 at 6 of these points, where J itself errs at y > 3.7
    rng = random.Random(2900)
    points = []
    for _ in range(200):
        y = 10.0 ** rng.uniform(-2.0, math.log10(5.5))
        points.append((rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 1.0), y))
    routes = (integrate_imagesum_1d, integrate_sinh_2d)
    ours = [[integrate(y, x * y, 1.0) for integrate in routes] for x, y in points]
    monkeypatch.setattr(oracle, "quad", _scipy_quad)
    for (x, y), results in zip(points, ours):
        J = j_function(x, y)
        for integrate, res in zip(routes, results):
            ref = integrate(y, x * y, 1.0)
            assert abs(res.value - ref.value) <= res.error_estimate + ref.error_estimate
            if abs(x * y) <= 15.0 and abs(ref.j_estimate - J) <= ref.j_error_estimate:
                assert abs(res.j_estimate - J) <= res.j_error_estimate


@pytest.mark.parametrize("integrate", [integrate_imagesum_1d,
                                       integrate_sinh_2d])
def test_long_cut_estimate_covers_closed_form(integrate):
    # window 1e300, log-uniform y in [1e-8, 4] and |x| in [1e-3, 30]: the
    # cut (up to 7e4) can hold tens of periods of cos(q s).  Panels across
    # that many periods left the estimate short of the error at 5 of these
    # 150 points, with scipy's quad as with the in-house rule (6x at
    # x = -11.4, y = 4.8e-3); break points every 4 periods, at most 100,
    # leave none (worst 0.44 of the estimate)
    rng = random.Random(2901)
    spec = QuadratureSpec(window=1e300)
    for _ in range(150):
        y = 10.0 ** rng.uniform(-8.0, math.log10(4.0))
        x = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, math.log10(30.0))
        res = integrate(y, x * y, 1.0, spec)
        assert abs(res.j_estimate - j_function(x, y)) <= res.j_error_estimate


@pytest.mark.parametrize("b", [2.0, 3.0, 10.0, 1e3, 1e8, 1e12])
def test_power_sums_match_mpmath(b):
    # Z_n = sum_{k >= b} (b / k)^n = b^n zeta(n, b), n = 2, 4, ..., 26, by
    # Euler-Maclaurin.  mpmath forms b^n and zeta(n, b) apart, so it needs
    # about n log10(b) more digits: at 40 digits it was off by 1.7e-10 at
    # b = 1e3, n = 26
    z = oracle._power_sums(b)
    assert len(z) == 13
    for n, value in zip(range(2, 27, 2), z):
        with mpmath.workdps(30 + int(n * math.log10(b))):
            want = mpmath.zeta(n, b) * mpmath.mpf(b) ** n
        assert abs(value - want) <= 1e-15 * want


def test_value_beyond_float_range_is_typed_error():
    # the finite-part term 1 / (8 pi window) overflows at window = 1e-320
    spec = QuadratureSpec(window=1e-320)
    for integrate in (integrate_imagesum_1d, integrate_sinh_2d):
        with pytest.raises(NonConvergenceError, match="float range"):
            integrate(1.0, 1.0, 1e-3, spec)


@pytest.mark.parametrize("integrate", [integrate_imagesum_1d,
                                       integrate_sinh_2d])
def test_underflowing_y_window(integrate):
    # y * window = 1e-400 rounds to 0.0, where the window-tail bound divided
    # by zero; its limit is 1 / (8 pi window), as large as the value
    res = integrate(1e-200, 1.0, 1.0, QuadratureSpec(window=1e-200))
    assert math.isfinite(res.error_estimate)
    diff = abs(res.j_estimate - vacuum_response(1e-200, 1.0, 1.0))
    assert diff <= res.j_error_estimate


@pytest.mark.parametrize("integrate", [integrate_imagesum_1d,
                                       integrate_sinh_2d])
def test_tiny_alpha_T(integrate):
    # alpha T = 1e-200: the image table (2 pi k / y)^2 overflowed to inf and
    # gave nan; it is now built from (y / 2 pi k)^2
    res = integrate(1e-200, 1e-200, 1.0, QuadratureSpec(window=200.0))
    diff = abs(res.j_estimate - vacuum_response(1e-200, 1e-200, 1.0))
    assert math.isfinite(res.value)
    assert diff <= res.j_error_estimate <= 1e-8


@pytest.mark.parametrize("bad", [
    dict(epsilon_list=(1e-2,)),
    dict(epsilon_list=(1e-3, 1e-2)),
    dict(epsilon_list=(1e-2, 1e-2)),
    dict(epsilon_list=(1e-2, -1e-3)),
    dict(k_max=0),
    dict(abs_tol=0.0),
    dict(rel_tol=-1.0),
    dict(window=0.0),
    dict(window=math.inf),
    dict(abs_tol=math.inf),
    dict(epsilon_list=(1e-2, math.nan)),
])
def test_spec_validation(bad):
    with pytest.raises(DomainError):
        QuadratureSpec(**bad)


@pytest.mark.parametrize("args", [
    (0.0, 1.0, 1.0), (-1.0, 1.0, 1.0),
    (1.0, 1.0, 0.0), (1.0, 1.0, -2.0), (1.0, math.nan, 1.0),
])
def test_argument_domain(args):
    with pytest.raises(DomainError):
        integrate_imagesum_1d(*args)
    with pytest.raises(DomainError):
        integrate_sinh_2d(*args)


@pytest.mark.parametrize("integrate", [integrate_imagesum_1d,
                                       integrate_sinh_2d])
def test_window_times_duration_beyond_float_range(integrate):
    # window * T = 1e309 overflows, but no route forms it: the window only
    # caps the cut, and the cut stops long before it
    res = integrate(0.1, 0.1, 10.0, QuadratureSpec(window=1e308))
    assert abs(res.j_estimate - vacuum_response(0.1, 0.1, 10.0)) <= 1e-16
    assert res.j_error_estimate <= 2e-15
