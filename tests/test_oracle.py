"""Checks for the two quadrature routes and their shared result contract.

The closed-form comparisons here use single points with the default
regulator ladder, except one check that every point of the CLI grid lies
within its own error estimate; the grid agreement within the acceptance
tolerance lives in the acceptance suite.
"""

import cmath
import math
import random
import tracemalloc

import pytest
from scipy.integrate import quad

from unruh_otto.cli import GRID_A, GRID_EPSILONS, GRID_V
from unruh_otto.errors import DomainError, NonConvergenceError
from unruh_otto.oracle import (QuadratureSpec, _image_kernel, _sinh_kernel,
                               _window_tail, _window_weight,
                               integrate_imagesum_1d, integrate_sinh_2d)
from unruh_otto.response import j_function, vacuum_response

EPS = 2.0 ** -52
Y8 = 2.0 * math.atanh(0.8)
Y5 = 2.0 * math.atanh(0.5)

# frozen outputs of the validated build (default QuadratureSpec); the
# sinh2d pair was re-frozen when its window weight became exact, which
# removed a -6.5e-8 bias the truncated inner quadrature left in the value
IM40_VALUE = 0.07559002087766481      # alpha=40, omega=-1, T=Y8/40
IM40_J = 0.02618004175532962
SINH100_VALUE = 0.06679799677702722   # alpha=100, omega=-1, T=Y5/100
SINH100_J = 0.008595993554054437


def test_imagesum_reference_point():
    res = integrate_imagesum_1d(40.0, -1.0, Y8 / 40.0)
    assert res.representation == "imagesum1d"
    assert res.value.real == pytest.approx(IM40_VALUE, rel=1e-9)
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
    assert res.value.real == pytest.approx(SINH100_VALUE, rel=1e-9)
    assert res.j_estimate == pytest.approx(SINH100_J, rel=1e-9)
    assert abs(res.j_estimate - j_function(-0.01, Y5)) <= res.j_error_estimate


@pytest.mark.parametrize("u, T", [(0.0, 1.0), (0.0, 3e-2), (0.7, 1.0),
                                  (-2.5, 0.4), (40.0, 1.0), (1e3, 5e-2)])
def test_window_weight_is_the_exact_convolution(u, T):
    # the closed form integrate_sinh_2d uses in place of the s-integral,
    # checked by quadrature; the integrand is even in s, so the half
    # line gives half of the full integral
    def g(s):
        return T ** 4 / (((s + u) ** 2 + T * T) * ((s - u) ** 2 + T * T))

    au = abs(u)
    near, _ = quad(g, 0.0, 2.0 * au + T, points=[au], limit=200,
                   epsabs=0.0, epsrel=1e-13)
    far, _ = quad(g, 2.0 * au + T, math.inf, limit=200,
                  epsabs=0.0, epsrel=1e-13)
    assert _window_weight(u, T) == pytest.approx(near + far, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("alpha, T, u_max", [
    (0.05, 1.0, 0.5), (0.1, 2.0, 1.0), (2.0, 0.5, 0.5), (40.0, 0.015, 0.3)])
def test_window_tail_bounds_the_cut(alpha, T, u_max):
    # alpha * u_max = 0.025, 0.1, 1 and 12; |G| at eps = 0 with 1/sinh^2(x)
    # taken as 4 e^{-2x} / (1 - e^{-2x})^2, which does not overflow
    def cut(u):
        x = 0.5 * alpha * u
        inv_sinh2 = 4.0 * math.exp(-2.0 * x) / math.expm1(-2.0 * x) ** 2
        return _window_weight(u, T) * alpha ** 2 / (16.0 * math.pi ** 2) * inv_sinh2

    one_side, _ = quad(cut, u_max, math.inf, limit=200, epsabs=0.0,
                       epsrel=1e-12)
    assert _window_tail(alpha, T, u_max) >= 2.0 * one_side


def test_window_tail_small_alpha_limit():
    # alpha u_max = 4e-199: the bound tends to T^3 / (8 pi u_max^3); the
    # squared expm1 underflowed to 0 and divided by zero before
    assert _window_tail(2e-200, 1.0, 20.0) == pytest.approx(
        1.0 / (8.0 * math.pi * 20.0 ** 3), rel=1e-12)


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
    spec = QuadratureSpec(epsilon_list=GRID_EPSILONS[rep])
    misses = []
    for a in GRID_A:
        for v in GRID_V:
            duration = 2.0 * math.atanh(v) / a
            for omega in (-1.0, 1.0):
                res = integrate(a, omega, duration, spec)
                diff = abs(res.j_estimate - vacuum_response(a, omega, duration))
                if diff > res.j_error_estimate:
                    misses.append((a, v, omega, diff, res.j_error_estimate))
    assert not misses


def test_cross_representation_agreement():
    a = integrate_imagesum_1d(1.0, 0.5, 1.0)
    b = integrate_sinh_2d(1.0, 0.5, 1.0)
    assert abs(a.value.real - b.value.real) <= (a.error_estimate
                                                + b.error_estimate)


def test_real_valuedness():
    # one real quadrature over [0, window]; test_kernel_conjugate_symmetry
    # checks the symmetry that makes this exact
    for res in (integrate_imagesum_1d(40.0, -1.0, Y8 / 40.0),
                integrate_sinh_2d(1.0, 0.5, 1.0)):
        assert res.value.imag == 0.0
        assert all(v.imag == 0.0 for v in res.epsilon_values)


@pytest.mark.parametrize("make_kernel", [
    lambda y: _image_kernel(y, QuadratureSpec()), _sinh_kernel])
def test_kernel_conjugate_symmetry(make_kernel):
    # K(-s, eps) = conj K(s, eps): with the even window weight, the
    # integrand's imaginary part is odd and integrates to 0 over |s| <= window
    rng = random.Random(14)
    for _ in range(20):
        y = 10.0 ** rng.uniform(-2.0, math.log10(6.0))
        kernel = make_kernel(y)
        for _ in range(10):
            s = rng.uniform(0.0, 20.0)
            eps = 10.0 ** rng.uniform(-4.0, -2.0)
            plus, minus = kernel(s, eps), kernel(-s, eps)
            assert abs(minus - plus.conjugate()) <= 4 * EPS * abs(plus)


def test_half_window_matches_full_complex_quadrature():
    # the value the full-width complex quadrature gives, at one regulator
    y, q, eps, window = Y8, -Y8 / 40.0, 2.5e-3, 20.0
    kernel = _sinh_kernel(y)

    def integrand(s):
        return _window_weight(s, 1.0) * cmath.exp(1j * q * s) * kernel(s, eps)
    spikes = [2.0 * eps / y * 4.0 ** i for i in range(8)]
    pts = sorted({0.0} | {sign * p for p in spikes if p < window
                          for sign in (1.0, -1.0)})
    full = quad(integrand, -window, window, points=pts, limit=300,
                epsabs=1e-12, epsrel=1e-10, complex_func=True)[0]
    spec = QuadratureSpec(epsilon_list=(eps, eps / 2.0))
    half = integrate_sinh_2d(y, q, 1.0, spec).epsilon_values[0]
    assert abs(half - full) <= 1e-9 * abs(full)


def test_frequency_reversal_odd_part():
    # value(omega) - value(-omega) = omega*T/8: the raw-integral form of
    # the closed form's x*y/4 asymmetry (the affine map doubles it)
    alpha, omega, T = 2.0, 1.0, 0.9
    plus = integrate_imagesum_1d(alpha, omega, T)
    minus = integrate_imagesum_1d(alpha, -omega, T)
    odd = plus.value.real - minus.value.real
    assert odd == pytest.approx(omega * T / 8.0,
                                abs=plus.error_estimate + minus.error_estimate)
    assert (plus.j_estimate - minus.j_estimate ==
            pytest.approx(omega * T / 4.0, abs=1e-5))


def test_regulator_ladder_contracts():
    res = integrate_imagesum_1d(40.0, -1.0, Y8 / 40.0)
    d01 = abs(res.epsilon_values[0] - res.epsilon_values[1])
    d12 = abs(res.epsilon_values[1] - res.epsilon_values[2])
    assert d12 < d01


def test_vanishing_window():
    # alpha T = 1e-6 puts the default regulated pole (eps = 1e-2) 1e4 window
    # durations off the axis, where the eps ladder returned value 4.2e-9 and
    # j_estimate -0.125 instead of J = 1.25e-7; a fine enough ladder finds
    # the vanishing-window limit value -> 1/16 and J
    for integrate in (integrate_imagesum_1d, integrate_sinh_2d):
        with pytest.raises(NonConvergenceError, match="regulated pole"):
            integrate(1.0, 1.0, 1e-6)
        res = integrate(1.0, 1.0, 1e-6,
                        QuadratureSpec(epsilon_list=(1e-8, 5e-9, 2.5e-9)))
        diff = abs(res.j_estimate - vacuum_response(1.0, 1.0, 1e-6))
        assert diff <= res.j_error_estimate
        assert res.value.real == pytest.approx(1.0 / 16.0, abs=1e-4)


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


def test_truncation_bound_covers_k_sensitivity():
    spec50 = QuadratureSpec(k_max=50)
    spec100 = QuadratureSpec(k_max=100)
    at50 = integrate_imagesum_1d(40.0, -1.0, Y8 / 40.0, spec50)
    at100 = integrate_imagesum_1d(40.0, -1.0, Y8 / 40.0, spec100)
    assert abs(at50.value.real - at100.value.real) <= at50.truncation_bound
    assert at50.truncation_dominated
    assert at50.error_estimate >= at50.truncation_bound
    assert not integrate_imagesum_1d(40.0, -1.0, Y8 / 40.0).truncation_dominated


def test_long_window_sinh2d_is_finite():
    # window = 2000 at (alpha, omega, T) = (1, 0.5, 1): sinh^2 of the
    # kernel overflowed far from the diagonal and left nan in every field
    result = integrate_sinh_2d(1.0, 0.5, 1.0, QuadratureSpec(window=2000.0))
    numbers = [result.value.real, result.value.imag, result.error_estimate,
               result.truncation_bound]
    for v in result.epsilon_values:
        numbers += [v.real, v.imag]
    assert all(math.isfinite(n) for n in numbers)
    assert abs(result.j_estimate - j_function(0.5, 1.0)) <= \
        result.j_error_estimate


def test_long_window_imagesum_is_typed_error():
    # the same window puts 636 image poles in as break points, past quad's
    # 300 subintervals: an untyped ValueError before
    with pytest.raises(NonConvergenceError, match="break points"):
        integrate_imagesum_1d(1.0, 0.5, 1.0, QuadratureSpec(window=2000.0))


def test_long_window_imagesum_counts_poles_first():
    # window = 1e6 holds 318308 image poles; they are counted before any
    # list of them is built, so the typed error costs no memory
    tracemalloc.start()
    try:
        with pytest.raises(NonConvergenceError, match="break points"):
            integrate_imagesum_1d(1.0, 0.5, 1.0, QuadratureSpec(window=1e6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_non_convergence_budget():
    # squeezing the error budget makes the leftover extrapolation residual
    # (a healthy ~1e-6 here) trip the 10x check
    tight = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-9)
    with pytest.raises(NonConvergenceError, match="extrapolants differ"):
        integrate_imagesum_1d(40.0, -1.0, Y8 / 40.0, tight)


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
    (0.1, 1.0, 10.0, QuadratureSpec(window=1e308)),
])
def test_argument_domain(args):
    with pytest.raises(DomainError):
        integrate_imagesum_1d(*args)
    with pytest.raises(DomainError):
        integrate_sinh_2d(*args)
