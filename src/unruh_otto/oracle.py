"""Brute-force quadrature oracles for the vacuum-response function.

Two independent numerical routes to the same windowed response integral
provide ground truth for the closed form in :mod:`unruh_otto.response`.
Both weight the accelerated-vacuum correlation function with a Lorentzian
window xi_T(tau) = (T/2)^2 / (tau^2 + (T/2)^2) of effective duration T —
a sharp window is not an option here: its kink at zero time separation
drives a logarithmic divergence as the short-distance regulator epsilon
is removed, growing like log(1/epsilon)/(2 pi^2), whereas the Lorentzian-
windowed integral converges and admits a closed form.

Representations
---------------
``integrate_imagesum_1d``
    One-dimensional integral of the image expansion of the correlation
    function: a k = 0 double pole displaced by i*epsilon plus a truncated
    tower of imaginary-axis image terms, integrated against the collapsed
    window weight proportional to T^3/(u^2 + T^2) over a finite window.

``integrate_sinh_2d``
    Double integral over both interaction times (tau, tau') of the window
    product xi_T(tau) xi_T(tau') against the closed sinh form of the
    correlation function.  In rotated coordinates the integral along the
    diagonal is a Cauchy-Cauchy convolution, done exactly: the window
    weight pi T^3 / (4 (u^2 + T^2)), so one adaptive pass over the time
    separation u remains.  The window side is thus shared in form with the
    1-D route; independence from it, and from the closed form, lies on the
    kernel side (sinh form versus image expansion).

The image sum is the partial-fraction expansion of the sinh form, so the
two routes integrate the same function of u and share everything but the
kernel: one argument check, one regulator ladder and one bound on the
window tails.  Each route is evaluated at every regulator value in
``QuadratureSpec.epsilon_list`` (units of 1/alpha) and Richardson-
extrapolated to epsilon -> 0 from the final pair; the spread between
successive extrapolants feeds the error estimate and a non-convergence
check.  Both error estimates cover the quadrature error, that residual and
the cut of the u-integral at ``window * T``; the 1-D route adds its
image-sum truncation bound.

Normalization
-------------
The windowed integral and the closed-form response use different but
rigidly related normalizations.  The closed form is pinned by the exact
properties J(x,y) - J(-x,y) = x*y/4 and J -> 0 as y -> 0+; the windowed
integral's odd part under omega-reversal is x*y/8 and its vanishing-
window limit is 1/16 (the Lorentzian tails keep weight at short times).
The unique affine map aligning the two conventions is

    j_estimate = 2 * value - 1/8,

exposed on :class:`OracleResult` and used for every closed-form
comparison.  ``value`` itself is always the raw windowed integral.
"""

import cmath
import math
import warnings
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from .errors import DomainError, NonConvergenceError, check_positive

TWO_PI = 2.0 * math.pi
_QUAD_LIMIT = 300


@dataclass(frozen=True)
class QuadratureSpec:
    """Tuning knobs for the quadrature oracles.

    epsilon_list
        Strictly decreasing regulator values, in units of 1/alpha.
    k_max
        Image-sum truncation order (1-D representation only).
    abs_tol / rel_tol
        Error budget used by the non-convergence check and by the
        truncation-dominated flag.
    window
        Half-width of the u-window of both routes, in multiples of T.
    """
    epsilon_list: Tuple[float, ...] = (1e-2, 5e-3, 2.5e-3)
    # Image terms beyond ~6x the window are summed through a power-series
    # tail, so raising k_max costs one vectorized pass over k; the default
    # keeps the truncation bound (alpha*T)^2/(32 pi^2 k_max) well below
    # every tolerance floor this package uses.
    k_max: int = 20000
    abs_tol: float = 1e-6
    rel_tol: float = 1e-3
    window: float = 20.0

    def __post_init__(self) -> None:
        eps = self.epsilon_list
        if len(eps) < 2:
            raise DomainError("epsilon_list needs at least two entries")
        for e in eps:
            check_positive("epsilon_list entry", e)
        if any(a <= b for a, b in zip(eps, eps[1:])):
            raise DomainError("epsilon_list must be strictly decreasing")
        if self.k_max < 1:
            raise DomainError("k_max must be at least 1")
        check_positive("abs_tol", self.abs_tol)
        check_positive("rel_tol", self.rel_tol)
        check_positive("window", self.window)


@dataclass(frozen=True)
class OracleResult:
    """Extrapolated quadrature value with an honest error estimate.

    ``value`` is the raw windowed integral (complex; the imaginary part
    must vanish within ``error_estimate``).  ``epsilon_values`` records
    the pre-extrapolation integral at each regulator value for
    convergence diagnostics.
    """
    value: complex
    error_estimate: float
    representation: str
    epsilon_values: Tuple[complex, ...] = field(default=(), repr=False)
    truncation_bound: float = 0.0
    truncation_dominated: bool = False

    @property
    def j_estimate(self) -> float:
        """Estimate of the closed-form response J (affine renormalization)."""
        return 2.0 * self.value.real - 0.125

    @property
    def j_error_estimate(self) -> float:
        return 2.0 * self.error_estimate


def _u_max(alpha: float, omega: float, T: float, spec: QuadratureSpec) -> float:
    """Check the arguments of either route; return the half-width window * T."""
    check_positive("alpha", alpha)
    check_positive("T", T)
    if not math.isfinite(omega):
        raise DomainError("omega must be finite")
    u_max = spec.window * T
    check_positive("window * T", u_max)
    return u_max


def _spike_points(scale: float, u_max: float) -> list:
    """Geometric ladder of subdivision points resolving a spike at u = 0."""
    pts = [0.0]
    s = scale
    while s < u_max:
        pts.extend((s, -s))
        s *= 4.0
    return pts


def _extrapolate(values, eps_list):
    """Richardson-extrapolate the final epsilon pair; estimate the residual.

    Returns (extrapolated_value, residual): the residual is the spread
    between the extrapolants of the last two adjacent pairs (or the size
    of the final correction when only one pair is available).
    """
    pairs = []
    for i in range(len(values) - 1):
        e0, e1 = eps_list[i], eps_list[i + 1]
        pairs.append(values[i + 1] + (values[i + 1] - values[i]) * e1 / (e0 - e1))
    if len(pairs) >= 2:
        return pairs[-1], abs(pairs[-1] - pairs[-2])
    return pairs[-1], abs(pairs[-1] - values[-1])


def _check_break_points(count: float) -> None:
    if count >= _QUAD_LIMIT:
        raise NonConvergenceError(
            f"{count:.6g} break points leave no room within the "
            f"quadrature's {_QUAD_LIMIT} subintervals; shorten the window")


def _window_tail(alpha: float, T: float, u_max: float) -> float:
    """Bound on the two tails of the u-integral cut off at |u| = u_max.

    Both routes integrate w(u) e^{i omega u} G(u) with the window weight
    w(u) = pi T^3 / (4 (u^2 + T^2)) and, as eps -> 0,
    |G(u)| = alpha^2 / (16 pi^2 sinh^2(alpha |u| / 2)).  Since
    sinh(x) >= sinh(x0) e^{x - x0} for x >= x0 >= 0 and w(u) < pi T^3 / (4 u^2),
    the two tails sum to at most

        T^3 alpha^2 min(1/u_max, 1/(alpha u_max^2)) / (32 pi sinh^2(alpha u_max / 2)),

    i.e. T^3 alpha e^{-alpha u_max} / (8 pi u_max^2) for long windows.
    """
    # 1/sinh^2(x/2) = 4 e^{-x} / (1 - e^{-x})^2, in a form that neither
    # overflows at large x nor cancels at small x
    x = alpha * u_max
    return (T ** 3 * alpha * math.exp(-x)
            / (8.0 * math.pi * u_max * math.expm1(-x) ** 2)
            * min(alpha, 1.0 / u_max))


def _epsilon_ladder(integrand, pole_height: float, poles: list,
                    alpha: float, T: float, u_max: float, spec: QuadratureSpec):
    """Integrate over |u| <= u_max at each regulator and extrapolate eps -> 0.

    ``integrand(u, eps)`` has its regulated pole at u = i pole_height eps
    (eps in units of time); ``poles`` are further break points.  Returns
    the values per regulator, the extrapolant and an error estimate: the
    largest quadrature error + the extrapolation residual + the window
    tails.  A residual beyond 10x the error budget is NonConvergenceError.
    """
    values, quad_errs = [], []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        for eps_units in spec.epsilon_list:
            eps_t = eps_units / alpha
            pts = sorted(set(_spike_points(pole_height * eps_t, u_max) + poles))
            _check_break_points(len(pts))
            val, err = quad(integrand, -u_max, u_max, args=(eps_t,),
                            points=pts, limit=_QUAD_LIMIT, epsabs=1e-12,
                            epsrel=1e-10, complex_func=True)
            values.append(val)
            quad_errs.append(abs(err))

    extrapolated, residual = _extrapolate(values, spec.epsilon_list)
    budget = 10.0 * (spec.abs_tol + spec.rel_tol * abs(extrapolated))
    if residual > budget:
        raise NonConvergenceError(
            f"epsilon extrapolants differ by {residual:.3e}, "
            f"exceeding 10x the error budget {budget / 10.0:.3e}")
    error = max(quad_errs) + residual + _window_tail(alpha, T, u_max)
    return (tuple(complex(v) for v in values), complex(extrapolated),
            float(error))


def integrate_imagesum_1d(alpha: float, omega: float, T: float,
                          spec: QuadratureSpec = QuadratureSpec()) -> OracleResult:
    """Windowed response integral via the image expansion (1-D quadrature).

    Evaluates  -T^3/(16 pi) * Integral du e^{i omega u} / (u^2 + T^2) *
    [ 1/(u - i eps)^2  +  sum_{k=1}^{k_max} ( 1/(u - i c k)^2 + 1/(u + i c k)^2 ) ]
    with c = 2 pi / alpha, over |u| <= window * T, at each regulator value,
    then extrapolates eps -> 0.  The k-tail truncation bound
    (alpha T)^2 / (32 pi^2 k_max) is folded into the error estimate.
    Each image pole c k inside the window is a quadrature break point; a
    window with 300 or more break points (about window * alpha * T / pi)
    raises NonConvergenceError before the poles are listed.
    """
    u_max = _u_max(alpha, omega, T, spec)
    c = TWO_PI / alpha
    n_images = u_max // c
    _check_break_points(2.0 * n_images)
    pref = -T ** 3 / (16.0 * math.pi)

    # Exact image terms for c*k up to 6*u_max; beyond that the truncated
    # sum is evaluated through its rapidly convergent expansion in
    # u^2/(c k)^2 with precomputed partial power sums (still exact
    # summation to k_max up to a relative remainder ~ (1/6)^10).
    k_lo = min(spec.k_max, int(math.ceil(6.0 * u_max / c)))
    w_near = (c * np.arange(1, k_lo + 1, dtype=float)) ** 2
    if k_lo < spec.k_max:
        w_far = (c * np.arange(k_lo + 1, spec.k_max + 1, dtype=float)) ** 2
        s1, s2, s3, s4, s5 = (float(np.sum(w_far ** (-m))) for m in range(1, 6))
    else:
        s1 = s2 = s3 = s4 = s5 = 0.0

    def image_sum(u2: float) -> float:
        near = 2.0 * float(np.sum((u2 - w_near) / (u2 + w_near) ** 2))
        far = 2.0 * (-s1 + u2 * (3.0 * s2 + u2 * (-5.0 * s3 + u2 * (7.0 * s4 - 9.0 * u2 * s5))))
        return near + far

    def f(u, eps_t):
        k0 = 1.0 / (u - 1j * eps_t) ** 2
        return (pref * np.exp(1j * omega * u) * (k0 + image_sum(u * u))
                / (u * u + T * T))

    image_points = [sign * c * k for k in range(1, int(n_images) + 1)
                    for sign in (1.0, -1.0)]
    values, extrapolated, error = _epsilon_ladder(f, 1.0, image_points, alpha,
                                                  T, u_max, spec)
    trunc = (alpha * T) ** 2 / (32.0 * math.pi ** 2 * spec.k_max)
    return OracleResult(value=extrapolated,
                        error_estimate=error + trunc,
                        representation="imagesum1d",
                        epsilon_values=values,
                        truncation_bound=trunc,
                        truncation_dominated=trunc > spec.rel_tol * abs(extrapolated))


def _inv_sinh_squared(x: complex) -> complex:
    """1/sinh^2(x), without overflow far from the diagonal.

    For |Re x| > 20 it is taken as 4 q / (1 - q)^2 with q = e^{-2x} (e^{2x}
    for Re x < 0): |q| < 5e-18 there, so nothing overflows and 1 - q does
    not cancel.
    """
    if abs(x.real) <= 20.0:
        return 1.0 / cmath.sinh(x) ** 2
    q = cmath.exp(-2.0 * x if x.real > 0.0 else 2.0 * x)
    return 4.0 * q / (1.0 - q) ** 2


def _window_weight(u: float, T: float) -> float:
    """1/2 Integral ds xi_T((s+u)/2) xi_T((s-u)/2): a Cauchy-Cauchy convolution."""
    return 0.25 * math.pi * T ** 3 / (u * u + T * T)


def integrate_sinh_2d(alpha: float, omega: float, T: float,
                      spec: QuadratureSpec = QuadratureSpec()) -> OracleResult:
    """Windowed response integral of the sinh-form correlation function.

    Evaluates  Integral dtau dtau' xi_T(tau) xi_T(tau') e^{i omega (tau-tau')}
    G(tau - tau')  with  G(u) = -alpha^2 / (16 pi^2 sinh^2(alpha u / 2 - i eps alpha)).
    In rotated coordinates u = tau - tau', s = tau + tau' (Jacobian 1/2) the
    s-integral of the window product is a Cauchy-Cauchy convolution with
    the exact value

        1/2 Integral ds T^4 / (((s+u)^2 + T^2) ((s-u)^2 + T^2)) = pi T^3 / (4 (u^2 + T^2)),

    so one adaptive u-quadrature over |u| <= window * T per regulator value
    remains; the regulator is extrapolated away as in the 1-D
    representation, and the window tails are bounded by ``_window_tail``.
    The kernel is evaluated in a form that decays far from the diagonal,
    so long windows do not overflow.  ``spec.k_max`` plays no role here.
    """
    u_max = _u_max(alpha, omega, T, spec)
    pref = -alpha ** 2 / (16.0 * math.pi ** 2)

    def f(u, eps_t):
        arg = 0.5 * alpha * u - 1j * eps_t * alpha
        return (_window_weight(u, T) * np.exp(1j * omega * u)
                * pref * _inv_sinh_squared(arg))

    values, extrapolated, error = _epsilon_ladder(f, 2.0, [], alpha, T,
                                                  u_max, spec)
    return OracleResult(value=extrapolated,
                        error_estimate=error,
                        representation="sinh2d",
                        epsilon_values=values)
