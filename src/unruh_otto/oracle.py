"""Brute-force quadrature oracles for the vacuum-response function.

Two independent numerical routes to the same windowed response integral
provide ground truth for the closed form in :mod:`unruh_otto.response`.
Both weight the accelerated-vacuum correlation function with a Lorentzian
window xi_T(tau) = (T/2)^2 / (tau^2 + (T/2)^2) of effective duration T —
a sharp window is not an option here: its kink at zero time separation
drives a logarithmic divergence as the short-distance regulator epsilon
is removed, growing like log(1/epsilon)/(2 pi^2), whereas the Lorentzian-
windowed integral converges and admits a closed form.

Window units
------------
Over the time separation u the window product collapses to the weight
w_T(u) = pi T^3 / (4 (u^2 + T^2)).  In units s = u/T the integral reads

    value = Integral_{|s| <= window} ds w_1(s) e^{i q s} K(s, eps),   K = T^2 G(s T),

a function of y = alpha T and q = omega T alone: the two reduced numbers
of the closed form J(omega/alpha, alpha T).  Each route rescales once on
entry and supplies only its kernel K, its break points and its truncation
bound:

``integrate_imagesum_1d``
    the image expansion -[1/(s - i eps/y)^2 + images at s = +-2 pi i k/y] / (4 pi^2),
    truncated at k = k_max;

``integrate_sinh_2d``
    the sinh form -y^2 / (16 pi^2 sinh^2(y s / 2 - i eps)), from the double
    integral over both interaction times, whose integral along the
    diagonal is a Cauchy-Cauchy convolution done exactly (w_T above).

The image sum is the partial-fraction expansion of the sinh form, so the
routes integrate the same function and are independent of each other, and
of the closed form, only through the kernel.  One shared, scale-free path
does the rest: it integrates, as one real quadrature over [0, window]
(``OracleResult`` says why that is exact), at every regulator value in
``QuadratureSpec.epsilon_list`` (units of 1/alpha) and Richardson-
extrapolates to epsilon -> 0 from the final pair; the spread between
successive extrapolants feeds the error estimate and a non-convergence
check.  Both error estimates cover the quadrature error, that residual and
the cut at |s| = window; the 1-D route adds its image-sum truncation bound.

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

    ``value`` is the raw windowed integral.  It is complex, and its
    imaginary part is exactly 0.0: both kernels satisfy
    K(-s, eps) = conj K(s, eps) and the window weight is even, so the
    integrand at -s is the conjugate of that at s and the integral over
    |s| <= window is twice the real part of the one over [0, window].
    ``epsilon_values`` records the pre-extrapolation integral at each
    regulator value for convergence diagnostics.
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


def _reduced(alpha: float, omega: float, T: float,
             spec: QuadratureSpec) -> Tuple[float, float]:
    """Check the arguments of either route; return y = alpha*T and q = omega*T."""
    check_positive("alpha", alpha)
    check_positive("T", T)
    if not math.isfinite(omega):
        raise DomainError("omega must be finite")
    check_positive("window * T", spec.window * T)
    y = alpha * T
    check_positive("alpha * T", y)
    q = omega * T
    if not math.isfinite(q):
        raise DomainError("omega * T must be finite")
    return y, q


def _spike_points(scale: float, half_width: float) -> list:
    """Geometric ladder of subdivision points resolving a spike at 0, on
    the positive side."""
    pts = []
    s = scale
    while s < half_width:
        pts.append(s)
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


def quad(func, a: float, b: float, **kwargs):
    """scipy.integrate.quad with its IntegrationWarning silenced.

    scipy is imported on the first call, so that the closed form and the
    CLI start without it.
    """
    from scipy.integrate import IntegrationWarning
    from scipy.integrate import quad as scipy_quad
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        return scipy_quad(func, a, b, **kwargs)


def _window_weight(u: float, T: float) -> float:
    """1/2 Integral dr xi_T((r+u)/2) xi_T((r-u)/2): a Cauchy-Cauchy convolution."""
    return 0.25 * math.pi * T ** 3 / (u * u + T * T)


def _window_tail(alpha: float, T: float, u_max: float) -> float:
    """Bound on the two tails of the u-integral cut off at |u| = u_max.

    Both routes integrate w(u) e^{i omega u} G(u) with the window weight
    w(u) = pi T^3 / (4 (u^2 + T^2)) and, as eps -> 0,
    |G(u)| = alpha^2 / (16 pi^2 sinh^2(alpha |u| / 2)).  Since
    sinh(x) >= sinh(x0) e^{x - x0} for x >= x0 >= 0 and w(u) < pi T^3 / (4 u^2),
    the two tails sum to at most

        T^3 alpha^2 min(1/u_max, 1/(alpha u_max^2)) / (32 pi sinh^2(alpha u_max / 2)),

    i.e. T^3 alpha e^{-alpha u_max} / (8 pi u_max^2) for long windows.
    In window units it is called as (y, 1, window).
    """
    # 1/sinh^2(x/2) = 4 e^{-x} / (1 - e^{-x})^2 with x = alpha u_max, taken
    # through x / (1 - e^{-x}), which neither overflows at large x nor
    # cancels or underflows at small x
    x = alpha * u_max
    r = x / math.expm1(-x) / u_max
    return (T ** 3 * math.exp(-x) * r * r / (8.0 * math.pi * u_max)
            * min(1.0, 1.0 / x))


def _integrate(kernel, pole_height: float, poles: list, y: float, q: float,
               spec: QuadratureSpec, representation: str,
               trunc: float = 0.0) -> OracleResult:
    """Integrate w_1(s) e^{i q s} kernel(s, eps) over |s| <= window; eps -> 0.

    The integrand at -s is the conjugate of that at s (``OracleResult``),
    so one real quadrature over [0, window] gives the value, doubled.  The
    kernel's regulated pole sits at s = i pole_height eps / y; ``poles``
    are the further break points in (0, window].  Error: the largest
    quadrature error + the extrapolation residual + the window tails + the
    truncation bound.
    A pole not small against the Lorentzian width 1 or the cut, where the
    extrapolation in eps has no footing, is NonConvergenceError.
    """
    window = spec.window
    pole = pole_height * spec.epsilon_list[0] / y
    if not pole < min(1.0, window):
        raise NonConvergenceError(
            f"regulated pole at {pole:.3e} T is not below min(1, window) = "
            f"{min(1.0, window):.3e}; choose smaller epsilon_list values")

    def integrand(s, eps):
        return (_window_weight(s, 1.0) * cmath.exp(1j * q * s)
                * kernel(s, eps)).real

    values, quad_errs = [], []
    for eps in spec.epsilon_list:
        pts = sorted(set(_spike_points(pole_height * eps / y, window) + poles))
        _check_break_points(2 * len(pts) + 1)  # both sides and 0
        val, err = quad(integrand, 0.0, window, args=(eps,), points=pts,
                        limit=_QUAD_LIMIT, epsabs=0.5e-12, epsrel=1e-10)
        values.append(complex(2.0 * val))
        quad_errs.append(2.0 * abs(err))

    extrapolated, residual = _extrapolate(values, spec.epsilon_list)
    budget = 10.0 * (spec.abs_tol + spec.rel_tol * abs(extrapolated))
    if residual > budget:
        raise NonConvergenceError(
            f"epsilon extrapolants differ by {residual:.3e}, "
            f"exceeding 10x the error budget {budget / 10.0:.3e}")
    error = max(quad_errs) + residual + _window_tail(y, 1.0, window) + trunc
    return OracleResult(value=complex(extrapolated),
                        error_estimate=float(error),
                        representation=representation,
                        epsilon_values=tuple(values),
                        truncation_bound=trunc,
                        truncation_dominated=trunc > spec.rel_tol * abs(extrapolated))


def integrate_imagesum_1d(alpha: float, omega: float, T: float,
                          spec: QuadratureSpec = QuadratureSpec()) -> OracleResult:
    """Windowed response integral via the image expansion (1-D quadrature).

    In window units (module docstring), with y = alpha T and c = 2 pi / y,
    evaluates  -1/(16 pi) Integral ds e^{i q s} / (s^2 + 1) *
    [ 1/(s - i eps/y)^2 + sum_{k=1}^{k_max} ( 1/(s - i c k)^2 + 1/(s + i c k)^2 ) ]
    over |s| <= window.  The k-tail truncation bound y^2 / (32 pi^2 k_max)
    is folded into the error estimate.  Each image pole c k inside the
    window is a quadrature break point; 300 or more break points (about
    window * y / pi) raise NonConvergenceError before the poles are listed.
    """
    y, q = _reduced(alpha, omega, T, spec)
    c = TWO_PI / y
    n_images = spec.window // c
    _check_break_points(2.0 * n_images)
    image_points = [c * k for k in range(1, int(n_images) + 1)]
    return _integrate(_image_kernel(y, spec), 1.0, image_points, y, q, spec,
                      "imagesum1d", y * y / (32.0 * math.pi ** 2 * spec.k_max))


def _image_kernel(y: float, spec: QuadratureSpec):
    """K(s, eps) of ``integrate_imagesum_1d``: the image sum to spec.k_max."""
    c = TWO_PI / y
    # Exact image terms for c*k up to 6*window; beyond that the truncated
    # sum is evaluated through its rapidly convergent expansion in
    # s^2/(c k)^2 with precomputed partial power sums (still exact
    # summation to k_max up to a relative remainder ~ (1/6)^10).
    k_lo = min(spec.k_max, int(math.ceil(6.0 * spec.window / c)))
    w_near = (c * np.arange(1, k_lo + 1, dtype=float)) ** 2
    w_far = (c * np.arange(k_lo + 1, spec.k_max + 1, dtype=float)) ** 2
    p1, p2, p3, p4, p5 = (float(np.sum(w_far ** (-m))) for m in range(1, 6))

    def kernel(s, eps):
        s2 = s * s
        near = 2.0 * float(np.sum((s2 - w_near) / (s2 + w_near) ** 2))
        far = 2.0 * (-p1 + s2 * (3.0 * p2 + s2 * (-5.0 * p3 + s2 * (7.0 * p4 - 9.0 * s2 * p5))))
        return -(1.0 / (s - 1j * eps / y) ** 2 + near + far) / (4.0 * math.pi ** 2)

    return kernel


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


def integrate_sinh_2d(alpha: float, omega: float, T: float,
                      spec: QuadratureSpec = QuadratureSpec()) -> OracleResult:
    """Windowed response integral of the sinh-form correlation function.

    Evaluates  Integral dtau dtau' xi_T(tau) xi_T(tau') e^{i omega (tau-tau')}
    G(tau - tau')  with  G(u) = -alpha^2 / (16 pi^2 sinh^2(alpha u / 2 - i eps)).
    In rotated coordinates u = tau - tau', r = tau + tau' (Jacobian 1/2)
    the r-integral of the window product is the exact ``_window_weight``

        1/2 Integral dr T^4 / (((r+u)^2 + T^2) ((r-u)^2 + T^2)) = pi T^3 / (4 (u^2 + T^2)),

    so in window units (module docstring) one adaptive quadrature over
    |s| <= window remains per regulator value.  The kernel is evaluated in
    a form that decays far from the diagonal, so long windows do not
    overflow.  ``spec.k_max`` plays no role here.
    """
    y, q = _reduced(alpha, omega, T, spec)
    return _integrate(_sinh_kernel(y), 2.0, [], y, q, spec, "sinh2d")


def _sinh_kernel(y: float):
    """K(s, eps) of ``integrate_sinh_2d``."""
    pref = -y * y / (16.0 * math.pi ** 2)

    def kernel(s, eps):
        return pref * _inv_sinh_squared(0.5 * y * s - 1j * eps)

    return kernel
