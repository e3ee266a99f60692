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

    value = Integral_{|s| <= window} ds w_1(s) e^{i q s} K(s),   K = T^2 G(s T),

a function of y = alpha T and q = omega T alone: the two reduced numbers
of the closed form J(omega/alpha, alpha T).  Both kernels are

    K(s) = -1 / (4 pi^2 (s - i0)^2) + R(s),

with R real, even and regular, so each route rescales once on entry and
supplies only R, its break points and its truncation bound:

``integrate_imagesum_1d``
    the image expansion, R = -[images at s = +-2 pi i k/y] / (4 pi^2),
    truncated at k = k_max;

``integrate_sinh_2d``
    the sinh form -y^2 / (16 pi^2 sinh^2(y s / 2 - i0)), from the double
    integral over both interaction times, whose integral along the
    diagonal is a Cauchy-Cauchy convolution done exactly (w_T above);
    R = [1 - (h / sinh h)^2] / (4 pi^2 s^2) with h = y s / 2.

The image sum is the partial-fraction expansion of the sinh form, so the
routes integrate the same function and are independent of each other, and
of the closed form, only through R.

The limit epsilon -> 0
----------------------
One shared, scale-free path adds the singular part in closed form.  The
differentiated Sokhotski-Plemelj identity

    1 / (s - i0)^2 = f.p. 1/s^2 - i pi delta'(s)

(Gel'fand & Shilov, Generalized Functions I, section I.3) gives, with
w_1(0) = pi/4 and W = window, the finite part
Integral_{|s| <= W} (w_1(s) cos(q s) - w_1(0)) / s^2 ds - 2 w_1(0) / W, and
the delta' term -pi q w_1(0).  Since (w_1(s) cos(q s) - w_1(0)) / s^2 =
-w_1(s) (2 sin^2(q s / 2) / s^2 + 1), which does not cancel,

    value = 2 Integral_0^W w_1(s) [cos(q s) R(s) + (2 sin^2(q s / 2) / s^2 + 1) / (4 pi^2)] ds
            + 1 / (8 pi W) + q / 16,

one real quadrature and no regulator.  The delta' term alone carries the
odd part, value(q) - value(-q) = q/8.  The error estimate is the
quadrature error, plus a bound on the cut at |s| = window, plus, for the
1-D route, its image-sum truncation bound.

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

import math
import warnings
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import DomainError, NonConvergenceError, check_positive

TWO_PI = 2.0 * math.pi
FOUR_PI_SQUARED = 4.0 * math.pi ** 2
_QUAD_LIMIT = 300


@dataclass(frozen=True)
class QuadratureSpec:
    """Tuning knobs for the quadrature oracles.

    epsilon_list
        Ignored: both routes take epsilon -> 0 exactly (module docstring).
        Callers that still pass a regulator ladder (the benchmark's
        ``perfbench/workloads.py``) keep working, so the field keeps its
        default and its checks: strictly decreasing positive values, at
        least two.
    k_max
        Image-sum truncation order (1-D representation only).
    abs_tol / rel_tol
        Error budget of the CLI's closed-form comparison; rel_tol also
        sets the truncation-dominated flag.
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
    """Quadrature value at epsilon -> 0 with an honest error estimate.

    ``value`` is the raw windowed integral.  It is complex, and its
    imaginary part is exactly 0.0: the window weight and R are even, so
    the sin(q s) part of e^{i q s} integrates to 0 against them and
    against f.p. 1/s^2, and the delta' term is real (module docstring).
    """
    value: complex
    error_estimate: float
    representation: str
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
    w(u) = pi T^3 / (4 (u^2 + T^2)) and, off the diagonal,
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


def _check_break_points(count: float) -> None:
    if count >= _QUAD_LIMIT:
        raise NonConvergenceError(
            f"{count:.6g} break points leave no room within the "
            f"quadrature's {_QUAD_LIMIT} subintervals")


def _integrate(remainder, points: list, y: float, q: float,
               spec: QuadratureSpec, representation: str,
               trunc: float = 0.0) -> OracleResult:
    """Integrate w_1(s) e^{i q s} K(s) over |s| <= window at epsilon -> 0.

    K = -1/(4 pi^2 (s - i0)^2) + remainder(s); the singular part is taken
    in closed form (module docstring), so one real quadrature over
    [0, window], with the break points ``points``, remains.  Error: the
    quadrature error + the window tails + the truncation bound.  A value
    or estimate beyond the float range is NonConvergenceError.
    """
    window = spec.window

    def integrand(s):
        t = math.sin(0.5 * q * s) / s
        return _window_weight(s, 1.0) * (
            math.cos(q * s) * remainder(s) + (2.0 * t * t + 1.0) / FOUR_PI_SQUARED)

    val, err = quad(integrand, 0.0, window, points=points or None,
                    limit=_QUAD_LIMIT, epsabs=0.5e-12, epsrel=1e-10)
    # 2 w_1(0) / W and pi q w_1(0), over 4 pi^2, with w_1(0) = pi/4
    value = 2.0 * val + 1.0 / (8.0 * math.pi * window) + q / 16.0
    error = 2.0 * abs(err) + _window_tail(y, 1.0, window) + trunc
    if not (math.isfinite(value) and math.isfinite(error)):
        raise NonConvergenceError(
            f"oracle value {value!r} with error estimate {error!r} leaves "
            f"the float range at window = {window!r}")
    return OracleResult(value=complex(value), error_estimate=float(error),
                        representation=representation,
                        truncation_bound=trunc,
                        truncation_dominated=trunc > spec.rel_tol * abs(value))


def integrate_imagesum_1d(alpha: float, omega: float, T: float,
                          spec: QuadratureSpec = QuadratureSpec()) -> OracleResult:
    """Windowed response integral via the image expansion (1-D quadrature).

    In window units (module docstring), with y = alpha T and c = 2 pi / y,
    evaluates  -1/(16 pi) Integral ds e^{i q s} / (s^2 + 1) *
    [ 1/(s - i0)^2 + sum_{k=1}^{k_max} ( 1/(s - i c k)^2 + 1/(s + i c k)^2 ) ]
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
    return _integrate(_image_remainder(y, spec), image_points, y, q, spec,
                      "imagesum1d", y * y / (32.0 * math.pi ** 2 * spec.k_max))


def _image_remainder(y: float, spec: QuadratureSpec):
    """R(s) of ``integrate_imagesum_1d``: the images k = 1 .. spec.k_max.

    The pair at s = +-i c k, c = 2 pi / y, is 2 v (u - 1) / (u + 1)^2 with
    v = 1/(c k)^2 and u = s^2 v, built from v = (y / (2 pi k))^2 so that
    no term overflows however small y is.
    """
    inv_c = y / TWO_PI
    # Exact image terms for c*k up to 6*window; beyond that the truncated
    # sum is evaluated through its rapidly convergent expansion in
    # s^2/(c k)^2 with precomputed partial power sums (still exact
    # summation to k_max up to a relative remainder ~ (1/6)^10).
    k_lo = min(spec.k_max, int(math.ceil(6.0 * spec.window * inv_c)))
    v_near = (inv_c / np.arange(1, k_lo + 1, dtype=float)) ** 2
    v_far = (inv_c / np.arange(k_lo + 1, spec.k_max + 1, dtype=float)) ** 2
    p1, p2, p3, p4, p5 = (float(np.sum(v_far ** m)) for m in range(1, 6))

    def remainder(s):
        s2 = s * s
        u = s2 * v_near
        near = 2.0 * float(np.sum(v_near * (u - 1.0) / (u + 1.0) ** 2))
        far = 2.0 * (-p1 + s2 * (3.0 * p2 + s2 * (-5.0 * p3 + s2 * (7.0 * p4 - 9.0 * s2 * p5))))
        return -(near + far) / FOUR_PI_SQUARED

    return remainder


def integrate_sinh_2d(alpha: float, omega: float, T: float,
                      spec: QuadratureSpec = QuadratureSpec()) -> OracleResult:
    """Windowed response integral of the sinh-form correlation function.

    Evaluates  Integral dtau dtau' xi_T(tau) xi_T(tau') e^{i omega (tau-tau')}
    G(tau - tau')  with  G(u) = -alpha^2 / (16 pi^2 sinh^2(alpha u / 2 - i0)).
    In rotated coordinates u = tau - tau', r = tau + tau' (Jacobian 1/2)
    the r-integral of the window product is the exact ``_window_weight``

        1/2 Integral dr T^4 / (((r+u)^2 + T^2) ((r-u)^2 + T^2)) = pi T^3 / (4 (u^2 + T^2)),

    so in window units (module docstring) one adaptive quadrature over
    [0, window] remains.  R falls from y^2 / (48 pi^2) to 1 / (4 pi^2 s^2)
    around s = 2 / y; where that is narrow against the Lorentzian width 1,
    break points at 2/y, 8/y, 32/y, ... below 0.1 keep the quadrature from
    stepping over it, and 150 or more of them (y beyond about 1e91) raise
    NonConvergenceError.  ``spec.k_max`` plays no role here.
    """
    y, q = _reduced(alpha, omega, T, spec)
    points = []
    s = 2.0 / y
    while s < 0.1:
        points.append(s)
        s *= 4.0
    _check_break_points(2.0 * len(points))
    return _integrate(_sinh_remainder(y), points, y, q, spec, "sinh2d")


def _sinh_remainder(y: float):
    """R(s) = [1 - (h / sinh h)^2] / (4 pi^2 s^2) of ``integrate_sinh_2d``.

    h = y s / 2.  Below h = 0.1 the bracket cancels and is taken from its
    series; above it h / sinh h = 2 h e^{-h} / (1 - e^{-2h}), which does
    not overflow far from the diagonal.
    """
    half_y = 0.5 * y

    def remainder(s):
        h = half_y * s
        if h < 0.1:  # (h / s)^2 times the series of the bracket over h^2
            h2 = h * h
            return half_y * half_y * (1.0 / 3.0 - h2 * (1.0 / 15.0 - h2 * (
                2.0 / 189.0 - h2 * (1.0 / 675.0 - h2 * (2.0 / 10395.0))))) / FOUR_PI_SQUARED
        ratio = 2.0 * h * math.exp(-h) / -math.expm1(-2.0 * h)
        return (1.0 - ratio * ratio) / FOUR_PI_SQUARED / s / s

    return remainder
