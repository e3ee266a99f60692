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

    value(W) = Integral_{|s| <= W} ds w_1(s) e^{i q s} K(s),   K = T^2 G(s T),

a function of y = alpha T and q = omega T alone: the two reduced numbers
of the closed form J(omega/alpha, alpha T).  Both kernels are

    K(s) = -1 / (4 pi^2 (s - i0)^2) + R(s),

with R real, even and regular, so each route rescales once on entry and
supplies only R:

``integrate_imagesum_1d``
    the image expansion, R = -[images at s = +-2 pi i k/y] / (4 pi^2),
    summed over every k >= 1: the near images one by one, the rest
    through Hurwitz zeta power sums;

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
w_1(0) = pi/4, the finite part
Integral_{|s| <= W} (w_1(s) cos(q s) - w_1(0)) / s^2 ds - 2 w_1(0) / W, and
the delta' term -pi q w_1(0).  Since (w_1(s) cos(q s) - w_1(0)) / s^2 =
-w_1(s) (2 sin^2(q s / 2) / s^2 + 1), which does not cancel,

    value(W) = 2 Integral_0^W w_1(s) [cos(q s) R(s) + (2 sin^2(q s / 2) / s^2 + 1) / (4 pi^2)] ds
               + 1 / (8 pi W) + q / 16,

one real quadrature and no regulator.  The delta' term alone carries the
odd part, value(q) - value(-q) = q/8.

Where the quadrature stops
--------------------------
For s > 0 both kernels are K = -1/(4 pi^2 s^2) + R with
|K| = y^2 / (16 pi^2 sinh^2(y s / 2)), and 2 sin^2(q s / 2) = 1 - cos(q s),
so the integrand above is exactly 1/(16 pi s^2) - w_1(s) cos(q s) |K(s)|.
On [S, W] its first part integrates to (1/(8 pi)) (1/S - 1/W), which
cancels the closed-form term 1/(8 pi W) - 1/(8 pi S), hence

    value(W) - value(S) = -2 Integral_S^W w_1(s) cos(q s) |K(s)| ds,

at most ``_window_tail(y, S)`` for every W >= S, infinity included.  So
the window is only a cap: both routes stop at S = ``_cut(y, window)``,
and their error estimate is the quadrature error, plus
``_window_tail(y, S)``, plus, for the 1-D route, the first term its power
series over the far images drops.  The image poles are no features of
the (smooth) integrand, so both routes share one set of break points.

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
_EPSABS = 1e-15    # quad's absolute tolerance, and the window-tail bound at the cut
_FAR_TERMS = 12    # of the power series over the far images


@dataclass(frozen=True)
class QuadratureSpec:
    """Tuning knobs for the quadrature oracles.

    epsilon_list, k_max
        Ignored: both routes take epsilon -> 0 exactly, and the image
        route sums every image (module docstring).  Callers that still
        pass a regulator ladder or an image-sum truncation order (the
        benchmark's ``perfbench/workloads.py``) keep working, so both
        fields keep their defaults and their checks: strictly decreasing
        positive values, at least two, and k_max at least 1.
    abs_tol / rel_tol
        Error budget of the CLI's closed-form comparison.
    window
        Cap on the half-width of the u-window of both routes, in multiples
        of T.  Each route stops earlier where the kernel's majorant allows
        (module docstring, "Where the quadrature stops").
    """
    epsilon_list: Tuple[float, ...] = (1e-2, 5e-3, 2.5e-3)
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

    ``value`` is the raw windowed integral.
    """
    value: float
    error_estimate: float
    representation: str

    @property
    def j_estimate(self) -> float:
        """Estimate of the closed-form response J (affine renormalization)."""
        return 2.0 * self.value - 0.125

    @property
    def j_error_estimate(self) -> float:
        return 2.0 * self.error_estimate


def _reduced(alpha: float, omega: float, T: float) -> Tuple[float, float]:
    """Check the arguments of either route; return y = alpha*T and q = omega*T."""
    check_positive("alpha", alpha)
    check_positive("T", T)
    if not math.isfinite(omega):
        raise DomainError("omega must be finite")
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


def _window_weight(s: float) -> float:
    """w_1(s) = 1/2 Integral dr xi_1((r+s)/2) xi_1((r-s)/2), a Cauchy-Cauchy
    convolution."""
    return 0.25 * math.pi / (s * s + 1.0)


def _window_tail(y: float, window: float) -> float:
    """Bound on the two tails of the s-integral cut off at |s| = window.

    Both routes integrate w_1(s) e^{i q s} K(s), and off the diagonal
    |K(s)| = y^2 / (16 pi^2 sinh^2(y s / 2)).  Since w_1 falls on s > 0
    and the integral of |K| from W = window to infinity is
    y / (4 pi^2 expm1(y W)), the two tails sum to at most

        2 w_1(W) y / (4 pi^2 expm1(y W)) = y / (8 pi (W^2 + 1) expm1(y W)),

    the exact integral of that majorant: at most 3 times the tails, and
    tight as y W grows.
    """
    # y / expm1(y W) = r / W with r = x / expm1(x), x = y W, taken as
    # x e^{-x} / (1 - e^{-x}), which does not overflow; r -> 1 as x -> 0
    x = y * window
    r = x * math.exp(-x) / -math.expm1(-x) if x > 0.0 else 1.0
    return r / (8.0 * math.pi * window * (window * window + 1.0))


def _cut(y: float, window: float) -> float:
    """Where both routes stop: the first s = 2^n min(1, 1/y) at which
    ``_window_tail(y, s)`` is at most _EPSABS, or the window, if that comes
    first (module docstring).  The bound is below 1 / (8 pi s^3), so the
    cut stays below 7e4 however small y is, and below 2^9 / y wherever R
    is in the float range."""
    s = min(window, 1.0, 1.0 / y)
    while s < window and _window_tail(y, s) > _EPSABS:
        s *= 2.0
    return min(s, window)


def _integrate(route, y: float, q: float, window: float,
               representation: str) -> OracleResult:
    """Integrate w_1(s) e^{i q s} K(s) over |s| <= window at epsilon -> 0.

    K = -1/(4 pi^2 (s - i0)^2) + R(s); the singular part is taken in
    closed form (module docstring), so one real quadrature over [0, S],
    S = ``_cut(y, window)``, remains.  ``route(S)`` returns R and a bound
    on the value's error from the approximations inside R.  R falls from
    its value at s = 0 to 1 / (4 pi^2 s^2) around s = 2 / y; break points
    at 2/y, 8/y, 32/y, ... below S keep the quadrature from stepping over
    that where it is narrow against the Lorentzian width 1 (at most 5,
    since S is below 2^9 / y).  Error: the quadrature error
    + ``_window_tail(y, S)`` + the bound from ``route``.  A value or
    estimate beyond the float range is NonConvergenceError.
    """
    cut = _cut(y, window)
    remainder, remainder_error = route(cut)
    points = []
    s = 2.0 / y
    while s < cut:
        points.append(s)
        s *= 4.0

    def integrand(s):
        t = math.sin(0.5 * q * s) / s
        return _window_weight(s) * (
            math.cos(q * s) * remainder(s) + (2.0 * t * t + 1.0) / FOUR_PI_SQUARED)

    val, err = quad(integrand, 0.0, cut, points=points or None,
                    limit=_QUAD_LIMIT, epsabs=_EPSABS, epsrel=1e-13)
    # 2 w_1(0) / S and pi q w_1(0), over 4 pi^2, with w_1(0) = pi/4
    value = 2.0 * val + 1.0 / (8.0 * math.pi * cut) + q / 16.0
    error = 2.0 * abs(err) + _window_tail(y, cut) + remainder_error
    if not (math.isfinite(value) and math.isfinite(error)):
        raise NonConvergenceError(
            f"oracle value {value!r} with error estimate {error!r} leaves "
            f"the float range at window = {window!r}")
    return OracleResult(value=value, error_estimate=float(error),
                        representation=representation)


def integrate_imagesum_1d(alpha: float, omega: float, T: float,
                          spec: QuadratureSpec = QuadratureSpec()) -> OracleResult:
    """Windowed response integral via the image expansion (1-D quadrature).

    In window units (module docstring), with y = alpha T and c = 2 pi / y,
    evaluates  -1/(16 pi) Integral ds e^{i q s} / (s^2 + 1) *
    [ 1/(s - i0)^2 + sum_{k=1}^{inf} ( 1/(s - i c k)^2 + 1/(s + i c k)^2 ) ]
    over |s| <= window, with every image summed (``_image_remainder``).
    The quadrature stops at the cut of ``_integrate``, and the near images
    are counted from it, so no window is too long.
    """
    y, q = _reduced(alpha, omega, T)
    return _integrate(lambda cut: _image_remainder(y, cut), y, q,
                      spec.window, "imagesum1d")


def _image_remainder(y: float, window: float):
    """R(s) of ``integrate_imagesum_1d`` summed over every image for
    0 <= s <= window, and a bound on the value's error from the series of
    the far images.

    With t = s y / (2 pi), the pair at s = +-2 pi i k / y is
    2 (y / 2 pi)^2 (t^2 - k^2) / (t^2 + k^2)^2.  The pairs up to
    k_lo = ceil(6 window y / 2 pi) are summed one by one.  With b = k_lo + 1
    and x = (t / b)^2 < 1/36 on the window, the pairs k >= b sum to

        2 (y / 2 pi b)^2 sum_{m >= 0} (-1)^(m+1) (2m + 1) x^m Z_(m+1),

    where Z_j = b^(2j) zeta(2j, b) = sum_{k >= b} (b / k)^(2j) (Hurwitz
    zeta, DLMF 25.11.1) falls with j.  The terms alternate and shrink at
    least 12-fold, so the first dropped term bounds the series' error.  Of
    12 terms kept, it is at most 25 / 36^12 = 5e-18 of the leading one;
    taken at s = window and integrated against the window weight, it is
    the returned bound.
    Every array entry is O(k_lo^2); only the scalar (y / 2 pi)^2 can leave
    the float range, and then R is infinite and ``_integrate`` raises.
    """
    from scipy.special import zeta
    inv_c = y / TWO_PI
    k_lo = math.ceil(6.0 * window * inv_c)
    k2 = np.arange(1, k_lo + 1, dtype=float) ** 2
    b = k_lo + 1.0
    x_max = (window * inv_c / b) ** 2
    orders = 2.0 * np.arange(1, _FAR_TERMS + 2)
    z = zeta(orders, b) * b ** orders
    coefs = [(-1) ** (m + 1) * (2 * m + 1) * float(z[m]) / (b * b)
             for m in reversed(range(_FAR_TERMS))]
    scale = inv_c * inv_c / FOUR_PI_SQUARED

    def remainder(s):
        t = s * inv_c
        t2 = t * t
        x = t2 / (b * b)
        far = 0.0
        for coef in coefs:
            far = far * x + coef
        d = t2 + k2
        return -2.0 * scale * (float(((t2 - k2) / (d * d)).sum()) + far)

    # the dropped term of R at s = W, times 2 Integral_0^W w_1 = (pi / 2) atan(W)
    dropped = (2.0 * scale * (2 * _FAR_TERMS + 1) * x_max ** _FAR_TERMS
               * float(z[_FAR_TERMS]) / (b * b))
    return remainder, 0.5 * math.pi * math.atan(window) * dropped


def integrate_sinh_2d(alpha: float, omega: float, T: float,
                      spec: QuadratureSpec = QuadratureSpec()) -> OracleResult:
    """Windowed response integral of the sinh-form correlation function.

    Evaluates  Integral dtau dtau' xi_T(tau) xi_T(tau') e^{i omega (tau-tau')}
    G(tau - tau')  with  G(u) = -alpha^2 / (16 pi^2 sinh^2(alpha u / 2 - i0)).
    In window units (module docstring) and rotated coordinates
    s = (tau - tau') / T, r = (tau + tau') / T (Jacobian 1/2), the
    r-integral of the window product is the exact ``_window_weight``

        1/2 Integral dr 1 / (((r+s)^2 + 1) ((r-s)^2 + 1)) = pi / (4 (s^2 + 1)),

    so one adaptive quadrature remains, which stops at the cut of
    ``_integrate``.
    """
    y, q = _reduced(alpha, omega, T)
    return _integrate(lambda cut: (_sinh_remainder(y), 0.0), y, q,
                      spec.window, "sinh2d")


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
