"""Closed-form vacuum response of a uniformly accelerated two-level system.

A qubit of gap omega coupled to the massless scalar vacuum for a finite
stretch of uniformly accelerated motion picks up a population change that
is governed by a single dimensionless response function J(x, y), with
x = omega/alpha the gap measured in units of the proper acceleration and
y = alpha*T the contact duration measured in proper-acceleration units.
J assembles a short-window term regular in y, a Heaviside piece present
only for de-excitation (x > 0), and four Lerch-transcendent terms carrying
the thermal structure of the accelerated vacuum:

    J(x,y) = (y/2)^2 e^{-|x|y} / (8 sin^2(y/2)) - 1/8 + (|x| y / 4) theta(x)
           + (y^2 z / 32 pi^2) [phi(z,2,1+y/2pi) - phi(z,2,1-y/2pi)]
           + (|x| y^2 z / 16 pi) [phi(z,1,1+y/2pi) - phi(z,1,1-y/2pi)],

with z = e^{-2 pi |x|}.  Two exact properties pin the normalization and
are exercised heavily by the test suite:

    J(x,y) - J(-x,y) = x*y/4          (detailed-balance-like asymmetry)
    J(x,y) -> 0 as y -> 0+            (no response without contact)

The population correction for a qubit prepared with excited population p,
riding a hyperbolic worldline of reduced acceleration a = alpha/omega and
speed endpoint v (so y = 2*arctanh(v)), is

    delta_p = g^2 [ (1 - 2p) J(-1/a, y) - p * arctanh(v) / (2a) ],

equivalently g^2 [ (1-p) J(-1/a, y) - p J(1/a, y) ] via the asymmetry
identity.  Both forms are exposed and must agree to 1e-10.

Domain: y must lie in (0, 2*pi), which for cycle speeds means
v < tanh(pi) ~ 0.99627.  That is a limit of this evaluation, not of the
response: the Lerch shift 1 - y/2pi reaches zero at y = 2*pi, and the
Lerch sums (``specfun``, all four from one call) need a shift a > 0 (the
double pole there cancels against the sin^2(y/2) factor, and J stays
finite and smooth through y = 2*pi).
Values of J can be negative at small reduced
acceleration; this is a genuine feature of the finite-contact response and
marks the region where the perturbative treatment loses validity (see
``perturbative_validity``).
"""

import math
import sys
from dataclasses import dataclass
from typing import Optional, Tuple

from .errors import DomainError, check_positive
from .specfun import _lerch_table

TWO_PI = 2.0 * math.pi

#: Largest admissible cycle speed: y = 2*arctanh(v) must stay below 2*pi.
V_MAX = math.tanh(math.pi)

#: How many times g^2 * arctanh(v) the acceleration a must reach for the
#: perturbative treatment to count as valid.
VALIDITY_MARGIN = 10.0


def _check_speed(v: float) -> None:
    if not 0.0 < v < V_MAX:
        raise DomainError("v out of (0, tanh(pi))")


def _check_probability(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise DomainError("p out of [0, 1]")


def _check_reduced_point(a: float, p: float, v: float, g: float) -> None:
    check_positive("a", a)
    _check_probability(p)
    _check_speed(v)
    check_positive("g", g)


def j_function(x: float, y: float) -> float:
    """Evaluate the vacuum-response function J(x, y).

    Raises DomainError for y outside (0, 2*pi) or x = 0 (the Heaviside
    convention at x = 0 never arises for finite reduced accelerations).
    """
    x = float(x)
    y = float(y)
    if not 0.0 < y < TWO_PI:
        raise DomainError("y out of (0, 2*pi)")
    if x == 0.0 or not math.isfinite(x):
        raise DomainError("x must be nonzero and finite")

    ax = abs(x)
    z = math.exp(-TWO_PI * ax)
    shift = y / TWO_PI
    sin_half = math.sin(0.5 * y)

    if sin_half ** 2 >= sys.float_info.min:
        value = (0.5 * y) ** 2 * math.exp(-ax * y) / (8.0 * sin_half ** 2) - 0.125
    else:  # sin(y/2)^2 underflows, and (y/2) / sin(y/2) rounds to 1
        value = math.exp(-ax * y) / 8.0 - 0.125
    if x > 0.0:
        value += 0.25 * ax * y
    if z == 0.0:  # both Lerch terms are +0.0, and |x| y^2 may be inf
        return value
    # z rounds to 1 below |x| ~ 8.8e-18; the log-z expansion takes log z exactly
    log_z = math.log(z) if z < 1.0 else -TWO_PI * ax
    (p1, m1), (p2, m2) = _lerch_table(z, log_z, (1, 2),
                                      (1.0 + shift, 1.0 - shift))
    value += y * y * z / (32.0 * math.pi ** 2) * (p2 - m2)
    value += ax * y * y * z / (16.0 * math.pi) * (p1 - m1)
    return value


def vacuum_response(alpha: float, omega: float, duration: float) -> float:
    """Response integral for acceleration alpha, gap omega, proper duration T.

    Dimensionless packaging of j_function: equals J(omega/alpha, alpha*T).
    Its refusals name these arguments, not x and y.
    """
    check_positive("alpha", alpha)
    check_positive("duration", duration)
    if omega == 0.0 or not math.isfinite(omega):
        raise DomainError("omega must be nonzero and finite")
    y = alpha * duration
    if not 0.0 < y < TWO_PI:
        raise DomainError("alpha * duration out of (0, 2*pi)")
    x = omega / alpha
    if not math.isfinite(x):
        raise DomainError("omega / alpha must be finite")
    if x == 0.0:
        # the ratio underflowed; J is continuous at x = 0, so J at the least
        # subnormal of omega's sign is J(omega / alpha, y) to rounding
        x = math.copysign(5e-324, omega)
    return j_function(x, y)


def kick_and_response(a: float, p: float, v: float,
                      g: float = 1.0) -> Tuple[float, float]:
    """delta_p together with the J(-1/a, y) it rests on, from one J call."""
    _check_reduced_point(a, p, v, g)
    j_value = j_function(-1.0 / a, 2.0 * math.atanh(v))
    return kick(j_value, a, p, v, g), j_value


def kick(j_value: float, a: float, p: float, v: float,
         g: float = 1.0) -> float:
    """delta_p from a given J(-1/a, 2 atanh v), continued to any real p:
    the cycle's fixed point may leave [0, 1] and must still evaluate."""
    return g * g * ((1.0 - 2.0 * p) * j_value - p * math.atanh(v) / (2.0 * a))


def delta_p(a: float, p: float, v: float, g: float = 1.0) -> float:
    """Population correction delta_p for one vacuum contact (reduced form)."""
    return kick_and_response(a, p, v, g)[0]


def delta_p_unreduced(a: float, p: float, v: float, g: float = 1.0) -> float:
    """delta_p written with both excitation and de-excitation responses.

    Equals ``delta_p`` to 1e-10 (linked by the x*y/4 asymmetry identity);
    kept as an independent route for cross-checking.
    """
    _check_reduced_point(a, p, v, g)
    y = 2.0 * math.atanh(v)
    return g * g * ((1.0 - p) * j_function(-1.0 / a, y)
                    - p * j_function(1.0 / a, y))


def v_max_for(a: float, g: float = 1.0) -> float:
    """Largest speed for which the perturbative correction stays small."""
    check_positive("a", a)
    check_positive("g", g)
    return math.tanh(a / (g * g))


@dataclass(frozen=True)
class ValidityVerdict:
    """Outcome of the perturbative small-correction check.

    ``ratio`` is a / (g^2 * arctanh(v)), inf where that product underflows
    to 0; the check passes when it is at least ``VALIDITY_MARGIN``.  When
    an initial population was supplied, the corrected population
    p + delta_p and its membership in (0, 1) are reported as well.
    """
    ratio: float
    passed: bool
    v_max: float
    population_after: Optional[float] = None
    in_unit_interval: Optional[bool] = None


def perturbative_validity(a: float, v: float, g: float = 1.0,
                          p: Optional[float] = None) -> ValidityVerdict:
    """Check a >= VALIDITY_MARGIN * g^2 * arctanh(v), the condition for
    |delta_p| << 1."""
    _check_reduced_point(a, 0.0, v, g)  # p, if given, is checked by delta_p

    scale = g * g * math.atanh(v)
    ratio = a / scale if scale > 0.0 else math.inf   # the product underflows
    verdict = ValidityVerdict(ratio, ratio >= VALIDITY_MARGIN, v_max_for(a, g))
    if p is None:
        return verdict
    return with_population(verdict, p, delta_p(a, p, v, g))


def with_population(verdict: ValidityVerdict, p: float,
                    kick: float) -> ValidityVerdict:
    """``verdict`` completed with the population p + kick after the contact."""
    shifted = p + kick
    return ValidityVerdict(verdict.ratio, verdict.passed, verdict.v_max,
                           shifted, 0.0 < shifted < 1.0)
