"""Hyperbolic worldline of the qubit during a vacuum contact.

Natural units (c = 1).  A contact at proper acceleration alpha runs over
proper time tau in [-tau_half, tau_half] with tau_half = arctanh(v)/alpha,
so the coordinate velocity tanh(alpha*tau) sweeps -v -> +v.
"""

import math
from dataclasses import dataclass

from .errors import DomainError, check_positive
from .response import _check_speed


@dataclass(frozen=True)
class Worldline:
    """One uniformly accelerated leg, parameterized by its endpoint speed."""
    alpha: float
    v: float

    def __post_init__(self):
        check_positive("alpha", self.alpha)
        if not 0.0 < self.v < 1.0:
            raise DomainError("v out of (0, 1)")

    @property
    def tau_half(self) -> float:
        return math.atanh(self.v) / self.alpha


def trajectory_point(w: Worldline, tau: float) -> tuple:
    """Coordinates (t, x) at proper time tau: t = sinh(alpha*tau)/alpha,
    x = cosh(alpha*tau)/alpha, so x^2 - t^2 = 1/alpha^2."""
    if abs(tau) > w.tau_half:
        raise DomainError("tau outside the contact interval")
    return math.sinh(w.alpha * tau) / w.alpha, math.cosh(w.alpha * tau) / w.alpha


def velocity(w: Worldline, tau: float) -> float:
    """Coordinate velocity tanh(alpha*tau) at proper time tau."""
    if abs(tau) > w.tau_half:
        raise DomainError("tau outside the contact interval")
    return math.tanh(w.alpha * tau)


def contact_durations(alpha_H: float, alpha_C: float, v: float) -> tuple:
    """Proper durations (T_hot, T_cold) of the two vacuum contacts.

    T_hot = 2*arctanh(v)/alpha_H and T_cold = 2*arctanh(v)/alpha_C.  The
    constant-velocity legs between contacts have no thermodynamic role and
    their duration is left to the caller.
    """
    check_positive("alpha_H", alpha_H)
    check_positive("alpha_C", alpha_C)
    _check_speed(v)
    return 2.0 * math.atanh(v) / alpha_H, 2.0 * math.atanh(v) / alpha_C
