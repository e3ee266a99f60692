"""Four-stroke Otto cycle driven by uniformly accelerated vacuum contacts.

The working medium is a two-level detector with populations (1-p, p).
One cycle consists of: (1) adiabatic gap compression omega1 -> omega2
at frozen population, (2) a hot contact — uniform acceleration alpha_H
through the vacuum at gap omega2, shifting the excited population by
dp_hot, (3) adiabatic expansion omega2 -> omega1, and (4) a cold
contact at acceleration alpha_C and gap omega1.  Populations only move
during contacts; the gap only moves during adiabats, so every stage is
either pure work or pure heat and q1 = w2 = q3 = w4 = 0 identically.

The cycle closes (returns to the same p) at the critical probability
p0, where the hot and cold population kicks cancel.  Work is extracted
when the hot contact pumps population up, i.e. dp_hot > 0.  Everything
here is leading order in the coupling g, so the two contacts decouple
and p0 follows in closed form from the vacuum response function.

A classical reference is provided: contacts with ideal thermal baths
whose temperatures are identified with the reduced accelerations
directly (Gibbs weight exp(-1/a)), not with a/2pi — the comparison is
defined this way on purpose, so the two engines agree in the
high-acceleration limit rather than differing by a constant factor.
Do not "fix" the missing 2pi.
"""

import math
import sys
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .errors import ConsistencyError, DomainError, check_positive
from .response import (ValidityVerdict, _check_probability, _check_speed,
                       j_function, kick, perturbative_validity,
                       with_population)

__all__ = [
    "EngineConfig", "StageLedger", "CycleSolution",
    "critical_probability", "stage_ledger", "solve_cycle",
    "classical_delta_p", "work_comparison",
]


@dataclass(frozen=True)
class EngineConfig:
    """Fixed cycle parameters.

    Gaps omega1 <= omega2 (equal gaps give a degenerate, work-free cycle
    and are deliberately allowed as a trivial test point); proper
    accelerations alpha_H (hot contact, at gap omega2) and alpha_C (cold
    contact, at gap omega1); contact end speed v shared by both
    contacts; coupling g; initial excited population p.  The reduced
    accelerations a_H = alpha_H/omega2 and a_C = alpha_C/omega1 act as
    the dimensionless contact temperatures.
    """
    omega1: float
    omega2: float
    alpha_H: float
    alpha_C: float
    v: float
    g: float = 1.0
    p: float = 0.0

    def __post_init__(self) -> None:
        check_positive("omega1", self.omega1)
        check_positive("omega2", self.omega2)
        if self.omega2 < self.omega1:
            raise DomainError("omega2 must be at least omega1")
        check_positive("alpha_H", self.alpha_H)
        check_positive("alpha_C", self.alpha_C)
        _check_speed(self.v)
        check_positive("g", self.g)
        _check_probability(self.p)

    @property
    def a_H(self) -> float:
        """Reduced acceleration of the hot contact, alpha_H / omega2."""
        return self.alpha_H / self.omega2

    @property
    def a_C(self) -> float:
        """Reduced acceleration of the cold contact, alpha_C / omega1."""
        return self.alpha_C / self.omega1


@dataclass(frozen=True)
class StageLedger:
    """Per-stage energy bookkeeping for one cycle.

    Stage numbering follows the cycle order: 1 compression, 2 hot
    contact, 3 expansion, 4 cold contact.  Work is energy delivered to
    the medium, heat is energy absorbed by the medium, so q_total +
    w_total = 0 (first law); ``first_law_residual`` records the actual
    balance relative to the largest stage magnitude, or to the smallest
    normal float when every stage term is subnormal.  w_ext = -w_total
    is the work extracted per cycle and eta = 1 - omega1/omega2 is the
    gap-ratio efficiency (the exact value of w_ext / q2 whenever q2 is
    nonzero, and independent of accelerations, speed, and coupling).
    """
    q1: float
    w1: float
    q2: float
    w2: float
    q3: float
    w3: float
    q4: float
    w4: float
    q_total: float
    w_total: float
    w_ext: float
    eta: float
    first_law_residual: float


def stage_ledger(cfg: EngineConfig, dp_hot: float) -> StageLedger:
    """Energy ledger for one cycle starting at population cfg.p.

    The hot contact moves the population by dp_hot and the cold contact
    moves it back by exactly -dp_hot (a closed cycle is imposed; pair
    with :func:`critical_probability` for the population where that
    actually holds).
    """
    if not math.isfinite(dp_hot):
        raise DomainError("dp_hot must be finite")
    omega1, omega2, p = cfg.omega1, cfg.omega2, cfg.p

    w1 = p * (omega2 - omega1)
    q2 = omega2 * dp_hot
    w3 = (p + dp_hot) * (omega1 - omega2)
    q4 = omega1 * (-dp_hot)

    q_total = q2 + q4
    w_total = w1 + w3
    balance = q_total + w_total
    # Subnormal terms round to an absolute 2^-1075, not a relative one, so
    # the scale is floored at the smallest normal float.
    scale = max(abs(w1), abs(q2), abs(w3), abs(q4), sys.float_info.min)
    residual = abs(balance) / scale

    return StageLedger(q1=0.0, w1=w1, q2=q2, w2=0.0, q3=0.0, w3=w3,
                       q4=q4, w4=0.0, q_total=q_total, w_total=w_total,
                       w_ext=-w_total, eta=1.0 - omega1 / omega2,
                       first_law_residual=residual)


def critical_probability(a_H: float, a_C: float, v: float) -> float:
    """Initial population at which the hot and cold contact kicks cancel.

    Solving dp(a_H, p) + dp(a_C, p) = 0 for p gives p0 = P / (1 + 2 P)
    with P = 2 a_H a_C (J_H + J_C) / ((a_H + a_C) t), where
    J_H = J(-1/a_H, y), J_C = J(-1/a_C, y), t = atanh(v) and y = 2 t.
    It is computed in reciprocal accelerations, which neither overflow nor
    underflow where a_H a_C or (a_H + a_C) t would:

        p0 = 2 S / D,    S = J_H + J_C,    D = (1/a_H + 1/a_C) t + 4 S.

    The result is cross-checked by substituting it back into the two
    population kicks, built from the same two J values; a residual above
    1e-10 raises ConsistencyError.  DomainError is raised only where D is
    0 or not finite.
    p0 is a fixed point of the linearized population dynamics, not
    automatically a probability: it is negative whenever the response
    offsets sum negative (both contacts de-exciting), and a cycle is
    operable as a heat engine only for 0 < p0 < 1/2.
    """
    return _fixed_point(a_H, a_C, v)[0]


def _fixed_point(a_H: float, a_C: float, v: float,
                 g: float = 1.0) -> Tuple[float, float]:
    """p0 of :func:`critical_probability` and the hot kick dp_hot there.

    Substituting p0 into the hot kick gives, over the same denominator D,

        dp_hot = g^2 t (J_H / a_C - J_C / a_H) / D,

    whose numerator is exactly 0 when a_H = a_C.
    """
    check_positive("a_H", a_H)
    check_positive("a_C", a_C)
    _check_speed(v)

    t = math.atanh(v)
    y = 2.0 * t
    j_hot, j_cold = j_function(-1.0 / a_H, y), j_function(-1.0 / a_C, y)
    offset = j_hot + j_cold
    denom = (1.0 / a_H + 1.0 / a_C) * t + 4.0 * offset
    if denom == 0.0 or not math.isfinite(denom):
        raise DomainError("critical probability diverges for these parameters")
    p0 = 2.0 * offset / denom

    kick_hot, kick_cold = kick(j_hot, a_H, p0, v), kick(j_cold, a_C, p0, v)
    scale = max(abs(kick_hot), abs(kick_cold), 1.0)
    if abs(kick_hot + kick_cold) > 1e-10 * scale:
        raise ConsistencyError(
            f"closed-form fixed point leaves kick residual "
            f"{kick_hot + kick_cold:.3e} at p0 = {p0!r}")
    return p0, g * g * t * (j_hot / a_C - j_cold / a_H) / denom


@dataclass(frozen=True)
class CycleSolution:
    """Closed cycle at the critical population.

    ``feasible`` is the heat-engine flag: True when the hot contact
    pumps population up (dp_hot > 0), so that for omega2 > omega1 the
    cycle extracts work; False means the same parameters run a
    refrigerator.  dp_hot = g^2 t (J_H / a_C - J_C / a_H) / D
    (:func:`_fixed_point`) has the sign of J_H / a_C - J_C / a_H whenever
    D > 0, so it is exactly 0, and the cycle infeasible, when a_H = a_C.
    dp_cold = -dp_hot by construction of p0.
    """
    p0: float
    dp_hot: float
    dp_cold: float
    feasible: bool
    validity_hot: ValidityVerdict
    validity_cold: ValidityVerdict


def solve_cycle(cfg: EngineConfig) -> CycleSolution:
    """Close the cycle for the given configuration.

    Computes the reduced accelerations, the critical population p0,
    and the hot-contact kick dp_hot = dp(a_H, p0, v, g) there, plus
    perturbative-validity verdicts for both contacts.  cfg.p is not
    used: the cycle is solved at its own fixed point.  No exception is
    raised for an infeasible or validity-violating configuration — the
    numbers and verdicts are returned so parameter scans can see where
    and how operation fails.
    """
    p0, dp_hot = _fixed_point(cfg.a_H, cfg.a_C, cfg.v, cfg.g)

    def verdict(a: float, dp: float) -> ValidityVerdict:
        return with_population(perturbative_validity(a, cfg.v, cfg.g),
                               p0, dp)

    return CycleSolution(p0=p0, dp_hot=dp_hot, dp_cold=-dp_hot,
                         feasible=dp_hot > 0.0,
                         validity_hot=verdict(cfg.a_H, dp_hot),
                         validity_cold=verdict(cfg.a_C, -dp_hot))


def classical_delta_p(a_H: float, a_C: float) -> float:
    """Population gain per cycle with ideal thermal baths instead of contacts.

    Each bath fully thermalizes the two-level medium to the Gibbs
    population 1 / (1 + exp(1/a)) at dimensionless temperature a (the
    reduced acceleration itself), so the hot-contact gain is the
    difference of the two thermal populations, independent of coupling
    and contact duration.  Evaluated as (tanh(1/2a_C) - tanh(1/2a_H))/2,
    which saturates instead of overflowing as a -> 0+.
    """
    check_positive("a_H", a_H)
    check_positive("a_C", a_C)
    return 0.5 * (math.tanh(0.5 / a_C) - math.tanh(0.5 / a_H))


def work_comparison(a_H: float, a_C: float, v_list: Sequence[float],
                    gap_diff: float = 1.0,
                    g: float = 1.0) -> List[Tuple[float, float, float]]:
    """Work per cycle, accelerated-vacuum contacts versus thermal baths.

    For each speed in v_list the vacuum cycle is closed at its critical
    population and extracts w_unruh = gap_diff * dp(a_H, p0, v, g); the
    classical reference extracts w_cl = gap_diff * classical_delta_p
    independent of v (and of g — full thermalization has no coupling
    scale).  Returns rows (v, w_unruh, w_cl).  Longer contacts (larger
    v) push w_unruh toward the classical value from below.
    """
    check_positive("gap_diff", gap_diff)
    check_positive("g", g)
    w_cl = classical_delta_p(a_H, a_C) * gap_diff
    rows = []
    for v in v_list:
        dp_hot = _fixed_point(a_H, a_C, v, g)[1]
        rows.append((float(v), dp_hot * gap_diff, w_cl))
    return rows
