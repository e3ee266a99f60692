"""Quantum Otto engine with uniformly accelerated vacuum contacts.

A two-level detector is dragged along hyperbolic worldline segments
through the Minkowski vacuum; the resulting population kicks play the
role of heat strokes in a four-stage Otto cycle.  The package provides
the closed-form vacuum response and population corrections
(:mod:`~unruh_otto.response`, whose four Lerch terms
:mod:`~unruh_otto.specfun` sums as one series), two
independent quadrature oracles validating them (:mod:`~unruh_otto.oracle`),
worldline kinematics (:mod:`~unruh_otto.kinematics`), the cycle ledger
and feasibility analysis (:mod:`~unruh_otto.engine`), and a CLI
(``unruh-otto``).
"""

__version__ = "0.1.0"

from .errors import ConsistencyError, DomainError, NonConvergenceError
from .response import (V_MAX, ValidityVerdict, delta_p, delta_p_unreduced,
                       j_function, perturbative_validity, v_max_for,
                       vacuum_response)
from .kinematics import (Worldline, contact_durations, trajectory_point,
                         velocity)
from .oracle import (OracleResult, QuadratureSpec, integrate_imagesum_1d,
                     integrate_sinh_2d)
from .engine import (CycleSolution, EngineConfig, StageLedger,
                     classical_delta_p, critical_probability, solve_cycle,
                     stage_ledger, work_comparison)

__all__ = [
    "__version__",
    "ConsistencyError", "DomainError", "NonConvergenceError",
    "V_MAX", "ValidityVerdict", "delta_p", "delta_p_unreduced", "j_function",
    "perturbative_validity", "v_max_for", "vacuum_response",
    "Worldline", "contact_durations", "trajectory_point", "velocity",
    "OracleResult", "QuadratureSpec", "integrate_imagesum_1d",
    "integrate_sinh_2d",
    "CycleSolution", "EngineConfig", "StageLedger", "classical_delta_p",
    "critical_probability", "solve_cycle", "stage_ledger", "work_comparison",
]
