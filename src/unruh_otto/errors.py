"""Exception types shared across the package, and the one positivity check.

Every argument that must be a positive number (gaps, accelerations,
durations, the coupling, the oracle window and tolerances) goes through
``check_positive``, so ``inf`` and ``nan`` are domain errors everywhere
and every module words the error the same way.  The check lives here,
beside ``DomainError``, so that no module has to import another's
internals to use it.
"""

import math


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ResourceLimitError(RuntimeError):
    """A computation would exceed its configured resource cap (e.g. series term count)."""


class NonConvergenceError(RuntimeError):
    """A numerical procedure failed to converge within its error budget."""


class ConsistencyError(RuntimeError):
    """An internal cross-check between two equivalent computations failed."""


def check_positive(name: str, value: float) -> None:
    """Raise DomainError unless ``value`` is positive and finite."""
    if not (math.isfinite(value) and value > 0.0):
        raise DomainError(f"{name} must be positive and finite")
