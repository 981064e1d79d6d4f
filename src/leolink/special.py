"""Scalar special functions used by the crossing-rate formula.

Everything here is evaluated in plain double precision with explicit
truncation control; no arbitrary-precision backend is involved.
"""

import math

__all__ = [
    "SERIES_REL_TOL",
    "SERIES_MAX_TERMS",
    "NonConvergent",
    "confluent_1f1",
]

# Truncation of the power series here and in the crossing rate: stop once
# the next term is below SERIES_REL_TOL * |partial sum|, and raise
# NonConvergent after SERIES_MAX_TERMS terms.
SERIES_REL_TOL = 1e-12
SERIES_MAX_TERMS = 10_000


class NonConvergent(ArithmeticError):
    """A series or a root finder hit its cap before reaching the requested
    tolerance, or met a NaN."""


def confluent_1f1(a: float, b: float, x: float) -> float:
    """Kummer's function 1F1(a; b; x) by direct term summation.

    When a is a non-positive integer the series terminates on its own at the
    first zero term. Raises NonConvergent if SERIES_MAX_TERMS are exhausted.
    """
    if b <= 0 and b == math.floor(b):
        raise ValueError(f"b must not be a non-positive integer, got {b}")
    term = 1.0
    total = 1.0
    for n in range(SERIES_MAX_TERMS):
        term *= (a + n) * x / ((b + n) * (n + 1))
        if term == 0.0:
            return total
        total += term
        if abs(term) < SERIES_REL_TOL * abs(total):
            return total
    raise NonConvergent(
        f"1F1({a}; {b}; {x}) did not reach rel_tol={SERIES_REL_TOL} "
        f"within {SERIES_MAX_TERMS} terms"
    )
