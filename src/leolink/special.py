"""Scalar special functions used by the crossing-rate formula.

Everything here is evaluated in plain double precision with explicit
truncation control; no arbitrary-precision backend is involved.
"""

import math
from dataclasses import dataclass

__all__ = [
    "SeriesControl",
    "DEFAULT_SERIES",
    "NonConvergent",
    "confluent_1f1",
]


class NonConvergent(ArithmeticError):
    """A series or a root finder hit its cap before reaching the requested
    tolerance, or met a NaN."""


@dataclass(frozen=True)
class SeriesControl:
    """Truncation policy for the power series in this module.

    rel_tol: stop once the next term is below rel_tol * |partial sum|.
    max_terms: hard cap on summed terms before raising NonConvergent.
    """

    rel_tol: float = 1e-12
    max_terms: int = 10_000

    def __post_init__(self):
        if not (0.0 < self.rel_tol < 1e-3):
            raise ValueError(f"rel_tol must be in (0, 1e-3), got {self.rel_tol}")
        if self.max_terms < 50:
            raise ValueError(f"max_terms must be >= 50, got {self.max_terms}")


DEFAULT_SERIES = SeriesControl()


def confluent_1f1(a: float, b: float, x: float, ctl: SeriesControl = DEFAULT_SERIES) -> float:
    """Kummer's function 1F1(a; b; x) by direct term summation.

    When a is a non-positive integer the series terminates on its own at the
    first zero term. Raises NonConvergent if ctl.max_terms is exhausted.
    """
    if b <= 0 and b == math.floor(b):
        raise ValueError(f"b must not be a non-positive integer, got {b}")
    term = 1.0
    total = 1.0
    for n in range(ctl.max_terms):
        term *= (a + n) * x / ((b + n) * (n + 1))
        if term == 0.0:
            return total
        total += term
        if abs(term) < ctl.rel_tol * abs(total):
            return total
    raise NonConvergent(
        f"1F1({a}; {b}; {x}) did not reach rel_tol={ctl.rel_tol} "
        f"within {ctl.max_terms} terms"
    )
