"""Truncation control and its error for the crossing-rate series.

The special functions themselves come from scipy.special; this module
keeps only what the crossing rate's own series needs around them.
"""

__all__ = [
    "SERIES_REL_TOL",
    "SERIES_MAX_TERMS",
    "NonConvergent",
]

# Truncation of the crossing-rate series: stop once the next term is below
# SERIES_REL_TOL * |partial sum|, and raise NonConvergent after
# SERIES_MAX_TERMS terms.
SERIES_REL_TOL = 1e-12
SERIES_MAX_TERMS = 10_000


class NonConvergent(ArithmeticError):
    """A series or a root finder hit its cap before reaching the requested
    tolerance, or met a NaN or a value past double range."""
