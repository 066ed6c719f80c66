"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: config errors exit 2, budget
exhaustion exits 3, numerical faults exit 4.
"""

from __future__ import annotations


class BitBoundaryError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ConfigError(BitBoundaryError):
    """Invalid configuration, arguments, or input files."""

    exit_code = 2


class BudgetExceededError(BitBoundaryError):
    """An enumeration budget was exhausted before the search completed.

    ``largest_searched_h`` reports the largest Hamming shell that was fully
    enumerated before the budget ran out.
    """

    exit_code = 3

    def __init__(self, message: str, largest_searched_h: int = 0):
        super().__init__(message)
        self.largest_searched_h = largest_searched_h


class NumericalFaultError(BitBoundaryError):
    """A numerical computation left its validity envelope."""

    exit_code = 4


class QuadratureError(NumericalFaultError):
    """Quadrature failed its two-order convergence cross-check."""


class FactorizationError(NumericalFaultError):
    """Covariance factorization failed after the full jitter ladder."""

