"""Exception hierarchy shared across the package, and the input checks
that every particle count, rate and time passes through.

The CLI maps these onto process exit codes: validation/domain problems
exit with 2, infeasible timing with 3, solver failures with 4.
"""

import math
import operator
import sys

_FLOAT_MAX = sys.float_info.max


class GhzGainError(Exception):
    """Base class for all package-specific errors."""


class DomainError(GhzGainError, ValueError):
    """An argument is outside its mathematical domain (e.g. negative time)."""


class CapacityError(GhzGainError, ValueError):
    """A brute-force path was asked for more qubits than it supports."""


class ValidationError(GhzGainError, ValueError):
    """A matrix, model or configuration fails its structural invariants."""


class UnsupportedModelError(GhzGainError, ValueError):
    """The requested operation is undefined for this bath model."""


class InfeasibleTimingError(GhzGainError):
    """Preparation plus readout time leaves no room for sensing."""


class SolverError(GhzGainError):
    """A numerical solver failed to produce a trustworthy result."""


class DivergenceError(SolverError):
    """Bracket expansion exceeded its hard limit without bracketing a maximum."""


class NoThresholdError(SolverError):
    """No r = 1 crossing exists inside the search bracket.

    ``side`` records whether the gain stayed above or below 1 throughout.
    """

    def __init__(self, message, side=None):
        super().__init__(message)
        self.side = side


def check_finite(value: float, what: str, error: type = DomainError) -> None:
    """Raise ``error`` unless ``value`` is a finite number, of either sign."""
    if not abs(value) <= _FLOAT_MAX:  # an int past the largest float is not finite either
        raise error(f"{what} must be finite, got {value!r}")


def check_finite_nonnegative(value: float, what: str, error: type = DomainError) -> None:
    """Raise ``error`` unless ``value`` is a finite number >= 0.

    The one guard for overhead times and overhead ratios: a plain
    ``value < 0.0`` test lets NaN through, which then surfaces as
    ``r = nan`` on a row or a printout marked as a valid result.
    """
    if not 0.0 <= value <= _FLOAT_MAX:
        raise error(f"{what} must be finite and non-negative, got {value!r}")


def check_finite_positive(value: float, what: str, error: type = DomainError) -> None:
    """Raise ``error`` unless ``value`` is a finite number > 0 (rates, t_c, budgets)."""
    if not 0.0 < value <= _FLOAT_MAX:
        raise error(f"{what} must be finite and positive, got {value!r}")


def check_count(value, what: str, error: type = DomainError) -> int:
    """``value`` as an ``int`` if it is an integer in [1, _FLOAT_MAX] (numpy's, not bool)."""
    try:
        count = operator.index(value)
    except TypeError:
        count = 0
    if count < 1 or isinstance(value, bool):
        raise error(f"{what} must be a positive integer, got {value!r}")
    if count > _FLOAT_MAX:  # the solvers compute in floats
        raise error(f"{what} must not exceed the largest float, got {value!r}")
    return count
