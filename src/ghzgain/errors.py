"""Exception hierarchy shared across the package, and the input checks
that every particle count, rate, time and config object passes through.

The CLI maps these onto process exit codes: validation/domain problems
exit with 2, infeasible timing with 3, solver failures with 4.
"""

import numbers
import operator
import sys

__all__ = [
    "GhzGainError",
    "DomainError",
    "CapacityError",
    "ValidationError",
    "UnsupportedModelError",
    "InfeasibleTimingError",
    "SolverError",
    "DivergenceError",
    "NoThresholdError",
]


class _Double(float):
    """A float numpy compares as a double, not cast to a float32's type (inf)."""


_FLOAT_MAX = _Double(sys.float_info.max)


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


def check_fields(data, where: str, required, optional=()) -> None:
    """Raise ValidationError unless ``data`` is a dict (a JSON object) that
    has every field in ``required`` and no field outside ``required`` and
    ``optional``."""
    if not isinstance(data, dict):
        raise ValidationError(f"{where} must be an object, got {type(data).__name__}")
    for name in data:
        if name not in required and name not in optional:
            raise ValidationError(f"{where}: unknown field {name!r}")
    for name in required:
        if name not in data:
            raise ValidationError(f"{where} is missing field '{name}'")


def check_number(value, what: str) -> None:
    """Raise ValidationError unless ``value`` is a real number (numpy's too) that is
    not a bool; ints and floats are tested first, as the common case."""
    if type(value) is not float and type(value) is not int and (
            not isinstance(value, numbers.Real) or isinstance(value, bool)):
        raise ValidationError(f"{what} must be a number")


def check_finite(value: float, what: str, error: type = DomainError) -> float:
    """``value`` as a ``float`` if it is a finite number, of either sign, else raise ``error``."""
    if not abs(value) <= _FLOAT_MAX:  # an int past the largest float is not finite either
        raise error(f"{what} must be finite, got {value!r}")
    return float(value)


def check_finite_nonnegative(value: float, what: str, error: type = DomainError) -> float:
    """``value`` as a ``float`` if it is a finite number >= 0, else raise ``error``.

    The one guard for overhead times and overhead ratios: a plain
    ``value < 0.0`` test lets NaN through, which then surfaces as
    ``r = nan`` on a row or a printout marked as a valid result.  The
    returned double keeps a numpy float32 out of the arithmetic after it.
    """
    if not 0.0 <= value <= _FLOAT_MAX:
        raise error(f"{what} must be finite and non-negative, got {value!r}")
    return float(value)


def check_finite_positive(value: float, what: str, error: type = DomainError) -> float:
    """``value`` as a ``float`` if it is a finite number > 0 (rates, t_c, budgets),
    else raise ``error``."""
    if not 0.0 < value <= _FLOAT_MAX:
        raise error(f"{what} must be finite and positive, got {value!r}")
    return float(value)


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
