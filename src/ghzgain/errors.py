"""Exception hierarchy shared across the package, and the one place that checks a caller's
value.  A number is a real number, numpy's too, but no bool (True, np.True_): check_finite*
raise "<what> must be a number" for anything else, test the range and return a float.  A
count is an integer (numpy's too, no bool) in [1, largest float] (check_count; an axis's
point count may be a whole float).  A kind is a member or value of its Enum, or a string of
a tuple (check_choice), else "unknown <what> 'x' (expected one of: ...)".  A container is an
iterable of items of one type (check_items) or a dict (check_fields).  Each rule raises the
class it is given: DomainError for a function's arguments, ValidationError for model and
config fields.  The CLI exits 2 on these, 3 on infeasible timing and 4 on solver failures.
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


def check_items(value, what: str, error: type, kind: type = object) -> tuple:
    """``value``'s items as a tuple if it is an iterable of ``kind``s, else raise ``error``."""
    try:
        items = tuple(value)
    except TypeError:
        raise error(f"{what} must be a sequence, got {type(value).__name__}") from None
    for item in items:
        if not isinstance(item, kind):
            raise error(f"{what} must hold {kind.__name__} items, got {type(item).__name__}")
    return items


def _check_number(value, what: str, error: type) -> None:
    """Raise ``error`` unless ``value`` is a real number (numpy's too) but not a bool; the
    checks below call it for neither a float nor an int, so a float passes by one test."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise error(f"{what} must be a number")


def check_finite(value: float, what: str, error: type = DomainError) -> float:
    """``value`` as a ``float`` if it is a finite number, of either sign, else raise ``error``."""
    if type(value) is not float and type(value) is not int:
        _check_number(value, what, error)
    if not abs(value) <= _FLOAT_MAX:  # an int past the largest float is not finite either
        raise error(f"{what} must be finite, got {value!r}")
    return float(value)


def check_finite_nonnegative(value: float, what: str, error: type = DomainError) -> float:
    """``value`` as a ``float`` if it is a finite number >= 0 (a ``< 0.0`` test passes NaN)."""
    if type(value) is not float and type(value) is not int:
        _check_number(value, what, error)
    if not 0.0 <= value <= _FLOAT_MAX:
        raise error(f"{what} must be finite and non-negative, got {value!r}")
    return float(value)


def check_finite_positive(value: float, what: str, error: type = DomainError) -> float:
    """``value`` as a ``float`` if it is a finite number > 0 (rates, t_c, budgets)."""
    if type(value) is not float and type(value) is not int:
        _check_number(value, what, error)
    if not 0.0 < value <= _FLOAT_MAX:
        raise error(f"{what} must be finite and positive, got {value!r}")
    return float(value)


def check_count(value, what: str, error: type = DomainError, whole: bool = False) -> int:
    """``value`` as an ``int`` if it is an integer in [1, _FLOAT_MAX] (numpy's, not bool), or
    with ``whole`` (a sweep config's count, which its caller bounds) also a whole real number
    such as 200.0, and an integer of any size."""
    count = value
    if type(value) is not int:
        try:
            count = None if isinstance(value, bool) else operator.index(value)
        except TypeError:
            whole = whole and isinstance(value, numbers.Real) and float(value).is_integer()
            count = int(value) if whole else None
    if count is None or count < 1:
        raise error(f"{what} must be a positive integer, got {value!r}")
    if count > _FLOAT_MAX and not whole:  # the solvers compute in floats
        raise error(f"{what} must not exceed the largest float, got {value!r}")
    return count


def check_choice(value, choices, what: str, error: type):
    """The member of the Enum ``choices`` that ``value`` is or names, or the string of the
    tuple ``choices`` equal to ``value``, else raise ``error``."""
    if type(value) is choices:  # a member already
        return value
    try:
        return choices(value) if isinstance(choices, type) else choices[choices.index(value)]
    except ValueError:  # what an Enum, or tuple.index, raises for a value it lacks
        valid = ", ".join(getattr(choice, "value", choice) for choice in choices)
    raise error(f"unknown {what} {value!r} (expected one of: {valid})")
