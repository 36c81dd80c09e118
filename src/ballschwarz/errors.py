"""Exception types shared across the package, and the one integer rule its arguments obey."""

import math


class DomainError(ValueError):
    """An argument lies outside the documented domain of an operation."""


class AccuracyError(ArithmeticError):
    """A numeric routine could not meet its requested tolerance.

    The best estimate reached before giving up is carried in ``estimate``
    so callers can still inspect (but not silently trust) the value.
    """

    def __init__(self, message, estimate=None):
        super().__init__(message)
        self.estimate = estimate


def _integer(value, what: str = "dimension", least: int = 2) -> int:
    """value as an int, or ``DomainError`` unless it is an integer >= least (NaN and +-inf included)."""
    if not (least <= value < math.inf and value == int(value)):
        raise DomainError(f"{what} must be an integer >= {least}, got {value!r}")
    return int(value)
