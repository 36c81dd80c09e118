"""Exception types shared across the package, and the input rules its arguments obey: an integer,
a unit vector and a base value, each checked in one place and refused with one text."""

import math

import numpy as np


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


def _unit(v: np.ndarray, what: str, tol: float = 1e-12) -> np.ndarray:
    """v, or ``DomainError`` unless its Euclidean norm is within tol of 1 (a NaN entry included)."""
    norm = float(np.linalg.norm(v))
    if not abs(norm - 1.0) <= tol:
        raise DomainError(f"{what} must be a unit vector to {tol:g}, got norm {norm!r}")
    return v


def _base_value(a: float) -> float:
    """a, or ``DomainError`` unless -1 < a < 1 (NaN included): the value at the origin that fixes a cap."""
    if not -1.0 < a < 1.0:
        raise DomainError(f"base value must lie in (-1, 1), got {a!r}")
    return a
