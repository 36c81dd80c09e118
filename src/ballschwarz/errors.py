"""Exception types shared across the package."""


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
