"""Exception types shared across the package."""


class NetbridgeError(Exception):
    """Base class for all library errors."""


class GraphFormatError(NetbridgeError, ValueError):
    """A graph document is malformed; message points at the offending field."""


class InfeasibleError(NetbridgeError):
    """The requested transport problem has no admissible solution."""


class InfeasibleBudgetError(InfeasibleError):
    """A length budget lies outside the attainable range.

    Carries the attainable bounds so callers can report them.
    """

    def __init__(self, message, bounds=None):
        super().__init__(message)
        self.bounds = bounds


class ConvergenceError(NetbridgeError):
    """An iterative scheme failed to converge within its iteration cap."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class EnumerationCapError(NetbridgeError):
    """Path enumeration would exceed the configured cap."""
