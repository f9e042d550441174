"""Exception types shared across the package."""


class StochBGKError(Exception):
    """Base class for all package errors."""


class ConfigurationError(StochBGKError):
    """A parameter combination violates a documented precondition."""


class RangeViolationError(StochBGKError):
    """A density value lies outside the velocity-grid bound."""


class GridMismatchError(StochBGKError):
    """Two fields live on incompatible grids."""


class StructuralViolationError(StochBGKError):
    """A scheme invariant (sign structure, defect nonnegativity) broke.

    This signals a solver bug, not bad user input.
    """


class NumericalAbortError(StochBGKError):
    """NaN/Inf detected while time stepping; the message names the step."""
