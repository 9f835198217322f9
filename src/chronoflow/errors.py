"""Exception types shared across the toolkit."""
from __future__ import annotations


class ChronoflowError(Exception):
    """Base class for all toolkit errors."""


class DimensionError(ChronoflowError):
    """A point, field, or observable was used with mismatched dimensions."""


class TimeWindowError(ChronoflowError):
    """A time value falls outside a field's declared time window."""


class DefectExhaustedError(ChronoflowError):
    """An observable has no derivative orders left to consume by a lift."""


class BlowUpError(ChronoflowError):
    """Integration diverged (non-finite state or coordinate beyond threshold)."""

    def __init__(self, step: int, t: float):
        super().__init__(f"integration diverged at step {step} (t={t:.6g})")
        self.step = step
        self.t = t


class PlannerPreconditionError(ChronoflowError):
    """The bracket span is rank-deficient at the start point."""


class StalledError(ChronoflowError):
    """The planner made no progress over the allowed number of step halvings."""

    def __init__(self, message: str, best):
        super().__init__(message)
        self.best = best
