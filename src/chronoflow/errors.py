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


class DegenerateProbe(ChronoflowError):
    """All probe samples sit at numerical zero, so no slope can be fitted.

    Exact cancellation counts as success for a decay-order claim; callers
    that treat it as a pass catch this and report a degenerate estimate.
    """

    def __init__(self, t_grid, norms):
        super().__init__(
            "all %d probe samples below the zero cutoff; no usable slope fit"
            % len(norms)
        )
        self.t_grid = t_grid
        self.norms = norms


class PlannerPreconditionError(ChronoflowError):
    """The bracket span is rank-deficient at the start point."""


class StalledError(ChronoflowError):
    """The planner made no progress over the allowed number of step halvings."""

    def __init__(self, message: str, best):
        super().__init__(message)
        self.best = best
