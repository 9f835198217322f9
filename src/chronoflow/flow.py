"""Flow maps of vector fields via deterministic fixed-step RK4.

The solver integrates each piecewise-autonomous segment with classical
fourth-order Runge-Kutta on a fixed grid, splitting steps at the field's
time breakpoints so no step straddles a discontinuity.  Pushforwards come
from the variational equation M' = V'(x(t)) M integrated alongside the
trajectory.  Backward flows use negative steps on the same field.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field as dataclass_field
from typing import Callable

import numpy as np

from .errors import BlowUpError
from .fields import Observable, VectorField, as_point
from .quadrature import split_at

MAX_STEPS_PER_SOLVE = 10 ** 8


@dataclass(frozen=True)
class FlowSolver:
    """Fixed-step RK4 configuration.

    ``steps_per_unit_time`` sets the substep density (h = 1/steps) and must
    be a positive integer.  The step grid is always cut at every
    time-structure breakpoint; ``breakpoint_splitting`` only accepts True,
    since a step across a breakpoint would integrate the wrong piece.  Any
    coordinate magnitude beyond ``blowup_threshold``, which must be finite
    and positive, aborts integration, since local flows need not exist
    globally.  ``step_count`` raises ValueError before any step beyond
    ``MAX_STEPS_PER_SOLVE`` steps between two breakpoints, so a finite but
    huge time fails at once.
    """

    steps_per_unit_time: int = 1000
    breakpoint_splitting: bool = True
    blowup_threshold: float = 1e12

    def __post_init__(self):
        steps = self.steps_per_unit_time
        if not isinstance(steps, numbers.Integral) or steps < 1:
            raise ValueError(
                f"steps_per_unit_time must be a positive integer, got {steps!r}"
            )
        threshold = self.blowup_threshold
        if not (isinstance(threshold, numbers.Real) and math.isfinite(threshold)
                and threshold > 0):
            raise ValueError(
                f"blowup_threshold must be finite and positive, got {threshold!r}"
            )
        if not self.breakpoint_splitting:
            raise ValueError("breakpoint_splitting=False is not supported: a step "
                             "across a time breakpoint integrates the wrong piece")

    def step_count(self, a: float, b: float) -> int:
        steps = abs(b - a) * self.steps_per_unit_time
        if not steps <= MAX_STEPS_PER_SOLVE:  # False also for inf and NaN
            raise ValueError(f"[{a:.6g}, {b:.6g}] needs {steps:.3g} RK4 steps, over "
                             f"the limit of {MAX_STEPS_PER_SOLVE} per solve")
        return max(1, math.ceil(steps - 1e-9))


@dataclass(frozen=True)
class FlowMap:
    """The flow of ``field`` from time t0 to t1 under a fixed solver."""

    field: VectorField
    t0: float
    t1: float
    solver: FlowSolver = dataclass_field(default_factory=FlowSolver)

    def __post_init__(self):
        if not (math.isfinite(self.t0) and math.isfinite(self.t1)):
            raise ValueError(f"flow times must be finite, got [{self.t0}, {self.t1}]")


class NumericalField:
    """A field-like evaluator (t, q) -> vector without exact derivatives.

    Produced by pushforwards of flow maps; excluded from every
    exact-derivative path (lifts, polynomial brackets).
    """

    exact = False

    def __init__(self, dim: int, fn: Callable[[float, np.ndarray], np.ndarray],
                 description: str = "numerical field"):
        self.dim = dim
        self._fn = fn
        self.description = description

    def __call__(self, t: float, q) -> np.ndarray:
        return self._fn(t, as_point(q, self.dim))

    def __repr__(self) -> str:
        return f"NumericalField(dim={self.dim}, {self.description})"


def _advance_piece(pm, q: np.ndarray, mat: np.ndarray | None, a: float, b: float,
                   solver: FlowSolver, step_base: int) -> tuple[np.ndarray, np.ndarray | None, int]:
    """RK4 over [a, b] on one autonomous piece, optionally with variational state.

    With ``mat`` the piece's generated loop (``PolynomialMap._variational_rk4``)
    carries the state and the matrix on Python floats.
    """
    n_steps = solver.step_count(a, b)
    h = (b - a) / n_steps
    f = pm._evaluator
    threshold = solver.blowup_threshold
    if mat is not None:
        q, m = pm._variational_rk4(f, q.tolist(), mat.ravel().tolist(), a, h, n_steps,
                                   threshold, step_base)
        return np.array(q), np.array(m).reshape(mat.shape), step_base + n_steps
    half = 0.5 * h
    sixth = h / 6.0
    array = np.array
    for i in range(n_steps):
        k1 = array(f(q.tolist()))
        q2 = q + half * k1
        k2 = array(f(q2.tolist()))
        q3 = q + half * k2
        k3 = array(f(q3.tolist()))
        q4 = q + h * k3
        k4 = array(f(q4.tolist()))
        q = q + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not (abs(q).max() <= threshold):  # true also for NaN
            raise BlowUpError(step_base + i + 1, a + (i + 1) * h)
    return q, None, step_base + n_steps


def _flow_core(fm: FlowMap, q, want_pushforward: bool) -> tuple[np.ndarray, np.ndarray | None]:
    field = fm.field
    point = as_point(q, field.dim)
    field.check_window(fm.t0, fm.t1)
    mat = np.eye(field.dim) if want_pushforward else None
    if fm.t1 == fm.t0:
        return point, mat
    step_base = 0
    for a, b in split_at(fm.t0, fm.t1, field.breakpoints_between(fm.t0, fm.t1)):
        pm = field.piece_for_interval(a, b)
        point, mat, step_base = _advance_piece(pm, point, mat, a, b, fm.solver, step_base)
    return point, mat


def flow_map(fm: FlowMap, q) -> np.ndarray:
    """Endpoint of the trajectory q' = V_t(q) from (t0, q) to t1."""
    point, _ = _flow_core(fm, q, want_pushforward=False)
    return point


def flow_with_pushforward(fm: FlowMap, q) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint and differential of the flow map in one pass."""
    point, mat = _flow_core(fm, q, want_pushforward=True)
    return point, mat


def flow_pushforward(fm: FlowMap, q) -> np.ndarray:
    """Differential of the flow map at q, via the variational equation."""
    _, mat = _flow_core(fm, q, want_pushforward=True)
    return mat


def inverse_flow(fm: FlowMap, q) -> np.ndarray:
    """The inverse flow: integrate from t1 back to t0."""
    return flow_map(FlowMap(fm.field, fm.t1, fm.t0, fm.solver), q)


def run_segments(fields, segments, q, solver: FlowSolver) -> np.ndarray:
    """Follow (1-based field index, sign, duration) flow segments in turn from q."""
    for index, sign, duration in segments:
        fm = FlowMap(fields[index - 1], 0.0, duration, solver)
        q = flow_map(fm, q) if sign > 0 else inverse_flow(fm, q)
    return q


def flow_operator_apply(fm: FlowMap, obs: Observable, q) -> np.ndarray:
    """The flow operator on observables: obs evaluated at the flowed point."""
    return obs(flow_map(fm, q))


def pushforward_field(fm: FlowMap, field: VectorField, t_eval: float) -> NumericalField:
    """The transported field F_*V: r -> F_*(F^{-1}(r)) V(t_eval, F^{-1}(r)).

    F is the flow map ``fm``.  The result is numerical (each evaluation
    solves an inverse flow and a variational equation), so it carries no
    exact derivatives.
    """
    inverse = FlowMap(fm.field, fm.t1, fm.t0, fm.solver)
    piece = field.piece_at(t_eval)

    def evaluate(_t: float, r: np.ndarray) -> np.ndarray:
        pre = flow_map(inverse, r)
        mat = flow_pushforward(fm, pre)
        return mat @ piece(pre)

    return NumericalField(field.dim, evaluate,
                          f"pushforward by flow [{fm.t0}, {fm.t1}]")


def chained_trajectory(field: VectorField, t0: float, times, q, solver: FlowSolver,
                       pushforward: bool = False) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """One trajectory from (t0, q), solved segment by segment through ``times``.

    Segment i runs from times[i-1] (t0 for the first) to times[i] and starts
    where segment i-1 ended, so the call costs one pass along the trajectory
    instead of one solve per time; ``times`` must be monotone in the
    integration direction.  Returns the states at ``times`` and, with
    ``pushforward``, the segment pushforwards S_i, the differential of the
    flow times[i-1] -> times[i] at the previous state (an empty list
    otherwise).  The pushforward between two nodes is the product of the
    segments in between, S_j ... S_{i+1}.
    """
    states: list[np.ndarray] = []
    segments: list[np.ndarray] = []
    current_t = t0
    point = as_point(q, field.dim)
    for t in times:
        fm = FlowMap(field, current_t, t, solver)
        if pushforward:
            point, mat = flow_with_pushforward(fm, point)
            segments.append(mat)
        else:
            point = flow_map(fm, point)
        current_t = t
        states.append(point)
    return states, segments


def flow_time_dependent(fn: Callable[[float, np.ndarray], np.ndarray], t0: float,
                        t1: float, q, solver: FlowSolver, dim: int | None = None) -> np.ndarray:
    """RK4 endpoint for a genuinely time-dependent evaluator (t, q) -> vector.

    Used for flows of numerical fields, where no piecewise structure is
    available to split on.
    """
    point = as_point(q, dim)
    if t1 == t0:
        return point
    n_steps = solver.step_count(t0, t1)
    h = (t1 - t0) / n_steps
    t = t0
    for i in range(n_steps):
        k1 = fn(t, point)
        k2 = fn(t + 0.5 * h, point + 0.5 * h * k1)
        k3 = fn(t + 0.5 * h, point + 0.5 * h * k2)
        k4 = fn(t + h, point + h * k3)
        point = point + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = t0 + (i + 1) * h
        if not (abs(point).max() <= solver.blowup_threshold):  # true also for NaN
            raise BlowUpError(i + 1, t)
    return point
