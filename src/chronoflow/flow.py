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


def _advance_piece(pm, q: list[float], mat: list[float] | None, a: float, b: float,
                   solver: FlowSolver, step_base: int) -> tuple[list[float], list[float] | None, int]:
    """RK4 over [a, b] on one autonomous piece, optionally with variational state.

    ``q``, the row-major ``mat``, ``a`` and ``b`` are Python floats, as
    ``_flow_core`` hands them over: an ``np.float64`` time would turn every
    multiply-add of the generated loop into numpy scalar arithmetic, with
    the same bits at about three times the cost.  With ``mat`` the piece's
    generated loop (``PolynomialMap._variational_rk4``) carries the state
    and the matrix; without it a numpy loop carries the state.
    """
    n_steps = solver.step_count(a, b)
    h = (b - a) / n_steps
    f = pm._evaluator
    threshold = solver.blowup_threshold
    if mat is not None:
        q, mat = pm._variational_rk4(f, q, mat, a, h, n_steps, threshold, step_base)
        return q, mat, step_base + n_steps
    half = 0.5 * h
    sixth = h / 6.0
    array = np.array
    q = array(q)
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
    return q.tolist(), None, step_base + n_steps


def _flow_core(field: VectorField, t0: float, times, q, solver: FlowSolver,
               want_pushforward: bool) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Walk one trajectory of ``field`` from (t0, q) through ``times`` in one pass.

    The point, the times and the window are checked once, and the times
    become Python floats here, whatever their type.  Node i's interval
    [times[i-1], times[i]] (t0 for the first) is split at breakpoints as a
    single solve would split it, and the state passes from node to node as
    a list of floats.  With ``want_pushforward`` each node's matrix restarts
    at the identity, giving the segment pushforward of its interval, and
    its step count restarts at 0.  Returns the states at ``times`` and the
    segment pushforwards (an empty list without ``want_pushforward``).
    """
    point = as_point(q, field.dim).tolist()
    t0, times = float(t0), [float(t) for t in times]
    if not (math.isfinite(t0) and all(map(math.isfinite, times))):
        raise ValueError(f"flow times must be finite, got {[t0] + times}")
    field.check_window(t0, *times)
    n = field.dim
    identity = None
    if want_pushforward:
        identity = [0.0] * (n * n)
        identity[::n + 1] = [1.0] * n
    states: list[np.ndarray] = []
    segments: list[np.ndarray] = []
    start = t0
    for t in times:
        mat, step_base = identity, 0
        for a, b in split_at(start, t, field.breakpoints_between(start, t)):
            pm = field.piece_for_interval(a, b)
            point, mat, step_base = _advance_piece(pm, point, mat, a, b, solver, step_base)
        states.append(np.array(point))
        if want_pushforward:
            segments.append(np.array(mat).reshape(n, n))
        start = t
    return states, segments


def flow_map(fm: FlowMap, q) -> np.ndarray:
    """Endpoint of the trajectory q' = V_t(q) from (t0, q) to t1."""
    states, _ = _flow_core(fm.field, fm.t0, [fm.t1], q, fm.solver, False)
    return states[0]


def flow_with_pushforward(fm: FlowMap, q) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint and differential of the flow map in one pass."""
    states, segments = _flow_core(fm.field, fm.t0, [fm.t1], q, fm.solver, True)
    return states[0], segments[0]


def flow_pushforward(fm: FlowMap, q) -> np.ndarray:
    """Differential of the flow map at q, via the variational equation."""
    _, segments = _flow_core(fm.field, fm.t0, [fm.t1], q, fm.solver, True)
    return segments[0]


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
    where segment i-1 ended; with ``times`` monotone in the integration
    direction that is one pass along the trajectory.  The walk is one call
    of the executor that single solves use (``_flow_core``): it checks the
    point and the window once, takes every time as a Python float
    (``np.float64`` quadrature nodes too) and passes the state between
    nodes as floats, so each state is the bits of a single solve from the
    previous one.  Returns the states at ``times`` and, with
    ``pushforward``, the segment pushforwards S_i, the differential of the
    flow times[i-1] -> times[i] at the previous state (an empty list
    otherwise).  The pushforward between two nodes is the product of the
    segments in between, S_j ... S_{i+1}.
    """
    return _flow_core(field, t0, times, q, solver, pushforward)


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
