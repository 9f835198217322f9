"""Flow maps of vector fields via deterministic fixed-step RK4.

The solver integrates each piecewise-autonomous segment with classical
fourth-order Runge-Kutta on a fixed grid, splitting steps at the field's
time breakpoints so no step straddles a discontinuity.  Pushforwards come
from the variational equation M' = V'(x(t)) M integrated alongside the
trajectory.  Backward flows use negative steps on the same field.
"""
from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, ClassVar

import numpy as np

from .errors import BlowUpError
from .fields import Observable, VectorField, _finite_times, _positive, as_float, as_int, as_point

MAX_STEPS_PER_SOLVE = 10 ** 8


@dataclass(frozen=True)
class FlowSolver:
    """Fixed-step RK4 configuration.

    ``steps_per_unit_time`` sets the substep density (h = 1/steps) and must
    be a positive integer.  The step grid is always cut at every
    time-structure breakpoint.  Any coordinate magnitude beyond
    ``blowup_threshold``, which must be finite and positive, aborts
    integration, since local flows need not exist globally.  ``step_count``
    raises ValueError before any step beyond ``MAX_STEPS_PER_SOLVE`` steps
    between two breakpoints, so a finite but huge time fails at once.
    """

    steps_per_unit_time: int = 1000
    blowup_threshold: float = 1e12
    # Not an option, since a step may never straddle a breakpoint; perfbench reads it.
    breakpoint_splitting: ClassVar[bool] = True

    def __post_init__(self):
        # a bool is an Integral, but True would pass as 1 step
        steps = self.steps_per_unit_time
        if not isinstance(steps, numbers.Integral) or isinstance(steps, bool) or steps < 1:
            raise ValueError(
                f"steps_per_unit_time must be a positive integer, got {steps!r}"
            )
        _positive(self.blowup_threshold, "blowup_threshold")

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
        _finite_times(self.t0, self.t1)


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
    generated loop (``PolynomialMap._variational_rk4``), which inlines the
    field and its Jacobian, carries the state and the matrix; without it a
    numpy loop carries the state through the piece's compiled evaluator.
    """
    n_steps = solver.step_count(a, b)
    h = (b - a) / n_steps
    threshold = solver.blowup_threshold
    if mat is not None:
        q, mat = pm._variational_rk4(q, mat, a, h, n_steps, threshold, step_base)
        return q, mat, step_base + n_steps
    f = pm._evaluator
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
               want_pushforward: bool) -> tuple[np.ndarray, np.ndarray | list]:
    """Walk one trajectory of ``field`` from (t0, q) through ``times`` in one pass.

    The point, the times and the window are checked once, and the times
    become Python floats here, whatever their type.  Node i's interval
    [times[i-1], times[i]] (t0 for the first) is split as ``field.parts``
    splits a single solve, without checking the window again, and the state
    passes from node to node as a list of floats.  With ``want_pushforward``
    each node's matrix restarts at the identity, giving the segment
    pushforward of its interval, and its step count restarts at 0.  The
    nodes stay float lists until the pass ends, which converts them once:
    returns the (N, n) states at the N ``times`` and the (N, n, n) segment
    pushforwards (an empty list without ``want_pushforward``).
    """
    point = as_point(q, field.dim).tolist()
    t0, times = float(t0), [float(t) for t in times]
    _finite_times(t0, *times)
    field.check_window(t0, *times)
    n = field.dim
    identity = None
    if want_pushforward:
        identity = [0.0] * (n * n)
        identity[::n + 1] = [1.0] * n
    states: list[list[float]] = []
    segments: list[list[float]] = []
    start = t0
    for t in times:
        mat, step_base = identity, 0
        for a, b, pm in field._parts(start, t):
            point, mat, step_base = _advance_piece(pm, point, mat, a, b, solver, step_base)
        states.append(point)
        if want_pushforward:
            segments.append(mat)
        start = t
    mats = np.array(segments).reshape(len(times), n, n) if want_pushforward else []
    return (np.array(states) if times else np.empty((0, n))), mats  # no rows: shape (0, n)


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


@dataclass(frozen=True)
class Segment:
    """One signed flow segment: field index (1-based), sign, duration."""

    field_index: int
    sign: int
    duration: float


@dataclass(frozen=True)
class ControlSchedule:
    """Signed flow segments run in turn: an admissible control (one component
    active per segment, values +/-1) and the compiled form of a bracket program."""

    segments: tuple[Segment, ...]

    def concat(self, other: "ControlSchedule") -> "ControlSchedule":
        return ControlSchedule(self.segments + other.segments)

    def reversed(self) -> "ControlSchedule":
        """The inverse point map: the segments in reverse order, each sign flipped."""
        return ControlSchedule(tuple(Segment(s.field_index, -s.sign, s.duration)
                                     for s in reversed(self.segments)))

    def field(self, fields, start: float = 0.0) -> VectorField | None:
        """The schedule on a clock from ``start``: at clock time T, segment (i, s, d) is
        the map s V_i, negated where s d < 0, over [T, fl(T + |d|)]; a segment that does
        not move the clock has no piece, and None stands for no piece at all.  Each V_i
        must exist and be autonomous, each s be +1 or -1, and ``start`` and each d finite."""
        fields, pieces, t = list(fields), [], float(start)
        if not math.isfinite(t):  # a clock at NaN or inf would take no piece
            raise ValueError(f"the schedule's start must be finite, got {start}")
        negated = functools.cache(lambda pm: pm.scaled(-1.0))  # once per map and call
        for i, seg in enumerate(self.segments):
            if not 1 <= seg.field_index <= len(fields):
                raise IndexError(f"segment {i} uses V{seg.field_index}, out of range")
            if not fields[seg.field_index - 1].is_autonomous:
                raise ValueError(f"segment {i} uses V{seg.field_index}, which is not autonomous")
            if seg.sign not in (-1, 1):
                raise ValueError(f"segment {i} sign must be +1 or -1")
            if not math.isfinite(seg.duration):
                raise ValueError(f"segment {i} duration must be finite, got {seg.duration}")
            end = t + abs(seg.duration)
            if end > t:
                pm = fields[seg.field_index - 1].pieces[0][2]
                pieces.append((t, end, negated(pm) if seg.sign * seg.duration < 0 else pm))
                t = end
        return VectorField(pieces, min(f.smoothness_order for f in fields)) if pieces else None

    def to_json(self) -> list[dict]:
        return [{"field_index": s.field_index, "sign": s.sign, "duration": s.duration}
                for s in self.segments]

    @classmethod
    def from_json(cls, doc) -> "ControlSchedule":
        if not isinstance(doc, list):
            raise ValueError(f"a JSON schedule must be a list, got {type(doc).__name__}")
        return cls(tuple(_segment(i, row) for i, row in enumerate(doc)))

    def to_csv(self) -> str:
        return "".join(["segment,field_index,sign,duration\n"] + [
            f"{i},{s.field_index},{s.sign},{s.duration:.17g}\n"
            for i, s in enumerate(self.segments)])

    @classmethod
    def from_csv(cls, text: str) -> "ControlSchedule":
        import csv  # here, so that `import chronoflow` loads no csv module
        import io
        reader = csv.DictReader(io.StringIO(text))
        return cls(tuple(_segment(i, {key: _csv_number(cell) for key, cell in row.items()})
                         for i, row in enumerate(reader)))


def _csv_number(cell):
    """A CSV cell as the int or float it spells, else as it is for ``_segment`` to name."""
    for parse in (int, float):
        try:
            return parse(cell)
        except (TypeError, ValueError):
            pass
    return cell


def _segment(i: int, row) -> Segment:
    """One schedule row, a JSON object or a CSV record, as a Segment."""
    where = f"schedule row {i}"
    try:
        return Segment(as_int(row["field_index"], f"{where} field_index"),
                       as_int(row["sign"], f"{where} sign"),
                       as_float(row["duration"], f"{where} duration"))
    except (KeyError, TypeError):  # not an object, or a missing key
        raise ValueError(f"{where} is malformed: {row!r}") from None


def run_schedule(sched: ControlSchedule, fields, q, solver: FlowSolver,
                 start: float = 0.0) -> tuple[np.ndarray, float]:
    """One solve of ``sched.field(fields, start)`` from q over its window: the
    endpoint and the clock at its end (q and ``start`` when no segment has a piece)."""
    field = sched.field(fields, start)
    if field is None:
        return as_point(q), start
    end = field.window[1]
    return flow_map(FlowMap(field, start, end, solver), q), end


def flow_operator_apply(fm: FlowMap, obs: Observable, q) -> np.ndarray:
    """The flow operator on observables: obs evaluated at the flowed point."""
    return obs(flow_map(fm, q))


def _solve_columns(mats: np.ndarray, vectors) -> np.ndarray:
    """Row i is mats^-1 vectors[i] (mats[i]^-1 for a stack), in one call whose
    single-column right-hand sides give the bits of one solve per vector."""
    return np.linalg.solve(mats, np.asarray(vectors)[..., None])[..., 0]


def _transport(fm: FlowMap, pieces, r) -> np.ndarray:
    """Row i is F_*V_i(r) = N^-1 V_i(F^-1(r)) for the flow map F of ``fm``.

    One variational solve of the inverse flow from r gives F^-1(r) and its
    differential N = D(F^-1)(r); each piece's compiled evaluator takes F^-1(r)
    as floats, and one stacked solve applies N^-1 to all pieces.
    """
    states, segments = _flow_core(fm.field, fm.t1, [fm.t0], r, fm.solver, True)
    (row,) = states.tolist()
    return _solve_columns(segments[0], [piece._evaluator(row) for piece in pieces])


def pushforward_field(fm: FlowMap, field: VectorField, t_eval: float) -> NumericalField:
    """The transported field F_*V: r -> F_*(F^{-1}(r)) V(t_eval, F^{-1}(r)).

    F is the flow map ``fm``.  The result is numerical (each evaluation is
    one variational solve of the inverse flow from r and one linear solve,
    ``_transport``), so it carries no exact derivatives.
    """
    piece = field.piece_at(t_eval)
    return NumericalField(field.dim, lambda _t, r: _transport(fm, [piece], r)[0],
                          f"pushforward by flow [{fm.t0}, {fm.t1}]")


def chained_trajectory(field: VectorField, t0: float, times, q, solver: FlowSolver,
                       pushforward: bool = False) -> tuple[np.ndarray, np.ndarray | list]:
    """One trajectory from (t0, q), solved segment by segment through ``times``.

    One pass of the executor single solves use (``_flow_core``), so each
    state has the bits of a single solve from the previous one.  Returns the
    states at the N ``times`` as one (N, n) array and, with ``pushforward``,
    the segment pushforwards S_i of the flow times[i-1] -> times[i] (t0 for
    the first) as one (N, n, n) array, each converted once per pass; the
    pushforward between two nodes is the product S_j ... S_{i+1}.  Callers
    evaluate fields at the nodes through ``states.tolist()`` and a piece's
    compiled evaluator, not one ``eval_field`` per node.
    """
    return _flow_core(field, t0, times, q, solver, pushforward)


def flow_time_dependent(fn: Callable[[float, np.ndarray], np.ndarray], t0: float,
                        t1: float, q, solver: FlowSolver, dim: int | None = None) -> np.ndarray:
    """RK4 endpoint for a genuinely time-dependent evaluator (t, q) -> vector.

    One fixed grid over [t0, t1], with no breakpoint splitting: a caller
    whose evaluator is piecewise in time solves each interval in turn.
    """
    _finite_times(t0, t1)  # before the t1 == t0 shortcut
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
