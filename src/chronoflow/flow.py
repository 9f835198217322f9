"""Flow maps of vector fields via deterministic fixed-step RK4.

The solver integrates each piecewise-autonomous segment with classical
fourth-order Runge-Kutta on a fixed grid, splitting steps at the field's
time breakpoints so no step straddles a discontinuity.  Every solve runs a
loop that one generator writes (``fields._rk4_source``): the plain loop of
each dimension calls a piece's compiled evaluator, or a time-dependent
evaluator, at every stage.  Pushforwards come from the variational equation
M' = V'(x(t)) M along the trajectory, a tangent pass from one column of it (the
``"tangent"`` loop), and ``_pull_back`` pulls vectors back along one trajectory
through its segment pushforwards.  Backward flows use negative steps on the same field.
"""
from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field as dataclass_field
from itertools import accumulate
from typing import Callable, ClassVar

import numpy as np

from .fields import (Observable, VectorField, _compiled, _exact, _finite_times, _positive,
                     as_float, as_int, as_point)

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
        _exact("flow maps require", self.field)  # an evaluator goes to flow_time_dependent
        _finite_times(self.t0, self.t1)


def _flow_core(field: VectorField, t0: float, times, q, solver: FlowSolver,
               want_pushforward: bool = False, gains=None) -> tuple[np.ndarray, np.ndarray | list]:
    """Walk one trajectory of ``field`` from (t0, q) through ``times`` in one pass.

    The one executor of solves on a field, single or chained.  The point, the times
    and the window are checked once, and the times become Python floats here (an
    ``np.float64`` time would turn the loops into numpy scalar arithmetic: same bits,
    3x the cost).  Node i's interval [times[i-1], times[i]] (t0 for the first) is split
    as ``field.parts`` splits a single solve, so each state has the bits of a single
    solve from the previous one.  Each part runs ``step_count`` steps of the piece's
    ``_variational_rk4`` with ``want_pushforward``, else of the plain loop, looked up
    once per pass, on float lists.  Each node's matrix restarts at the identity (its
    segment pushforward S_i) and its step count at 0.  The pass converts the nodes once:
    returns the (N, n) states at the N ``times`` and the (N, n, n) segment pushforwards
    (an empty list without ``want_pushforward``).  With ``gains``, one (weight,
    evaluator) per time but the last, a tangent pass carries a vector from 0 by
    ``_tangent_rk4``, adds weight * evaluator(state) at time i and returns it last.
    """
    point = as_point(q, field.dim).tolist()
    t0, times = float(t0), [float(t) for t in times]
    _finite_times(t0, *times)
    field.check_window(t0, *times)
    n, threshold = field.dim, solver.blowup_threshold
    identity = plain = None
    if want_pushforward:
        identity = [0.0] * (n * n)
        identity[::n + 1] = [1.0] * n
    elif gains is None:  # once per pass, and only on a pass that runs it
        plain = _compiled("plain", n)
    states: list[list[float]] = []
    segments: list[list[float]] = []
    start, vector = t0, [0.0] * n
    for i, t in enumerate(times):
        mat, step_base = identity, 0
        for a, b, pm in field._parts(start, t):
            n_steps = solver.step_count(a, b)
            h = (b - a) / n_steps
            if gains is not None:
                point, vector = pm._tangent_rk4(point, vector, a, h, n_steps, threshold, step_base)
            elif want_pushforward:
                point, mat = pm._variational_rk4(point, mat, a, h, n_steps, threshold, step_base)
            else:
                point = plain(pm._evaluator, point, a, h, n_steps, threshold, step_base)
            step_base += n_steps
        if gains is not None and i < len(gains):
            weight, evaluate = gains[i]
            vector = [v + weight * g for v, g in zip(vector, evaluate(point))]
        states.append(point)
        if want_pushforward:
            segments.append(mat)
        start = t
    mats = np.array(segments).reshape(len(times), n, n) if want_pushforward else []
    if gains is not None:
        mats = np.array(vector)
    return (np.array(states) if times else np.empty((0, n))), mats  # no rows: shape (0, n)


def flow_map(fm: FlowMap, q) -> np.ndarray:
    """Endpoint of the trajectory q' = V_t(q) from (t0, q) to t1, as an array of its own."""
    states, _ = _flow_core(fm.field, fm.t0, [fm.t1], q, fm.solver, False)
    return states[0].copy()  # a view would keep the (1, n) array alive with it


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


@dataclass(frozen=True, slots=True)
class Segment:
    """One signed flow segment: field index (1-based), sign, duration."""

    field_index: int
    sign: int
    duration: float


@dataclass(frozen=True, slots=True)
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
        _exact("control schedules require", *fields)
        if not math.isfinite(t):  # a clock at NaN or inf would take no piece
            raise ValueError(f"the schedule's start must be finite, got {start}")
        negated = functools.cache(lambda pm: pm.scaled(-1.0))  # once per map and call
        for i, seg in enumerate(self.segments):
            index = as_int(seg.field_index, f"segment {i} field_index")
            if not 1 <= index <= len(fields):
                raise IndexError(f"segment {i} uses V{index}, out of range")
            if not fields[index - 1].is_autonomous:
                raise ValueError(f"segment {i} uses V{index}, which is not autonomous")
            if as_int(seg.sign, f"segment {i} sign") not in (-1, 1):
                raise ValueError(f"segment {i} sign must be +1 or -1")
            if not math.isfinite(seg.duration):
                raise ValueError(f"segment {i} duration must be finite, got {seg.duration}")
            end = t + abs(seg.duration)
            if end > t:
                pm = fields[index - 1].pieces[0][2]
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
        return as_point(q).copy(), start
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


def _pull_back(field: VectorField, t0: float, times, q, solver: FlowSolver,
               values: Callable[[list], np.ndarray | list]) -> tuple[np.ndarray, np.ndarray]:
    """Rows P_i^-1 v_i and the full product P_N, for the m <= N vectors v_i that
    ``values`` gives on the float states of one variational pass through ``times``:
    P_i = S_i ... S_1, the forward product of its segment pushforwards, is the
    pushforward from t0 to times[i], and one stacked linear solve applies the inverses."""
    states, segments = _flow_core(field, t0, times, q, solver, True)
    vectors = values(states.tolist())
    forwards = list(accumulate(segments, lambda f, m: m @ f, initial=np.eye(field.dim)))
    return _solve_columns(np.array(forwards[1:len(vectors) + 1]), vectors), forwards[-1]


def pushforward_field(fm: FlowMap, field: VectorField, t_eval: float) -> Callable[..., np.ndarray]:
    """The transported field F_*V: r -> F_*(F^{-1}(r)) V(t_eval, F^{-1}(r)), as an
    evaluator (t, r) -> vector for ``flow_time_dependent``; t is unused.

    F is the flow map ``fm``.  Each evaluation checks r and makes one variational
    solve of the inverse flow from r and one linear solve (``_transport``), so the
    result has no exact derivatives: lifts, brackets and control systems reject it.
    """
    piece = field.piece_at(t_eval)
    return lambda _t, r: _transport(fm, [piece], as_point(r, field.dim))[0]


def flow_time_dependent(fn: Callable[[float, np.ndarray], np.ndarray], t0: float,
                        t1: float, q, solver: FlowSolver) -> np.ndarray:
    """RK4 endpoint for a genuinely time-dependent evaluator (t, q) -> vector.

    One fixed grid over [t0, t1], with no breakpoint splitting: a caller
    whose evaluator is piecewise in time solves each interval in turn.  The
    steps are the timed loop of dimension len(q) (``fields._rk4_source``),
    so an evaluator value of another length is a ValueError.
    """
    _finite_times(t0, t1)  # before the t1 == t0 shortcut
    point = as_point(q)
    if t1 == t0:
        return point.copy()
    n_steps = solver.step_count(t0, t1)
    loop = _compiled("timed", len(point))
    # the loop steps on Python floats (numpy scalar stage points give the same bits, slower);
    # a complex value stays complex, where dtype=float would drop its imaginary part
    return np.array(loop(lambda t, x: np.asarray(fn(t, np.array(x))).tolist(),
                         point.tolist(), t0, (t1 - t0) / n_steps, n_steps,
                         solver.blowup_threshold, 0))
