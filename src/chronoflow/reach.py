"""Affine control systems, bracket-generating rank tests, and a greedy planner.

Admissible controls are piecewise constant with one active component of
value +1 or -1 per segment; magnitudes live in segment durations only.  A
schedule runs as one piecewise field (``ControlSchedule.field``) on a clock
from 0: at clock time T a duration d enters as fl(T + d) - T, a negative
duration flips the sign, a segment that does not move the clock has no
piece, and the empty schedule is the identity.
The rank test evaluates a canonical set of iterated brackets at a point
and counts singular values; full rank at the start certifies the planner's
precondition.  The planner itself is a constructive desk-scale witness of
approximate controllability: it solves each bracket motion it tries at its
offset on the plan's clock, so its endpoint equals bit for bit
``simulate_schedule`` of the returned schedule from the start point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DimensionError, PlannerPreconditionError, StalledError
from .fields import VectorField, _positive, as_float, as_int, as_point, eval_field, vector_norm
from .flow import (  # noqa: F401 (re-exports Segment; perfbench reads reach.flow_map)
    ControlSchedule, FlowSolver, Segment, flow_map, run_schedule)

if TYPE_CHECKING:  # liealg loads in the functions that use it; simulate needs none of it
    from .liealg import BracketExpression

DEFAULT_RANK_TOL = 1e-8
DEFAULT_STEP_FRACTION = 0.5
MAX_CONSECUTIVE_HALVINGS = 20


@dataclass(frozen=True)
class AffineControlSystem:
    """Finitely many autonomous polynomial control fields on one chart."""

    fields: tuple[VectorField, ...]
    dim: int

    @classmethod
    def of(cls, fields) -> "AffineControlSystem":
        fields = tuple(fields)
        if not fields:
            raise ValueError("a control system needs at least one field")
        dim = fields[0].dim
        for f in fields:
            if f.dim != dim:
                raise DimensionError("control fields have mixed dimensions")
            if not f.is_autonomous:
                raise ValueError("control fields must be autonomous")
            if not getattr(f, "exact", False):
                raise TypeError("control fields must be exact polynomial fields")
        return cls(fields=fields, dim=dim)


def simulate_schedule(sys: AffineControlSystem, q0, sched: ControlSchedule,
                      solver: FlowSolver) -> np.ndarray:
    """Endpoint of one solve of ``sched.field(sys.fields)`` from q0: on a clock from 0, a
    duration d enters as fl(T + d) - T, a segment that does not move the clock has no
    piece, the empty schedule gives q0, and a duration must be a positive number."""
    for i, seg in enumerate(sched.segments):
        if as_float(seg.duration, f"segment {i} duration") <= 0:
            raise ValueError(f"segment {i} duration must be positive")
    return run_schedule(sched, sys.fields, as_point(q0, sys.dim), solver)[0]


@dataclass(eq=False)
class RankReport:
    """Iterated brackets evaluated at a point, with their numerical rank."""

    brackets: list[tuple[BracketExpression, np.ndarray]]
    numerical_rank: int
    singular_values: np.ndarray

    def to_json(self) -> dict:
        return {
            "numerical_rank": self.numerical_rank,
            "singular_values": [float(s) for s in self.singular_values],
            "brackets": [
                {"expr": str(e), "value": [float(x) for x in v]}
                for e, v in self.brackets
            ],
        }


def canonical_bracket_basis(num_fields: int, max_degree: int) -> list[BracketExpression]:
    """All bracket shapes up to max_degree, one per antisymmetry class.

    A pair is kept only when the left subtree's canonical string is
    lexicographically smaller than the right's, which also drops the
    identically-zero [A, A] shapes.
    """
    from .liealg import BracketExpression
    max_degree = as_int(max_degree, "max_degree", 1)  # True would pass as degree 1
    by_degree: dict[int, list[BracketExpression]] = {
        1: [BracketExpression.leaf(i) for i in range(1, num_fields + 1)]
    }
    for d in range(2, max_degree + 1):
        exprs = []
        for d_left in range(1, d):
            for left in by_degree[d_left]:
                for right in by_degree[d - d_left]:
                    if str(left) < str(right):
                        exprs.append(BracketExpression.pair(left, right))
        by_degree[d] = sorted(exprs, key=str)
    basis: list[BracketExpression] = []
    for d in range(1, max_degree + 1):
        basis.extend(by_degree[d])
    return basis


def _rank_report(basis, fields, point: np.ndarray, rel_tol: float) -> RankReport:
    rows = [(expr, eval_field(f, 0.0, point)) for expr, f in zip(basis, fields)]
    matrix = np.array([v for _, v in rows])
    singular = np.linalg.svd(matrix, compute_uv=False)
    top = singular[0] if singular.size else 0.0
    rank = int(np.sum(singular > rel_tol * top)) if top > 0 else 0
    return RankReport(brackets=rows, numerical_rank=rank, singular_values=singular)


def bracket_rank(sys: AffineControlSystem, q, max_degree: int,
                 rel_tol: float = DEFAULT_RANK_TOL) -> RankReport:
    """Numerical rank of the iterated-bracket span at q via singular values."""
    from .liealg import bracket_fields
    if not 0.0 <= as_float(rel_tol, "rel_tol") < math.inf:
        raise ValueError(f"rel_tol must be finite and nonnegative, got {rel_tol!r}")
    point = as_point(q, sys.dim)
    basis = canonical_bracket_basis(len(sys.fields), max_degree)
    return _rank_report(basis, bracket_fields(basis, sys.fields), point, rel_tol)


def bracket_motion(sys: AffineControlSystem, expr: BracketExpression,
                   magnitude: float, sign: int = 1) -> ControlSchedule:
    """Schedule whose net displacement is about magnitude * B(q).

    The bracket program of the expression runs with per-segment duration
    t = magnitude^(1/k) for degree k; ``sign=-1`` runs the reversed
    program, inverting the motion.
    """
    from .liealg import bracket_program
    magnitude = _positive(magnitude, "magnitude")
    if sign not in (-1, 1):
        raise ValueError("sign must be +1 or -1")
    if expr.max_index() > len(sys.fields):
        raise IndexError(f"expression leaf V{expr.max_index()} out of range")
    program = bracket_program(expr, magnitude ** (1 / expr.degree))
    return program if sign > 0 else program.reversed()


@dataclass(eq=False)
class PlanResult:
    """Planner output; the endpoint ends the planner's chained simulation of the
    schedule and equals ``simulate_schedule(sys, q0, schedule, solver)`` bit for bit."""

    schedule: ControlSchedule
    endpoint: np.ndarray
    residual: float
    iterations: int

    def to_json(self) -> dict:
        return {
            "endpoint": [float(x) for x in self.endpoint],
            "residual": self.residual,
            "iterations": self.iterations,
            "schedule": self.schedule.to_json(),
        }


def plan_reach(sys: AffineControlSystem, q0, target, epsilon: float,
               max_degree: int, max_iters: int, solver: FlowSolver,
               step_fraction: float = DEFAULT_STEP_FRACTION) -> PlanResult:
    """Greedy bracket-motion planner into the epsilon-ball of the target.

    At each iteration the residual is least-squares decomposed over the
    canonical bracket basis at the current point, and the direction with
    the largest coefficient is executed as a bracket motion of magnitude
    step_fraction times that coefficient.  Non-improving motions are
    discarded and the fraction halves (resetting on success); twenty
    consecutive halvings raise StalledError with the best result so far.
    """
    from .liealg import bracket_fields
    point = as_point(q0, sys.dim)
    goal = as_point(target, sys.dim)
    epsilon = _positive(epsilon, "epsilon")
    step_fraction = _positive(step_fraction, "step_fraction")
    max_iters = as_int(max_iters, "max_iters", 0)  # True would pass as one iteration

    basis = canonical_bracket_basis(len(sys.fields), max_degree)
    fields = bracket_fields(basis, sys.fields)
    report = _rank_report(basis, fields, point, DEFAULT_RANK_TOL)
    if report.numerical_rank < sys.dim:
        raise PlannerPreconditionError(
            f"bracket rank {report.numerical_rank} < dim {sys.dim} at the "
            f"start point; the system is not bracket-generating there"
        )

    schedule = ControlSchedule(())
    elapsed = 0.0  # the plan's clock: each motion is solved where a replay solves it
    fraction = step_fraction
    halvings = 0
    iterations = 0

    def result() -> PlanResult:
        return PlanResult(schedule=schedule, endpoint=point,
                          residual=vector_norm(point - goal),
                          iterations=iterations)

    while iterations < max_iters:
        residual = goal - point
        residual_norm = vector_norm(residual)
        if residual_norm <= epsilon:
            break
        directions = np.array([eval_field(f, 0.0, point) for f in fields])
        coeffs, *_ = np.linalg.lstsq(directions.T, residual, rcond=None)
        pick = int(np.argmax(np.abs(coeffs)))
        magnitude = fraction * abs(float(coeffs[pick]))
        iterations += 1
        if magnitude <= 0.0:
            halvings += 1
        else:
            motion = bracket_motion(sys, basis[pick], magnitude,
                                    sign=1 if coeffs[pick] > 0 else -1)
            candidate, end = run_schedule(motion, sys.fields, point, solver, elapsed)
            if vector_norm(goal - candidate) < residual_norm:
                point, elapsed = candidate, end
                schedule = schedule.concat(motion)
                fraction = step_fraction
                halvings = 0
                continue
            fraction *= 0.5
            halvings += 1
        if halvings >= MAX_CONSECUTIVE_HALVINGS:
            raise StalledError(
                f"no improvement over {MAX_CONSECUTIVE_HALVINGS} consecutive "
                f"step halvings (residual {residual_norm:.3e})",
                best=result(),
            )

    return result()
