"""Lie brackets, iterated bracket expressions, and commutators of flows.

Coordinate brackets of polynomial fields are computed exactly (DW.V - DV.W
as polynomial maps), so nested expressions stay free of differentiation
error.  Commutators of flows follow the point-map convention
[P, Q] = Q^{-1} o P^{-1} o Q o P (operator order reversed), executed as
signed flow segments; their leading deviation from the identity is t^k
times the corresponding iterated field bracket, which the asymptotics
check verifies by a dyadic log-log probe.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .errors import DimensionError
from .fields import (
    PolynomialMap,
    VectorField,
    _exact,
    _finite_times,
    as_int,
    as_point,
    eval_field,
    field_jacobian,
    finite_difference_jacobian,
    lift_map,
)
from .flow import (
    ControlSchedule,
    FlowMap,
    FlowSolver,
    Segment,
    _pull_back,
    _transport,
    inverse_flow,
    run_schedule,
)
from .quadrature import gauss_legendre

if TYPE_CHECKING:  # chrono loads in the order probes, the only code that uses it
    from .chrono import OrderEstimate

FLOW_ZERO_CUTOFF = 1e-12  # solver-noise threshold for exact cancellation


@dataclass(frozen=True)
class BracketExpression:
    """Binary tree over 1-based field indices encoding an iterated bracket."""

    index: int | None = None
    left: "BracketExpression | None" = None
    right: "BracketExpression | None" = None

    @classmethod
    def leaf(cls, index: int) -> "BracketExpression":
        return cls(index=as_int(index, "field index", 1))  # True would print as VTrue

    @classmethod
    def pair(cls, left: "BracketExpression", right: "BracketExpression") -> "BracketExpression":
        return cls(index=None, left=left, right=right)

    @property
    def is_leaf(self) -> bool:
        return self.index is not None

    @cached_property
    def degree(self) -> int:
        if self.is_leaf:
            return 1
        return self.left.degree + self.right.degree

    def max_index(self) -> int:
        if self.is_leaf:
            return self.index
        return max(self.left.max_index(), self.right.max_index())

    def __str__(self) -> str:
        if self.is_leaf:
            return f"V{self.index}"
        return f"[{self.left},{self.right}]"

    @classmethod
    @lru_cache(maxsize=128)
    def parse(cls, text: str) -> "BracketExpression":
        """Parse ``V1``, ``[V1,V2]``, ``[[V1,V2],V1]`` (whitespace-insensitive), memoised."""
        compact = "".join(text.split())
        expr, pos = cls._parse_at(compact, 0)
        if pos != len(compact):
            raise ValueError(f"trailing characters in bracket expression: {compact[pos:]!r}")
        return expr

    @classmethod
    def _parse_at(cls, s: str, pos: int) -> tuple["BracketExpression", int]:
        if pos >= len(s):
            raise ValueError("unexpected end of bracket expression")
        if s[pos] == "[":
            left, pos = cls._parse_at(s, pos + 1)
            if pos >= len(s) or s[pos] != ",":
                raise ValueError(f"expected ',' at position {pos} in {s!r}")
            right, pos = cls._parse_at(s, pos + 1)
            if pos >= len(s) or s[pos] != "]":
                raise ValueError(f"expected ']' at position {pos} in {s!r}")
            return cls.pair(left, right), pos + 1
        match = re.match(r"V(\d+)", s[pos:])
        if not match:
            raise ValueError(f"expected a leaf like 'V1' at position {pos} in {s!r}")
        return cls.leaf(int(match.group(1))), pos + match.end()


# ---------------------------------------------------------------------------
# Coordinate brackets (exact)

def lie_bracket_map(v_map: PolynomialMap, w_map: PolynomialMap) -> PolynomialMap:
    """Exact coordinate bracket DW.V - DV.W of two polynomial fields."""
    if v_map.dim_in != w_map.dim_in or v_map.dim_out != w_map.dim_out:
        raise DimensionError("bracket operands have different dimensions")
    forward = lift_map(w_map, v_map)   # W'(x) V(x)
    backward = lift_map(v_map, w_map)  # V'(x) W(x)
    return forward.add(backward, 1.0, -1.0)


def lie_bracket_field(v: VectorField, w: VectorField, t: float = 0.0) -> VectorField:
    """The bracket as an autonomous polynomial field, from the pieces at t."""
    _exact("bracket nesting requires", v, w)
    pm = lie_bracket_map(v.piece_at(t), w.piece_at(t))
    return VectorField.autonomous(pm, min(v.smoothness_order, w.smoothness_order))


def lie_bracket(v: VectorField, w: VectorField, t: float, q) -> np.ndarray:
    """Bracket value DW(q).V(q) - DV(q).W(q) at one point."""
    _exact("bracket values require", v, w)
    point = as_point(q, v.dim)
    return (field_jacobian(w, t, point) @ eval_field(v, t, point)
            - field_jacobian(v, t, point) @ eval_field(w, t, point))


def bracket_fields(exprs, fields, t: float = 0.0) -> list[VectorField]:
    """Polynomial fields of iterated brackets, each shared sub-bracket built once."""
    fields = list(fields)
    built: dict[str, VectorField] = {}

    def build(expr: BracketExpression) -> VectorField:
        key = str(expr)
        if key not in built:
            if expr.max_index() > len(fields):
                raise IndexError(
                    f"bracket expression uses V{expr.max_index()} but only "
                    f"{len(fields)} fields were given"
                )
            built[key] = (fields[expr.index - 1] if expr.is_leaf
                          else lie_bracket_field(build(expr.left), build(expr.right), t))
        return built[key]

    return [build(expr) for expr in exprs]


def eval_bracket_expression(expr: BracketExpression, fields, t: float, q) -> np.ndarray:
    """Value of the iterated bracket field at (t, q)."""
    return eval_field(bracket_fields([expr], fields, t)[0], t, q)


# ---------------------------------------------------------------------------
# Bracket programs

def bracket_program(expr: BracketExpression, t: float) -> ControlSchedule:
    """Signed flow segments realizing a bracket expression as a point map.

    Every segment runs for the parameter t.  A leaf runs its field forward;
    a pair runs left, right, then both reversed, so the program length
    satisfies L(pair) = 2(L(left)+L(right)) and signed durations cancel per
    field for degree >= 2.
    """
    if expr.is_leaf:
        return ControlSchedule((Segment(expr.index, +1, t),))
    left, right = bracket_program(expr.left, t), bracket_program(expr.right, t)
    return left.concat(right).concat(left.reversed()).concat(right.reversed())


def run_program(program: ControlSchedule, fields, q, solver: FlowSolver) -> np.ndarray:
    """Endpoint of one solve of ``program.field(fields)`` from q: on a clock from 0, a
    duration d enters as fl(T + d) - T, a negative one flips the sign, a segment that
    does not move the clock has no piece, and a program with none (t = 0) gives q."""
    return run_schedule(program, fields, as_point(q), solver)[0]


def flow_bracket(expr: BracketExpression, fields, t: float, q,
                 solver: FlowSolver) -> np.ndarray:
    """Endpoint of the iterated commutator of flows at parameter t."""
    return run_program(bracket_program(expr, t), fields, q, solver)


# ---------------------------------------------------------------------------
# Asymptotic checks

def _probe_flow_residual(residual, t_max: float, levels: int) -> OrderEstimate:
    """``order_probe`` of a flow residual; solver noise counts as exact zero."""
    from .chrono import degenerate_estimate, order_probe
    estimate = order_probe(residual, t_max, levels)
    if np.max(estimate.norms) < FLOW_ZERO_CUTOFF:
        return degenerate_estimate(estimate.t_grid, estimate.norms)
    return estimate


def bracket_asymptotics_check(expr: BracketExpression, fields, q, t_max: float,
                              levels: int, solver: FlowSolver) -> OrderEstimate:
    """Probe the commutator-of-flows residual against its field bracket.

    For a degree-k expression the endpoint satisfies
    flow_bracket(t, q) = q + t^k B(q) + o(t^k), so the residual norm after
    removing t^k B(q) must decay with slope above k (or cancel exactly,
    which counts as a pass).
    """
    _exact("the bracket asymptotics check requires", *fields)
    k = expr.degree
    for f in fields:
        if k > f.smoothness_order:
            raise ValueError(
                f"expression degree {k} exceeds field smoothness order "
                f"{f.smoothness_order}"
            )
    point = as_point(q)
    bracket_value = eval_bracket_expression(expr, fields, 0.0, point)

    def residual(t: float) -> float:
        end = flow_bracket(expr, fields, t, point, solver)
        return float(np.linalg.norm(end - point - t ** k * bracket_value))

    return _probe_flow_residual(residual, t_max, levels)


def inverse_expansion_check(v: VectorField, q, t_max: float, levels: int,
                            solver: FlowSolver) -> OrderEstimate:
    """Probe the first-order expansion of the inverse flow.

    The residual || P_t^{-1}(q) - q + t V(q) || must be o(t); slope about 2
    on smooth fields, exact zero for flows with affine inverses.
    """
    _exact("the inverse expansion check requires", v)
    point = as_point(q, v.dim)
    value = eval_field(v, 0.0, point)

    def residual(t: float) -> float:
        back = inverse_flow(FlowMap(v, 0.0, t, solver), point)
        return float(np.linalg.norm(back - point + t * value))

    return _probe_flow_residual(residual, t_max, levels)


def adjoint_check(v: VectorField, w: VectorField, q, t: float, solver: FlowSolver,
                  nodes: int = 16) -> float:
    """Residual of the transported-field integral identity.

    Checks, at the point q, that the field W transported by the backward
    flow of V satisfies
    (P_{t,0})_* W (q) = W(q) + integral over [0, t] of (P_{tau,0})_* [V, W] (q).
    Every transport evaluates at a point x_tau of the forward trajectory
    from q, where the backward pushforward (P_{tau,0})_* is the inverse of
    the forward one, P_{0,tau}'s differential at q.  ``flow._pull_back``
    supplies all of them: one variational pass from q through the quadrature
    nodes to t gives them as products of segment pushforwards, and one
    stacked linear solve applies their inverses.  The bracket is the exact
    coordinate bracket, and it and W are evaluated through their compiled
    evaluators on the pass's states.
    """
    _exact("the adjoint identity check requires", v, w)
    if not (v.is_autonomous and w.is_autonomous):
        raise ValueError("the adjoint identity check expects autonomous fields")
    point = as_point(q, v.dim)
    bracket, w_map = lie_bracket_field(v, w).piece_at(0.0), w.piece_at(0.0)
    _finite_times(0.0, t)  # once, before the nodes spread t
    xs, ws = gauss_legendre(0.0, t, nodes)
    pulled, _ = _pull_back(v, 0.0, list(xs) + [t], point, solver, lambda rows: [
        bracket._evaluator(x_tau) for x_tau in rows[:-1]] + [w_map._evaluator(rows[-1])])
    total = w_map(point)
    for weight, value in zip(ws, pulled):
        total += weight * value
    return float(np.linalg.norm(pulled[-1] - total))


def pushforward_invariance_check(fm: FlowMap, v: VectorField, w: VectorField, q,
                                 t_eval: float = 0.0) -> float:
    """Discrepancy of F_*[V, W] against [F_*V, F_*W] at q.

    The left side transports the exact bracket field; the right side
    brackets the two numerical pushforward fields with central finite
    differences (the independent oracle path), step h = eps^(1/3) *
    max(1, |x_i|).  The three transported fields (``pushforward_field``'s
    values) share one variational solve of the inverse flow and one stacked
    linear solve per point (``_transport``), at 2n + 1 distinct points.
    """
    _exact("the pushforward invariance check requires", v, w)
    point = as_point(q, v.dim)
    pieces = [f.piece_at(t_eval) for f in (v, w, lie_bracket_field(v, w, t_eval))]
    transported: dict[bytes, np.ndarray] = {}

    def transport(r: np.ndarray) -> np.ndarray:
        key = r.tobytes()
        if key not in transported:
            transported[key] = _transport(fm, pieces, r)
        return transported[key]

    jac_fv = finite_difference_jacobian(lambda r: transport(r)[0], point)
    jac_fw = finite_difference_jacobian(lambda r: transport(r)[1], point)
    fv, fw, lhs = transport(point)
    rhs = jac_fw @ fv - jac_fv @ fw
    return float(np.linalg.norm(lhs - rhs))
