"""Truncated Volterra series of flow operators and decay-order probes.

The flow operator expands into iterated integrals of lift compositions
over simplices t0 <= tau_k <= ... <= tau_1 <= t.  For autonomous fields
the integrand is constant over the simplex and each term collapses to
(t - t0)^k / k! times the k-fold lift; otherwise the simplex is integrated
by one nested Gauss-Legendre quadrature, split at time breakpoints.

Decay orders are measured on dyadic grids t_j = t_max * 2^-j by a
least-squares fit of log(norm) against log(t); samples at numerical zero
(below 1e-14) are excluded as exact cancellation.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateProbe
from .fields import (
    LocallyBoundedWitness,
    Observable,
    VectorField,
    apply_lift,
    as_point,
    iterate_lift,
    zero_field,
)
from .flow import (
    FlowMap,
    FlowSolver,
    chained_trajectory,
    flow_operator_apply,
)
from .quadrature import gauss_legendre, split_at

DEFAULT_NODES = 16
ZERO_NORM_CUTOFF = 1e-14


@dataclass(frozen=True, eq=False)
class SeriesTerm:
    """One iterated-integral term of the expansion, applied to phi at q."""

    order_i: int
    value: np.ndarray


@dataclass(eq=False)
class OrderEstimate:
    """Fitted decay order of a nonnegative sample over a dyadic t-grid."""

    t_grid: np.ndarray
    norms: np.ndarray
    fitted_slope: float
    r_squared: float
    excluded: int = 0
    degenerate: bool = False

    def passes_order(self, k: float, margin: float = 0.5) -> bool:
        """True when the decay is strictly faster than t^k (or exactly zero)."""
        return self.degenerate or self.fitted_slope > k + margin

    def to_csv_rows(self) -> list[str]:
        rows = ["t,norm"]
        rows += [
            f"{format(t, '.17g')},{format(v, '.17g')}"
            for t, v in zip(self.t_grid, self.norms)
        ]
        return rows

    def to_json_summary(self) -> dict:
        return {
            "slope": None if self.degenerate else self.fitted_slope,
            "r_squared": None if self.degenerate else self.r_squared,
            "degenerate": self.degenerate,
            "excluded": self.excluded,
        }


@dataclass(eq=False)
class RemainderReport:
    """Norm of the order-k truncation remainder at one (k, t), with bound."""

    k: int
    t: float
    remainder_norm: float
    bound: float | None = None

    def to_csv_row(self) -> str:
        bound = "" if self.bound is None else format(self.bound, ".17g")
        return f"{format(self.t, '.17g')},{format(self.remainder_norm, '.17g')},{bound}"

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "t": self.t,
            "remainder_norm": self.remainder_norm,
            "bound": self.bound,
        }


def _simplex_leaves(fields: Sequence[VectorField], obs: Observable | None,
                    t0: float, t: float,
                    nodes: int) -> list[tuple[float, float, Observable | None]]:
    """Leaves (tau_k, product of the k weights, lifted observable) of the
    nested quadrature: depth i integrates tau_{i+1} over [t0, tau_i] split at
    the breakpoints of ``fields[i]`` and lifts by its piece there, one lift
    per distinct piece sequence (none when ``obs`` is None).
    """
    frontier = [(t, 1.0, obs, ())]
    lifts: dict[tuple[int, ...], Observable | None] = {}
    for field in fields:
        deeper = []
        for upper, weight, lifted, key in frontier:
            for a, b in split_at(t0, upper, field.breakpoints_between(t0, upper)):
                piece_key = key + (id(field.piece_for_interval(a, b)),)
                if piece_key not in lifts:
                    lifts[piece_key] = (None if lifted is None
                                        else apply_lift(field, 0.5 * (a + b), lifted))
                nxt = lifts[piece_key]
                xs, ws = gauss_legendre(a, b, nodes)
                deeper.extend((x, weight * w, nxt, piece_key) for x, w in zip(xs, ws))
        frontier = deeper
    return [(x, w, lifted) for x, w, lifted, _ in frontier]


def simplex_volume(t0: float, t: float, k: int, nodes: int = DEFAULT_NODES) -> float:
    """Nested-quadrature volume of the order-k simplex (closed form t^k/k!)."""
    leaves = _simplex_leaves([zero_field(1)] * k, None, t0, t, nodes)  # no breakpoints
    return float(sum(w for _, w, _ in leaves))


def simplex_integral_term(fields: Sequence[VectorField], obs: Observable, q,
                          t0: float, t: float, nodes: int = DEFAULT_NODES) -> np.ndarray:
    """Iterated integral of the lift composition over the order-k simplex.

    ``fields[i]`` is composed at the i-th simplex time tau_{i+1} (position
    1 innermost).  All-autonomous inputs use the closed form
    (t - t0)^k / k! times the k-fold lift at q.
    """
    k = len(fields)
    point = as_point(q)
    if obs.max_derivative_order < k:
        iterate_lift([(f, t0) for f in fields], obs)  # raises DefectExhaustedError
    for f in fields:
        f.check_window(t0, t)

    if all(f.is_autonomous for f in fields):
        lifted = iterate_lift([(f, 0.0) for f in fields], obs)
        return ((t - t0) ** k / math.factorial(k)) * lifted(point)

    leaves = _simplex_leaves(fields, obs, t0, t, nodes)
    return sum((w * lifted(point) for _, w, lifted in leaves), np.zeros(obs.dim_out))


def volterra_terms(field: VectorField, obs: Observable, q, t0: float, t: float,
                   k: int, nodes: int = DEFAULT_NODES) -> list[SeriesTerm]:
    """The individual expansion terms of orders 1..k-1."""
    return [
        SeriesTerm(i, simplex_integral_term([field] * i, obs, q, t0, t, nodes))
        for i in range(1, k)
    ]


def volterra_truncate(field: VectorField, obs: Observable, q, t0: float, t: float,
                      k: int, nodes: int = DEFAULT_NODES) -> np.ndarray:
    """Order-k truncation: phi(q) plus the simplex terms of orders 1..k-1."""
    if k < 1:
        raise ValueError("truncation order k must be >= 1")
    point = as_point(q, field.dim)
    total = obs(point)
    for term in volterra_terms(field, obs, q, t0, t, k, nodes):
        total = total + term.value
    return total


def remainder_eval(field: VectorField, obs: Observable, q, t0: float, t: float,
                   k: int, solver: FlowSolver, nodes: int = DEFAULT_NODES,
                   witness: LocallyBoundedWitness | None = None,
                   method: str = "difference") -> RemainderReport:
    """Remainder of the order-k truncation against the true flow.

    ``method="difference"`` (default) computes flow value minus truncation;
    ``method="direct"`` evaluates the nested remainder integral whose
    integrand composes the flow operator with the k lifts, evaluated on one
    chained trajectory through the distinct innermost quadrature times (about
    one solve's steps plus one per time, of which there are about nodes^k).
    """
    point = as_point(q, field.dim)
    if method == "difference":
        true_value = flow_operator_apply(FlowMap(field, t0, t, solver), obs, point)
        truncated = volterra_truncate(field, obs, point, t0, t, k, nodes)
        remainder = float(np.linalg.norm(true_value - truncated))
    elif method == "direct":
        integral, _ = _direct_remainder(field, obs, point, t0, t, k, solver, nodes)
        remainder = float(np.linalg.norm(integral))
    else:
        raise ValueError(f"unknown remainder method {method!r}")
    bound = None
    if witness is not None:
        if witness.order != k:
            raise ValueError(
                f"witness sampled at order {witness.order}, remainder order is {k}"
            )
        bound = witness.bound_C * abs(t - t0) ** k / math.factorial(k)
    return RemainderReport(k=k, t=t, remainder_norm=remainder, bound=bound)


def _direct_remainder(field: VectorField, obs: Observable, point: np.ndarray,
                      t0: float, t: float, k: int, solver: FlowSolver,
                      nodes: int, to_end: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Nested integral of the remainder with the flow inside the integrand.

    Returns the integral and the last state of its chained trajectory, which
    with ``to_end`` walks on past the innermost times to the flowed point at t.
    """
    if obs.max_derivative_order < k:
        iterate_lift([(field, t0)] * k, obs)
    field.check_window(t0, t)
    # leaves sharing an innermost time and a lift share one evaluation
    weights: dict[tuple[float, int], list] = {}
    for x, w, lifted in _simplex_leaves([field] * k, obs, t0, t, nodes):
        weights.setdefault((x, id(lifted)), [0.0, lifted])[0] += w
    times = sorted({x for x, _ in weights}, reverse=t < t0)
    states, _ = chained_trajectory(field, t0, times + [t] if to_end else times,
                                   point, solver)
    moved = dict(zip(times, states))
    integral = sum((w * lifted(moved[x]) for (x, _), (w, lifted) in weights.items()),
                   np.zeros(obs.dim_out))
    return integral, states[-1] if states else point


def fit_order(t_grid: np.ndarray, norms: np.ndarray,
              cutoff: float = ZERO_NORM_CUTOFF) -> OrderEstimate:
    """Least-squares log-log slope over samples above the zero cutoff."""
    t_grid = np.asarray(t_grid, dtype=float)
    norms = np.asarray(norms, dtype=float)
    usable = norms > cutoff
    excluded = int(np.sum(~usable))
    if int(np.sum(usable)) < 2:
        raise DegenerateProbe(t_grid, norms)
    log_t = np.log(t_grid[usable])
    log_n = np.log(norms[usable])
    slope, intercept = np.polyfit(log_t, log_n, 1)
    fitted = slope * log_t + intercept
    ss_res = float(np.sum((log_n - fitted) ** 2))
    ss_tot = float(np.sum((log_n - np.mean(log_n)) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return OrderEstimate(t_grid=t_grid, norms=norms, fitted_slope=float(slope),
                         r_squared=r_squared, excluded=excluded)


def degenerate_estimate(t_grid, norms) -> OrderEstimate:
    """Estimate for exact cancellation: decay faster than any power."""
    return OrderEstimate(t_grid=np.asarray(t_grid, dtype=float),
                         norms=np.asarray(norms, dtype=float),
                         fitted_slope=math.inf, r_squared=1.0,
                         excluded=len(norms), degenerate=True)


def order_probe(sample: Callable[[float], float], t_max: float,
                levels: int = 8) -> OrderEstimate:
    """Evaluate ``sample`` on the dyadic grid and fit its decay order.

    Raises DegenerateProbe when fewer than two samples exceed the zero
    cutoff; callers asserting an o(t^k) claim should treat that as success.
    Raises ValueError unless t_max is finite and positive and every sample is
    finite and nonnegative.
    """
    if not (math.isfinite(t_max) and t_max > 0):
        raise ValueError(f"t_max must be finite and positive, got {t_max!r}")
    if levels < 4:
        raise ValueError("need at least 4 probe levels")
    t_grid = t_max * 2.0 ** (-np.arange(levels, dtype=float))
    norms = np.array([float(sample(t)) for t in t_grid])
    if not np.all(np.isfinite(norms) & (norms >= 0)):
        raise ValueError(f"samples must be finite and nonnegative, got {norms.tolist()}")
    return fit_order(t_grid, norms)


def integral_equation_residual(field: VectorField, obs: Observable, q, t0: float,
                               t: float, solver: FlowSolver,
                               nodes: int = DEFAULT_NODES) -> float:
    """Residual of the flow-operator integral identity.

    Checks phi(P(q)) - phi(q) = integral of the lifted observable along the
    trajectory, with Gauss-Legendre in tau split at time breakpoints.  A
    small residual certifies the computed flow solves the operator
    integral equation.  P(q) ends the chained trajectory through the
    quadrature times, so the call costs one pass along it.
    """
    point = as_point(q, field.dim)
    integral, end = _direct_remainder(field, obs, point, t0, t, 1, solver, nodes,
                                      to_end=True)
    return float(np.linalg.norm(obs(end) - obs(point) - integral))


def remainder_table(field: VectorField, obs: Observable, q, t0: float, k: int,
                    t_values: Sequence[float], solver: FlowSolver,
                    nodes: int = DEFAULT_NODES,
                    witness: LocallyBoundedWitness | None = None) -> list[RemainderReport]:
    """Remainder reports over a grid of end times (CSV/JSON-ready)."""
    return [
        remainder_eval(field, obs, q, t0, tv, k, solver, nodes, witness)
        for tv in t_values
    ]


def reports_to_csv(reports: Sequence[RemainderReport]) -> str:
    return "\n".join(["t,norm,bound"] + [r.to_csv_row() for r in reports]) + "\n"


def estimate_to_json(estimate: OrderEstimate) -> str:
    doc = estimate.to_json_summary()
    doc["rows"] = [
        {"t": float(t), "norm": float(v)}
        for t, v in zip(estimate.t_grid, estimate.norms)
    ]
    return json.dumps(doc, indent=2)
