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

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .fields import (
    LiftTable,
    LocallyBoundedWitness,
    Observable,
    VectorField,
    as_point,
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


@dataclass(eq=False)
class RemainderReport:
    """Norm of the order-k truncation remainder at one (k, t), with bound."""

    k: int
    t: float
    remainder_norm: float
    bound: float | None = None


def _simplex_leaves(field: VectorField, t0: float, t: float, k: int,
                    nodes: int) -> list[list[tuple[float, float, tuple[int, ...]]]]:
    """Leaves (tau_i, product of the i weights, piece indices innermost first) of the
    nested quadrature at each depth i = 0..k, from one walk split at breakpoints."""
    levels = [[(t, 1.0, ())]]
    for _ in range(k):
        deeper = []
        for upper, weight, key in levels[-1]:
            for a, b in split_at(t0, upper, field.breakpoints_between(t0, upper)):
                piece_key = key + (field.piece_index(0.5 * (a + b)),)
                xs, ws = gauss_legendre(a, b, nodes)
                deeper.extend((x, weight * w, piece_key) for x, w in zip(xs, ws))
        levels.append(deeper)
    return levels


def _summed_weights(pairs) -> dict:
    """Sum of the weights of (group, weight) pairs per group, in order of first appearance."""
    weights: dict = {}
    for group, w in pairs:
        weights[group] = weights.get(group, 0.0) + w
    return weights


def simplex_volume(t0: float, t: float, k: int, nodes: int = DEFAULT_NODES) -> float:
    """Nested-quadrature volume of the order-k simplex (closed form t^k/k!)."""
    return float(sum(w for _, w, _ in _simplex_leaves(zero_field(1), t0, t, k, nodes)[k]))


def _series_terms(field: VectorField, obs: Observable, point: np.ndarray,
                  t0: float, t: float, k: int, nodes: int) -> list[np.ndarray]:
    """Volterra terms of orders 0..k at ``point``: (t - t0)^i / i! times the i-fold lift
    if autonomous, else each piece sequence's summed weight times its lift."""
    lifts = LiftTable(field, obs, k)
    field.check_window(t0, t)
    if field.is_autonomous:
        return [((t - t0) ** i / math.factorial(i)) * lifts[(0,) * i](point)
                for i in range(k + 1)]
    return [sum((w * lifts[seq](point)
                 for seq, w in _summed_weights((seq, w) for _, w, seq in leaves).items()),
                np.zeros(obs.dim_out))
            for leaves in _simplex_leaves(field, t0, t, k, nodes)]


def simplex_integral_term(field: VectorField, obs: Observable, q, t0: float,
                          t: float, k: int, nodes: int = DEFAULT_NODES) -> np.ndarray:
    """Iterated integral of the k-fold lift composition over the order-k simplex."""
    if k < 0:
        raise ValueError(f"simplex order k must be >= 0, got {k}")
    return _series_terms(field, obs, as_point(q, field.dim), t0, t, k, nodes)[k]


def volterra_truncate(field: VectorField, obs: Observable, q, t0: float, t: float,
                      k: int, nodes: int = DEFAULT_NODES) -> np.ndarray:
    """Order-k truncation: phi(q) plus the simplex terms of orders 1..k-1."""
    if k < 1:
        raise ValueError("truncation order k must be >= 1")
    terms = _series_terms(field, obs, as_point(q, field.dim), t0, t, k - 1, nodes)
    return sum(terms[1:], terms[0])


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
    if k < 1:
        raise ValueError("truncation order k must be >= 1")
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
    lifts = LiftTable(field, obs, k)
    field.check_window(t0, t)
    # leaves sharing an innermost time and a piece sequence share one evaluation
    weights = _summed_weights(((x, seq), w)
                              for x, w, seq in _simplex_leaves(field, t0, t, k, nodes)[k])
    times = sorted({x for x, _ in weights}, reverse=t < t0)
    states, _ = chained_trajectory(field, t0, times + [t] if to_end else times,
                                   point, solver)
    moved = dict(zip(times, states))
    integral = sum((w * lifts[seq](moved[x]) for (x, seq), w in weights.items()),
                   np.zeros(obs.dim_out))
    return integral, states[-1] if states else point


def fit_order(t_grid: np.ndarray, norms: np.ndarray,
              cutoff: float = ZERO_NORM_CUTOFF) -> OrderEstimate:
    """Least-squares log-log slope over samples above the zero cutoff (degenerate below two)."""
    t_grid = np.asarray(t_grid, dtype=float)
    norms = np.asarray(norms, dtype=float)
    usable = norms > cutoff
    excluded = int(np.sum(~usable))
    if int(np.sum(usable)) < 2:
        return degenerate_estimate(t_grid, norms)
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

    When fewer than two samples exceed the zero cutoff the estimate is
    degenerate (``degenerate`` set, slope inf), which ``passes_order`` counts
    as success for an o(t^k) claim.
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
    """Remainder reports over a grid of end times."""
    return [
        remainder_eval(field, obs, q, t0, tv, k, solver, nodes, witness)
        for tv in t_values
    ]
