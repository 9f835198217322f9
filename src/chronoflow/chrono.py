"""Truncated Volterra series of flow operators and decay-order probes.

The flow operator expands into iterated integrals of lift compositions
over simplices t0 <= tau_k <= ... <= tau_1 <= t.  Pieces are autonomous, so
a term is the sum over piece sequences of exact region volumes times lifts;
the direct remainder integrates only its innermost time, by Gauss-Legendre
per piece, with its outer integrals in closed form.

Decay orders are measured on dyadic grids t_j = t_max * 2^-j by a
least-squares fit of log(norm) against log(t); samples at numerical zero
(below 1e-14) are excluded as exact cancellation.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Callable, Sequence

import numpy as np

from .fields import (
    LiftTable,
    LocallyBoundedWitness,
    Observable,
    PolynomialMap,
    VectorField,
    as_int,
    as_point,
)
from .flow import (
    FlowMap,
    FlowSolver,
    chained_trajectory,
    flow_operator_apply,
)
from .quadrature import gauss_legendre

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


def _parts(field: VectorField, t0: float, t: float) -> list[tuple[float, float, PolynomialMap]]:
    """``field.parts(t0, t)`` from the t end back to t0, as lift keys list their
    times, once both times are checked to be finite."""
    if not (math.isfinite(t0) and math.isfinite(t)):
        raise ValueError(f"flow times must be finite, got [{t0}, {t}]")
    return field.parts(t0, t)[::-1]


def _regions(lengths: Sequence[float], pieces: Sequence, i: int):
    """(volume, sequence of pieces[j]) of each region where i ordered times fall in parts
    j, listed from the t end: prod_j lengths[j]^m_j / m_j!, with m_j the count of part j."""
    for seq in combinations_with_replacement(range(len(lengths)), i):
        yield (math.prod(lengths[j] ** m / math.factorial(m) for j, m in Counter(seq).items()),
               tuple(pieces[j] for j in seq))


def simplex_volume(t0: float, t: float, k: int) -> float:
    """Signed volume (t - t0)^k / k! of the order-k simplex."""
    k = as_int(k, "simplex order k")
    if k < 0:
        raise ValueError(f"simplex order k must be >= 0, got {k}")
    if not (math.isfinite(t0) and math.isfinite(t)):
        raise ValueError(f"flow times must be finite, got [{t0}, {t}]")
    return (t - t0) ** k / math.factorial(k)


def _series_terms(field: VectorField, obs: Observable, point: np.ndarray,
                  t0: float, t: float, k: int) -> list[np.ndarray]:
    """Volterra terms of orders 0..k at ``point``: over the piece sequences of the
    times, listed from the t end, each region's volume times the lift by its maps."""
    lifts = LiftTable(obs, k)
    parts = _parts(field, t0, t)
    lengths, maps = [b - a for a, b, _ in parts], [pm for _, _, pm in parts]
    row = point.tolist()  # checked once; each lift's compiled map runs on the floats
    return [sum((volume * np.array(lifts[seq]._evaluator(row))
                 for volume, seq in _regions(lengths, maps, i)), np.zeros(obs.dim_out))
            for i in range(k + 1)]


def simplex_integral_term(field: VectorField, obs: Observable, q, t0: float,
                          t: float, k: int) -> np.ndarray:
    """Iterated integral of the k-fold lift composition over the order-k simplex."""
    k = as_int(k, "simplex order k")
    if k < 0:
        raise ValueError(f"simplex order k must be >= 0, got {k}")
    return _series_terms(field, obs, as_point(q, field.dim), t0, t, k)[k]


def volterra_truncate(field: VectorField, obs: Observable, q, t0: float, t: float,
                      k: int) -> np.ndarray:
    """Order-k truncation: phi(q) plus the simplex terms of orders 1..k-1."""
    k = as_int(k, "truncation order k")
    if k < 1:
        raise ValueError("truncation order k must be >= 1")
    terms = _series_terms(field, obs, as_point(q, field.dim), t0, t, k - 1)
    return sum(terms[1:], terms[0])


def remainder_eval(field: VectorField, obs: Observable, q, t0: float, t: float,
                   k: int, solver: FlowSolver, nodes: int | None = None,
                   witness: LocallyBoundedWitness | None = None,
                   method: str = "difference") -> RemainderReport:
    """Remainder of the order-k truncation against the true flow.

    ``method="difference"`` (default) computes flow value minus truncation
    and takes no ``nodes``; ``method="direct"`` evaluates the nested
    remainder integral whose integrand composes the flow operator with the
    k lifts, on one chained trajectory through the innermost quadrature
    times (``nodes`` per piece met, ``DEFAULT_NODES`` unless given).
    """
    k = as_int(k, "truncation order k")
    if k < 1:
        raise ValueError("truncation order k must be >= 1")
    point = as_point(q, field.dim)
    if method == "difference":
        if nodes is not None:
            raise ValueError("the difference remainder takes no quadrature nodes")
        true_value = flow_operator_apply(FlowMap(field, t0, t, solver), obs, point)
        truncated = volterra_truncate(field, obs, point, t0, t, k)
        remainder = float(np.linalg.norm(true_value - truncated))
    elif method == "direct":
        integral, _ = _direct_remainder(field, obs, point, t0, t, k, solver,
                                        DEFAULT_NODES if nodes is None else nodes)
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

    Given the innermost time x in part j, the outer k - 1 integrals of a piece
    sequence are its region volume with part j cut down to [x, b] (Cauchy's
    repeated integration), so one Gauss-Legendre rule per part integrates x.
    Returns the integral and the last state of its chained trajectory, which
    with ``to_end`` walks on past the innermost times to the flowed point at t.
    """
    lifts = LiftTable(obs, k)
    parts = _parts(field, t0, t)
    lengths, maps = [b - a for a, b, _ in parts], [pm for _, _, pm in parts]
    leaves = []  # (x, weight, lift): one evaluation each
    for j in reversed(range(len(parts))):  # from the t0 end, as the trajectory runs
        a, b, pm = parts[j]
        xs, ws = gauss_legendre(a, b, nodes)
        # volumes with part j of length 1: cut down to [x, b], it scales them by (b - x)^c,
        # with c counted by index, since other parts may share its map
        outers = [(volume, lifts[tuple(maps[i] for i in outer) + (pm,)], outer.count(j))
                  for volume, outer in _regions(lengths[:j] + [1.0], range(j + 1), k - 1)]
        for x, w in zip(xs, ws):
            leaves.extend((x, float(w * volume * (b - x) ** c), lift)
                          for volume, lift, c in outers)
    times = sorted({x for x, _, _ in leaves}, reverse=t < t0)
    states, _ = chained_trajectory(field, t0, times + [t] if to_end else times,
                                   point, solver)
    moved = dict(zip(times, (state.tolist() for state in states)))
    # per component, in leaf order from 0.0: the float operations of a numpy sum
    integral = [0.0] * obs.dim_out
    for x, w, lift in leaves:
        integral = [s + w * v for s, v in zip(integral, lift._evaluator(moved[x]))]
    return np.array(integral), states[-1] if states else point


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
    levels = as_int(levels, "levels")  # 4.5 would run 5 levels
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
                    witness: LocallyBoundedWitness | None = None) -> list[RemainderReport]:
    """Remainder reports over a grid of end times."""
    return [remainder_eval(field, obs, q, t0, tv, k, solver, witness=witness)
            for tv in t_values]
