"""Truncated Volterra series of flow operators and decay-order probes.

The flow operator expands into iterated integrals of lift compositions
over simplices t0 <= tau_k <= ... <= tau_1 <= t.  Pieces are autonomous, so
the order-i term is the Chen-Fliess sum, over words w of i maps, of the
coefficient S_w times the lift by w; Chen's identity builds every S_w in one
walk over the parts (``fields.chen_walk``), so a term costs distinct maps,
not piece sequences.  The direct remainder integrates only its innermost
time, by Gauss-Legendre per part, with its outer integrals in closed form.

Decay orders are measured on dyadic grids t_j = t_max * 2^-j by a
least-squares fit of log(norm) against log(t); samples at numerical zero
(below 1e-14) are excluded as exact cancellation.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .fields import (
    LiftTable,
    LocallyBoundedWitness,
    Observable,
    PolynomialMap,
    VectorField,
    _finite_times,
    _positive,
    as_int,
    as_point,
    chen_walk,
    simplex_factor,
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
    _finite_times(t0, t)
    return field.parts(t0, t)[::-1]


def simplex_volume(t0: float, t: float, k: int) -> float:
    """Signed volume (t - t0)^k / k! of the order-k simplex; FloatingPointError where
    it is not finite."""
    k = as_int(k, "simplex order k", 0)
    _finite_times(t0, t)
    volume = simplex_factor(t - t0, k)
    if not math.isfinite(volume):
        raise FloatingPointError(f"the order-{k} simplex volume on [{t0}, {t}] is not finite")
    return volume


def _series_terms(field: VectorField, obs: Observable, point: np.ndarray,
                  t0: float, t: float, k: int) -> list[np.ndarray]:
    """Volterra terms of orders 0..k at ``point``: the order-i term sums, over the
    words of i maps in the walk's order, the word's Chen coefficient times its lift.
    A term that is not finite is a FloatingPointError."""
    lifts = LiftTable(obs, k)
    row = point.tolist()  # checked once; each lift's compiled map runs on the floats
    # per component from 0.0, in word order: the float operations of a numpy sum
    terms = [[0.0] * obs.dim_out for _ in range(k + 1)]
    for word, c in deque(chen_walk(_parts(field, t0, t), k), maxlen=1).pop().items():
        values = lifts[word]._evaluator(row)
        terms[len(word)] = [s + c * v for s, v in zip(terms[len(word)], values)]
    for i, term in enumerate(terms):
        if not all(map(math.isfinite, term)):  # an overflowing coefficient makes it NaN
            raise FloatingPointError(f"the order-{i} Volterra term on [{t0}, {t}] is not finite")
    return [np.array(term) for term in terms]


def simplex_integral_term(field: VectorField, obs: Observable, q, t0: float,
                          t: float, k: int) -> np.ndarray:
    """Iterated integral of the k-fold lift composition over the order-k simplex."""
    k = as_int(k, "simplex order k", 0)
    return _series_terms(field, obs, as_point(q, field.dim), t0, t, k)[k]


def volterra_truncate(field: VectorField, obs: Observable, q, t0: float, t: float,
                      k: int) -> np.ndarray:
    """Order-k truncation: phi(q) plus the simplex terms of orders 1..k-1."""
    k = as_int(k, "truncation order k", 1)
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
    k = as_int(k, "truncation order k", 1)
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
        bound = witness.bound_C * abs(simplex_volume(t0, t, k))
    return RemainderReport(k=k, t=t, remainder_norm=remainder, bound=bound)


def _direct_remainder(field: VectorField, obs: Observable, point: np.ndarray,
                      t0: float, t: float, k: int, solver: FlowSolver,
                      nodes: int, to_end: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Nested integral of the remainder with the flow inside the integrand.

    Given the innermost time x in part j on map a, the outer k - 1 integrals are in
    closed form: over the words w of the walk on the parts on the t side of j, the
    coefficient of w times (b - x)^m / m! for the m = k - 1 - |w| times left in
    [x, b] (Cauchy's repeated integration), on the lift by w + (a,) * (m + 1).  So
    one Gauss-Legendre rule per part integrates x.  Returns the integral and the last
    state of its chained trajectory, which with ``to_end`` walks on past the innermost
    times to the flowed point at t.  An integral that is not finite (a lift that
    overflows at a state the solver accepts) is a FloatingPointError.
    """
    lifts = LiftTable(obs, k)
    parts = _parts(field, t0, t)
    blocks = []  # per part from the t end, (x, weight, lift) leaves: one evaluation each
    for (a, b, pm), prefix in zip(parts, chen_walk(parts, k - 1)):
        outers = [(c, m, lifts[word + (pm,) * (m + 1)])
                  for word, c in prefix.items() for m in [k - 1 - len(word)]]
        xs, ws = gauss_legendre(a, b, nodes)
        blocks.append([(x, w * c * simplex_factor(b - x, m), lift)
                       for x, w in zip(xs.tolist(), ws.tolist()) for c, m, lift in outers])
    leaves = [leaf for block in reversed(blocks) for leaf in block]  # as the trajectory runs
    times = sorted({x for x, _, _ in leaves}, reverse=t < t0)
    states, _ = chained_trajectory(field, t0, times + [t] if to_end else times,
                                   point, solver)
    moved = dict(zip(times, states.tolist()))
    # per component, in leaf order from 0.0: the float operations of a numpy sum
    integral = [0.0] * obs.dim_out
    for x, w, lift in leaves:
        integral = [s + w * v for s, v in zip(integral, lift._evaluator(moved[x]))]
    if not all(map(math.isfinite, integral)):
        raise FloatingPointError(f"the direct remainder integral on [{t0}, {t}] is not finite")
    return np.array(integral), states[-1] if len(states) else point


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
    t_max = _positive(t_max, "t_max")
    levels = as_int(levels, "levels", 4)  # 4.5 would run 5 levels
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
    ends = np.array([obs(end), obs(point)])
    if not np.isfinite(ends).all():
        raise FloatingPointError(f"the observable at an end of [{t0}, {t}] is not finite")
    return float(np.linalg.norm(ends[0] - ends[1] - integral))


def remainder_table(field: VectorField, obs: Observable, q, t0: float, k: int,
                    t_values: Sequence[float], solver: FlowSolver,
                    witness: LocallyBoundedWitness | None = None) -> list[RemainderReport]:
    """Remainder reports over a grid of end times."""
    return [remainder_eval(field, obs, q, t0, tv, k, solver, witness=witness)
            for tv in t_values]
