"""Derivative of a flow with respect to a perturbation of its field.

For the family V + alpha*W the derivative of the flow at alpha = 0 has two
integral representations built from pushforwards along the unperturbed
trajectory; both are implemented, together with a central finite-difference
oracle and a variation-of-parameters factorization check.  The smallness
conditions on the alpha-remainders are analysis-side assumptions for the
polynomial, locally bounded fields used here; no runtime check attempts to
verify them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import DimensionError
from .fields import VectorField, add_fields, as_point, eval_field
from .flow import (
    FlowMap,
    FlowSolver,
    _solve_columns,
    _transport,
    chained_trajectory,
    flow_map,
    flow_time_dependent,
)
from .quadrature import gauss_legendre

IN_FORMULA = "in"
OUT_FORMULA = "out"
DEFAULT_NODES = 32


@dataclass(frozen=True)
class PerturbedSystem:
    """Base field V perturbed to V + alpha*W over a time interval."""

    base_field: VectorField
    perturbation_field: VectorField
    t0: float
    t1: float

    def __post_init__(self):
        if not (math.isfinite(self.t0) and math.isfinite(self.t1)):
            raise ValueError(f"times must be finite, got [{self.t0}, {self.t1}]")
        if self.base_field.dim != self.perturbation_field.dim:
            raise DimensionError("base and perturbation fields have different dims")
        self.base_field.check_window(self.t0, self.t1)
        self.perturbation_field.check_window(self.t0, self.t1)


def _quad_nodes(sys: PerturbedSystem, nodes: int):
    """Gauss-Legendre nodes and weights over [t0, t1], per part of V and W alike."""
    xs_all: list[float] = []
    ws_all: list[float] = []
    for a, b, _ in sys.base_field.parts(sys.t0, sys.t1):
        for s, e, _ in sys.perturbation_field.parts(a, b):
            xs, ws = gauss_legendre(s, e, nodes)
            xs_all.extend(xs)
            ws_all.extend(ws)
    return xs_all, ws_all


def param_derivative(sys: PerturbedSystem, q, mode: str, solver: FlowSolver,
                     nodes: int = DEFAULT_NODES) -> np.ndarray:
    """Derivative of the perturbed flow at alpha = 0, by quadrature in tau.

    One variational pass t0 -> tau_1 -> ... -> tau_n -> t1 along the
    unperturbed trajectory gives the segment pushforwards S_1, ..., S_{n+1},
    and every pushforward below is a product of them.  ``mode="in"``
    integrates pushforward(tau_i -> t1) = S_{n+1} ... S_{i+1} applied to W
    along the trajectory; ``mode="out"`` pulls each contribution back to
    the start through the inverse of pushforward(t0 -> tau_i) = S_i ... S_1
    and applies the full product once outside the integral; one stacked
    linear solve pulls back every contribution.  Because both
    modes share the same S_i they agree to rounding: they are two
    evaluations of one numerical route, not independent checks of each
    other.  ``fd_param_derivative`` is the independent oracle.
    """
    if mode not in (IN_FORMULA, OUT_FORMULA):
        raise ValueError(f"mode must be '{IN_FORMULA}' or '{OUT_FORMULA}'")
    point = as_point(q, sys.base_field.dim)
    if sys.t1 == sys.t0:
        return np.zeros(sys.base_field.dim)
    xs, ws = _quad_nodes(sys, nodes)
    states, segments = chained_trajectory(sys.base_field, sys.t0, xs + [sys.t1], point,
                                          solver, pushforward=True)
    contributions = [w * eval_field(sys.perturbation_field, tau, p)
                     for tau, w, p in zip(xs, ws, states)]

    total = np.zeros(sys.base_field.dim)
    if mode == IN_FORMULA:
        # Horner form: after node i, total = sum over j <= i of S_i ... S_{j+1} c_j
        for mat, c in zip(segments, contributions):
            total = mat @ total + c
        return segments[-1] @ total
    forwards = list(accumulate(segments, lambda f, m: m @ f, initial=np.eye(len(total))))
    for value in _solve_columns(np.array(forwards[1:-1]), contributions):
        total += value
    return forwards[-1] @ total


def fd_param_derivative(sys: PerturbedSystem, q, epsilon: float,
                        solver: FlowSolver) -> np.ndarray:
    """Central-difference oracle: flows of V +/- epsilon*W."""
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")
    point = as_point(q, sys.base_field.dim)
    plus = add_fields(sys.base_field, sys.perturbation_field, 1.0, epsilon)
    minus = add_fields(sys.base_field, sys.perturbation_field, 1.0, -epsilon)
    end_plus = flow_map(FlowMap(plus, sys.t0, sys.t1, solver), point)
    end_minus = flow_map(FlowMap(minus, sys.t0, sys.t1, solver), point)
    return (end_plus - end_minus) / (2.0 * epsilon)


def variation_of_parameters_check(v: VectorField, w: VectorField, q, t: float,
                                  solver: FlowSolver) -> float:
    """Factorize the flow of V + W through the pulled-back perturbation.

    The correction flow C solves z' = G(tau, z) where G is W transported by
    the backward flow of V at time tau; executed as point maps, the flow of
    V + W from q equals C first, then the flow of V.  Returns the norm of
    the factorization discrepancy at q.  C is integrated interval by
    interval between the breakpoints of V and W, with W's piece for the
    interval.  Each value of G is ``_transport`` by the flow tau -> 0: one
    forward variational solve over [0, tau] from z and one linear solve.
    """
    point = as_point(q, v.dim)
    direct = flow_map(FlowMap(add_fields(v, w), 0.0, t, solver), point)
    corrected = point
    for a, b, _ in v.parts(0.0, t):
        for s, e, pm in w.parts(a, b):
            pieces = [pm]
            corrected = flow_time_dependent(
                lambda tau, z: _transport(FlowMap(v, tau, 0.0, solver), pieces, z)[0],
                s, e, corrected, solver, dim=v.dim)
    factored = flow_map(FlowMap(v, 0.0, t, solver), corrected)
    return float(np.linalg.norm(direct - factored))
