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

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import DimensionError
from .fields import VectorField, _finite_times, _joint_parts, _positive, add_fields, as_point
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
        _finite_times(self.t0, self.t1)
        if self.base_field.dim != self.perturbation_field.dim:
            raise DimensionError("base and perturbation fields have different dims")
        self.base_field.check_window(self.t0, self.t1)
        self.perturbation_field.check_window(self.t0, self.t1)


def _quad_nodes(sys: PerturbedSystem, nodes: int):
    """Gauss-Legendre nodes and weights over [t0, t1], one rule per part of V and W
    alike, and W's map at each node: the map of the part that yields the node."""
    xs, ws, maps = [], [], []
    for s, e, _, pw in _joint_parts(sys.base_field, sys.perturbation_field, sys.t0, sys.t1):
        x, w = gauss_legendre(s, e, nodes)
        xs.extend(x)
        ws.extend(w)
        maps.extend([pw] * len(x))
    return xs, ws, maps


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
    linear solve pulls back every contribution.  W's map at each node comes
    from the part that yields the node, with no lookup per node; its compiled
    evaluator runs on the pass's states, and the weights apply in one
    broadcast.  Because both modes share the same S_i they agree to rounding:
    they are two evaluations of one numerical route, not independent checks
    of each other.  ``fd_param_derivative`` is the independent oracle.
    """
    if mode not in (IN_FORMULA, OUT_FORMULA):
        raise ValueError(f"mode must be '{IN_FORMULA}' or '{OUT_FORMULA}'")
    point = as_point(q, sys.base_field.dim)
    xs, ws, maps = _quad_nodes(sys, nodes)
    if not xs:  # no part of [t0, t1] is longer than parts' cutoff, t1 == t0 included
        return np.zeros(sys.base_field.dim)
    states, segments = chained_trajectory(sys.base_field, sys.t0, xs + [sys.t1], point,
                                          solver, pushforward=True)
    values = [pm._evaluator(p) for pm, p in zip(maps, states.tolist())]
    contributions = np.array(ws)[:, None] * np.array(values)

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
    epsilon = _positive(epsilon, "epsilon")
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
    for s, e, _, pm in _joint_parts(v, w, 0.0, t):
        pieces = [pm]
        corrected = flow_time_dependent(
            lambda tau, z: _transport(FlowMap(v, tau, 0.0, solver), pieces, z)[0],
            s, e, corrected, solver, dim=v.dim)
    factored = flow_map(FlowMap(v, 0.0, t, solver), corrected)
    return float(np.linalg.norm(direct - factored))
