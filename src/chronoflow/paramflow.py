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

import numpy as np

from .errors import DimensionError
from .fields import (VectorField, _exact, _finite_times, _joint_parts, _positive, add_fields,
                     as_point)
from .flow import (
    FlowMap,
    FlowSolver,
    _flow_core,
    _pull_back,
    _transport,
    flow_map,
    flow_time_dependent,
)
from .quadrature import _node_count, gauss_legendre

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
        _exact("perturbed systems require", self.base_field, self.perturbation_field)
        _finite_times(self.t0, self.t1)
        if self.base_field.dim != self.perturbation_field.dim:
            raise DimensionError("base and perturbation fields have different dims")
        self.base_field.check_window(self.t0, self.t1)
        self.perturbation_field.check_window(self.t0, self.t1)


def _quad_nodes(sys: PerturbedSystem, nodes: int):
    """Gauss-Legendre nodes and weights over [t0, t1] as Python floats, one rule per part
    of V and W alike, and W's map at each node: the map of the part that yields the node."""
    xs, ws, maps = [], [], []
    for s, e, _, pw in _joint_parts(sys.base_field, sys.perturbation_field, sys.t0, sys.t1):
        x, w = gauss_legendre(s, e, nodes)
        xs.extend(x.tolist())
        ws.extend(w.tolist())
        maps.extend([pw] * len(x))
    return xs, ws, maps


def param_derivative(sys: PerturbedSystem, q, mode: str, solver: FlowSolver,
                     nodes: int = DEFAULT_NODES) -> np.ndarray:
    """Derivative of the perturbed flow at alpha = 0, by quadrature in tau.

    Both modes make one pass t0 -> tau_1 -> ... -> tau_n -> t1 along the unperturbed
    trajectory.  ``mode="in"`` integrates pushforward(tau_i -> t1) applied to W as one
    tangent pass, forward-mode differentiation of the flow: a vector beside the state
    gains w_i W(x(tau_i)) at node i and the tangent equation carries it to t1, with no
    matrix.  ``mode="out"`` is the matrix route, ``flow._pull_back``: the pass gives
    the segment pushforwards S_1, ..., S_{n+1}, one stacked linear solve pulls each
    contribution back through pushforward(t0 -> tau_i) = S_i ... S_1, and the full
    product applies once outside the integral.  W's map at each node is the map of the
    part that yields it, with no lookup, and its compiled evaluator runs on the pass's
    float states.  The modes share only the trajectory, so they agree to rounding by two
    routes; ``fd_param_derivative`` is the independent oracle.
    """
    if mode not in (IN_FORMULA, OUT_FORMULA):
        raise ValueError(f"mode must be '{IN_FORMULA}' or '{OUT_FORMULA}'")
    point = as_point(q, sys.base_field.dim)
    xs, ws, maps = _quad_nodes(sys, _node_count(nodes))  # checked even with no part
    if not xs:  # no part of [t0, t1] is longer than parts' cutoff, t1 == t0 included
        return np.zeros(sys.base_field.dim)
    if mode == IN_FORMULA:
        gains = [(w, pm._evaluator) for w, pm in zip(ws, maps)]
        return _flow_core(sys.base_field, sys.t0, xs + [sys.t1], point, solver, False, gains)[1]
    pulled, full = _pull_back(sys.base_field, sys.t0, xs + [sys.t1], point, solver,
                              lambda rows: np.array(ws)[:, None] * np.array(
                                  [pm._evaluator(p) for pm, p in zip(maps, rows)]))
    total = np.zeros(sys.base_field.dim)
    for value in pulled:
        total += value
    return full @ total


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
    _exact("the variation-of-parameters check requires", v, w)
    point = as_point(q, v.dim)
    direct = flow_map(FlowMap(add_fields(v, w), 0.0, t, solver), point)
    corrected = point
    for s, e, _, pm in _joint_parts(v, w, 0.0, t):
        pieces = [pm]
        corrected = flow_time_dependent(
            lambda tau, z: _transport(FlowMap(v, tau, 0.0, solver), pieces, z)[0],
            s, e, corrected, solver)
    factored = flow_map(FlowMap(v, 0.0, t, solver), corrected)
    return float(np.linalg.norm(direct - factored))
