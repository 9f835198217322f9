"""Print one SHA-256 per section of chronoflow's numerical results.

Each section hashes the exact bits of a fixed set of results: flows,
Volterra series and remainders, witnesses, parameter derivatives, identity
residuals, plans and bracket ranks, on catalog fields, random autonomous
fields and piecewise fields (pieces of distinct tables, and pieces that
repeat two tables, shared or built apart), in both time directions.  Two
source trees that print the same digests give the same bits on all of
them.  Only the public API is used, so the script runs against any
checkout:

    PYTHONPATH=src python tools/bitcheck.py
    PYTHONPATH=/path/to/other/checkout/src python tools/bitcheck.py

It takes a few seconds and compares nothing itself.
"""
from __future__ import annotations

import hashlib

import numpy as np

import chronoflow as cf

SOLVER = cf.FlowSolver(200)
DIRECTIONS = ((0.1, 0.9), (0.9, 0.1))


def _random_map(rng, dim: int, terms: int = 4) -> cf.PolynomialMap:
    """A map of ``terms`` random terms of degree at most 2 per component."""
    comps = []
    for _ in range(dim):
        exps = [tuple(int(e) for e in rng.multinomial(int(rng.integers(0, 3)), [1 / dim] * dim))
                for _ in range(terms)]
        comps.append([(float(c), e) for c, e in zip(rng.uniform(-0.4, 0.4, terms), exps)])
    return cf.PolynomialMap(dim, dim, comps)


def _rotation(s: float) -> cf.PolynomialMap:
    return cf.PolynomialMap(3, 3, [[(-s, (0, 1, 0))], [(s, (1, 0, 0))],
                                   [(0.3, (0, 0, 0)), (0.5 * s, (1, 1, 0))]])


def _piecewise_fields() -> dict[str, cf.VectorField]:
    """Piecewise fields on [0, 1]: distinct tables, and two tables repeated over six
    pieces, once as shared map objects and once as equal maps built apart."""
    rng = np.random.default_rng(7)
    edges = [0.0, 0.3, 0.65, 1.0]
    distinct = cf.VectorField.piecewise(
        [(a, b, _random_map(rng, 3)) for a, b in zip(edges, edges[1:])])
    signs = [1.0, -1.0, -1.0, 1.0, -1.0, 1.0]
    edges = np.linspace(0.0, 1.0, len(signs) + 1).tolist()
    shared = {s: _rotation(s) for s in (-1.0, 1.0)}
    return {
        "distinct": distinct,
        "repeated_shared": cf.VectorField.piecewise(
            [(a, b, shared[s]) for a, b, s in zip(edges, edges[1:], signs)]),
        "repeated_apart": cf.VectorField.piecewise(
            [(a, b, _rotation(s)) for a, b, s in zip(edges, edges[1:], signs)]),
    }


def _autonomous_fields() -> dict[str, cf.VectorField]:
    rng = np.random.default_rng(11)
    v1, v2 = cf.heisenberg_fields()
    return {"heisenberg_v1": v1, "heisenberg_v2": v2,
            "brockett_v1": cf.brockett_fields()[0],
            "random": cf.VectorField.autonomous(_random_map(rng, 3))}


def _observables() -> list[cf.Observable]:
    quadratic = cf.PolynomialMap(3, 2, [[(1.0, (2, 0, 0)), (-0.5, (0, 1, 1))],
                                        [(0.7, (0, 0, 1)), (0.2, (1, 1, 0))]])
    return [cf.Observable.identity(3), cf.Observable.coordinate(3, 2),
            cf.Observable(quadratic)]


def _windowed(field: cf.VectorField) -> cf.VectorField:
    """An autonomous field restricted to [0, 1], so every field shares one window."""
    return cf.VectorField.piecewise([(0.0, 1.0, field.piece_at(0.0))])


def _bits(value) -> bytes:
    """The exact bits of a result, recursing into sequences and report objects."""
    if isinstance(value, (list, tuple)):
        return b"[" + b",".join(_bits(v) for v in value) + b"]"
    if isinstance(value, cf.RemainderReport):
        return _bits([value.k, value.t, value.remainder_norm,
                      -1.0 if value.bound is None else value.bound])
    if isinstance(value, cf.LocallyBoundedWitness):
        return _bits([value.center, value.radius, value.bound_C, value.order])
    if isinstance(value, cf.PlanResult):
        return _bits([value.endpoint, value.residual, value.iterations,
                      [[s.field_index, s.sign, s.duration] for s in value.schedule.segments]])
    if isinstance(value, cf.RankReport):
        return _bits([value.numerical_rank, value.singular_values])
    return np.asarray(value, dtype=float).tobytes()


def _flows(fields, points):
    for field in fields.values():
        for t0, t in DIRECTIONS:
            fm = cf.FlowMap(field, t0, t, SOLVER)
            for q in points:
                yield cf.flow_map(fm, q)
                yield cf.flow_with_pushforward(fm, q)
                yield cf.flow_pushforward(fm, q)
                yield cf.inverse_flow(fm, q)


def _series(fields, points):
    for field in fields.values():
        for obs in _observables():
            for t0, t in DIRECTIONS:
                q = points[0]
                yield [cf.simplex_integral_term(field, obs, q, t0, t, k) for k in range(4)]
                for k in (1, 2, 3):
                    yield cf.volterra_truncate(field, obs, q, t0, t, k)
                    yield cf.remainder_eval(field, obs, q, t0, t, k, SOLVER)
                    yield cf.remainder_eval(field, obs, q, t0, t, k, SOLVER, method="direct")
                yield cf.integral_equation_residual(field, obs, q, t0, t, SOLVER)


def _witnesses(fields, points):
    for field in fields.values():
        for obs in _observables():
            for order in (1, 2, 3):
                yield cf.sample_lift_bound(field, obs, order, points[1], 0.5, num_points=16)


def _param_derivatives(fields, points):
    names = list(fields)
    for base, perturbation in zip(names, names[1:] + names[:1]):
        for t0, t in DIRECTIONS:
            system = cf.PerturbedSystem(fields[base], fields[perturbation], t0, t)
            for mode in (cf.IN_FORMULA, cf.OUT_FORMULA):
                yield cf.param_derivative(system, points[2], mode, SOLVER, nodes=8)


def _residuals(autonomous, piecewise, points):
    names = list(autonomous)
    for v, w in zip(names, names[1:]):
        for t in (0.5, -0.5):
            yield cf.adjoint_check(autonomous[v], autonomous[w], points[0], t, SOLVER, nodes=8)
            yield cf.variation_of_parameters_check(autonomous[v], autonomous[w], points[0],
                                                   0.3 * t, cf.FlowSolver(40))
    for v, w in zip(piecewise, list(piecewise)[1:]):
        yield cf.variation_of_parameters_check(piecewise[v], piecewise[w], points[0], 0.3,
                                               cf.FlowSolver(40))
        for t0, t in DIRECTIONS:
            fm = cf.FlowMap(piecewise[v], t0, t, SOLVER)
            yield cf.pushforward_invariance_check(fm, piecewise[v], piecewise[w], points[1], 0.5)


def _plans(points):
    for fields in (cf.heisenberg_fields(), cf.brockett_fields(), cf.unicycle_fields()):
        system = cf.AffineControlSystem.of(fields)
        for q in points:
            yield cf.bracket_rank(system, q, max_degree=2)
            yield cf.bracket_rank(system, q, max_degree=3)
        try:
            yield cf.plan_reach(system, points[0], points[0] + [0.05, -0.02, 0.04], 1e-3, 2,
                                60, SOLVER)
        except cf.StalledError as stalled:  # its best schedule is a result too
            yield stalled.best


def sections() -> dict[str, object]:
    """Section name -> generator of its results, in a fixed order."""
    autonomous = _autonomous_fields()
    piecewise = _piecewise_fields()
    every = {**piecewise, **{name: _windowed(f) for name, f in autonomous.items()}}
    points = [np.array([0.6, -0.8, 0.3]), np.array([0.1, 0.2, -0.4]),
              np.array([-0.5, 0.25, 0.75])]
    return {
        "flows": _flows(every, points),
        "series": _series(every, points),
        "witnesses": _witnesses(every, points),
        "param_deriv": _param_derivatives(every, points),
        "residuals": _residuals(autonomous, piecewise, points),
        "plans": _plans(points),
    }


def main() -> None:
    for name, results in sections().items():
        digest = hashlib.sha256()
        for value in results:
            digest.update(_bits(value))
        print(f"{name:<12} {digest.hexdigest()}")


if __name__ == "__main__":
    main()
