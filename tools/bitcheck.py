"""Print one SHA-256 per section of chronoflow's numerical results.

Each section hashes the exact bits of a fixed set of results: flows,
Volterra series and remainders, witnesses, parameter derivatives, identity
residuals, plans and bracket ranks, and control schedules (commutators of
flows and schedule replays), on catalog fields, random autonomous
fields and piecewise fields (pieces of distinct tables, and pieces that
repeat two tables, shared or built apart), in both time directions; and
pushforwards and parameter derivatives on fields with an identically zero
component, a constant one and one longer than the generated code's sum
chunk, which the variational loop inlines in every shape it has, and on
the catalog fields and the chained form, whose constant slopes and
Jacobian entries the loop computes once, before its steps.  The
series and witnesses have one section per kind of field (autonomous,
distinct pieces, repeated tables), since a change to how a series sums
over pieces can keep the bits of one kind and move another's.  Two source
trees that print the same digests give the same bits on all of them.
The ``kernels`` section hashes pushforwards and blow-ups only, and
``param_deriv`` every parameter derivative, so a change to
``param_derivative`` alone moves ``param_deriv`` and nothing else.  The
``estimates`` section hashes the fitted slope, R^2 and excluded count of
order probes, and ``dims`` plain and inverse flows in dimensions 1, 5 and
8 and the step and time of two blow-ups.
The last section, ``errors``, is no number: it hashes the exception type
and message (or that the call returned) of a fixed list of invalid inputs,
the CLI's among them with their exit code and stderr, so it moves with any
message.  Only the public API is used, and the executor behind every solve,
``flow._flow_core``, called with each of its positional arguments, so the
script runs against any checkout that has it:

    PYTHONPATH=src python tools/bitcheck.py
    PYTHONPATH=/path/to/other/checkout/src python tools/bitcheck.py

It takes a few seconds and compares nothing itself.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import math

import numpy as np

import chronoflow as cf
from chronoflow import cli

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


def _kernel_fields() -> dict[str, cf.VectorField]:
    """Autonomous fields on R^3, each with a component of 300 random terms of degree at
    most 11 (past ``fields.SUM_CHUNK``), beside a zero and a constant component, or
    beside a random component and a zero one."""
    rng = np.random.default_rng(13)
    monomials = [e for e in itertools.product(range(12), repeat=3) if sum(e) <= 11]

    def chunked() -> list:
        picks = rng.choice(len(monomials), size=300, replace=False)
        return [(float(c), monomials[i]) for c, i in zip(rng.uniform(-0.02, 0.02, 300), picks)]

    random_comp = _random_map(rng, 3).components[0]
    return {name: cf.VectorField.autonomous(cf.PolynomialMap(3, 3, comps)) for name, comps in (
        ("zero_constant_chunked", [[], [(0.7, (0, 0, 0))], chunked()]),
        ("chunked_random_zero", [chunked(), random_comp, []]))}


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
    if isinstance(value, str):
        return value.encode()
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


def _schedules(points):
    """Commutators of flows at t > 0, t < 0 and t = 0 for degrees 1 to 3, and replays
    of fixed schedules, one with segments near and far below the clock's ulp."""
    for fields in (cf.heisenberg_fields(), cf.brockett_fields()):
        for text in ("V1", "[V1,V2]", "[[V1,V2],V1]"):
            expr = cf.BracketExpression.parse(text)
            for t in (0.3, -0.3, 0.0):
                for q in points:
                    yield cf.flow_bracket(expr, fields, t, q, SOLVER)
    # at a clock of 1.25, 1e-20 is no piece and 1e-15 a piece of 1.11e-15, one step
    schedules = [((1, 1, 0.3), (2, -1, 0.45), (1, -1, 0.1), (2, 1, 0.7), (1, 1, 0.05)),
                 ((1, 1, 1.25), (2, 1, 1e-20), (2, -1, 1e-15), (1, -1, 0.2))]
    for fields in (cf.heisenberg_fields(), cf.brockett_fields(), cf.unicycle_fields()):
        system = cf.AffineControlSystem.of(fields)
        for rows in schedules:
            sched = cf.ControlSchedule(tuple(cf.Segment(*row) for row in rows))
            for q in points:
                yield cf.simulate_schedule(system, q, sched, SOLVER)


def _kernels(fields, points):
    for field in fields.values():
        for t0, t in DIRECTIONS:
            fm = cf.FlowMap(field, t0, t, SOLVER)
            for q in points:
                yield cf.flow_with_pushforward(fm, q)


def _chained_form(n: int) -> tuple[cf.VectorField, cf.VectorField]:
    """x_1' = u_1, x_2' = u_2, x_{k+1}' = x_k u_1 for k = 2..n-1, as its two fields."""
    def unit(var):
        return tuple(int(v == var) for v in range(n))

    first = [[(1.0, unit(None))], []] + [[(1.0, unit(k - 1))] for k in range(2, n)]
    second = [[], [(1.0, unit(None))]] + [[] for _ in range(2, n)]
    return tuple(cf.VectorField.autonomous(cf.PolynomialMap(n, n, comps))
                 for comps in (first, second))


def _invariant_kernels():
    """Pushforwards on every field of the four catalog systems and of the chained form
    for n = 4 to 6, whose constant slopes and Jacobian entries the variational loop
    computes once before its steps, in both time directions; and the step and time of
    a blow-up where such a matrix increment, x_1' = c x_0 at x_0 = 0, overflows."""
    rng = np.random.default_rng(19)
    catalog = [field for name in ("rotation2d", "heisenberg", "unicycle", "brockett")
               for field in cf.builtin_system(name)]
    for field in catalog + [f for n in (4, 5, 6) for f in _chained_form(n)]:
        q = rng.uniform(-0.5, 0.5, field.dim)
        for t0, t in DIRECTIONS:
            yield cf.flow_with_pushforward(cf.FlowMap(field, t0, t, SOLVER), q)
    overflow = cf.VectorField.autonomous(
        cf.PolynomialMap(3, 3, [[], [(2e307, (1, 0, 0))], [(0.5, (0, 0, 0))]]))
    for t in (20.0, -20.0):
        try:
            cf.flow_with_pushforward(cf.FlowMap(overflow, 0.0, t, cf.FlowSolver(4)),
                                     [0.0, 0.3, -0.2])
        except cf.BlowUpError as err:
            yield [err.step, err.t]
        else:
            yield "returned"


def _estimates(points):
    """The fitted slope, R^2 and excluded count of fixed order probes: remainders,
    a sample with samples below the zero cutoff, flow brackets and inverse expansions,
    so that a change to the fit moves this section."""
    rot, phi = cf.rotation2d(), cf.Observable.coordinate(2, 0)
    estimates = [cf.order_probe(lambda t, k=k: cf.remainder_eval(
        rot, phi, [0.6, -0.8], 0.0, t, k, SOLVER).remainder_norm, 0.4, 6) for k in (1, 2)]
    estimates.append(cf.order_probe(lambda t: t ** 3 if t > 0.02 else 0.0, 0.5, 8))
    shear = [cf.constant_field([1.0, 0.0, 0.0]), cf.VectorField.autonomous(
        cf.PolynomialMap(3, 3, [[], [(1.0, (2, 0, 0))], [(0.5, (0, 1, 1))]]))]
    for fields in (shear, cf.brockett_fields()):
        for text in ("[V1,V2]", "[[V1,V2],V1]"):
            expr = cf.BracketExpression.parse(text)
            estimates += [cf.bracket_asymptotics_check(expr, fields, q, 0.2, 5, SOLVER)
                          for q in points[:2]]
        estimates += [cf.inverse_expansion_check(fields[1], q, 0.2, 5, SOLVER)
                      for q in points[:2]]
    for estimate in estimates:
        yield [estimate.fitted_slope, estimate.r_squared, estimate.excluded]


def _dims():
    """Plain and inverse flows of random maps in dimensions 1, 5 and 8, in both time
    directions, and the (step, time) of a blow-up forward and one backward."""
    rng = np.random.default_rng(17)
    for dim in (1, 5, 8):
        field = cf.VectorField.autonomous(_random_map(rng, dim))
        q = rng.uniform(-0.5, 0.5, dim)
        for t0, t in DIRECTIONS:
            fm = cf.FlowMap(field, t0, t, SOLVER)
            yield cf.flow_map(fm, q)
            yield cf.inverse_flow(fm, q)
    for sign in (1.0, -1.0):  # x' = sign x^2 from 1 leaves every bound at t = sign
        square = cf.VectorField.autonomous(cf.PolynomialMap(1, 1, [[(sign, (2,))]]))
        try:
            cf.flow_map(cf.FlowMap(square, 0.0, 3.0 * sign, SOLVER), [1.0])
        except cf.BlowUpError as err:
            yield [err.step, err.t]
        else:
            yield "returned"


def _invalid_calls() -> list:
    """One call per invalid input: each count below its least value, a string schedule
    duration, a float segment index and bool signs, a transported field at the exact
    entry points and in a flow map, a map called at a point of the wrong length, each
    positive real at NaN, 0, a string, bytes and a numpy bool, each flow time at NaN and
    inf, and CLI flags out of range."""
    v1, v2 = cf.heisenberg_fields()
    system = cf.AffineControlSystem.of((v1, v2))
    expr = cf.BracketExpression.parse("[V1,V2]")
    rot, phi, q, zero = cf.rotation2d(), cf.Observable.identity(2), [1.0, 0.0], [0.0] * 3
    pm, solver = rot.pieces[0][2], cf.FlowSolver(100)
    perturbed = cf.PerturbedSystem(v1, v2, 0.0, 0.5)
    calls = [
        lambda: cf.VectorField.autonomous(pm, 0),
        lambda: cf.Observable(pm, -1),
        lambda: cf.sample_lift_bound(rot, phi, 0, q, 0.5),
        lambda: cf.sample_lift_bound(rot, phi, 1, q, 0.5, num_points=0),
        lambda: cf.simplex_volume(0.0, 0.5, -1),
        lambda: cf.simplex_integral_term(rot, phi, q, 0.0, 0.5, -1),
        lambda: cf.volterra_truncate(rot, phi, q, 0.0, 0.5, 0),
        lambda: cf.remainder_eval(rot, phi, q, 0.0, 0.5, 0, solver),
        lambda: cf.order_probe(lambda t: t, 0.4, 3),
        lambda: cf.canonical_bracket_basis(2, 0),
        lambda: cf.plan_reach(system, zero, [0.0, 0.0, 0.1], 1e-3, 2, -1, solver),
        lambda: cf.BracketExpression.leaf(0),
    ]
    for seg in (cf.Segment(1, 1, "1"), cf.Segment(1.5, 1, 0.1), cf.Segment(True, True, 0.1),
                cf.Segment(1, True, 0.1)):
        calls.append(lambda seg=seg: cf.simulate_schedule(
            system, zero, cf.ControlSchedule((seg,)), solver))
    transported = cf.pushforward_field(cf.FlowMap(rot, 0.0, 0.5, solver), rot, 0.0)
    calls += [
        lambda: cf.bracket_motion(system, expr, 0.01, sign=True),
        lambda: cf.apply_lift(transported, 0.0, phi),
        lambda: cf.lie_bracket_field(rot, transported),
        lambda: cf.AffineControlSystem.of((rot, transported)),
        lambda: cf.FlowMap(transported, 0.0, 0.5, solver),
        lambda: pm([1.0, 0.0, 0.0]),
    ]
    for bad in (math.nan, 0.0, "1", b"1", np.True_):
        calls += [
            lambda bad=bad: cf.sample_lift_bound(rot, phi, 1, q, bad),
            lambda bad=bad: cf.order_probe(lambda t: t, bad),
            lambda bad=bad: cf.fd_param_derivative(perturbed, zero, bad, solver),
            lambda bad=bad: cf.plan_reach(system, zero, [0.0, 0.0, 0.1], bad, 2, 10, solver),
            lambda bad=bad: cf.plan_reach(system, zero, [0.0, 0.0, 0.1], 1e-3, 2, 10, solver,
                                          step_fraction=bad),
            lambda bad=bad: cf.FlowSolver(100, blowup_threshold=bad),
            lambda bad=bad: cf.bracket_motion(system, expr, bad),
        ]
    for t in (math.nan, math.inf):
        calls += [
            lambda t=t: cf.FlowMap(rot, 0.0, t, solver),
            lambda t=t: cf.flow._flow_core(rot, 0.0, [0.5, t], q, solver, False),
            lambda t=t: cf.flow_time_dependent(lambda _t, x: -x, 0.0, t, q, solver),
            lambda t=t: cf.simplex_volume(0.0, t, 2),
            lambda t=t: cf.simplex_integral_term(rot, phi, q, 0.0, t, 1),
            lambda t=t: cf.PerturbedSystem(v1, v2, 0.0, t),
        ]
    volterra = ("volterra", "--system", "rotation2d", "--q", "1,0", "--t-max", "0.1")
    for argv in [volterra + ("--k", "5"), volterra + ("--k", "1", "--grid", "0"),
                 ("order-probe", "--system", "rotation2d", "--residual", "remainder",
                  "--q", "1,0", "--t-max", "0.1", "--k", "0"),
                 ("order-probe", "--system", "rotation2d", "--residual", "inverse-expansion",
                  "--q", "1,0", "--t-max", "0.1", "--levels", "3"),
                 ("rank", "--system", "heisenberg", "--q", "0,0,0", "--max-degree", "5"),
                 ("plan", "--system", "heisenberg", "--q0", "0,0,0", "--target", "0,0,0.1",
                  "--epsilon", "1e-3", "--max-degree", "0")]:
        calls.append(lambda argv=argv: _cli(argv))
    return calls


def _cli(argv) -> str:
    """The exit code and stderr of one CLI run, which writes nothing to stdout here."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return f"exit {code}: {err.getvalue()}"


def _errors():
    """Each invalid call's exception type and message, or what it returned."""
    for call in _invalid_calls():
        try:
            result = call()
        except Exception as exc:
            yield f"{type(exc).__name__}: {exc}"
        else:
            yield result if isinstance(result, str) else "returned"


def sections() -> dict[str, object]:
    """Section name -> generator of its results, in a fixed order."""
    autonomous = _autonomous_fields()
    piecewise = _piecewise_fields()
    every = {**piecewise, **{name: _windowed(f) for name, f in autonomous.items()}}
    # series and witnesses by kind of time structure: one part, pieces of distinct
    # tables, and pieces that repeat two tables (shared or built apart)
    kinds = {"autonomous": {name: every[name] for name in autonomous},
             "distinct": {"distinct": piecewise["distinct"]},
             "repeated": {name: piecewise[name] for name in ("repeated_shared",
                                                             "repeated_apart")}}
    points = [np.array([0.6, -0.8, 0.3]), np.array([0.1, 0.2, -0.4]),
              np.array([-0.5, 0.25, 0.75])]
    return {
        "flows": _flows(every, points),
        **{f"series_{kind}": _series(fields, points) for kind, fields in kinds.items()},
        **{f"witnesses_{kind}": _witnesses(fields, points) for kind, fields in kinds.items()},
        "param_deriv": itertools.chain(_param_derivatives(every, points),
                                       _param_derivatives(_kernel_fields(), points)),
        "residuals": _residuals(autonomous, piecewise, points),
        "plans": _plans(points),
        "schedules": _schedules(points),
        "kernels": itertools.chain(_kernels(_kernel_fields(), points), _invariant_kernels()),
        "estimates": _estimates(points),
        "dims": _dims(),
        "errors": _errors(),
    }


def main() -> None:
    for name, results in sections().items():
        digest = hashlib.sha256()
        for value in results:
            digest.update(_bits(value))
        print(f"{name:<21} {digest.hexdigest()}")


if __name__ == "__main__":
    main()
