"""Property tests on random sparse polynomial fields (dimension <= 4, degree <= 3).

The exact algebra (bracket antisymmetry, the Jacobi identity, linearity of
lifts, JSON round trips) must hold for every field, not only the catalog
systems, up to float rounding in the polynomial arithmetic; the direct and
difference remainders must agree on random piecewise fields in either time
direction; the compiled evaluator must give the bits of a term-by-term
numpy evaluation (dimension <= 8, exponents <= 11, overflow included), and
the generated variational RK4 loop the plain flow's endpoint bits and a
numpy stepper's pushforward (dimension <= 8); a chained trajectory must
give the bits of one single solve per node on random piecewise fields.
Examples are derandomized so the suite is repeatable.
"""
import functools
import json
import operator

import numpy as np
from hypothesis import given, settings, strategies as st

from chronoflow import (
    BlowUpError,
    ControlSchedule,
    FlowMap,
    FlowSolver,
    Observable,
    PolynomialMap,
    Segment,
    VectorField,
    flow_map,
    flow_with_pushforward,
    remainder_eval,
    vector_field_from_json,
)
from chronoflow.fields import _add_terms, _diff_terms, _mul_terms, _variational_source, lift_map
from chronoflow.flow import chained_trajectory
from chronoflow.liealg import lie_bracket_map

ALGEBRA = settings(max_examples=30, deadline=None, database=None, derandomize=True)
REMAINDER = settings(max_examples=8, deadline=None, database=None, derandomize=True)

coefficients = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
dims = st.integers(1, 4)


@st.composite
def polynomial_maps(draw, dim: int, dim_out: int | None = None, degree: int = 3,
                    max_terms: int = 3) -> PolynomialMap:
    """Up to ``max_terms`` monomials of degree <= ``degree`` per component."""
    comps = []
    for _ in range(dim if dim_out is None else dim_out):
        comp = []
        for _ in range(draw(st.integers(0, max_terms))):
            exps = [0] * dim
            for var in draw(st.lists(st.integers(0, dim - 1), max_size=degree)):
                exps[var] += 1
            comp.append((draw(coefficients), tuple(exps)))
        comps.append(comp)
    return PolynomialMap(dim, dim if dim_out is None else dim_out, comps)


def points(dim: int):
    return st.lists(coefficients, min_size=dim, max_size=dim).map(np.array)


def assert_rounding_zero(total, *parts):
    """``total`` is a sum of ``parts`` that cancels exactly in exact arithmetic."""
    scale = 1.0 + sum(float(np.max(np.abs(p), initial=0.0)) for p in parts)
    assert float(np.max(np.abs(total), initial=0.0)) <= 1e-12 * scale


def term_tables(dim: int):
    """Term tables with small dyadic coefficients, so that sums cancel often."""
    exps = st.tuples(*[st.integers(0, 3)] * dim)
    values = st.sampled_from((-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)) | coefficients.filter(bool)
    return st.dictionaries(exps, values, max_size=6)


def dict_sum(terms) -> dict:
    """Reference: plain per-key sums in input order, exact zeros dropped at the end."""
    total: dict = {}
    for exps, coef in terms:
        total[exps] = total.get(exps, 0.0) + coef
    return {exps: coef for exps, coef in total.items() if coef != 0.0}


@ALGEBRA
@given(st.data())
def test_term_arithmetic_matches_dict_sums(data):
    dim = data.draw(dims)
    a, b = data.draw(term_tables(dim)), data.draw(term_tables(dim))
    sa, sb = data.draw(st.sampled_from((1.0, -1.0, 0.5))), data.draw(coefficients)
    var = data.draw(st.integers(0, dim - 1))
    assert _mul_terms(a, b) == dict_sum(
        (tuple(x + y for x, y in zip(ea, eb)), ca * cb)
        for ea, ca in a.items() for eb, cb in b.items())
    assert _add_terms(a, b, sa, sb) == dict_sum(
        [(e, sa * c) for e, c in a.items()] + [(e, sb * c) for e, c in b.items()])
    lowered = [(e[:var] + (e[var] - 1,) + e[var + 1:], c * e[var])
               for e, c in a.items() if e[var] > 0]
    assert _diff_terms(a, var) == dict_sum(lowered)


def numpy_reference(pm: PolynomialMap, x: np.ndarray) -> np.ndarray:
    """Term by term on numpy float64 scalars, in the order the evaluator sums."""
    out = []
    for table in pm._components:
        terms = []
        for exps in sorted(table):
            term = np.float64(table[exps])
            for var, e in enumerate(exps):
                if e:
                    term = term * (x[var] if e == 1 else x[var] ** e)
            terms.append(term)
        out.append(functools.reduce(operator.add, terms) if terms else 0.0)
    return np.array(out, dtype=float)


magnitudes = (st.floats(-2.0, 2.0) | st.floats(-1e300, 1e300)
              | st.sampled_from((np.inf, -np.inf, np.nan, -0.0)))


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(st.data())
def test_compiled_evaluator_matches_numpy_bit_for_bit(data):
    dim = data.draw(st.integers(1, 8))
    pm = data.draw(polynomial_maps(dim, degree=11, max_terms=4))
    for pm in (pm, pm.jacobian_map):
        for _ in range(4):
            x = np.array(data.draw(st.lists(magnitudes, min_size=dim, max_size=dim)))
            with np.errstate(all="ignore"):
                want = numpy_reference(pm, x)
                got = pm(x)
            assert got.tobytes() == want.tobytes(), (x, got, want)


def numpy_variational_rk4(pm: PolynomialMap, q: np.ndarray, t: float, solver: FlowSolver):
    """Reference: RK4 with the variational matrix on numpy arrays, stage by stage."""
    n_steps = solver.step_count(0.0, t)
    h = t / n_steps
    half, sixth = 0.5 * h, h / 6.0
    mat = np.eye(pm.dim_in)
    for _ in range(n_steps):
        k1 = pm(q)
        q2 = q + half * k1
        k2 = pm(q2)
        q3 = q + half * k2
        k3 = pm(q3)
        q4 = q + h * k3
        k4 = pm(q4)
        m1 = pm.jacobian(q) @ mat
        m2 = pm.jacobian(q2) @ (mat + half * m1)
        m3 = pm.jacobian(q3) @ (mat + half * m2)
        m4 = pm.jacobian(q4) @ (mat + h * m3)
        mat = mat + sixth * (m1 + 2.0 * m2 + 2.0 * m3 + m4)
        q = q + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return q, mat


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(st.data())
def test_generated_variational_loop_matches_numpy_stepper(data):
    dim = data.draw(st.integers(1, 8))
    pm = data.draw(polynomial_maps(dim, max_terms=4))
    q = data.draw(st.lists(st.floats(-0.5, 0.5), min_size=dim, max_size=dim).map(np.array))
    t = data.draw(st.sampled_from((0.1, -0.1, 0.25)))
    solver = FlowSolver(40)
    fm = FlowMap(VectorField.autonomous(pm), 0.0, t, solver)
    end, mat = flow_with_pushforward(fm, q)
    want_end, want_mat = numpy_variational_rk4(pm, q, t, solver)
    assert end.tobytes() == flow_map(fm, q).tobytes() == want_end.tobytes()
    assert np.max(np.abs(mat - want_mat)) <= 1e-12 * np.max(np.abs(want_mat))


@settings(max_examples=20, deadline=None, database=None, derandomize=True)
@given(polynomial_maps(8, max_terms=4))
def test_generated_variational_source_stays_small_at_dimension_8(pm):
    # per stage: 8 stage points, one evaluation, and at most 64 Jacobian
    # entries, 64 matrix products and 64 intermediate matrix entries
    source = _variational_source(pm.jacobian_map._components, 8)
    assert len(source.splitlines()) <= 4 * (8 + 1 + 3 * 64) + 64 + 8 + 12
    assert len(source) <= 80_000


def assert_well_formed(pm: PolynomialMap) -> None:
    """Finite nonzero float coefficients, non-negative int exponents of length dim_in."""
    assert len(pm._components) == pm.dim_out
    for table in pm._components:
        for exps, coef in table.items():
            assert type(coef) is float and coef != 0.0 and np.isfinite(coef)
            assert type(exps) is tuple and len(exps) == pm.dim_in
            assert all(type(e) is int and e >= 0 for e in exps)
    assert PolynomialMap(pm.dim_in, pm.dim_out, pm.components) == pm


@ALGEBRA
@given(st.data())
def test_kernel_results_are_well_formed(data):
    dim = data.draw(dims)
    v, w = data.draw(polynomial_maps(dim)), data.draw(polynomial_maps(dim))
    phi = data.draw(polynomial_maps(dim, data.draw(st.integers(1, 2))))
    # numpy scalars as scale factors too: the tables must hold plain floats
    a, b = (data.draw(coefficients | st.sampled_from((0.0, 2.0)) | coefficients.map(np.float64))
            for _ in range(2))
    for pm in (lift_map(phi, v), lie_bracket_map(v, w), v.add(w, a, b), v.add(v, 1.0, -1.0),
               v.scaled(a), phi.jacobian_map, v.jacobian_map.jacobian_map):
        assert_well_formed(pm)


@ALGEBRA
@given(st.data())
def test_bracket_is_antisymmetric(data):
    dim = data.draw(dims)
    v, w = data.draw(polynomial_maps(dim)), data.draw(polynomial_maps(dim))
    x = data.draw(points(dim))
    forward, backward = lie_bracket_map(v, w)(x), lie_bracket_map(w, v)(x)
    assert_rounding_zero(forward + backward, forward, backward)
    assert_rounding_zero(lie_bracket_map(v, v)(x))


@ALGEBRA
@given(st.data())
def test_jacobi_identity(data):
    dim = data.draw(dims)
    u, v, w = (data.draw(polynomial_maps(dim)) for _ in range(3))
    x = data.draw(points(dim))
    terms = [lie_bracket_map(a, lie_bracket_map(b, c))(x)
             for a, b, c in ((u, v, w), (v, w, u), (w, u, v))]
    assert_rounding_zero(sum(terms), *terms)


@ALGEBRA
@given(st.data())
def test_lift_is_linear_in_observable_and_field(data):
    dim = data.draw(dims)
    m = data.draw(st.integers(1, 2))
    phi, psi = (data.draw(polynomial_maps(dim, m)) for _ in range(2))
    v, w = data.draw(polynomial_maps(dim)), data.draw(polynomial_maps(dim))
    a, b = data.draw(coefficients), data.draw(coefficients)
    x = data.draw(points(dim))

    combined = lift_map(phi.scaled(a).add(psi, 1.0, b), v)(x)
    separate = [a * lift_map(phi, v)(x), b * lift_map(psi, v)(x)]
    assert_rounding_zero(combined - sum(separate), combined, *separate)

    combined = lift_map(phi, v.scaled(a).add(w, 1.0, b))(x)
    separate = [a * lift_map(phi, v)(x), b * lift_map(phi, w)(x)]
    assert_rounding_zero(combined - sum(separate), combined, *separate)


@ALGEBRA
@given(st.data())
def test_field_json_round_trip(data):
    dim = data.draw(dims)
    order = data.draw(st.integers(1, 8))
    if data.draw(st.booleans()):
        field = VectorField.autonomous(data.draw(polynomial_maps(dim)), order)
    else:
        cuts = sorted(data.draw(st.sets(st.integers(-20, 20), min_size=2, max_size=4)))
        field = VectorField.piecewise(
            [(a / 8.0, b / 8.0, data.draw(polynomial_maps(dim)))
             for a, b in zip(cuts, cuts[1:])], order)
    again = vector_field_from_json(json.loads(json.dumps(field.to_json())))
    assert again.is_autonomous == field.is_autonomous
    assert again.smoothness_order == field.smoothness_order
    assert [(a, b) for a, b, _ in again.pieces] == [(a, b) for a, b, _ in field.pieces]
    assert all(p == r for (_, _, p), (_, _, r) in zip(again.pieces, field.pieces))


@ALGEBRA
@given(st.lists(st.tuples(st.integers(1, 4), st.sampled_from((-1, 1)),
                          st.floats(1e-6, 10.0, allow_nan=False)), max_size=6))
def test_schedule_json_and_csv_round_trip(rows):
    schedule = ControlSchedule(tuple(Segment(i, s, d) for i, s, d in rows))
    assert ControlSchedule.from_json(json.loads(json.dumps(schedule.to_json()))) == schedule
    assert ControlSchedule.from_csv(schedule.to_csv()) == schedule


@st.composite
def two_piece_fields(draw):
    """A linear or constant piece on [0, b), another on [b, 1.5]."""
    dim = draw(st.integers(1, 3))

    def piece():
        if draw(st.booleans()):
            return PolynomialMap.linear(
                np.array(draw(st.lists(coefficients, min_size=dim * dim,
                                       max_size=dim * dim))).reshape(dim, dim))
        return PolynomialMap.constants(draw(st.lists(coefficients, min_size=dim,
                                                     max_size=dim)), dim)

    b = draw(st.floats(0.4, 0.8))
    return VectorField.piecewise([(0.0, b, piece()), (b, 1.5, piece())]), b


@REMAINDER
@given(two_piece_fields(), st.data())
def test_direct_and_difference_remainders_agree(field_and_cut, data):
    field, b = field_and_cut
    q = data.draw(points(field.dim))
    late = data.draw(st.floats(b + 0.1, 1.4))
    t0, t = (0.0, late) if data.draw(st.booleans()) else (late, 0.0)
    phi = Observable.identity(field.dim)
    solver = FlowSolver(1000)
    for k in (1, 2, 3):
        diff = remainder_eval(field, phi, q, t0, t, k, solver, nodes=8)
        direct = remainder_eval(field, phi, q, t0, t, k, solver, nodes=8, method="direct")
        assert abs(diff.remainder_norm - direct.remainder_norm) <= 1e-8


@st.composite
def node_walks(draw):
    """A random field of one to three pieces on [0, 1.5] and a walk through it.

    The walk starts at t0, runs forward or backward through nodes that fall
    on either side of the breakpoints, and repeats some nodes.
    """
    dim = draw(st.integers(1, 3))
    cuts = sorted(draw(st.lists(st.sampled_from((0.25, 0.5, 0.75, 1.0, 1.25)),
                                max_size=2, unique=True)))
    edges = [0.0, *cuts, 1.5]
    pieces = [(a, b, draw(polynomial_maps(dim))) for a, b in zip(edges, edges[1:])]
    field = (VectorField.piecewise(pieces) if cuts
             else VectorField.autonomous(pieces[0][2]))
    times = draw(st.lists(st.floats(0.0, 1.5) | st.sampled_from(edges), min_size=2,
                          max_size=7))
    times += draw(st.lists(st.sampled_from(times), max_size=2))
    times.sort(reverse=draw(st.booleans()))
    q = draw(st.lists(st.floats(-0.5, 0.5), min_size=dim, max_size=dim))
    return field, times[0], times[1:], q


def walk_outcome(walk):
    """The bytes of a walk's states and segment pushforwards, or where it blew up."""
    try:
        states, segments = walk()
    except BlowUpError as err:
        return err.step, err.t
    return [s.tobytes() for s in states], [m.tobytes() for m in segments]


def per_node_solves(field, t0, times, q, solver, pushforward):
    """Reference: one single solve per node, each from the previous endpoint."""
    states, segments = [], []
    for start, t in zip([t0] + times, times):
        fm = FlowMap(field, start, t, solver)
        if pushforward:
            q, mat = flow_with_pushforward(fm, q)
            segments.append(mat)
        else:
            q = flow_map(fm, q)
        states.append(q)
    return states, segments


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(node_walks(), st.sampled_from((float, np.float64)))
def test_chained_trajectory_is_one_solve_per_node(walk, cast):
    field, t0, times, q = walk
    solver = FlowSolver(40)
    for pushforward in (False, True):
        chained = walk_outcome(lambda: chained_trajectory(
            field, cast(t0), [cast(t) for t in times], q, solver, pushforward))
        assert chained == walk_outcome(
            lambda: per_node_solves(field, t0, times, q, solver, pushforward))
    if isinstance(chained[0], int):
        return
    states, segments = chained
    # a repeated node stays put and its segment pushforward is the identity
    for i, (start, t) in enumerate(zip([t0] + times, times)):
        if start == t:
            assert states[i] == (states[i - 1] if i else np.array(q).tobytes())
            assert segments[i] == np.eye(field.dim).tobytes()
