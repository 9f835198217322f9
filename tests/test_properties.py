"""Property tests on random sparse polynomial fields (dimension <= 4, degree <= 3).

The exact algebra (bracket antisymmetry, the Jacobi identity, linearity of
lifts, JSON round trips) must hold for every field, not only the catalog
systems, up to float rounding in the polynomial arithmetic; the direct and
difference remainders must agree on random piecewise fields in either time
direction; the compiled evaluator must give the bits of a term-by-term
numpy evaluation (dimension <= 8, exponents <= 11, overflow included), the
generated plain RK4 loop the endpoint bits, or the blow-up step and time,
of a numpy stepper (dimension <= 16, piecewise fields, both time directions;
overflow to inf, NaN states and overflowing powers, dimension <= 8), and
the generated variational RK4 loop the plain flow's endpoint bits and a
numpy stepper's pushforward (dimension <= 8, and fields with a zero, a
constant and a 300-term component), and the tangent loop the bits of each
column of the variational loop, blow-ups included (dimension <= 8); flows,
pushforwards and
inverse flows of strictly triangular fields must converge at order 4 to
the exact, terminating Lie series of the field, and so must schedules,
flow brackets and the remainder past the last Lie term on pairs of such
fields (dimension <= 6); on the catalog systems and the chained form up to
n = 6 all of these sit at the rounding floor; a chained trajectory must
give the bits of one single solve per node on random piecewise fields;
transported fields must match the two-solve route, and the stacked
pull-backs of param_derivative, adjoint_check and the variation-of-
parameters check the bits of one linear solve per node (dimension <= 6),
and param_derivative ("in" against one tangent solve per node), adjoint_check,
transported fields and the variation-of-parameters check, whose node values
come from the compiled evaluator on one stacked pass, the bits of one array
and one eval_field per node (dimension <= 4, piecewise fields, both time
directions);
a Volterra truncation must be phi(q) plus its simplex terms, bit for bit
on autonomous fields, and the lift witness must dominate the lift of every
piece sequence (dimension <= 3, two or three pieces, k <= 4); Chen's walk
must give the terms and direct remainders of the enumeration of piece
sequences, bit for bit where no two pieces share a table (dimension <= 3,
one to six pieces, k <= 4).
Examples are derandomized so the suite is repeatable.
"""
import ast
import collections
import functools
import itertools
import json
import math
import operator

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from chronoflow import (
    AffineControlSystem,
    BlowUpError,
    BracketExpression,
    ControlSchedule,
    FlowMap,
    FlowSolver,
    Observable,
    PolynomialMap,
    PerturbedSystem,
    Segment,
    VectorField,
    adjoint_check,
    apply_lift,
    brockett_fields,
    builtin_system,
    flow_bracket,
    flow_map,
    flow_with_pushforward,
    heisenberg_fields,
    inverse_flow,
    iterate_lift,
    param_derivative,
    pushforward_field,
    remainder_eval,
    sample_lift_bound,
    simplex_integral_term,
    simulate_schedule,
    unicycle_fields,
    variation_of_parameters_check,
    vector_field_from_json,
    volterra_truncate,
)
from chronoflow.chrono import _direct_remainder, _series_terms
from chronoflow.fields import (
    LiftTable,
    _add_terms,
    _compile_evaluator,
    _diff_terms,
    _mul_terms,
    _rk4_source,
    add_fields,
    eval_field,
    lift_map,
)
from chronoflow.flow import _flow_core, _solve_columns, flow_time_dependent
from chronoflow.liealg import lie_bracket_field, lie_bracket_map
from chronoflow.paramflow import _quad_nodes
from chronoflow.quadrature import gauss_legendre

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
        # a fresh compile runs cold: CPython 3.11 specializes a function after some
        # calls and may then flip NaN sign bits, so a warm, shared evaluator agrees
        # with this one on every bit but those (test_fields)
        evaluate = _compile_evaluator(pm._components, pm.dim_in)
        for _ in range(4):
            x = np.array(data.draw(st.lists(magnitudes, min_size=dim, max_size=dim)))
            with np.errstate(all="ignore"):
                want = numpy_reference(pm, x)
                got = np.array(evaluate(x.tolist()))
            assert got.tobytes() == want.tobytes(), (x, got, want)


def numpy_plain_rk4(field: VectorField, q: np.ndarray, t0: float, t1: float,
                    solver: FlowSolver) -> np.ndarray:
    """Reference: plain RK4 on numpy arrays, stage by stage, over each part of
    [t0, t1], with the step count running on across parts and the blow-up test
    after each step, as the plain flow stepped before it took float lists."""
    threshold, step_base = solver.blowup_threshold, 0
    with np.errstate(all="ignore"):  # overflow to inf and inf - inf are the cases
        for a, b, pm in field.parts(t0, t1):
            n_steps = solver.step_count(a, b)
            h = (b - a) / n_steps
            half, sixth = 0.5 * h, h / 6.0
            for i in range(n_steps):
                k1 = pm(q)
                k2 = pm(q + half * k1)
                k3 = pm(q + half * k2)
                k4 = pm(q + h * k3)
                q = q + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                if not (abs(q).max() <= threshold):  # true also for NaN
                    raise BlowUpError(step_base + i + 1, a + (i + 1) * h)
            step_base += n_steps
    return q


def numpy_time_dependent_rk4(fn, t0: float, t1: float, q: np.ndarray,
                             solver: FlowSolver) -> np.ndarray:
    """Reference: RK4 for a time-dependent evaluator on numpy arrays, stage by stage,
    on one grid over [t0, t1], as ``flow_time_dependent`` stepped before it ran the
    generated timed loop."""
    if t1 == t0:
        return q
    n_steps = solver.step_count(t0, t1)
    h = (t1 - t0) / n_steps
    t = t0
    for i in range(n_steps):
        k1 = fn(t, q)
        k2 = fn(t + 0.5 * h, q + 0.5 * h * k1)
        k3 = fn(t + 0.5 * h, q + 0.5 * h * k2)
        k4 = fn(t + h, q + h * k3)
        q = q + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = t0 + (i + 1) * h
        if not (abs(q).max() <= solver.blowup_threshold):  # true also for NaN
            raise BlowUpError(i + 1, t)
    return q


def plain_outcome(solve):
    """The bits of an endpoint, or the step and time of the blow-up it raised."""
    try:
        return solve().tobytes()
    except BlowUpError as err:
        return err.step, err.t


def numpy_variational_rk4(pm: PolynomialMap, q: np.ndarray, t: float, solver: FlowSolver):
    """Reference: RK4 with the variational matrix on numpy arrays, stage by stage,
    with the blow-up test after each step (state past the threshold, or a matrix
    entry not finite)."""
    n_steps = solver.step_count(0.0, t)
    h = t / n_steps
    half, sixth = 0.5 * h, h / 6.0
    mat = np.eye(pm.dim_in)
    with np.errstate(all="ignore"):  # overflow to inf is the blow-up case
        for i in range(n_steps):
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
            if not (abs(q).max() <= solver.blowup_threshold and np.isfinite(mat).all()):
                raise BlowUpError(i + 1, 0.0 + (i + 1) * h)
    return q, mat


directions = st.sampled_from(((0.0, 0.7), (0.7, 0.0), (-0.8, 0.4), (0.4, -0.8)))


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(st.data())
def test_plain_loop_keeps_the_bits_of_the_numpy_stepper(data):
    dim = data.draw(st.integers(1, 16))
    field = data.draw(windowed_fields(dim, 3))
    q = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim).map(np.array))
    t0, t1 = data.draw(directions)
    solver = FlowSolver(40)
    assert plain_outcome(lambda: flow_map(FlowMap(field, t0, t1, solver), q)) == (
        plain_outcome(lambda: numpy_plain_rk4(field, q, t0, t1, solver)))


@st.composite
def blowing_up(draw):
    """A field, a start and a time direction whose solve leaves every bound: a
    linear term whose stages overflow to inf, two linear terms whose infinities
    cancel to a NaN state, or a power x^d that overflows (a rerun on numpy
    scalars); the other components are random, in dimension 1 to 8."""
    kind = draw(st.sampled_from(("inf", "nan", "power")))
    dim = draw(st.integers(2 if kind == "nan" else 1, 8))
    t0, t1 = draw(directions)
    sign = 1.0 if t1 > t0 else -1.0  # grow in the direction of the solve
    x = draw(st.floats(1.0, 2.0))
    first = [0] * dim
    if kind == "inf":
        first[0] = 1
        terms = [(sign * 10.0 ** draw(st.floats(4.0, 300.0)), tuple(first))]
    elif kind == "nan":
        c = 10.0 ** draw(st.floats(200.0, 300.0))
        x = 10.0 ** draw(st.floats(110.0, 150.0))  # c x overflows at the first stage
        second = [0] * dim
        first[0], second[1] = 1, 1
        terms = [(c, tuple(first)), (-c, tuple(second))]
    else:
        first[0] = draw(st.integers(2, 9))
        terms = [(sign * 10.0 ** draw(st.floats(0.5, 2.0)), tuple(first))]
    rest = draw(polynomial_maps(dim, max_terms=2)).components
    pm = PolynomialMap(dim, dim, [list(rest[0]) + terms, *map(list, rest[1:])])
    others = draw(st.lists(st.floats(-1.0, 1.0), min_size=max(dim - 2, 0), max_size=dim))
    q = np.array([x, x, *others][:dim])
    threshold = draw(st.sampled_from((1e12, 1e300, np.finfo(float).max)))
    return VectorField.autonomous(pm), q, t0, 3.0 * t1 - 2.0 * t0, threshold


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(blowing_up())
def test_plain_loop_blows_up_at_the_numpy_steppers_step_and_time(case):
    field, q, t0, t1, threshold = case
    solver = FlowSolver(100, blowup_threshold=threshold)
    got = plain_outcome(lambda: flow_map(FlowMap(field, t0, t1, solver), q))
    assert isinstance(got, tuple)
    assert got == plain_outcome(lambda: numpy_plain_rk4(field, q, t0, t1, solver))


def timed(pm: PolynomialMap):
    """The time-dependent field (1 + t^2) pm(x), which grows wherever pm does."""
    return lambda t, x: (1.0 + t * t) * pm(x)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(st.data())
def test_time_dependent_loop_keeps_the_bits_of_the_numpy_stepper(data):
    dim = data.draw(st.integers(1, 8))
    fn = timed(data.draw(polynomial_maps(dim, max_terms=4)))
    q = data.draw(points(dim))
    t0, t1 = data.draw(directions)
    solver = FlowSolver(40)
    with np.errstate(all="ignore"):
        assert plain_outcome(lambda: flow_time_dependent(fn, t0, t1, q, solver)) == (
            plain_outcome(lambda: numpy_time_dependent_rk4(fn, t0, t1, q, solver)))


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(blowing_up())
def test_time_dependent_loop_blows_up_at_the_numpy_steppers_step_and_time(case):
    field, q, t0, t1, threshold = case
    fn = timed(field.pieces[0][2])
    solver = FlowSolver(100, blowup_threshold=threshold)
    with np.errstate(all="ignore"):
        got = plain_outcome(lambda: flow_time_dependent(fn, t0, t1, q, solver))
        assert isinstance(got, tuple)
        assert got == plain_outcome(lambda: numpy_time_dependent_rk4(fn, t0, t1, q, solver))


@st.composite
def kernel_maps(draw) -> PolynomialMap:
    """Fields on R^3 or R^4 with an identically zero component, a constant one and one
    of 300 terms of degree <= 11 (more than SUM_CHUNK, so the generated loop sums it
    in a chain of statements), the rest random, in a drawn order."""
    dim = draw(st.integers(3, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    monomials = [e for e in itertools.product(range(12), repeat=dim) if sum(e) <= 11]
    picks = rng.choice(len(monomials), size=300, replace=False)
    chunked = [(float(c), monomials[i]) for c, i in zip(rng.uniform(-0.05, 0.05, 300), picks)]
    constant = [(draw(coefficients.filter(bool)), (0,) * dim)]
    rest = [list(comp) for comp in draw(polynomial_maps(dim, max_terms=4)).components[3:]]
    return PolynomialMap(dim, dim, draw(st.permutations([[], constant, chunked, *rest])))


def assert_variational_matches_numpy(pm: PolynomialMap, data):
    dim = pm.dim_in
    q = data.draw(st.lists(st.floats(-0.5, 0.5), min_size=dim, max_size=dim).map(np.array))
    t = data.draw(st.sampled_from((0.1, -0.1, 0.25)))
    solver = FlowSolver(40)
    fm = FlowMap(VectorField.autonomous(pm), 0.0, t, solver)
    end, mat = flow_with_pushforward(fm, q)
    want_end, want_mat = numpy_variational_rk4(pm, q, t, solver)
    assert end.tobytes() == flow_map(fm, q).tobytes() == want_end.tobytes()
    assert np.max(np.abs(mat - want_mat)) <= 1e-12 * np.max(np.abs(want_mat))


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(st.data())
def test_generated_variational_loop_matches_numpy_stepper(data):
    dim = data.draw(st.integers(1, 8))
    assert_variational_matches_numpy(data.draw(polynomial_maps(dim, max_terms=4)), data)


@settings(max_examples=8, deadline=None, database=None, derandomize=True)
@given(kernel_maps(), st.data())
def test_inlined_zero_constant_and_chunked_components_keep_the_flow_bits(pm, data):
    assert_variational_matches_numpy(pm, data)


def test_generated_plain_source_stays_small_at_dimension_8():
    # per step: one evaluator call per stage, 8 state updates and the blow-up test;
    # the loop holds no field, so no table makes it longer.  The timed loop adds
    # one line to the loop body, the step's time
    plain, timed_source = _rk4_source("plain", 8), _rk4_source("timed", 8)
    assert len(plain.splitlines()) <= 4 + 8 + 2 + 6
    assert len(timed_source.splitlines()) <= 4 + 8 + 2 + 7
    assert max(len(plain), len(timed_source)) <= 2_000


@settings(max_examples=20, deadline=None, database=None, derandomize=True)
@given(polynomial_maps(8, max_terms=4))
def test_generated_variational_source_stays_small_at_dimension_8(pm):
    # per stage: 8 stage points, 8 field components, and at most 64 Jacobian
    # entries, 64 matrix products and 64 intermediate matrix entries
    source = _rk4_source("variational", 8, pm._components)
    assert len(source.splitlines()) <= 4 * (8 + 8 + 3 * 64) + 64 + 8 + 12
    assert len(source) <= 80_000


moderate = st.floats(0.25, 1.0) | st.floats(-1.0, -0.25)


@st.composite
def triangular_fields(draw, dims=st.integers(1, 4)) -> VectorField:
    """Strictly triangular fields of degree <= 2: component i reads only x_1..x_{i-1}.

    Each component after the first moves with the one before it, so that from
    dimension 3 on RK4 is usually not exact; in dimensions 1 and 2 it is.
    """
    dim = draw(dims)
    comps = []
    for i in range(dim):
        exps = [0] * dim
        if i:
            exps[i - 1] = draw(st.integers(1, 2))
        comp = [(draw(moderate), tuple(exps))]
        for _ in range(draw(st.integers(0, 2))):
            exps = [0] * dim
            for var in draw(st.lists(st.integers(0, i - 1), max_size=2)) if i else ():
                exps[var] += 1
            comp.append((draw(moderate), tuple(exps)))
        comps.append(comp)
    return VectorField.autonomous(PolynomialMap(dim, dim, comps))


def lie_series(field: VectorField) -> list[Observable]:
    """V^k x for k = 0..K, where V^(K+1) x = 0: the flow is sum_k t^k/k! V^k x."""
    lifts = [Observable.identity(field.dim, 2 ** field.dim)]  # K <= 2^dim - 1
    while any(lifts[-1].map._components):
        lifts.append(apply_lift(field, 0.0, lifts[-1]))
    return lifts[:-1]


def assert_fourth_order(errors, floor: float, max_slope: float = 4.3) -> None:
    """RK4's errors over successive step halvings: each falls by at least
    2^3.7, and the last above the rounding floor by at most 2^max_slope; by
    default that is 2^(4 +- 0.3), the asymptotic h^4.  Errors at the floor
    mean RK4 is exact for the field."""
    above = [(coarse, fine) for coarse, fine in zip(errors, errors[1:]) if fine > floor]
    for coarse, fine in above:
        assert coarse / fine >= 2 ** 3.7, errors
    if above:
        coarse, fine = above[-1]
        assert coarse / fine <= 2 ** max_slope, errors
    else:
        assert errors[0] <= 2 ** max_slope * floor, errors


# An example that is still pre-asymptotic at 16 steps per unit time: its error
# falls by only 5.6 to 32 steps, then by 12.1, 14.3, 15.1 and 17.1 up to 512.
SLOW_START = VectorField.autonomous(PolynomialMap(3, 3, [
    [(0.810066748385964, (0, 0, 0))],
    [(-0.6125999988091831, (0, 0, 0)), (0.6, (1, 0, 0)), (-1.0, (2, 0, 0))],
    [(-0.36894061135496226, (0, 0, 0)), (-0.3790170990522552, (0, 2, 0))]]))


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(triangular_fields(), st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
       st.sampled_from((0.5, -0.5)))
@example(SLOW_START, [-0.18331973969757498, 0.09274542645885231, -4.011095496000675e-11, 0.0],
         0.5)
def test_flows_converge_to_the_exact_lie_series_at_order_4(field, q, t):
    # the oracle is exact polynomial algebra and shares no code with RK4; the
    # halvings start at 64 steps per unit time, where the error is asymptotic
    q = np.array(q[:field.dim])
    series = [(t ** k / math.factorial(k), lifted) for k, lifted in enumerate(lie_series(field))]
    exact = sum(c * lifted(q) for c, lifted in series)
    jacobian = sum(c * lifted.derivative(q) for c, lifted in series)
    scale = 1.0 + max(abs(c) * float(np.max(np.abs(lifted.derivative(q)), initial=0.0))
                      for c, lifted in series)
    errors = []
    for steps in (64, 128, 256, 512):
        fm = FlowMap(field, 0.0, t, FlowSolver(steps))
        end, pushforward = flow_with_pushforward(fm, q)
        assert end.tobytes() == flow_map(fm, q).tobytes()
        errors.append((np.max(np.abs(end - exact)), np.max(np.abs(pushforward - jacobian)),
                       np.max(np.abs(inverse_flow(fm, exact) - q))))
    for errs in zip(*errors):
        assert_fourth_order(errs, 1e-13 * scale)


@st.composite
def triangular_systems(draw) -> AffineControlSystem:
    """Two strictly triangular fields of degree <= 2 on one space of dimension 2 to 6."""
    dim = draw(st.integers(2, 6))
    return AffineControlSystem.of([draw(triangular_fields(st.just(dim))) for _ in "12"])


def chained_form(n: int) -> AffineControlSystem:
    """x_1' = u_1, x_2' = u_2, x_{k+1}' = x_k u_1 for k = 2..n-1 (Murray & Sastry)."""
    def unit(var):
        return tuple(int(v == var) for v in range(n))

    first = [[(1.0, unit(None))], []] + [[(1.0, unit(k - 1))] for k in range(2, n)]
    second = [[], [(1.0, unit(None))]] + [[] for _ in range(2, n)]
    return AffineControlSystem.of([VectorField.autonomous(PolynomialMap(n, n, comps))
                                   for comps in (first, second)])


# The point-map words of the two flow brackets: [P, Q] runs P, Q, P^-1, Q^-1.
BRACKET_WORDS = {
    "[V1,V2]": ((1, 1), (2, 1), (1, -1), (2, -1)),
    "[[V1,V2],V1]": ((1, 1), (2, 1), (1, -1), (2, -1), (1, 1),
                     (2, 1), (1, 1), (2, -1), (1, -1), (1, -1)),
}
# Multiples of 1/16, so that every solver density below takes whole steps and
# each density halves h exactly.
durations = st.integers(2, 8).map(lambda m: m / 16)
DENSITIES = (64, 128, 256, 512)


def exact_segments(series, rows, q):
    """The composition of exact flows exp(s d V_i) for rows (i, s, d) from q, where
    ``series[i - 1]`` is the Lie series of V_i, and the rounding scale of the
    sums: 1 plus each step's largest Jacobian term."""
    scale = 1.0
    for i, sign, duration in rows:
        terms = [((sign * duration) ** k / math.factorial(k), lifted)
                 for k, lifted in enumerate(series[i - 1])]
        scale += max(abs(c) * float(np.max(np.abs(lifted.derivative(q)), initial=0.0))
                     for c, lifted in terms)
        q = sum(c * lifted(q) for c, lifted in terms)
    return q, scale


def executor_errors(sys: AffineControlSystem, q, rows, t: float):
    """Errors of ``simulate_schedule`` on ``rows`` and of ``flow_bracket`` at t
    against the exact Lie series over the solver densities, each with its
    rounding floor: ten times a single flow's, for up to 2,560 steps."""
    q = np.asarray(q, dtype=float)
    series = [lie_series(field) for field in sys.fields]
    schedule = ControlSchedule(tuple(Segment(i, s, d) for i, s, d in rows))
    cases = {"schedule": (rows, lambda solver: simulate_schedule(sys, q, schedule, solver))}
    for text, word in BRACKET_WORDS.items():
        expr = BracketExpression.parse(text)
        cases[text] = ([(i, s, t) for i, s in word],
                       lambda solver, expr=expr: flow_bracket(expr, sys.fields, t, q, solver))
    out = {}
    for name, (exact_rows, run) in cases.items():
        exact, scale = exact_segments(series, exact_rows, q)
        out[name] = ([float(np.max(np.abs(run(FlowSolver(steps)) - exact)))
                      for steps in DENSITIES], 1e-12 * scale)
    return out


def remainder_past_the_series(field: VectorField, q, t: float):
    """``remainder_eval`` at k = K + 1 over the solver densities, with its
    rounding floor.  V^(K+1) x = 0 makes the order-(K+1) truncation the exact
    flow, so the remainder it reports is solver error alone."""
    q = np.asarray(q, dtype=float)
    series = lie_series(field)
    k = len(series)
    _, scale = exact_segments([series], [(1, 1, t)], q)
    obs = Observable.identity(field.dim, k)
    return [remainder_eval(field, obs, q, 0.0, t, k, FlowSolver(steps)).remainder_norm
            for steps in DENSITIES], 1e-13 * scale


@settings(max_examples=15, deadline=None, database=None, derandomize=True)
@given(triangular_systems(), st.data())
def test_segment_executor_converges_to_the_exact_lie_series_at_order_4(sys, data):
    # simulate_schedule and flow_bracket both solve ControlSchedule.field once; the
    # oracle composes exact polynomial flows and shares no code with RK4
    q = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=sys.dim, max_size=sys.dim))
    rows = data.draw(st.lists(st.tuples(st.integers(1, 2), st.sampled_from((1, -1)),
                                        durations), min_size=2, max_size=5))
    t = data.draw(st.sampled_from((0.25, 0.5)))
    for errors, floor in executor_errors(sys, q, rows, t).values():
        # both signs of a field share RK4's h^4 error term, so it can cancel
        # along a word (a bracket word is the identity when V1 = V2) and leave
        # an error that falls at order 5
        assert_fourth_order(errors, floor, max_slope=5.3)
    assert_fourth_order(*remainder_past_the_series(sys.fields[0], q, t))


@pytest.mark.parametrize("name", ["heisenberg", "brockett", "unicycle",
                                  *(f"chained{n}" for n in range(3, 7))])
def test_segment_executor_is_exact_on_affine_nilpotent_systems(name):
    # every field is affine with a linear part A where A^4 = 0, so each RK4
    # step is its exact flow and every density sits at the rounding floor
    sys = (chained_form(int(name.removeprefix("chained"))) if name.startswith("chained")
           else AffineControlSystem.of(builtin_system(name)))
    rng = np.random.default_rng(sys.dim)
    q = rng.uniform(-1.0, 1.0, sys.dim)
    rows = [(int(rng.integers(1, 3)), int(rng.choice((-1, 1))), int(rng.integers(2, 9)) / 16)
            for _ in range(5)]
    results = list(executor_errors(sys, q, rows, 0.5).values())
    results += [remainder_past_the_series(field, q, 0.5) for field in sys.fields]
    for errors, floor in results:
        assert max(errors) <= floor, (name, errors, floor)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(triangular_fields(st.integers(1, 6)), st.data())
def test_hoisted_loop_keeps_the_flow_bits_on_triangular_fields(field, data):
    # constant components, constant Jacobian entries and matrix rows that no entry
    # reads: the lines the generated loop runs once before its steps, or drops
    assert_variational_matches_numpy(field.pieces[0][2], data)


@pytest.mark.parametrize("n", range(3, 7))
@settings(max_examples=5, deadline=None, database=None, derandomize=True)
@given(st.data())
def test_hoisted_loop_keeps_the_flow_bits_on_the_chained_form(n, data):
    for field in chained_form(n).fields:
        assert_variational_matches_numpy(field.pieces[0][2], data)


@st.composite
def hoisted_blowing_up(draw):
    """A map whose increments are loop invariants and leave every bound in at most 80
    steps of FlowSolver(4), in dimension 2 to 8: x_0' = b, a constant that carries x_0
    past the threshold, or x_1' = c x_0 from x_0 = 0 with x_0' = 0, a constant
    Jacobian entry whose matrix increment overflows to inf while the state stays
    put.  The other components are constants."""
    dim = draw(st.integers(2, 8))
    t = draw(st.sampled_from((20.0, -20.0)))
    threshold = draw(st.sampled_from((1e12, 1e300, np.finfo(float).max)))
    unit = tuple(int(v == 0) for v in range(dim))
    if draw(st.booleans()):  # about 4 threshold / b steps; inf at the first if 2 b overflows
        b = min(float(threshold) * 10.0 ** draw(st.floats(-1.2, 0.5)), np.finfo(float).max)
        first, second = [(math.copysign(b, t), (0,) * dim)], []
    else:  # about 4e308 / c steps; inf at the first if 5 c overflows
        first = []
        second = [(draw(st.sampled_from((1.0, -1.0))) * 10.0 ** draw(st.floats(307.0, 307.6)),
                   unit)]
    rest = [[(draw(coefficients), (0,) * dim)] for _ in range(dim - 2)]
    q = np.array([0.0, *draw(st.lists(coefficients, min_size=dim - 1, max_size=dim - 1))])
    return PolynomialMap(dim, dim, [first, second, *rest]), q, t, threshold


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(hoisted_blowing_up())
def test_hoisted_increments_blow_up_at_the_numpy_steppers_step_and_time(case):
    pm, q, t, threshold = case
    prologue = _rk4_source("variational", pm.dim_in, pm._components).split("for i in range")[0]
    assert "u_y0 = " in prologue or "u_m1_0 = " in prologue
    solver = FlowSolver(4, blowup_threshold=threshold)
    fm = FlowMap(VectorField.autonomous(pm), 0.0, t, solver)
    got = plain_outcome(lambda: flow_with_pushforward(fm, q)[0])
    assert isinstance(got, tuple)
    assert got == plain_outcome(lambda: numpy_variational_rk4(pm, q, t, solver)[0])


def loop_outcome(loop, q, m, *args, column=None):
    """The state and the list a generated loop carries (of a row-major matrix only its
    ``column``), or the (step, time) at which the loop blew up."""
    try:
        state, carried = loop(q, m, *args)
    except BlowUpError as err:
        return err.step, err.t
    return state, carried if column is None else carried[column::len(state)]


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(st.data())
def test_tangent_loop_keeps_the_bits_of_each_column_of_the_matrix_loop(data):
    # each column of M' = J(x) M is its own tangent equation: from any starting matrix,
    # column c of the matrix loop is the tangent loop started from that column, and the
    # matrix loop started from that column alone blows up at the tangent loop's step
    if data.draw(st.booleans()):
        pm = data.draw(st.integers(1, 8).flatmap(lambda dim: polynomial_maps(dim, max_terms=4)))
        q = data.draw(st.lists(st.floats(-0.5, 0.5), min_size=pm.dim_in,
                               max_size=pm.dim_in).map(np.array))
        t, threshold = data.draw(st.sampled_from((0.25, -0.25))), 1e12
    else:
        pm, q, t, threshold = data.draw(hoisted_blowing_up())
    n = pm.dim_in
    start = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=n * n,
                                        max_size=n * n))).reshape(n, n)
    args = (0.0, t / 80, 80, float(threshold), 3)
    for c in range(n):
        tangent = loop_outcome(pm._tangent_rk4, q.tolist(), start[:, c].tolist(), *args)
        alone = np.zeros((n, n))
        alone[:, c] = start[:, c]
        assert tangent == loop_outcome(pm._variational_rk4, q.tolist(),
                                       alone.ravel().tolist(), *args, column=c)
        full = loop_outcome(pm._variational_rk4, q.tolist(), start.ravel().tolist(), *args,
                            column=c)
        if isinstance(full[0], list):  # a blow-up of another column stops the matrix loop
            assert tangent == full


def assert_hoisted(source: str) -> ast.For:
    """No statement before the generated loop reads a name that the loop assigns, and
    each statement in it reads one; the loop's ``for`` node."""
    tree = ast.parse(source)
    loop = next(node for node in ast.walk(tree) if isinstance(node, ast.For))

    def names(node, ctx):
        return {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ctx)}

    assigned = names(loop, ast.Store)
    for statement in ast.walk(tree):
        if isinstance(statement, ast.Assign) and statement.lineno < loop.lineno:
            assert not names(statement, ast.Load) & assigned, ast.unparse(statement)
    for statement in loop.body:
        assert names(statement, ast.Load) & assigned, ast.unparse(statement)
    return loop


def test_the_heisenberg_loop_holds_no_statement_on_loop_invariants_alone():
    # the constant slopes, the matrix slopes of the constant Jacobian and their
    # increments run once, before the loop
    loop = assert_hoisted(
        _rk4_source("variational", 3, heisenberg_fields()[0].pieces[0][2]._components))
    # y1's four slopes and three stage points, three matrix and three state updates
    # (y2's increment inlined in its update) and the blow-up test
    assert len(loop.body) == 14


@pytest.mark.parametrize("kind", ["variational", "tangent"])
def test_a_constant_jacobian_entry_is_written_once_for_all_four_stages(kind):
    # the rotation's entries -1.0 and 1.0 are stage 1's names, which every stage reads
    source = _rk4_source(kind, 2, builtin_system("rotation2d")[0].pieces[0][2]._components)
    assert [line.strip() for line in source.splitlines() if line.strip().startswith("j")] == [
        "j1_0_1 = -1.0", "j1_1_0 = 1.0"]
    assert source.count("j1_0_1 * ") == 4 * (2 if kind == "variational" else 1)  # per column


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(st.integers(1, 8).flatmap(lambda dim: polynomial_maps(dim, max_terms=4))
       | triangular_fields(st.integers(1, 8)).map(lambda field: field.pieces[0][2]),
       st.sampled_from(("variational", "variational_calls", "tangent")))
def test_no_generated_loop_holds_a_statement_on_loop_invariants_alone(pm, kind):
    assert_hoisted(_rk4_source(kind, pm.dim_in, pm._components))


def test_no_plain_loop_holds_a_statement_on_loop_invariants_alone():
    for n in range(1, 9):
        for kind in ("plain", "timed"):
            assert_hoisted(_rk4_source(kind, n))


PLAIN_2 = """\
def _rk4(f, q, a, h, n_steps, threshold, step_base):
    half = 0.5 * h
    sixth = h / 6.0
    y0, y1, = q
    for i in range(n_steps):
{time}        k1_0, k1_1, = f({t1}[y0, y1])
        k2_0, k2_1, = f({t2}[y0 + half * k1_0, y1 + half * k1_1])
        k3_0, k3_1, = f({t2}[y0 + half * k2_0, y1 + half * k2_1])
        k4_0, k4_1, = f({t4}[y0 + h * k3_0, y1 + h * k3_1])
        y0 = y0 + sixth * (k1_0 + 2.0 * k2_0 + 2.0 * k3_0 + k4_0)
        y1 = y1 + sixth * (k1_1 + 2.0 * k2_1 + 2.0 * k3_1 + k4_1)
        if not (abs(y0) <= threshold and abs(y1) <= threshold):
            raise BlowUpError(step_base + i + 1, a + (i + 1) * h)
    return [y0, y1]"""


def test_the_plain_and_timed_loops_of_dimension_2_are_pinned():
    # the plain loop takes a numpy stepper's operations in its order; the timed one
    # adds the step's time and passes it to each stage's call
    assert _rk4_source("plain", 2) == PLAIN_2.format(time="", t1="", t2="", t4="")
    assert _rk4_source("timed", 2) == PLAIN_2.format(
        time="        t = a + i * h\n", t1="t, ", t2="t + half, ", t4="t + h, ")


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
@given(st.data())
def test_equal_tables_are_one_key(data):
    # a map keys lifts and compiled code: equal tables built apart must be equal and
    # hash equal, and a changed coefficient, exponent or dim_in another map
    dim = data.draw(dims)
    pm, v = data.draw(polynomial_maps(dim)), data.draw(polynomial_maps(dim))
    again = PolynomialMap.from_json(json.loads(json.dumps(pm.to_json())), dim)
    twins = [(pm, again), (pm, pm.add(PolynomialMap.zeros(dim, dim))),
             (lift_map(pm, v), lift_map(again, PolynomialMap(dim, dim, v.components)))]
    for a, b in twins:
        assert a is not b and a == b and hash(a) == hash(b) and len({a, b}) == 1
    comps = [list(comp) for comp in pm.components]
    if not any(comps):
        comps[0].append((0.5, (1,) + (0,) * (dim - 1)))
    i = next(i for i, comp in enumerate(comps) if comp)
    base = PolynomialMap(dim, dim, comps)
    (coef, exps), rest = comps[i][0], comps[i][1:]
    others = [PolynomialMap(dim, dim, comps[:i] + [changed + rest] + comps[i + 1:])
              for changed in ([(2.0 * coef, exps)], [(coef, (exps[0] + 1,) + exps[1:])])]
    others.append(PolynomialMap(dim + 1, dim, [[(c, e + (0,)) for c, e in comp]
                                               for comp in comps]))
    assert all(other != base for other in others)


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
        diff = remainder_eval(field, phi, q, t0, t, k, solver)
        direct = remainder_eval(field, phi, q, t0, t, k, solver, nodes=8, method="direct")
        assert abs(diff.remainder_norm - direct.remainder_norm) <= 1e-8


@st.composite
def series_fields(draw):
    """An autonomous field, or two or three polynomial pieces on [0, 1.5]."""
    dim = draw(st.integers(1, 3))
    if draw(st.booleans()):
        return VectorField.autonomous(draw(polynomial_maps(dim, degree=2)))
    cuts = [draw(st.floats(0.2, 0.6)), draw(st.floats(0.8, 1.2))][:draw(st.integers(1, 2))]
    edges = [0.0, *cuts, 1.5]
    return VectorField.piecewise([(a, b, draw(polynomial_maps(dim, degree=2)))
                                  for a, b in zip(edges, edges[1:])])


@settings(max_examples=50, deadline=None, database=None, derandomize=True)
@given(series_fields(), st.integers(1, 4), st.data())
def test_truncation_is_the_sum_of_its_simplex_terms(field, k, data):
    q = data.draw(points(field.dim))
    t0, t = data.draw(st.sampled_from([(0.0, 1.3), (1.4, 0.2)]))
    phi = Observable.identity(field.dim)
    total = volterra_truncate(field, phi, q, t0, t, k)
    terms = [simplex_integral_term(field, phi, q, t0, t, i) for i in range(1, k)]
    summed = functools.reduce(operator.add, terms, phi(q))
    if field.is_autonomous:
        assert np.array_equal(total, summed)
    else:
        assert np.linalg.norm(total - summed) <= 1e-12 * np.linalg.norm(summed)


@settings(max_examples=50, deadline=None, database=None, derandomize=True)
@given(series_fields(), st.integers(1, 4), st.data())
def test_witness_dominates_every_piece_sequence(field, k, data):
    center = data.draw(points(field.dim))
    phi = Observable.identity(field.dim)
    # a tiny ball: its sampled points sit at the centre up to rounding
    bound = sample_lift_bound(field, phi, k, center, 1e-12, num_points=4).bound_C
    times = [0.0] if field.is_autonomous else [0.5 * (a + b) for a, b, _ in field.pieces]
    # decreasing times, so later pieces first
    for seq in itertools.combinations_with_replacement(reversed(times), k):
        norm = np.linalg.norm(iterate_lift([(field, s) for s in seq], phi)(center))
        assert bound >= norm * (1.0 - 1e-9) - 1e-9


def _regions(lengths, pieces, i: int):
    """(volume, sequence of pieces[j]) of each region where i ordered times fall in parts
    j, listed from the t end: prod_j lengths[j]^m_j / m_j!, with m_j the count of part j."""
    for seq in itertools.combinations_with_replacement(range(len(lengths)), i):
        yield (math.prod(lengths[j] ** m / math.factorial(m)
                         for j, m in collections.Counter(seq).items()),
               tuple(pieces[j] for j in seq))


def region_terms(field, obs, q, t0, t, k):
    """Reference Volterra terms of orders 0..k: per piece sequence of the times, its
    region volume times the lift by its maps, C(P + i - 1, i) regions at order i."""
    lifts = LiftTable(obs, k)
    parts = field.parts(t0, t)[::-1]
    lengths, maps = [b - a for a, b, _ in parts], [pm for _, _, pm in parts]
    return [sum((volume * lifts[seq](q) for volume, seq in _regions(lengths, maps, i)),
                np.zeros(obs.dim_out)) for i in range(k + 1)]


def region_direct_remainder(field, obs, q, t0, t, k, solver, nodes):
    """Reference direct remainder: per innermost part j and piece sequence, the region
    volume with part j cut down to [x, b], on one chained trajectory."""
    lifts = LiftTable(obs, k)
    parts = field.parts(t0, t)[::-1]
    lengths, maps = [b - a for a, b, _ in parts], [pm for _, _, pm in parts]
    leaves = []
    for j in reversed(range(len(parts))):
        a, b, pm = parts[j]
        xs, ws = gauss_legendre(a, b, nodes)
        outers = [(volume, lifts[tuple(maps[i] for i in outer) + (pm,)], outer.count(j))
                  for volume, outer in _regions(lengths[:j] + [1.0], range(j + 1), k - 1)]
        for x, w in zip(xs, ws):
            leaves.extend((x, float(w * volume * (b - x) ** c), lift)
                          for volume, lift, c in outers)
    times = sorted({x for x, _, _ in leaves}, reverse=t < t0)
    states, _ = _flow_core(field, t0, times, q, solver)
    moved = dict(zip(times, states))
    return sum((w * lift(moved[x]) for x, w, lift in leaves), np.zeros(obs.dim_out))


@st.composite
def chen_fields(draw):
    """An autonomous field, or one to six pieces on [0, 1.5], each a new table, an
    earlier piece's map, or an equal map built apart from an earlier piece's table."""
    dim = draw(st.integers(1, 3))
    if draw(st.integers(0, 4)) == 0:
        return VectorField.autonomous(draw(polynomial_maps(dim, degree=2)))
    count = draw(st.integers(1, 6))
    cuts = sorted(draw(st.lists(st.floats(0.05, 1.45), min_size=count - 1,
                                max_size=count - 1, unique=True)))
    maps = [draw(polynomial_maps(dim, degree=2))]
    for _ in cuts:
        kind, earlier = draw(st.sampled_from(("new", "shared", "apart"))), draw(
            st.sampled_from(maps))
        if kind == "new":
            maps.append(draw(polynomial_maps(dim, degree=2)))
        elif kind == "shared":
            maps.append(earlier)
        else:
            maps.append(PolynomialMap(dim, dim, earlier.components))
    edges = [0.0, *cuts, 1.5]
    return VectorField.piecewise(zip(edges, edges[1:], maps))


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(chen_fields(), st.integers(1, 4), st.data())
def test_chen_walk_matches_the_region_enumeration(field, k, data):
    # bits where no two pieces share a table, autonomous fields included: each word is
    # one region, whose volume the walk builds by the same products, and the walk lists
    # words in the order of the regions.  Within rounding where tables repeat, since
    # the walk sums the regions of a word before it lifts.  The direct weights
    # w (b - x)^m / m! keep the bits for m <= 2, where m! is 1 or 2
    q = data.draw(points(field.dim))
    phi = Observable(data.draw(polynomial_maps(field.dim, dim_out=data.draw(
        st.integers(1, 2)), degree=2)))
    t0, t = data.draw(st.sampled_from([(0.0, 1.3), (1.4, 0.2), (0.3, 0.3)]))
    solver = FlowSolver(200)
    distinct = len({pm for _, _, pm in field.pieces}) == len(field.pieces)
    checks = list(zip(_series_terms(field, phi, q, t0, t, k),
                      region_terms(field, phi, q, t0, t, k), [distinct] * (k + 1)))
    try:
        want = region_direct_remainder(field, phi, q, t0, t, k, solver, 4)
    except BlowUpError:  # both walk one trajectory
        with pytest.raises(BlowUpError):
            _direct_remainder(field, phi, q, t0, t, k, solver, 4)
    else:
        checks.append((_direct_remainder(field, phi, q, t0, t, k, solver, 4)[0], want,
                       distinct and k <= 3))
    for got, want, same in checks:
        if same:
            assert got.tobytes() == want.tobytes()
        assert np.linalg.norm(got - want) <= 1e-13 * max(1.0, np.linalg.norm(want))


@pytest.mark.parametrize("pieces", [2, 3, 5])
@pytest.mark.parametrize("t0,t", [(0.0, 1.3), (1.4, 0.2)])
def test_chen_walk_keeps_the_bits_of_distinct_tables(pieces, t0, t):
    # seeded dense fields, where the order of a sum decides its last bit more often
    # than on the sparse examples above: every term to order 4 and every direct
    # remainder to k = 3 is the region enumeration's, bit for bit
    rng = np.random.default_rng(pieces)
    edges = np.linspace(0.0, 1.5, pieces + 1).tolist()
    field = VectorField.piecewise([
        (a, b, PolynomialMap(2, 2, [[(float(c), e) for c, e in zip(
            rng.uniform(-1.0, 1.0, 6), [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)])]
            for _ in range(2)])) for a, b in zip(edges, edges[1:])])
    phi = Observable(PolynomialMap(2, 2, [[(1.0, (2, 0)), (-0.5, (1, 1)), (0.3, (0, 1))],
                                          [(0.7, (1, 0)), (0.2, (0, 2))]]))
    q, solver = np.array([0.6, -0.8]), FlowSolver(200)
    for got, want in zip(_series_terms(field, phi, q, t0, t, 4),
                         region_terms(field, phi, q, t0, t, 4), strict=True):
        assert got.tobytes() == want.tobytes()
    for k in (1, 2, 3):
        got = _direct_remainder(field, phi, q, t0, t, k, solver, 16)[0]
        assert got.tobytes() == region_direct_remainder(field, phi, q, t0, t, k, solver,
                                                        16).tobytes()


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
def test_one_executor_pass_is_one_solve_per_node(walk, cast):
    field, t0, times, q = walk
    solver = FlowSolver(40)
    for pushforward in (False, True):
        chained = walk_outcome(lambda: _flow_core(
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


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(st.data())
def test_pushforward_field_matches_two_solve_route(two_solve_pushforward, data):
    # one variational solve of the inverse flow and N^-1 against a plain
    # inverse solve and the forward differential: the same map up to rounding
    dim = data.draw(dims)
    v, w = (VectorField.autonomous(data.draw(polynomial_maps(dim))) for _ in "vw")
    fm = FlowMap(v, 0.0, data.draw(st.sampled_from((0.3, -0.3, 0.7))), FlowSolver(200))
    r = data.draw(st.lists(st.floats(-0.5, 0.5), min_size=dim, max_size=dim).map(np.array))
    want = two_solve_pushforward(fm, w.piece_at(0.0), r)
    got = pushforward_field(fm, w, 0.0)(0.0, r)
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def per_node_out_formula(sys: PerturbedSystem, q, solver: FlowSolver, nodes: int):
    """Reference: param_derivative's "out" mode with one solve per node."""
    dim = sys.base_field.dim
    xs, ws, _ = _quad_nodes(sys, nodes)
    states, segments = _flow_core(sys.base_field, sys.t0, xs + [sys.t1], q, solver, True)
    total, forward = np.zeros(dim), np.eye(dim)
    for mat, w, tau, p in zip(segments, ws, xs, states):
        forward = mat @ forward
        total += np.linalg.solve(forward, w * eval_field(sys.perturbation_field, tau, p))
    return (segments[-1] @ forward) @ total


def per_node_adjoint_check(v, w, q, t, solver: FlowSolver, nodes: int = 16) -> float:
    """Reference: adjoint_check with one solve per node and one for the left side."""
    bracket = lie_bracket_field(v, w)
    xs, ws = gauss_legendre(0.0, t, nodes)
    states, segments = _flow_core(v, 0.0, list(xs) + [t], q, solver, True)
    total = eval_field(w, 0.0, q).astype(float)
    forward = np.eye(v.dim)
    for weight, x_tau, mat in zip(ws, states, segments):
        forward = mat @ forward
        total += weight * np.linalg.solve(forward, eval_field(bracket, 0.0, x_tau))
    forward = segments[-1] @ forward
    lhs = np.linalg.solve(forward, eval_field(w, 0.0, states[-1]))
    return float(np.linalg.norm(lhs - total))


def per_evaluation_vop(v, w, q, t, solver: FlowSolver) -> float:
    """Reference: the variation-of-parameters check on one grid over [0, t]
    (autonomous fields), each pulled-back value a forward solve and a solve."""
    def pull_back(tau, z):
        end, mat = flow_with_pushforward(FlowMap(v, 0.0, tau, solver), z)
        return np.linalg.solve(mat, eval_field(w, tau, end))

    direct = flow_map(FlowMap(add_fields(v, w), 0.0, t, solver), q)
    corrected = flow_time_dependent(pull_back, 0.0, t, q, solver)
    return float(np.linalg.norm(direct - flow_map(FlowMap(v, 0.0, t, solver), corrected)))


def outcome(fn):
    """The bytes of a result, or the type of the error it raised."""
    try:
        return np.asarray(fn()).tobytes()
    except (BlowUpError, np.linalg.LinAlgError) as err:
        return type(err).__name__


CATALOG_PAIRS = (heisenberg_fields(), brockett_fields(), unicycle_fields())


@st.composite
def field_pairs(draw):
    """A catalog pair, or two random autonomous fields of dimension 1 to 6."""
    if draw(st.booleans()):
        return draw(st.sampled_from(CATALOG_PAIRS))
    dim = draw(st.integers(1, 6))
    return tuple(VectorField.autonomous(draw(polynomial_maps(dim))) for _ in "vw")


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(field_pairs(), st.data())
def test_stacked_pull_backs_match_per_node_solves(pair, data):
    v, w = pair
    q = data.draw(st.lists(st.floats(-0.5, 0.5), min_size=v.dim, max_size=v.dim)
                  .map(np.array))
    t = data.draw(st.sampled_from((0.4, -0.4, 0.15)))
    t0, t1 = (0.0, t) if data.draw(st.booleans()) else (t, 0.0)
    sys = PerturbedSystem(v, w, t0, t1)
    solver = FlowSolver(40)
    assert outcome(lambda: param_derivative(sys, q, "out", solver, nodes=8)) == outcome(
        lambda: per_node_out_formula(sys, q, solver, 8))
    assert outcome(lambda: adjoint_check(v, w, q, t, solver, nodes=8)) == outcome(
        lambda: per_node_adjoint_check(v, w, q, t, solver, nodes=8))
    coarse = FlowSolver(20)
    assert outcome(lambda: variation_of_parameters_check(v, w, q, t, coarse)) == outcome(
        lambda: per_evaluation_vop(v, w, q, t, coarse))


def per_node_arrays(field, t0, times, q, solver):
    """Reference nodes: the chained pass as one array per state and one per segment
    pushforward, as the executor built them before it stacked a pass."""
    states, segments = _flow_core(field, t0, times, q, solver, True)
    return ([np.array(state) for state in states.tolist()],
            [np.array(mat) for mat in segments.tolist()])


def column_solve(field: VectorField, t0: float, t1: float, q, vector, solver: FlowSolver):
    """Reference: one solve of [t0, t1] whose matrix loop runs, part by part, from the
    matrix that is ``vector`` in its first column and zero elsewhere; the endpoint
    and that column."""
    n, step_base = field.dim, 0
    q, vector = list(q), list(vector)
    for a, b, pm in field.parts(t0, t1):
        n_steps = solver.step_count(a, b)
        start = np.zeros((n, n))
        start[:, 0] = vector
        q, mat = pm._variational_rk4(q, start.ravel().tolist(), a, (b - a) / n_steps, n_steps,
                                     solver.blowup_threshold, step_base)
        vector = np.array(mat).reshape(n, n)[:, 0].tolist()
        step_base += n_steps
    return np.array(q), np.array(vector)


def per_node_tangent(sys: PerturbedSystem, q, solver: FlowSolver, nodes: int):
    """Reference: param_derivative's "in" mode with one solve per node, each carrying the
    vector as a column of the matrix loop, and one eval_field and weight product per node."""
    xs, ws, _ = _quad_nodes(sys, nodes)
    point, vector = np.asarray(q, dtype=float), np.zeros(sys.base_field.dim)
    if not xs:
        return vector
    for start, tau, w in zip([sys.t0] + xs, xs, ws):
        point, vector = column_solve(sys.base_field, start, tau, point, vector, solver)
        vector = vector + w * eval_field(sys.perturbation_field, tau, point)
    return column_solve(sys.base_field, xs[-1], sys.t1, point, vector, solver)[1]


def per_node_param_derivative(sys: PerturbedSystem, q, mode: str, solver: FlowSolver,
                              nodes: int):
    """Reference: param_derivative with one eval_field and one weight product per node;
    "in" is ``per_node_tangent``."""
    if mode == "in":
        return per_node_tangent(sys, q, solver, nodes)
    dim = sys.base_field.dim
    xs, ws, _ = _quad_nodes(sys, nodes)
    if not xs:
        return np.zeros(dim)
    states, segments = per_node_arrays(sys.base_field, sys.t0, xs + [sys.t1], q, solver)
    contributions = [w * eval_field(sys.perturbation_field, tau, p)
                     for tau, w, p in zip(xs, ws, states)]
    total = np.zeros(dim)
    forwards = list(itertools.accumulate(segments, lambda f, m: m @ f,
                                         initial=np.eye(dim)))
    for value in _solve_columns(np.array(forwards[1:-1]), contributions):
        total += value
    return forwards[-1] @ total


def per_node_value_adjoint_check(v, w, q, t, solver: FlowSolver, nodes: int) -> float:
    """Reference: adjoint_check with one eval_field per node."""
    bracket = lie_bracket_field(v, w)
    xs, ws = gauss_legendre(0.0, t, nodes)
    states, segments = per_node_arrays(v, 0.0, list(xs) + [t], q, solver)
    forwards = list(itertools.accumulate(segments, lambda f, m: m @ f,
                                         initial=np.eye(v.dim)))
    values = [eval_field(bracket, 0.0, x_tau) for x_tau in states[:-1]]
    pulled = _solve_columns(np.array(forwards[1:]), values + [eval_field(w, 0.0, states[-1])])
    total = eval_field(w, 0.0, q).astype(float)
    for weight, value in zip(ws, pulled):
        total += weight * value
    return float(np.linalg.norm(pulled[-1] - total))


def per_node_transport(fm: FlowMap, pieces, r):
    """Reference: _transport with each piece called on the node's own array."""
    states, segments = per_node_arrays(fm.field, fm.t1, [fm.t0], r, fm.solver)
    return _solve_columns(segments[0], [piece(states[0]) for piece in pieces])


def per_node_vop(v, w, q, t, solver: FlowSolver) -> float:
    """Reference: variation_of_parameters_check through ``per_node_transport``."""
    direct = flow_map(FlowMap(add_fields(v, w), 0.0, t, solver), q)
    corrected = q
    for a, b, _ in v.parts(0.0, t):
        for s, e, pm in w.parts(a, b):
            corrected = flow_time_dependent(
                lambda tau, z: per_node_transport(FlowMap(v, tau, 0.0, solver), [pm], z)[0],
                s, e, corrected, solver)
    return float(np.linalg.norm(direct - flow_map(FlowMap(v, 0.0, t, solver), corrected)))


@st.composite
def windowed_fields(draw, dim: int, max_cuts: int):
    """An autonomous field, or up to ``max_cuts`` + 1 pieces on [-1, 1]."""
    cuts = sorted(draw(st.lists(st.sampled_from((-0.6, -0.25, 0.1, 0.3, 0.55)),
                                max_size=max_cuts, unique=True)))
    maps = [draw(polynomial_maps(dim)) for _ in range(len(cuts) + 1)]
    if not cuts:
        return VectorField.autonomous(maps[0])
    edges = [-1.0, *cuts, 1.0]
    return VectorField.piecewise(zip(edges, edges[1:], maps))


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(st.data())
def test_node_values_keep_the_bits_of_per_node_evaluation(data):
    # The stacked pass hands each consumer one array and node values come from the
    # compiled evaluator on its float rows; the parent formulation made one array and
    # one eval_field per node.  Both give the same bits, piecewise fields and both
    # time directions included; "in" is one tangent pass, against one solve per node
    dim = data.draw(dims)
    v = data.draw(windowed_fields(dim, 2))
    w = data.draw(windowed_fields(dim, 3))
    q = data.draw(st.lists(st.floats(-0.5, 0.5), min_size=dim, max_size=dim).map(np.array))
    t0, t1 = data.draw(st.sampled_from(((0.0, 0.7), (0.7, 0.0), (-0.8, 0.4), (0.4, -0.8))))
    solver = FlowSolver(40)
    sys = PerturbedSystem(v, w, t0, t1)
    for mode in ("in", "out"):
        assert outcome(lambda: param_derivative(sys, q, mode, solver, nodes=6)) == outcome(
            lambda: per_node_param_derivative(sys, q, mode, solver, 6))
    fm = FlowMap(v, t0, t1, solver)
    t_eval = data.draw(st.sampled_from((t0, t1, 0.3)))
    assert outcome(lambda: pushforward_field(fm, w, t_eval)(0.0, q)) == outcome(
        lambda: per_node_transport(fm, [w.piece_at(t_eval)], q)[0])
    coarse = FlowSolver(20)
    assert outcome(lambda: variation_of_parameters_check(v, w, q, t1, coarse)) == outcome(
        lambda: per_node_vop(v, w, q, t1, coarse))
    v_auto, w_auto = (VectorField.autonomous(f.pieces[-1][2]) for f in (v, w))
    assert outcome(lambda: adjoint_check(v_auto, w_auto, q, t1, solver, nodes=6)) == outcome(
        lambda: per_node_value_adjoint_check(v_auto, w_auto, q, t1, solver, 6))
