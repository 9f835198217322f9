"""Tests for flow maps, pushforwards, and inverse flows."""
import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from chronoflow import (
    AffineControlSystem,
    BlowUpError,
    BracketExpression,
    DimensionError,
    FlowMap,
    FlowSolver,
    Observable,
    PerturbedSystem,
    PolynomialMap,
    VectorField,
    add_fields,
    adjoint_check,
    apply_lift,
    constant_field,
    eval_field,
    field_jacobian,
    flow_map,
    flow_operator_apply,
    flow_pushforward,
    flow_time_dependent,
    flow_with_pushforward,
    bracket_asymptotics_check,
    flow_bracket,
    heisenberg_fields,
    integral_equation_residual,
    inverse_expansion_check,
    inverse_flow,
    lie_bracket,
    lie_bracket_field,
    linear_field,
    order_probe,
    param_derivative,
    pushforward_field,
    pushforward_invariance_check,
    remainder_eval,
    rotation2d,
    sample_lift_bound,
    simplex_integral_term,
    variation_of_parameters_check,
    volterra_truncate,
    zero_field,
)
from chronoflow import fields, flow
from chronoflow.flow import MAX_STEPS_PER_SOLVE, _flow_core

SOLVER = FlowSolver(steps_per_unit_time=1000)
V1, V2 = heisenberg_fields()


def rotation_matrix(t):
    return np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])


def piecewise_benchmark():
    """Rotation for t < 0.5, then a constant drift; window [0, 1.5]."""
    rot = PolynomialMap.linear([[0.0, -1.0], [1.0, 0.0]])
    drift = PolynomialMap.constants([1.0, 0.0], 2)
    return VectorField.piecewise([(0.0, 0.5, rot), (0.5, 1.5, drift)])


def test_flow_map_rotation_quarter_turn():
    fm = FlowMap(rotation2d(), 0.0, math.pi / 2, SOLVER)
    assert np.linalg.norm(flow_map(fm, [1.0, 0.0]) - np.array([0.0, 1.0])) <= 1e-8


def test_flow_map_identity_when_t1_equals_t0():
    fm = FlowMap(rotation2d(), 0.3, 0.3, SOLVER)
    q = np.array([2.0, -1.0])
    assert_allclose(flow_map(fm, q), q)


def test_flow_map_heisenberg_closed_form():
    fm = FlowMap(V1, 0.0, 1.0, SOLVER)
    assert np.linalg.norm(flow_map(fm, [0.0, 1.0, 0.0])
                          - np.array([1.0, 1.0, -0.5])) <= 1e-10


def test_flow_pushforward_rotation():
    fm = FlowMap(rotation2d(), 0.0, math.pi / 2, SOLVER)
    assert np.linalg.norm(flow_pushforward(fm, [1.0, 0.0])
                          - rotation_matrix(math.pi / 2)) <= 1e-8


def test_flow_pushforward_constant_field_is_identity():
    fm = FlowMap(constant_field([2.0, -3.0]), 0.0, 0.7, SOLVER)
    assert_allclose(flow_pushforward(fm, [0.1, 0.2]), np.eye(2), atol=1e-12)


def test_flow_pushforward_heisenberg_v1():
    fm = FlowMap(V1, 0.0, 1.0, SOLVER)
    expected = np.eye(3)
    expected[2, 1] = -0.5
    assert np.linalg.norm(flow_pushforward(fm, [0.3, 0.4, 0.5]) - expected) <= 1e-10


def test_inverse_flow_round_trip_rotation():
    fm = FlowMap(rotation2d(), 0.0, 0.7, SOLVER)
    q = np.array([1.0, 2.0])
    assert np.linalg.norm(inverse_flow(fm, flow_map(fm, q)) - q) <= 1e-8


def test_inverse_flow_heisenberg():
    fm = FlowMap(V1, 0.0, 1.0, SOLVER)
    assert np.linalg.norm(inverse_flow(fm, [1.0, 1.0, -0.5])
                          - np.array([0.0, 1.0, 0.0])) <= 1e-8


def test_inverse_flow_trivial():
    fm = FlowMap(V2, 0.4, 0.4, SOLVER)
    assert_allclose(inverse_flow(fm, [1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])


@pytest.mark.parametrize("field,dim", [
    (rotation2d(), 2),
    (V1, 3),
    (piecewise_benchmark(), 2),
])
def test_semigroup_property(field, dim):
    rng = np.random.default_rng(19)
    t0, s, t = 0.0, 0.3, 1.0
    for _ in range(20):
        q = rng.uniform(-1, 1, dim)
        via = flow_map(FlowMap(field, s, t, SOLVER),
                       flow_map(FlowMap(field, t0, s, SOLVER), q))
        direct = flow_map(FlowMap(field, t0, t, SOLVER), q)
        assert np.linalg.norm(via - direct) <= 1e-8


@pytest.mark.parametrize("field,dim", [
    (rotation2d(), 2),
    (V1, 3),
    (piecewise_benchmark(), 2),
])
def test_inverse_property(field, dim):
    rng = np.random.default_rng(23)
    fm = FlowMap(field, 0.0, 1.0, SOLVER)
    for _ in range(20):
        q = rng.uniform(-1, 1, dim)
        assert np.linalg.norm(inverse_flow(fm, flow_map(fm, q)) - q) <= 1e-8


def test_pushforward_chain_rule():
    field = rotation2d()
    q = np.array([1.0, 0.5])
    full = flow_pushforward(FlowMap(field, 0.0, 1.0, SOLVER), q)
    first = flow_with_pushforward(FlowMap(field, 0.0, 0.4, SOLVER), q)
    second = flow_pushforward(FlowMap(field, 0.4, 1.0, SOLVER), first[0])
    assert np.linalg.norm(full - second @ first[1]) <= 1e-7


def test_first_order_expansion_slope():
    field = rotation2d()
    q = np.array([1.0, 0.0])
    v0 = eval_field(field, 0.0, q)

    def residual(t):
        return float(np.linalg.norm(
            flow_map(FlowMap(field, 0.0, t, SOLVER), q) - q - t * v0
        ))

    estimate = order_probe(residual, 0.5, 8)
    assert estimate.fitted_slope >= 1.8


def test_order4_convergence():
    # Truncation-dominated densities; at 1000 steps/unit the error sits at
    # roundoff (~1e-14) where the ratio is unobservable.
    exact = np.array([math.cos(1.0), math.sin(1.0)])
    errs = {}
    for spu in (16, 32):
        end = flow_map(FlowMap(rotation2d(), 0.0, 1.0, FlowSolver(spu)), [1.0, 0.0])
        errs[spu] = np.linalg.norm(end - exact)
    assert errs[16] / errs[32] >= 8.0


@pytest.mark.parametrize("degree, step", [(2, 101), (3, 51), (4, 35), (6, 21), (9, 14)])
def test_blow_up_detection(degree, step):
    # x' = x^d from x = 1 escapes at t = 1/(d-1); the step that first crosses
    # the threshold is pinned.  For d = 4 and 9 an RK4 stage of that step
    # overflows float64, which must still end in BlowUpError, and quietly:
    # the error is the one report of the blow-up.
    pm = PolynomialMap(1, 1, [[(1.0, (degree,))]])
    field = VectorField.autonomous(pm)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for solve in (flow_map, flow_with_pushforward):
            with pytest.raises(BlowUpError) as info:
                solve(FlowMap(field, 0.0, 3.0, FlowSolver(100)), [1.0])
            assert info.value.step == step
    assert caught == []


@pytest.mark.parametrize("x0, t, step", [(2e154, 1.0, 1), (1.3e154, 1.0, 7),
                                         (-1.3e154, -1.0, 7)])
def test_overflowing_field_term_blows_up_where_its_jacobian_stays_finite(x0, t, step):
    # x' = c x^2 with c = 3.8e-155: x^2 overflows past |x| = 1.34e154, where the
    # Jacobian 2 c x is about 1; the variational loop inlines the field, so its own
    # power overflows there, and it must stop at the plain flow's step and time
    pm = PolynomialMap(1, 1, [[(3.8e-155, (2,))]])
    fm = FlowMap(VectorField.autonomous(pm), 0.0, t, FlowSolver(100, blowup_threshold=1e300))
    stops = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for solve in (flow_map, flow_with_pushforward):
            with pytest.raises(BlowUpError) as info:
                solve(fm, [x0])
            stops.append((info.value.step, info.value.t))
    assert stops == [(step, pytest.approx(step * t / 100))] * 2
    assert stops[0][1] == stops[1][1]
    assert caught == []


def test_a_replaced_evaluator_runs_each_variational_stage():
    # the variational loop inlines the field; where a map's evaluator was replaced
    # (an instrumented one that counts steps), the loop calls it at each stage
    # instead, with the bits of the inlined loop
    def build():
        return PolynomialMap(2, 2, [[(-1.0, (0, 1)), (0.3, (2, 0))], [(1.0, (1, 0))]])

    calls = []
    counted = build()
    evaluate = counted._evaluator
    counted._evaluator = lambda x: calls.append(x) or evaluate(x)
    ends = [flow_with_pushforward(FlowMap(VectorField.autonomous(pm), 0.0, 0.37,
                                          FlowSolver(100)), [0.4, -0.1])
            for pm in (build(), counted)]
    assert len(calls) == 4 * 37
    assert _bits(ends[0]) == _bits(ends[1])


def test_a_replaced_evaluator_runs_each_plain_stage():
    # the plain loop holds no field and calls the map's evaluator, replaced or not
    pm = PolynomialMap(2, 2, [[(-1.0, (0, 1)), (0.3, (2, 0))], [(1.0, (1, 0))]])
    fm = FlowMap(VectorField.autonomous(pm), 0.0, 0.37, FlowSolver(100))
    before = flow_map(fm, [0.4, -0.1])
    calls = []
    evaluate = pm._evaluator
    pm._evaluator = lambda x: calls.append(x) or evaluate(x)
    assert _bits(flow_map(fm, [0.4, -0.1])) == _bits(before)
    assert len(calls) == 4 * 37


def test_non_finite_pushforward_raises():
    # x' = 60 y, y' = 60 x from the origin: the state stays at 0, so only the
    # pushforward, growing like e^(60 t), can report the blow-up
    pm = PolynomialMap(2, 2, [[(60.0, (0, 1))], [(60.0, (1, 0))]])
    fm = FlowMap(VectorField.autonomous(pm), 0.0, 13.0, SOLVER)
    assert flow_map(fm, [0.0, 0.0]).tolist() == [0.0, 0.0]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(BlowUpError) as info:
            flow_with_pushforward(fm, [0.0, 0.0])
    assert (info.value.step, info.value.t) == (11744, pytest.approx(11.744))
    assert caught == []


def test_time_dependent_flow_blows_up_at_the_same_step():
    pm = PolynomialMap(1, 1, [[(1.0, (2,))]])
    with pytest.raises(BlowUpError) as plain:
        flow_map(FlowMap(VectorField.autonomous(pm), 0.0, 3.0, FlowSolver(100)), [1.0])
    with pytest.raises(BlowUpError) as timed:
        flow_time_dependent(lambda t, x: pm(x), 0.0, 3.0, [1.0], FlowSolver(100))
    assert (timed.value.step, timed.value.t) == (plain.value.step, plain.value.t)
    assert timed.value.step == 101
    assert str(timed.value) == str(plain.value)


def test_time_dependent_flow_rejects_a_value_of_another_length():
    # the loop unpacks one value per coordinate, where a numpy stepper would broadcast
    with pytest.raises(ValueError, match="values to unpack"):
        flow_time_dependent(lambda t, x: np.array([1.0]), 0.0, 1.0, [0.1, 0.2, 0.3],
                            FlowSolver(100))


def test_time_dependent_flow_steps_a_complex_value_in_complex():
    # x' = i x from 1: the value's imaginary part is kept, not cast away
    end = flow_time_dependent(lambda t, x: 1j * x, 0.0, 0.5, [1.0], FlowSolver(100))
    assert abs(end[0] - np.exp(0.5j)) <= 1e-9


def test_time_dependent_loop_steps_on_python_floats(monkeypatch):
    # the evaluator gets a numpy array of each stage point; the loop gets the start
    # and each value as Python floats, so that no stage point is a numpy scalar
    timed, floats, arrays = fields._compiled("timed", 2), [], []

    def spy(f, q, *rest):
        def stage(t, x):
            value = f(t, x)
            floats.extend([x, value])
            return value

        floats.append(q)
        return timed(stage, q, *rest)

    def evaluator(t, x):
        arrays.append(x)
        return np.array([-x[1], t * x[0]])

    monkeypatch.setattr(flow, "_compiled", lambda kind, key: spy if kind == "timed"
                        else fields._compiled(kind, key))
    end = flow_time_dependent(evaluator, 0.0, 0.5, np.array([0.7, -0.4]), FlowSolver(10))
    assert len(floats) == 1 + 2 * 4 * 5 and len(arrays) == 4 * 5
    assert all(type(v) is list and all(type(c) is float for c in v) for v in floats)
    assert all(type(x) is np.ndarray for x in arrays)
    assert type(end) is np.ndarray and end.dtype == float


def test_time_dependent_flow_rejects_nan_state():
    with pytest.raises(BlowUpError) as info:
        flow_time_dependent(lambda t, x: np.array([np.nan]), 0.0, 1.0, [1.0],
                            FlowSolver(10))
    assert info.value.step == 1


@pytest.mark.parametrize("t0,t1", [(math.nan, 1.0), (0.0, math.nan), (math.inf, 1.0),
                                   (0.0, math.inf), (-math.inf, 1.0), (0.0, -math.inf),
                                   (math.inf, math.inf), (math.nan, math.nan)])
def test_time_dependent_flow_rejects_non_finite_times(t0, t1):
    # checked before the t1 == t0 shortcut, which [inf, inf] would take, and before
    # the step count, which would name a NaN end "nan RK4 steps"
    with pytest.raises(ValueError, match=r"^flow times must be finite, got \[") as info:
        flow_time_dependent(lambda t, x: -x, t0, t1, [1.0], FlowSolver(10))
    assert str(info.value) == f"flow times must be finite, got [{t0}, {t1}]"


def test_flow_operator_apply_rotation():
    phi = Observable.coordinate(2, 0)
    fm = FlowMap(rotation2d(), 0.0, math.pi / 2, SOLVER)
    assert abs(flow_operator_apply(fm, phi, [1.0, 0.0])[0]) <= 1e-8


def test_flow_operator_apply_constant_observable():
    phi = Observable.constant([4.5], 3)
    fm = FlowMap(V1, 0.0, 0.8, SOLVER)
    assert_allclose(flow_operator_apply(fm, phi, [0.0, 1.0, 0.0]), [4.5])


def test_flow_operator_apply_heisenberg_height():
    phi = Observable.coordinate(3, 2)
    fm = FlowMap(V1, 0.0, 1.0, SOLVER)
    assert abs(flow_operator_apply(fm, phi, [0.0, 1.0, 0.0])[0] + 0.5) <= 1e-8


def test_pushforward_field_invariant_under_own_flow():
    # P_s composed with P_t commutes, so the field transports to itself.
    field = rotation2d()
    pf = pushforward_field(FlowMap(field, 0.0, 0.6, SOLVER), field, 0.0)
    rng = np.random.default_rng(3)
    for _ in range(5):
        r = rng.uniform(-1, 1, 2)
        assert np.linalg.norm(pf(0.0, r) - eval_field(field, 0.0, r)) <= 1e-6


def test_pushforward_field_identity_flow():
    field = rotation2d()
    pf = pushforward_field(FlowMap(field, 0.2, 0.2, SOLVER), field, 0.0)
    r = np.array([0.4, -0.9])
    assert_allclose(pf(0.0, r), eval_field(field, 0.0, r), atol=1e-12)


def test_pushforward_field_translation_conjugates_linear():
    a = np.array([[0.0, 1.0], [0.5, -0.25]])
    c = np.array([0.3, -0.7])
    s = 0.8
    pf = pushforward_field(FlowMap(constant_field(c), 0.0, s, SOLVER),
                           linear_field(a), 0.0)
    r = np.array([0.4, 1.1])
    assert np.linalg.norm(pf(0.0, r) - a @ (r - s * c)) <= 1e-9


@pytest.mark.parametrize("entry", [
    lambda pf: apply_lift(pf, 0.0, Observable.identity(2)),
    lambda pf: lie_bracket_field(rotation2d(), pf),
    lambda pf: AffineControlSystem.of([rotation2d(), pf]),
    lambda pf: flow_map(FlowMap(pf, 0.0, 0.5, SOLVER), [0.7, -0.4]),
    lambda pf: eval_field(pf, 0.0, [0.7, -0.4]),
    lambda pf: field_jacobian(pf, 0.0, [0.7, -0.4]),
    lambda pf: add_fields(rotation2d(), pf),
    lambda pf: add_fields(pf, rotation2d()),
    lambda pf: adjoint_check(rotation2d(), pf, [0.7, -0.4], 0.5, SOLVER),
    lambda pf: adjoint_check(pf, rotation2d(), [0.7, -0.4], 0.5, SOLVER),
    lambda pf: remainder_eval(pf, Observable.identity(2), [0.7, -0.4], 0.0, 0.5, 1, SOLVER),
    lambda pf: volterra_truncate(pf, Observable.identity(2), [0.7, -0.4], 0.0, 0.5, 2),
    lambda pf: simplex_integral_term(pf, Observable.identity(2), [0.7, -0.4], 0.0, 0.5, 1),
    lambda pf: integral_equation_residual(pf, Observable.identity(2), [0.7, -0.4], 0.0, 0.5,
                                          SOLVER),
    lambda pf: sample_lift_bound(pf, Observable.identity(2), 1, [0.7, -0.4], 0.5),
    lambda pf: inverse_expansion_check(pf, [0.7, -0.4], 0.2, 4, SOLVER),
    lambda pf: PerturbedSystem(pf, rotation2d(), 0.0, 0.5),
    lambda pf: PerturbedSystem(rotation2d(), pf, 0.0, 0.5),
    lambda pf: flow_bracket(BracketExpression.parse("[V1,V2]"), [rotation2d(), pf], 0.1,
                            [0.7, -0.4], SOLVER),
    lambda pf: bracket_asymptotics_check(BracketExpression.parse("[V1,V2]"),
                                         [rotation2d(), pf], [0.7, -0.4], 0.2, 4, SOLVER),
    lambda pf: pushforward_invariance_check(FlowMap(rotation2d(), 0.0, 0.5, SOLVER), pf,
                                            rotation2d(), [0.7, -0.4]),
    lambda pf: variation_of_parameters_check(pf, rotation2d(), [0.7, -0.4], 0.5, SOLVER),
    lambda pf: lie_bracket(pf, rotation2d(), 0.0, [0.7, -0.4]),
], ids=["apply_lift", "lie_bracket_field", "AffineControlSystem.of", "FlowMap", "eval_field",
        "field_jacobian", "add_fields-w", "add_fields-v", "adjoint_check-w", "adjoint_check-v",
        "remainder_eval", "volterra_truncate", "simplex_integral_term",
        "integral_equation_residual", "sample_lift_bound", "inverse_expansion_check",
        "PerturbedSystem-v", "PerturbedSystem-w", "flow_bracket", "bracket_asymptotics_check",
        "pushforward_invariance_check-v", "variation_of_parameters_check-v", "lie_bracket-v"])
def test_exact_paths_reject_a_pushforward_field(entry):
    # a transported field is an evaluator (t, r) -> vector with no exact derivatives;
    # the check runs before any attribute of it (dim, is_autonomous) is read
    pf = pushforward_field(FlowMap(rotation2d(), 0.0, 0.5, SOLVER), rotation2d(), 0.0)
    with pytest.raises(TypeError, match="exact polynomial fields"):
        entry(pf)


def test_flow_time_dependent_solves_a_pushforward_field():
    # the rotation transported by its own flow is the rotation, so its solve is the flow's
    solver = FlowSolver(100)
    pf = pushforward_field(FlowMap(rotation2d(), 0.0, 0.6, solver), rotation2d(), 0.0)
    q = [0.7, -0.4]
    got = flow_time_dependent(pf, 0.0, 0.5, q, solver)
    assert np.max(np.abs(got - flow_map(FlowMap(rotation2d(), 0.0, 0.5, solver), q))) <= 1e-12
    with pytest.raises(DimensionError):
        pf(0.0, [0.7, -0.4, 0.1])


def test_breakpoint_splitting_handles_backward_flow():
    field = piecewise_benchmark()
    fm = FlowMap(field, 1.2, 0.1, SOLVER)
    q = np.array([0.5, 0.5])
    back = flow_map(fm, q)
    again = flow_map(FlowMap(field, 0.1, 1.2, SOLVER), back)
    assert np.linalg.norm(again - q) <= 1e-8


@pytest.mark.parametrize("steps", [0, -5, 2.5, True])
def test_solver_rejects_non_positive_integer_density(steps):
    with pytest.raises(ValueError, match="positive integer"):
        FlowSolver(steps)


@pytest.mark.parametrize("threshold", [math.inf, math.nan, 0.0, -1.0, "1e12", None, True])
def test_solver_rejects_a_threshold_that_is_not_finite_and_positive(threshold):
    # inf would return [inf] for x' = x^2 over [0, 3], nan would switch the
    # threshold off, 0 or less would report a blow-up at the first step, and
    # True would pass as a threshold of 1.0
    with pytest.raises(ValueError, match="blowup_threshold must be finite and positive"):
        FlowSolver(100, blowup_threshold=threshold)


def test_solver_rejects_disabled_breakpoint_splitting():
    # Splitting is not an option: without it, +1 on [0, 1] then -1 on [1, 2]
    # would flow 0 to -2.
    for splitting in (True, False):
        with pytest.raises(TypeError, match="breakpoint_splitting"):
            FlowSolver(100, breakpoint_splitting=splitting)


@pytest.mark.parametrize("t0,t1", [(0.0, math.inf), (-math.inf, 0.0), (0.0, math.nan)])
def test_flow_map_rejects_non_finite_times(t0, t1):
    with pytest.raises(ValueError, match="finite"):
        FlowMap(rotation2d(), t0, t1, SOLVER)


def test_one_pass_through_nodes_matches_direct_solves():
    field = piecewise_benchmark()
    q = np.array([0.5, -0.2])
    times = [0.3, 0.7, 1.2]
    states, segments = _flow_core(field, 0.0, times, q, SOLVER, True)
    product = np.eye(2)
    for t, state, mat in zip(times, states, segments):
        product = mat @ product
        end, direct = flow_with_pushforward(FlowMap(field, 0.0, t, SOLVER), q)
        assert np.linalg.norm(state - end) <= 1e-10
        assert np.linalg.norm(product - direct) <= 1e-10
    plain, none = _flow_core(field, 0.0, times, q, SOLVER)
    assert none == []
    assert_allclose(plain, states, rtol=0, atol=1e-14)


@pytest.mark.parametrize("times", [[0.3, 0.7, 1.2], [1.4, 0.2], [0.4], [0.4, 0.4], []])
def test_chained_trajectory_stacks_each_pass_once(times):
    # one (N, n) array of states and one (N, n, n) array of segment pushforwards,
    # zero rows for no times; the no-pushforward pass returns no matrices
    field, q = piecewise_benchmark(), np.array([0.5, -0.2])
    states, segments = _flow_core(field, 0.0, times, q, SOLVER, True)
    assert states.shape == (len(times), 2) and states.dtype == np.float64
    assert segments.shape == (len(times), 2, 2) and segments.dtype == np.float64
    plain, none = _flow_core(field, 0.0, times, q, SOLVER)
    assert plain.shape == (len(times), 2) and none == []
    assert np.array_equal(plain, states)


def test_only_a_plain_pass_looks_up_the_plain_loop(monkeypatch):
    # a variational or tangent pass never runs the plain loop of its dimension, so it
    # compiles none; a plain pass looks it up once, not once per part
    fields._compiled.cache_clear()
    kinds, lookups = [], []
    source, compiled = fields._rk4_source, flow._compiled
    monkeypatch.setattr(fields, "_rk4_source",
                        lambda kind, *rest: kinds.append(kind) or source(kind, *rest))
    monkeypatch.setattr(flow, "_compiled",
                        lambda kind, key: lookups.append(kind) or compiled(kind, key))
    edges = np.linspace(0.0, 1.0, 11).tolist()
    base = VectorField.piecewise([(a, b, PolynomialMap.linear(np.eye(4) * (1.0 + a)))
                                  for a, b in zip(edges, edges[1:])])
    q = [0.1, -0.2, 0.3, 0.4]
    flow_with_pushforward(FlowMap(base, 0.0, 1.0, SOLVER), q)
    param_derivative(PerturbedSystem(base, constant_field([1.0, 0.0, 0.0, 0.5]), 0.0, 1.0),
                     q, "in", SOLVER)
    assert "plain" not in kinds and lookups == []
    flow_map(FlowMap(base, 0.0, 1.0, SOLVER), q)
    assert kinds.count("plain") == 1 and lookups == ["plain"]


def _bits(value) -> bytes:
    """The bytes of every float in a nest of lists, tuples and arrays."""
    if isinstance(value, (list, tuple)):
        return b"".join(_bits(v) for v in value)
    return np.asarray(value, dtype=float).tobytes()


def test_float64_times_run_the_generated_loop_on_floats(monkeypatch):
    # Quadrature nodes arrive as np.float64, and a field's breakpoints may be
    # numpy scalars too.  The executor takes every time as a Python float, so
    # the generated loop never does numpy scalar arithmetic, and np.float64
    # times give the bits of Python float times.
    seen = []
    generated = PolynomialMap._variational_rk4

    def checked(pm):
        rk4 = generated.__get__(pm, PolynomialMap)

        def run(q, m, a, h, *rest):
            seen.append((type(a), type(h), {type(x) for x in q + m}))
            return rk4(q, m, a, h, *rest)

        return run

    monkeypatch.setattr(PolynomialMap, "_variational_rk4", property(checked))
    solver = FlowSolver(200)
    q = np.array([0.5, -0.2])
    times = [0.3, 0.3, 0.7, 1.2]
    for cast in (float, np.float64):
        field = VectorField.piecewise([(cast(a), cast(b), pm)
                                       for a, b, pm in piecewise_benchmark().pieces])
        fm = FlowMap(field, cast(1.3), cast(0.1), solver)
        results = [
            flow_with_pushforward(fm, q),
            _flow_core(field, cast(0.0), [cast(t) for t in times], q, solver, True),
            [param_derivative(PerturbedSystem(V1, V2, cast(0.0), cast(0.5)),
                              [0.1, 0.2, 0.3], mode, solver) for mode in ("in", "out")],
            adjoint_check(V1, V2, [0.1, 0.2, 0.3], cast(0.3), solver),
        ]
        if cast is float:
            expected = _bits(results)
        else:
            assert _bits(results) == expected
    assert seen
    assert all(kinds == (float, float, {float}) for kinds in seen)


def _chain(dim):
    """Component i is -x_i + 0.5 x_i x_{i-1}: one Jacobian band below the diagonal."""
    def unit(*vars_):
        return tuple(int(v in vars_) for v in range(dim))

    return VectorField.autonomous(PolynomialMap(dim, dim, [
        [(-1.0, unit(i))] + ([(0.5, unit(i, i - 1))] if i else []) for i in range(dim)]))


def test_pushforward_compiles_at_dimension_64():
    # The finiteness test of the generated loop sums 64 x 64 matrix entries,
    # over CPython's compiler limit for one + chain, so it is emitted in chunks.
    fm = FlowMap(_chain(64), 0.0, 0.1, FlowSolver(100))
    q = np.full(64, 0.1)
    end, mat = flow_with_pushforward(fm, q)
    assert end.tobytes() == flow_map(fm, q).tobytes()
    assert np.all(np.isfinite(mat))
    assert abs(mat[0, 0] - math.exp(-0.1)) <= 1e-8


def test_zero_field_flow_is_identity():
    fm = FlowMap(zero_field(3), 0.0, 2.0, SOLVER)
    q = np.array([1.0, -1.0, 0.5])
    assert_allclose(flow_map(fm, q), q)


def test_step_count_ceiling():
    solver = FlowSolver(1000)
    limit = MAX_STEPS_PER_SOLVE // 1000
    assert solver.step_count(0.0, limit) == MAX_STEPS_PER_SOLVE
    for a, b in [(0.0, 2.0 * limit), (1e300, -1e300), (-1e308, 1e308)]:
        with pytest.raises(ValueError, match="limit"):
            solver.step_count(a, b)
    with pytest.raises(ValueError, match="limit"):
        flow_map(FlowMap(heisenberg_fields()[0], 0.0, 1e300, solver), [0.1, 0.2, 0.3])
