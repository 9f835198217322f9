"""Tests for flow maps, pushforwards, and inverse flows."""
import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from chronoflow import (
    BlowUpError,
    FlowMap,
    FlowSolver,
    Observable,
    PerturbedSystem,
    PolynomialMap,
    VectorField,
    adjoint_check,
    constant_field,
    eval_field,
    flow_map,
    flow_operator_apply,
    flow_pushforward,
    flow_time_dependent,
    flow_with_pushforward,
    heisenberg_fields,
    inverse_flow,
    linear_field,
    order_probe,
    param_derivative,
    pushforward_field,
    rotation2d,
    zero_field,
)
from chronoflow.flow import MAX_STEPS_PER_SOLVE, chained_trajectory

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


def test_time_dependent_flow_rejects_nan_state():
    with pytest.raises(BlowUpError) as info:
        flow_time_dependent(lambda t, x: np.array([np.nan]), 0.0, 1.0, [1.0],
                            FlowSolver(10))
    assert info.value.step == 1


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


def test_pushforward_field_is_marked_numerical():
    pf = pushforward_field(FlowMap(rotation2d(), 0.0, 0.5, SOLVER), rotation2d(), 0.0)
    assert pf.exact is False


def test_breakpoint_splitting_handles_backward_flow():
    field = piecewise_benchmark()
    fm = FlowMap(field, 1.2, 0.1, SOLVER)
    q = np.array([0.5, 0.5])
    back = flow_map(fm, q)
    again = flow_map(FlowMap(field, 0.1, 1.2, SOLVER), back)
    assert np.linalg.norm(again - q) <= 1e-8


@pytest.mark.parametrize("steps", [0, -5, 2.5])
def test_solver_rejects_non_positive_integer_density(steps):
    with pytest.raises(ValueError, match="positive integer"):
        FlowSolver(steps)


@pytest.mark.parametrize("threshold", [math.inf, math.nan, 0.0, -1.0, "1e12", None])
def test_solver_rejects_a_threshold_that_is_not_finite_and_positive(threshold):
    # inf would return [inf] for x' = x^2 over [0, 3], nan would switch the
    # threshold off, and 0 or less would report a blow-up at the first step
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


def test_chained_trajectory_matches_direct_solves():
    field = piecewise_benchmark()
    q = np.array([0.5, -0.2])
    times = [0.3, 0.7, 1.2]
    states, segments = chained_trajectory(field, 0.0, times, q, SOLVER, pushforward=True)
    product = np.eye(2)
    for t, state, mat in zip(times, states, segments):
        product = mat @ product
        end, direct = flow_with_pushforward(FlowMap(field, 0.0, t, SOLVER), q)
        assert np.linalg.norm(state - end) <= 1e-10
        assert np.linalg.norm(product - direct) <= 1e-10
    plain, none = chained_trajectory(field, 0.0, times, q, SOLVER)
    assert none == []
    assert_allclose(plain, states, rtol=0, atol=1e-14)


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

        def run(f, q, m, a, h, *rest):
            seen.append((type(a), type(h), {type(x) for x in q + m}))
            return rk4(f, q, m, a, h, *rest)

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
            chained_trajectory(field, cast(0.0), [cast(t) for t in times], q, solver,
                               pushforward=True),
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
