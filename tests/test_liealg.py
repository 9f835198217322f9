"""Tests for brackets, bracket expressions, and commutators of flows."""
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import chronoflow.flow
from chronoflow import (
    BracketExpression,
    ControlSchedule,
    FlowMap,
    FlowSolver,
    PolynomialMap,
    Segment,
    VectorField,
    adjoint_check,
    bracket_asymptotics_check,
    bracket_program,
    brockett_fields,
    constant_field,
    eval_bracket_expression,
    finite_difference_jacobian,
    flow_bracket,
    flow_map,
    heisenberg_fields,
    inverse_expansion_check,
    inverse_flow,
    lie_bracket,
    lie_bracket_field,
    linear_field,
    pushforward_field,
    pushforward_invariance_check,
    rotation2d,
)

SOLVER = FlowSolver(1000)
V1, V2 = heisenberg_fields()


def planar_shear_pair():
    """X = (1, 0), Y = (0, x^2); their bracket is (0, 2x)."""
    x_field = constant_field([1.0, 0.0])
    y_field = VectorField.autonomous(PolynomialMap(2, 2, [[], [(1.0, (2, 0))]]))
    return x_field, y_field


def test_lie_bracket_heisenberg():
    for q in ([0.0, 0.0, 0.0], [1.0, -2.0, 5.0]):
        assert_allclose(lie_bracket(V1, V2, 0.0, q), [0.0, 0.0, 1.0])


def test_lie_bracket_self_is_zero():
    assert_allclose(lie_bracket(V1, V1, 0.0, [0.3, 0.6, 0.9]), np.zeros(3))


def test_lie_bracket_linear_fields_matrix_commutator():
    a = np.array([[0.0, 1.0], [-2.0, 0.5]])
    b = np.array([[1.0, 0.0], [3.0, -1.0]])
    q = np.array([0.7, -0.4])
    value = lie_bracket(linear_field(a), linear_field(b), 0.0, q)
    assert np.linalg.norm(value - (b @ a - a @ b) @ q) <= 1e-12


def test_lie_bracket_antisymmetry_exact():
    forward = lie_bracket_field(V1, V2)
    backward = lie_bracket_field(V2, V1)
    assert forward.pieces[0][2] == backward.pieces[0][2].scaled(-1.0)


def test_jacobi_identity_exact():
    fields = [V1, V2, lie_bracket_field(V1, V2)]
    x, y, z = fields
    total = (
        lie_bracket_field(x, lie_bracket_field(y, z)).pieces[0][2]
        .add(lie_bracket_field(y, lie_bracket_field(z, x)).pieces[0][2])
        .add(lie_bracket_field(z, lie_bracket_field(x, y)).pieces[0][2])
    )
    assert total == PolynomialMap.zeros(3, 3)
    rng = np.random.default_rng(1)
    for _ in range(5):
        q = rng.uniform(-1, 1, 3)
        assert np.linalg.norm(total(q)) <= 1e-12


def test_bracket_requires_exact_fields():
    numerical = pushforward_field(FlowMap(rotation2d(), 0.0, 0.3, SOLVER),
                                  rotation2d(), 0.0)
    with pytest.raises(TypeError):
        lie_bracket_field(numerical, rotation2d())


def test_eval_bracket_expression_leaf():
    expr = BracketExpression.leaf(1)
    q = [0.4, 1.2, -0.3]
    assert_allclose(eval_bracket_expression(expr, [V1, V2], 0.0, q),
                    [1.0, 0.0, -0.6])


def test_eval_bracket_expression_degree3_vanishes_on_heisenberg():
    expr = BracketExpression.parse("[[V1,V2],V1]")
    assert_allclose(eval_bracket_expression(expr, [V1, V2], 0.0, [1.0, 2.0, 3.0]),
                    np.zeros(3), atol=1e-15)


def test_eval_bracket_expression_nested_linear_matrices():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    b = np.array([[0.0, 0.0], [1.0, 0.0]])
    c = np.array([[1.0, 0.0], [0.0, -1.0]])
    fields = [linear_field(a), linear_field(b), linear_field(c)]
    expr = BracketExpression.parse("[[V1,V2],V3]")
    q = np.array([0.3, 0.9])
    ab = b @ a - a @ b
    expected = (c @ ab - ab @ c) @ q
    assert np.linalg.norm(
        eval_bracket_expression(expr, fields, 0.0, q) - expected) <= 1e-12


def test_eval_bracket_expression_index_out_of_range():
    expr = BracketExpression.parse("[V1,V3]")
    with pytest.raises(IndexError):
        eval_bracket_expression(expr, [V1, V2], 0.0, [0.0, 0.0, 0.0])


def test_parse_and_canonical_string():
    expr = BracketExpression.parse(" [ [V1, V2 ], V1 ] ")
    assert str(expr) == "[[V1,V2],V1]"
    assert expr.degree == 3
    assert BracketExpression.parse("V12").index == 12
    with pytest.raises(ValueError):
        BracketExpression.parse("[V1,V2")
    with pytest.raises(ValueError):
        BracketExpression.parse("W1")


def test_program_structure_and_net_time():
    leaf = bracket_program(BracketExpression.parse("V1"), 0.37)
    assert leaf == ControlSchedule((Segment(1, 1, 0.37),))
    deg2 = bracket_program(BracketExpression.parse("[V1,V2]"), 0.37)
    assert [(s.field_index, s.sign) for s in deg2.segments] == [
        (1, 1), (2, 1), (1, -1), (2, -1)
    ]
    deg3 = bracket_program(BracketExpression.parse("[[V1,V2],V1]"), 0.37)
    assert len(deg3.segments) == 2 * (4 + 1)
    for program in (deg2, deg3):
        for index in (1, 2):
            net = sum(s.sign * s.duration for s in program.segments if s.field_index == index)
            assert abs(net) <= 1e-15


def test_flow_bracket_heisenberg_exact_square():
    for t in (0.05, 0.1, 0.2):
        end = flow_bracket(BracketExpression.parse("[V1,V2]"), [V1, V2], t,
                           [0.0, 0.0, 0.0], SOLVER)
        assert np.linalg.norm(end - np.array([0.0, 0.0, t * t])) <= 1e-8


def test_flow_bracket_commuting_constants_is_identity():
    fields = [constant_field([1.0, 0.0]), constant_field([0.0, 1.0])]
    q = np.array([0.4, -0.2])
    end = flow_bracket(BracketExpression.parse("[V1,V2]"), fields, 0.3, q, SOLVER)
    assert np.linalg.norm(end - q) <= 1e-12


def test_flow_bracket_shear_pair_closed_form():
    fields = planar_shear_pair()
    t = 0.1
    end = flow_bracket(BracketExpression.parse("[V1,V2]"), fields, t,
                       [1.0, 0.0], SOLVER)
    assert np.linalg.norm(end - np.array([1.0, 2 * t ** 2 + t ** 3])) <= 1e-9


def test_bracket_asymptotics_heisenberg_degenerate():
    estimate = bracket_asymptotics_check(BracketExpression.parse("[V1,V2]"),
                                         [V1, V2], [0.0, 0.0, 0.0], 0.2, 8,
                                         SOLVER)
    assert estimate.degenerate
    assert estimate.passes_order(2)


def test_bracket_asymptotics_shear_pair_cubic():
    estimate = bracket_asymptotics_check(BracketExpression.parse("[V1,V2]"),
                                         planar_shear_pair(), [1.0, 0.0], 0.2, 8,
                                         SOLVER)
    assert abs(estimate.fitted_slope - 3.0) <= 0.2
    assert estimate.passes_order(2)


def test_bracket_asymptotics_degree_one_leaf():
    estimate = bracket_asymptotics_check(BracketExpression.parse("V1"),
                                         (rotation2d(),), [1.0, 0.0], 0.4, 8,
                                         SOLVER)
    assert estimate.degenerate or estimate.fitted_slope >= 1.5


def test_bracket_asymptotics_respects_smoothness_cap():
    low = VectorField.autonomous(rotation2d().pieces[0][2], smoothness_order=1)
    with pytest.raises(ValueError):
        bracket_asymptotics_check(BracketExpression.parse("[V1,V1]"),
                                  [low], [1.0, 0.0], 0.2, 8, SOLVER)


def test_inverse_expansion_constant_field_degenerate():
    estimate = inverse_expansion_check(constant_field([2.0, 1.0]), [0.1, 0.2],
                                       0.4, 8, SOLVER)
    assert estimate.degenerate


def test_inverse_expansion_rotation_slope_two():
    estimate = inverse_expansion_check(rotation2d(), [1.0, 0.0], 0.4, 8, SOLVER)
    assert estimate.fitted_slope >= 1.8
    assert abs(estimate.fitted_slope - 2.0) <= 0.2


def test_inverse_expansion_heisenberg_degenerate():
    estimate = inverse_expansion_check(V1, [0.0, 1.0, 0.0], 0.4, 8, SOLVER)
    assert estimate.degenerate


def test_adjoint_check_self_field():
    solver = FlowSolver(300)
    assert adjoint_check(V1, V1, [0.2, -0.1, 0.4], 0.3, solver) <= 1e-6


def test_adjoint_check_zero_time():
    assert adjoint_check(V1, V2, [0.0, 0.0, 0.0], 0.0, FlowSolver(300)) <= 1e-12


def test_adjoint_check_heisenberg():
    assert adjoint_check(V1, V2, [0.0, 0.0, 0.0], 0.2, FlowSolver(300)) <= 1e-4


def test_adjoint_check_negative_time():
    assert adjoint_check(V1, V2, [0.1, -0.2, 0.3], -0.3, FlowSolver(300)) <= 1e-9


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_adjoint_check_names_an_invalid_time_once(t):
    # checked at entry, before the quadrature spreads t over 16 node times
    with pytest.raises(ValueError) as info:
        adjoint_check(V1, V2, [0.0, 0.0, 0.0], t, FlowSolver(300))
    assert str(info.value) == f"flow times must be finite, got [0.0, {t}]"


@pytest.mark.parametrize("t", [0.4, -0.4])
def test_adjoint_check_random_field(random_field, t):
    v, w = random_field(11, 3, 3), random_field(12, 3, 3)
    assert adjoint_check(v, w, [0.2, -0.1, 0.3], t, FlowSolver(300)) <= 1e-9


def test_pushforward_invariance_identity_flow():
    fm = FlowMap(V1, 0.0, 0.0, SOLVER)
    assert pushforward_invariance_check(fm, V1, V2, [0.1, 0.2, 0.0]) <= 1e-6


def test_pushforward_invariance_heisenberg():
    fm = FlowMap(V1, 0.0, 0.3, SOLVER)
    assert pushforward_invariance_check(fm, V1, V2, [0.1, 0.2, 0.0]) <= 1e-5


def test_pushforward_invariance_commuting_constants():
    fields = [constant_field([1.0, 0.0]), constant_field([0.0, 1.0])]
    fm = FlowMap(fields[0], 0.0, 0.5, SOLVER)
    assert pushforward_invariance_check(fm, fields[0], fields[1],
                                        [0.3, 0.4]) <= 1e-9


def commutator_decomposition_residual(x_field: VectorField, y_field: VectorField,
                                      t: float, q, solver: FlowSolver) -> float:
    """Reference: the exact operator decomposition of a degree-2 flow commutator.

    Writing P^{-1} = Id - A1, P = Id + A2, Q^{-1} = Id - B1, Q = Id + B2
    for the two flows at parameter t, the commutator operator equals
    Id - B2 A1 + A1 B1 + R with
    R = B2 A1 B1 - A2 B2 A1 + A2 A1 B1 + A2 B2 A1 B1.
    All pieces are assembled from the same four flow maps and applied to
    the identity observable at q; the return value is the norm of the
    difference from the directly-composed commutator endpoint.
    """
    point = np.asarray(q, dtype=float)
    p_map = FlowMap(x_field, 0.0, t, solver)
    q_map = FlowMap(y_field, 0.0, t, solver)

    fwd_p = lambda p: flow_map(p_map, p)
    inv_p = lambda p: inverse_flow(p_map, p)
    fwd_q = lambda p: flow_map(q_map, p)
    inv_q = lambda p: inverse_flow(q_map, p)

    # Operators act on observables phi: point -> vector.
    a1 = lambda phi: (lambda p: phi(p) - phi(inv_p(p)))
    a2 = lambda phi: (lambda p: phi(fwd_p(p)) - phi(p))
    b1 = lambda phi: (lambda p: phi(p) - phi(inv_q(p)))
    b2 = lambda phi: (lambda p: phi(fwd_q(p)) - phi(p))

    def compose(*ops):
        def apply(phi):
            for op in reversed(ops):
                phi = op(phi)
            return phi
        return apply

    identity = lambda p: p
    remainder = lambda phi: (lambda p:
                             compose(b2, a1, b1)(phi)(p)
                             - compose(a2, b2, a1)(phi)(p)
                             + compose(a2, a1, b1)(phi)(p)
                             + compose(a2, b2, a1, b1)(phi)(p))
    assembled = (point
                 - compose(b2, a1)(identity)(point)
                 + compose(a1, b1)(identity)(point)
                 + remainder(identity)(point))

    direct = inv_q(inv_p(fwd_q(fwd_p(point))))
    return float(np.linalg.norm(assembled - direct))


@pytest.mark.parametrize("t", [0.1, 0.2])
def test_commutator_decomposition_residual(t):
    solver = FlowSolver(400)
    assert commutator_decomposition_residual(V1, V2, t, [0.1, 0.2, 0.0],
                                             solver) <= 1e-8
    x_field, y_field = planar_shear_pair()
    assert commutator_decomposition_residual(x_field, y_field, t, [1.0, 0.0],
                                             solver) <= 1e-8


def _invariance_reference(transport, fm, v, w, q, t_eval=0.0):
    """The check with every transported value from ``transport(fm, piece, r)``."""
    point = np.asarray(q, dtype=float)
    pieces = [f.piece_at(t_eval) for f in (v, w, lie_bracket_field(v, w, t_eval))]
    fv = lambda p: transport(fm, pieces[0], p)
    fw = lambda p: transport(fm, pieces[1], p)
    rhs = (finite_difference_jacobian(fw, point) @ fv(point)
           - finite_difference_jacobian(fv, point) @ fw(point))
    return float(np.linalg.norm(transport(fm, pieces[2], point) - rhs))


@pytest.mark.parametrize("fields,q", [
    (heisenberg_fields(), [0.1, 0.2, 0.0]),
    (heisenberg_fields(), [-0.4, 0.3, 0.7]),
    (heisenberg_fields(), [1.2, -0.5, 0.2]),
    (brockett_fields(), [0.1, 0.2, 0.0]),
    (brockett_fields(), [-0.3, 0.6, -0.1]),
    (brockett_fields(), [0.5, 0.5, 0.5]),
])
def test_pushforward_invariance_matches_reference_and_shares_solves(monkeypatch, fields,
                                                                    q, two_solve_pushforward):
    v, w = fields
    fm = FlowMap(v, 0.0, 0.3, SOLVER)
    expected = _invariance_reference(two_solve_pushforward, fm, v, w, q)
    calls = []
    core = chronoflow.flow._flow_core

    def counting(field, t0, times, q_, solver, want_pushforward):
        calls.append(want_pushforward)
        return core(field, t0, times, q_, solver, want_pushforward)

    monkeypatch.setattr(chronoflow.flow, "_flow_core", counting)
    assert abs(pushforward_invariance_check(fm, v, w, q) - expected) <= 1e-12
    # one variational solve of the inverse flow per distinct point, no plain one
    assert calls.count(False) == 0
    assert len(calls) <= 2 * len(q) + 1


@pytest.mark.parametrize("t", [0.3, -0.7])
def test_pushforward_of_heisenberg_v2_is_exact(t):
    # the flow of V1 = (1, 0, -y/2) is (x + t, y, z - t y / 2); its
    # differential maps V2 = (0, 1, x/2) at F^-1(r) to (0, 1, x/2 - t) at r;
    # the rounding of the z sum over the solve's steps grows with the x of
    # F^-1(r), x - t, so the points keep |x - t| <= 1 (x - t = 1.2 reads 1.0e-14)
    field = pushforward_field(FlowMap(V1, 0.0, t, SOLVER), V2, 0.0)
    for r in ([0.1, 0.2, 0.0], [-0.4, 0.3, 0.7], [0.25, -0.5, 0.2]):
        want = [0.0, 1.0, r[0] / 2 - t]
        assert np.max(np.abs(field(0.0, r) - want)) <= 1e-14


@pytest.mark.parametrize("t_max", [-0.4, 0.0, float("nan"), float("inf")])
def test_flow_residual_probes_reject_non_positive_t_max(t_max):
    with pytest.raises(ValueError, match="t_max"):
        inverse_expansion_check(rotation2d(), [1.0, 0.0], t_max, 8, SOLVER)
    with pytest.raises(ValueError, match="t_max"):
        bracket_asymptotics_check(BracketExpression.parse("[V1,V2]"), [V1, V2],
                                  [0.0, 0.0, 0.0], t_max, 8, SOLVER)
