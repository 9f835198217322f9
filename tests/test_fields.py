"""Tests for polynomial fields, observables, and lifts."""
import functools
import hashlib
import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from chronoflow import (
    AffineControlSystem,
    DefectExhaustedError,
    DimensionError,
    FlowMap,
    FlowSolver,
    Observable,
    PolynomialMap,
    TimeWindowError,
    VectorField,
    add_fields,
    adjoint_check,
    apply_lift,
    brockett_fields,
    builtin_system,
    constant_field,
    eval_field,
    field_jacobian,
    finite_difference_jacobian,
    flow_map,
    flow_with_pushforward,
    heisenberg_fields,
    iterate_lift,
    linear_field,
    load_system,
    rotation2d,
    sample_lift_bound,
    unicycle_fields,
    vector_field_from_json,
    zero_field,
)
import chronoflow as cf
from chronoflow import fields
from chronoflow.fields import SUM_CHUNK, lift_map, vector_norm
from chronoflow.quadrature import gauss_legendre
from test_properties import magnitudes, numpy_reference, polynomial_maps

V1, V2 = heisenberg_fields()


def test_eval_field_heisenberg_v1():
    assert_allclose(eval_field(V1, 0.0, [1, 2, 3]), [1.0, 0.0, -1.0])


def test_eval_field_heisenberg_v2():
    assert_allclose(eval_field(V2, 0.0, [1, 2, 3]), [0.0, 1.0, 0.5])


def test_eval_field_zero():
    z = zero_field(4)
    assert_allclose(eval_field(z, 0.0, [1, -2, 3, 0.5]), np.zeros(4))


def test_eval_field_dimension_mismatch():
    with pytest.raises(DimensionError):
        eval_field(V1, 0.0, [1, 2])


def test_eval_field_outside_window():
    pm = PolynomialMap.constants([1.0, 0.0], 2)
    field = VectorField.piecewise([(0.0, 1.0, pm)])
    with pytest.raises(TimeWindowError):
        eval_field(field, 2.0, [0, 0])


def test_jacobian_heisenberg_v2_single_entry():
    jac = field_jacobian(V2, 0.0, [9.0, -3.0, 7.0])
    expected = np.zeros((3, 3))
    expected[2, 0] = 0.5
    assert_allclose(jac, expected)


def test_jacobian_constant_field_is_zero():
    c = constant_field([3.0, -1.0])
    assert_allclose(field_jacobian(c, 0.0, [0.2, 0.4]), np.zeros((2, 2)))


def test_jacobian_linear_field_returns_matrix():
    a = np.array([[1.0, 2.0], [-0.5, 0.25]])
    assert_allclose(field_jacobian(linear_field(a), 0.0, [3.0, 4.0]), a)


def test_jacobian_matches_finite_differences():
    # independent oracle for the symbolic derivative path
    rng = np.random.default_rng(42)
    pm = PolynomialMap(3, 3, [
        [(1.5, (2, 0, 0)), (-0.7, (1, 1, 0))],
        [(0.3, (0, 0, 3)), (2.0, (0, 1, 1))],
        [(-1.1, (1, 0, 2))],
    ])
    field = VectorField.autonomous(pm)
    for _ in range(100):
        q = rng.uniform(-2, 2, size=3)
        fd = finite_difference_jacobian(lambda x: eval_field(field, 0.0, x), q)
        exact = field_jacobian(field, 0.0, q)
        assert_allclose(exact, fd, rtol=1e-6, atol=1e-6)


def test_apply_lift_heisenberg_height():
    phi = Observable.coordinate(3, 2)
    lifted = apply_lift(V1, 0.0, phi)
    # phi' = (0,0,1) dotted with V1 gives -y/2
    assert_allclose(lifted([1.0, 4.0, 9.0]), [-2.0])
    assert lifted.max_derivative_order == phi.max_derivative_order - 1


def test_apply_lift_constant_observable_is_zero():
    phi = Observable.constant([5.0], 3)
    lifted = apply_lift(V2, 0.0, phi)
    assert_allclose(lifted([1.0, 2.0, 3.0]), [0.0])
    assert_allclose(lifted.derivative([1.0, 2.0, 3.0]), np.zeros((1, 3)))


def test_apply_lift_identity_on_linear_field():
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    field = linear_field(a)
    lifted = apply_lift(field, 0.0, Observable.identity(2))
    q = np.array([0.3, -0.8])
    assert_allclose(lifted(q), a @ q)


def test_apply_lift_exhausted():
    phi = Observable.identity(3, max_derivative_order=0)
    with pytest.raises(DefectExhaustedError):
        apply_lift(V1, 0.0, phi)


def test_apply_lift_rejects_numerical_fields():
    from chronoflow import FlowMap, FlowSolver, pushforward_field
    numerical = pushforward_field(FlowMap(V1, 0.0, 0.2, FlowSolver(100)), V2, 0.0)
    with pytest.raises(TypeError):
        apply_lift(numerical, 0.0, Observable.identity(3))


def test_iterate_lift_heisenberg_two_steps_vanishes():
    phi = Observable.coordinate(3, 2)
    out = iterate_lift([(V1, 0.0), (V1, 0.0)], phi)
    assert_allclose(out([0.4, -1.2, 2.0]), [0.0])


def test_iterate_lift_empty_sequence_is_identity():
    phi = Observable.coordinate(3, 1)
    out = iterate_lift([], phi)
    assert out is phi


def test_iterate_lift_linear_square():
    a = np.array([[1.0, 1.0], [0.0, 2.0]])
    field = linear_field(a)
    out = iterate_lift([(field, 0.0)] * 2, Observable.identity(2))
    q = np.array([1.0, -1.0])
    assert_allclose(out(q), a @ a @ q)


def test_iterate_lift_defect_bookkeeping():
    phi = Observable.identity(3, max_derivative_order=5)
    out = iterate_lift([(V1, 0.0), (V2, 0.0), (V1, 0.0)], phi)
    assert out.max_derivative_order == 2
    with pytest.raises(DefectExhaustedError):
        iterate_lift([(V1, 0.0)] * 6, phi)


def test_lift_linearity_exact():
    rng = np.random.default_rng(7)
    phi = Observable(PolynomialMap(2, 1, [[(2.0, (1, 1)), (1.0, (0, 2))]]))
    psi = Observable(PolynomialMap(2, 1, [[(-1.0, (2, 0)), (3.0, (1, 0))]]))
    field = linear_field([[0.0, 1.0], [1.0, 0.0]])
    for a, b in [(2.0, 3.0), (-1.0, 0.5), (0.0, 4.0)]:
        combo = Observable.linear_combination(a, phi, b, psi)
        left = apply_lift(field, 0.0, combo)
        right = Observable.linear_combination(
            a, apply_lift(field, 0.0, phi), b, apply_lift(field, 0.0, psi)
        )
        assert left.map == right.map
        q = rng.uniform(-1, 1, 2)
        assert_allclose(left(q), right(q))


def test_one_piece_piecewise_matches_autonomous_twin():
    pm = PolynomialMap(2, 2, [[(1.0, (0, 1))], [(0.5, (2, 0))]])
    auto = VectorField.autonomous(pm)
    pw = VectorField.piecewise([(0.0, 2.0, pm)])
    phi = Observable.identity(2)
    rng = np.random.default_rng(11)
    for _ in range(10):
        t = rng.uniform(0.0, 2.0)
        q = rng.uniform(-1, 1, 2)
        assert_allclose(eval_field(pw, t, q), eval_field(auto, t, q))
        assert_allclose(field_jacobian(pw, t, q), field_jacobian(auto, t, q))
        assert apply_lift(pw, t, phi).map == apply_lift(auto, t, phi).map


def test_piecewise_selects_active_piece():
    c1 = PolynomialMap.constants([1.0, 0.0], 2)
    c2 = PolynomialMap.constants([0.0, 1.0], 2)
    field = VectorField.piecewise([(0.0, 0.5, c1), (0.5, 1.0, c2)])
    assert_allclose(eval_field(field, 0.25, [0, 0]), [1.0, 0.0])
    assert_allclose(eval_field(field, 0.5, [0, 0]), [0.0, 1.0])
    assert_allclose(eval_field(field, 1.0, [0, 0]), [0.0, 1.0])


def test_parts_cut_at_breakpoints_in_the_direction_of_time():
    # three distinct constants, so each part's map tells which piece it is
    c0, c1, c2 = (PolynomialMap.constants([v], 1) for v in (1.0, 2.0, 3.0))
    field = VectorField.piecewise([(0.0, 0.25, c0), (0.25, 0.5, c1), (0.5, 1.0, c2)])
    p0, p1, p2 = (field.pieces[i][2] for i in range(3))
    assert field.parts(0.1, 0.9) == [(0.1, 0.25, p0), (0.25, 0.5, p1), (0.5, 0.9, p2)]
    assert field.parts(0.9, 0.1) == [(0.9, 0.5, p2), (0.5, 0.25, p1), (0.25, 0.1, p0)]
    assert field.parts(0.25, 0.5) == [(0.25, 0.5, p1)]  # ends on breakpoints
    assert field.parts(0.5, 0.25) == [(0.5, 0.25, p1)]
    assert field.parts(1.0, 0.5) == [(1.0, 0.5, p2)]
    assert field.parts(0.3, 0.3) == []
    assert field.parts(0.25 - 1e-16, 0.3) == [(0.25, 0.3, p1)]  # a sliver takes no step
    assert field.parts(0.0, 0.0) == field.parts(1.0, 1.0) == []
    assert [field.piece_index(t) for t in (0.0, 0.2, 0.25, 0.5, 1.0)] == [0, 0, 1, 2, 2]
    assert field.breakpoints_between(0.9, 0.25) == [0.5]
    with pytest.raises(TimeWindowError):
        field.parts(0.5, 1.5)
    auto = VectorField.autonomous(c0)
    assert auto.is_autonomous and not field.is_autonomous
    assert auto.parts(2.0, -3.0) == [(2.0, -3.0, c0)]
    assert auto.breakpoints_between(-1.0, 1.0) == []


def test_sum_of_fields_with_near_coincident_breakpoints_keeps_its_window():
    # W's cut one ulp after V's and W's last piece one ulp long are spans that take
    # no step: each joins the piece after it, so the sum stays contiguous on [0, 1]
    a, b, c, d, e = (PolynomialMap.constants([x], 1) for x in (1.0, 2.0, 4.0, 8.0, 16.0))
    cut, last = math.nextafter(0.5, 1.0), math.nextafter(1.0, 0.0)
    v = VectorField.piecewise([(0.0, 0.5, a), (0.5, 1.0, b)])
    w = VectorField.piecewise([(0.0, cut, c), (cut, last, d), (last, 1.0, e)])
    total = add_fields(v, w)
    assert [(lo, hi) for lo, hi, _ in total.pieces] == [(0.0, 0.5), (0.5, 1.0)]
    assert [pm(np.zeros(1))[0] for _, _, pm in total.pieces] == [5.0, 10.0]
    assert flow_map(FlowMap(total, 0.0, 1.0, FlowSolver(10)), [0.0])[0] == 7.5


def test_sum_of_fields_whose_windows_overlap_by_a_sliver_is_one_piece():
    # an overlap no longer than the cutoff has no part: the sum is the one piece
    # of the pieces active at its start
    a, b, c = (PolynomialMap.constants([x], 1) for x in (1.0, 2.0, 4.0))
    v = VectorField.piecewise([(0.0, 1.0, a)])
    w = VectorField.piecewise([(1.0 - 1e-16, 1.0, b), (1.0, 2.0, c)])
    total = add_fields(v, w)
    assert [(lo, hi) for lo, hi, _ in total.pieces] == [(1.0 - 1e-16, 1.0)]
    assert total.pieces[0][2](np.zeros(1))[0] == 3.0


def test_several_pieces_over_all_of_time_are_not_autonomous():
    comps = [PolynomialMap.constants([x], 1).to_json() for x in (1.0, 2.0)]
    doc = json.loads(json.dumps({"dim": 1, "time_pieces": [
        {"t0": -math.inf, "t1": 0.0, "components": comps[0]},
        {"t0": 0.0, "t1": math.inf, "components": comps[1]}]}))
    field = vector_field_from_json(doc)
    assert not field.is_autonomous and "2 pieces" in repr(field)
    assert field.to_json()["time_pieces"] == doc["time_pieces"]
    assert vector_field_from_json(field.to_json()).to_json() == field.to_json()
    with pytest.raises(ValueError, match="autonomous"):
        AffineControlSystem.of([field])
    with pytest.raises(ValueError, match="autonomous"):
        adjoint_check(field, field, [0.0], 1.0, FlowSolver(4))


def test_piecewise_pieces_must_be_contiguous():
    c = PolynomialMap.constants([1.0], 1)
    with pytest.raises(ValueError):
        VectorField.piecewise([(0.0, 0.4, c), (0.5, 1.0, c)])


def test_zero_coefficient_terms_are_dropped():
    pm = PolynomialMap(2, 1, [[(0.0, (1, 0)), (2.0, (0, 1)), (-2.0, (0, 1))]])
    assert pm.components == ((),)
    assert_allclose(pm([3.0, 4.0]), [0.0])


def test_polynomial_map_json_roundtrip():
    v1_json = V1.to_json()
    rebuilt = vector_field_from_json(v1_json)
    q = np.array([0.2, -0.6, 1.4])
    assert_allclose(eval_field(rebuilt, 0.0, q), eval_field(V1, 0.0, q))


def test_load_system_from_file(tmp_path):
    doc = {"dim": 2, "fields": [
        {"dim": 2, "components": [[{"coef": 1.0, "exps": [0, 0]}], []]},
        {"dim": 2, "time_pieces": [
            {"t0": 0.0, "t1": 1.0,
             "components": [[], [{"coef": 2.0, "exps": [1, 0]}]]},
        ]},
    ]}
    path = tmp_path / "system.json"
    path.write_text(json.dumps(doc))
    fields = load_system(str(path))
    assert len(fields) == 2
    assert_allclose(eval_field(fields[0], 0.0, [5, 5]), [1.0, 0.0])
    assert_allclose(eval_field(fields[1], 0.5, [3, 0]), [0.0, 6.0])


def test_observable_from_json():
    from chronoflow import observable_from_json
    doc = {"dim": 2, "max_derivative_order": 3,
           "components": [[{"coef": 2.0, "exps": [1, 1]}]]}
    obs = observable_from_json(doc)
    assert obs.max_derivative_order == 3
    assert_allclose(obs([3.0, 4.0]), [24.0])


def test_builtin_catalog_names():
    assert len(builtin_system("heisenberg")) == 2
    assert len(builtin_system("rotation2d")) == 1
    assert len(builtin_system("unicycle")) == 2
    assert len(builtin_system("brockett")) == 2
    with pytest.raises(KeyError):
        builtin_system("nope")


def test_unicycle_and_brockett_shapes():
    g1, g2 = unicycle_fields()
    assert_allclose(eval_field(g1, 0.0, [0.0, 2.0, 0.0]), [1.0, 0.0, 2.0])
    assert_allclose(eval_field(g2, 0.0, [0.0, 2.0, 0.0]), [0.0, 1.0, 0.0])
    b1, b2 = brockett_fields()
    assert_allclose(eval_field(b1, 0.0, [1.0, 2.0, 0.0]), [1.0, 0.0, -2.0])
    assert_allclose(eval_field(b2, 0.0, [1.0, 2.0, 0.0]), [0.0, 1.0, 1.0])


@pytest.mark.parametrize("build, first, second", [
    (heisenberg_fields, [[(1.0, (0, 0, 0))], [], [(-0.5, (0, 1, 0))]],
     [[], [(1.0, (0, 0, 0))], [(0.5, (1, 0, 0))]]),
    (unicycle_fields, [[(1.0, (0, 0, 0))], [], [(1.0, (0, 1, 0))]],
     [[], [(1.0, (0, 0, 0))], []]),
    (brockett_fields, [[(1.0, (0, 0, 0))], [], [(-1.0, (0, 1, 0))]],
     [[], [(1.0, (0, 0, 0))], [(1.0, (1, 0, 0))]]),
])
def test_catalog_pairs_equal_their_literal_maps(build, first, second):
    v1, v2 = build()
    assert v1.is_autonomous and v2.is_autonomous
    assert v1.pieces[0][2] == PolynomialMap(3, 3, first)
    assert v2.pieces[0][2] == PolynomialMap(3, 3, second)


def test_sampled_witness_dominates_interior_values():
    phi = Observable.coordinate(2, 0)
    witness = sample_lift_bound(rotation2d(), phi, 2, [1.0, 1.0], 1.0,
                                num_points=256, seed=5)
    lifted = iterate_lift([(rotation2d(), 0.0)] * 2, phi)
    rng = np.random.default_rng(9)
    for _ in range(50):
        d = rng.normal(size=2)
        p = np.array([1.0, 1.0]) + 0.9 * rng.uniform() * d / np.linalg.norm(d)
        assert np.linalg.norm(lifted(p)) <= witness.bound_C * 1.1


def test_rotation2d_is_the_quarter_turn_generator():
    assert_allclose(
        field_jacobian(rotation2d(), 0.0, [0.0, 0.0]),
        [[0.0, -1.0], [1.0, 0.0]],
    )


@pytest.mark.parametrize("coef", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_coefficients_are_rejected(coef):
    with pytest.raises(ValueError, match="non-finite coefficient"):
        PolynomialMap(2, 1, [[(coef, (1, 0))]])
    with pytest.raises(ValueError, match="non-finite coefficient"):
        vector_field_from_json({"dim": 1, "components": [[{"coef": coef, "exps": [0]}]]})


@pytest.mark.parametrize("exponent", [-1, 10 ** 400])
def test_exponent_out_of_range_is_rejected(exponent):
    # numpy's ** takes the exponent as a float, so above the float range the
    # overflow fallback of the evaluator could not run
    with pytest.raises(ValueError, match="exponent out of range"):
        PolynomialMap(1, 1, [[(1.0, (exponent,))]])


def test_lift_beyond_the_float_range_is_rejected_without_recursion():
    # x' = x^(2^1023): the second lift of x has the exponent 2^1024 - 1, which
    # neither Python's nor numpy's ** can take
    field = VectorField.autonomous(PolynomialMap(1, 1, [[(1.0, (2 ** 1023,))]]))
    lifted = iterate_lift([(field, 0.0)] * 2, Observable.coordinate(1, 0))
    with pytest.raises(ValueError, match="beyond the float range"):
        lifted([0.5])


def test_vector_norm_keeps_its_bits_and_stays_finite_past_squared_overflow():
    rng = np.random.default_rng(8)
    for v in rng.normal(size=(50, 4)) * 10.0 ** rng.integers(-150, 150, (50, 1)):
        assert vector_norm(v) == float(np.linalg.norm(v))
    assert vector_norm(np.array([3e200, -4e200])) == pytest.approx(5e200, rel=1e-15)
    assert vector_norm(np.array([1.5e308, 1.5e308])) == np.inf
    assert vector_norm(np.array([1e200, np.inf])) == np.inf
    assert np.isnan(vector_norm(np.array([1e200, np.nan])))


@pytest.mark.parametrize("doc, path", [
    ({"fields": [{"dim": 1, "components": [[{"coef": 1.0, "exps": [0]}]]},
                 {"dim": 1, "components": [[{"coef": 1.0, "exps": [1]},
                                            {"coef": None, "exps": [0]}]]}]},
     "fields[1].components[0][1].coef"),
    ({"dim": 1, "time_pieces": [{"t0": 0, "t1": 1, "components": [[{"coef": 1, "exps": 2}]]}]},
     "time_pieces[0].components[0][0].exps"),
    ({"fields": [{"dim": 1, "components": [[]]}, 5]}, "fields[1]"),
    ({"components": [[]]}, "dim"),
    ({"fields": [{"dim": 1}]}, "fields[0].components"),
    ({"dim": 1, "components": [[{"exps": [1]}]]}, "components[0][0].coef"),
    ({"dim": 1, "components": [[{"coef": 1.0}]]}, "components[0][0].exps"),
    ({"dim": 1, "time_pieces": [{"t1": 1, "components": [[]]}]}, "time_pieces[0].t0"),
    ({"dim": 1, "time_pieces": [{"t0": 0, "components": [[]]}]}, "time_pieces[0].t1"),
    ({"dim": 1, "time_pieces": [{"t0": 0, "t1": 1}]}, "time_pieces[0].components"),
])
def test_malformed_field_document_error_names_its_path(tmp_path, doc, path):
    source = tmp_path / "system.json"
    source.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=re.escape(path) + " must be"):
        load_system(str(source))


def test_malformed_observable_document_error_names_its_path():
    from chronoflow import observable_from_json
    with pytest.raises(ValueError, match=re.escape("components[0][0].coef must be")):
        observable_from_json({"dim": 1, "components": [[{"coef": "x", "exps": [1]}]]})
    with pytest.raises(ValueError, match="must be a JSON object"):
        observable_from_json([])
    with pytest.raises(ValueError, match=r"^dim must be given, but the key is missing$"):
        observable_from_json({"components": [[]]})
    with pytest.raises(ValueError, match=r"^components must be given"):
        observable_from_json({"dim": 1})
    with pytest.raises(ValueError, match=re.escape("components[0][0].exps must be given")):
        observable_from_json({"dim": 1, "components": [[{"coef": 1.0}]]})


@pytest.mark.parametrize("doc, message", [
    ({"dim": "1", "components": [[]]}, "dim must be an integer, got '1'"),
    ({"dim": 1, "max_derivative_order": "3", "components": [[]]},
     "max_derivative_order must be an integer, got '3'"),
])
def test_observable_json_string_is_not_a_number(doc, message):
    from chronoflow import observable_from_json
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        observable_from_json(doc)


def _big(exps: int, coef: float = 1e308) -> PolynomialMap:
    return PolynomialMap(1, 1, [[(coef, (exps,))]])


@pytest.mark.parametrize("build", [
    lambda: PolynomialMap(1, 1, [[(1e308, (1,)), (1e308, (1,))]]),
    lambda: _big(1).scaled(10.0),
    lambda: lift_map(_big(2, 1e200), _big(2, 1e200)),  # 2e200 x * 1e200 x^2
    lambda: _big(1).add(_big(1)),
    lambda: _big(3).jacobian_map,  # 3e308 x^2
], ids=["constructor", "scaled", "lift_map", "add", "jacobian_map"])
def test_overflowing_coefficient_sum_is_rejected(build):
    with pytest.raises(ValueError, match="non-finite coefficient"):
        build()


def test_evaluator_is_compiled_on_first_call():
    pm = PolynomialMap(2, 2, [[(1.0, (1, 0))], [(2.0, (0, 2))]])
    assert "_evaluator" not in vars(pm)
    assert_allclose(pm(np.array([3.0, 0.5])), [3.0, 0.5])
    assert "_evaluator" in vars(pm)


def _compiled_code(pm):
    return pm._evaluator, pm._variational_rk4


def test_equal_tables_share_their_compiled_code():
    # maps built independently from equal tables: the catalog twice, a JSON round
    # trip and the lift of equal inputs
    pairs = [(a.pieces[0][2], b.pieces[0][2])
             for a, b in zip(heisenberg_fields(), heisenberg_fields())]
    pairs.append((V1.pieces[0][2], vector_field_from_json(
        json.loads(json.dumps(V1.to_json()))).pieces[0][2]))
    phi = PolynomialMap(3, 3, [[(0.5, (2, 0, 1))], [(1.0, (0, 1, 1))], [(-2.0, (1, 1, 0))]])
    pairs.append((lift_map(phi, heisenberg_fields()[0].pieces[0][2]),
                  lift_map(PolynomialMap.from_json(phi.to_json(), 3), V1.pieces[0][2])))
    for a, b in pairs:
        assert a is not b and a == b
        for code_a, code_b in zip(_compiled_code(a), _compiled_code(b)):
            assert code_a is code_b


@pytest.mark.parametrize("pm, other", [
    (PolynomialMap(2, 2, [[(1.5, (1, 1))], [(1.0, (1, 0)), (2.0, (0, 1))]]),
     PolynomialMap(2, 2, [[(1.5, (1, 1))], [(1.0, (1, 0)), (2.5, (0, 1))]])),
    (PolynomialMap(2, 2, [[(1.5, (1, 1))], [(1.0, (1, 0)), (2.0, (0, 1))]]),
     PolynomialMap(2, 2, [[(1.5, (2, 1))], [(1.0, (1, 0)), (2.0, (0, 1))]])),
    (PolynomialMap.zeros(2, 2), PolynomialMap.zeros(3, 3)),
], ids=["coefficient", "exponent", "dimension"])
def test_different_tables_compile_apart(pm, other):
    for code, other_code in zip(_compiled_code(pm), _compiled_code(other)):
        assert code is not other_code


def test_many_pieces_of_two_tables_compile_twice(monkeypatch):
    # a bang-bang field on 1,000 pieces, each its own map of one of two tables
    fields._compiled.cache_clear()
    compiled = []
    for name in ("_compile_evaluator", "_variational_source"):
        original = getattr(fields, name)
        monkeypatch.setattr(fields, name, lambda *args, name=name, original=original:
                            compiled.append(name) or original(*args))
    signs = np.random.default_rng(1000).choice([-1.0, 1.0], size=1000)
    edges = np.linspace(0.0, 1.0, 1001).tolist()
    field = VectorField.piecewise([(a, b, PolynomialMap.linear([[0.0, -s], [s, 0.0]]))
                                   for a, b, s in zip(edges, edges[1:], signs)])
    fm = FlowMap(field, 0.0, 1.0, FlowSolver(4000))
    end, _ = flow_with_pushforward(fm, [0.5, 0.5])
    assert np.array_equal(end, flow_map(fm, [0.5, 0.5]))
    assert sorted(compiled) == ["_compile_evaluator"] * 2 + ["_variational_source"] * 2


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(st.data())
def test_a_warm_shared_evaluator_keeps_every_bit_but_nan_signs(data):
    # CPython 3.11 specializes a function after a few calls, and the specialized
    # code may give NaN the other sign; every other bit is the fresh compile's
    dim = data.draw(st.integers(1, 4))
    pm = data.draw(polynomial_maps(dim, degree=11, max_terms=4))
    shared, fresh = pm._evaluator, fields._compile_evaluator(pm._components, dim)
    rows = [data.draw(st.lists(magnitudes, min_size=dim, max_size=dim)) for _ in range(4)]
    with np.errstate(all="ignore"):
        for _ in range(10):
            shared(rows[0])
        for row in rows:
            got, want = np.array(shared(row)), np.array(fresh(row))
            same = (got.view(np.uint64) == want.view(np.uint64)) | (np.isnan(got) & np.isnan(want))
            assert same.all(), (row, got, want)


def test_the_compile_memo_keeps_at_most_its_bound():
    fields._compiled.cache_clear()
    maps = [PolynomialMap.constants([float(i)], 1) for i in range(1, fields.COMPILE_MEMO_SIZE + 6)]
    first = maps[0]._evaluator
    for pm in maps[1:]:
        pm._evaluator
    info = fields._compiled.cache_info()
    assert info.maxsize == info.currsize == fields.COMPILE_MEMO_SIZE
    # the least recently used table was dropped, so an equal map compiles anew
    assert PolynomialMap.constants([1.0], 1)._evaluator is not first


def test_long_sums_keep_the_term_order():
    # 5,000 terms in one component are over CPython's compiler limit for one
    # + chain, so the evaluator sums them in chunks, left to right: the bits
    # of the term-by-term numpy reference, Jacobian included
    rng = np.random.default_rng(5)
    exps = list(itertools.product(range(9), repeat=4))[:5000]
    pm = PolynomialMap(4, 2, [[(float(c), e) for c, e in zip(rng.uniform(-1, 1, 5000), exps)],
                              [(1.0, (0, 0, 0, 1))]])
    assert len(pm.jacobian_map._components[0]) > SUM_CHUNK
    for x in rng.uniform(-1.0, 1.0, (3, 4)):
        for m in (pm, pm.jacobian_map):
            assert m(x).tobytes() == numpy_reference(m, x).tobytes()


def test_sources_of_a_20000_term_map_compile():
    rng = np.random.default_rng(6)
    pm = PolynomialMap(1, 1, [[(float(c), (e,)) for e, c in enumerate(rng.uniform(-1, 1, 20_000))]])
    fm = FlowMap(VectorField.autonomous(pm), 0.0, 0.002, FlowSolver(1000))
    end, mat = flow_with_pushforward(fm, [0.5])
    assert end.tobytes() == flow_map(fm, [0.5]).tobytes()
    assert np.all(np.isfinite(mat))


def _seeded_kernel_results(seed: int = 2024, rounds: int = 40):
    """Lifts, brackets, sums, scalings and Jacobians of seeded random maps."""
    import random

    from chronoflow.liealg import lie_bracket_map

    rng = random.Random(seed)
    dyadic = (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)

    def random_map(dim, dim_out):
        return PolynomialMap(dim, dim_out, [
            [(rng.choice(dyadic) if rng.random() < 0.5 else rng.uniform(-1.0, 1.0),
              tuple(rng.randint(0, 2) for _ in range(dim)))
             for _ in range(rng.randint(0, 4))]
            for _ in range(dim_out)])

    for _ in range(rounds):
        dim = rng.randint(1, 3)
        m = rng.randint(1, 2)
        v, w = random_map(dim, dim), random_map(dim, dim)
        phi, psi = random_map(dim, m), random_map(dim, m)
        a, b = rng.choice(dyadic + (0.0,)), rng.uniform(-2.0, 2.0)
        yield from (lift_map(phi, v), lie_bracket_map(v, w), v.add(w, a, b), v.add(v, 1.0, -1.0),
                    v.scaled(a), v.jacobian_map, v.jacobian_map.jacobian_map,
                    add_fields(VectorField.autonomous(v), VectorField.autonomous(w), a, b)
                    .pieces[0][2],
                    Observable.linear_combination(a, Observable(phi), b, Observable(psi)).map)


def test_kernel_term_tables_are_pinned():
    # ordered tables (dict order fixes later summation order), digest recorded
    # before kernel results stopped passing back through the constructor
    digest = hashlib.sha256()
    for pm in _seeded_kernel_results():
        for table in pm._components:
            digest.update(repr((pm.dim_in, pm.dim_out, list(table.items()))).encode())
    assert digest.hexdigest() == "fc2d53a83466a190c596cad0e3e68f9887d3712f5ac41a2dc423ffaa8ec57055"


_ID2, _PHI2, _Q2 = PolynomialMap.identity(2), Observable.identity(2), [1.0, 0.0]


@pytest.mark.parametrize("call, message", [
    (lambda: Observable.coordinate(2, 0.5), "axis must be an integer, got 0.5"),
    (lambda: Observable.coordinate(2, True), "axis must be an integer, got True"),
    (lambda: Observable(_ID2, 2.5), "max_derivative_order must be an integer, got 2.5"),
    (lambda: VectorField.autonomous(_ID2, 2.5), "smoothness_order must be an integer, got 2.5"),
    (lambda: VectorField.autonomous(_ID2, True), "smoothness_order must be an integer, got True"),
    (lambda: cf.order_probe(lambda t: t, 0.4, 4.5), "levels must be an integer, got 4.5"),
    (lambda: cf.bracket_asymptotics_check(cf.BracketExpression.parse("[V1,V2]"),
                                          heisenberg_fields(), [0.0] * 3, 0.2, 4.5,
                                          FlowSolver(100)), "levels must be an integer, got 4.5"),
    (lambda: cf.inverse_expansion_check(rotation2d(), _Q2, 0.4, 4.5, FlowSolver(100)),
     "levels must be an integer, got 4.5"),
    (lambda: cf.volterra_truncate(rotation2d(), _PHI2, _Q2, 0.0, 0.5, True),
     "truncation order k must be an integer, got True"),
    (lambda: cf.remainder_eval(rotation2d(), _PHI2, _Q2, 0.0, 0.5, True, FlowSolver(100)),
     "truncation order k must be an integer, got True"),
    (lambda: sample_lift_bound(rotation2d(), _PHI2, True, _Q2, 0.5),
     "witness order must be an integer, got True"),
    (lambda: cf.simplex_volume(0.0, 0.5, 2.5), "simplex order k must be an integer, got 2.5"),
    (lambda: cf.simplex_integral_term(rotation2d(), _PHI2, _Q2, 0.0, 0.5, 2.5),
     "simplex order k must be an integer, got 2.5"),
    (lambda: cf.volterra_truncate(rotation2d(), _PHI2, _Q2, 0.0, 0.5, 2.5),
     "truncation order k must be an integer, got 2.5"),
    (lambda: cf.remainder_eval(rotation2d(), _PHI2, _Q2, 0.0, 0.5, 2.5, FlowSolver(100),
                               method="direct"), "truncation order k must be an integer, got 2.5"),
    (lambda: gauss_legendre(0.0, 1.0, 2.5), "quadrature nodes must be an integer, got 2.5"),
    (lambda: cf.BracketExpression.leaf(True), "field index must be an integer, got True"),
], ids=["axis_half", "axis_bool", "obs_order_half", "smoothness_half", "smoothness_bool",
        "levels", "bracket_levels", "inverse_levels", "truncation_bool", "remainder_bool",
        "witness_bool", "volume_half", "term_half", "truncation_half", "remainder_half",
        "nodes_half", "leaf_bool"])
def test_counts_orders_and_indices_must_be_integers(call, message):
    # a fractional value would truncate (or fail deep inside) and a boolean pass as 0 or 1
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


_SYSTEM = AffineControlSystem.of(heisenberg_fields())
_ZERO3, _TARGET3 = [0.0] * 3, [0.0, 0.0, 0.1]


# the witness order and num_points, simplex orders and the remainder order: test_chrono.py
@pytest.mark.parametrize("call, message", [
    (lambda: VectorField.autonomous(_ID2, 0), "smoothness_order must be >= 1, got 0"),
    (lambda: Observable(_ID2, -1), "max_derivative_order must be >= 0, got -1"),
    (lambda: cf.volterra_truncate(rotation2d(), _PHI2, _Q2, 0.0, 0.5, 0),
     "truncation order k must be >= 1, got 0"),
    (lambda: cf.order_probe(lambda t: t, 0.4, 3), "levels must be >= 4, got 3"),
    (lambda: cf.canonical_bracket_basis(2, 0), "max_degree must be >= 1, got 0"),
    (lambda: cf.plan_reach(_SYSTEM, _ZERO3, _TARGET3, 1e-3, 2, -1, FlowSolver(100)),
     "max_iters must be >= 0, got -1"),
    (lambda: cf.BracketExpression.leaf(0), "field index must be >= 1, got 0"),
    (lambda: cf.BracketExpression.leaf(-2.0), "field index must be >= 1, got -2"),
], ids=["smoothness", "obs_order", "truncation_order", "levels", "max_degree", "max_iters",
        "leaf", "leaf_float"])
def test_counts_below_their_least_value_are_rejected(call, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        call()


@pytest.mark.parametrize("bad", [math.nan, 0.0, "1", b"1", np.True_],
                         ids=["nan", "zero", "string", "bytes", "numpy_bool"])
@pytest.mark.parametrize("what, call", [
    ("witness radius", lambda bad: sample_lift_bound(rotation2d(), _PHI2, 1, _Q2, bad)),
    ("t_max", lambda bad: cf.order_probe(lambda t: t, bad)),
    ("epsilon", lambda bad: cf.fd_param_derivative(cf.PerturbedSystem(V1, V2, 0.0, 0.5),
                                                   _ZERO3, bad, FlowSolver(100))),
    ("epsilon", lambda bad: cf.plan_reach(_SYSTEM, _ZERO3, _TARGET3, bad, 2, 10,
                                          FlowSolver(100))),
    ("step_fraction", lambda bad: cf.plan_reach(_SYSTEM, _ZERO3, _TARGET3, 1e-3, 2, 10,
                                                FlowSolver(100), step_fraction=bad)),
    ("blowup_threshold", lambda bad: FlowSolver(100, blowup_threshold=bad)),
    # NaN gave a schedule of NaN durations, and a string a raw TypeError
    ("magnitude", lambda bad: cf.bracket_motion(_SYSTEM, cf.BracketExpression.parse("[V1,V2]"),
                                                bad)),
], ids=["radius", "t_max", "fd_epsilon", "plan_epsilon", "step_fraction", "threshold",
        "magnitude"])
def test_positive_reals_must_be_finite_and_positive(what, call, bad):
    with pytest.raises(ValueError, match="^" + re.escape(
            f"{what} must be finite and positive, got {bad!r}") + "$"):
        call(bad)


@pytest.mark.parametrize("bad, message", [
    ("1", "must be a number, got '1'"),  # gave a raw TypeError
    (b"1", "must be a number, got b'1'"),
    (np.True_, f"must be a number, got {np.True_!r}"),
    (0.0, "must be positive"),
    (-math.inf, "must be positive"),
], ids=["string", "bytes", "numpy_bool", "zero", "minus_inf"])
def test_a_schedule_duration_must_be_a_positive_number(bad, message):
    sched = cf.ControlSchedule((cf.Segment(1, 1, bad),))
    with pytest.raises(ValueError, match="^" + re.escape(f"segment 0 duration {message}") + "$"):
        cf.simulate_schedule(_SYSTEM, _ZERO3, sched, FlowSolver(100))


@pytest.mark.parametrize("call", [
    lambda t: FlowMap(rotation2d(), 0.0, t),
    lambda t: cf.flow.chained_trajectory(rotation2d(), 0.0, [0.5, t], _Q2, FlowSolver(100)),
    lambda t: cf.flow_time_dependent(lambda _t, x: -x, 0.0, t, _Q2, FlowSolver(100)),
    lambda t: cf.simplex_volume(0.0, t, 2),
    lambda t: cf.volterra_truncate(rotation2d(), _PHI2, _Q2, 0.0, t, 2),
    lambda t: cf.PerturbedSystem(V1, V2, 0.0, t),
], ids=["flow_map", "trajectory", "time_dependent", "volume", "series", "perturbed"])
@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_flow_times_must_be_finite(call, t):
    with pytest.raises(ValueError, match=r"^flow times must be finite, got \[0\.0, "):
        call(t)


def test_a_wrapped_evaluator_is_called_even_when_it_copies_the_generated_ones_attributes():
    pm = PolynomialMap.linear([[0.1, -1.0], [1.0, 0.3]])
    generated = pm._evaluator
    calls = []

    @functools.wraps(generated)
    def counted(x):
        calls.append(1)
        return generated(x)

    pm._evaluator = counted
    field = VectorField.autonomous(pm)
    flow_with_pushforward(FlowMap(field, 0.0, 0.5, FlowSolver(100)), [0.3, 0.4])
    assert len(calls) == 4 * 50


def test_an_evicted_evaluator_keeps_the_inlined_variational_loop():
    # the stored evaluator is no longer the memo's after an eviction, but it is still
    # a generated one: the loop inlines the field and no second evaluator is compiled
    pm = PolynomialMap.linear([[0.1, -1.0], [1.0, 0.3]])
    pm([0.1, 0.2])
    fields._compiled.cache_clear()  # as 1,024 other tables would evict it
    misses = fields._compiled.cache_info().misses
    assert pm._variational_rk4 is fields._compiled("variational", pm._key)
    assert fields._compiled.cache_info().misses == misses + 1
    field = VectorField.autonomous(pm)
    end, _ = flow_with_pushforward(FlowMap(field, 0.0, 0.5, FlowSolver(100)), [0.3, 0.4])
    assert np.array_equal(end, flow_map(FlowMap(field, 0.0, 0.5, FlowSolver(100)), [0.3, 0.4]))


def test_an_integral_float_node_count_is_that_count():
    assert all(np.array_equal(a, b) for a, b in zip(gauss_legendre(0.0, 1.0, 16.0),
                                                    gauss_legendre(0.0, 1.0, 16)))
