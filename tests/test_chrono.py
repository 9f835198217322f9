"""Tests for truncated expansions, remainders, and order probes."""
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import chronoflow.chrono
import chronoflow.flow
from chronoflow import (
    DegenerateProbe,
    FlowSolver,
    Observable,
    PolynomialMap,
    VectorField,
    constant_field,
    heisenberg_fields,
    integral_equation_residual,
    linear_field,
    order_probe,
    remainder_eval,
    rotation2d,
    sample_lift_bound,
    simplex_integral_term,
    simplex_volume,
    volterra_truncate,
)
from chronoflow.quadrature import gauss_legendre, split_at

SOLVER = FlowSolver(1000)
NILPOTENT = linear_field([[0.0, 1.0], [0.0, 0.0]])


def one_piece_twin(field, window=(0.0, 2.0)):
    """Wrap an autonomous field to force the nested-quadrature path."""
    return VectorField.piecewise([(window[0], window[1], field.pieces[0][2])],
                                 field.smoothness_order)


def test_simplex_term_constant_field_order1():
    c = constant_field([1.0, 0.0])
    phi = Observable.coordinate(2, 0)
    value = simplex_integral_term([c], phi, [0.0, 0.0], 0.0, 0.5)
    assert_allclose(value, [0.5])


def test_simplex_term_constant_observable_vanishes():
    phi = Observable.constant([7.0], 3)
    v1, _ = heisenberg_fields()
    for k in (1, 2, 3):
        value = simplex_integral_term([v1] * k, phi, [0.1, 0.2, 0.3], 0.0, 1.0)
        assert_allclose(value, [0.0])


def test_simplex_term_nilpotent_orders():
    phi = Observable.identity(2)
    q = np.array([0.0, 1.0])
    first = simplex_integral_term([NILPOTENT], phi, q, 0.0, 1.0)
    assert_allclose(first, [1.0, 0.0])
    second = simplex_integral_term([NILPOTENT] * 2, phi, q, 0.0, 1.0)
    assert_allclose(second, [0.0, 0.0], atol=1e-15)


def test_autonomous_fast_path_agrees_with_quadrature():
    phi = Observable.coordinate(2, 0)
    rot = rotation2d()
    twin = one_piece_twin(rot)
    q = np.array([1.0, 1.0])
    for k in (1, 2, 3):
        fast = simplex_integral_term([rot] * k, phi, q, 0.0, 0.8, nodes=16)
        quad = simplex_integral_term([twin] * k, phi, q, 0.0, 0.8, nodes=16)
        assert np.linalg.norm(fast - quad) <= 1e-9


def test_piecewise_simplex_term_against_region_enumeration():
    # With piecewise-constant pieces the order-2 integrand is constant on
    # each (piece(tau_1), piece(tau_2)) region, so the exact value is a sum
    # of region areas times cached double-lift values.
    c1 = PolynomialMap.constants([1.0, 0.0], 2)
    c2 = PolynomialMap.constants([0.0, 1.0], 2)
    field = VectorField.piecewise([(0.0, 0.5, c1), (0.5, 1.0, c2)])
    phi = Observable(PolynomialMap(2, 1, [[(1.0, (2, 0)), (1.0, (1, 1))]]))
    q = np.array([0.7, -0.2])

    from chronoflow import iterate_lift
    def double_lift(tau1, tau2):
        return iterate_lift([(field, tau1), (field, tau2)], phi)(q)

    # regions: both times in piece 1, both in piece 2, and the cross square
    oracle = (0.125 * double_lift(0.25, 0.2)
              + 0.125 * double_lift(0.75, 0.7)
              + 0.25 * double_lift(0.75, 0.25))
    value = simplex_integral_term([field, field], phi, q, 0.0, 1.0, nodes=16)
    assert np.linalg.norm(value - oracle) <= 1e-9

    first = simplex_integral_term([field], Observable.identity(2), q, 0.0, 1.0)
    assert_allclose(first, [0.5, 0.5], atol=1e-12)


def test_simplex_volume_closed_form():
    for k in (1, 2, 3, 4):
        assert abs(simplex_volume(0.0, 0.7, k) - 0.7 ** k / math.factorial(k)) <= 1e-12


def test_volterra_truncation_terminates_for_nilpotent():
    phi = Observable.identity(2)
    q = np.array([0.0, 1.0])
    t = 0.9
    value = volterra_truncate(NILPOTENT, phi, q, 0.0, t, 3)
    assert_allclose(value, [t * 1.0, 1.0])  # (I + tA) q


def test_volterra_truncation_k1_is_observable_value():
    phi = Observable.coordinate(2, 1)
    assert_allclose(volterra_truncate(rotation2d(), phi, [2.0, 3.0], 0.0, 0.7, 1),
                    [3.0])


def test_volterra_truncation_rotation_partial_cosine():
    phi = Observable.coordinate(2, 0)
    value = volterra_truncate(rotation2d(), phi, [1.0, 0.0], 0.0, 0.1, 3)
    assert abs(value[0] - (1.0 - 0.1 ** 2 / 2.0)) <= 1e-9


def test_remainder_rotation_first_order():
    phi = Observable.coordinate(2, 0)
    report = remainder_eval(rotation2d(), phi, [1.0, 0.0], 0.0, 0.1, 1, SOLVER)
    assert abs(report.remainder_norm - abs(math.cos(0.1) - 1.0)) <= 1e-10


def test_remainder_nilpotent_vanishes():
    phi = Observable.identity(2)
    report = remainder_eval(NILPOTENT, phi, [0.0, 1.0], 0.0, 1.0, 3, SOLVER)
    assert report.remainder_norm <= 1e-10


def test_remainder_zero_interval():
    phi = Observable.identity(2)
    report = remainder_eval(rotation2d(), phi, [1.0, 0.0], 0.3, 0.3, 2, SOLVER)
    assert report.remainder_norm == 0.0


def test_remainder_direct_cross_validation():
    # the flagged direct path evaluates the nested integral with the flow inside
    phi = Observable.coordinate(2, 0)
    for k in (1, 2):
        diff = remainder_eval(rotation2d(), phi, [1.0, 1.0], 0.0, 0.3, k, SOLVER)
        direct = remainder_eval(rotation2d(), phi, [1.0, 1.0], 0.0, 0.3, k, SOLVER,
                                method="direct")
        assert abs(diff.remainder_norm - direct.remainder_norm) <= 1e-8


def test_remainder_bound_with_witness():
    phi = Observable.coordinate(2, 0)
    witness = sample_lift_bound(rotation2d(), phi, 2, [1.0, 1.0], 1.2, seed=3)
    for j in range(6):
        t = 0.4 * 2.0 ** -j
        report = remainder_eval(rotation2d(), phi, [1.0, 1.0], 0.0, t, 2, SOLVER,
                                witness=witness)
        assert report.bound is not None
        assert report.remainder_norm <= 1.1 * report.bound


def test_remainder_witness_order_mismatch_rejected():
    phi = Observable.coordinate(2, 0)
    witness = sample_lift_bound(rotation2d(), phi, 1, [1.0, 1.0], 1.0)
    with pytest.raises(ValueError):
        remainder_eval(rotation2d(), phi, [1.0, 1.0], 0.0, 0.2, 2, SOLVER,
                       witness=witness)


def test_order_probe_cosine_slope_two():
    estimate = order_probe(lambda t: abs(math.cos(t) - 1.0), 0.5, 8)
    assert abs(estimate.fitted_slope - 2.0) <= 0.05


def test_order_probe_exact_cube():
    estimate = order_probe(lambda t: t ** 3, 0.5, 8)
    assert abs(estimate.fitted_slope - 3.0) <= 1e-6
    assert estimate.r_squared >= 1.0 - 1e-12


def test_order_probe_remainder_k2_slope():
    phi = Observable.coordinate(2, 0)

    def sample(t):
        return remainder_eval(rotation2d(), phi, [1.0, 0.0], 0.0, t, 2,
                              SOLVER).remainder_norm

    estimate = order_probe(sample, 0.4, 8)
    assert 1.9 <= estimate.fitted_slope <= 2.3


def test_order_probe_degenerate_on_zeros():
    with pytest.raises(DegenerateProbe):
        order_probe(lambda t: 0.0, 0.5, 8)


def test_order_probe_validates_grid():
    with pytest.raises(ValueError):
        order_probe(lambda t: t, -1.0, 8)
    with pytest.raises(ValueError):
        order_probe(lambda t: t, 1.0, 3)


@pytest.mark.parametrize("sample, t_max", [
    (lambda t: t, float("nan")),
    (lambda t: t, float("inf")),
    (lambda t: float("nan"), 0.5),  # was a degenerate pass
    (lambda t: float("nan") if t < 0.1 else t, 0.5),  # was quietly excluded
    (lambda t: float("inf"), 0.5),
    (lambda t: -t, 0.5),
])
def test_order_probe_rejects_non_finite_input(sample, t_max):
    with pytest.raises(ValueError):
        order_probe(sample, t_max, 8)


def test_order_law_sum_and_product():
    # decay orders combine like min under addition, like sums under products
    k, l = 2, 3
    sum_probe = order_probe(lambda t: t ** k + t ** l, 0.5, 8)
    assert sum_probe.fitted_slope >= min(k, l) - 0.2
    prod_probe = order_probe(lambda t: (t ** k) * (t ** l), 0.5, 8)
    assert prod_probe.fitted_slope >= k + l - 0.3


def test_integral_equation_residual_rotation():
    phi = Observable.coordinate(2, 0)
    residual = integral_equation_residual(rotation2d(), phi, [1.0, 0.0], 0.0, 1.0,
                                          SOLVER)
    assert residual <= 1e-7


def test_integral_equation_residual_trivial():
    phi = Observable.identity(2)
    assert integral_equation_residual(rotation2d(), phi, [1.0, 0.0], 0.5, 0.5,
                                      SOLVER) == 0.0


def test_integral_equation_residual_piecewise_constants():
    c1 = PolynomialMap.constants([1.0, 0.0], 2)
    c2 = PolynomialMap.constants([0.0, 1.0], 2)
    field = VectorField.piecewise([(0.0, 0.5, c1), (0.5, 1.0, c2)])
    phi = Observable.identity(2)
    residual = integral_equation_residual(field, phi, [0.0, 0.0], 0.0, 1.0, SOLVER)
    assert residual <= 1e-9


def test_series_report_serialization():
    phi = Observable.coordinate(2, 0)
    report = remainder_eval(rotation2d(), phi, [1.0, 0.0], 0.0, 0.1, 1, SOLVER)
    row = report.to_csv_row()
    assert row.startswith("0.1")
    assert report.to_json()["k"] == 1

    estimate = order_probe(lambda t: t ** 2, 0.5, 8)
    rows = estimate.to_csv_rows()
    assert rows[0] == "t,norm"
    assert len(rows) == 9
    summary = estimate.to_json_summary()
    assert abs(summary["slope"] - 2.0) <= 1e-9


def _rotation_then_drift(b=0.5):
    """Rotation on [0, b), constant drift on [b, 1.5]: a field with one breakpoint."""
    return VectorField.piecewise([
        (0.0, b, PolynomialMap.linear([[0.0, -1.0], [1.0, 0.0]])),
        (b, 1.5, PolynomialMap.constants([0.7, -0.6], 2)),
    ])


def _distinct_innermost_times(t0, t, k, cut, nodes=16):
    """Distinct innermost nodes of the order-k quadrature split at ``cut``."""
    uppers = [t]
    for _ in range(k):
        uppers = [x for upper in uppers for a, b in split_at(t0, upper, [cut])
                  for x in gauss_legendre(a, b, nodes)[0]]
    return len(set(uppers))


@pytest.mark.parametrize("k", [1, 2, "integral_equation_residual"])
@pytest.mark.parametrize("t0,t", [(0.0, 1.0), (1.3, 0.2)])
def test_direct_remainder_is_one_pass(monkeypatch, k, t0, t):
    # Every RK4 step goes through _advance_piece.  One chained pass through
    # the distinct innermost times adds at most one partial step per segment
    # and per breakpoint crossed to the step count of the whole window.  The
    # integral equation residual (an order-1 direct remainder) walks the same
    # pass on to t for its flowed point.
    steps = []
    advance = chronoflow.flow._advance_piece

    def counting(pm, q, mat, a, b, solver, step_base):
        steps.append(solver.step_count(a, b))
        return advance(pm, q, mat, a, b, solver, step_base)

    monkeypatch.setattr(chronoflow.flow, "_advance_piece", counting)
    field, phi, q = _rotation_then_drift(), Observable.identity(2), [0.6, -0.8]
    if k == "integral_equation_residual":
        assert integral_equation_residual(field, phi, q, t0, t, SOLVER) <= 1e-7
        segments = _distinct_innermost_times(t0, t, 1, 0.5) + 1  # the last one ends at t
    else:
        remainder_eval(field, phi, q, t0, t, k, SOLVER, method="direct")
        segments = _distinct_innermost_times(t0, t, k, 0.5)
    assert 0 < sum(steps) <= SOLVER.step_count(t0, t) + segments + 1


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("t0,t", [(0.0, 1.0), (1.3, 0.2)])
def test_direct_and_difference_agree_across_breakpoint(k, t0, t):
    field = _rotation_then_drift()
    phi = Observable.identity(2)
    q = [0.6, -0.8]
    diff = remainder_eval(field, phi, q, t0, t, k, SOLVER)
    direct = remainder_eval(field, phi, q, t0, t, k, SOLVER, method="direct")
    assert diff.remainder_norm > 1e-3
    assert abs(diff.remainder_norm - direct.remainder_norm) <= 1e-8


def test_simplex_volume_backward_and_split_orders():
    assert simplex_volume(0.3, 0.3, 2) == 0.0
    assert simplex_volume(0.0, 0.7, 0) == 1.0
    for k in (1, 2, 3):
        expected = (-0.5) ** k / math.factorial(k)
        assert abs(simplex_volume(0.5, 0.0, k) - expected) <= 1e-12


@pytest.mark.parametrize("t0,t", [(0.0, 1.0), (1.3, 0.2)])
def test_direct_remainder_evaluates_each_time_and_lift_once(monkeypatch, t0, t):
    field, phi = _rotation_then_drift(), Observable.identity(2)
    leaves = chronoflow.chrono._simplex_leaves([field] * 3, phi, t0, t, 8)
    pairs = len({(x, id(lifted)) for x, _, lifted in leaves})
    assert pairs < len(leaves)
    calls = []
    evaluate = Observable.__call__

    def counting(self, q):
        calls.append(q)
        return evaluate(self, q)

    monkeypatch.setattr(Observable, "__call__", counting)
    remainder_eval(field, phi, [0.6, -0.8], t0, t, 3, SOLVER, nodes=8, method="direct")
    assert len(calls) == pairs
