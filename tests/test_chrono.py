"""Tests for truncated expansions, remainders, and order probes."""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.testing import assert_allclose

import chronoflow.fields
from chronoflow import (
    FlowMap,
    FlowSolver,
    Observable,
    PolynomialMap,
    VectorField,
    constant_field,
    flow_map,
    flow_with_pushforward,
    heisenberg_fields,
    integral_equation_residual,
    inverse_flow,
    linear_field,
    order_probe,
    remainder_eval,
    rotation2d,
    sample_lift_bound,
    simplex_integral_term,
    simplex_volume,
    volterra_truncate,
)
from chronoflow.chrono import ZERO_NORM_CUTOFF, _direct_remainder, fit_order
from chronoflow.quadrature import MAX_NODES, gauss_legendre

SOLVER = FlowSolver(1000)
NILPOTENT = linear_field([[0.0, 1.0], [0.0, 0.0]])


def one_piece_twin(field, window=(0.0, 2.0)):
    """Wrap an autonomous field as a piecewise field of one piece."""
    return VectorField.piecewise([(window[0], window[1], field.pieces[0][2])],
                                 field.smoothness_order)


def test_simplex_term_constant_field_order1():
    c = constant_field([1.0, 0.0])
    phi = Observable.coordinate(2, 0)
    value = simplex_integral_term(c, phi, [0.0, 0.0], 0.0, 0.5, 1)
    assert_allclose(value, [0.5])


def test_simplex_term_constant_observable_vanishes():
    phi = Observable.constant([7.0], 3)
    v1, _ = heisenberg_fields()
    for k in (1, 2, 3):
        value = simplex_integral_term(v1, phi, [0.1, 0.2, 0.3], 0.0, 1.0, k)
        assert_allclose(value, [0.0])


def test_simplex_term_nilpotent_orders():
    phi = Observable.identity(2)
    q = np.array([0.0, 1.0])
    first = simplex_integral_term(NILPOTENT, phi, q, 0.0, 1.0, 1)
    assert_allclose(first, [1.0, 0.0])
    second = simplex_integral_term(NILPOTENT, phi, q, 0.0, 1.0, 2)
    assert_allclose(second, [0.0, 0.0], atol=1e-15)


def test_autonomous_fast_path_agrees_with_quadrature():
    phi = Observable.coordinate(2, 0)
    rot = rotation2d()
    twin = one_piece_twin(rot)
    q = np.array([1.0, 1.0])
    for k in (1, 2, 3):
        fast = simplex_integral_term(rot, phi, q, 0.0, 0.8, k)
        quad = simplex_integral_term(twin, phi, q, 0.0, 0.8, k)
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
    value = simplex_integral_term(field, phi, q, 0.0, 1.0, 2)
    assert np.linalg.norm(value - oracle) <= 1e-9

    first = simplex_integral_term(field, Observable.identity(2), q, 0.0, 1.0, 1)
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


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(st.floats(0.01, 2.0), st.integers(2, 12), st.floats(0.25, 8.0), st.floats(-20.0, 5.0),
       st.lists(st.floats(-0.5, 0.5), min_size=12, max_size=12))
def test_closed_form_slope_matches_polyfit(t_max, levels, order, log_c, noise):
    # a decay c t^order with multiplicative noise on a dyadic grid, some samples below
    # the zero cutoff: the closed form and numpy's least-squares polyfit, the
    # reference, fit the same line up to rounding
    t_grid = t_max * 2.0 ** -np.arange(levels, dtype=float)
    norms = np.exp(log_c + order * np.log(t_grid) + np.array(noise[:levels]))
    usable = norms > ZERO_NORM_CUTOFF
    assume(usable.sum() >= 2)
    log_t, log_n = np.log(t_grid[usable]), np.log(norms[usable])
    slope, intercept = np.polyfit(log_t, log_n, 1)
    ss_res = np.sum((log_n - (slope * log_t + intercept)) ** 2)
    ss_tot = np.sum((log_n - np.mean(log_n)) ** 2)
    estimate = fit_order(t_grid, norms)
    assert abs(estimate.fitted_slope - slope) <= 1e-12 * abs(slope)
    assert estimate.excluded == levels - usable.sum()
    if ss_tot > 1e-20:
        assert abs(estimate.r_squared - (1.0 - ss_res / ss_tot)) <= 1e-12


def test_order_probe_shares_its_read_only_grid():
    first, second = (order_probe(lambda t: t ** 2, 0.5, 6) for _ in range(2))
    assert first.t_grid is second.t_grid and not first.t_grid.flags.writeable


def test_order_probe_degenerate_on_zeros():
    estimate = order_probe(lambda t: 0.0, 0.5, 8)
    assert estimate.degenerate and estimate.passes_order(4)
    assert estimate.t_grid.tolist() == (0.5 * 2.0 ** -np.arange(8)).tolist()
    assert estimate.norms.tolist() == [0.0] * 8


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


@pytest.mark.parametrize("t", [0.5, 0.5 + 1e-16])
def test_direct_remainder_with_no_times_ends_at_the_start(t):
    # no part of [0.5, t] is longer than parts' cutoff: the pass has no times, its
    # stacked states have zero rows, and the last state is the start point; walked on
    # to t, the pass has the one time t, where the point has not moved
    phi, q = Observable.identity(2), np.array([1.0, -0.5])
    integral, end = _direct_remainder(rotation2d(), phi, q, 0.5, t, 2, SOLVER, 4)
    assert np.array_equal(integral, np.zeros(2)) and end is q
    integral, end = _direct_remainder(rotation2d(), phi, q, 0.5, t, 1, SOLVER, 4,
                                      to_end=True)
    assert np.array_equal(integral, np.zeros(2)) and np.array_equal(end, q)
    assert integral_equation_residual(rotation2d(), phi, q, 0.5, t, SOLVER) == 0.0


def test_integral_equation_residual_piecewise_constants():
    c1 = PolynomialMap.constants([1.0, 0.0], 2)
    c2 = PolynomialMap.constants([0.0, 1.0], 2)
    field = VectorField.piecewise([(0.0, 0.5, c1), (0.5, 1.0, c2)])
    phi = Observable.identity(2)
    residual = integral_equation_residual(field, phi, [0.0, 0.0], 0.0, 1.0, SOLVER)
    assert residual <= 1e-9


def test_quadrature_rejects_node_counts_above_the_cap():
    assert len(gauss_legendre(0.0, 1.0, MAX_NODES)[0]) == MAX_NODES
    with pytest.raises(ValueError, match=f"quadrature nodes must be <= {MAX_NODES}, got 100000"):
        gauss_legendre(0.0, 1.0, 100_000)


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
        uppers = [x for upper in uppers
                  for a, b, _ in _rotation_then_drift(cut).parts(t0, upper)
                  for x in gauss_legendre(a, b, nodes)[0]]
    return len(set(uppers))


@pytest.mark.parametrize("k", [1, 2, "integral_equation_residual"])
@pytest.mark.parametrize("t0,t", [(0.0, 1.0), (1.3, 0.2)])
def test_direct_remainder_is_one_pass(monkeypatch, k, t0, t):
    # Every solve takes each part's steps from FlowSolver.step_count.  One
    # chained pass through the distinct innermost times adds at most one partial
    # step per segment and per breakpoint crossed to the step count of the whole
    # window.  The integral equation residual (an order-1 direct remainder)
    # walks the same pass on to t for its flowed point.
    steps = []
    step_count = FlowSolver.step_count
    bound = SOLVER.step_count(t0, t) + 1

    def counting(solver, a, b):
        steps.append(step_count(solver, a, b))
        return steps[-1]

    monkeypatch.setattr(FlowSolver, "step_count", counting)
    field, phi, q = _rotation_then_drift(), Observable.identity(2), [0.6, -0.8]
    if k == "integral_equation_residual":
        assert integral_equation_residual(field, phi, q, t0, t, SOLVER) <= 1e-7
        segments = _distinct_innermost_times(t0, t, 1, 0.5) + 1  # the last one ends at t
    else:
        remainder_eval(field, phi, q, t0, t, k, SOLVER, method="direct")
        segments = _distinct_innermost_times(t0, t, k, 0.5)
    assert 0 < sum(steps) <= bound + segments


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
    # each piece sequence has one innermost piece, whose rule has 8 nodes
    field, phi = _rotation_then_drift(), Observable.identity(2)
    calls = _count_lift_evaluations(monkeypatch, field)
    remainder_eval(field, phi, [0.6, -0.8], t0, t, 3, SOLVER, nodes=8, method="direct")
    assert len(calls) == len(set(calls)) == 8 * math.comb(2 + 3 - 1, 3)


def _count_lift_evaluations(monkeypatch, field):
    """Record (map id, point) of each call of a compiled evaluator that is not one of
    ``field``'s pieces (the RK4 steps): the observable's and its lifts' evaluations.
    None may go through ``Observable.__call__``, which would check the point again."""
    monkeypatch.setattr(Observable, "__call__",
                        lambda *args: pytest.fail("a lift was evaluated via __call__"))
    calls = []
    compiled = PolynomialMap._evaluator
    pieces = {id(pm) for _, _, pm in field.pieces}

    def hooked(pm):
        evaluate = compiled.__get__(pm, PolynomialMap)
        if id(pm) in pieces:
            return evaluate

        def counting(x):
            calls.append((id(pm), tuple(x)))
            return evaluate(x)
        return counting

    monkeypatch.setattr(PolynomialMap, "_evaluator", property(hooked))
    return calls


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.mark.parametrize("field, lifts, evaluations", [
    (rotation2d(), 3, 4),             # one lift per order
    (_rotation_then_drift(), 9, 10),  # 2 + 3 + 4 non-increasing piece sequences
])
def test_truncation_builds_and_evaluates_each_lift_once(monkeypatch, field, lifts,
                                                        evaluations):
    lift_calls = _count_calls(monkeypatch, chronoflow.fields, "lift_map")
    obs_calls = _count_lift_evaluations(monkeypatch, field)
    volterra_truncate(field, Observable.identity(2), [0.6, -0.8], 0.0, 1.0, 4)
    assert (len(lift_calls), len(obs_calls)) == (lifts, evaluations)


@pytest.mark.parametrize("method", ["difference", "direct"])
def test_remainder_order_below_one_is_rejected(method):
    with pytest.raises(ValueError, match="truncation order k must be >= 1"):
        remainder_eval(rotation2d(), Observable.identity(2), [1.0, 0.0], 0.0, 0.5, 0,
                       SOLVER, method=method)


def test_negative_simplex_order_is_rejected():
    with pytest.raises(ValueError, match=r"simplex order k must be >= 0, got -1"):
        simplex_integral_term(_rotation_then_drift(), Observable.identity(2), [1.0, 0.0],
                              0.0, 0.5, -1)


def test_witness_order_below_one_is_rejected():
    with pytest.raises(ValueError, match=r"witness order must be >= 1, got 0"):
        sample_lift_bound(rotation2d(), Observable.identity(2), 0, [1.0, 0.0], 0.5)


@pytest.mark.parametrize("call, message", [
    (lambda: simplex_volume(0.0, 0.7, -1), "simplex order k must be >= 0, got -1"),
    (lambda: simplex_volume(0.0, 0.7, -3), "simplex order k must be >= 0, got -3"),
    (lambda: simplex_volume(0.0, math.nan, 2), "flow times must be finite"),
    (lambda: simplex_integral_term(rotation2d(), Observable.identity(2), [1.0, 0.0],
                                   0.0, math.inf, 1), "flow times must be finite"),
    # no points would leave bound_C None, and True would pass as one point
    (lambda: sample_lift_bound(rotation2d(), Observable.identity(2), 1, [1.0, 0.0], 0.5,
                               num_points=0), r"witness num_points must be >= 1, got 0"),
    (lambda: sample_lift_bound(rotation2d(), Observable.identity(2), 1, [1.0, 0.0], 0.5,
                               num_points=True),
     "witness num_points must be an integer, got True"),
    # True would pass as seed 1
    (lambda: sample_lift_bound(rotation2d(), Observable.identity(2), 1, [1.0, 0.0], 0.5,
                               seed=True), "witness seed must be an integer, got True"),
    (lambda: remainder_eval(rotation2d(), Observable.identity(2), [1.0, 0.0], 0.0, 0.5, 1,
                            SOLVER, nodes=8), "difference remainder takes no quadrature nodes"),
    # True would pass as a one-node rule
    (lambda: remainder_eval(rotation2d(), Observable.identity(2), [1.0, 0.0], 0.0, 0.5, 1,
                            SOLVER, nodes=True, method="direct"),
     "quadrature nodes must be an integer, got True"),
    # checked even where t0 == t leaves no part to place nodes on
    (lambda: remainder_eval(rotation2d(), Observable.identity(2), [1.0, 0.0], 0.5, 0.5, 1,
                            SOLVER, nodes=0, method="direct"),
     "quadrature nodes must be >= 1, got 0"),
], ids=["volume_order_-1", "volume_order_-3", "volume_nan_time", "term_inf_time",
        "witness_no_points", "witness_bool_points", "witness_bool_seed", "difference_nodes",
        "direct_bool_nodes", "direct_no_part_zero_nodes"])
def test_series_entry_points_reject_orders_and_times_they_cannot_honour(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_witness_bounds_a_backward_remainder():
    # from t0 = 1 back to 0 the order-2 remainder of x2 lives on increasing
    # piece sequences only, which a forward-only witness never sampled
    field = VectorField.piecewise([
        (0.0, 0.5, PolynomialMap(2, 2, [[], [(1.0, (1, 0))]])),
        (0.5, 1.0, PolynomialMap.constants([1.0, 0.0], 2)),
    ])
    phi = Observable.coordinate(2, 1)
    witness = sample_lift_bound(field, phi, 2, [0.3, 0.2], 0.5)
    report = remainder_eval(field, phi, [0.3, 0.2], 1.0, 0.0, 2, SOLVER, witness=witness)
    assert abs(report.remainder_norm - 0.25) <= 1e-12
    assert report.remainder_norm <= report.bound


def _bang_bang(pieces: int):
    """x' = u(t) J x, J the rotation generator, u = +-1 (seeded) on equal pieces of
    [0, 1], each piece one of two shared maps (two compiles, whatever the count);
    returns the field and the integral of u from t0 to t."""
    u = np.random.default_rng(pieces).choice([-1.0, 1.0], size=pieces)
    edges = np.linspace(0.0, 1.0, pieces + 1).tolist()
    maps = {s: PolynomialMap.linear([[0.0, -s], [s, 0.0]]) for s in (-1.0, 1.0)}
    field = VectorField.piecewise([(a, b, maps[s]) for a, b, s in zip(edges, edges[1:], u)])

    def integral(t0, t):
        lo, hi = min(t0, t), max(t0, t)
        total = sum(s * max(0.0, min(b, hi) - max(a, lo))
                    for a, b, s in zip(edges, edges[1:], u))
        return total if t >= t0 else -total

    return field, integral


def test_repeated_tables_are_one_lift_each(monkeypatch):
    # a lift depends on its fields only through their maps, and the bang-bang field
    # repeats two: 2 + 4 lifts serve every piece sequence of order 1 and 2 on 200
    # pieces, where one lift per sequence of piece indices would be 20,300
    field, _ = _bang_bang(200)
    phi, q = Observable.identity(2), [0.6, -0.8]
    lift_calls = _count_calls(monkeypatch, chronoflow.fields, "lift_map")
    volterra_truncate(field, phi, q, 0.0, 1.0, 3)
    assert len(lift_calls) == 6
    lift_calls.clear()
    remainder_eval(field, phi, q, 0.0, 1.0, 2, SOLVER, method="direct")
    assert len(lift_calls) == 6
    lift_calls.clear()
    sample_lift_bound(_bang_bang(10)[0], phi, 4, q, 0.5)
    assert len(lift_calls) <= 2 + 4 + 8 + 16  # every map sequence of length 1 to 4


def test_many_piece_series_cost_words_not_piece_sequences(monkeypatch):
    # 200 pieces over two maps: the order-3 truncation evaluates the 1 + 2 + 4 words of
    # at most two maps, where one evaluation per piece sequence would be 20,301; the
    # k = 2 direct remainder evaluates one lift per node and word of at most one map
    field, _ = _bang_bang(200)
    phi, q = Observable.identity(2), [0.6, -0.8]
    calls = _count_lift_evaluations(monkeypatch, field)
    volterra_truncate(field, phi, q, 0.0, 1.0, 3)
    assert len(calls) == 7
    calls.clear()
    remainder_eval(field, phi, q, 0.0, 1.0, 2, SOLVER, method="direct")
    assert len(calls) <= 16 * 200 * 3


@pytest.mark.parametrize("call, message", [
    (lambda: simplex_volume(0.0, 1e200, 3), r"order-3 simplex volume on \[0.0, 1e\+200\]"),
    (lambda: volterra_truncate(rotation2d(), Observable.identity(2), [0.1, 0.2], 0.0, 1e200,
                               3), r"order-2 Volterra term on \[0.0, 1e\+200\]"),
    (lambda: simplex_integral_term(rotation2d(), Observable(PolynomialMap(
        2, 1, [[(1.0, (6, 0))]])), [1e50, 0.2], 0.0, 1e10, 2),
     r"order-2 Volterra term on \[0.0, 10000000000.0\]"),
], ids=["volume", "coefficient", "term"])
def test_overflowing_series_is_a_floating_point_error(call, message):
    # (1e200)^2 overflows a float, and so does 30 (1e50)^6 times (1e10)^2 / 2; an
    # overflowing coefficient makes its term NaN
    with pytest.raises(FloatingPointError, match=message):
        call()


X40 = Observable(PolynomialMap(2, 1, [[(1.0, (40, 0))]]), 40)


def test_overflowing_direct_remainder_is_a_floating_point_error():
    # the lifts of x^40 overflow a float at (1e10, 0.2), a state the solver accepts
    args = (rotation2d(), X40, [1e10, 0.2], 0.0, 0.1)
    message = r"^the direct remainder integral on \[0.0, 0.1\] is not finite$"
    with pytest.raises(FloatingPointError, match=message):
        remainder_eval(*args, 2, FlowSolver(100), method="direct")
    with pytest.raises(FloatingPointError, match=message):
        integral_equation_residual(*args, FlowSolver(100))


def test_overflowing_observable_at_an_end_is_a_floating_point_error():
    # along (0, 1) every lift of x^40 is 0, so only the observable overflows
    with pytest.raises(FloatingPointError,
                       match=r"^the observable at an end of \[0.0, 0.1\] is not finite$"):
        integral_equation_residual(constant_field([0.0, 1.0]), X40, [1e10, 0.2], 0.0, 0.1,
                                   FlowSolver(100))


def test_simplex_volume_whose_power_or_factorial_overflows_is_finite():
    # 0.5^200 / 200! underflows to 0, and 1e3^200 / 200! is about 1e600 / 7.9e374,
    # which the int division rounds correctly
    assert simplex_volume(0.0, 0.5, 200) == simplex_volume(0.3, 0.3, 200) == 0.0
    exact = 10 ** 600 / math.factorial(200)
    assert abs(simplex_volume(0.0, 1e3, 200) / exact - 1.0) <= 1e-12
    assert abs(simplex_volume(0.0, -1e3, 201) / (-exact * 1e3 / 201) - 1.0) <= 1e-12


@pytest.mark.parametrize("t0,t", [(0.0, 1.0), (0.9, 0.1)])
def test_equal_tables_built_apart_give_the_bits_of_shared_maps(t0, t):
    # the same bang-bang field twice: its 12 pieces share two map objects, or each
    # piece holds its own map of one of the two tables
    shared, _ = _bang_bang(12)
    apart = VectorField.piecewise([(a, b, PolynomialMap(2, 2, pm.components))
                                   for a, b, pm in shared.pieces])
    assert len({id(pm) for _, _, pm in shared.pieces}) == 2
    assert len({id(pm) for _, _, pm in apart.pieces}) == 12
    phi = Observable(PolynomialMap(2, 1, [[(1.0, (2, 0)), (0.5, (1, 1)), (-0.3, (0, 1))]]))
    q = [0.6, -0.8]

    def results(field):
        yield [simplex_integral_term(field, phi, q, t0, t, k) for k in range(4)]
        for k in (1, 2, 3):
            yield volterra_truncate(field, phi, q, t0, t, k)
            yield remainder_eval(field, phi, q, t0, t, k, SOLVER).remainder_norm
            yield remainder_eval(field, phi, q, t0, t, k, SOLVER, method="direct").remainder_norm
            yield sample_lift_bound(field, phi, k, q, 0.5, num_points=32).bound_C

    for got, want in zip(results(apart), results(shared), strict=True):
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("pieces", [1, 5, 10, 20])
@pytest.mark.parametrize("t0,t", [(0.0, 1.0), (1.0, 0.0), (0.13, 0.91), (0.91, 0.13)])
def test_many_piece_terms_are_powers_of_the_rotation_angle(pieces, t0, t):
    field, integral = _bang_bang(pieces)
    q = np.array([0.6, -0.8])
    generator = np.array([[0.0, -1.0], [1.0, 0.0]])
    angle = integral(t0, t)
    for i in range(4):
        term = simplex_integral_term(field, Observable.identity(2), q, t0, t, i)
        exact = angle ** i / math.factorial(i) * np.linalg.matrix_power(generator, i) @ q
        assert np.linalg.norm(term - exact) <= 1e-13 * np.linalg.norm(exact)


@pytest.mark.parametrize("k", [2, 3])
def test_many_piece_direct_remainder_matches_difference(k):
    field, _ = _bang_bang(10)
    phi, q = Observable.identity(2), [0.6, -0.8]
    for t0, t in [(0.0, 1.0), (1.0, 0.0)]:
        direct = remainder_eval(field, phi, q, t0, t, k, SOLVER, method="direct")
        diff = remainder_eval(field, phi, q, t0, t, k, SOLVER)
        assert diff.remainder_norm > 1e-3
        assert abs(direct.remainder_norm - diff.remainder_norm) <= 1e-12


@pytest.mark.parametrize("pieces", [1, 10, 100, 1000, 4000])
def test_many_piece_flows_are_the_rotation_by_the_integral(pieces):
    # An RK4 step of x' = s J x is a contraction within h^5/120 (1 + h) of the
    # rotation exp(s h J), so with |q| = 1 the error is at most the sum of that
    # over the steps, plus rounding
    field, integral = _bang_bang(pieces)
    solver = FlowSolver(20)
    steps = pieces * solver.step_count(0.0, 1.0 / pieces)
    h = 1.0 / steps
    bound = steps * (h ** 5 / 120 * (1 + h) + 16 * np.finfo(float).eps)
    angle = integral(0.0, 1.0)
    c, s = math.cos(angle), math.sin(angle)
    rotation, q = np.array([[c, -s], [s, c]]), np.array([0.6, -0.8])
    fm = FlowMap(field, 0.0, 1.0, solver)
    end, pushforward = flow_with_pushforward(fm, q)
    assert np.array_equal(end, flow_map(fm, q))
    assert np.linalg.norm(end - rotation @ q) <= bound
    assert np.linalg.norm(pushforward - rotation) <= 2 * bound  # two unit columns
    assert np.linalg.norm(inverse_flow(fm, q) - rotation.T @ q) <= bound
