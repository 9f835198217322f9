"""Tests for parameter derivatives of flows and variation of parameters."""
import numpy as np
import pytest
from numpy.testing import assert_allclose

from chronoflow import (
    FlowMap,
    FlowSolver,
    IN_FORMULA,
    OUT_FORMULA,
    PerturbedSystem,
    PolynomialMap,
    VectorField,
    add_fields,
    brockett_fields,
    constant_field,
    fd_param_derivative,
    heisenberg_fields,
    linear_field,
    param_derivative,
    rotation2d,
    unicycle_fields,
    variation_of_parameters_check,
    zero_field,
)
from chronoflow import fields, flow, paramflow
from chronoflow.flow import _transport

SOLVER = FlowSolver(1000)
V1, V2 = heisenberg_fields()


def test_zero_base_constant_perturbation():
    system = PerturbedSystem(zero_field(2), constant_field([1.0, -2.0]), 0.0, 0.7)
    expected = 0.7 * np.array([1.0, -2.0])
    for mode in (IN_FORMULA, OUT_FORMULA):
        assert np.linalg.norm(param_derivative(system, [0.0, 0.0], mode, SOLVER)
                              - expected) <= 1e-10


def test_formula_matches_fd_oracle_rotation():
    system = PerturbedSystem(rotation2d(), constant_field([1.0, 0.0]), 0.0, 1.0)
    value = param_derivative(system, [1.0, 0.0], IN_FORMULA, SOLVER)
    oracle = fd_param_derivative(system, [1.0, 0.0], 1e-4, SOLVER)
    assert np.linalg.norm(value - oracle) / (1.0 + np.linalg.norm(oracle)) <= 1e-4


def test_modes_agree_heisenberg():
    system = PerturbedSystem(V1, V2, 0.0, 0.5)
    inner = param_derivative(system, [0.0, 0.0, 0.0], IN_FORMULA, SOLVER)
    outer = param_derivative(system, [0.0, 0.0, 0.0], OUT_FORMULA, SOLVER)
    assert np.linalg.norm(inner - outer) <= 1e-6


@pytest.mark.parametrize("base,perturbation,dim", [
    (rotation2d(), constant_field([1.0, 0.0]), 2),
    (V1, V2, 3),
    (unicycle_fields()[0], unicycle_fields()[1], 3),
])
def test_formula_oracle_agreement_catalog_pairs(base, perturbation, dim):
    system = PerturbedSystem(base, perturbation, 0.0, 0.8)
    q = np.full(dim, 0.3)
    oracle = fd_param_derivative(system, q, 1e-4, SOLVER)
    for mode in (IN_FORMULA, OUT_FORMULA):
        value = param_derivative(system, q, mode, SOLVER)
        assert np.linalg.norm(value - oracle) / (1.0 + np.linalg.norm(oracle)) <= 1e-4


def test_param_derivative_is_one_pass(monkeypatch):
    # Every solve, plain or variational, takes each part's steps from
    # FlowSolver.step_count; one pass through the 32 nodes may add one partial
    # step per segment to the step count of the whole window.
    steps = []
    step_count = FlowSolver.step_count
    bound = SOLVER.step_count(0.0, 0.5) + 33

    def counting(solver, a, b):
        steps.append(step_count(solver, a, b))
        return steps[-1]

    monkeypatch.setattr(FlowSolver, "step_count", counting)
    system = PerturbedSystem(V1, V2, 0.0, 0.5)
    for mode in (IN_FORMULA, OUT_FORMULA):
        steps.clear()
        param_derivative(system, [0.1, 0.2, 0.3], mode, SOLVER, nodes=32)
        assert 0 < sum(steps) <= bound


def test_in_mode_is_one_tangent_pass_with_no_matrix(monkeypatch):
    # "in" carries a vector beside the state: it compiles the tangent loop and no
    # variational one, and its one pass returns that vector, no (N, n, n) stack
    fields._compiled.cache_clear()
    kinds, carried = [], []
    source, core = fields._rk4_source, paramflow._flow_core

    def spying(*args):
        states, rest = core(*args)
        carried.append((args[5], np.shape(rest)))  # want_pushforward, what the pass carried
        return states, rest

    monkeypatch.setattr(fields, "_rk4_source",
                        lambda kind, *rest: kinds.append(kind) or source(kind, *rest))
    monkeypatch.setattr(paramflow, "_flow_core", spying)
    # the Heisenberg pair, built apart from the shared one, so that no loop of it is cached
    system = PerturbedSystem(*(VectorField.autonomous(PolynomialMap(3, 3, comps)) for comps in (
        [[(1.0, (0, 0, 0))], [], [(-0.5, (0, 1, 0))]],
        [[], [(1.0, (0, 0, 0))], [(0.5, (1, 0, 0))]])), 0.0, 0.5)
    inner = param_derivative(system, [0.1, 0.2, 0.3], IN_FORMULA, SOLVER)
    assert "tangent" in kinds and "variational" not in kinds
    assert carried == [(False, (3,))]
    monkeypatch.undo()
    outer = param_derivative(system, [0.1, 0.2, 0.3], OUT_FORMULA, SOLVER)
    assert np.linalg.norm(inner - outer) <= 1e-6


@pytest.mark.parametrize("t0,t1", [(0.1, 1.4), (1.4, 0.1)])
def test_out_mode_is_one_pushforward_pass_through_its_nodes(monkeypatch, t0, t1):
    # "out" pulls every contribution back along one variational pass through the
    # nodes of each part and t1, and runs no other solve
    calls = []
    core = flow._flow_core

    def spying(field, t0, times, q, solver, want_pushforward=False, gains=None):
        calls.append((want_pushforward, len(times)))
        return core(field, t0, times, q, solver, want_pushforward, gains)

    for module in (flow, paramflow):
        monkeypatch.setattr(module, "_flow_core", spying)
    system = PerturbedSystem(_piecewise_base(), constant_field([1.0, -0.5]), t0, t1)
    param_derivative(system, [0.4, -0.3], OUT_FORMULA, SOLVER, nodes=8)
    assert calls == [(True, 2 * 8 + 1)]  # two parts of eight nodes, and t1


def _piecewise_base():
    """Rotation on [0, 0.5], then a quadratic field on [0.5, 1.5]."""
    rot = PolynomialMap.linear([[0.0, -1.0], [1.0, 0.0]])
    quad = PolynomialMap(2, 2, [[(0.5, (0, 2))], [(-0.3, (1, 0)), (0.2, (1, 1))]])
    return VectorField.piecewise([(0.0, 0.5, rot), (0.5, 1.5, quad)])


@pytest.mark.parametrize("t0,t1", [(0.1, 1.4), (1.4, 0.1)])
def test_node_maps_come_from_the_cut_not_a_lookup(monkeypatch, t0, t1):
    # W's map at each node is the map of the part that yields the node
    w = VectorField.piecewise([(0.0, 0.7, PolynomialMap.constants([1.0, 0.0], 2)),
                               (0.7, 1.5, PolynomialMap.linear([[0.3, 0.1], [0.0, -0.2]]))])
    system = PerturbedSystem(_piecewise_base(), w, t0, t1)
    expected = [param_derivative(system, [0.4, -0.3], mode, SOLVER)
                for mode in (IN_FORMULA, OUT_FORMULA)]
    monkeypatch.setattr(VectorField, "piece_at", lambda *args: pytest.fail("piece lookup"))
    for mode, want in zip((IN_FORMULA, OUT_FORMULA), expected):
        assert np.array_equal(param_derivative(system, [0.4, -0.3], mode, SOLVER), want)


@pytest.mark.parametrize("t0,t1", [(0.0, 1.2), (1.3, 0.1)])
def test_formula_oracle_agreement_across_breakpoint(t0, t1):
    system = PerturbedSystem(_piecewise_base(), linear_field([[0.3, 0.1], [0.0, -0.2]]),
                             t0, t1)
    q = np.array([0.4, -0.3])
    oracle = fd_param_derivative(system, q, 1e-4, SOLVER)
    for mode in (IN_FORMULA, OUT_FORMULA):
        value = param_derivative(system, q, mode, SOLVER)
        assert np.linalg.norm(value - oracle) / (1.0 + np.linalg.norm(oracle)) <= 1e-4


@pytest.mark.parametrize("t", [0.8, -0.6])
def test_formula_oracle_agreement_random_field(random_field, t):
    system = PerturbedSystem(random_field(5, 4, 3), random_field(6, 4, 3), 0.0, t)
    q = np.array([0.3, -0.2, 0.1, 0.4])
    oracle = fd_param_derivative(system, q, 1e-4, SOLVER)
    inner = param_derivative(system, q, IN_FORMULA, SOLVER)
    outer = param_derivative(system, q, OUT_FORMULA, SOLVER)
    assert np.linalg.norm(inner - oracle) / (1.0 + np.linalg.norm(oracle)) <= 1e-4
    assert np.linalg.norm(inner - outer) <= 1e-6


def test_fd_halving_shrinks_discrepancy_about_4x():
    # second-order central differences on a pair that is nonlinear in alpha
    base = rotation2d()
    perturbation = linear_field([[0.3, 0.1], [0.0, -0.2]])
    system = PerturbedSystem(base, perturbation, 0.0, 1.0)
    q = np.array([1.0, 0.5])
    value = param_derivative(system, q, IN_FORMULA, SOLVER)
    coarse = np.linalg.norm(fd_param_derivative(system, q, 2e-2, SOLVER) - value)
    fine = np.linalg.norm(fd_param_derivative(system, q, 1e-2, SOLVER) - value)
    assert 3.0 <= coarse / fine <= 5.0


def test_fd_zero_perturbation():
    system = PerturbedSystem(rotation2d(), zero_field(2), 0.0, 1.0)
    assert_allclose(fd_param_derivative(system, [1.0, 0.0], 1e-4, SOLVER),
                    np.zeros(2), atol=1e-12)


def test_param_derivative_linear_in_perturbation():
    base = rotation2d()
    w1 = linear_field([[0.3, 0.1], [0.0, -0.2]])
    w2 = constant_field([0.2, -0.1])
    combo = add_fields(w1, w2, 2.0, 3.0)
    q = np.array([1.0, 0.5])
    lhs = param_derivative(PerturbedSystem(base, combo, 0.0, 1.0), q,
                           OUT_FORMULA, SOLVER)
    rhs = (2.0 * param_derivative(PerturbedSystem(base, w1, 0.0, 1.0), q,
                                  OUT_FORMULA, SOLVER)
           + 3.0 * param_derivative(PerturbedSystem(base, w2, 0.0, 1.0), q,
                                    OUT_FORMULA, SOLVER))
    assert np.linalg.norm(lhs - rhs) <= 1e-9


def test_zero_perturbation_gives_zero_vector():
    system = PerturbedSystem(V1, zero_field(3), 0.0, 0.6)
    for mode in (IN_FORMULA, OUT_FORMULA):
        assert_allclose(param_derivative(system, [0.1, 0.2, 0.3], mode, SOLVER),
                        np.zeros(3), atol=1e-14)


@pytest.mark.parametrize("t1", [0.3, 0.3 + 1e-16, 0.3 - 1e-16])
def test_window_with_no_part_gives_zero_in_both_modes(t1):
    # a window no longer than parts' cutoff has no quadrature node, like t1 == t0;
    # "out" stacked zero forward pushforwards and raised LinAlgError before
    system = PerturbedSystem(V1, V2, 0.3, t1)
    for mode in (IN_FORMULA, OUT_FORMULA):
        result = param_derivative(system, [0.1, 0.2, 0.3], mode, SOLVER)
        assert np.array_equal(result, np.zeros(3))


@pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), 0.0, -1e-4])
def test_fd_param_derivative_rejects_bad_epsilon(epsilon):
    system = PerturbedSystem(V1, V2, 0.0, 0.5)
    with pytest.raises(ValueError, match="epsilon"):
        fd_param_derivative(system, [0.0, 0.0, 0.0], epsilon, SOLVER)


@pytest.mark.parametrize("t0,t1", [(0.0, float("inf")), (float("nan"), 0.5)])
def test_perturbed_system_rejects_non_finite_times(t0, t1):
    with pytest.raises(ValueError, match="finite"):
        PerturbedSystem(V1, V2, t0, t1)


def test_param_derivative_rejects_unknown_mode():
    system = PerturbedSystem(V1, V2, 0.0, 0.5)
    with pytest.raises(ValueError):
        param_derivative(system, [0.0, 0.0, 0.0], "sideways", SOLVER)


def test_variation_of_parameters_zero_perturbation():
    solver = FlowSolver(200)
    assert variation_of_parameters_check(rotation2d(), zero_field(2),
                                         [1.0, 0.0], 0.5, solver) <= 1e-10


def test_variation_of_parameters_commuting_constants():
    # translations integrate exactly at any density
    solver = FlowSolver(50)
    discrepancy = variation_of_parameters_check(
        constant_field([1.0, 0.0]), constant_field([0.0, 2.0]),
        [0.3, -0.4], 1.0, solver)
    assert discrepancy <= 1e-8


def test_variation_of_parameters_heisenberg():
    solver = FlowSolver(200)
    assert variation_of_parameters_check(V1, V2, [0.0, 0.0, 0.0], 0.4,
                                         solver) <= 1e-5


@pytest.mark.parametrize("pair", ["heisenberg", "brockett", "random"])
def test_pull_back_is_the_backward_pushforward_field(pair, random_field,
                                                     two_solve_pushforward):
    # the value vop integrates, one forward variational solve and one linear
    # solve per call, is the definition's transported field: W(tau) pushed
    # forward by the backward flow tau -> 0 of V, evaluated at z
    v, w = {"heisenberg": (V1, V2), "brockett": brockett_fields(),
            "random": (random_field(11, 4, 2), random_field(12, 4, 2))}[pair]
    solver = FlowSolver(200)
    rng = np.random.default_rng(5)
    for tau in (0.0, 0.05, 0.2, 0.4):
        z = rng.uniform(-0.3, 0.3, v.dim)
        backward = FlowMap(v, tau, 0.0, solver)
        want = two_solve_pushforward(backward, w.piece_at(tau), z)
        got = _transport(backward, [w.piece_at(tau)], z)[0]
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("breakpoint", [0.25, 0.2513])
def test_variation_of_parameters_piecewise_perturbation(breakpoint):
    # the correction flow is split at W's breakpoint and integrates each
    # interval with that interval's piece, wherever the breakpoint falls on
    # the step grid
    v, _ = brockett_fields()
    w = VectorField.piecewise([
        (0.0, breakpoint, PolynomialMap.constants([1.0, 0.0, 0.0], 3)),
        (breakpoint, 1.0, PolynomialMap.linear([[0, 0, 0], [0, 0, 1], [0.5, 0, 0]]))])
    for t in (0.5, 1.0):
        assert variation_of_parameters_check(v, w, [0.1, -0.2, 0.3], t,
                                             FlowSolver(200)) <= 1e-10
