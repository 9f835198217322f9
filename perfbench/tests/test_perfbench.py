"""Tests of the benchmark's own arithmetic, inputs and tracer."""
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(1, str(BENCH.parent / "src"))

import chronoflow as cf  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from tracer import Span  # noqa: E402


def test_self_time_subtracts_union_of_children():
    spans = [
        Span("reach.plan_reach", 0.0, 10.0, -1, 0),
        Span("flow.flow_map", 1.0, 4.0, 0, 0),
        Span("flow.flow_map", 3.0, 6.0, 0, 0),   # overlaps its sibling
        Span("fields.as_point", 2.0, 3.0, 1, 0),
        Span("liealg.lift_map", 8.0, 12.0, 0, 0),  # runs past its parent
    ]
    assert tracer.self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 1.0, 4.0])


def test_self_times_of_nested_tree_add_up_to_root():
    spans = [
        Span("paramflow.param_derivative", 0.0, 10.0, -1, 0),
        Span("flow.trajectory_states", 1.0, 3.0, 0, 0),
        Span("flow.inverse_flow", 1.5, 2.5, 1, 0),
        Span("flow.pushforward_field", 4.0, 7.0, 0, 0),
        Span("fields.as_point", 5.0, 5.5, 3, 0),
        Span("paramflow.param_derivative", 20.0, 21.0, -1, 1),
    ]
    selfs = tracer.self_times(spans)
    assert sum(selfs) == pytest.approx(11.0)
    layers = tracer.layer_metrics(spans, 0, 11.0)
    assert layers["paramflow.self_s"] == pytest.approx(6.0)
    assert layers["flow.self_s"] == pytest.approx(4.5)
    assert layers["fields.self_s"] == pytest.approx(0.5)
    shares = sum(layers[f"{m}.share"] for m in ("flow", "paramflow", "chrono", "fields",
                                                "liealg", "reach"))
    assert shares == pytest.approx(1.0)


def test_motion_accept_ratio_counts_motions_kept_in_the_schedule():
    seg = cf.Segment
    kept = cf.ControlSchedule((seg(1, 1, 0.1), seg(2, 1, 0.1)))
    dropped = cf.ControlSchedule((seg(1, 1, 0.2), seg(2, 1, 0.2)))
    later = cf.ControlSchedule((seg(2, -1, 0.05),))
    result = cf.PlanResult(kept.concat(later), None, 0.0, 3)
    spans = [Span("reach.plan_reach", 0.0, 10.0, -1, 0, result)]
    for i, motion in enumerate((kept, dropped, later)):
        spans.append(Span("reach.bracket_motion", i + 1.0, i + 1.5, 0, 0, motion))
    layers = tracer.layer_metrics(spans, 0, 10.0)
    assert layers["reach.motion_accept_ratio"] == pytest.approx(2 / 3)
    assert layers["reach.plan_iterations"] == 3


@pytest.mark.parametrize("n, index, percentile", [
    (11, 0, 100.0 / 11), (20, 9, 50.0), (100, 89, 90.0), (1000, 989, 99.0)])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, index, percentile):
    got_index, got_percentile = run.tail_rank(n)
    assert (got_index, got_percentile) == (index, pytest.approx(percentile))
    values = list(range(n))
    assert sum(v > values[got_index] for v in values) == 10


def test_tail_needs_eleven_samples():
    with pytest.raises(ValueError):
        run.tail_rank(10)


def _counting_field():
    """Rotation on [0, 0.5), constant drift on [0.5, 1.5]; counts evaluations."""
    calls = [0]
    pieces = []
    for a, b, pm in ((0.0, 0.5, cf.PolynomialMap.linear([[0.0, -1.0], [1.0, 0.0]])),
                     (0.5, 1.5, cf.PolynomialMap.constants([1.0, 0.0], 2))):
        evaluate = pm._evaluator

        def counted(x, evaluate=evaluate):
            calls[0] += 1
            return evaluate(x)

        pm._evaluator = counted
        pieces.append((a, b, pm))
    return cf.VectorField.piecewise(pieces), calls


@pytest.mark.parametrize("t0, t1", [(0.2, 1.3), (1.3, 0.2), (0.5, 1.0), (0.7, 0.7)])
def test_step_counts_match_evaluations(t0, t1):
    field, calls = _counting_field()
    solver = cf.FlowSolver(100)
    fm = cf.FlowMap(field, t0, t1, solver)
    cf.flow_map(fm, [1.0, 0.5])
    assert tracer.solve_steps(fm) == calls[0] // 4
    calls[0] = 0
    cf.flow_with_pushforward(fm, [1.0, 0.5])
    assert tracer.solve_steps(fm) == calls[0] // 4


def test_traced_step_counts_cross_breakpoint_and_backward():
    field, calls = _counting_field()
    solver = cf.FlowSolver(100)
    tr = tracer.Tracer()
    tr.install()
    try:
        cf.inverse_flow(cf.FlowMap(field, 0.2, 1.3, solver), [1.0, 0.5])
        cf.flow_pushforward(cf.FlowMap(field, 0.3, 0.9, solver), [1.0, 0.5])
    finally:
        tr.uninstall()
    layers = tracer.layer_metrics(tr.spans, tr.quad_nodes, 1.0)
    assert layers["flow.solves"] == 2
    assert layers["flow.steps"] == calls[0] // 4 == 110 + 60
    assert layers["flow.variational_steps"] == 60
    assert layers["fields.evals_computed"] == 4 * 110 + 8 * 60


def _specs(name, seed, tmp_path):
    wl = workloads.build(name, seed, tmp_path)
    try:
        text = repr([(op.kind, op.spec) for op in
                     (wl.op(i) for i in range(2 * len(wl.period)))])
        if name == "variational":
            text += repr([(v.to_json(), w.to_json()) for v, w in wl.pairs])
        return text.replace(str(getattr(wl, "tmp", "")), "TMP")
    finally:
        wl.close()


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_identical_seeds_give_identical_inputs(name, tmp_path):
    first = _specs(name, 7, tmp_path)
    assert first == _specs(name, 7, tmp_path)
    assert first != _specs(name, 8, tmp_path)


def _all_bindings():
    mods = tracer._modules() + [sys.modules["chronoflow.quadrature"]]
    return {(m.__name__, k): v for m in mods for k, v in vars(m).items() if callable(v)}


def test_untraced_run_leaves_every_function_object_alone(tmp_path):
    before = _all_bindings()
    wl = workloads.build("planner", 3, tmp_path)
    records = run.measure(wl, run.SpeedProbe(), 0.0)
    assert run.check_all(records) == []
    after = _all_bindings()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())


def test_tracer_restores_originals(tmp_path):
    before = _all_bindings()
    tr = tracer.Tracer()
    tr.install()
    try:
        assert cf.flow_map is not before[("chronoflow", "flow_map")]
        assert cf.reach.flow_map is cf.flow.flow_map is cf.flow_map
        wl = workloads.build("planner", 3, tmp_path)
        records = run.measure(wl, run.SpeedProbe(), 0.0)
    finally:
        tr.uninstall()
    assert {s.module for s in tr.spans} >= {"reach", "liealg", "flow", "fields"}
    after = _all_bindings()
    assert all(after[k] is v for k, v in before.items())
    assert run.check_all(records) == []
