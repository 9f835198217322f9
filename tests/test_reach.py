"""Tests for control schedules, bracket rank, and the reachability planner."""
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

import chronoflow.flow
import chronoflow.liealg
import chronoflow.reach
from chronoflow import (
    AffineControlSystem,
    BracketExpression,
    ControlSchedule,
    FlowMap,
    FlowSolver,
    Observable,
    PlannerPreconditionError,
    Segment,
    VectorField,
    bracket_motion,
    bracket_program,
    bracket_rank,
    brockett_fields,
    canonical_bracket_basis,
    constant_field,
    flow_bracket,
    flow_map,
    flow_time_dependent,
    heisenberg_fields,
    plan_reach,
    simulate_schedule,
    unicycle_fields,
    volterra_truncate,
)
from chronoflow.liealg import run_program

SOLVER = FlowSolver(400)
HEIS = AffineControlSystem.of(heisenberg_fields())
CONSTANTS = AffineControlSystem.of([
    constant_field([1.0, 0.0, 0.0]),
    constant_field([0.0, 1.0, 0.0]),
])


@pytest.mark.parametrize("solve", [
    lambda q: flow_map(FlowMap(HEIS.fields[0], 0.4, 0.4, SOLVER), q),
    lambda q: simulate_schedule(HEIS, q, ControlSchedule(()), SOLVER),
    lambda q: run_program(ControlSchedule(()), HEIS.fields, q, SOLVER),
    lambda q: flow_bracket(BracketExpression.parse("[V1,V2]"), HEIS.fields, 0.0, q, SOLVER),
    lambda q: flow_time_dependent(lambda t, x: -x, 0.4, 0.4, q, SOLVER),
    lambda q: plan_reach(HEIS, q, q, 1e-3, 2, 50, SOLVER).endpoint,
], ids=["flow_map", "simulate_schedule", "run_program", "flow_bracket",
        "flow_time_dependent", "plan_reach"])
def test_a_solve_that_does_not_move_returns_an_array_of_its_own(solve):
    q = np.array([0.3, 0.4, 0.5])
    end = solve(q)
    assert end is not q
    end[0] = 9.0
    assert q.tolist() == [0.3, 0.4, 0.5]


def test_simulate_empty_schedule():
    q0 = np.array([0.3, 0.4, 0.5])
    assert_allclose(simulate_schedule(HEIS, q0, ControlSchedule(()), SOLVER), q0)


def test_simulate_commutator_square():
    t = 0.2
    sched = ControlSchedule((
        Segment(1, 1, t), Segment(2, 1, t), Segment(1, -1, t), Segment(2, -1, t),
    ))
    end = simulate_schedule(HEIS, [0.0, 0.0, 0.0], sched, SOLVER)
    assert np.linalg.norm(end - np.array([0.0, 0.0, t * t])) <= 1e-9


def test_simulate_single_segment():
    sched = ControlSchedule((Segment(1, 1, 1.0),))
    end = simulate_schedule(HEIS, [0.0, 1.0, 0.0], sched, SOLVER)
    assert np.linalg.norm(end - np.array([1.0, 1.0, -0.5])) <= 1e-9


def test_simulate_validates_segments():
    with pytest.raises(IndexError):
        simulate_schedule(HEIS, [0.0, 0.0, 0.0],
                          ControlSchedule((Segment(3, 1, 0.1),)), SOLVER)
    with pytest.raises(ValueError):
        simulate_schedule(HEIS, [0.0, 0.0, 0.0],
                          ControlSchedule((Segment(1, 2, 0.1),)), SOLVER)
    with pytest.raises(ValueError):
        simulate_schedule(HEIS, [0.0, 0.0, 0.0],
                          ControlSchedule((Segment(1, 1, -0.1),)), SOLVER)


@pytest.mark.parametrize("segment, message", [
    (Segment(1.5, 1, 0.1), "segment 0 field_index must be an integer, got 1.5"),
    (Segment(True, 1, 0.1), "segment 0 field_index must be an integer, got True"),
    (Segment(True, True, 0.1), "segment 0 field_index must be an integer, got True"),
    (Segment(1, True, 0.1), "segment 0 sign must be an integer, got True"),
    (Segment(1, 0.5, 0.1), "segment 0 sign must be an integer, got 0.5"),
])
def test_segment_index_and_sign_must_be_integers(segment, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        simulate_schedule(HEIS, [0.0, 0.0, 0.0], ControlSchedule((segment,)), SOLVER)


def test_integral_float_segment_index_and_sign_run_as_ints():
    q = [0.1, 0.2, 0.3]
    as_floats = ControlSchedule((Segment(2.0, -1.0, 0.25), Segment(np.int64(1), 1, 0.5)))
    as_ints = ControlSchedule((Segment(2, -1, 0.25), Segment(1, 1, 0.5)))
    assert np.array_equal(simulate_schedule(HEIS, q, as_floats, SOLVER),
                          simulate_schedule(HEIS, q, as_ints, SOLVER))


def test_bracket_motion_sign_must_be_an_integer():
    with pytest.raises(ValueError, match="sign must be an integer, got True"):
        bracket_motion(HEIS, BracketExpression.parse("[V1,V2]"), 0.04, sign=True)


def test_concatenation_consistency():
    rng = np.random.default_rng(4)
    segs = tuple(
        Segment(int(rng.integers(1, 3)), int(rng.choice([-1, 1])),
                float(rng.uniform(0.05, 0.3)))
        for _ in range(6)
    )
    first, second = ControlSchedule(segs[:3]), ControlSchedule(segs[3:])
    q0 = np.array([0.1, -0.2, 0.05])
    mid = simulate_schedule(HEIS, q0, first, SOLVER)
    end_split = simulate_schedule(HEIS, mid, second, SOLVER)
    end_concat = simulate_schedule(HEIS, q0, first.concat(second), SOLVER)
    assert np.linalg.norm(end_split - end_concat) <= 1e-9


def test_canonical_basis_dedup():
    basis = canonical_bracket_basis(2, 3)
    assert [str(e) for e in basis] == [
        "V1", "V2", "[V1,V2]", "[V1,[V1,V2]]", "[V2,[V1,V2]]",
    ]


def test_bracket_rank_heisenberg_full():
    rng = np.random.default_rng(12)
    for _ in range(5):
        q = rng.uniform(-1, 1, 3)
        assert bracket_rank(HEIS, q, 2).numerical_rank == 3


def test_bracket_rank_constant_fields():
    report = bracket_rank(CONSTANTS, [0.2, 0.4, 0.6], 3)
    assert report.numerical_rank == 2


def test_bracket_rank_single_field():
    single = AffineControlSystem.of([heisenberg_fields()[0]])
    report = bracket_rank(single, [1.0, 1.0, 1.0], 2)
    assert report.numerical_rank == 1


def test_rank_monotone_in_degree():
    ranks = [bracket_rank(HEIS, [0.0, 0.0, 0.0], d).numerical_rank
             for d in (1, 2, 3)]
    assert ranks == sorted(ranks)


def test_bracket_motion_schedule_and_displacement():
    motion = bracket_motion(HEIS, BracketExpression.parse("[V1,V2]"), 0.04)
    assert [(s.field_index, s.sign) for s in motion.segments] == [
        (1, 1), (2, 1), (1, -1), (2, -1)
    ]
    assert all(abs(s.duration - 0.2) <= 1e-15 for s in motion.segments)
    end = simulate_schedule(HEIS, [0.0, 0.0, 0.0], motion, SOLVER)
    assert np.linalg.norm(end - np.array([0.0, 0.0, 0.04])) <= 1e-9


def test_bracket_motion_leaf_and_reversal():
    leaf = bracket_motion(HEIS, BracketExpression.parse("V1"), 0.7)
    assert leaf.segments == (Segment(1, 1, 0.7),)
    reverse = bracket_motion(HEIS, BracketExpression.parse("[V1,V2]"), 0.04,
                             sign=-1)
    assert reverse == bracket_motion(HEIS, BracketExpression.parse("[V1,V2]"),
                                     0.04).reversed()
    end = simulate_schedule(HEIS, [0.0, 0.0, 0.0], reverse, SOLVER)
    assert np.linalg.norm(end - np.array([0.0, 0.0, -0.04])) <= 1e-9


def test_plan_trivial_target():
    result = plan_reach(HEIS, [0.1, 0.2, 0.3], [0.1, 0.2, 0.3], 1e-3, 2, 50,
                        SOLVER)
    assert result.schedule.segments == ()
    assert result.residual == 0.0
    assert result.iterations == 0


def test_plan_pure_bracket_target():
    result = plan_reach(HEIS, [0.0, 0.0, 0.0], [0.0, 0.0, 0.04], 1e-3, 2, 200,
                        SOLVER)
    assert result.residual <= 1e-3


def test_plan_mixed_target():
    result = plan_reach(HEIS, [0.0, 0.0, 0.0], [0.05, -0.03, 0.04], 1e-2, 2,
                        200, SOLVER)
    assert result.residual <= 1e-2
    assert result.iterations <= 200


def test_plan_endpoint_matches_independent_resimulation():
    result = plan_reach(HEIS, [0.0, 0.0, 0.0], [0.02, 0.05, -0.01], 1e-2, 2,
                        200, SOLVER)
    replay = simulate_schedule(HEIS, [0.0, 0.0, 0.0], result.schedule, SOLVER)
    assert np.linalg.norm(replay - result.endpoint) <= 1e-9


def test_plan_schedules_are_admissible():
    result = plan_reach(HEIS, [0.0, 0.0, 0.0], [0.03, 0.02, 0.02], 1e-2, 2,
                        200, SOLVER)
    for seg in result.schedule.segments:
        assert seg.sign in (-1, 1)
        assert seg.duration > 0
        assert 1 <= seg.field_index <= 2


def test_plan_precondition_rank_failure():
    with pytest.raises(PlannerPreconditionError):
        plan_reach(CONSTANTS, [0.0, 0.0, 0.0], [0.0, 0.0, 0.1], 1e-3, 3, 50,
                   SOLVER)


def test_plan_stalls_at_machine_precision_target():
    # residuals near roundoff cannot improve, so the halving valve trips
    from chronoflow import StalledError
    with pytest.raises(StalledError) as info:
        plan_reach(HEIS, [0.0, 0.0, 0.0], [1e-15, 0.0, 0.0], 1e-300, 2, 500,
                   FlowSolver(100))
    assert info.value.best.residual <= 1e-12
    assert info.value.best.schedule.segments == ()


def test_involutive_ceiling_constant_fields():
    # every reachable endpoint stays in q0 + span(fields)
    rng = np.random.default_rng(8)
    q0 = np.array([0.5, -0.5, 0.25])
    for _ in range(10):
        segs = tuple(
            Segment(int(rng.integers(1, 3)), int(rng.choice([-1, 1])),
                    float(rng.uniform(0.05, 0.5)))
            for _ in range(5)
        )
        end = simulate_schedule(CONSTANTS, q0, ControlSchedule(segs), SOLVER)
        assert abs(end[2] - q0[2]) <= 1e-12


def test_schedule_csv_json_roundtrip():
    sched = ControlSchedule((Segment(1, 1, 0.25), Segment(2, -1, 0.125)))
    assert ControlSchedule.from_csv(sched.to_csv()) == sched
    assert ControlSchedule.from_json(sched.to_json()) == sched


@pytest.mark.parametrize("row", [
    {"field_index": 1, "duration": 0.1},
    {"sign": 1, "duration": 0.1},
    {"field_index": 1, "sign": 1},
])
def test_schedule_row_with_a_missing_key_is_malformed(row):
    with pytest.raises(ValueError, match=r"^schedule row 1 is malformed"):
        ControlSchedule.from_json([{"field_index": 2, "sign": -1, "duration": 0.5}, row])


def test_rank_report_serialization():
    report = bracket_rank(HEIS, [0.0, 0.0, 0.0], 2)
    doc = report.to_json()
    assert doc["numerical_rank"] == 3
    assert [b["expr"] for b in doc["brackets"]] == ["V1", "V2", "[V1,V2]"]


@pytest.mark.parametrize("rel_tol", [float("nan"), float("inf"), -1e-8, "1"])
def test_bracket_rank_rejects_bad_rel_tol(rel_tol):
    with pytest.raises(ValueError, match="rel_tol"):
        bracket_rank(HEIS, [0.0, 0.0, 0.0], 2, rel_tol)


PLANNERS = [
    (AffineControlSystem.of(heisenberg_fields()), 2, [0.05, -0.03, 0.04]),
    (AffineControlSystem.of(brockett_fields()), 2, [-0.04, 0.02, 0.06]),
    (AffineControlSystem.of(unicycle_fields()), 3, [0.03, 0.05, -0.02]),
]


@pytest.mark.parametrize("system,degree,target", PLANNERS)
def test_plan_endpoint_is_the_replay_bit_for_bit(system, degree, target):
    result = plan_reach(system, [0.0, 0.0, 0.0], target, 1e-3, degree, 200, SOLVER)
    assert result.schedule.segments
    replay = simulate_schedule(system, [0.0, 0.0, 0.0], result.schedule, SOLVER)
    assert np.array_equal(result.endpoint, replay)
    assert result.residual == float(np.linalg.norm(replay - np.array(target)))


@pytest.mark.parametrize("system,degree,target", PLANNERS)
def test_plan_solves_each_tried_motion_once(monkeypatch, system, degree, target):
    # Every solve goes through _flow_core and every attempt through bracket_motion:
    # the planner solves each motion it tries as one field, and nothing else.
    solves, motions, builds = [], [], []
    core = chronoflow.flow._flow_core
    make_motion = chronoflow.reach.bracket_motion
    bracket = chronoflow.liealg.lie_bracket_map

    def counting_core(field, t0, times, q, solver, want_pushforward):
        solves.append(times)
        return core(field, t0, times, q, solver, want_pushforward)

    def recording_motion(*args, **kwargs):
        motions.append(make_motion(*args, **kwargs))
        return motions[-1]

    def counting_bracket(v, w):
        builds.append((v, w))
        return bracket(v, w)

    monkeypatch.setattr(chronoflow.flow, "_flow_core", counting_core)
    monkeypatch.setattr(chronoflow.reach, "bracket_motion", recording_motion)
    monkeypatch.setattr(chronoflow.liealg, "lie_bracket_map", counting_bracket)
    result = plan_reach(system, [0.0, 0.0, 0.0], target, 1e-3, degree, 200, SOLVER)
    assert result.iterations > 1
    assert len(solves) == len(motions)
    # each bracket of the basis is built once per call, not once per iteration
    basis = canonical_bracket_basis(len(system.fields), degree)
    assert len(builds) == sum(not e.is_leaf for e in basis)


def test_plan_stall_best_is_the_chained_state():
    from chronoflow import StalledError
    with pytest.raises(StalledError) as info:
        plan_reach(HEIS, [0.0, 0.0, 0.0], [0.05, -0.03, 0.04], 1e-300, 2, 500, SOLVER)
    best = info.value.best
    assert best.schedule.segments
    replay = simulate_schedule(HEIS, [0.0, 0.0, 0.0], best.schedule, SOLVER)
    assert np.array_equal(best.endpoint, replay)


def test_simulate_and_run_program_match_the_segment_loop():
    # the shared executor must give the bits of a plain loop over the segments, each
    # the autonomous field +V_i or -V_i over [T_i, T_i + d_i] on the schedule's clock
    rng = np.random.default_rng(9)
    q0 = np.array([0.1, -0.2, 0.05])
    for _ in range(20):
        segs = tuple(Segment(int(rng.integers(1, 3)), int(rng.choice([-1, 1])),
                             float(rng.uniform(0.05, 0.3))) for _ in range(8))
        expected, clock = q0, 0.0
        for seg in segs:
            pm = HEIS.fields[seg.field_index - 1].pieces[0][2]
            field = VectorField.autonomous(pm if seg.sign > 0 else pm.scaled(-1.0))
            expected = flow_map(FlowMap(field, clock, clock + seg.duration, SOLVER), expected)
            clock += seg.duration
        assert np.array_equal(simulate_schedule(HEIS, q0, ControlSchedule(segs), SOLVER),
                              expected)
    program = ControlSchedule(tuple(Segment(s.field_index, s.sign, 0.2) for s in segs))
    assert np.array_equal(run_program(program, HEIS.fields, q0, SOLVER),
                          simulate_schedule(HEIS, q0, program, SOLVER))


def test_every_segment_index_is_checked_before_any_flow_runs(monkeypatch):
    # ControlSchedule.field is the one home of the index rule, for schedules and programs
    assert chronoflow.reach.Segment is chronoflow.flow.Segment
    assert chronoflow.reach.ControlSchedule is chronoflow.flow.ControlSchedule
    for name in ("flow_map", "inverse_flow"):
        monkeypatch.setattr(chronoflow.flow, name, lambda *args: pytest.fail("a flow ran"))
    sched = ControlSchedule((Segment(1, 1, 0.1), Segment(2, -1, 0.1), Segment(3, 1, 0.1)))
    with pytest.raises(IndexError, match=r"^segment 2 uses V3, out of range$"):
        simulate_schedule(HEIS, [0.0, 0.0, 0.0], sched, SOLVER)


@pytest.mark.parametrize("duration", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_durations_are_rejected_naming_the_segment(duration):
    # t < t + abs(nan) is False: unchecked, a NaN segment would be the identity
    q = [0.1, -0.2, 0.05]
    program = ControlSchedule((Segment(1, 1, 0.1), Segment(2, -1, duration)))
    with pytest.raises(ValueError, match=r"^segment 1 duration must be finite, got "):
        run_program(program, HEIS.fields, q, SOLVER)
    with pytest.raises(ValueError, match=r"^segment 0 duration must be finite, got "):
        flow_bracket(BracketExpression.parse("[V1,V2]"), HEIS.fields, duration, q, SOLVER)
    with pytest.raises(ValueError, match=r"^segment 1 duration must be "):
        simulate_schedule(HEIS, q, program, SOLVER)


def test_a_negative_duration_is_the_flipped_sign_bit_for_bit():
    rng = np.random.default_rng(5)
    segs = tuple(Segment(int(rng.integers(1, 3)), int(rng.choice([-1, 1])),
                         float(rng.uniform(0.05, 0.3))) for _ in range(8))
    flipped = tuple(Segment(s.field_index, -s.sign, -s.duration) for s in segs)
    q = np.array([0.1, -0.2, 0.05])
    assert np.array_equal(run_program(ControlSchedule(flipped), HEIS.fields, q, SOLVER),
                          simulate_schedule(HEIS, q, ControlSchedule(segs), SOLVER))
    # so the commutator at -t is the program at t with every sign flipped
    expr = BracketExpression.parse("[[V1,V2],V1]")
    program = bracket_program(expr, 0.15)
    signs_flipped = ControlSchedule(tuple(Segment(s.field_index, -s.sign, s.duration)
                                          for s in program.segments))
    assert np.array_equal(flow_bracket(expr, HEIS.fields, -0.15, q, SOLVER),
                          run_program(signs_flipped, HEIS.fields, q, SOLVER))


def test_segments_that_do_not_move_the_clock_give_back_the_start_point():
    q = np.array([0.3, -0.1, 0.2])
    assert ControlSchedule(()).field(HEIS.fields) is None
    zero = ControlSchedule((Segment(1, 1, 0.0), Segment(2, -1, -0.0)))
    assert zero.field(HEIS.fields) is None
    for sched in (ControlSchedule(()), zero):
        assert np.array_equal(run_program(sched, HEIS.fields, q, SOLVER), q)
    assert np.array_equal(simulate_schedule(HEIS, q, ControlSchedule(()), SOLVER), q)
    # 1e-20 is far below the ulp of the clock at 1.0, so that segment has no piece
    long = ControlSchedule((Segment(1, 1, 1.0),))
    tiny = long.concat(ControlSchedule((Segment(2, 1, 1e-20),)))
    assert tiny.field(HEIS.fields).pieces == long.field(HEIS.fields).pieces
    assert np.array_equal(simulate_schedule(HEIS, q, tiny, SOLVER),
                          simulate_schedule(HEIS, q, long, SOLVER))


def test_schedule_field_runs_on_its_clock_from_start():
    sched = ControlSchedule((Segment(1, 1, 0.25), Segment(2, -1, -0.5), Segment(1, -1, 0.125)))
    field = sched.field(HEIS.fields, start=2.0)
    v1, v2 = (f.pieces[0][2] for f in HEIS.fields)
    assert field.pieces == ((2.0, 2.25, v1), (2.25, 2.75, v2), (2.75, 2.875, v1.scaled(-1.0)))
    for start in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match=r"^the schedule's start must be finite, got "):
            sched.field(HEIS.fields, start)
    # each negated map is built once per call
    twice = ControlSchedule((Segment(1, -1, 0.1), Segment(1, 1, -0.1)))
    first, second = (pm for _, _, pm in twice.field(HEIS.fields).pieces)
    assert first is second


def test_schedule_fields_must_be_autonomous():
    windowed = VectorField.piecewise([(0.0, 1.0, HEIS.fields[0].pieces[0][2])])
    with pytest.raises(ValueError, match=r"^segment 0 uses V1, which is not autonomous$"):
        flow_bracket(BracketExpression.parse("[V1,V2]"), [windowed, HEIS.fields[1]], 0.1,
                     [0.0, 0.0, 0.0], SOLVER)


@pytest.mark.parametrize("fields", [heisenberg_fields(), brockett_fields(),
                                    unicycle_fields()], ids=["heisenberg", "brockett",
                                                             "unicycle"])
def test_series_tools_accept_a_schedule(fields):
    # every word of three lifts kills the identity on these fields, so the order-3
    # truncation of the schedule's field is its flow, which RK4 also solves exactly
    system = AffineControlSystem.of(fields)
    rng = np.random.default_rng(17)
    for _ in range(30):
        sched = ControlSchedule(tuple(
            Segment(int(rng.integers(1, 3)), int(rng.choice([-1, 1])),
                    float(rng.uniform(0.01, 0.3))) for _ in range(int(rng.integers(1, 7)))))
        q0 = rng.uniform(-0.5, 0.5, 3)
        field = sched.field(system.fields)
        series = volterra_truncate(field, Observable.identity(3), q0, 0.0, field.window[1], 3)
        assert np.max(np.abs(series - simulate_schedule(system, q0, sched, SOLVER))) <= 1e-12


def test_reversed_schedule_is_the_inverse_point_map():
    sched = ControlSchedule((Segment(1, 1, 0.25), Segment(2, -1, 0.125), Segment(1, 1, 0.5)))
    assert sched.reversed() == ControlSchedule(
        (Segment(1, -1, 0.5), Segment(2, 1, 0.125), Segment(1, -1, 0.25)))
    assert sched.reversed().reversed() == sched
    assert ControlSchedule(()).reversed() == ControlSchedule(())
    q0 = np.array([0.1, -0.2, 0.05])
    there = simulate_schedule(HEIS, q0, sched, SOLVER)
    assert_allclose(simulate_schedule(HEIS, there, sched.reversed(), SOLVER), q0,
                    atol=1e-12)


def test_run_program_zero_time_and_out_of_range_index():
    q = np.array([0.3, -0.1, 0.2])
    assert np.array_equal(flow_bracket(BracketExpression.parse("[V1,V2]"), HEIS.fields,
                                       0.0, q, SOLVER), q)
    with pytest.raises(IndexError, match=r"^segment 1 uses V3, out of range$"):
        flow_bracket(BracketExpression.parse("[V1,V3]"), HEIS.fields, 0.1, q, SOLVER)


@pytest.mark.parametrize("kwargs,match", [
    ({"epsilon": float("nan")}, "epsilon"),
    ({"epsilon": float("inf")}, "epsilon"),
    ({"max_iters": -1}, "max_iters"),
    ({"step_fraction": float("nan")}, "step_fraction"),
    ({"step_fraction": 0.0}, "step_fraction"),
    # True would pass as one iteration or degree 1
    ({"max_iters": True}, "max_iters must be an integer, got True"),
    ({"max_degree": True}, "max_degree must be an integer, got True"),
])
def test_plan_rejects_bad_inputs(kwargs, match):
    args = {"epsilon": 1e-3, "max_degree": 2, "max_iters": 50, "step_fraction": 0.5, **kwargs}
    with pytest.raises(ValueError, match=match):
        plan_reach(HEIS, [0.0, 0.0, 0.0], [0.0, 0.0, 0.04], args["epsilon"], args["max_degree"],
                   args["max_iters"], SOLVER, step_fraction=args["step_fraction"])


def test_bracket_degree_must_be_an_integer():
    # True would pass as degree 1: the rank of V1, V2 alone
    for call in (lambda: canonical_bracket_basis(2, True),
                 lambda: bracket_rank(HEIS, [0.0, 0.0, 0.0], True)):
        with pytest.raises(ValueError, match="max_degree must be an integer, got True"):
            call()
