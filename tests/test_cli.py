"""Tests for the command-line interface."""
import csv
import itertools
import json
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from chronoflow import cli


def run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "chronoflow", *args],
        capture_output=True, text=True, env=env, timeout=60,
    )


def test_flow_heisenberg_example():
    result = run_cli("flow", "--system", "heisenberg", "--field", "1",
                     "--t", "1", "--q", "0,1,0")
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert np.linalg.norm(np.array(doc["endpoint"]) - [1.0, 1.0, -0.5]) <= 1e-8


def test_flow_bad_field_index_exits_2():
    result = run_cli("flow", "--system", "heisenberg", "--field", "9",
                     "--t", "1", "--q", "0,1,0")
    assert result.returncode == 2
    assert "out of range" in result.stderr


def test_unknown_system_exits_2():
    result = run_cli("rank", "--system", "not-a-system", "--q", "0,0,0")
    assert result.returncode == 2


def test_unknown_subcommand_exits_2():
    result = run_cli("frobnicate")
    assert result.returncode == 2


def test_rank_heisenberg():
    result = run_cli("rank", "--system", "heisenberg", "--q", "0,0,0",
                     "--max-degree", "2")
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["numerical_rank"] == 3


def test_bracket_command():
    result = run_cli("bracket", "--system", "heisenberg", "--expr", "[V1,V2]",
                     "--q", "0.3,0.7,0.1")
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["value"] == [0.0, 0.0, 1.0]


def test_volterra_csv_format():
    result = run_cli("volterra", "--system", "rotation2d", "--k", "2",
                     "--obs-coord", "1", "--q", "1,0", "--t-max", "0.4",
                     "--grid", "4", "--format", "csv")
    assert result.returncode == 0
    lines = result.stdout.strip().splitlines()
    assert lines[0] == "t,norm,bound"
    assert len(lines) == 5


def test_volterra_k_out_of_range_exits_2():
    result = run_cli("volterra", "--system", "rotation2d", "--k", "7",
                     "--q", "1,0", "--t-max", "0.4")
    assert result.returncode == 2


def test_order_probe_determinism():
    args = ("order-probe", "--system", "rotation2d", "--residual", "remainder",
            "--k", "2", "--obs-coord", "1", "--q", "1,0", "--t-max", "0.4")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_order_probe_degenerate_is_success():
    result = run_cli("order-probe", "--system", "heisenberg",
                     "--residual", "inverse-expansion", "--field", "1",
                     "--q", "0,1,0", "--t-max", "0.4")
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["degenerate"] is True
    assert doc["slope"] is None


PROBE = ("order-probe", "--system", "heisenberg", "--q", "0.1,0.2,0", "--t-max", "0.2",
         "--levels", "4", "--steps-per-unit", "100", "--residual")


@pytest.mark.parametrize("residual, flag, value", [
    ("remainder", "--expr", "[V1,V2]"),
    ("flow-bracket", "--field", "1"),
    ("flow-bracket", "--obs-coord", "1"),
    ("flow-bracket", "--k", "3"),
    ("inverse-expansion", "--obs-coord", "2"),
    ("inverse-expansion", "--k", "3"),
    ("inverse-expansion", "--expr", "[V1,V2]"),
])
def test_order_probe_rejects_a_flag_its_residual_does_not_read(capsys, residual, flag,
                                                                 value):
    assert cli.main([*PROBE, residual, flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --residual {residual} does not read {flag}\n"


@pytest.mark.parametrize("residual, defaults", [
    ("remainder", ("--field", "1", "--k", "1")),
    ("flow-bracket", ("--expr", "[V1,V2]")),
    ("inverse-expansion", ("--field", "1")),
])
def test_order_probe_defaults_are_the_flags_spelled_out(capsys, residual, defaults):
    implicit = _main_output(capsys, [*PROBE, residual])
    assert implicit == _main_output(capsys, [*PROBE, residual, *defaults])


def test_plan_determinism():
    args = ("plan", "--system", "heisenberg", "--q0", "0,0,0",
            "--target", "0.05,-0.03,0.04", "--epsilon", "1e-2",
            "--steps-per-unit", "400")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_plan_simulate_roundtrip(tmp_path):
    plan_path = tmp_path / "plan.json"
    result = run_cli("plan", "--system", "heisenberg", "--q0", "0,0,0",
                     "--target", "0,0,0.04", "--epsilon", "1e-3",
                     "--steps-per-unit", "400", "--output", str(plan_path))
    assert result.returncode == 0
    plan_doc = json.loads(plan_path.read_text())
    replay = run_cli("simulate", "--system", "heisenberg", "--q0", "0,0,0",
                     "--schedule", str(plan_path), "--steps-per-unit", "400")
    assert replay.returncode == 0
    # the plan's endpoint is the replay's, bit for bit, and 17 digits carry every bit
    assert json.loads(replay.stdout)["endpoint"] == plan_doc["endpoint"]


def test_plan_csv_schedule_feeds_simulate(tmp_path):
    plan = ("plan", "--system", "heisenberg", "--q0", "0,0,0", "--target", "0,0,0.04",
            "--epsilon", "1e-3", "--steps-per-unit", "400")
    csv_path, json_path = tmp_path / "schedule.csv", tmp_path / "plan.json"
    assert run_cli(*plan, "--format", "csv", "--output", str(csv_path)).returncode == 0
    assert run_cli(*plan, "--output", str(json_path)).returncode == 0
    replay = run_cli("simulate", "--system", "heisenberg", "--q0", "0,0,0",
                     "--schedule", str(csv_path), "--steps-per-unit", "400")
    assert replay.returncode == 0
    assert (json.loads(replay.stdout)["endpoint"]
            == json.loads(json_path.read_text())["endpoint"])


def test_plan_stall_exits_3():
    result = run_cli("plan", "--system", "heisenberg", "--q0", "0,0,0",
                     "--target", "1e-15,0,0", "--epsilon", "1e-300",
                     "--steps-per-unit", "100")
    assert result.returncode == 3
    assert "numerical failure" in result.stderr


def test_output_dir_env_var(tmp_path):
    import os
    env = dict(os.environ)
    env["CHRONOFLOW_OUTPUT_DIR"] = str(tmp_path)
    result = run_cli("bracket", "--system", "heisenberg", "--expr", "V1",
                     "--q", "0,0,0", "--output", "out.json", env=env)
    assert result.returncode == 0
    assert (tmp_path / "out.json").exists()


def test_flow_bracket_table():
    result = run_cli("flow-bracket", "--system", "heisenberg",
                     "--expr", "[V1,V2]", "--q", "0,0,0", "--t-max", "0.2",
                     "--grid", "4", "--format", "csv",
                     "--steps-per-unit", "400")
    assert result.returncode == 0
    lines = result.stdout.strip().splitlines()
    assert lines[0] == "t,q_1,q_2,q_3"
    last = [float(x) for x in lines[-1].split(",")]
    assert abs(last[3] - 0.04) <= 1e-8


def test_flow_bracket_at_negative_times_runs_the_flipped_program(capsys):
    # a negative duration flips each segment's sign: the Heisenberg square is still
    # q + t^2 e3, and each row is the library's endpoint
    from chronoflow import BracketExpression, FlowSolver, flow_bracket, heisenberg_fields
    argv = ["flow-bracket", "--system", "heisenberg", "--expr", "[V1,V2]", "--q", "0,0,0",
            "--t-max", "-0.2", "--grid", "2", "--steps-per-unit", "400"]
    assert cli.main(argv) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [row["t"] for row in rows] == [-0.1, -0.2]
    for row in rows:
        t = row["t"]
        assert row["endpoint"] == flow_bracket(BracketExpression.parse("[V1,V2]"),
                                               heisenberg_fields(), t, [0.0, 0.0, 0.0],
                                               FlowSolver(400)).tolist()
        assert abs(row["endpoint"][2] - t * t) <= 1e-12


def test_param_deriv_command():
    result = run_cli("param-deriv", "--system", "heisenberg", "--field", "1",
                     "--perturb", "2", "--t", "0.5", "--q", "0,0,0",
                     "--steps-per-unit", "500")
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    inner = np.array(doc["in_formula"])
    outer = np.array(doc["out_formula"])
    oracle = np.array(doc["finite_difference"])
    assert np.linalg.norm(inner - outer) <= 1e-6
    assert np.linalg.norm(inner - oracle) <= 1e-4


@pytest.mark.parametrize("extra", [
    ("--t", "inf"),
    ("--t", "1", "--steps-per-unit", "0"),
    ("--t", "1", "--steps-per-unit", "-5"),
    ("--t", "1e300"),  # finite, but would take about 1e303 steps
])
def test_flow_invalid_time_or_density_exits_2(extra):
    result = run_cli("flow", "--system", "heisenberg", "--q", "0,0,0", *extra)
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert len(result.stderr.strip().splitlines()) == 1


@pytest.mark.parametrize("args", [
    ("rank", "--system", "heisenberg", "--q", "0,0,0", "--rel-tol", "nan"),
    ("rank", "--system", "heisenberg", "--q", "0,0,0", "--rel-tol", "-1"),
    ("volterra", "--system", "rotation2d", "--k", "1", "--q", "1,0", "--t-max", "0.4",
     "--grid", "0"),
    ("flow-bracket", "--system", "heisenberg", "--expr", "[V1,V2]", "--q", "0,0,0",
     "--t-max", "0.2", "--grid", "0"),
    ("param-deriv", "--system", "heisenberg", "--t", "0.5", "--q", "0,0,0",
     "--nodes", "0"),
    ("plan", "--system", "heisenberg", "--q0", "0,0,0", "--target", "0,0,0.04",
     "--epsilon", "1e-3", "--nodes", "16"),  # plan reads no quadrature nodes
    ("param-deriv", "--system", "heisenberg", "--t", "0.5", "--q", "0,0,0",
     "--nodes", "100000"),  # over the node cap: no 75 GiB companion matrix
])
def test_invalid_tolerance_grid_or_nodes_exits_2(args):
    result = run_cli(*args)
    assert result.returncode == 2
    assert result.stdout == ""
    assert len(result.stderr.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["volterra", "--system", "rotation2d", "--k", "1", "--q", "1,0", "--t-max", "0.4"],
    ["flow-bracket", "--system", "heisenberg", "--expr", "[V1,V2]", "--q", "0,0,0",
     "--t-max", "0.2"],
])
def test_grid_over_the_cap_exits_2_before_any_grid_point(argv, capsys):
    # the cap is checked before the times are listed, so a huge grid allocates nothing
    assert cli.main(argv + ["--grid", str(cli.MAX_GRID + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --grid must be in 1..{cli.MAX_GRID}, got {cli.MAX_GRID + 1}\n"


@pytest.mark.parametrize("argv, line", [
    (["volterra", "--system", "rotation2d", "--k", "5", "--q", "1,0", "--t-max", "0.1"],
     "--k must be in 1..4, got 5"),
    (["order-probe", "--system", "rotation2d", "--residual", "remainder", "--k", "0",
      "--q", "1,0", "--t-max", "0.1"], "--k must be in 1..4, got 0"),
    (["order-probe", "--system", "rotation2d", "--residual", "inverse-expansion",
      "--q", "1,0", "--t-max", "0.1", "--levels", "17"], "--levels must be in 4..16, got 17"),
    (["rank", "--system", "heisenberg", "--q", "0,0,0", "--max-degree", "5"],
     "--max-degree must be in 1..4, got 5"),
    (["plan", "--system", "heisenberg", "--q0", "0,0,0", "--target", "0,0,0.1",
      "--epsilon", "1e-3", "--max-degree", "0"], "--max-degree must be in 1..4, got 0"),
])
def test_flag_ranges_share_one_message(argv, line, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {line}\n")


PLAN = ("plan", "--system", "heisenberg", "--q0", "0,0,0", "--target", "0,0,0.04")


@pytest.mark.parametrize("args", [
    ("param-deriv", "--system", "heisenberg", "--t", "0.5", "--q", "0,0,0",
     "--epsilon", "nan"),
    ("param-deriv", "--system", "heisenberg", "--t", "inf", "--q", "0,0,0"),
    PLAN + ("--epsilon", "nan"),
    PLAN + ("--epsilon", "1e-3", "--max-iters", "-1"),
    PLAN + ("--epsilon", "1e-3", "--step-fraction", "-1"),
    ("order-probe", "--system", "rotation2d", "--residual", "inverse-expansion",
     "--q", "1,0", "--t-max", "-0.5"),
])
def test_non_finite_or_negative_inputs_exit_2(args):
    result = run_cli(*args)
    assert result.returncode == 2
    assert result.stdout == ""
    assert len(result.stderr.strip().splitlines()) == 1


WITNESS = ("volterra", "--system", "rotation2d", "--k", "1", "--q", "1,0", "--t-max", "0.1",
           "--grid", "1", "--format", "csv", "--witness-radius")


@pytest.mark.parametrize("radius", ["nan", "inf"])
def test_non_finite_witness_radius_is_named(radius):
    result = run_cli(*WITNESS, radius)
    assert result.returncode == 2
    assert result.stderr.splitlines() == [
        f"error: witness radius must be finite and positive, got {float(radius)!r}"]


def test_witness_bounds_a_piecewise_remainder(tmp_path):
    # only the double lift by the rotation on [0, 0.3) is nonzero; sampled
    # time tuples missed that piece sequence and printed bounds of 0
    path = tmp_path / "pw.json"
    path.write_text(json.dumps({"dim": 2, "time_pieces": [
        {"t0": 0.0, "t1": 0.3, "components": [[{"coef": -5.0, "exps": [0, 1]}],
                                              [{"coef": 5.0, "exps": [1, 0]}]]},
        {"t0": 0.3, "t1": 1.5, "components": [[{"coef": 0.7, "exps": [0, 0]}],
                                              [{"coef": -0.6, "exps": [0, 0]}]]}]}))
    result = run_cli("volterra", "--system", str(path), "--k", "2", "--q", "0.5,0.5",
                     "--t-max", "0.2", "--grid", "2", "--witness-radius", "0.5",
                     "--format", "csv")
    assert result.returncode == 0
    rows = list(csv.DictReader(result.stdout.splitlines()))
    assert len(rows) == 2
    for row in rows:
        assert float(row["norm"]) > 0.05
        assert float(row["bound"]) >= float(row["norm"])


def test_witness_bound_on_a_huge_ball_is_finite():
    # the sampled lift norms are just under 1e200, whose squares overflow;
    # the bound at t = 0.1 is their max times 0.1
    result = run_cli(*WITNESS, "1e200")
    assert result.returncode == 0
    assert result.stderr == ""
    bound = float(result.stdout.splitlines()[1].split(",")[2])
    assert 0.9e199 <= bound <= 1e199


def test_plan_toward_a_huge_target_prints_one_line():
    result = run_cli("plan", "--system", "heisenberg", "--q0", "0,0,0",
                     "--target", "0,0,1e160", "--epsilon", "1e-3")
    assert result.returncode == 2
    assert len(result.stderr.splitlines()) == 1
    assert "RK4 steps" in result.stderr


# x^400 - y^400 at (10, 10) is inf - inf
OVERFLOWING = {"dim": 2, "components": [
    [{"coef": 1.0, "exps": [400, 0]}, {"coef": -1.0, "exps": [0, 400]}],
    [{"coef": 1.0, "exps": [1, 0]}]]}


def test_overflowing_field_blows_up_without_a_warning(tmp_path):
    path = tmp_path / "ovf.json"
    path.write_text(json.dumps(OVERFLOWING))
    result = run_cli("flow", "--system", str(path), "--t", "0.1", "--q", "10,10")
    assert result.returncode == 3
    assert result.stderr.splitlines() == [
        "numerical failure: integration diverged at step 1 (t=0.001)"]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("doc, q", [
    (OVERFLOWING, "10,10"),  # NaN
    ({"dim": 1, "components": [[{"coef": 1.0, "exps": [10 ** 30]}]]}, "2"),  # inf
])
def test_non_finite_output_exits_3(tmp_path, doc, q, fmt):
    path = tmp_path / "field.json"
    path.write_text(json.dumps(doc))
    result = run_cli("bracket", "--system", str(path), "--expr", "V1", "--q", q,
                     "--format", fmt)
    assert result.returncode == 3
    assert result.stdout == ""
    assert result.stderr.splitlines() == ["numerical failure: non-finite value in the output"]


def test_field_file_with_nan_coefficient_exits_2(tmp_path):
    path = tmp_path / "field.json"
    path.write_text('{"dim": 1, "components": [[{"coef": NaN, "exps": [1]}]]}')
    result = run_cli("flow", "--system", str(path), "--t", "1", "--q", "1")
    assert result.returncode == 2
    assert "non-finite coefficient" in result.stderr
    assert len(result.stderr.strip().splitlines()) == 1


def test_usage_error_is_one_line():
    result = run_cli("plan", "--system", "heisenberg")
    assert result.returncode == 2
    assert result.stderr.splitlines() == [
        "chronoflow plan: error: the following arguments are required: "
        "--q0, --target, --epsilon"]


@pytest.mark.parametrize("nodes, t", [(0, "0.5"), (0, "0"), (100_000, "0.5")])
def test_nodes_flag_words_the_quadrature_rule(nodes, t):
    # --nodes reaches the library's one node-count rule, with or without a time
    # interval to place the nodes on
    from chronoflow.quadrature import gauss_legendre
    with pytest.raises(ValueError) as info:
        gauss_legendre(0.0, 1.0, nodes)
    result = run_cli("param-deriv", "--system", "heisenberg", "--t", t, "--q", "0,0,0",
                     "--nodes", str(nodes))
    assert result.returncode == 2
    assert result.stderr == f"error: {info.value}\n"


def test_nodes_and_steps_flags_only_on_subcommands_that_read_them():
    import argparse
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {name: {f for a in p._actions for f in a.option_strings}
             for name, p in sub.choices.items()}
    assert {name for name, f in flags.items() if "--nodes" in f} == {"param-deriv"}
    assert {name for name, f in flags.items() if "--steps-per-unit" not in f} == {
        "bracket", "rank"}
    args = parser.parse_args(["param-deriv", "--t", "0.5", "--system", "rotation2d",
                              "--q", "1,0", "--nodes", "4"])
    assert args.nodes == 4


SCHEDULE = ("simulate", "--system", "heisenberg", "--q0", "0,0,0", "--schedule")
FIELD = ("flow", "--t", "0.5", "--q", "0,0", "--system")


@pytest.mark.parametrize("name, text, argv", [
    ("missing_column.csv", "segment,field_index,sign,duration\n0,1,1\n", SCHEDULE),
    ("null_duration.json", '[{"field_index": 1, "sign": 1, "duration": null}]', SCHEDULE),
    ("no_schedule.json", '{"endpoint": [0, 0, 0]}', SCHEDULE),
    ("number.json", "5", SCHEDULE),
    ("field_list.json", '[{"dim": 2, "components": [[], []]}]', FIELD),
    ("null_order.json", '{"dim": 2, "smoothness_order": null, "components": [[], []]}',
     FIELD),
    ("components_number.json", '{"dim": 2, "components": 5}', FIELD),
    ("null_coef.json", '{"dim": 2, "components": [[{"coef": null, "exps": [0, 0]}], []]}',
     FIELD),
    ("term_list.json", '{"dim": 2, "components": [[[5]], []]}', FIELD),
    ("exps_number.json", '{"dim": 2, "components": [[{"coef": 1.0, "exps": 0}], []]}',
     FIELD),
    ("null_t0.json", '{"dim": 2, "time_pieces": [{"t0": null, "t1": 1, '
     '"components": [[], []]}]}', FIELD),
    ("fields_number.json", '{"fields": 5}', FIELD),
    ("missing_sign.json", '[{"field_index": 1, "duration": 0.1}]', SCHEDULE),
    ("missing_coef.json", '{"dim": 2, "components": [[{"exps": [1, 0]}], []]}', FIELD),
])
def test_malformed_file_exits_2(tmp_path, name, text, argv):
    path = tmp_path / name
    path.write_text(text)
    result = run_cli(*argv, str(path))
    assert result.returncode == 2
    assert result.stdout == ""
    assert len(result.stderr.strip().splitlines()) == 1


@pytest.mark.parametrize("name, text, shown", [
    ("nan.csv", "segment,field_index,sign,duration\n0,1,1,0.1\n1,2,1,nan\n", "nan"),
    ("inf.csv", "segment,field_index,sign,duration\n0,1,1,0.1\n1,2,1,inf\n", "inf"),
    ("nan.json", '[{"field_index": 1, "sign": 1, "duration": 0.1}, '
     '{"field_index": 2, "sign": 1, "duration": NaN}]', "nan"),
    ("inf.json", '[{"field_index": 1, "sign": 1, "duration": 0.1}, '
     '{"field_index": 2, "sign": 1, "duration": Infinity}]', "inf"),
], ids=["csv-nan", "csv-inf", "json-nan", "json-inf"])
def test_non_finite_duration_exits_2(tmp_path, name, text, shown):
    # a NaN duration would not move the clock and so pass as the identity
    path = tmp_path / name
    path.write_text(text)
    result = run_cli(*SCHEDULE, str(path))
    assert (result.returncode, result.stdout, result.stderr) == (
        2, "", f"error: segment 1 duration must be finite, got {shown}\n")


@pytest.mark.parametrize("name, text, argv, message", [
    ("missing_sign.json", '[{"field_index": 1, "duration": 0.1}]', SCHEDULE,
     "error: schedule row 0 is malformed: {'field_index': 1, 'duration': 0.1}"),
    ("missing_coef.json", '{"dim": 2, "components": [[{"exps": [1, 0]}], []]}', FIELD,
     "error: components[0][0].coef must be given, but the key is missing"),
])
def test_missing_key_error_names_where_it_is(tmp_path, name, text, argv, message):
    path = tmp_path / name
    path.write_text(text)
    result = run_cli(*argv, str(path))
    assert (result.returncode, result.stderr.strip()) == (2, message)


@pytest.mark.parametrize("name, text, argv", [
    # read as a constant term, flow printed x = 0.5 at t = 0.5
    ("exps.json", '{"dim": 2, "components": [[{"coef": 1.0, "exps": [0.9, 0]}], []]}',
     FIELD),
    ("dim.json", '{"dim": 2.7, "components": [[{"coef": 1.0, "exps": [0, 0]}], []]}',
     FIELD),
    ("index.json", '[{"field_index": 1.9, "sign": 1, "duration": 0.1}]', SCHEDULE),
    ("sign.json", '[{"field_index": 1, "sign": 1.5, "duration": 0.1}]', SCHEDULE),
])
def test_non_integral_value_exits_2(tmp_path, name, text, argv):
    path = tmp_path / name
    path.write_text(text)
    result = run_cli(*argv, str(path))
    assert result.returncode == 2
    assert "must be an integer" in result.stderr
    assert len(result.stderr.strip().splitlines()) == 1


@pytest.mark.parametrize("degree, step", [(4, 35), (9, 14)])
def test_blow_up_prints_one_line(tmp_path, degree, step):
    # an RK4 stage of the failing step overflows float64 for these degrees
    path = tmp_path / "field.json"
    path.write_text(json.dumps({"dim": 1, "components": [[{"coef": 1.0, "exps": [degree]}]]}))
    result = run_cli("flow", "--system", str(path), "--t", "3", "--q", "1",
                     "--steps-per-unit", "100")
    assert result.returncode == 3
    assert result.stderr.splitlines() == [
        f"numerical failure: integration diverged at step {step} (t={step / 100:.6g})"]


def test_non_finite_pushforward_exits_3(tmp_path):
    # x' = 60 y, y' = 60 x from the origin: the state stays at 0 while the
    # pushforward grows like e^(60 t) until it overflows
    path = tmp_path / "field.json"
    path.write_text(json.dumps({"dim": 2, "components": [
        [{"coef": 60.0, "exps": [0, 1]}], [{"coef": 60.0, "exps": [1, 0]}]]}))
    result = run_cli("flow", "--system", str(path), "--t", "13", "--q", "0,0")
    assert result.returncode == 3
    assert result.stdout == ""
    assert result.stderr.splitlines() == [
        "numerical failure: integration diverged at step 11744 (t=11.744)"]


def test_blow_up_in_param_deriv_prints_one_line(tmp_path):
    # x' = x^40 from 1.2: x**40 overflows in the first step, which must end in
    # the one-line report, with no numpy overflow warning before it
    path = tmp_path / "x40.json"
    path.write_text(json.dumps({"fields": [
        {"dim": 1, "components": [[{"coef": 1.0, "exps": [40]}]]},
        {"dim": 1, "components": [[{"coef": 1.0, "exps": [0]}]]}]}))
    result = run_cli("param-deriv", "--system", str(path), "--t", "1", "--q", "1.2")
    assert result.returncode == 3
    assert result.stderr.splitlines() == [
        "numerical failure: integration diverged at step 1 (t=0.000684035)"]


def test_singular_pushforward_in_param_deriv_exits_3(tmp_path):
    # x' = -800 x over t = 1: the forward pushforward 0.4517^1000 underflows
    # to 0, so pulling a contribution back through it has no solution
    path = tmp_path / "contract.json"
    path.write_text(json.dumps({"fields": [
        {"dim": 1, "components": [[{"coef": -800.0, "exps": [1]}]]},
        {"dim": 1, "components": [[{"coef": 1.0, "exps": [0]}]]}]}))
    result = run_cli("param-deriv", "--system", str(path), "--t", "1", "--q", "1")
    assert result.returncode == 3
    assert result.stdout == ""
    assert result.stderr.splitlines() == ["numerical failure: Singular matrix"]
    assert run_cli("param-deriv", "--system", str(path), "--t", "0.5",
                   "--q", "1").returncode == 0


@pytest.mark.parametrize("dim", [56, 64])
def test_flow_compiles_at_high_dimension(tmp_path, dim):
    # component i is -x_i + 0.5 x_i x_{i-1}; the generated loop's finiteness
    # test sums dim^2 matrix entries, over CPython's limit for one + chain
    def unit(*vars_):
        return [int(v in vars_) for v in range(dim)]

    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"dim": dim, "components": [
        [{"coef": -1.0, "exps": unit(i)}]
        + ([{"coef": 0.5, "exps": unit(i, i - 1)}] if i else []) for i in range(dim)]}))
    result = run_cli("flow", "--system", str(path), "--t", "0.1", "--q", ",".join(["0.1"] * dim))
    assert result.returncode in (0, 3), result.stderr
    assert "Traceback" not in result.stderr


def test_volterra_witness_on_a_dense_cubic_field(tmp_path):
    # every monomial of degree <= 3 in six variables: the 4-fold lift of x_1
    # that the witness samples has 5,005 terms in one component
    monomials = [e for e in itertools.product(range(4), repeat=6) if sum(e) <= 3]
    path = tmp_path / "dense6.json"
    path.write_text(json.dumps({"dim": 6, "components": [
        [{"coef": 0.1 * ((i + j) % 5 - 2) or 0.05, "exps": list(e)}
         for j, e in enumerate(monomials)] for i in range(6)]}))
    result = run_cli("volterra", "--system", str(path), "--k", "4", "--obs-coord", "1",
                     "--q", "0.1,0.1,0.1,0.1,0.1,0.1", "--t-max", "0.1", "--grid", "1",
                     "--witness-radius", "0.5")
    assert result.returncode == 0, result.stderr
    rows = json.loads(result.stdout)["rows"]
    assert len(rows) == 1 and rows[0]["bound"] >= rows[0]["remainder_norm"]


# Each case: argv, CSV header, and the CSV rows read off the JSON document.
SAME_NUMBERS = {
    "flow": (
        ["flow", "--system", "heisenberg", "--t", "0.5", "--q", "0.3,1,-0.2",
         "--steps-per-unit", "200"],
        "i,endpoint,pf_1,pf_2,pf_3",
        lambda d: [[i, x, *pf] for i, (x, pf)
                   in enumerate(zip(d["endpoint"], d["pushforward"]), 1)]),
    "volterra": (
        ["volterra", "--system", "rotation2d", "--k", "2", "--q", "1,0.5",
         "--t-max", "0.4", "--grid", "3", "--steps-per-unit", "200"],
        "t,norm,bound",
        lambda d: [[r["t"], r["remainder_norm"], r["bound"]] for r in d["rows"]]),
    "volterra-witness": (
        ["volterra", "--system", "rotation2d", "--k", "2", "--obs-coord", "1",
         "--q", "1,0", "--t-max", "0.4", "--grid", "3", "--steps-per-unit", "200",
         "--witness-radius", "1.2"],
        "t,norm,bound",
        lambda d: [[r["t"], r["remainder_norm"], r["bound"]] for r in d["rows"]]),
    "order-probe-remainder": (
        ["order-probe", "--system", "rotation2d", "--residual", "remainder", "--k", "2",
         "--obs-coord", "1", "--q", "1,0", "--t-max", "0.4", "--levels", "5",
         "--steps-per-unit", "200"],
        "t,norm",
        lambda d: [[r["t"], r["norm"]] for r in d["rows"]]),
    "order-probe-flow-bracket": (
        ["order-probe", "--system", "heisenberg", "--residual", "flow-bracket",
         "--q", "0.1,0.2,0", "--t-max", "0.2", "--levels", "5", "--steps-per-unit", "200"],
        "t,norm",
        lambda d: [[r["t"], r["norm"]] for r in d["rows"]]),
    "order-probe-inverse-expansion": (
        ["order-probe", "--system", "unicycle", "--residual", "inverse-expansion",
         "--q", "0.1,0.2,0.3", "--t-max", "0.4", "--levels", "5",
         "--steps-per-unit", "200"],
        "t,norm",
        lambda d: [[r["t"], r["norm"]] for r in d["rows"]]),
    "bracket": (
        ["bracket", "--system", "brockett", "--expr", "[V1,V2]", "--q", "0.3,-0.2,0.1"],
        "i,value",
        lambda d: [[i, v] for i, v in enumerate(d["value"], 1)]),
    "flow-bracket": (
        ["flow-bracket", "--system", "heisenberg", "--expr", "[V1,V2]",
         "--q", "0.1,0,0", "--t-max", "0.2", "--grid", "3", "--steps-per-unit", "200"],
        "t,q_1,q_2,q_3",
        lambda d: [[r["t"], *r["endpoint"]] for r in d["rows"]]),
    "param-deriv": (
        ["param-deriv", "--system", "heisenberg", "--t", "0.5", "--q", "0.1,0.2,0",
         "--steps-per-unit", "200", "--nodes", "8"],
        "i,in_formula,out_formula,finite_difference",
        lambda d: [[i, *row] for i, row in enumerate(
            zip(d["in_formula"], d["out_formula"], d["finite_difference"]), 1)]),
    "rank": (
        ["rank", "--system", "brockett", "--q", "0.1,0.2,0.3", "--max-degree", "3"],
        "expr,v_1,v_2,v_3",
        lambda d: [[b["expr"], *b["value"]] for b in d["brackets"]]),
    "simulate": (
        ["simulate", "--system", "heisenberg", "--q0", "0.1,0,0", "--schedule",
         "{schedule}", "--steps-per-unit", "200"],
        "i,endpoint",
        lambda d: [[i, v] for i, v in enumerate(d["endpoint"], 1)]),
    "plan": (
        ["plan", "--system", "heisenberg", "--q0", "0,0,0", "--target", "0,0,0.04",
         "--epsilon", "1e-3", "--steps-per-unit", "200"],
        "segment,field_index,sign,duration",
        lambda d: [[i, s["field_index"], s["sign"], s["duration"]]
                   for i, s in enumerate(d["schedule"])]),
}


def _main_output(capsys, argv):
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    return captured.out


@pytest.mark.parametrize("name", SAME_NUMBERS)
def test_csv_and_json_carry_the_same_numbers(tmp_path, capsys, name):
    argv, header, expected_rows = SAME_NUMBERS[name]
    schedule = tmp_path / "schedule.json"
    schedule.write_text('[{"field_index": 1, "sign": 1, "duration": 0.2}, '
                        '{"field_index": 2, "sign": -1, "duration": 0.3}]')
    argv = [str(schedule) if a == "{schedule}" else a for a in argv]
    doc = json.loads(_main_output(capsys, argv))
    text = _main_output(capsys, argv + ["--format", "csv"])
    lines = text.splitlines()
    assert text.endswith("\n") and lines[0] == header
    rows = list(csv.reader(lines[1:]))
    expected = expected_rows(doc)
    assert len(rows) == len(expected) > 0
    for cells, values in zip(rows, expected):
        assert len(cells) == len(values)
        for cell, value in zip(cells, values):
            if value is None:
                assert cell == ""
            elif isinstance(value, float):  # 17 digits give back every bit
                assert float(cell).hex() == value.hex()
            else:
                assert cell == str(value)


def test_csv_row_counts_follow_grid_and_levels(capsys):
    volterra = ["volterra", "--system", "rotation2d", "--k", "1", "--q", "1,0",
                "--t-max", "0.4", "--grid", "3", "--steps-per-unit", "100",
                "--format", "csv"]
    lines = _main_output(capsys, volterra).splitlines()
    assert lines[0] == "t,norm,bound" and len(lines) == 4
    doc = json.loads(_main_output(capsys, volterra[:-2]))
    assert [row["k"] for row in doc["rows"]] == [1, 1, 1] and doc["k"] == 1
    probe = ["order-probe", "--system", "rotation2d", "--residual", "remainder",
             "--k", "2", "--obs-coord", "1", "--q", "1,0", "--t-max", "0.4",
             "--levels", "6", "--steps-per-unit", "200"]
    lines = _main_output(capsys, probe + ["--format", "csv"]).splitlines()
    assert lines[0] == "t,norm" and len(lines) == 7
    doc = json.loads(_main_output(capsys, probe))
    assert abs(doc["slope"] - 2.0) <= 0.2
    assert list(doc) == ["slope", "r_squared", "degenerate", "excluded", "rows"]


def _main_error(capsys, argv) -> str:
    """The one stderr line of an invocation that must exit 2 and print nothing."""
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1, lines
    return lines[0]


def test_failed_output_write_exits_2(tmp_path, capsys):
    # the parent of the output path is a file, so the write raises FileExistsError
    blocker = tmp_path / "taken"
    blocker.write_text("")
    line = _main_error(capsys, ["flow", "--system", "heisenberg", "--t", "1", "--q", "0,0,0",
                                "--output", str(blocker / "x.json")])
    assert line.startswith("error: ")
    assert str(blocker) in line


def test_system_without_fields_exits_2(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text('{"fields": []}')
    line = _main_error(capsys, ["flow", "--system", str(path), "--t", "1", "--q", "0"])
    assert line == "error: a system needs at least one field"


FIELD_1D = ("flow", "--t", "0.5", "--q", "0", "--system")
BOOLEAN_DOCUMENTS = {  # file name: (text, argv, message)
    "coef.json": ('{"dim": 1, "components": [[{"coef": true, "exps": [0]}]]}', FIELD_1D,
                  "components[0][0].coef must be a number, got True"),
    "dim.json": ('{"dim": true, "components": [[{"coef": 1.0, "exps": [0]}]]}', FIELD_1D,
                 "dim must be an integer, got True"),
    "exps.json": ('{"fields": [{"dim": 1, "components": [[{"coef": 1.0, "exps": [false]}]]}]}',
                  FIELD_1D, "fields[0].components[0][0].exps[0] must be an integer, got False"),
    "order.json": ('{"dim": 1, "smoothness_order": true, "components": [[]]}', FIELD_1D,
                   "smoothness_order must be an integer, got True"),
    "t0.json": ('{"dim": 1, "time_pieces": [{"t0": false, "t1": 1, "components": [[]]}]}',
                FIELD_1D, "time_pieces[0].t0 must be a number, got False"),
    "t1.json": ('{"dim": 1, "time_pieces": [{"t0": 0, "t1": true, "components": [[]]}]}',
                FIELD_1D, "time_pieces[0].t1 must be a number, got True"),
    "index.json": ('[{"field_index": true, "sign": 1, "duration": 0.1}]', SCHEDULE,
                   "schedule row 0 field_index must be an integer, got True"),
    "sign.json": ('[{"field_index": 1, "sign": 1, "duration": 0.1}, '
                  '{"field_index": 1, "sign": true, "duration": 0.1}]', SCHEDULE,
                  "schedule row 1 sign must be an integer, got True"),
    "duration.json": ('[{"field_index": 1, "sign": 1, "duration": true}]', SCHEDULE,
                      "schedule row 0 duration must be a number, got True"),
}


@pytest.mark.parametrize("name", BOOLEAN_DOCUMENTS)
def test_json_boolean_is_not_a_number(tmp_path, capsys, name):
    # JSON true and false would otherwise pass as 1 and 0
    text, argv, message = BOOLEAN_DOCUMENTS[name]
    path = tmp_path / name
    path.write_text(text)
    assert _main_error(capsys, [*argv, str(path)]) == f"error: {message}"


STRING_DOCUMENTS = {  # file name: (text, argv, message)
    "dim.json": ('{"dim": "1", "components": [[{"coef": 0.5, "exps": [0]}]]}', FIELD_1D,
                 "dim must be an integer, got '1'"),
    "exps.json": ('{"dim": 1, "components": [[{"coef": 0.5, "exps": ["0"]}]]}', FIELD_1D,
                  "components[0][0].exps[0] must be an integer, got '0'"),
    "coef.json": ('{"dim": 1, "components": [[{"coef": "0.5", "exps": [0]}]]}', FIELD_1D,
                  "components[0][0].coef must be a number, got '0.5'"),
    "t0.json": ('{"dim": 1, "time_pieces": [{"t0": "0", "t1": 1, "components": [[]]}]}',
                FIELD_1D, "time_pieces[0].t0 must be a number, got '0'"),
    "t1.json": ('{"fields": [{"dim": 1, "time_pieces": [{"t0": 0, "t1": "1", '
                '"components": [[]]}]}]}',
                FIELD_1D, "fields[0].time_pieces[0].t1 must be a number, got '1'"),
    "order.json": ('{"dim": 1, "smoothness_order": "8", "components": [[]]}', FIELD_1D,
                   "smoothness_order must be an integer, got '8'"),
    "index.json": ('[{"field_index": "1", "sign": 1, "duration": 0.1}]', SCHEDULE,
                   "schedule row 0 field_index must be an integer, got '1'"),
    "sign.json": ('[{"field_index": 1, "sign": "1", "duration": 0.1}]', SCHEDULE,
                  "schedule row 0 sign must be an integer, got '1'"),
    "duration.json": ('{"schedule": [{"field_index": 1, "sign": 1, "duration": 0.1}, '
                      '{"field_index": 1, "sign": 1, "duration": "0.1"}]}', SCHEDULE,
                      "schedule row 1 duration must be a number, got '0.1'"),
}


@pytest.mark.parametrize("name", STRING_DOCUMENTS)
def test_json_string_is_not_a_number(tmp_path, capsys, name):
    # numeric strings are numbers only in CSV cells
    text, argv, message = STRING_DOCUMENTS[name]
    path = tmp_path / name
    path.write_text(text)
    assert _main_error(capsys, [*argv, str(path)]) == f"error: {message}"


@pytest.mark.parametrize("name, text, message", [
    ("abc.json", '[{"field_index": 1, "sign": 1, "duration": "abc"}]',
     "schedule row 0 duration must be a number, got 'abc'"),
    ("empty.csv", "segment,field_index,sign,duration\n0,1,1,0.1\n1,2,-1,\n",
     "schedule row 1 duration must be a number, got ''"),
    ("abc.csv", "segment,field_index,sign,duration\n0,1,1,abc\n",
     "schedule row 0 duration must be a number, got 'abc'"),
], ids=["json", "csv", "csv-text"])
def test_schedule_duration_that_is_no_number_names_its_row(tmp_path, capsys, name, text,
                                                           message):
    path = tmp_path / name
    path.write_text(text)
    assert _main_error(capsys, [*SCHEDULE, str(path)]) == f"error: {message}"


def _readme_commands() -> list[list[str]]:
    """The ``chronoflow ...`` lines of README's Command line block, joined at ``\\``."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("chronoflow ")]


def test_readme_command_line_examples_run(tmp_path, monkeypatch, capsys):
    # in order, so that simulate replays the plan.json that plan writes
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.OUTPUT_DIR_ENV, raising=False)
    commands = _readme_commands()
    assert len(commands) == 9
    for argv in commands:
        assert cli.main(argv) == 0, (argv, capsys.readouterr().err)
    assert (tmp_path / "plan.json").exists()


def test_witness_bounds_a_backward_remainder(tmp_path, capsys):
    # x' = (0, x1) on [0, 0.5), x' = (1, 0) on [0.5, 1]: from t0 = 1 back to 0 the
    # order-2 remainder of x2 lives on increasing piece sequences only
    path = tmp_path / "bw.json"
    path.write_text(json.dumps({"fields": [{"dim": 2, "time_pieces": [
        {"t0": 0.0, "t1": 0.5, "components": [[], [{"coef": 1.0, "exps": [1, 0]}]]},
        {"t0": 0.5, "t1": 1.0, "components": [[{"coef": 1.0, "exps": [0, 0]}], []]}]}]}))
    assert cli.main(["volterra", "--system", str(path), "--k", "2", "--obs-coord", "2",
                     "--q", "0.3,0.2", "--t0", "1", "--t-max", "0", "--grid", "1",
                     "--witness-radius", "0.5"]) == 0
    [row] = json.loads(capsys.readouterr().out)["rows"]
    assert abs(row["remainder_norm"] - 0.25) <= 1e-12
    assert row["remainder_norm"] <= row["bound"]
