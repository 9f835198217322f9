"""Argv fuzz test: every invocation exits 0, 2 or 3, failures with one stderr line.

Argv is built from the real subcommands and flags of ``cli.build_parser``
with small valid values and at most one value from a fixed hostile pool,
and run in process.  Finite times stay at or below 3 (or at 1e300, which
the step ceiling rejects at once), so no example integrates for long.
``--output`` is left out because it writes files.  ``--schedule`` and
``--system`` also draw from a pool of readable files (valid schedules,
malformed schedules, malformed field files and a field whose value
overflows), drawn by name and resolved in a temporary directory.
Examples are derandomized.
"""
import argparse
import io
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from chronoflow import cli

FUZZ = settings(max_examples=100, deadline=None, database=None, derandomize=True)

# Valid values by flag name, then by argparse type; points match the system.
# Each argv gets at most one value from HOSTILE, so most examples reach the
# code behind the parser.
POINTS = {
    "heisenberg": ("0,0,0", "0.1,-0.2,0.05"),
    "brockett": ("0,0,0", "0.1,-0.2,0.05"),
    "unicycle": ("0,0,0", "0.1,-0.2,0.05"),
    "rotation2d": ("1,0", "0.3,-0.4"),
    # malformed field files from FILES
    "field_list.json": ("0,0",),
    "field_null_order.json": ("0,0",),
    "field_fractional_exps.json": ("0,0", "0.3,-0.4"),
    "field_components_number.json": ("0,0",),
    "field_null_coef.json": ("0,0",),
    "field_term_list.json": ("0,0",),
    "field_exps_number.json": ("0,0",),
    "field_null_t0.json": ("0,0",),
    "field_fields_number.json": ("0,0",),
    # a valid field whose value overflows: x^400 - y^400 is inf - inf at (10, 10)
    "field_ovf.json": ("10,10", "0.3,-0.4"),
}
FILES = {
    "schedule.csv": "segment,field_index,sign,duration\n0,1,1,0.25\n1,2,-1,0.5\n",
    "missing_column.csv": "segment,field_index,sign,duration\n0,1,1\n",
    "null_duration.json": '[{"field_index": 1, "sign": 1, "duration": null}]',
    "no_schedule.json": '{"endpoint": [0, 0, 0]}',
    "number.json": "5",
    "fractional_index.json": '[{"field_index": 1.9, "sign": 1, "duration": 0.1}]',
    "fractional_sign.json": '[{"field_index": 1, "sign": 1.5, "duration": 0.1}]',
    "field_list.json": '[{"dim": 2, "components": [[], []]}]',
    "field_null_order.json": '{"dim": 2, "smoothness_order": null, "components": [[], []]}',
    "field_fractional_exps.json":
        '{"dim": 2, "components": [[{"coef": 1.0, "exps": [0.9, 0]}], []]}',
    "field_components_number.json": '{"dim": 2, "components": 5}',
    "field_null_coef.json": '{"dim": 2, "components": [[{"coef": null, "exps": [0, 0]}], []]}',
    "field_term_list.json": '{"dim": 2, "components": [[[5]], []]}',
    "field_exps_number.json": '{"dim": 2, "components": [[{"coef": 1.0, "exps": 0}], []]}',
    "field_null_t0.json":
        '{"dim": 2, "time_pieces": [{"t0": null, "t1": 1, "components": [[], []]}]}',
    "field_fields_number.json": '{"fields": 5}',
    "field_ovf.json": '{"dim": 2, "components": [[{"coef": 1.0, "exps": [400, 0]}, '
                      '{"coef": -1.0, "exps": [0, 400]}], [{"coef": 1.0, "exps": [1, 0]}]]}',
}
VALID = {
    "--expr": ("V1", "[V1,V2]", "[[V1,V2],V1]"),
    "--schedule": ("missing.csv", "plan.json") + tuple(
        name for name in FILES if not name.startswith("field_")),
    "--levels": ("4", "6"),
    "--nodes": ("1", "2"),
    "--steps-per-unit": ("3", "50"),
    int: ("1", "2"),
    float: ("-0.5", "0.01", "0.5", "1", "2"),
}
HOSTILE = ("nan", "inf", "-inf", "-1", "0", "1e300", "", "x", "3", "1,,2", "1,0",
           "0,0,nan", "heisenberg", "rotation2d", "[V1,V3]", "[V1", "V0")


def _subcommand_flags() -> dict[str, list[argparse.Action]]:
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: [a for a in p._actions
               if a.option_strings and a.option_strings[-1] not in ("--help", "--output")]
        for name, p in sub.choices.items()
    }


FLAGS = _subcommand_flags()


def _valid(action: argparse.Action, system: str) -> tuple[str, ...]:
    flag = action.option_strings[-1]
    if flag == "--system":
        return (system,)
    if flag in ("--q", "--q0", "--target"):
        return POINTS[system]
    return VALID.get(flag) or action.choices or VALID[action.type]


@st.composite
def argvs(draw) -> list[str]:
    command = draw(st.sampled_from(sorted(FLAGS)))
    actions = FLAGS[command]
    hostile = draw(st.one_of(st.none(), st.sampled_from(actions)))
    system = draw(st.sampled_from(sorted(POINTS)))
    argv = [command]
    for action in actions:
        if action is hostile:
            value = draw(st.sampled_from(HOSTILE))
        elif action.required or draw(st.booleans()):
            value = draw(st.sampled_from(_valid(action, system)))
        else:
            continue
        argv += [action.option_strings[-1], value]
    return argv


@pytest.fixture(scope="module")
def pool(tmp_path_factory):
    """FILES plus a valid plan document written by ``chronoflow plan``."""
    root = tmp_path_factory.mktemp("fuzz-files")
    for name, text in FILES.items():
        (root / name).write_text(text)
    assert cli.main(["plan", "--system", "heisenberg", "--q0", "0,0,0",
                     "--target", "0,0,0.04", "--epsilon", "1e-3",
                     "--steps-per-unit", "50", "--output", str(root / "plan.json")]) == 0
    return root


@FUZZ
@given(argvs())
def test_cli_exits_0_2_or_3_with_one_stderr_line(pool, argv):
    argv = [str(pool / arg) if (pool / arg).is_file() else arg for arg in argv]
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 2, 3)
    assert caught == []
    assert len(err.getvalue().splitlines()) == (0 if code == 0 else 1)
    assert "Traceback" not in err.getvalue()
