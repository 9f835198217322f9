"""The lazy-import contract of the package and of the command line.

``import chronoflow`` loads the core (``errors``, ``fields``, ``flow``); the
operation modules load on first attribute access, and each subcommand loads
only the operation modules it runs.
"""
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chronoflow

SRC = str(Path(chronoflow.__file__).resolve().parents[1])
OPERATION_MODULES = ("chrono", "liealg", "paramflow", "reach")

# Every name the package exported before its operation modules became lazy,
# by the module that defines it.
EXPORTS = {
    "errors": (
        "BlowUpError", "ChronoflowError", "DefectExhaustedError", "DimensionError",
        "PlannerPreconditionError", "StalledError", "TimeWindowError",
    ),
    "fields": (
        "LocallyBoundedWitness", "Observable", "PolynomialMap", "VectorField",
        "add_fields", "apply_lift", "as_point", "brockett_fields", "builtin_system",
        "constant_field", "eval_field", "field_jacobian", "finite_difference_jacobian",
        "heisenberg_fields", "iterate_lift", "linear_field", "load_system",
        "observable_from_json", "rotation2d", "sample_lift_bound", "unicycle_fields",
        "vector_field_from_json", "zero_field",
    ),
    "flow": (
        "FlowMap", "FlowSolver", "flow_map", "flow_operator_apply",
        "flow_pushforward", "flow_time_dependent", "flow_with_pushforward",
        "inverse_flow", "pushforward_field",
    ),
    "chrono": (
        "OrderEstimate", "RemainderReport", "integral_equation_residual", "order_probe",
        "remainder_eval", "simplex_integral_term", "simplex_volume", "volterra_truncate",
    ),
    "liealg": (
        "BracketExpression", "adjoint_check", "bracket_asymptotics_check",
        "bracket_program", "eval_bracket_expression", "flow_bracket",
        "inverse_expansion_check", "lie_bracket", "lie_bracket_field",
        "pushforward_invariance_check",
    ),
    "paramflow": (
        "IN_FORMULA", "OUT_FORMULA", "PerturbedSystem", "fd_param_derivative",
        "param_derivative", "variation_of_parameters_check",
    ),
    "reach": (
        "AffineControlSystem", "ControlSchedule", "PlanResult", "RankReport", "Segment",
        "bracket_motion", "bracket_rank", "canonical_bracket_basis", "plan_reach",
        "simulate_schedule",
    ),
}
MODULE_EXPORTS = ("chrono", "errors", "fields", "flow", "liealg", "paramflow",
                  "quadrature", "reach")


def run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": SRC}, timeout=60)


@pytest.mark.parametrize("module, name", [
    (module, name) for module, names in EXPORTS.items() for name in names])
def test_exported_name_resolves_to_the_submodule_binding(module, name):
    namespace = {}
    exec(f"from chronoflow import {name}", namespace)
    submodule = importlib.import_module(f"chronoflow.{module}")
    assert namespace[name] is getattr(submodule, name)
    assert getattr(chronoflow, name) is getattr(submodule, name)
    assert name in dir(chronoflow)
    assert name in chronoflow.__all__


@pytest.mark.parametrize("module", MODULE_EXPORTS)
def test_submodule_names_resolve_to_the_modules(module):
    assert getattr(chronoflow, module) is importlib.import_module(f"chronoflow.{module}")
    assert module in dir(chronoflow)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="nonexistent"):
        chronoflow.nonexistent  # noqa: B018


def test_package_reads_the_current_submodule_binding():
    reach = importlib.import_module("chronoflow.reach")
    original = reach.plan_reach
    try:
        reach.plan_reach = marker = object()
        assert chronoflow.plan_reach is marker
    finally:
        reach.plan_reach = original
    assert chronoflow.plan_reach is original


LOADED = """
import contextlib, io, json, sys
from chronoflow import cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = cli.main(sys.argv[1:])
    except SystemExit as exc:  # --help
        code = exc.code
print(json.dumps(sorted(m for m in {ops} if "chronoflow." + m in sys.modules)))
sys.exit(code)
""".format(ops=OPERATION_MODULES)


@pytest.mark.parametrize("argv, loaded", [
    (["--help"], []),
    (["flow", "--system", "heisenberg", "--t", "0.5", "--q", "0,1,0"], []),
    (["rank", "--help"], []),
    (["plan", "--help"], []),
    (["volterra", "--system", "rotation2d", "--k", "1", "--q", "1,0",
      "--t-max", "0.2", "--grid", "2"], ["chrono"]),
    (["order-probe", "--system", "rotation2d", "--residual", "remainder", "--k", "1",
      "--q", "1,0", "--t-max", "0.2", "--levels", "4"], ["chrono"]),
    (["param-deriv", "--system", "heisenberg", "--t", "0.2", "--q", "0,0,0",
      "--steps-per-unit", "100", "--nodes", "4"], ["paramflow"]),
    (["simulate", "--system", "heisenberg", "--q0", "0,0,0", "--schedule", "SCHEDULE",
      "--steps-per-unit", "100"], ["reach"]),
    (["rank", "--system", "heisenberg", "--q", "0,0,0", "--max-degree", "2"],
     ["liealg", "reach"]),
    (["plan", "--system", "heisenberg", "--q0", "0,0,0", "--target", "0,0,0.04",
      "--epsilon", "1e-3", "--steps-per-unit", "50"], ["liealg", "reach"]),
    (["bracket", "--system", "heisenberg", "--expr", "[V1,V2]", "--q", "0,0,0"],
     ["liealg"]),
])
def test_subcommand_loads_only_the_operation_modules_it_runs(tmp_path, argv, loaded):
    schedule = tmp_path / "schedule.csv"
    schedule.write_text("field_index,sign,duration\n1,1,0.1\n2,-1,0.1\n")
    argv = [str(schedule) if arg == "SCHEDULE" else arg for arg in argv]
    result = run_python(LOADED, *argv)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == loaded


def test_import_chronoflow_loads_only_the_core():
    result = run_python("import json, sys, chronoflow; print(json.dumps(sorted("
                        "m for m in sys.modules if m.startswith('chronoflow.'))))")
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == [
        "chronoflow.errors", "chronoflow.fields", "chronoflow.flow"]


def test_import_chronoflow_loads_no_csv_module():
    # only ControlSchedule.from_csv reads CSV, and it imports csv when it runs
    result = run_python("import sys, chronoflow; print('csv' in sys.modules)")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


@pytest.mark.parametrize("module", [
    "errors", "fields", "flow", "quadrature", "chrono", "liealg", "paramflow",
    "reach", "cli", "__main__"])
def test_each_module_imports_in_a_fresh_interpreter(module):
    result = run_python(f"import chronoflow.{module}")
    assert result.returncode == 0, result.stderr
