"""Command-line interface: load systems, run operations, emit CSV/JSON.

Output is deterministic: identical argv and inputs produce byte-identical
text (CSV values carry 17 significant digits, JSON uses shortest-repr
floats and stable key order).  Exit codes: 0 success, 2 validation error,
3 numerical failure (blow-up, planner stall, a singular pushforward or a
non-finite number in the output).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .errors import BlowUpError, ChronoflowError, StalledError
from .fields import Observable, as_point, load_system
from .flow import FlowMap, FlowSolver, flow_with_pushforward

OUTPUT_DIR_ENV = "CHRONOFLOW_OUTPUT_DIR"
MAX_ORDER = 4
MAX_LEVELS = 16
# one output row per grid point; checked before the times are listed, so a huge
# --grid exits 2 instead of filling memory
MAX_GRID = 10_000
# order-probe's residual flags, with their defaults, and the residuals that read them
PROBE_DEFAULTS = {"field": 1, "obs_coord": None, "k": 1, "expr": "[V1,V2]"}
PROBE_READS = {"remainder": {"field", "obs_coord", "k"}, "flow-bracket": {"expr"},
               "inverse-expansion": {"field"}}


def _fmt(cell) -> str:
    if cell is None:
        return ""
    if isinstance(cell, float):  # numpy float64 included
        if not np.isfinite(cell):
            raise FloatingPointError("non-finite value in the output")
        return format(cell, ".17g")
    return str(cell)


def _parse_point(text: str) -> np.ndarray:
    try:
        return as_point([float(part) for part in text.split(",")])
    except ValueError as exc:
        raise ValueError(f"cannot parse point {text!r}: {exc}") from None


def _solver(args) -> FlowSolver:
    return FlowSolver(steps_per_unit_time=args.steps_per_unit)


def _check_range(flag: str, value: int, least: int, most: int) -> None:
    if not least <= value <= most:
        raise ValueError(f"{flag} must be in {least}..{most}, got {value}")


def _check_order(k: int, field) -> None:
    _check_range("--k", k, 1, min(MAX_ORDER, field.smoothness_order))


def _t_grid(args) -> list[float]:
    _check_range("--grid", args.grid, 1, MAX_GRID)
    return [args.t_max * (j + 1) / args.grid for j in range(args.grid)]


def _pick_field(fields, index: int):
    if not 1 <= index <= len(fields):
        raise IndexError(
            f"field index {index} out of range; system has {len(fields)} fields"
        )
    return fields[index - 1]


def _observable(fields, obs_coord: int | None) -> Observable:
    dim = fields[0].dim
    if obs_coord is None:
        return Observable.identity(dim)
    if not 1 <= obs_coord <= dim:
        raise IndexError(f"observable coordinate {obs_coord} out of range for dim {dim}")
    return Observable.coordinate(dim, obs_coord - 1)


def _write_output(text: str, args) -> None:
    if args.output in (None, "-"):
        sys.stdout.write(text)
        return
    path = Path(args.output)
    if not path.is_absolute():
        base = os.environ.get(OUTPUT_DIR_ENV)
        if base:
            path = Path(base) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _render(args, doc, header: str, rows) -> str:
    """The text of every output: ``doc`` as JSON, or ``header`` and ``rows`` as CSV;
    a non-finite number in them is a numerical failure, not an answer."""
    if args.format == "json":
        try:
            return json.dumps(doc, indent=2, allow_nan=False) + "\n"
        except ValueError:  # raised for NaN or infinity
            raise FloatingPointError("non-finite value in the output") from None
    return "".join([header + "\n"] + [",".join(map(_fmt, row)) + "\n" for row in rows])


# ---------------------------------------------------------------------------
# Subcommands

def cmd_flow(args) -> str:
    fields = load_system(args.system)
    field = _pick_field(fields, args.field)
    q = _parse_point(args.q)
    fm = FlowMap(field, args.t0, args.t, _solver(args))
    endpoint, pushforward = flow_with_pushforward(fm, q)
    endpoint, pushforward = endpoint.tolist(), pushforward.tolist()
    header = "i,endpoint," + ",".join(f"pf_{j}" for j in range(1, len(endpoint) + 1))
    rows = [(i, x, *row) for i, (x, row) in enumerate(zip(endpoint, pushforward), 1)]
    return _render(args, {"endpoint": endpoint, "pushforward": pushforward}, header, rows)


def cmd_volterra(args) -> str:
    from . import chrono
    fields = load_system(args.system)
    field = _pick_field(fields, args.field)
    _check_order(args.k, field)
    obs = _observable((field,), args.obs_coord)
    q = _parse_point(args.q)
    solver = _solver(args)
    witness = None
    if args.witness_radius is not None:
        from .fields import sample_lift_bound
        witness = sample_lift_bound(field, obs, args.k, q, args.witness_radius)
    t_values = _t_grid(args)
    reports = chrono.remainder_table(field, obs, q, args.t0, args.k, t_values,
                                     solver, witness)
    rows = [(r.t, r.remainder_norm, r.bound) for r in reports]
    doc = {"k": args.k, "rows": [
        {"k": args.k, "t": t, "remainder_norm": norm, "bound": bound}
        for t, norm, bound in rows
    ]}
    return _render(args, doc, "t,norm,bound", rows)


def cmd_order_probe(args) -> str:
    for name, default in PROBE_DEFAULTS.items():
        if hasattr(args, name) and name not in PROBE_READS[args.residual]:
            flag = "--" + name.replace("_", "-")
            raise ValueError(f"--residual {args.residual} does not read {flag}")
        setattr(args, name, getattr(args, name, default))
    from . import chrono
    fields = load_system(args.system)
    solver = _solver(args)
    q = _parse_point(args.q)
    _check_range("--levels", args.levels, 4, MAX_LEVELS)

    if args.residual == "remainder":
        field = _pick_field(fields, args.field)
        _check_order(args.k, field)
        obs = _observable((field,), args.obs_coord)

        def sample(t: float) -> float:
            return chrono.remainder_eval(field, obs, q, 0.0, t, args.k,
                                         solver).remainder_norm

        estimate = chrono.order_probe(sample, args.t_max, args.levels)
    elif args.residual == "flow-bracket":
        from . import liealg
        expr = liealg.BracketExpression.parse(args.expr)
        estimate = liealg.bracket_asymptotics_check(expr, fields, q, args.t_max,
                                                    args.levels, solver)
    else:  # inverse-expansion
        from . import liealg
        field = _pick_field(fields, args.field)
        estimate = liealg.inverse_expansion_check(field, q, args.t_max,
                                                  args.levels, solver)

    rows = list(zip(estimate.t_grid.tolist(), estimate.norms.tolist()))
    degenerate = estimate.degenerate
    doc = {
        "slope": None if degenerate else estimate.fitted_slope,
        "r_squared": None if degenerate else estimate.r_squared,
        "degenerate": degenerate,
        "excluded": estimate.excluded,
        "rows": [{"t": t, "norm": norm} for t, norm in rows],
    }
    return _render(args, doc, "t,norm", rows)


def cmd_bracket(args) -> str:
    from . import liealg
    fields = load_system(args.system)
    expr = liealg.BracketExpression.parse(args.expr)
    q = _parse_point(args.q)
    value = liealg.eval_bracket_expression(expr, fields, args.t, q).tolist()
    return _render(args, {"expr": str(expr), "value": value}, "i,value",
                   enumerate(value, 1))


def cmd_flow_bracket(args) -> str:
    from . import liealg
    fields = load_system(args.system)
    expr = liealg.BracketExpression.parse(args.expr)
    q = _parse_point(args.q)
    solver = _solver(args)
    t_values = _t_grid(args)
    endpoints = [liealg.flow_bracket(expr, fields, t, q, solver).tolist()
                 for t in t_values]
    doc = {"expr": str(expr), "rows": [
        {"t": t, "endpoint": p} for t, p in zip(t_values, endpoints)
    ]}
    header = "t," + ",".join(f"q_{j}" for j in range(1, fields[0].dim + 1))
    return _render(args, doc, header, [(t, *p) for t, p in zip(t_values, endpoints)])


def cmd_param_deriv(args) -> str:
    from . import paramflow
    fields = load_system(args.system)
    base = _pick_field(fields, args.field)
    perturbation = _pick_field(fields, args.perturb)
    q = _parse_point(args.q)
    solver = _solver(args)
    system = paramflow.PerturbedSystem(base, perturbation, args.t0, args.t)
    inner = paramflow.param_derivative(system, q, paramflow.IN_FORMULA, solver,
                                       args.nodes)
    outer = paramflow.param_derivative(system, q, paramflow.OUT_FORMULA, solver,
                                       args.nodes)
    oracle = paramflow.fd_param_derivative(system, q, args.epsilon, solver)
    columns = {"in_formula": inner.tolist(), "out_formula": outer.tolist(),
               "finite_difference": oracle.tolist()}
    return _render(args, columns, "i," + ",".join(columns),
                   [(i, *row) for i, row in enumerate(zip(*columns.values()), 1)])


def cmd_rank(args) -> str:
    from . import reach
    fields = load_system(args.system)
    system = reach.AffineControlSystem.of(fields)
    q = _parse_point(args.q)
    _check_range("--max-degree", args.max_degree, 1, MAX_ORDER)
    report = reach.bracket_rank(system, q, args.max_degree,
                               getattr(args, "rel_tol", reach.DEFAULT_RANK_TOL))
    header = "expr," + ",".join(f"v_{j}" for j in range(1, system.dim + 1))
    return _render(args, report.to_json(), header,
                   [(f'"{expr}"', *value.tolist()) for expr, value in report.brackets])


def cmd_plan(args) -> str:
    from . import reach
    fields = load_system(args.system)
    system = reach.AffineControlSystem.of(fields)
    q0 = _parse_point(args.q0)
    target = _parse_point(args.target)
    _check_range("--max-degree", args.max_degree, 1, MAX_ORDER)
    result = reach.plan_reach(system, q0, target, args.epsilon, args.max_degree,
                              args.max_iters, _solver(args),
                              step_fraction=getattr(args, "step_fraction",
                                                    reach.DEFAULT_STEP_FRACTION))
    if args.format == "csv":  # the schedule file that simulate reads back
        return result.schedule.to_csv()
    return _render(args, result.to_json(), "", ())


def cmd_simulate(args) -> str:
    from . import reach
    fields = load_system(args.system)
    system = reach.AffineControlSystem.of(fields)
    q0 = _parse_point(args.q0)
    text = Path(args.schedule).read_text()
    if args.schedule.endswith(".csv"):
        schedule = reach.ControlSchedule.from_csv(text)
    else:
        doc = json.loads(text)
        if isinstance(doc, dict) and "schedule" in doc:
            doc = doc["schedule"]
        schedule = reach.ControlSchedule.from_json(doc)
    endpoint = reach.simulate_schedule(system, q0, schedule, _solver(args)).tolist()
    return _render(args, {"endpoint": endpoint}, "i,endpoint", enumerate(endpoint, 1))


# ---------------------------------------------------------------------------
# Parser

class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors exit 2 with one stderr line, like every validation error."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _node_count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="chronoflow",
        description="Flows, Volterra truncations, bracket asymptotics, and "
                    "bracket-generating reachability at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, steps=True):
        p.add_argument("--system", required=True,
                       help="builtin system name or path to a JSON system file")
        if steps:
            p.add_argument("--steps-per-unit", type=int, default=1000,
                           help="RK4 substeps per unit time (default 1000)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--output", default="-",
                       help="output path ('-' for stdout); relative paths are "
                            f"resolved under ${OUTPUT_DIR_ENV} when set")

    p = sub.add_parser("flow", help="flow endpoint and pushforward at one point")
    common(p)
    p.add_argument("--field", type=int, default=1, help="1-based field index")
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--q", required=True, help="comma-separated start point")
    p.set_defaults(fn=cmd_flow)

    p = sub.add_parser("volterra", help="truncation remainder table over a t-grid")
    common(p)
    p.add_argument("--field", type=int, default=1)
    p.add_argument("--obs-coord", type=int, default=None,
                   help="1-based coordinate observable (default: identity)")
    p.add_argument("--k", type=int, required=True, help="truncation order (1..4)")
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--t-max", type=float, required=True)
    p.add_argument("--grid", type=int, default=8,
                   help=f"number of grid points (1..{MAX_GRID})")
    p.add_argument("--q", required=True)
    p.add_argument("--witness-radius", type=float, default=None,
                   help="sample a boundedness witness on this ball to emit bounds")
    p.set_defaults(fn=cmd_volterra)

    p = sub.add_parser("order-probe", help="fit the decay order of a residual")
    common(p)
    p.add_argument("--residual", required=True,
                   choices=("remainder", "flow-bracket", "inverse-expansion"))
    p.add_argument("--field", type=int, default=argparse.SUPPRESS)
    p.add_argument("--obs-coord", type=int, default=argparse.SUPPRESS)
    p.add_argument("--k", type=int, default=argparse.SUPPRESS)
    p.add_argument("--expr", default=argparse.SUPPRESS,
                   help="bracket expression for the flow-bracket residual")
    p.add_argument("--q", required=True)
    p.add_argument("--t-max", type=float, required=True)
    p.add_argument("--levels", type=int, default=8, help="dyadic levels (4..16)")
    p.set_defaults(fn=cmd_order_probe)

    p = sub.add_parser("bracket", help="evaluate an iterated bracket at a point")
    common(p, steps=False)
    p.add_argument("--expr", required=True, help='e.g. "V1" or "[[V1,V2],V1]"')
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--q", required=True)
    p.set_defaults(fn=cmd_bracket)

    p = sub.add_parser("flow-bracket", help="commutator-of-flows endpoint table")
    common(p)
    p.add_argument("--expr", required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--t-max", type=float, required=True)
    p.add_argument("--grid", type=int, default=8)
    p.set_defaults(fn=cmd_flow_bracket)

    p = sub.add_parser("param-deriv",
                       help="flow derivative in a perturbation direction")
    common(p)
    p.add_argument("--nodes", type=_node_count, default=32,
                   help="Gauss-Legendre nodes per piece (default 32)")
    p.add_argument("--field", type=int, default=1, help="base field index")
    p.add_argument("--perturb", type=int, default=2, help="perturbation field index")
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--epsilon", type=float, default=1e-4,
                   help="finite-difference step for the oracle")
    p.set_defaults(fn=cmd_param_deriv)

    p = sub.add_parser("rank", help="bracket-generating rank test at a point")
    common(p, steps=False)
    p.add_argument("--q", required=True)
    p.add_argument("--max-degree", type=int, default=2)
    p.add_argument("--rel-tol", type=float, default=argparse.SUPPRESS)
    p.set_defaults(fn=cmd_rank)

    p = sub.add_parser("plan", help="greedy bracket-motion planner")
    common(p)
    p.add_argument("--q0", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--max-degree", type=int, default=2)
    p.add_argument("--max-iters", type=int, default=200)
    p.add_argument("--step-fraction", type=float, default=argparse.SUPPRESS)
    p.set_defaults(fn=cmd_plan)

    p = sub.add_parser("simulate", help="simulate a schedule file from a point")
    common(p)
    p.add_argument("--q0", required=True)
    p.add_argument("--schedule", required=True,
                   help="schedule file: .csv, bare JSON list, or plan JSON output")
    p.set_defaults(fn=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _write_output(args.fn(args), args)
    except (BlowUpError, StalledError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ChronoflowError, KeyError, IndexError, ValueError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
