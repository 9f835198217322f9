"""Boundary tracer: spans around calls into chronoflow's public functions.

``Tracer.install`` replaces every public function of the seven modules at
each binding that names it -- the defining module, every module that
imported it (``chronoflow.reach.flow_map``, ``chronoflow.liealg.lift_map``,
...) and the package namespace -- with one wrapper per function that
records a span.  ``uninstall`` puts the original objects back.  Nothing
under ``src/`` changes, and an untraced run never calls ``install``.

A span is (name, start, end, parent, op).  Spans stay in memory; the layer
metrics are computed from them after the traced interval.  Work counts are
derived at the same boundaries from the arguments and results the wrappers
keep: RK4 steps from ``FlowSolver.step_count`` over the field's
``breakpoints_between`` pieces, program segments from the program, planner
iterations from the plan result.
"""
from __future__ import annotations

import functools
import importlib
import inspect
from dataclasses import dataclass
from time import perf_counter
from typing import Any

MODULES = ("fields", "flow", "chrono", "liealg", "paramflow", "reach", "cli")
PLAIN_SOLVES = ("flow.flow_map",)
VARIATIONAL_SOLVES = ("flow.flow_with_pushforward", "flow.flow_pushforward")
# Functions whose first argument (FlowMap or program) or result feeds a count.
KEEP_ARG = PLAIN_SOLVES + VARIATIONAL_SOLVES + ("liealg.run_program",)
KEEP_RESULT = ("reach.plan_reach", "reach.bracket_motion")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    op: int
    keep: Any = None

    @property
    def module(self) -> str:
        return self.name.partition(".")[0]


def _modules():
    import chronoflow
    return [chronoflow] + [importlib.import_module(f"chronoflow.{m}") for m in MODULES]


def public_functions() -> dict[tuple[str, str], Any]:
    """Every (module, name) binding of a public function of the seven modules."""
    found = {}
    for mod in _modules():
        for name, obj in vars(mod).items():
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__.rpartition(".")[2] in MODULES:
                found[(mod.__name__, name)] = obj
    return found


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.op = -1
        self.quad_nodes = 0
        self._saved: list[tuple[Any, str, Any]] = []

    def _wrap(self, fn):
        name = f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"
        keep_arg = name in KEEP_ARG
        keep_result = name in KEEP_RESULT
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.op)
            spans.append(span)
            stack.append(index)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if keep_arg:
                span.keep = args[0] if args else next(iter(kwargs.values()))
            elif keep_result:
                span.keep = result
            return result

        return traced

    def _count_nodes(self, fn):
        @functools.wraps(fn)
        def counted(a, b, n):
            self.quad_nodes += n
            return fn(a, b, n)

        return counted

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, Any] = {}
        for (mod_name, name), fn in public_functions().items():
            mod = importlib.import_module(mod_name)
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self._wrap(fn)
            self._saved.append((mod, name, fn))
            setattr(mod, name, wrappers[id(fn)])
        # chrono's quadrature nodes are counted at chrono's own binding
        chrono = importlib.import_module("chronoflow.chrono")
        self._saved.append((chrono, "gauss_legendre", chrono.gauss_legendre))
        chrono.gauss_legendre = self._count_nodes(chrono.gauss_legendre)

    def uninstall(self) -> None:
        for mod, name, fn in reversed(self._saved):
            setattr(mod, name, fn)
        self._saved.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.quad_nodes = 0


# ---------------------------------------------------------------------------
# Span arithmetic

def covered(start: float, end: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    reach_ = start
    for a, b in sorted((max(a, start), min(b, end)) for a, b in intervals):
        if b <= reach_:
            continue
        total += b - max(a, reach_)
        reach_ = b
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [s.end - s.start - covered(s.start, s.end, kids)
            for s, kids in zip(spans, children)]


def solve_steps(fm) -> int:
    """RK4 steps of one solve: ``step_count`` over each breakpoint-free piece."""
    if fm.t1 == fm.t0:
        return 0
    cuts = fm.field.breakpoints_between(fm.t0, fm.t1) if fm.solver.breakpoint_splitting else []
    edges = [fm.t0] + sorted(cuts, reverse=bool(fm.t1 < fm.t0)) + [fm.t1]
    return sum(fm.solver.step_count(a, b)
               for a, b in zip(edges, edges[1:]) if abs(b - a) > 1e-15)


def _outermost(spans: list[Span], names) -> list[int]:
    """Indices of spans named in ``names`` that have no such ancestor."""
    out = []
    for i, s in enumerate(spans):
        if s.name not in names:
            continue
        p = s.parent
        while p >= 0 and spans[p].name not in names:
            p = spans[p].parent
        if p < 0:
            out.append(i)
    return out


def _descendants(spans: list[Span], root: int) -> list[int]:
    """Spans under ``root``; children always come after their parent."""
    inside = {root}
    out = []
    for i in range(root + 1, len(spans)):
        if spans[i].parent in inside:
            inside.add(i)
            out.append(i)
    return out


def _motions_accepted(plan_result, motions) -> int:
    """Attempted motions whose segments appear, in order, in the final schedule."""
    segments = plan_result.schedule.segments
    pos = accepted = 0
    for motion in motions:
        n = len(motion.segments)
        if segments[pos:pos + n] == motion.segments:
            pos += n
            accepted += 1
    return accepted


def layer_metrics(spans: list[Span], quad_nodes: int, op_time: float) -> dict[str, float]:
    """Per-module self times and shares plus the work counts of one traced pass.

    ``op_time`` is the summed duration of the pass's operations.
    """
    selfs = self_times(spans)
    per_module = {m: 0.0 for m in MODULES}
    for s, t in zip(spans, selfs):
        per_module[s.module] += t
    out: dict[str, float] = {}
    for m in ("flow", "paramflow", "chrono", "fields", "liealg", "reach"):
        out[f"{m}.self_s"] = per_module[m]
        out[f"{m}.share"] = per_module[m] / op_time if op_time > 0 else 0.0

    solve_names = PLAIN_SOLVES + VARIATIONAL_SOLVES
    plain = var = solves = 0
    plain_s = var_s = 0.0
    for s, t in zip(spans, selfs):
        if s.name in solve_names:
            steps = solve_steps(s.keep)
            solves += 1
            if s.name in PLAIN_SOLVES:
                plain += steps
                plain_s += t
            else:
                var += steps
                var_s += t
    out["flow.steps"] = plain + var
    out["flow.variational_steps"] = var
    out["flow.solves"] = solves
    out["flow.steps_per_solve"] = (plain + var) / solves if solves else 0.0
    out["flow.plain_us_per_step"] = 1e6 * plain_s / plain if plain else 0.0
    out["flow.variational_us_per_step"] = 1e6 * var_s / var if var else 0.0
    out["fields.evals_computed"] = 4 * plain + 8 * var
    out["fields.lift_calls"] = sum(s.name == "fields.lift_map" for s in spans)
    out["chrono.quad_nodes"] = quad_nodes
    out["liealg.bracket_builds"] = sum(s.name == "liealg.lie_bracket_map" for s in spans)
    out["liealg.program_segments"] = sum(
        len(s.keep.segments) for s in spans if s.name == "liealg.run_program")

    def solves_under(root: int) -> int:
        return sum(spans[i].name in solve_names for i in _descendants(spans, root))

    pf_roots = _outermost(spans, {s.name for s in spans if s.module == "paramflow"})
    out["paramflow.solves_per_op"] = (
        sum(solves_under(i) for i in pf_roots) / len(pf_roots) if pf_roots else 0.0)

    plans = [i for i in _outermost(spans, {"reach.plan_reach"})
             if spans[i].keep is not None]
    iterations = attempted = accepted = plan_solves = 0
    for i in plans:
        under = _descendants(spans, i)
        motions = [spans[j].keep for j in under if spans[j].name == "reach.bracket_motion"]
        iterations += spans[i].keep.iterations
        attempted += len(motions)
        accepted += _motions_accepted(spans[i].keep, motions)
        plan_solves += sum(spans[j].name in solve_names for j in under)
    out["reach.plan_iterations"] = iterations
    out["reach.solves_per_plan"] = plan_solves / len(plans) if plans else 0.0
    out["reach.motion_accept_ratio"] = accepted / attempted if attempted else 0.0
    out["trace.self_sum_s"] = sum(selfs)
    return out
