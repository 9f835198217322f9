"""Seeded inputs, operation mixes and reference checks for the four workloads.

Every workload is an endless, deterministic sequence of operations.  The
sequence repeats a fixed *period* of operation kinds; the inputs of each
operation come from ``numpy.random.default_rng([seed, ...])`` keyed by the
period number and the slot, so one seed always yields one sequence.  The
quantities that set an operation's cost (end times, field shapes, where a
planner target lies) follow a fixed schedule or a seed-shifted
low-discrepancy sequence and are only jittered by the seed, so the cost of
a period hardly moves from seed to seed; start points, coefficients and the
coordinates of random monomials come from the seed alone.

Library functions are looked up on ``chronoflow`` (or its submodules) at call
time, never bound at import, so the boundary tracer sees every call.

An operation is one public library call or one CLI invocation.  Its check
runs after the timed (and traced) interval and returns ``None`` or a
failure message.  Tolerances are the acceptance suite's pinned ones.
"""
from __future__ import annotations

import io
import json
import math
import os
import shutil
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import chronoflow as cf
from chronoflow import chrono, cli

SOLVER = cf.FlowSolver(1000)
VARIATIONAL_SOLVER = cf.FlowSolver(500)
PLAN_SOLVER = cf.FlowSolver(400)
VOP_SOLVER = cf.FlowSolver(200)
PLAN_EPSILON = 1e-2
FD_EPSILON = 1e-4
PROBE_LEVELS = 8


@dataclass
class Op:
    """One operation: the timed call, its post-hoc check and its inputs."""

    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]
    spec: dict = field(default_factory=dict)


def rng_for(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed, *key])


def stratified(rng: np.random.Generator, stratum: int, strata: int,
               lo: float, hi: float) -> float:
    """A value in the middle fifth of the given stratum of [lo, hi].

    Cost follows these values, so the seed only jitters them a little.
    """
    return lo + (hi - lo) * (stratum + 0.4 + 0.2 * rng.uniform()) / strata


def signed(rng: np.random.Generator, lo: float, hi: float, size: int) -> np.ndarray:
    """Magnitudes in [lo, hi] with random signs."""
    return rng.uniform(lo, hi, size) * rng.choice([-1.0, 1.0], size)


def random_field(rng: np.random.Generator, dim: int, degree: int,
                 budget: float = 0.6) -> cf.VectorField:
    """A sparse autonomous polynomial field with three monomials per component.

    The monomials have total degrees ``degree``, ``max(1, degree - 1)`` and 1,
    each spread over as many distinct coordinates as the degree allows, so
    the field's evaluation cost depends on its shape only; the seed picks
    the coordinates and the coefficients.  Each component's absolute
    coefficients sum to ``budget``, so on the unit cube every component is
    at most ``budget`` in size.  Start points lie in [-0.3, 0.3]^dim and end
    times are at most 1, so a trajectory moves at most 0.6 per coordinate
    and never leaves [-0.9, 0.9]^dim: the flow stays bounded over the whole
    window.
    """
    comps = []
    for _ in range(dim):
        exps: list[tuple[int, ...]] = []
        for total in (degree, max(1, degree - 1), 1):
            while True:
                support = rng.choice(dim, size=min(total, dim), replace=False)
                e = [0] * dim
                for k in range(total):
                    e[support[k % len(support)]] += 1
                if tuple(e) not in exps:
                    exps.append(tuple(e))
                    break
        coefs = rng.uniform(-1.0, 1.0, len(exps))
        coefs *= budget / np.sum(np.abs(coefs))
        comps.append([(float(c), e) for c, e in zip(coefs, exps)])
    return cf.VectorField.autonomous(cf.PolynomialMap(dim, dim, comps))


def _close(label: str, got, want, tol: float) -> str | None:
    err = float(np.linalg.norm(np.asarray(got, dtype=float) - np.asarray(want, dtype=float)))
    return None if err <= tol else f"{label}: error {err:.3e} > {tol:g}"


def _slope_within(est, k: float, margin: float) -> str | None:
    if est.degenerate or abs(est.fitted_slope - k) > margin:
        return f"slope {est.fitted_slope:.3f} not within {k} +/- {margin}"
    return None


def _slope_above(est, k: float) -> str | None:
    if est.degenerate or est.fitted_slope > k:
        return None
    return f"slope {est.fitted_slope:.3f} <= {k}"


class Workload:
    """Base: ``period`` lists (kind, slot) pairs; ``op(i)`` builds the i-th op."""

    name = ""
    period: tuple[tuple[str, int], ...] = ()

    def __init__(self, seed: int):
        self.seed = seed
        self._bundles: dict[tuple, dict] = {}

    def op(self, i: int) -> Op:
        p, r = divmod(i, len(self.period))
        kind, slot = self.period[r]
        return getattr(self, "_" + kind)(p, slot, rng_for(self.seed, p, r))

    def warmup_indices(self) -> list[int]:
        """Index of the first operation of each kind."""
        seen: dict[str, int] = {}
        for i, (kind, _) in enumerate(self.period):
            seen.setdefault(kind, i)
        return sorted(seen.values())

    def bundle(self, key: tuple, make: Callable[[], dict]) -> dict:
        """Inputs shared by the operations of one period (pairs checked together)."""
        if key not in self._bundles:
            self._bundles[key] = make()
        return self._bundles[key]

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# variational

def _heis_closed_form(index: int, q: np.ndarray, t: float):
    """Endpoint and pushforward of the Heisenberg field V1 (index 0) or V2."""
    x, y, z = q
    if index == 0:
        return np.array([x + t, y, z - 0.5 * y * t]), np.array(
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, -0.5 * t, 1.0]])
    return np.array([x, y + t, z + 0.5 * x * t]), np.array(
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.5 * t, 0.0, 1.0]])


class Variational(Workload):
    """Long variational RK4 solves that re-integrate one trajectory.

    A faster variational stepper or one trajectory per operation shows here;
    brackets and the planner barely run.
    """

    name = "variational"
    # pd = param_derivative pair ("in" then "out") on pair j; j runs over the
    # four catalog pairs and three random pairs, cheapest first, once per
    # period.  The pairs are 70% of the operations and hold both the median
    # and the tail.
    period = (
        ("pd_in", 0), ("pd_out", 0), ("fwp", 0), ("pd_in", 1), ("pd_out", 1),
        ("adjoint", 0), ("pd_in", 2), ("pd_out", 2), ("pinv", 0),
        ("pd_in", 3), ("pd_out", 3), ("fwp", 1), ("pd_in", 4), ("pd_out", 4),
        ("adjoint", 1), ("pd_in", 5), ("pd_out", 5), ("vop", 0),
        ("pd_in", 6), ("pd_out", 6),
    )
    RANDOM_SHAPES = ((2, 3), (4, 2), (6, 3))  # (dimension, degree)

    def __init__(self, seed: int):
        super().__init__(seed)
        v1, v2 = cf.heisenberg_fields()
        self.pairs = [
            (cf.rotation2d(), cf.constant_field([1.0, 0.0])),
            (v1, v2),
            cf.unicycle_fields(),
            cf.brockett_fields(),
        ]
        pool = rng_for(seed, 1_000_000)
        for dim, degree in self.RANDOM_SHAPES:
            self.pairs.append((random_field(pool, dim, degree),
                               random_field(pool, dim, degree)))

    def _pd_bundle(self, p: int, j: int) -> dict:
        def make() -> dict:
            rng = rng_for(self.seed, 2, p, j)
            v, w = self.pairs[j]
            # the costlier the pair, the shorter its window: every pair's
            # operations then take about as long, so the band is dense
            t = stratified(rng, 6 - j, 7, 0.3, 1.0)
            q = rng.uniform(-0.3, 0.3, v.dim)
            return {"system": cf.PerturbedSystem(v, w, 0.0, t), "q": q, "t": t}
        return self.bundle(("pd", p, j), make)

    def _pd(self, mode: str, p: int, j: int) -> Op:
        b = self._pd_bundle(p, j)
        system, q = b["system"], b["q"]

        def check(value) -> str | None:
            if "fd" not in b:
                b["fd"] = cf.fd_param_derivative(system, q, FD_EPSILON, VARIATIONAL_SOLVER)
            oracle = b["fd"]
            rel = float(np.linalg.norm(value - oracle)) / (1.0 + float(np.linalg.norm(oracle)))
            if rel > 1e-4:
                return f"{mode} vs finite difference: relative error {rel:.3e} > 1e-4"
            b[mode] = value
            if mode == "out" and "in" in b:
                return _close("in vs out", b["in"], value, 1e-6)
            return None

        return Op("param_derivative_" + mode,
                  lambda: cf.param_derivative(system, q, mode, VARIATIONAL_SOLVER), check,
                  {"pair": j, "t": b["t"], "q": q.tolist()})

    def _pd_in(self, p, j, rng):
        return self._pd("in", p, j)

    def _pd_out(self, p, j, rng):
        return self._pd("out", p, j)

    def _fwp(self, p, slot, rng):
        which = (2 * p + slot) % 3  # rotation2d, Heisenberg V1, Heisenberg V2
        t = stratified(rng, slot, 2, 0.5, 1.0)
        if which == 0:
            q = signed(rng, 0.2, 1.0, 2)
            c, s = math.cos(t), math.sin(t)
            rot = np.array([[c, -s], [s, c]])
            field_, want = cf.rotation2d(), (rot @ q, rot)
        else:
            q = rng.uniform(-0.5, 0.5, 3)
            field_ = cf.heisenberg_fields()[which - 1]
            want = _heis_closed_form(which - 1, q, t)
        fm = cf.FlowMap(field_, 0.0, t, VARIATIONAL_SOLVER)

        def check(value) -> str | None:
            return (_close("endpoint vs closed form", value[0], want[0], 1e-8)
                    or _close("pushforward vs closed form", value[1], want[1], 1e-8))

        return Op("flow_with_pushforward", lambda: cf.flow_with_pushforward(fm, q),
                  check, {"field": which, "t": t, "q": q.tolist()})

    def _adjoint(self, p, slot, rng):
        j = (2 * p + slot) % len(self.pairs)
        v, w = self.pairs[j]
        q = rng.uniform(-0.3, 0.3, v.dim)
        return Op("adjoint_check", lambda: cf.adjoint_check(v, w, q, 0.3, VARIATIONAL_SOLVER),
                  lambda r: None if r <= 1e-4 else f"residual {r:.3e} > 1e-4",
                  {"pair": j, "q": q.tolist()})

    def _pinv(self, p, slot, rng):
        v, w = self.pairs[1 if p % 2 == 0 else 3]  # Heisenberg, Brockett
        q = rng.uniform(-0.2, 0.2, 3)
        fm = cf.FlowMap(v, 0.0, 0.3, VARIATIONAL_SOLVER)
        return Op("pushforward_invariance_check",
                  lambda: cf.pushforward_invariance_check(fm, v, w, q),
                  lambda r: None if r <= 1e-5 else f"discrepancy {r:.3e} > 1e-5",
                  {"pair": 1 if p % 2 == 0 else 3, "q": q.tolist()})

    def _vop(self, p, slot, rng):
        v, w = self.pairs[1 if p % 2 == 0 else 3]
        q = rng.uniform(-0.2, 0.2, 3)
        return Op("variation_of_parameters_check",
                  lambda: cf.variation_of_parameters_check(v, w, q, 0.4, VOP_SOLVER),
                  lambda r: None if r <= 1e-5 else f"discrepancy {r:.3e} > 1e-5",
                  {"pair": 1 if p % 2 == 0 else 3, "q": q.tolist()})


# ---------------------------------------------------------------------------
# asymptotics

def _shear_pair():
    return [cf.constant_field([1.0, 0.0]),
            cf.VectorField.autonomous(cf.PolynomialMap(2, 2, [[], [(1.0, (2, 0))]]))]


class Asymptotics(Workload):
    """Plain flow solves, exact lift construction, nested quadrature.

    The only workload whose solves split at time breakpoints.
    """

    name = "asymptotics"
    # pw_* slots are 10 * (piecewise field of the period) + k.  The three
    # direct remainders (about 230 ms each) are the slowest band and hold
    # the tail; the rest (10 to 60 ms) hold the median.
    period = (
        ("probe_rot", 1), ("probe_heis", 1), ("pw_diff", 1), ("pw_direct", 1),
        ("basym_shear", 2), ("probe_rot", 2), ("probe_heis", 2), ("pw_diff", 2),
        ("invexp", 0), ("basym_heis", 2), ("pw_diff", 11), ("pw_direct", 11),
        ("probe_rot", 3), ("probe_heis", 3), ("pw_integral", 0), ("basym_shear", 3),
        ("invexp", 1), ("basym_heis", 3), ("pw_diff", 21), ("pw_direct", 21),
    )

    def _probe(self, field_, obs, q, k: int, label: str) -> Op:
        def sample(t: float) -> float:
            return cf.remainder_eval(field_, obs, q, 0.0, t, k, SOLVER).remainder_norm

        return Op(f"order_probe_k{k}", lambda: cf.order_probe(sample, 0.4, PROBE_LEVELS),
                  lambda est: _slope_within(est, k, 0.2),
                  {"system": label, "k": k, "q": q.tolist()})

    def _probe_rot(self, p, k, rng):
        q = signed(rng, 0.6, 1.2, 2)
        return self._probe(cf.rotation2d(), cf.Observable.coordinate(2, 0), q, k,
                           "rotation2d")

    def _probe_heis(self, p, k, rng):
        q = np.concatenate([rng.uniform(-0.5, 0.5, 1), signed(rng, 0.8, 1.2, 2)])
        cube = cf.Observable(cf.PolynomialMap(3, 1, [[(1.0, (0, 0, 3))]]))
        return self._probe(cf.heisenberg_fields()[0], cube, q, k, "heisenberg")

    def _pw_bundle(self, p: int, which: int) -> dict:
        """Rotation at speed omega on [0, b), constant drift c on [b, 1.5]."""
        def make() -> dict:
            rng = rng_for(self.seed, 3, p, which)
            omega = rng.uniform(0.8, 1.2)
            b = rng.uniform(0.4, 0.6)
            drift = signed(rng, 0.5, 1.0, 2)
            q = signed(rng, 0.5, 1.0, 2)
            t = rng.uniform(0.9, 1.1)
            field_ = cf.VectorField.piecewise([
                (0.0, b, cf.PolynomialMap.linear([[0.0, -omega], [omega, 0.0]])),
                (b, 1.5, cf.PolynomialMap.constants(drift, 2)),
            ])
            c, s = math.cos(omega * b), math.sin(omega * b)
            end = np.array([[c, -s], [s, c]]) @ q + (t - b) * drift
            first = b * omega * np.array([-q[1], q[0]]) + (t - b) * drift
            exact = {1: float(np.linalg.norm(end - q)),
                     2: float(np.linalg.norm(end - q - first))}
            return {"field": field_, "q": q, "t": t, "exact": exact,
                    "spec": {"omega": omega, "b": b, "drift": drift.tolist(),
                             "q": q.tolist(), "t": t}}
        return self.bundle(("pw", p, which), make)

    def _pw_remainder(self, p: int, slot: int, method: str) -> Op:
        which, k = divmod(slot, 10)
        b = self._pw_bundle(p, which)
        phi = cf.Observable.identity(2)

        def check(report) -> str | None:
            got = report.remainder_norm
            bad = _close(f"{method} k={k} vs closed form", got, b["exact"][k], 1e-9)
            if bad:
                return bad
            b[(method, k)] = got
            other = b.get(("difference", k)) if method == "direct" else None
            return None if other is None else _close("direct vs difference", got, other, 1e-8)

        return Op(f"remainder_{method}_k{k}",
                  lambda: cf.remainder_eval(b["field"], phi, b["q"], 0.0, b["t"], k,
                                            SOLVER, method=method),
                  check, dict(b["spec"], k=k))

    def _pw_diff(self, p, slot, rng):
        return self._pw_remainder(p, slot, "difference")

    def _pw_direct(self, p, slot, rng):
        return self._pw_remainder(p, slot, "direct")

    def _pw_integral(self, p, slot, rng):
        b = self._pw_bundle(p, slot // 10)
        phi = cf.Observable.identity(2)
        return Op("integral_equation_residual",
                  lambda: cf.integral_equation_residual(b["field"], phi, b["q"], 0.0,
                                                        b["t"], SOLVER),
                  lambda r: None if r <= 1e-7 else f"residual {r:.3e} > 1e-7",
                  b["spec"])

    def _basym_shear(self, p, degree, rng):
        q = np.array([float(signed(rng, 0.5, 1.5, 1)[0]), rng.uniform(-1.0, 1.0)])
        expr = cf.BracketExpression.parse("[V1,V2]" if degree == 2 else "[[V1,V2],V1]")
        fields = _shear_pair()
        if degree == 2:
            check = lambda est: _slope_within(est, 3.0, 0.2)
        else:
            check = lambda est: _slope_above(est, 3.5)
        return Op(f"bracket_asymptotics_d{degree}",
                  lambda: cf.bracket_asymptotics_check(expr, fields, q, 0.2, PROBE_LEVELS,
                                                       SOLVER),
                  check, {"system": "shear", "degree": degree, "q": q.tolist()})

    def _basym_heis(self, p, degree, rng):
        q = rng.uniform(-0.5, 0.5, 3)
        expr = cf.BracketExpression.parse("[V1,V2]" if degree == 2 else "[[V1,V2],V1]")
        fields = list(cf.heisenberg_fields())

        def check(est) -> str | None:
            if degree == 2:  # the Heisenberg square: q + t^2 e3 exactly
                worst = float(np.max(est.norms))
                return None if worst <= 1e-12 else f"square residual {worst:.3e} > 1e-12"
            return _slope_above(est, 3.5)

        return Op(f"bracket_asymptotics_d{degree}",
                  lambda: cf.bracket_asymptotics_check(expr, fields, q, 0.2, PROBE_LEVELS,
                                                       SOLVER),
                  check, {"system": "heisenberg", "degree": degree, "q": q.tolist()})

    def _invexp(self, p, slot, rng):
        if slot == 0:
            field_, label = cf.rotation2d(), "rotation2d"
        else:
            field_, label = cf.linear_field([[0.1, 0.5], [-0.5, 0.2]]), "linear"
        q = signed(rng, 0.5, 1.5, 2)
        return Op("inverse_expansion_check",
                  lambda: cf.inverse_expansion_check(field_, q, 0.4, PROBE_LEVELS, SOLVER),
                  lambda est: _slope_above(est, 1.8 - 1e-12),
                  {"system": label, "q": q.tolist()})


# ---------------------------------------------------------------------------
# planner

PLANNER_SYSTEMS = (("heisenberg", 2), ("brockett", 2), ("unicycle", 3))


def radical_inverse(i: int, base: int) -> float:
    out, scale = 0.0, 1.0 / base
    while i:
        i, digit = divmod(i, base)
        out += digit * scale
        scale /= base
    return out


def ball_point(shift: np.ndarray, i: int, radius: float) -> np.ndarray:
    """Point i of a randomly shifted Halton sequence mapped onto a 3-d ball.

    A plan's cost depends strongly on where its target lies; a low-discrepancy
    sequence gives every seed nearly the same spread of targets, while the
    seed's shift still moves every target.
    """
    u, v, w = ((radical_inverse(i + 1, b) + s) % 1.0 for b, s in zip((2, 3, 5), shift))
    cos_theta, phi = 2.0 * v - 1.0, 2.0 * math.pi * w
    sin_theta = math.sqrt(max(0.0, 1.0 - cos_theta * cos_theta))
    direction = np.array([sin_theta * math.cos(phi), sin_theta * math.sin(phi), cos_theta])
    return radius * u ** (1.0 / 3.0) * direction


class Planner(Workload):
    """Many short signed segments, so per-solve cost outweighs per-step cost.

    Exact bracket fields are rebuilt on every planner iteration, so extra
    set-up per solve or a bracket cache shows here and nowhere else.
    """

    name = "planner"
    period = (("plan", 0), ("rank", 0), ("plan", 1), ("plan", 2))

    def __init__(self, seed: int):
        super().__init__(seed)
        self.systems = [cf.AffineControlSystem.of(cf.builtin_system(name))
                        for name, _ in PLANNER_SYSTEMS]
        self.shifts = rng_for(seed, 5).uniform(size=(len(PLANNER_SYSTEMS), 3))

    def _plan(self, p, slot, rng):
        system = self.systems[slot]
        degree = PLANNER_SYSTEMS[slot][1]
        target = ball_point(self.shifts[slot], p, 0.1)
        q0 = np.zeros(3)

        def check(result) -> str | None:
            if result.residual > PLAN_EPSILON:
                return f"residual {result.residual:.3e} > {PLAN_EPSILON}"
            replay = cf.simulate_schedule(system, q0, result.schedule, PLAN_SOLVER)
            return _close("replay", replay, result.endpoint, 1e-9)

        return Op("plan_reach",
                  lambda: cf.plan_reach(system, q0, target, PLAN_EPSILON, degree, 200,
                                        PLAN_SOLVER),
                  check, {"system": PLANNER_SYSTEMS[slot][0], "target": target.tolist()})

    def _rank(self, p, slot, rng):
        which = p % 3
        system = self.systems[which]
        q = rng.uniform(-1.0, 1.0, 3)

        def check(report) -> str | None:
            if report.numerical_rank != system.dim:
                return f"bracket rank {report.numerical_rank} != dim {system.dim}"
            return None

        return Op("bracket_rank", lambda: cf.bracket_rank(system, q, 4), check,
                  {"system": PLANNER_SYSTEMS[which][0], "q": q.tolist()})


# ---------------------------------------------------------------------------
# cli

def _fmt_point(q) -> str:
    return ",".join(repr(float(x)) for x in q)


@dataclass
class CliResult:
    """Exit code and output of one invocation: text, or the file holding it."""

    returncode: int
    stdout: str | Path
    stderr: str | Path
    maxrss_kb: int = 0

    @staticmethod
    def text(out: str | Path) -> str:
        return out.read_text() if isinstance(out, Path) else out


def spawn_cli(argv: list[str], stdout: Path, stderr: Path) -> CliResult:
    """Run ``python -m chronoflow argv`` to completion and return its rusage.

    ``posix_spawn`` plus ``wait4`` gives the child's own peak resident set.
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    pid = os.posix_spawn(
        sys.executable, [sys.executable, "-m", "chronoflow", *argv], os.environ,
        file_actions=[(os.POSIX_SPAWN_OPEN, 1, str(stdout), flags, 0o644),
                      (os.POSIX_SPAWN_OPEN, 2, str(stderr), flags, 0o644)])
    _, status, usage = os.wait4(pid, 0)
    return CliResult(os.waitstatus_to_exitcode(status), stdout, stderr, usage.ru_maxrss)


def call_cli_in_process(argv: list[str]) -> CliResult:
    """Run ``chronoflow.cli.main`` in this process and capture its output."""
    with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()) as err:
        code = cli.main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


def _same(label: str, got, want) -> str | None:
    if np.array_equal(np.asarray(got, dtype=float), np.asarray(want, dtype=float)):
        return None
    return f"{label}: CLI output differs from the library result"


class Cli(Workload):
    """Cold ``python -m chronoflow`` invocations, one at a time.

    The only workload that pays interpreter, numpy and chronoflow import on
    every operation, so work moved into import shows here.
    """

    name = "cli"
    period = (("flow", 0), ("volterra", 0), ("order_probe", 0), ("rank", 0),
              ("plan", 0), ("simulate", 0), ("param_deriv", 0))
    SYSTEMS = ("heisenberg", "brockett", "unicycle")

    def __init__(self, seed: int, workdir: Path, in_process: bool = False):
        super().__init__(seed)
        self.in_process = in_process
        self.tmp = Path(tempfile.mkdtemp(prefix="cli-", dir=workdir))
        self.max_child_rss_kb = 0

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def _op(self, kind: str, index: int, argv: list[str],
            reference: Callable[[Any], str | None]) -> Op:
        out = self.tmp / f"{index}.out"
        err = self.tmp / f"{index}.err"

        def call() -> CliResult:
            if self.in_process:
                return call_cli_in_process(argv)
            result = spawn_cli(argv, out, err)
            self.max_child_rss_kb = max(self.max_child_rss_kb, result.maxrss_kb)
            return result

        def check(result: CliResult) -> str | None:
            if result.returncode != 0:
                return f"exit {result.returncode}: {CliResult.text(result.stderr).strip()}"
            return reference(json.loads(CliResult.text(result.stdout)))

        return Op("cli_" + kind, call, check, {"argv": argv})

    def _index(self, p: int, kind: str) -> int:
        return p * len(self.period) + [k for k, _ in self.period].index(kind)

    def _flow(self, p, slot, rng):
        name = ("heisenberg", "rotation2d")[p % 2]
        field_ = cf.builtin_system(name)[0]
        q = rng.uniform(-0.5, 0.5, field_.dim)
        t = stratified(rng, p % 2, 2, 0.5, 1.0)

        def reference(doc) -> str | None:
            end, mat = cf.flow_with_pushforward(cf.FlowMap(field_, 0.0, t, SOLVER), q)
            return _same("endpoint", doc["endpoint"], end) or \
                _same("pushforward", doc["pushforward"], mat)

        argv = ["flow", "--system", name, "--t", repr(t), "--q=" + _fmt_point(q)]
        return self._op("flow", self._index(p, "flow"), argv, reference)

    def _volterra(self, p, slot, rng):
        q = signed(rng, 0.6, 1.2, 2)
        k = 1 + p % 3
        field_, obs = cf.rotation2d(), cf.Observable.coordinate(2, 0)
        t_values = [0.4 * (j + 1) / 8 for j in range(8)]

        def reference(doc) -> str | None:
            rows = chrono.remainder_table(field_, obs, q, 0.0, k, t_values, SOLVER)
            return _same("remainder rows", [r["remainder_norm"] for r in doc["rows"]],
                         [r.remainder_norm for r in rows])

        argv = ["volterra", "--system", "rotation2d", "--k", str(k), "--obs-coord", "1",
                "--t-max", "0.4", "--q=" + _fmt_point(q)]
        return self._op("volterra", self._index(p, "volterra"), argv, reference)

    def _order_probe(self, p, slot, rng):
        q = signed(rng, 0.6, 1.2, 2)
        k = 1 + p % 3
        field_, obs = cf.rotation2d(), cf.Observable.coordinate(2, 0)

        def reference(doc) -> str | None:
            est = cf.order_probe(
                lambda t: cf.remainder_eval(field_, obs, q, 0.0, t, k, SOLVER).remainder_norm,
                0.4, PROBE_LEVELS)
            if doc["slope"] != est.fitted_slope:
                return "slope: CLI output differs from the library result"
            return _slope_within(est, k, 0.2)

        argv = ["order-probe", "--system", "rotation2d", "--residual", "remainder",
                "--k", str(k), "--obs-coord", "1", "--q=" + _fmt_point(q), "--t-max", "0.4"]
        return self._op("order_probe", self._index(p, "order_probe"), argv, reference)

    def _rank(self, p, slot, rng):
        name = self.SYSTEMS[p % 3]
        q = rng.uniform(-1.0, 1.0, 3)

        def reference(doc) -> str | None:
            system = cf.AffineControlSystem.of(cf.builtin_system(name))
            report = cf.bracket_rank(system, q, 4)
            if doc != report.to_json():
                return "rank report: CLI output differs from the library result"
            return None if report.numerical_rank == 3 else "bracket rank below 3"

        argv = ["rank", "--system", name, "--q=" + _fmt_point(q), "--max-degree", "4"]
        return self._op("rank", self._index(p, "rank"), argv, reference)

    def _plan_inputs(self, p: int) -> dict:
        def make() -> dict:
            shift = rng_for(self.seed, 4).uniform(size=3)
            return {"target": ball_point(shift, p, 0.1), "name": "heisenberg",
                    "file": self.tmp / f"plan-{p}.json"}
        return self.bundle(("plan", p), make)

    def _plan(self, p, slot, rng):
        b = self._plan_inputs(p)
        system = cf.AffineControlSystem.of(cf.builtin_system(b["name"]))
        target = b["target"]

        def reference(doc) -> str | None:
            result = cf.plan_reach(system, np.zeros(3), target, PLAN_EPSILON, 2, 200,
                                   PLAN_SOLVER)
            if doc != result.to_json():
                return "plan: CLI output differs from the library result"
            b["endpoint"] = result.endpoint
            return None if result.residual <= PLAN_EPSILON else "plan residual above epsilon"

        argv = ["plan", "--system", b["name"], "--q0", "0,0,0", "--target=" + _fmt_point(target), "--epsilon", repr(PLAN_EPSILON), "--steps-per-unit",
                "400", "--output", str(b["file"])]
        op = self._op("plan", self._index(p, "plan"), argv, reference)
        # the plan goes to a file; its check reads that file instead of stdout
        inner = op.check
        op.check = lambda r: inner(CliResult(r.returncode, b["file"], r.stderr))
        return op

    def _simulate(self, p, slot, rng):
        b = self._plan_inputs(p)
        path = b["file"]
        system = cf.AffineControlSystem.of(cf.builtin_system(b["name"]))

        def reference(doc) -> str | None:
            sched = cf.ControlSchedule.from_json(json.loads(path.read_text())["schedule"])
            end = cf.simulate_schedule(system, np.zeros(3), sched, PLAN_SOLVER)
            bad = _same("endpoint", doc["endpoint"], end)
            if bad or "endpoint" not in b:
                return bad
            return _close("replay vs plan endpoint", end, b["endpoint"], 1e-9)

        argv = ["simulate", "--system", b["name"], "--q0", "0,0,0", "--schedule",
                str(path), "--steps-per-unit", "400"]
        return self._op("simulate", self._index(p, "simulate"), argv, reference)

    def _param_deriv(self, p, slot, rng):
        q = rng.uniform(-0.3, 0.3, 3)
        t = stratified(rng, p % 3, 3, 0.03, 0.12)
        v, w = cf.heisenberg_fields()

        def reference(doc) -> str | None:
            system = cf.PerturbedSystem(v, w, 0.0, t)
            inner = cf.param_derivative(system, q, "in", SOLVER)
            outer = cf.param_derivative(system, q, "out", SOLVER)
            oracle = cf.fd_param_derivative(system, q, FD_EPSILON, SOLVER)
            return (_same("in", doc["in_formula"], inner)
                    or _same("out", doc["out_formula"], outer)
                    or _same("finite difference", doc["finite_difference"], oracle)
                    or _close("in vs out", inner, outer, 1e-6))

        argv = ["param-deriv", "--system", "heisenberg", "--t", repr(t),
                "--q=" + _fmt_point(q)]
        return self._op("param_deriv", self._index(p, "param_deriv"), argv, reference)


WORKLOADS = {w.name: w for w in (Variational, Asymptotics, Planner, Cli)}


def build(name: str, seed: int, workdir: Path, in_process: bool = False) -> Workload:
    """The named workload for one seed; ``workdir`` holds the CLI's files."""
    cls = WORKLOADS[name]
    if cls is Cli:
        return Cli(seed, workdir, in_process)
    return cls(seed)
