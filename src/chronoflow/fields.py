"""Polynomial vector fields, observables, and operator lifts on a single chart.

Everything here is exact: fields and observables are stored as polynomial
maps whose evaluations and derivatives of every order are closed-form, so
downstream asymptotic checks carry no differentiation error.  Time
dependence is piecewise: a field is a finite list of polynomial pieces over
contiguous time intervals, and an autonomous field is the one piece over
(-inf, inf).

All values are immutable after construction and every operation is a pure
function of its inputs, so concurrent use needs no synchronization.  Equal
term tables share one compiled evaluator and one variational RK4 loop, and
maps of one dimension the plain and the time-dependent RK4 loop, per process
(``_compiled``, up to ``COMPILE_MEMO_SIZE`` entries); the memo is thread-safe,
and a race compiles a table twice.  A variational loop computes the values of a
step that no step changes (constant slopes, the matrix slopes of constant
Jacobian entries, their increments) once, in a prologue before its first step.
"""
from __future__ import annotations

import json
import math
import numbers
import re
import sys
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache, partial
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import BlowUpError, DefectExhaustedError, DimensionError, TimeWindowError

Exps = tuple[int, ...]
TermDict = dict[Exps, float]

DEFAULT_SMOOTHNESS_ORDER = 8
DEFAULT_OBSERVABLE_ORDER = 8
# longest + chain in generated source; CPython 3.11 fails to compile ~3,000
SUM_CHUNK = 256
# distinct term tables whose compiled code a process keeps; a benchmark workload
# meets 10 to about 320 of them in 1,000 operations
COMPILE_MEMO_SIZE = 1024
# a name in generated source; a float literal's exponent (1e-05) reads as e, which no line sets
_NAME = re.compile(r"[A-Za-z_]\w*")


def as_point(q, dim: int | None = None) -> np.ndarray:
    """Validate a chart point: 1-d, finite, optionally of a given length."""
    arr = np.asarray(q, dtype=float)
    if arr.ndim != 1:
        raise DimensionError(f"chart point must be a 1-d vector, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise DimensionError(f"chart point has length {arr.shape[0]}, expected {dim}")
    if not np.isfinite(arr).all():
        raise ValueError("chart point has non-finite entries")
    return arr


def vector_norm(v) -> float:
    """Euclidean norm, finite wherever the true norm is: only where the squares of
    ``np.linalg.norm`` overflow is ``v`` scaled by its largest entry first."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(v))
    if norm == math.inf and np.isfinite(v).all():
        scale = float(np.max(np.abs(v)))
        norm = scale * float(np.linalg.norm(v / scale))
    return norm


def as_int(value, what: str, least: int | None = None) -> int:
    """``value`` as an int of at least ``least``; ValueError when it is below, not
    integral (never truncates), a string or a bool, which would pass as 1 or 0."""
    try:
        integral = not isinstance(value, bool) and int(value) == value
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{what} must be >= {least}, got {int(value)}")
    return int(value)


def as_float(value, what: str) -> float:
    """``value`` as a float; ValueError when it is no real number (a string, bytes, an
    array), a bool, which would pass as 1.0 or 0.0, or an int too large for a float."""
    try:
        if isinstance(value, numbers.Real) and not isinstance(value, bool):
            return float(value)
    except OverflowError:
        pass
    raise ValueError(f"{what} must be a number, got {value!r}")


def _positive(value, what: str) -> float:
    """``value`` as a finite float above 0; ValueError otherwise, and where ``as_float`` raises."""
    try:
        if 0.0 < (x := as_float(value, what)) < math.inf:
            return x
    except ValueError:
        pass
    raise ValueError(f"{what} must be finite and positive, got {value!r}")


def _finite_times(*times: float) -> None:
    """ValueError unless every flow time is finite."""
    if not all(map(math.isfinite, times)):
        raise ValueError(f"flow times must be finite, got [{', '.join(map(str, times))}]")


def _accumulate(terms: Iterable[tuple[Exps, float]]) -> TermDict:
    """Sum coefficients per exponent tuple, dropping the ones that cancel.

    Every term table is built by this one loop, so it alone rejects
    non-finite coefficients (products and sums of finite ones can overflow).
    A cancelled key is popped and reinserted at the end if it comes back:
    dict order fixes the summation order of later products, so results
    depend on it bit for bit.
    """
    out: TermDict = {}
    for e, c in terms:
        c = out.get(e, 0.0) + c
        if c == 0.0:
            out.pop(e, None)
        else:
            out[e] = c
    for e, c in out.items():
        if not math.isfinite(c):
            raise ValueError(f"non-finite coefficient {c!r} for exponents {e}")
    return out


def _normalize_component(terms: Iterable[tuple[float, Sequence[int]]], dim_in: int) -> TermDict:
    checked = []
    for coef, exps in terms:
        exps = tuple(as_int(e, "exponent") for e in exps)
        if len(exps) != dim_in:
            raise DimensionError(
                f"exponent tuple {exps} has length {len(exps)}, expected {dim_in}"
            )
        if any(not 0 <= e <= sys.float_info.max for e in exps):  # numpy's ** takes e as a float
            raise ValueError(f"exponent out of range in {exps}")
        checked.append((exps, float(coef)))
    return _accumulate(checked)


def _mul_terms(a: TermDict, b: TermDict) -> TermDict:
    return _accumulate([(tuple(x + y for x, y in zip(ea, eb)), ca * cb)
                        for ea, ca in a.items() for eb, cb in b.items()])


def _diff_terms(a: TermDict, var: int) -> TermDict:
    return _accumulate([(exps[:var] + (exps[var] - 1,) + exps[var + 1:], coef * exps[var])
                        for exps, coef in a.items() if exps[var]])


def _add_terms(a: TermDict, b: TermDict, sa: float = 1.0, sb: float = 1.0) -> TermDict:
    # float(): a numpy scale factor must not leak into tables the evaluator reprs
    return _accumulate([(exps, s * coef) for src, s in ((a, float(sa)), (b, float(sb)))
                        for exps, coef in src.items()])


def _terms(table: TermDict, names: Sequence[str]) -> list[str]:
    """Python source of each term of one term table over the variables ``names``.

    Terms go in sorted exponent order, each coefficient first and its
    factors left to right.
    """
    terms = []
    for exps in sorted(table):
        factors = [repr(table[exps])]
        for var, e in enumerate(exps):
            if e == 1:
                factors.append(names[var])
            elif e > 1:
                factors.append(f"{names[var]}**{e}")
        terms.append("*".join(factors))
    return terms


def _sum_lines(target: str, operands: Sequence[str]) -> list[str]:
    """Statements that set ``target`` to the left-to-right sum of ``operands``.

    CPython's compiler recurses once per operand of a ``+`` chain and gives
    up near 3,000 of them, so a sum longer than ``SUM_CHUNK`` goes on in
    statements ``target = target + ...``: the additions keep their order,
    so the result keeps its bits, and a shorter sum is one statement.
    """
    lines = [f"{target} = {' + '.join(operands[:SUM_CHUNK])}"]
    for i in range(SUM_CHUNK, len(operands), SUM_CHUNK):
        lines.append(f"{target} = {target} + {' + '.join(operands[i:i + SUM_CHUNK])}")
    return lines


def _rerun_overflowing(evaluate, x: Sequence[float]) -> list[float]:
    """``evaluate`` again on numpy float64 scalars, with numpy's warnings silenced.

    Python's ``float ** int`` raises OverflowError where numpy's ``**`` returns
    inf, which the flow's blow-up test reports; numpy's raises only for an
    exponent beyond the float range, which a lift of huge exponents can build.
    """
    if all(type(v) is np.float64 for v in x):  # this is the rerun: do not recurse
        raise ValueError("an exponent is beyond the float range")
    with np.errstate(over="ignore", invalid="ignore"):
        return [float(v) for v in evaluate([np.float64(v) for v in x])]


def _compile_evaluator(components: tuple[TermDict, ...], dim_in: int):
    """Generate a specialized evaluation function for the term table.

    Flow integration evaluates the same small polynomials millions of
    times; a compiled expression avoids per-call array bookkeeping.  The
    function maps a list of Python floats to a list of floats: the same
    IEEE operations in the same order as on numpy float64 scalars, so the
    same bits.  Only ``**`` differs, and an overflowing power reruns the
    function on numpy scalars (``_rerun_overflowing``).
    """
    names = [f"x{var}" for var in range(dim_in)]
    used = {var for comp in components for exps in comp for var in range(dim_in)
            if exps[var] > 0}
    powers = any(e > 1 for comp in components for exps in comp for e in exps)
    sums, values = [], []
    for i, comp in enumerate(components):
        terms = _terms(comp, names)
        if len(terms) > SUM_CHUNK:
            sums += _sum_lines(f"s{i}", terms)
            terms = [f"s{i}"]
        values.append(" + ".join(terms) or "0.0")
    body = sums + [f"return [{', '.join(values)}]"]
    lines = ["def _eval(x):"]
    if used:
        unpack = ", ".join(names[var] if var in used else "_" for var in range(dim_in))
        lines.append(f"    {unpack}, = x")
    if powers:
        lines += ["    try:", *("        " + line for line in body), "    except OverflowError:",
                  "        return _rerun_overflowing(_eval, x)"]
    else:
        lines += ["    " + line for line in body]
    namespace: dict = {"_rerun_overflowing": _rerun_overflowing}
    exec("\n".join(lines), namespace)
    return namespace["_eval"]


def _rk4_step(n: int, stage: Callable[[int, str | None, list[str]], list[str]],
              updates: Sequence[str] = (), finite: Sequence[str] = ()) -> list[str]:
    """One RK4 step on y0..y{n-1} for every generated loop: stage s (0 to 3) is the lines
    ``stage(s, scale, point)`` for the point y_k, then y_k + scale * k<s>_k; then
    ``updates``, the state update, and BlowUpError unless every |y_k| <= threshold
    (false for NaN) and every name in ``finite`` is finite."""
    lines = []
    for s, scale in enumerate((None, "half", "half", "h")):
        lines += stage(s, scale, [f"y{k} + {scale} * k{s}_{k}" if s else f"y{k}"
                                  for k in range(n)])
    lines += updates
    lines += [f"y{k} = y{k} + sixth * (k1_{k} + 2.0 * k2_{k} + 2.0 * k3_{k} + k4_{k})"
              for k in range(n)]
    checks = [f"abs(y{k}) <= threshold" for k in range(n)]
    if finite:  # x - x is 0.0 for every finite x and NaN otherwise
        zeros = [f"({x} - {x})" for x in finite]
        if len(zeros) > SUM_CHUNK:
            lines += _sum_lines("zero", zeros)
            zeros = ["zero"]
        checks.append(" + ".join(zeros) + " == 0.0")
    return lines + [f"if not ({' and '.join(checks)}):",
                    "    raise BlowUpError(step_base + i + 1, a + (i + 1) * h)"]


def _hoist(step: Sequence[str], variant: set[str], live: set[str]) -> tuple[list[str], list[str]]:
    """The lines ``target = expr`` of one RK4 step split into (prologue, loop), same bits.

    Precondition: a name the step reads before assigning it is in ``variant``, and a
    name assigned twice is read between its assignments only by them (``_sum_lines``).
    A line is dropped when no later kept line, ``live`` or ``variant`` reads its target.
    In program order, the targets of a line that reads a variant name are variant; the
    lines that assign a variant name stay in the loop, and the rest run once before it,
    in order.  An update ``x = x + sixth * (...)`` whose increment reads no variant name
    computes it once before the loop, as ``u_x``, and adds ``u_x`` in the loop.
    """
    kept, live = [], variant | live
    for line in reversed(step):
        target, expr = line.split(" = ", 1)
        if (targets := set(target.replace(",", " ").split())) & live:
            live |= (reads := set(_NAME.findall(expr)))
            kept.append((targets, reads, line))
    lines, variant = [], set(variant)
    for targets, reads, line in reversed(kept):
        x, expr = line.split(" = ", 1)
        if expr.startswith(f"{x} + sixth * ") and variant.isdisjoint(
                _NAME.findall(increment := expr[len(x) + 3:])):
            lines += [((), f"u_{x} = {increment}"), (targets, f"{x} = {x} + u_{x}")]
            continue
        if not variant.isdisjoint(reads):
            variant |= targets
        lines.append((targets, line))
    return ([line for targets, line in lines if variant.isdisjoint(targets)],
            [line for targets, line in lines if not variant.isdisjoint(targets)])


def _rk4_source(kind: str, n: int, tables: Sequence[TermDict] = ()) -> str:
    """Source of the RK4 loop of ``kind`` on y0..y{n-1}, one for each loop ``_compiled``
    serves: the step ``_rk4_step`` writes, split by ``_hoist`` into the lines that read
    only loop invariants, which run once in a prologue before the loop, and the loop.

    ``"plain"`` is ``_rk4(f, q, a, h, n_steps, threshold, step_base)`` and calls the
    evaluator ``f`` once per stage, ``"timed"`` the same with ``f(t, x)``: step i sets
    t = a + i * h and calls it at t, t + h/2 (twice) and t + h.  Both take the IEEE
    operations of a numpy stepper in its order, and hold no field, so every map of
    dimension n shares them.  ``"variational"`` is ``_rk4(q, m, a, h, n_steps,
    threshold, step_base)`` over the state and its n x n pushforward, ``m`` the
    row-major matrix, and inlines the field's n term ``tables`` and its Jacobian
    (entry r*n + c is dV_r/dx_c, derived here) term by term at each stage point.  The
    field is written as the evaluator writes it (``_terms``, ``_sum_lines``, ``0.0``
    for an empty component), so endpoints are the bits of the plain flow.  The matrix
    solves M' = J(x) M: zero Jacobian entries are skipped, a constant one is set once for
    all four stages, and a row whose Jacobian row is zero is never touched.  Its step
    raises BlowUpError also when an updated matrix entry is not finite, and an overflowing
    power raises it at the same step.  ``"variational_calls"`` is ``_rk4(f, q, m, ...)``,
    which calls the evaluator ``f`` at each stage point in place of the inlined field.
    ``"tangent"`` is the variational loop on one column, ``m`` a vector of length n: it
    solves v' = J(x) v with the bits of that column of the matrix loop.
    """
    jac_tables = [_diff_terms(table, var) for table in tables for var in range(n)]
    constant = {i for i, table in enumerate(jac_tables) if not any(map(any, table))}
    state = [f"y{k}" for k in range(n)]
    inline = kind in ("variational", "tangent")
    columns = range(1) if kind == "tangent" else range(n)
    matrix = [] if kind in ("plain", "timed") else [f"m{r}_{c}" for r in range(n) for c in columns]
    # the rows r that the loop updates, each with the columns k where dV_r/dx_k is not 0
    rows = {r: cols for r in range(len(tables))
            if (cols := [k for k in range(n) if jac_tables[r * n + k]])}
    times = ("t, ", "t + half, ", "t + half, ", "t + h, ") if kind == "timed" else ("",) * 4

    # stage s + 1: the step's time, point p<s+1>_k (y_k at s = 0) and the matrix
    # n<s>_k_c = m + scale * d<s> of each updated row, slopes k<s+1>_k, Jacobian entries
    # j<s+1>_r_k (j1_r_k at every stage if constant), matrix slopes d<s+1>_r_c; _hoist
    # drops the rows of n that no entry reads, and the constant entries of stages 2 to 4
    def stage(s: int, scale: str | None, point: list[str]) -> list[str]:
        body = ["t = a + i * h"] if kind == "timed" and not s else []
        if s and matrix:
            body += [f"p{s + 1}_{k} = {value}" for k, value in enumerate(point)]
            point = [f"p{s + 1}_{k}" for k in range(n)]
            body += [f"n{k}_{c} = m{k}_{c} + {scale} * d{s}_{k}_{c}" for k in rows
                     for c in columns]
        if not inline:
            body.append(f"{', '.join(f'k{s + 1}_{k}' for k in range(n))}, = "
                        f"f({times[s]}[{', '.join(point)}])")
        else:
            for k, table in enumerate(tables):
                body += _sum_lines(f"k{s + 1}_{k}", _terms(table, point) or ["0.0"])
        for r, cols in rows.items():
            for k in cols:
                body += _sum_lines(f"j{s + 1}_{r}_{k}", _terms(jac_tables[r * n + k], point))
            for c in columns:
                body += _sum_lines(f"d{s + 1}_{r}_{c}", [
                    f"j{1 if r * n + k in constant else s + 1}_{r}_{k} * "
                    f"{'n' if s and k in rows else 'm'}{k}_{c}" for k in cols])
        return body

    updates = [f"m{r}_{c} = m{r}_{c} + sixth * (d1_{r}_{c} + 2.0 * d2_{r}_{c} + 2.0 * d3_{r}_{c}"
               f" + d4_{r}_{c})" for r in rows for c in columns]
    finite = [f"m{r}_{c}" for r in rows for c in columns]
    *step, test, fail = _rk4_step(n, stage, updates, finite)
    # the evaluator f is called at every stage, and the step's time reads i
    prologue, loop = _hoist(step, {"f", "i", *state, *finite}, set(_NAME.findall(test + fail)))
    head = ["half = 0.5 * h", "sixth = h / 6.0", f"{', '.join(state)}, = q"]
    body = [*prologue, "for i in range(n_steps):", *("    " + line for line in loop + [test, fail])]
    returned = f"[{', '.join(state)}]"
    if matrix:
        head += [f"{', '.join(matrix)}, = m", "i = 0"]
        body = ["try:", *("    " + line for line in body), "except OverflowError:",
                "    raise BlowUpError(step_base + i + 1, a + (i + 1) * h) from None"]
        returned += f", [{', '.join(matrix)}]"
    args = ("" if inline else "f, ") + ("q, m" if matrix else "q")
    return "\n".join([f"def _rk4({args}, a, h, n_steps, threshold, step_base):",
                      *("    " + line for line in head + body + [f"return {returned}"])])


@lru_cache(maxsize=COMPILE_MEMO_SIZE)
def _compiled(kind: str, key):
    """The compiled ``kind`` for ``key``.  For the map whose ``PolynomialMap._key`` is
    ``key``: its evaluator (``"evaluator"``, ``_compile_evaluator``), or its RK4 loop with
    pushforward, field inlined (``"variational"``) or called (``"variational_calls"``), or
    with a tangent (``"tangent"``).  For the dimension ``key``: the plain RK4 loop on an
    evaluator f(x) (``"plain"``) or f(t, x) (``"timed"``).  ``_rk4_source`` writes every
    loop, and a loop's Jacobian is derived only on a miss.  Equal keys generate identical
    source, so every map with equal tables shares one function of each kind with its bits."""
    n, tables = (key, ()) if kind in ("plain", "timed") else key
    tables = tuple(dict(table) for table in tables)
    if kind == "evaluator":
        return _compile_evaluator(tables, n)
    namespace: dict = {"BlowUpError": BlowUpError}
    exec(_rk4_source(kind, n, tables), namespace)
    return namespace["_rk4"]


class PolynomialMap:
    """Exact polynomial map R^dim_in -> R^dim_out.

    Each output component is a list of (coefficient, exponent-tuple) terms
    with finite coefficients.  The constructor checks the terms it is given;
    lifts, sums, scalings and Jacobians keep the tables they build from
    checked ones.  One key (``_key``) serves equality, hashing and the compile
    memo (``_compiled``) of both the evaluator and the variational RK4 loop, each
    reached on first use: maps with equal tables are equal, hash equal, share
    compiled code and are one lift (``LiftTable``), and a map whose loop is in the
    memo builds no Jacobian for it.  The Jacobian is itself a cached
    PolynomialMap, so derivatives of any order stay exact.
    """

    def __init__(self, dim_in: int, dim_out: int, components):
        if dim_in < 1 or dim_out < 1:
            raise DimensionError("dim_in and dim_out must be positive")
        components = list(components)
        if len(components) != dim_out:
            raise DimensionError(
                f"{len(components)} components given for dim_out={dim_out}"
            )
        self.dim_in = int(dim_in)
        self.dim_out = int(dim_out)
        self._components: tuple[TermDict, ...] = tuple(
            _normalize_component(comp, dim_in) for comp in components
        )

    @classmethod
    def _of(cls, dim_in: int, tables: Sequence[TermDict]) -> "PolynomialMap":
        """A map over term tables the kernel built; they are stored as they are."""
        pm = cls.__new__(cls)
        pm.dim_in, pm.dim_out, pm._components = dim_in, len(tables), tuple(tables)
        return pm

    @property
    def _key(self) -> tuple[int, tuple[tuple[tuple[Exps, float], ...], ...]]:
        """(dim_in, each term table as its sorted items): equal exactly for equal maps; not kept."""
        return self.dim_in, tuple(tuple(sorted(table.items())) for table in self._components)

    @cached_property
    def _hash(self) -> int:
        return hash(self._key)

    @cached_property
    def _evaluator(self):
        return _compiled("evaluator", self._key)

    @cached_property
    def _variational_rk4(self):
        """The generated RK4 loop with pushforward, ``rk4(q, m, a, h, n_steps, threshold,
        step_base)`` (``_rk4_source``).  It inlines the field, unless this map's
        ``_evaluator`` was replaced by one ``_compile_evaluator`` did not make, which is
        not the ``_eval`` of its own globals (a wrapper, even one made by functools.wraps,
        as perfbench's step-count tests install): then it calls that one at each stage."""
        evaluator = vars(self).get("_evaluator")
        if evaluator is None or getattr(evaluator, "__globals__", {}).get("_eval") is evaluator:
            return _compiled("variational", self._key)
        return partial(_compiled("variational_calls", self._key), evaluator)

    @cached_property
    def _tangent_rk4(self):
        """The ``"tangent"`` loop ``rk4(q, v, ...)``, which always inlines the field."""
        return _compiled("tangent", self._key)

    @property
    def components(self) -> tuple[tuple[tuple[float, Exps], ...], ...]:
        return tuple(
            tuple((coef, exps) for exps, coef in sorted(comp.items()))
            for comp in self._components
        )

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim_in,):  # a shape test only: reference steppers pass inf and NaN
            raise DimensionError(f"map of R^{self.dim_in} called at shape {x.shape}")
        return np.array(self._evaluator(x.tolist()))

    @cached_property
    def jacobian_map(self) -> "PolynomialMap":
        """Polynomial map of all partials, row-major: output r*dim_in + c."""
        return PolynomialMap._of(self.dim_in, [
            _diff_terms(comp, var) for comp in self._components for var in range(self.dim_in)
        ])

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        return self.jacobian_map(x).reshape(self.dim_out, self.dim_in)

    def add(self, other: "PolynomialMap", scale_self: float = 1.0,
            scale_other: float = 1.0) -> "PolynomialMap":
        if (other.dim_in, other.dim_out) != (self.dim_in, self.dim_out):
            raise DimensionError("polynomial maps have different shapes")
        return PolynomialMap._of(self.dim_in, [
            _add_terms(a, b, scale_self, scale_other)
            for a, b in zip(self._components, other._components)
        ])

    def scaled(self, s: float) -> "PolynomialMap":
        return PolynomialMap._of(self.dim_in, [_add_terms(comp, {}, s)
                                               for comp in self._components])

    def __eq__(self, other) -> bool:
        return isinstance(other, PolynomialMap) and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        n_terms = sum(len(c) for c in self._components)
        return f"PolynomialMap({self.dim_in}->{self.dim_out}, {n_terms} terms)"

    @classmethod
    def zeros(cls, dim_in: int, dim_out: int) -> "PolynomialMap":
        return cls(dim_in, dim_out, [[] for _ in range(dim_out)])

    @classmethod
    def constants(cls, values, dim_in: int) -> "PolynomialMap":
        values = np.asarray(values, dtype=float)
        zero = (0,) * dim_in
        return cls(dim_in, len(values), [[(v, zero)] for v in values])

    @classmethod
    @lru_cache(maxsize=64, typed=True)  # typed: 2.0 fails as it did, not as 2's map
    def identity(cls, dim: int) -> "PolynomialMap":
        """The identity of R^dim, one shared value per ``dim``."""
        comps = []
        for i in range(dim):
            e = tuple(1 if j == i else 0 for j in range(dim))
            comps.append([(1.0, e)])
        return cls(dim, dim, comps)

    @classmethod
    def linear(cls, matrix) -> "PolynomialMap":
        a = np.asarray(matrix, dtype=float)
        if a.ndim != 2:
            raise DimensionError("linear map needs a 2-d matrix")
        dim_out, dim_in = a.shape
        comps = []
        for r in range(dim_out):
            terms = []
            for c in range(dim_in):
                if a[r, c] != 0.0:
                    e = tuple(1 if j == c else 0 for j in range(dim_in))
                    terms.append((a[r, c], e))
            comps.append(terms)
        return cls(dim_in, dim_out, comps)

    def to_json(self) -> list:
        return [
            [{"coef": coef, "exps": list(exps)} for coef, exps in comp]
            for comp in self.components
        ]

    @classmethod
    def from_json(cls, components, dim_in: int, path: str = "components") -> "PolynomialMap":
        """Build from ``to_json`` output; a malformed value's error names its path."""
        comps = []
        for i, comp in enumerate(_json_list(components, path)):
            terms = []
            for j, term in enumerate(_json_list(comp, f"{path}[{i}]")):
                where = f"{path}[{i}][{j}]"
                term = _json_object(term, where)
                exps, exps_path = _json_entry(term, "exps", where)
                terms.append((as_float(*_json_entry(term, "coef", where)),
                              [as_int(e, f"{exps_path}[{k}]")
                               for k, e in enumerate(_json_list(exps, exps_path))]))
            comps.append(terms)
        return cls(dim_in, len(comps), comps)


def lift_map(obs_map: PolynomialMap, field_map: PolynomialMap) -> PolynomialMap:
    """The directional derivative x -> obs'(x) . field(x), exact."""
    if obs_map.dim_in != field_map.dim_in or field_map.dim_out != field_map.dim_in:
        raise DimensionError("lift needs a field on the observable's domain")
    field_comps = field_map._components
    out = []
    for comp in obs_map._components:
        products = []
        for var, field_comp in enumerate(field_comps):
            if field_comp and (d := _diff_terms(comp, var)):
                products.extend(_mul_terms(d, field_comp).items())
        out.append(_accumulate(products))
    return PolynomialMap._of(obs_map.dim_in, out)


class VectorField:
    """A time-structured polynomial vector field on an n-dimensional chart.

    Piecewise in time (contiguous intervals, one polynomial map each); an
    autonomous field is the one piece over (-inf, inf).  ``parts``, the one rule
    for cutting an interval at the breakpoints, hands out each part's map.  The
    ``smoothness_order`` is bookkeeping for how many derivative orders
    downstream lifts may consume.
    """

    def __init__(self, pieces: Sequence[tuple[float, float, PolynomialMap]],
                 smoothness_order: int = DEFAULT_SMOOTHNESS_ORDER):
        smoothness_order = as_int(smoothness_order, "smoothness_order", 1)
        pieces = tuple(pieces)
        if not pieces:
            raise ValueError("a vector field needs at least one piece")
        dim = pieces[0][2].dim_in
        for _, _, pm in pieces:
            if pm.dim_in != dim or pm.dim_out != dim:
                raise DimensionError("every piece must map R^n -> R^n for one n")
        for (a, b, _) in pieces:
            if not (a < b):
                raise ValueError(f"empty time piece [{a}, {b}]")
        for (_, b, _), (a2, _, _) in zip(pieces, pieces[1:]):
            if b != a2:
                raise ValueError("time pieces must be contiguous and ordered")
        self.dim = dim
        self.smoothness_order = smoothness_order
        self.pieces = pieces
        # the interior piece starts, as Python floats since the solver steps from them
        self._cuts = [float(a) for a, _, _ in pieces[1:]]

    @classmethod
    def autonomous(cls, pm: PolynomialMap,
                   smoothness_order: int = DEFAULT_SMOOTHNESS_ORDER) -> "VectorField":
        return cls(((-math.inf, math.inf, pm),), smoothness_order)

    @classmethod
    def piecewise(cls, pieces, smoothness_order: int = DEFAULT_SMOOTHNESS_ORDER) -> "VectorField":
        return cls(pieces, smoothness_order)

    @property
    def window(self) -> tuple[float, float]:
        return (self.pieces[0][0], self.pieces[-1][1])

    @property
    def is_autonomous(self) -> bool:
        """One piece over all of time."""
        return not self._cuts and self.window == (-math.inf, math.inf)

    def piece_at(self, t: float) -> PolynomialMap:
        """Active polynomial piece at time t (right-continuous at breakpoints)."""
        self.check_window(t)
        return self.pieces[bisect_right(self._cuts, t)][2]

    def breakpoints_between(self, a: float, b: float) -> list[float]:
        """Interior piece boundaries strictly between a and b (any order), ascending."""
        lo, hi = min(a, b), max(a, b)
        return self._cuts[bisect_right(self._cuts, lo):bisect_left(self._cuts, hi)]

    def parts(self, a: float, b: float) -> list[tuple[float, float, PolynomialMap]]:
        """The parts (start, end, map) of [a, b] in one piece each, in the direction
        a -> b: start is the a-side end, end - start the signed length, and map the
        piece's polynomial map.  This is the one rule for cutting time: a part no
        longer than the cutoff below takes no step and carries no volume, so a = b
        has none.  Both lookups are bisections over the cuts."""
        self.check_window(a, b)
        return self._parts(a, b)

    def _parts(self, a: float, b: float) -> list[tuple[float, float, PolynomialMap]]:
        """``parts`` for a and b the caller has checked against the window."""
        lo, hi = (a, b) if a <= b else (b, a)
        first = bisect_right(self._cuts, lo)
        ends = [lo, *self._cuts[first:bisect_left(self._cuts, hi)], hi]
        parts = [(s, e, self.pieces[first + i][2])
                 for i, (s, e) in enumerate(zip(ends, ends[1:])) if e - s > 1e-15]
        return parts if a <= b else [(e, s, pm) for s, e, pm in reversed(parts)]

    def check_window(self, *times: float) -> None:
        lo, hi = self.window
        for t in times:
            if not (lo <= t <= hi):
                raise TimeWindowError(f"t={t} outside the field's window [{lo}, {hi}]")

    def __repr__(self) -> str:
        kind = "autonomous" if self.is_autonomous else f"{len(self.pieces)} pieces"
        return f"VectorField(dim={self.dim}, {kind})"

    def to_json(self) -> dict:
        doc: dict = {"dim": self.dim, "smoothness_order": self.smoothness_order}
        if self.is_autonomous:
            doc["components"] = self.pieces[0][2].to_json()
        else:
            doc["time_pieces"] = [
                {"t0": a, "t1": b, "components": pm.to_json()}
                for a, b, pm in self.pieces
            ]
        return doc


def _exact(what: str, *fields) -> None:
    """TypeError unless every field is a ``VectorField``, checked before any attribute is
    read: an evaluator, such as a transported field, has no pieces or exact derivatives."""
    if not all(isinstance(field, VectorField) for field in fields):
        raise TypeError(f"{what} exact polynomial fields")


def _joint_parts(v: VectorField, w: VectorField, a: float,
                 b: float) -> list[tuple[float, float, PolynomialMap, PolynomialMap]]:
    """The parts (start, end, map of v, map of w) of [a, b] in one piece of each field,
    in the direction a -> b: each part of v cut at the breakpoints of w."""
    return [(s, e, pv, pw) for a2, b2, pv in v.parts(a, b) for s, e, pw in w.parts(a2, b2)]


def add_fields(v: VectorField, w: VectorField, coeff_v: float = 1.0,
               coeff_w: float = 1.0) -> VectorField:
    """Pointwise linear combination coeff_v*V + coeff_w*W, piece-aware."""
    _exact("field sums require", v, w)
    if v.dim != w.dim:
        raise DimensionError("fields have different dimensions")
    order = min(v.smoothness_order, w.smoothness_order)
    lo = max(v.window[0], w.window[0])
    hi = min(v.window[1], w.window[1])
    if not (lo < hi):
        raise ValueError("fields have disjoint time windows")
    # each piece starts where the last ended, so a dropped part joins its successor;
    # an overlap with no part at all is the one piece of the pieces active at lo
    parts = _joint_parts(v, w, lo, hi) or [(lo, hi, v.piece_at(lo), w.piece_at(lo))]
    edges = [lo, *(end for _, end, _, _ in parts[:-1]), hi]
    maps = [pv.add(pw, coeff_v, coeff_w) for _, _, pv, pw in parts]
    return VectorField(zip(edges, edges[1:], maps), order)


class Observable:
    """A polynomial map from chart points to R^e with declared derivative budget.

    ``max_derivative_order`` tracks how many derivative orders remain for
    lifts to consume; polynomial derivatives themselves are exact at every
    order.
    """

    def __init__(self, poly_map: PolynomialMap,
                 max_derivative_order: int = DEFAULT_OBSERVABLE_ORDER):
        max_derivative_order = as_int(max_derivative_order, "max_derivative_order", 0)
        self.map = poly_map
        self.max_derivative_order = max_derivative_order

    @property
    def dim_in(self) -> int:
        return self.map.dim_in

    @property
    def dim_out(self) -> int:
        return self.map.dim_out

    def __call__(self, q) -> np.ndarray:
        return self.map(as_point(q, self.map.dim_in))

    def derivative(self, q) -> np.ndarray:
        return self.map.jacobian(as_point(q, self.map.dim_in))

    @classmethod
    @lru_cache(maxsize=64, typed=True)  # one shared value per argument list
    def identity(cls, dim: int, max_derivative_order: int = DEFAULT_OBSERVABLE_ORDER) -> "Observable":
        return cls(PolynomialMap.identity(dim), max_derivative_order)

    @classmethod
    @lru_cache(maxsize=64, typed=True)  # typed: a dim of 3.0 fails as it did
    def coordinate(cls, dim: int, axis: int,
                   max_derivative_order: int = DEFAULT_OBSERVABLE_ORDER) -> "Observable":
        """The scalar observable of coordinate ``axis`` (0-based), shared per argument list."""
        axis = as_int(axis, "axis")  # 0.5 would pick no coordinate, True axis 1
        if not 0 <= axis < dim:
            raise DimensionError(f"axis {axis} out of range for dim {dim}")
        return cls(PolynomialMap.linear(np.eye(dim)[axis:axis + 1]), max_derivative_order)

    @classmethod
    def constant(cls, values, dim_in: int,
                 max_derivative_order: int = DEFAULT_OBSERVABLE_ORDER) -> "Observable":
        return cls(PolynomialMap.constants(values, dim_in), max_derivative_order)

    @staticmethod
    def linear_combination(a: float, phi: "Observable", b: float, psi: "Observable") -> "Observable":
        order = min(phi.max_derivative_order, psi.max_derivative_order)
        return Observable(phi.map.add(psi.map, a, b), order)

    def __repr__(self) -> str:
        return (f"Observable({self.dim_in}->{self.dim_out}, "
                f"order={self.max_derivative_order})")


# ---------------------------------------------------------------------------
# Operations

def eval_field(field: VectorField, t: float, q) -> np.ndarray:
    """Value of the active polynomial piece at (t, q)."""
    _exact("field values require", field)
    point = as_point(q, field.dim)
    return field.piece_at(t)(point)


def field_jacobian(field: VectorField, t: float, q) -> np.ndarray:
    """Exact Jacobian of the active piece; entry (r, c) is dV_r/dx_c."""
    _exact("field Jacobians require", field)
    point = as_point(q, field.dim)
    return field.piece_at(t).jacobian(point)


def apply_lift(field: VectorField, t: float, obs: Observable) -> Observable:
    """The observable q -> obs'(q) . V_t(q); consumes one derivative order."""
    return iterate_lift([(field, t)], obs)


def iterate_lift(fields_seq: Sequence[tuple[VectorField, float]],
                 obs: Observable) -> Observable:
    """The lift of ``obs`` by V_t for each (V, t) in turn, list position 1 first
    (innermost): the ``LiftTable`` entry of the pieces active at the times.  Each V
    must be a VectorField; an evaluator, such as a transported field, is a TypeError."""
    fields_seq = list(fields_seq)
    lifts = LiftTable(obs, len(fields_seq))
    if not fields_seq:
        return obs
    _exact("lifts require", *(field for field, _ in fields_seq))
    key = tuple(field.piece_at(t) for field, t in fields_seq)
    return Observable(lifts[key], obs.max_derivative_order - len(key))


class LiftTable(dict):
    """Iterated lifts of the map of ``obs``, at most ``order`` of them, keyed by the
    tuple of field maps they lift by, innermost first; each is built from its prefix
    once.  A lift depends on its fields only through their maps, so pieces of equal
    tables are one key, and a table of many pieces builds each distinct lift once."""

    def __init__(self, obs: Observable, order: int):
        if obs.max_derivative_order < order:
            raise DefectExhaustedError(f"sequence of {order} lifts exceeds the available "
                                       f"derivative order {obs.max_derivative_order}")
        super().__init__({(): obs.map})

    def __missing__(self, key: tuple[PolynomialMap, ...]) -> PolynomialMap:
        self[key] = lift_map(self[key[:-1]], key[-1])
        return self[key]


def simplex_factor(length: float, m: int) -> float:
    """length^m / m!, the volume of m ordered times in an interval of signed ``length``
    (Cauchy's repeated integration).  Where length^m or m! leaves the float range it
    goes by logarithms, and where the quotient does too it is NaN, never OverflowError."""
    try:
        return length ** m / math.factorial(m)
    except OverflowError:
        try:
            size = math.exp(m * math.log(abs(length)) - math.lgamma(m + 1)) if length else 0.0
        except OverflowError:
            return math.nan
        return -size if length < 0 and m % 2 else size


def chen_walk(parts: Sequence[tuple[float, float, PolynomialMap]],
              order: int) -> Iterator[dict[tuple[PolynomialMap, ...], float]]:
    """Chen's identity over ``parts`` (start, end, map) listed from the t end: for the
    parts before each part in turn, then for all of them, the coefficient of each word
    of at most ``order`` maps, innermost first like a ``LiftTable`` key.  It is the
    volume of the times t >= tau_1 >= tau_2 >= ... that fall in pieces of the word's
    maps, so a part of length L extends a word by m copies of its map at L^m / m!,
    and P parts over D distinct maps cost P * D^order.  Words are listed in the order
    of the piece sequences, each after its extensions; a word met again (a repeated
    table) adds to its first place, so no order depends on hashes."""
    coeffs = {(): 1.0}
    yield coeffs
    for a, b, pm in parts:
        walked: dict[tuple[PolynomialMap, ...], float] = {}
        for word, c in coeffs.items():
            for m in range(order - len(word), -1, -1):
                key, value = word + (pm,) * m, c * simplex_factor(b - a, m)
                walked[key] = walked[key] + value if key in walked else value
        coeffs = walked
        yield coeffs


# ---------------------------------------------------------------------------
# Finite differences (independent oracle only, never the primary path)

def finite_difference_jacobian(func: Callable[[np.ndarray], np.ndarray], x) -> np.ndarray:
    """Central-difference Jacobian with h = eps^(1/3) * max(1, |x_i|)."""
    x = np.asarray(x, dtype=float)
    base = float(np.finfo(float).eps) ** (1.0 / 3.0)
    f0 = np.atleast_1d(np.asarray(func(x), dtype=float))
    jac = np.zeros((f0.shape[0], x.shape[0]))
    for i in range(x.shape[0]):
        h = base * max(1.0, abs(x[i]))
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        jac[:, i] = (np.asarray(func(xp)) - np.asarray(func(xm))) / (2.0 * h)
    return jac


# ---------------------------------------------------------------------------
# Sampled local boundedness witness

@dataclass(frozen=True, eq=False)
class LocallyBoundedWitness:
    """Sampled bound on k-fold lift compositions over a ball.

    ``bound_C`` is the max, over sampled ball points and every word of maps
    that a piece sequence of monotone times realizes, decreasing (t > t0) or
    increasing (t < t0), of the norm of the order-fold lift of the observable.
    It is a sampled estimate in space, not a certificate.
    """

    center: np.ndarray
    radius: float
    bound_C: float
    order: int


def _max_norm(vectors: Iterable[list[float]]) -> float:
    """``max(vector_norm(v) for v in vectors)`` with its bits.  ``math.hypot`` is within
    an ulp of a norm, ``vector_norm`` within n ulps plus the root of the least normal
    float, so ``vector_norm`` runs only where hypot cannot rule ``v`` out."""
    slack, best = math.sqrt(sys.float_info.min), None
    for v in vectors:
        if best is None or math.hypot(*v) * (1.0 + 1e-12) + slack > best:
            norm = vector_norm(np.array(v))
            best = norm if best is None or norm > best else best
    return best


def sample_lift_bound(field: VectorField, obs: Observable, order: int, center,
                      radius: float, num_points: int = 128,
                      seed: int = 0) -> LocallyBoundedWitness:
    """Estimate the lift-composition bound by sampling the ball: the words are the
    length-``order`` keys of ``chen_walk`` over the pieces, once in each time
    direction, so a field of D distinct maps has at most D^order of them."""
    _exact("lift witnesses require", field)
    order = as_int(order, "witness order", 1)  # True would pass as order 1
    center = as_point(center, field.dim)
    radius = _positive(radius, "witness radius")
    num_points = as_int(num_points, "witness num_points", 1)  # none would leave no bound
    rng = np.random.default_rng(as_int(seed, "witness seed"))  # True would pass as seed 1
    n = field.dim
    direction = rng.normal(size=(num_points, n))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    radii = radius * rng.uniform(size=(num_points, 1)) ** (1.0 / n)
    points = center + direction * radii

    lifts = LiftTable(obs, order)
    # the pieces of times run non-increasing forward (t > t0), non-decreasing backward:
    # listed from the t end, the parts are the pieces reversed or in order
    parts = [(0.0, 1.0, pm) for _, _, pm in field.pieces]
    words = {word: None for walk in (parts[::-1], parts)
             for word in deque(chen_walk(walk, order), maxlen=1).pop() if len(word) == order}
    rows = as_point(points.ravel()).reshape(points.shape).tolist()  # checked once
    bound = _max_norm(lifts[word]._evaluator(row) for word in words for row in rows)
    return LocallyBoundedWitness(center=center, radius=radius,
                                 bound_C=bound, order=order)


# ---------------------------------------------------------------------------
# Builtin catalog (closed-form flows make these the golden-test fields)

def zero_field(dim: int) -> VectorField:
    return VectorField.autonomous(PolynomialMap.zeros(dim, dim))


def constant_field(values) -> VectorField:
    values = np.asarray(values, dtype=float)
    return VectorField.autonomous(PolynomialMap.constants(values, len(values)))


def linear_field(matrix) -> VectorField:
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError("linear field needs a square matrix")
    return VectorField.autonomous(PolynomialMap.linear(a))


@cache
def rotation2d() -> VectorField:
    """Planar rotation x' = (-y, x), whose flow rotates by t; one shared, immutable value."""
    return linear_field([[0.0, -1.0], [1.0, 0.0]])


@cache
def _planar_pair(a: float, b: float) -> tuple[VectorField, VectorField]:
    """The pair (1, 0, a*y) and (0, 1, b*x) on R^3 (b = 0 drops x); one shared value per (a, b)."""
    first = PolynomialMap(3, 3, [[(1.0, (0, 0, 0))], [], [(a, (0, 1, 0))]])
    second = PolynomialMap(3, 3, [[], [(1.0, (0, 0, 0))], [(b, (1, 0, 0))]])
    return VectorField.autonomous(first), VectorField.autonomous(second)


def heisenberg_fields() -> tuple[VectorField, VectorField]:
    """The Heisenberg pair (1, 0, -y/2), (0, 1, x/2) on R^3; one shared, immutable value."""
    return _planar_pair(-0.5, 0.5)


def unicycle_fields() -> tuple[VectorField, VectorField]:
    """Chained-form unicycle on R^3: (1, 0, y) and (0, 1, 0); one shared, immutable value."""
    return _planar_pair(1.0, 0.0)


def brockett_fields() -> tuple[VectorField, VectorField]:
    """Brockett integrator on R^3: (1, 0, -y) and (0, 1, x); one shared, immutable value."""
    return _planar_pair(-1.0, 1.0)


_BUILTIN_BUILDERS: dict[str, Callable[[], tuple[VectorField, ...]]] = {
    "rotation2d": lambda: (rotation2d(),),
    "heisenberg": heisenberg_fields,
    "unicycle": unicycle_fields,
    "brockett": brockett_fields,
}

BUILTIN_SYSTEM_NAMES = tuple(sorted(_BUILTIN_BUILDERS))


def builtin_system(name: str) -> tuple[VectorField, ...]:
    """Catalog fields addressable by name string."""
    try:
        builder = _BUILTIN_BUILDERS[name]
    except KeyError:
        raise KeyError(
            f"unknown builtin system {name!r}; available: {', '.join(BUILTIN_SYSTEM_NAMES)}"
        ) from None
    return tuple(builder())


# ---------------------------------------------------------------------------
# JSON loading

def _json_list(value, path: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{path} must be a JSON list, got {type(value).__name__}")
    return value


def _json_object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{path} must be a JSON object, got {type(value).__name__}")
    return value


def _json_entry(doc: dict, key: str, path: str) -> tuple:
    """``doc[key]`` and its JSON path; a missing key's error names the path."""
    where = f"{path}.{key}" if path else key
    if key not in doc:
        raise ValueError(f"{where} must be given, but the key is missing")
    return doc[key], where


def vector_field_from_json(doc: dict, path: str = "") -> VectorField:
    """Build a field from {"dim": n, "components": ...} or {"time_pieces": ...}.

    ``path`` locates ``doc`` in its file; a malformed value's error names
    its JSON path below it (e.g. ``fields[0].components[1][2].coef``).
    """
    doc = _json_object(doc, path or "a field document")
    at = f"{path}." if path else ""
    dim = as_int(*_json_entry(doc, "dim", path))
    order = as_int(doc.get("smoothness_order", DEFAULT_SMOOTHNESS_ORDER),
                   f"{at}smoothness_order")
    if "time_pieces" in doc:
        pieces = []
        for i, p in enumerate(_json_list(doc["time_pieces"], f"{at}time_pieces")):
            where = f"{at}time_pieces[{i}]"
            p = _json_object(p, where)
            comps, comps_path = _json_entry(p, "components", where)
            pieces.append((as_float(*_json_entry(p, "t0", where)),
                           as_float(*_json_entry(p, "t1", where)),
                           PolynomialMap.from_json(comps, dim, comps_path)))
        return VectorField.piecewise(pieces, order)
    comps, comps_path = _json_entry(doc, "components", path)
    return VectorField.autonomous(PolynomialMap.from_json(comps, dim, comps_path), order)


def observable_from_json(doc: dict) -> Observable:
    doc = _json_object(doc, "an observable document")
    dim = as_int(*_json_entry(doc, "dim", ""))
    order = as_int(doc.get("max_derivative_order", DEFAULT_OBSERVABLE_ORDER), "max_derivative_order")
    return Observable(PolynomialMap.from_json(_json_entry(doc, "components", "")[0], dim), order)


def load_system(source: str) -> tuple[VectorField, ...]:
    """Resolve a builtin name or a JSON file into a tuple of fields.

    A file may hold a single field document or {"fields": [field, ...]}.
    """
    if source in _BUILTIN_BUILDERS:
        return builtin_system(source)
    path = Path(source)
    if not path.exists():
        raise KeyError(
            f"{source!r} is neither a builtin system nor an existing file"
        )
    doc = json.loads(path.read_text())
    if isinstance(doc, dict) and "fields" in doc:
        fields = tuple(vector_field_from_json(f, f"fields[{i}]")
                       for i, f in enumerate(_json_list(doc["fields"], "fields")))
    else:
        fields = (vector_field_from_json(doc),)
    if not fields:
        raise ValueError("a system needs at least one field")
    if len({f.dim for f in fields}) != 1:
        raise DimensionError("system fields have mixed dimensions")
    return fields
