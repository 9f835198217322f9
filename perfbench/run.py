"""chronoflow benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics with no tracing installed; ``--trace 1`` measures the per-layer
metrics from traced passes.  perfbench/METHODS.md defines every metric.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Raw samples, spans
and failures go to ``.perfbench/`` in the checkout.
"""
from __future__ import annotations

import os

# Pin every thread pool to one thread before numpy can be imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import bisect
import hashlib
import importlib.util
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("variational", "asymptotics", "planner", "cli")
PASSES = 2  # fresh processes per end-to-end run; each operation keeps its best
WALL_CAP = 1.5  # a pass stops after this many times its seconds of wall time
MIN_OPS = 30  # so that the tail percentile has ten samples beyond it
CHILD_TIMEOUT_S = 150
CLI_PROBE_ARGV = ["flow", "--system", "heisenberg", "--t", "1", "--q", "0.1,0.2,0.3"]
CAL_REF_S = 1.5e-3  # calibration kernel time that defines reference speed
CAL_INTERVAL_S = 0.05
FLOOR_REF_S = 0.06  # bare interpreter start that defines reference speed for cli
FLOOR_INTERVAL_S = 0.3


class CheckoutError(RuntimeError):
    pass


def use_checkout_source() -> None:
    """Import chronoflow from this checkout's src/ or refuse to run."""
    if not (SRC / "chronoflow" / "__init__.py").is_file():
        raise CheckoutError(f"no chronoflow package under {SRC}")
    sys.path.insert(0, str(SRC))
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    spec = importlib.util.find_spec("chronoflow")
    origin = Path(spec.origin).resolve() if spec and spec.origin else None
    if origin is None or SRC not in origin.parents:
        raise CheckoutError(f"chronoflow resolves to {origin}, not under {SRC}")


def tail_rank(n: int) -> tuple[int, float]:
    """Index (in ascending order) and percentile of the tail sample.

    The tail is the highest percentile that still has at least ten samples
    beyond it: index n - 11, which is percentile 100 * (n - 10) / n.
    """
    if n < 11:
        raise ValueError(f"{n} samples leave no percentile with ten beyond it")
    return n - 11, 100.0 * (n - 10) / n


# ---------------------------------------------------------------------------
# Machine speed

def calibration_kernel() -> float:
    """Fixed interpreter-bound work that uses neither chronoflow nor numpy."""
    acc = 0.0
    point = (0.1, 0.2, 0.3)
    for _ in range(800):
        x, y, z = point
        k = (y * 0.5 - z, x * x - 0.25, -x * y)
        point = tuple(p + 1e-3 * q for p, q in zip(point, k))
        acc += max(abs(p) for p in point)
    return acc


def interpreter_floor() -> None:
    """Start a bare interpreter and wait for it to exit."""
    pid = os.posix_spawn(sys.executable, [sys.executable, "-c", "pass"], os.environ)
    os.waitpid(pid, 0)


class SpeedProbe:
    """Calibration samples interleaved with the operations of one process.

    The host's speed for the same work changes by up to 2x for minutes at a
    time.  Every time is reported scaled to reference speed: multiplied by
    the kernel's reference time over its median time around the interval.
    In-process work is measured against ``calibration_kernel``; cold CLI
    invocations, which slow less than pure interpreter work, against the
    start of a bare interpreter.  Interpreter hooks are switched off while
    calibrating, so a hook that slows the program cannot slow the
    yardstick too.
    """

    def __init__(self, kernel=calibration_kernel, reference: float = CAL_REF_S,
                 interval: float = CAL_INTERVAL_S):
        self.kernel, self.reference, self.interval = kernel, reference, interval
        self.samples: list[tuple[float, float]] = []  # (midpoint, seconds)

    @classmethod
    def for_workload(cls, name: str) -> "SpeedProbe":
        if name == "cli":
            return cls(interpreter_floor, FLOOR_REF_S, FLOOR_INTERVAL_S)
        return cls()

    def sample(self) -> None:
        trace, profile = sys.gettrace(), sys.getprofile()
        sys.settrace(None)
        sys.setprofile(None)
        try:
            start = perf_counter()
            self.kernel()
            end = perf_counter()
        finally:
            sys.settrace(trace)
            sys.setprofile(profile)
        self.samples.append((0.5 * (start + end), end - start))

    def maybe_sample(self) -> None:
        if not self.samples or perf_counter() - self.samples[-1][0] >= self.interval:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """Reference over measured speed, from the samples nearest [start, end]."""
        mid = bisect.bisect([t for t, _ in self.samples], 0.5 * (start + end))
        near = self.samples[max(0, mid - 2): mid + 2]
        return self.reference / statistics.median(d for _, d in near)


# ---------------------------------------------------------------------------
# Set-up, operations and checks

def setup(name: str, seed: int, probe: SpeedProbe, in_process_cli: bool = False):
    """Import chronoflow, build the workload's inputs, warm up each kind once.

    Returns the workload, the workloads module, and the set-up time raw and
    scaled to reference speed.
    """
    for _ in range(3):
        probe.sample()
    start = perf_counter()
    import workloads
    OUT_DIR.mkdir(exist_ok=True)
    wl = workloads.build(name, seed, OUT_DIR, in_process_cli)
    for i in wl.warmup_indices():
        wl.op(i).call()
    end = perf_counter()
    for _ in range(3):
        probe.sample()
    return wl, workloads, end - start, (end - start) * probe.scale(start, end)


def run_op(op):
    """Time one operation; an exception is recorded, not raised."""
    start = perf_counter()
    try:
        result, error = op.call(), None
    except Exception as exc:  # a failed operation counts; the run goes on
        result, error = None, f"{type(exc).__name__}: {exc}"
    return result, error, start, perf_counter() - start


def check_all(records) -> list[dict]:
    """Run every operation's reference check; return one entry per failure."""
    failures = []
    for index, (op, result, error, _, _) in enumerate(records):
        if error is None:
            try:
                error = op.check(result)
            except Exception as exc:  # a check that cannot run is a failure
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            failures.append({"index": index, "kind": op.kind, "error": error,
                             "spec": op.spec})
    return failures


def measure(wl, probe: SpeedProbe, seconds: float, count: int | None = None):
    """Closed loop, one caller: run operations back to back.

    Runs ``count`` operations, or, without a count, at least MIN_OPS and
    whole periods of the workload until ``seconds`` of reference-speed time
    have passed (or WALL_CAP times ``seconds`` of wall time), so that the
    operations run do not follow the host's speed.  Records are (op, result, error, start,
    latency).
    """
    records = []
    start = perf_counter()
    scaled = 0.0
    while count is None or len(records) < count:
        if (count is None and len(records) >= MIN_OPS
                and len(records) % len(wl.period) == 0
                and (scaled >= seconds or perf_counter() - start >= WALL_CAP * seconds)):
            break
        probe.maybe_sample()
        op = wl.op(len(records))
        records.append((op, *run_op(op)))
        op_start, latency = records[-1][3:]
        scaled += latency * probe.scale(op_start, op_start + latency)
    probe.sample()
    return records


def kind_bands(kinds, latencies) -> dict[str, dict]:
    bands: dict[str, list[float]] = {}
    for kind, latency in zip(kinds, latencies):
        bands.setdefault(kind, []).append(latency * 1e3)
    return {k: {"count": len(v), "min_ms": min(v), "median_ms": statistics.median(v),
                "max_ms": max(v)} for k, v in sorted(bands.items())}


# ---------------------------------------------------------------------------
# Provenance

def provenance() -> dict:
    import numpy
    digest = hashlib.sha256()
    for path in sorted((SRC / "chronoflow").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    sha = None
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            sha = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"git_sha": sha, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "threads": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")}}


# ---------------------------------------------------------------------------
# End-to-end mode

def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_pass(name: str, seed: int, seconds: float, count: int | None) -> dict:
    """One measured pass in this process: set-up, operations, then checks."""
    probe = SpeedProbe.for_workload(name)
    wl, _, setup_raw, setup_scaled = setup(name, seed, probe)
    try:
        records = measure(wl, probe, seconds, count)
        if name == "cli":
            peak_kb = wl.max_child_rss_kb
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        failures = check_all(records)
    finally:
        wl.close()
    return {
        "setup_s": setup_scaled, "setup_raw_s": setup_raw, "peak_rss_kb": peak_kb,
        "failures": failures, "kinds": [r[0].kind for r in records],
        "raw_latencies": [r[4] for r in records],
        "latencies": [r[4] * probe.scale(r[3], r[3] + r[4]) for r in records],
    }


def pass_in_child(name: str, seed: int, seconds: float, count: int | None) -> dict:
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(seed), "--seconds", repr(seconds), "--pass"]
    if count is not None:
        argv += ["--count", str(count)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"measured pass failed: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def latency_metrics(best: list[float]) -> dict[str, float]:
    n = len(best)
    ordered = sorted(best)
    return {"ops_per_s": n / sum(best), "op_p50_ms": 1e3 * statistics.median(best),
            "op_tail_ms": 1e3 * ordered[tail_rank(n)[0]]}


def end_to_end(name: str, seed: int, seconds: float):
    """PASSES fresh processes run the same operations; each keeps its best time.

    The first pass runs for its share of ``seconds`` and fixes the number of
    operations; the others run exactly that many.
    """
    first = pass_in_child(name, seed, seconds / PASSES, None)
    n = len(first["latencies"])
    passes = [first] + [pass_in_child(name, seed, seconds / PASSES, n)
                        for _ in range(PASSES - 1)]
    kinds = first["kinds"]
    if any(p["kinds"] != kinds for p in passes):
        raise RuntimeError("passes ran different operation sequences")
    best = [min(p["latencies"][i] for p in passes) for i in range(n)]
    raw_best = [min(p["raw_latencies"][i] for p in passes) for i in range(n)]
    failures = [dict(f, run_pass=k) for k, p in enumerate(passes) for f in p["failures"]]
    attempted = PASSES * n

    metrics = {k: metric(v, "1/s" if k == "ops_per_s" else "ms")
               for k, v in latency_metrics(best).items()}
    metrics["success_rate"] = metric(1.0 - len(failures) / attempted, "ratio")
    metrics["setup_s"] = metric(statistics.median(p["setup_s"] for p in passes), "s")
    metrics["peak_rss_mb"] = metric(
        statistics.median(p["peak_rss_kb"] for p in passes) / 1024.0, "MB")

    order = sorted(range(n), key=best.__getitem__)
    tail_index, tail_pct = tail_rank(n)
    raw = latency_metrics(raw_best)
    raw["setup_s"] = statistics.median(p["setup_raw_s"] for p in passes)
    detail = {
        "tail_percentile": tail_pct, "samples": n,
        "p50_kind": kinds[order[(n - 1) // 2]], "tail_kind": kinds[order[tail_index]],
        "error_rate": len(failures) / attempted, "unscaled": raw,
        "setup_samples_s": [p["setup_s"] for p in passes],
        "bands": kind_bands(kinds, best), "failures": failures,
    }
    print(f"op_tail_ms is p{tail_pct:.2f} of {n} operations "
          f"(kind {detail['tail_kind']}); op_p50_ms falls in kind {detail['p50_kind']}")
    print(f"error_rate = {detail['error_rate']:.6g} ({len(failures)} of {attempted})")
    print("unscaled wall-clock values: " + json.dumps(raw))
    for f in failures[:10]:
        print(f"FAILED op {f['index']} {f['kind']}: {f['error']}")
    return attempted, len(failures), metrics, detail


# ---------------------------------------------------------------------------
# Traced mode

def cli_probe(workloads, probe: SpeedProbe) -> dict[str, float]:
    """Interpreter floor, cold import beyond it, and warm in-process cli.main."""
    def wall(argv) -> float:
        probe.sample()
        start = perf_counter()
        subprocess.run(argv, check=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
                       stdout=subprocess.DEVNULL)
        end = perf_counter()
        probe.sample()
        return (end - start) * probe.scale(start, end)

    def main_call() -> float:
        probe.sample()
        with redirect_stdout(io.StringIO()):
            start = perf_counter()
            workloads.cli.main(CLI_PROBE_ARGV)
            end = perf_counter()
        probe.sample()
        return (end - start) * probe.scale(start, end)

    interp = statistics.median(wall([sys.executable, "-c", "pass"]) for _ in range(5))
    cold = statistics.median(wall([sys.executable, "-c", "import chronoflow.cli"])
                             for _ in range(5))
    main_call()  # warm
    main_ms = 1e3 * statistics.median(main_call() for _ in range(5))
    return {"cli.interp_s": interp, "cli.import_s": cold - interp, "cli.main_ms": main_ms}


def traced(name: str, seed: int, seconds: float):
    """Run each operation of a period untraced, then traced, until ``seconds``.

    The two runs of an operation use separate but identical inputs and run
    back to back, so a change in the host's speed hits both alike.
    """
    import tracer

    probe = SpeedProbe()
    _, workloads, _, _ = setup(name, seed, probe, in_process_cli=True)
    layer_probe = cli_probe(workloads, probe)
    tr = tracer.Tracer()
    passes, first_spans, failures = [], None, []
    attempted = 0
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        plain_wl = workloads.build(name, seed, OUT_DIR, in_process=True)
        traced_wl = workloads.build(name, seed, OUT_DIR, in_process=True)
        plain, records = [], []
        tr.reset()
        try:
            for i in range(len(plain_wl.period)):
                op, twin = plain_wl.op(i), traced_wl.op(i)
                probe.maybe_sample()
                plain.append((op, *run_op(op)))
                tr.op = i
                tr.install()
                try:
                    records.append((twin, *run_op(twin)))
                finally:
                    tr.uninstall()
            probe.sample()
            failures += check_all(plain) + check_all(records)
        finally:
            plain_wl.close()
            traced_wl.close()
        attempted += len(plain) + len(records)

        def scaled(recs) -> float:
            return sum(r[4] * probe.scale(r[3], r[3] + r[4]) for r in recs)

        traced_raw = sum(r[4] for r in records)
        layers = tracer.layer_metrics(tr.spans, tr.quad_nodes, traced_raw)
        attributed = (layers.pop("trace.self_sum_s"), traced_raw)
        factor = scaled(records) / traced_raw
        for key in layers:
            if key.endswith(("_s", "_per_step")):
                layers[key] *= factor
        passes.append((scaled(plain), scaled(records), layers, attributed))
        if first_spans is None:
            first_spans = [[s.name, s.start, s.end, s.parent, s.op] for s in tr.spans]

    counts = passes[0][2]
    metrics = {}
    for key, value in counts.items():
        if key.endswith(("_s", "share", "_per_step")):
            value = statistics.median(p[2][key] for p in passes)
            unit = "s" if key.endswith("_s") else "us" if key.endswith("_per_step") else "ratio"
        else:
            if any(p[2][key] != value for p in passes[1:]):
                print(f"warning: {key} differs between passes")
            unit = "ratio" if key.endswith("ratio") else "count"
        metrics[key] = metric(value, unit)
    for key, value in layer_probe.items():
        metrics[key] = metric(value, "s" if key.endswith("_s") else "ms")
    untraced_total = sum(p[0] for p in passes)
    traced_total = sum(p[1] for p in passes)
    metrics["trace.overhead_frac"] = metric(traced_total / untraced_total - 1.0, "ratio")
    coverage = sum(p[3][0] for p in passes) / sum(p[3][1] for p in passes)
    print(f"{len(passes)} traced passes of {len(records)} operations; module self times "
          f"cover {coverage:.6f} of traced operation time")
    for f in failures[:10]:
        print(f"FAILED op {f['index']} {f['kind']}: {f['error']}")
    detail = {"passes": len(passes), "self_time_coverage": coverage,
              "failures": failures, "spans_first_pass": first_spans}
    return attempted, len(failures), metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pass", dest="one_pass", action="store_true",
                        help="run one measured pass and print its raw samples "
                             "(used internally)")
    parser.add_argument("--count", type=int, default=None,
                        help="with --pass: run exactly this many operations")
    args = parser.parse_args(argv)
    try:
        use_checkout_source()
    except CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.one_pass:
        print(json.dumps(run_pass(args.workload, args.seed, args.seconds, args.count)))
        return 0

    run = traced if args.trace else end_to_end
    attempted, failed, metrics, detail = run(args.workload, args.seed, args.seconds)
    info = provenance()
    print("provenance: " + json.dumps(info, sort_keys=True))
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                               "seconds": args.seconds, "provenance": info,
                               "metrics": metrics, "detail": detail}, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
