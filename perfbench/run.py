"""nnmix benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the repository root (the package is imported from ``src/``):

    python3 perfbench/run.py --workload table1_5x5 --seed 0 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one table

One process, one closed-loop client, ``jobs=1``, BLAS/OpenMP pinned to one
thread.  ``--trace 0`` times ops with tracing off and reports the end-to-end
metrics; ``--trace 1`` runs a fixed number of ops, each once with spans on
and once off, writes the spans to ``perfbench/out/`` and reports the
per-layer metrics and the tracing overhead.  Times are reported at reference
host speed (see ``calibrate.py``).  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# fixed before numpy is imported, so its threads do not compete for the cores
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import collections  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("table1_5x5", "planted_T10", "boundary_fraction", "verdicts")
SETUP_REPEATS = 5
# throughput and tail are medians over windows of at least WINDOW_MIN_OPS
# consecutive ops, so a burst of interference from other tenants of the
# machine moves one window, not the figure
WINDOW_MIN_OPS = 1000
HEAD_OPS = 1000  # digests kept in order, for the reference comparison
CALIBRATE_EVERY_S = 0.05  # host speed is measured at least this often, off the clock
# ops per second at the commit that defined the benchmark (2-core x86 VM);
# a traced run measures round(rate * seconds / 2) ops, so its exact counts
# repeat for a given seed and length on every commit
NOMINAL_OPS_PER_S = {"table1_5x5": 3.5, "planted_T10": 5.0,
                     "boundary_fraction": 500.0, "verdicts": 140.0}
IMPORT_PROBE = ("import time; t = time.perf_counter(); import nnmix.cli; "
                "print(time.perf_counter() - t)")

if __name__ == "__main__" and not (SRC / "nnmix" / "__init__.py").is_file():
    sys.exit(f"error: no package source at {SRC / 'nnmix'}; "
             "run from a checkout of the repository")
sys.path[:0] = [str(SRC), str(BENCH_DIR)]
import calibrate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END_UNITS = {"ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_tail": "ms",
                    "peak_rss_mb": "MB", "setup_s": "s"}


def _import_seconds() -> float:
    """Package import time in a fresh interpreter (the in-process import is cached)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _metadata() -> dict:
    import numpy
    digest = hashlib.sha256()
    for path in sorted((SRC / "nnmix").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "git_sha": _git_sha(),
            "src_sha256": digest.hexdigest(), "thread_env": THREAD_ENV,
            "client": "closed loop, 1 client, jobs=1"}


class Tally:
    """Latencies, output digests and failed ops of a sequence of ops.

    Digests are counted, and kept in order only for the first HEAD_OPS ops,
    so memory does not grow with the number of ops a run completes.
    """

    def __init__(self):
        self.lat: list[float] = []
        self.digests: collections.Counter = collections.Counter()
        self.head: list = []
        self.failures: list[dict] = []


def run_op(wl, tracer, index: int, tally: Tally):
    """Run op ``index`` under ``tracer``; only the op call is on the clock."""
    op = wl.op(index)
    tracer.begin_op(index)
    t0 = time.perf_counter()
    try:
        with tracer.span(op.kind):
            out = op.run()
    except Exception:  # a raising op is a failed op; the loop goes on
        tally.lat.append(time.perf_counter() - t0)
        digest, problems = None, [traceback.format_exc(limit=3).strip()]
    else:
        tally.lat.append(time.perf_counter() - t0)
        digest = None
        try:
            problems = op.check(out, tracer.captured)
            digest = wl.digest(out)
        except Exception:  # a check that cannot read the output fails the op
            problems = [traceback.format_exc(limit=3).strip()]
    tally.digests[digest] += 1
    if len(tally.head) < HEAD_OPS:
        tally.head.append(digest)
    if problems:
        tally.failures.append({"op": index, "kind": op.kind, "problems": problems})


def _tail(lat_ms: list) -> tuple[float, float]:
    """Highest percentile with at least ten ops beyond it, and its value."""
    ordered = sorted(lat_ms)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def _windows(n: int) -> list[tuple[int, int]]:
    """Bounds of consecutive windows of at least WINDOW_MIN_OPS ops (one if fewer)."""
    k = max(1, n // WINDOW_MIN_OPS)
    bounds = [n * i // k for i in range(k + 1)]
    return list(zip(bounds, bounds[1:]))


def _setup(make, seed: int, workdir: Path):
    """Import, input generation and one warm-up op, repeated.

    Returns the workload, each set-up's time at reference host speed, the
    raw times, and the warm-up op's failures.
    """
    speed = calibrate.HostSpeed(CALIBRATE_EVERY_S)
    raw = []
    for rep in range(SETUP_REPEATS):
        t_import = _import_seconds()
        t0 = time.perf_counter()
        wl = make(seed, workdir)
        warm = Tally()
        with tracing.Tracer(timing=False) as tracer:
            run_op(wl, tracer, wl.warmup_index, warm)
        raw.append(t_import + time.perf_counter() - t0)
        speed.after_op(rep + 1, force=True)
    times = [t * f for t, f in zip(raw, speed.factors())]
    return wl, times, raw, warm.failures


def _latency_metrics(lat_ms: list, failed: set) -> dict:
    """Throughput and tail as medians over windows; median latency over all ops."""
    rates, pcts, tails = [], [], []
    for lo, hi in _windows(len(lat_ms)):
        ok = sum(i not in failed for i in range(lo, hi))
        rates.append(ok / sum(lat_ms[lo:hi]) * 1e3)
        pct, tail = _tail(lat_ms[lo:hi])
        pcts.append(pct)
        tails.append(tail)
    return {"ops_per_s": statistics.median(rates),
            "op_ms_p50": statistics.median(lat_ms),
            "op_ms_tail": statistics.median(tails),
            "op_ms_tail_percentile": statistics.median(pcts),
            "windows": len(rates)}


def _timed(wl, seconds: float) -> tuple[Tally, dict, dict]:
    """Untraced closed loop for ``seconds`` of wall time: end-to-end metrics.

    The calibration kernel runs between ops at least every CALIBRATE_EVERY_S;
    each op's time is scaled to reference host speed by the mean of the two
    kernel times around it.
    """
    tally = Tally()
    speed = calibrate.HostSpeed(CALIBRATE_EVERY_S)
    start = time.perf_counter()
    with tracing.Tracer(timing=False) as tracer:
        for i in itertools.count():
            run_op(wl, tracer, i, tally)
            done = time.perf_counter() - start >= seconds
            speed.after_op(i + 1, force=done)
            if done:
                break
    failed = {f["op"] for f in tally.failures}
    raw_ms = [x * 1e3 for x in tally.lat]
    adjusted = _latency_metrics([x * f for x, f in zip(raw_ms, speed.factors())], failed)
    raw = _latency_metrics(raw_ms, failed)
    metrics = {k: adjusted[k] for k in ("ops_per_s", "op_ms_p50", "op_ms_tail")}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    extra = {"op_samples": len(raw_ms), "windows": adjusted["windows"],
             "op_ms_tail_percentile": adjusted["op_ms_tail_percentile"],
             "raw": {k: raw[k] for k in ("ops_per_s", "op_ms_p50", "op_ms_tail")},
             "kernel_ms": speed.summary()}
    return tally, metrics, extra


def _traced(wl, name: str, seed: int, seconds: float) -> tuple[Tally, dict, dict]:
    """A fixed number of ops, each run traced and untraced: per-layer metrics.

    The two runs of an op alternate in order, which keeps drift in machine
    speed out of the overhead.  The count is sized from ``seconds`` so the
    exact counters repeat for a seed; a run past three times ``seconds``
    stops early and says so in ``trace.ops``.
    """
    ops = max(1, round(NOMINAL_OPS_PER_S[name] * seconds / 2))
    traced, plain = tracing.Tracer(timing=True), tracing.Tracer(timing=False)
    tallies = {id(traced): Tally(), id(plain): Tally()}
    speed = calibrate.HostSpeed(CALIBRATE_EVERY_S)
    cutoff = time.perf_counter() + 3 * seconds
    done = 0
    while done < ops and time.perf_counter() < cutoff:
        for tracer in ((traced, plain) if done % 2 == 0 else (plain, traced)):
            with tracer:
                run_op(wl, tracer, done, tallies[id(tracer)])
        done += 1
        speed.after_op(done)
    if speed.marks[-1] != done:
        speed.after_op(done, force=True)
    run, replay = tallies[id(traced)], tallies[id(plain)]
    factors = speed.factors()
    metrics = tracing.layer_metrics(traced.spans, wl.shape, factors)
    busy = {kind: sum(x * f for x, f in zip(t.lat, factors))
            for kind, t in (("traced", run), ("untraced", replay))}
    overhead = busy["traced"] / busy["untraced"] - 1
    metrics.update({"trace.ops": done,
                    "trace.ops_per_s_traced": done / busy["traced"],
                    "trace.ops_per_s_untraced": done / busy["untraced"],
                    "trace.overhead_frac": overhead})
    spans_path = OUT_DIR / f"spans-{name}-seed{seed}.jsonl"
    tracing.write_spans(traced.spans, spans_path)
    run.lat += replay.lat
    run.failures += replay.failures
    return run, metrics, {"spans_file": str(spans_path.relative_to(ROOT)),
                          "spans": len(traced.spans), "tracing_overhead_frac": overhead,
                          "kernel_ms": speed.summary()}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the full result (metrics, failures, metadata)."""
    workdir = OUT_DIR / f"work-{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl, setup_times, setup_raw, warm_failures = _setup(workloads.WORKLOADS[name],
                                                           seed, workdir)
        if trace:
            tally, metrics, extra = _traced(wl, name, seed, seconds)
            units = {k: tracing.layer_unit(k) for k in metrics}
        else:
            tally, metrics, extra = _timed(wl, seconds)
            metrics["setup_s"] = statistics.median(setup_times)
            extra["raw"]["setup_s"] = statistics.median(setup_raw)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    summary = wl.summary(tally.digests, tally.head)
    failures = warm_failures + tally.failures
    attempted = len(tally.lat)
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "correct": not failures and summary.get("fraction_matches_reference", True),
        "attempted": attempted, "failed": len(tally.failures),
        "failed_op_frac": len(tally.failures) / attempted,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "setup_s_samples": setup_times, "setup_s_raw_samples": setup_raw,
        **extra, "summary": summary,
        "failures": failures[:20], "metadata": _metadata(),
    }


def _print_human(result: dict):
    w = result["workload"]
    for key, rec in result["metrics"].items():
        print(f"{w:18s} {key:42s} {rec['value']:14.6g} {rec['unit']}")
    extra = {k: result[k] for k in ("attempted", "failed", "failed_op_frac",
                                    "op_samples", "op_ms_tail_percentile", "raw",
                                    "kernel_ms", "tracing_overhead_frac") if k in result}
    print(f"{w:18s} {json.dumps(extra)}")
    print(f"{w:18s} summary {json.dumps(result['summary'])}")
    for fail in result["failures"][:5]:
        print(f"{w:18s} FAILED op {fail['op']} ({fail['kind']}): {fail['problems'][0]}")


def _run_all(args) -> int:
    """Every workload in its own process (so peak RSS is per workload)."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return _run_all(args)
    OUT_DIR.mkdir(exist_ok=True)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(result, indent=2) + "\n")
    _print_human(result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
