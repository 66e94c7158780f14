"""Benchmark of qfmax: seeded workloads run through the public library API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 runs solves of the workload for S seconds, and at least the
workload's fixed count prefix, checks every answer, and prints the
end-to-end metrics.  --trace 1 runs the count prefix with a span around
every call into the library's layers, replays the same solves untraced,
requires both to agree, and prints the per-layer metrics and the tracing
overhead.  Human-readable lines come first; the last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.

Exit status: 0 when every check passed, 1 when a check failed (the result
line is still printed), 2 on bad usage or when the qfmax sources are not
next to this directory (nothing is printed on stdout).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# numpy reads these at import; pinned so the process runs one thread.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

SETUP_SAMPLES = 7

# Percentiles a tail may be reported at.  A workload's tail percentile is
# the highest of these that leaves at least TAIL_BEYOND samples above it in
# every run.  It is fixed by the workload's count prefix, which every run
# completes, so the same percentile is compared across runs and commits.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_BEYOND = 10


def _import_qfmax():
    """Import qfmax from the sources next to this directory, never another copy."""
    if not (SRC / "qfmax" / "__init__.py").is_file():
        raise ImportError(f"no qfmax sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import qfmax

    if Path(qfmax.__file__).resolve().parent != (SRC / "qfmax").resolve():
        raise ImportError(f"imported qfmax from {qfmax.__file__}, not from {SRC}")


def machine_identity() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def measure_setup(workload: str) -> float:
    """Median seconds from starting a fresh process to it being ready to solve."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with status {proc.returncode}")
        samples.append(ready - t0)
    return statistics.median(samples)


def run_stream(wl, seed: int, seconds: float = 0.0, tracer=None):
    """Solve 0, 1, ... until count_solves are done and seconds have passed.

    Stops on a whole cycle.  Returns (outcomes, stamps, failed) where
    stamps[i] is the clock when solve i started and stamps[-1] when the
    last ended.
    """
    outcomes, failed = [], 0
    stamps = [time.perf_counter()]
    i = 0
    while i < wl.count_solves or i % wl.cycle or stamps[-1] - stamps[0] < seconds:
        try:
            with tracer.span("bench.loop") if tracer is not None else nullcontext():
                outcomes.append(wl.solve(seed, i))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            failed += 1
        i += 1
        stamps.append(time.perf_counter())
    return outcomes, stamps, failed


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def cycle_solve_times(wl, outcomes) -> list[float]:
    """Mean library-call seconds per solve of each whole cycle.

    A cycle holds one solve of each input shape, so these are samples of
    one distribution; the median of single solves would instead fall
    between the modes of a mixed workload's sizes or patterns.
    """
    times = [o.solve_s for o in outcomes]
    return [statistics.fmean(times[k : k + wl.cycle]) for k in range(0, len(times), wl.cycle)]


def rank_of(pct: float, count: int) -> int:
    """1-based nearest rank of percentile pct among count samples."""
    return max(1, math.ceil(pct / 100.0 * count - 1e-9))


def tail_percentile(count: int) -> float | None:
    """Highest ladder percentile with at least TAIL_BEYOND of count samples above it."""
    best = None
    for pct in TAIL_LADDER:
        if count - rank_of(pct, count) >= TAIL_BEYOND:
            best = pct
    return best


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile of values."""
    ordered = sorted(values)
    return ordered[rank_of(pct, len(ordered)) - 1]


def workload_tail(wl) -> float:
    """The tail percentile of a workload's per-cycle solve times."""
    return tail_percentile(wl.count_solves // wl.cycle)


def end_to_end_metrics(wl, outcomes, setup_s: float) -> dict:
    """Every end-to-end metric of BENCHMARK.json, name -> (value, unit)."""
    prefix = outcomes[: wl.count_solves]
    times = cycle_solve_times(wl, outcomes)
    return {
        "setup_s": (setup_s, "s"),
        "solve_s_tail": (percentile(times, workload_tail(wl)), "s"),
        "quantum_queries_per_solve": (_mean([o.quantum for o in prefix]), "count"),
        "classical_queries_per_solve": (_mean([o.classical for o in prefix]), "count"),
        "success_rate": (_mean([o.ok for o in prefix]), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer_metrics(tracer, outcomes, traced_s: float, untraced_s: float) -> dict:
    """Every per-layer metric, name -> (value, unit), totals over the traced solves."""
    out = {}
    for name in [t[0] for t in tracing.span_targets()] + ["bench.loop"]:
        out[f"{name}.calls"] = (tracer.calls[name], "count")
        out[f"{name}.self_s"] = (tracer.self_s[name], "s")
    counts = tracer.counts
    measurements = tracer.calls["qcore.measure"]
    out.update(
        {
            "qcore.amplitude_updates": (counts["qcore.amplitude_updates"], "count"),
            "qcore.amplitude_bytes_computed": (16 * counts["qcore.amplitude_updates"], "bytes"),
            "search.hit_rate": (counts["search.found"] / measurements if measurements else 0.0, "ratio"),
            "search.budget_exhausted": (counts["search.budget_exhausted"], "count"),
            "maximizer.local_max_at.cells": (counts["maximizer.local_max_at.cells"], "count"),
            "holder.taylor_tableau.rows": (counts["holder.taylor_tableau.rows"], "count"),
            "ledger.evaluations_per_solve": (_mean([o.evaluations for o in outcomes]), "count"),
            "bench.trace_overhead_s": (traced_s - untraced_s, "s"),
            "bench.trace_overhead_share": ((traced_s - untraced_s) / untraced_s, "ratio"),
        }
    )
    return out


def _untraced(wl, seed: int, seconds: float):
    """Timed run; returns (gated outcomes, attempted, failed, metrics, problems)."""
    outcomes, stamps, failed = run_stream(wl, seed, seconds)
    metrics = end_to_end_metrics(wl, outcomes, measure_setup(wl.name))
    attempted = len(outcomes) + failed
    times = cycle_solve_times(wl, outcomes)
    print(f"solves {attempted}, count prefix {wl.count_solves}")
    print(f"solve_s_p50 and solve_s_tail (p{workload_tail(wl):g}) are over {len(times)} cycles"
          f" of {wl.cycle} solves")
    # Reported but not in BENCHMARK.json; perfbench/README.md says why.
    print(f"solves_per_s = {len(outcomes) / (stamps[-1] - stamps[0])!r} 1/s")
    print(f"solve_s_p50 = {statistics.median(times)!r} s")
    print(f"evaluations_per_solve = {_mean([o.evaluations for o in outcomes[: wl.count_solves]])!r} count")
    print(f"error_share = {failed / attempted!r} ratio")
    return outcomes, attempted, failed, metrics, []


def _traced(wl, seed: int):
    """Traced count prefix and its untraced replay; same return shape as _untraced."""
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        traced, t_stamps, t_failed = run_stream(wl, seed, tracer=tracer)
    replay, u_stamps, u_failed = run_stream(wl, seed)
    traced_s = t_stamps[-1] - t_stamps[0]
    untraced_s = u_stamps[-1] - u_stamps[0]
    problems = []
    if u_failed or [o.counts() for o in traced] != [o.counts() for o in replay]:
        problems.append("traced solves differ from the untraced replay of the same seed")
    quantum = sum(o.quantum for o in traced)
    if tracer.calls["qcore.grover_iteration"] != quantum:
        problems.append(
            f"traced {tracer.calls['qcore.grover_iteration']} grover_iteration calls"
            f" != {quantum} ledger quantum queries"
        )
    print(f"traced {len(traced)} solves in {traced_s:.3f} s, untraced replay {untraced_s:.3f} s")
    metrics = per_layer_metrics(tracer, traced, traced_s, untraced_s)
    attempted = len(traced) + len(replay) + t_failed + u_failed
    return traced, attempted, t_failed + u_failed, metrics, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help="internal: time set-up only")
    args = ap.parse_args(argv)
    try:
        _import_qfmax()
    except ImportError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 2
    from workloads import build_workloads, check

    workloads = build_workloads()
    if args.workload not in workloads:
        print(f"perfbench: error: unknown workload {args.workload!r}; known: {', '.join(workloads)}",
              file=sys.stderr)
        return 2
    wl = workloads[args.workload]
    wl.prepare()
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    print(f"perfbench {wl.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("machine " + json.dumps(machine_identity(), sort_keys=True))
    if args.trace:
        outcomes, attempted, failed, metrics, problems = _traced(wl, args.seed)
    else:
        outcomes, attempted, failed, metrics, problems = _untraced(wl, args.seed, args.seconds)
    problems = check(outcomes, failed) + problems
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    for problem in problems:
        print(f"check failed: {problem}")
    print("checks passed" if not problems else f"{len(problems)} checks failed")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if not problems else 1


if __name__ == "__main__":
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.exit(main())
