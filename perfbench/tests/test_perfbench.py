"""Tests of the benchmark's own code.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from qfmax import maximizer, qcore, search  # noqa: E402
from qfmax.functions import make_function  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# self time


def test_self_time_of_nested_spans():
    # qsearch -> grover_iteration -> mask -> local_max_at, then a sibling
    # measure: the shape of the first step of a quantum_maximize search.
    now = [0.0]
    tr = tracing.Tracer(clock=lambda: now[0])

    def at(t, action, name=None):
        now[0] = t
        tr.begin(name) if action == "begin" else tr.end()

    at(0.0, "begin", "search.qsearch")
    at(1.0, "begin", "qcore.grover_iteration")
    at(2.0, "begin", "qcore.mask")
    at(3.0, "begin", "maximizer.local_max_at")
    at(7.0, "end")
    at(8.0, "end")
    at(9.0, "end")
    at(9.5, "begin", "qcore.measure")
    at(10.0, "end")
    at(12.0, "end")

    assert dict(tr.total_s) == {
        "maximizer.local_max_at": 4.0,
        "qcore.mask": 6.0,
        "qcore.grover_iteration": 8.0,
        "qcore.measure": 0.5,
        "search.qsearch": 12.0,
    }
    assert dict(tr.self_s) == {
        "maximizer.local_max_at": 4.0,
        "qcore.mask": 2.0,
        "qcore.grover_iteration": 2.0,
        "qcore.measure": 0.5,
        "search.qsearch": 3.5,
    }
    # Self times partition the root span's interval.
    assert sum(tr.self_s.values()) == tr.total_s["search.qsearch"]
    assert set(tr.calls.values()) == {1}


def test_instrument_sees_every_call_and_restores_names():
    original = qcore.grover_iteration
    tr = tracing.Tracer()
    f = make_function("peak", 2, 0, 1.0)
    params = maximizer.MaximizerParams(n_override=8)
    with tracing.instrument(tr):
        assert search.grover_iteration is not original
        res = maximizer.quantum_maximize(f, params, workloads.bench.trial_rng(5, 0))
    assert tr.calls["qcore.grover_iteration"] == res.ledger.quantum_queries > 0
    assert tr.counts["qcore.amplitude_updates"] == 64 * res.ledger.quantum_queries
    assert tr.counts["maximizer.local_max_at.cells"] == 64
    # The lazy table is built inside the first mask() of a grover step.
    assert tr.total_s["maximizer.local_max_at"] <= tr.total_s["qcore.mask"] + 1e-9
    assert search.grover_iteration is original and qcore.grover_iteration is original
    assert not hasattr(maximizer.local_max_at, "__wrapped__")
    assert not hasattr(qcore.MarkPredicate.mask, "__wrapped__")


# ---------------------------------------------------------------------------
# tail percentile


@pytest.mark.parametrize(
    "count, pct",
    [(19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
     (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_leaves_ten_beyond(count, pct):
    assert run.tail_percentile(count) == pct
    if pct is not None:
        assert count - run.rank_of(pct, count) >= run.TAIL_BEYOND


def test_percentile_at_the_ten_beyond_boundary():
    values = list(range(40, 0, -1))
    tail = run.percentile(values, run.tail_percentile(len(values)))
    assert tail == 30
    assert sum(v > tail for v in values) == 10


def test_every_workload_has_a_tail():
    for wl in workloads.build_workloads().values():
        assert wl.count_solves % wl.cycle == 0
        assert run.workload_tail(wl) is not None


def test_solve_times_are_averaged_over_whole_cycles():
    wl = workloads.build_workloads()["maxfind-sweep"]
    outcomes = [_outcome(solve_s=s) for s in (1.0, 2.0, 3.0, 6.0, 2.0, 2.0, 2.0, 2.0)]
    assert run.cycle_solve_times(wl, outcomes) == [3.0, 2.0]


# ---------------------------------------------------------------------------
# printed metrics against BENCHMARK.json


def _outcome(**kw):
    base = dict(solve_s=0.01, quantum=10, classical=5, evaluations=0, ok=True, quantum_cap=20)
    base.update(kw)
    return workloads.Outcome(**base)


def test_benchmark_json_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.build_workloads())
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}


def test_printed_metrics_match_benchmark_json():
    wl = workloads.build_workloads()["maxfind-sweep"]
    outcomes = [_outcome() for _ in range(wl.count_solves)]
    e2e = run.end_to_end_metrics(wl, outcomes, setup_s=0.5)
    assert {k: u for k, (_, u) in e2e.items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layer = run.per_layer_metrics(tracing.Tracer(), outcomes, traced_s=2.0, untraced_s=1.0)
    assert {k: u for k, (_, u) in layer.items()} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}


# ---------------------------------------------------------------------------
# correctness gate and determinism


def test_gate_rejects_misses_and_bad_ledgers():
    good = [_outcome() for _ in range(100)]
    assert workloads.check(good, failed=0) == []
    assert workloads.check(good, failed=1)
    assert workloads.check([_outcome(ok=i < 60) for i in range(100)], failed=0)
    assert workloads.check(good[:-1] + [_outcome(quantum=21)], failed=0)
    assert workloads.check(good[:-1] + [_outcome(classical=-1)], failed=0)
    # 3 sigma below 0.75 over 100 solves is 62.0 successes.
    assert workloads.success_floor(100) == pytest.approx(75 - 3 * (0.1875 * 100) ** 0.5)


@pytest.mark.parametrize("name", ["grid-d2-r0", "cosprod-d3-r2", "maxfind-sweep", "or-64"])
def test_same_seed_same_counts_and_second_seed_passes(name):
    wl = workloads.build_workloads()[name]
    short = dataclasses.replace(wl, count_solves=4 * wl.cycle)
    first, _, failed = run.run_stream(short, seed=11)
    again, _, _ = run.run_stream(short, seed=11)
    assert failed == 0
    assert [o.counts() for o in first] == [o.counts() for o in again]
    other, _, failed = run.run_stream(short, seed=12)
    assert workloads.check(other, failed) == []


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", "grid-d2-r0",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no qfmax sources" in proc.stderr
