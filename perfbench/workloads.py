"""The benchmark's workloads: seeded inputs, one library call per solve, checks.

Solve i of a workload draws its input from bench.trial_rng(seed, i, 0) and
runs the algorithm on bench.trial_rng(seed, i, 1), so a solve depends only
on (seed, i) and any prefix of a run repeats exactly.  Library functions
are called through their modules (maximizer.quantum_maximize, not a name
imported here) so that tracing.instrument() sees every call.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from qfmax import bench, functions, holder, maximizer, reduction, search

# Two boosted rounds of a threshold search that succeeds with probability
# above one half each: the documented success probability of every solve.
GUARANTEE = 0.75


@dataclass(frozen=True)
class Outcome:
    """What one solve cost and whether it met its documented guarantee."""

    solve_s: float
    quantum: int
    classical: int
    evaluations: int
    ok: bool
    quantum_cap: int

    def counts(self) -> tuple:
        """Everything but the wall time; equal for equal (seed, index)."""
        return (self.quantum, self.classical, self.evaluations, self.ok, self.quantum_cap)


@dataclass(frozen=True)
class Workload:
    """A seeded stream of solves.

    cycle is the number of solves after which the round-robin input shapes
    repeat; runs and throughput windows hold whole cycles.  count_solves is
    the fixed prefix over which ledger means and success rate are taken and
    which a traced run replays; every run completes at least this many.
    prepare builds what a user needs before a first solve (import-time and
    instance-independent caches) without solving.
    """

    name: str
    cycle: int
    count_solves: int
    prepare: Callable[[], object]
    solve: Callable[[int, int], Outcome]


def quantum_cap(N: int) -> int:
    """Most quantum queries one maximum search over N items may charge."""
    p = search.SearchParams()
    return p.boost_rounds * math.ceil(p.budget_factor * math.sqrt(N))


def _outcome(solve_s: float, ledger, ok: bool, cap: int) -> Outcome:
    return Outcome(
        solve_s=solve_s,
        quantum=ledger.quantum_queries,
        classical=ledger.classical_queries,
        evaluations=ledger.evaluations,
        ok=bool(ok),
        quantum_cap=cap,
    )


def _holder_workload(name, function, d, r, rho, eps, count_solves) -> Workload:
    n = maximizer.choose_n(eps, d, r, rho)
    tolerance = (maximizer.default_h_conf(d, r) + 1.0) * (1.0 / n) ** (r + rho)
    cap = quantum_cap(n**d)
    params = maximizer.MaximizerParams(epsilon=eps)

    def prepare():
        return functions.make_function(function, d, r, rho)

    def solve(seed: int, i: int) -> Outcome:
        f = functions.make_function(function, d, r, rho, rng=bench.trial_rng(seed, i, 0))
        rng = bench.trial_rng(seed, i, 1)
        t0 = time.perf_counter()
        res = maximizer.quantum_maximize(f, params, rng)
        solve_s = time.perf_counter() - t0
        return _outcome(solve_s, res.ledger, abs(res.value - f.known_max) <= tolerance, cap)

    return Workload(name, 1, count_solves, prepare, solve)


_MAXFIND_SIZES = (16, 64, 256, 1024)


def _maxfind_workload(count_solves) -> Workload:
    def prepare():
        return search.SequenceOracle(np.arange(_MAXFIND_SIZES[0]) / _MAXFIND_SIZES[0])

    def solve(seed: int, i: int) -> Outcome:
        n = _MAXFIND_SIZES[i % len(_MAXFIND_SIZES)]
        values = bench.trial_rng(seed, i, 0).permutation(n) / n
        oracle = search.SequenceOracle(values)
        rng = bench.trial_rng(seed, i, 1)
        t0 = time.perf_counter()
        res = search.find_maximum(oracle, rng)
        solve_s = time.perf_counter() - t0
        return _outcome(solve_s, res.ledger, res.value == values.max(), quantum_cap(n))

    return Workload("maxfind-sweep", len(_MAXFIND_SIZES), count_solves, prepare, solve)


_OR_BITS = 64
_OR_PATTERNS = ("zeros", "one", "random")


def _or_bits(pattern: str, rng: np.random.Generator) -> np.ndarray:
    bits = np.zeros(_OR_BITS, dtype=int)
    if pattern == "one":
        bits[rng.integers(_OR_BITS)] = 1
    elif pattern == "random":
        bits = rng.integers(0, 2, size=_OR_BITS)
    return bits


def _or_workload(count_solves) -> Workload:
    def prepare():
        return holder.make_bump_family(_OR_BITS, 1, 0, 1.0, None)

    def solve(seed: int, i: int) -> Outcome:
        pattern = _OR_PATTERNS[i % len(_OR_PATTERNS)]
        bits = _or_bits(pattern, bench.trial_rng(seed, i, 0))
        rng = bench.trial_rng(seed, i, 1)
        t0 = time.perf_counter()
        bit, res, eps1 = reduction.or_trial(bits, None, None, rng)
        solve_s = time.perf_counter() - t0
        # or_trial runs the maximizer at epsilon = eps1 / 4 on a d=1 grid.
        cap = quantum_cap(maximizer.choose_n(eps1 / 4.0, 1, 0, 1.0))
        return _outcome(solve_s, res.ledger, bit == int(bits.any()), cap)

    return Workload("or-64", len(_OR_PATTERNS), count_solves, prepare, solve)


def build_workloads() -> dict[str, Workload]:
    """The workloads by name; see BENCHMARK.json for why each was chosen."""
    wls = (
        _holder_workload("grid-d2-r0", "peak", 2, 0, 1.0, 0.02, count_solves=40),
        _holder_workload("cosprod-d3-r2", "cosprod", 3, 2, 1.0, 3e-3, count_solves=40),
        _maxfind_workload(count_solves=400),
        _or_workload(count_solves=201),
    )
    return {wl.name: wl for wl in wls}


def success_floor(solves: int) -> float:
    """Fewest successes a correct program may show, 3 sigma below GUARANTEE."""
    return solves * (GUARANTEE - bench.binomial_margin(GUARANTEE, solves))


def check(outcomes: list[Outcome], failed: int) -> list[str]:
    """Problems with a run's solves; an empty list means the gate passed."""
    problems = []
    if failed:
        problems.append(f"{failed} solves raised")
    for i, o in enumerate(outcomes):
        if min(o.quantum, o.classical, o.evaluations) < 0:
            problems.append(f"solve {i}: negative ledger count {o.counts()}")
        if o.quantum > o.quantum_cap:
            problems.append(f"solve {i}: {o.quantum} quantum queries > cap {o.quantum_cap}")
    hits = sum(o.ok for o in outcomes)
    floor = success_floor(len(outcomes)) if outcomes else 1.0
    if hits < floor:
        problems.append(f"{hits} of {len(outcomes)} solves met the guarantee < floor {floor:.1f}")
    return problems
