"""Reproducible benchmark experiments with flat CSV output.

Every experiment is described by an ExperimentSpec, checked when built.
Its descriptor's EXPERIMENTS entry runs the seeded trials of one point at
a time, and each point becomes one CSV row aggregated over its trials.
Each function group (one per bit pattern in or-reduction, one otherwise)
then gets one summary row with the log-log slope fitted over the group's
rows whose y is positive, on the (x, y) columns the entry names; with
fewer than three such rows, or with all of them at one x, the group has
no summary.  Each entry also names the spec fields its runner reads,
and the command line offers exactly those as flags.  Trial generators are
derived deterministically from (master_seed, point index, trial index),
trials are run sequentially in a fixed order, and floats are formatted
canonically, so identical specs produce byte identical files.

Error scoring follows the order-statistic convention: the error quantile
at level theta = 1/4 (column error_quantile_theta25) is the
ceil(3/4 * trials)-th smallest absolute error, i.e. the smallest epsilon
exceeded with empirical frequency at most 1/4.  A maximizer trial
succeeds when its error is within maximizer._error_bound, the accuracy
its n promises.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .baselines import grid_maximize
from .functions import available_functions, make_function
from .holder import DEFAULT_MAX_CUBES, _check_class, build_grid
from .maximizer import MaximizerParams, _error_bound, choose_n, quantum_maximize
from .qcore import MarkPredicate, QueryLedger
from .reduction import or_trial
from .search import SearchParams, SequenceOracle, find_maximum, qsearch

__all__ = [
    "CSV_COLUMNS",
    "EXPERIMENTS",
    "ExperimentSpec",
    "estimate_error_quantile",
    "fit_loglog_slope",
    "binomial_margin",
    "trial_rng",
    "run_experiment",
    "write_csv",
]

CSV_COLUMNS = (
    "experiment",
    "function",
    "d",
    "r",
    "rho",
    "n",
    "N",
    "epsilon",
    "trials",
    "master_seed",
    "success_rate",
    "mean_quantum_queries",
    "mean_classical_queries",
    "mean_evaluations",
    "error_quantile_theta25",
    "slope",
    "intercept",
    "r2",
)

_BIT_PATTERNS = {
    "zeros": lambda size, rng: np.zeros(size, dtype=int),
    "one": lambda size, rng: (np.arange(size) == rng.integers(0, size)).astype(int),
    "random": lambda size, rng: rng.integers(0, 2, size=size),
    "ones": lambda size, rng: np.ones(size, dtype=int),
}


def estimate_error_quantile(errors) -> float:
    """Smallest realized |error| exceeded with frequency at most 1/4.

    This is the ceil(3/4 * trials)-th smallest absolute error.
    """
    arr = np.sort(np.abs(np.asarray(errors, dtype=float)))
    if arr.size == 0:
        raise ValueError("need at least one error sample")
    k = math.ceil(0.75 * arr.size)
    return float(arr[k - 1])


def fit_loglog_slope(points) -> tuple[float, float, float]:
    """Least-squares line through (log x, log y): returns (slope, intercept, r2)."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
        raise ValueError("need at least three (x, y) points")
    if (pts <= 0.0).any():
        raise ValueError("log-log fit needs strictly positive coordinates")
    if np.unique(pts[:, 0]).size < 2:
        raise ValueError("x coordinates must not all coincide")
    lx = np.log(pts[:, 0])
    ly = np.log(pts[:, 1])
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_res = float((resid**2).sum())
    ss_tot = float(((ly - ly.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


def binomial_margin(p: float, trials: int) -> float:
    """Three standard deviations of a Bernoulli(p) mean over ``trials``."""
    if trials < 1:
        raise ValueError("trials must be positive")
    return 3.0 * math.sqrt(p * (1.0 - p) / trials)


def trial_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Deterministic per-trial generator from the master seed and a key path."""
    if master_seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {master_seed}")
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.PCG64(ss))


@dataclass
class ExperimentSpec:
    """Parameters of one experiment run.

    sizes holds per-point n values (sequence lengths, subdivisions per
    axis, or bit counts depending on the descriptor); eps_values holds
    target accuracies for the accuracy-driven experiments, each resolved
    through choose_n when the spec is built, so a point past the grid cap
    is refused before any trial runs; holder-error-vs-n, whose sizes are
    grid sizes, refuses an n^d past the cap before its first trial.
    function, read by the holder-* and baseline-* descriptors, must be in
    available_functions() for every descriptor.  patterns only applies to
    or-reduction: distinct names among zeros, one, random, ones.
    """

    descriptor: str
    function: str = "peak"
    d: int = 1
    r: int = 0
    rho: float = 1.0
    sizes: tuple[int, ...] = ()
    eps_values: tuple[float, ...] = ()
    trials: int = 200
    master_seed: int = 1
    search: SearchParams = field(default_factory=SearchParams)
    patterns: tuple[str, ...] = ("zeros", "one", "random")

    def __post_init__(self) -> None:
        if not all(isinstance(n, numbers.Integral) and n >= 1 for n in self.sizes):
            raise ValueError(f"sizes must be positive integers, got {self.sizes}")
        if any(n > DEFAULT_MAX_CUBES for n in self.sizes):
            raise ValueError(f"sizes must be at most {DEFAULT_MAX_CUBES}, got {self.sizes}")
        _check_class(self.d, self.r, self.rho)
        for eps in self.eps_values:
            choose_n(eps, self.d, self.r, self.rho)
        names = set(self.patterns)
        if not names or len(names) < len(self.patterns) or not names <= _BIT_PATTERNS.keys():
            raise ValueError(
                f"patterns must be distinct names among {', '.join(_BIT_PATTERNS)}, "
                f"got {','.join(self.patterns)!r}"
            )
        if self.function not in available_functions():
            raise ValueError(
                f"unknown function {self.function!r}; known: {', '.join(available_functions())}"
            )
        if self.descriptor not in EXPERIMENTS:
            raise ValueError(
                f"unknown experiment {self.descriptor!r}; known: {', '.join(EXPERIMENTS)}"
            )
        if not isinstance(self.trials, numbers.Integral) or self.trials < 1:
            raise ValueError(f"trials must be a positive integer, got {self.trials!r}")
        points = "sizes" if EXPERIMENTS[self.descriptor].x == "n" else "eps_values"
        if not getattr(self, points):
            raise ValueError(f"{self.descriptor} needs a non-empty {points} list")


def _fmt(v) -> str:
    if v is None or v == "":
        return ""
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".12g")


def write_csv(rows: list[dict], path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(CSV_COLUMNS)
        for row in rows:
            w.writerow([_fmt(row.get(col)) for col in CSV_COLUMNS])


def _base_row(spec: ExperimentSpec) -> dict:
    return {
        "experiment": spec.descriptor,
        "function": spec.function,
        "d": spec.d,
        "r": spec.r,
        "rho": spec.rho,
        "trials": spec.trials,
        "master_seed": spec.master_seed,
    }


_LEDGER_MEANS = {
    "mean_quantum_queries": "quantum_queries",
    "mean_classical_queries": "classical_queries",
    "mean_evaluations": "evaluations",
}


def _point_row(spec: ExperimentSpec, fields: dict, outcomes: list, columns) -> dict:
    """One CSV row from a point's fixed fields and its (ledger, hit, error) trials.

    Every row reports success_rate; columns names which of the ledger
    means and the error quantile it reports as well.
    """
    ledgers, hits, errors = zip(*outcomes)
    trials = len(outcomes)
    row = {**_base_row(spec), "trials": trials, **fields}
    row["success_rate"] = sum(int(hit) for hit in hits) / trials
    for col in columns:
        if col in _LEDGER_MEANS:
            counts = np.array([getattr(lg, _LEDGER_MEANS[col]) for lg in ledgers], dtype=float)
            row[col] = float(counts.mean())
        else:
            row[col] = estimate_error_quantile(errors)
    return row


def _summary_rows(spec: ExperimentSpec, rows: list[dict]) -> list[dict]:
    """One log-log fit per function group, over its rows with positive y."""
    entry = EXPERIMENTS[spec.descriptor]
    groups: dict[str, list[dict]] = {}
    for row in rows:
        groups.setdefault(row["function"], []).append(row)
    summaries = []
    for function, group in groups.items():
        points = [(row[entry.x], row[entry.y]) for row in group if row[entry.y] > 0.0]
        if len(points) >= 3 and len({x for x, _ in points}) >= 2:
            slope, intercept, r2 = fit_loglog_slope(points)
            summary = {**_base_row(spec), "function": function, "trials": group[0]["trials"]}
            summary.update({"slope": slope, "intercept": intercept, "r2": r2})
            summaries.append(summary)
    return summaries


# Each descriptor yields, per point, (fixed fields, per-trial outcomes,
# reported columns) for _point_row.

_QUANTUM_CLASSICAL = ("mean_quantum_queries", "mean_classical_queries")
_MAXIMIZER_COLUMNS = _QUANTUM_CLASSICAL + ("mean_evaluations", "error_quantile_theta25")


def _qsearch_scaling(spec: ExperimentSpec):
    for p, size in enumerate(spec.sizes):
        budget = spec.search.budget(size)
        outcomes = []
        for t in range(spec.trials):
            rng = trial_rng(spec.master_seed, p, t)
            target = int(rng.integers(0, size))
            ledger = QueryLedger()
            pred = MarkPredicate(size, np.arange(size) == target, ledger)
            outcomes.append((ledger, qsearch(pred, rng, budget) == target, None))
        yield {"function": "single-mark", "n": size}, outcomes, ("mean_quantum_queries",)


def _maxfind_success(spec: ExperimentSpec):
    for p, size in enumerate(spec.sizes):
        outcomes = []
        for t in range(spec.trials):
            rng = trial_rng(spec.master_seed, p, t)
            res = find_maximum(SequenceOracle(rng.permutation(size) / size), rng, spec.search)
            outcomes.append((res.ledger, res.value == (size - 1) / size, None))
        yield {"function": "permutation", "n": size}, outcomes, _QUANTUM_CLASSICAL


def _maximize_trials(spec: ExperimentSpec, p: int, n: int) -> list:
    """The quantum maximizer's trials at point p, on n subdivisions per axis."""
    bound = _error_bound(n, spec.d, spec.r, spec.rho)
    params = MaximizerParams(n_override=n, search=spec.search)
    outcomes = []
    for t in range(spec.trials):
        inst_rng = trial_rng(spec.master_seed, p, t, 0)
        f = make_function(spec.function, spec.d, spec.r, spec.rho, rng=inst_rng)
        res = quantum_maximize(f, params, trial_rng(spec.master_seed, p, t, 1))
        err = abs(res.value - f.known_max)
        outcomes.append((res.ledger, err <= bound, err))
    return outcomes


def _error_vs_n(spec: ExperimentSpec):
    # each n is a grid size here, so every n^d past the cap is refused before any trial
    grids = [build_grid(n, spec.d) for n in spec.sizes]
    for p, grid in enumerate(grids):
        yield {"n": grid.n, "N": grid.N}, _maximize_trials(spec, p, grid.n), _MAXIMIZER_COLUMNS


def _queries_vs_eps(spec: ExperimentSpec):
    for p, eps in enumerate(spec.eps_values):
        n = choose_n(eps, spec.d, spec.r, spec.rho)
        fields = {"n": n, "N": n**spec.d, "epsilon": eps}
        yield fields, _maximize_trials(spec, p, n), _MAXIMIZER_COLUMNS


def _baseline_queries(spec: ExperimentSpec):
    for p, eps in enumerate(spec.eps_values):
        n = choose_n(eps, spec.d, spec.r, spec.rho)
        inst_rng = trial_rng(spec.master_seed, p, 0, 0)
        f = make_function(spec.function, spec.d, spec.r, spec.rho, rng=inst_rng)
        res = grid_maximize(f, n)
        err = abs(res.value - f.known_max)
        fields = {"n": n, "N": n**spec.d, "epsilon": eps}
        bound = _error_bound(n, spec.d, spec.r, spec.rho)
        # one classical grid scan: no quantum column
        yield fields, [(res.ledger, err <= bound, err)], _MAXIMIZER_COLUMNS[1:]


def _or_reduction(spec: ExperimentSpec):
    for pi, pattern in enumerate(spec.patterns):
        for p, size in enumerate(spec.sizes):
            outcomes = []
            for t in range(spec.trials):
                rng = trial_rng(spec.master_seed, pi, p, t)
                bits = _BIT_PATTERNS[pattern](size, rng)
                bit, res, _ = or_trial(bits, None, spec.search, rng, spec.d, spec.r, spec.rho)
                outcomes.append((res.ledger, bit == int(bits.max()), None))
            yield {"function": f"bits-{pattern}", "n": size}, outcomes, _QUANTUM_CLASSICAL


class Experiment(NamedTuple):
    """A descriptor's runner, fitted (x, y) columns, read fields, help line and default points.

    reads names every ExperimentSpec field and SearchParams field the
    runner reads, and no other; points is the default --n or --eps list.
    """

    run: Callable[[ExperimentSpec], Iterator]
    x: str  # "n": the points are spec.sizes; "epsilon": spec.eps_values
    y: str
    reads: tuple[str, ...]
    help: str
    points: tuple


_TRIALS = ("trials", "master_seed")
_SEARCH = ("budget_factor", "boost_rounds")
_CLASS = ("function", "d", "r", "rho")
_EPS = (0.2, 0.1, 0.05, 0.02, 0.01)

EXPERIMENTS = {
    "qsearch-scaling": Experiment(
        _qsearch_scaling, "n", "mean_quantum_queries", ("sizes", *_TRIALS, "budget_factor"),
        "query scaling of the amplified search", tuple(2**k for k in range(4, 13)),
    ),
    "maxfind-success": Experiment(
        _maxfind_success, "n", "mean_quantum_queries", ("sizes", *_TRIALS, *_SEARCH),
        "success rate of sequence maximum finding", (16, 64, 256, 1024),
    ),
    "holder-error-vs-n": Experiment(
        _error_vs_n, "n", "error_quantile_theta25", (*_CLASS, "sizes", *_TRIALS, *_SEARCH),
        "error quantile of the maximizer against n", (4, 8, 16, 32, 64),
    ),
    "holder-queries-vs-eps": Experiment(
        _queries_vs_eps, "epsilon", "mean_quantum_queries",
        (*_CLASS, "eps_values", *_TRIALS, *_SEARCH),
        "quantum queries of the maximizer against epsilon", _EPS,
    ),
    # one grid scan per point, of trial 0's instance: no trials, no search
    "baseline-queries-vs-eps": Experiment(
        _baseline_queries, "epsilon", "mean_classical_queries",
        (*_CLASS, "eps_values", "master_seed"),
        "classical queries of a grid scan against epsilon", _EPS,
    ),
    "or-reduction": Experiment(
        _or_reduction, "n", "mean_quantum_queries",
        ("d", "r", "rho", "sizes", "patterns", *_TRIALS, *_SEARCH),
        "OR-of-bits decision via the maximizer", (64,),
    ),
}


def run_experiment(spec: ExperimentSpec, out_path=None) -> list[dict]:
    """Run one experiment; optionally write its CSV file."""
    rows = [_point_row(spec, *point) for point in EXPERIMENTS[spec.descriptor].run(spec)]
    rows += _summary_rows(spec, rows)
    if out_path is not None:
        write_csv(rows, out_path)
    return rows
