"""Reproducible benchmark experiments with flat CSV output.

Every experiment is described by an ExperimentSpec and produces one CSV
row per parameter point (aggregated over seeded trials) plus one summary
row carrying the fitted log-log slope where a scaling law is expected.
Trial generators are derived deterministically from (master_seed, point
index, trial index), trials are run sequentially in a fixed order, and
floats are formatted canonically, so identical specs produce byte
identical files.

Error scoring follows the order-statistic convention: the error quantile
at level theta is the ceil((1-theta) * trials)-th smallest absolute error,
i.e. the smallest epsilon exceeded with empirical frequency at most theta.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .baselines import grid_maximize
from .functions import make_function
from .maximizer import MaximizerParams, _check_h_conf, choose_n, default_h_conf, quantum_maximize
from .qcore import MarkPredicate, QueryLedger
from .reduction import or_trial
from .search import SearchParams, SequenceOracle, find_maximum, qsearch

__all__ = [
    "CSV_COLUMNS",
    "DESCRIPTORS",
    "ErrorQuantile",
    "ExperimentSpec",
    "estimate_error_quantile",
    "fit_loglog_slope",
    "binomial_margin",
    "trial_rng",
    "run_experiment",
    "write_csv",
    "write_plot_data",
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

DESCRIPTORS = (
    "qsearch-scaling",
    "maxfind-success",
    "holder-error-vs-n",
    "holder-queries-vs-eps",
    "baseline-queries-vs-eps",
    "or-reduction",
)


@dataclass(frozen=True)
class ErrorQuantile:
    theta: float
    epsilon_hat: float


def estimate_error_quantile(errors, theta: float = 0.25) -> ErrorQuantile:
    """Smallest realized |error| exceeded with frequency at most theta.

    This is the ceil((1-theta) * trials)-th smallest absolute error.
    """
    arr = np.sort(np.abs(np.asarray(errors, dtype=float)))
    if arr.size == 0:
        raise ValueError("need at least one error sample")
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    k = math.ceil((1.0 - theta) * arr.size)
    return ErrorQuantile(theta=theta, epsilon_hat=float(arr[k - 1]))


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


def binomial_margin(p: float, trials: int, sigmas: float = 3.0) -> float:
    """sigmas standard deviations of a Bernoulli(p) mean over ``trials``."""
    if trials < 1:
        raise ValueError("trials must be positive")
    return sigmas * math.sqrt(p * (1.0 - p) / trials)


def trial_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Deterministic per-trial generator from the master seed and a key path."""
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.PCG64(ss))


@dataclass
class ExperimentSpec:
    """Parameters of one experiment run.

    sizes holds per-point n values (sequence lengths, subdivisions per
    axis, or bit counts depending on the descriptor); eps_values holds
    target accuracies for the accuracy-driven experiments.  patterns only
    applies to or-reduction.
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
    theta: float = 0.25
    search: SearchParams = field(default_factory=SearchParams)
    h_conf: float | None = None
    patterns: tuple[str, ...] = ("zeros", "one", "random")

    def __post_init__(self) -> None:
        if any(n < 1 for n in self.sizes):
            raise ValueError(f"sizes must be positive integers, got {self.sizes}")
        _check_h_conf(self.h_conf)


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


_PLOT_AXES = {
    "qsearch-scaling": ("n", "mean_quantum_queries"),
    "maxfind-success": ("n", "mean_quantum_queries"),
    "holder-error-vs-n": ("n", "error_quantile_theta25"),
    "holder-queries-vs-eps": ("epsilon", "mean_quantum_queries"),
    "baseline-queries-vs-eps": ("epsilon", "mean_classical_queries"),
    "or-reduction": ("n", "mean_quantum_queries"),
}


def write_plot_data(rows: list[dict], path, descriptor: str) -> None:
    """Two-column whitespace-separated point data, gnuplot ready."""
    xcol, ycol = _PLOT_AXES[descriptor]
    with open(path, "w") as fh:
        fh.write(f"# {xcol} {ycol}\n")
        for row in rows:
            if row.get(xcol) in (None, "") or row.get(ycol) in (None, ""):
                continue
            fh.write(f"{_fmt(row[xcol])} {_fmt(row[ycol])}\n")


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


def _summary_row(spec: ExperimentSpec, points) -> dict | None:
    if len(points) < 3:
        return None
    slope, intercept, r2 = fit_loglog_slope(points)
    row = _base_row(spec)
    row.update({"slope": slope, "intercept": intercept, "r2": r2})
    return row


def _exp_qsearch_scaling(spec: ExperimentSpec) -> list[dict]:
    rows = []
    points = []
    for p, size in enumerate(spec.sizes):
        budget = math.ceil(spec.search.budget_factor * math.sqrt(size))
        q_used = np.empty(spec.trials)
        found = 0
        for t in range(spec.trials):
            rng = trial_rng(spec.master_seed, p, t)
            target = int(rng.integers(0, size))
            ledger = QueryLedger()
            pred = MarkPredicate(size, lambda i, m=target: i == m, ledger)
            idx = qsearch(pred, rng, spec.search, budget)
            q_used[t] = ledger.quantum_queries
            found += int(idx == target)
        row = _base_row(spec)
        row.update(
            {
                "function": "single-mark",
                "n": size,
                "success_rate": found / spec.trials,
                "mean_quantum_queries": float(q_used.mean()),
            }
        )
        rows.append(row)
        points.append((size, float(q_used.mean())))
    summary = _summary_row(spec, points)
    if summary is not None:
        summary["function"] = "single-mark"
        rows.append(summary)
    return rows


def _exp_maxfind_success(spec: ExperimentSpec) -> list[dict]:
    rows = []
    points = []
    for p, size in enumerate(spec.sizes):
        truth = (size - 1) / size
        q_used = np.empty(spec.trials)
        c_used = np.empty(spec.trials)
        hits = 0
        for t in range(spec.trials):
            rng = trial_rng(spec.master_seed, p, t)
            values = rng.permutation(size) / size
            oracle = SequenceOracle(values)
            res = find_maximum(oracle, rng, spec.search)
            hits += int(res.value == truth)
            q_used[t] = res.ledger.quantum_queries
            c_used[t] = res.ledger.classical_queries
        row = _base_row(spec)
        row.update(
            {
                "function": "permutation",
                "n": size,
                "success_rate": hits / spec.trials,
                "mean_quantum_queries": float(q_used.mean()),
                "mean_classical_queries": float(c_used.mean()),
            }
        )
        rows.append(row)
        points.append((size, float(q_used.mean())))
    summary = _summary_row(spec, points)
    if summary is not None:
        summary["function"] = "permutation"
        rows.append(summary)
    return rows


def _run_maximize_point(spec: ExperimentSpec, p: int, n: int | None, eps: float | None):
    """Shared trial loop for the quantum maximizer experiments."""
    errors = np.empty(spec.trials)
    q_used = np.empty(spec.trials)
    c_used = np.empty(spec.trials)
    e_used = np.empty(spec.trials)
    hits = 0
    h_conf = spec.h_conf if spec.h_conf is not None else default_h_conf(spec.d, spec.r)
    for t in range(spec.trials):
        inst_rng = trial_rng(spec.master_seed, p, t, 0)
        alg_rng = trial_rng(spec.master_seed, p, t, 1)
        f = make_function(spec.function, spec.d, spec.r, spec.rho, rng=inst_rng)
        params = MaximizerParams(
            epsilon=eps, n_override=n, h_conf=spec.h_conf, search=spec.search
        )
        res = quantum_maximize(f, params, alg_rng)
        n_eff = n if n is not None else choose_n(eps, spec.d, spec.r, spec.rho, spec.h_conf)
        err = abs(res.value - f.known_max)
        errors[t] = err
        bound = (h_conf + 1.0) * (1.0 / n_eff) ** (spec.r + spec.rho)
        hits += int(err <= bound)
        q_used[t] = res.ledger.quantum_queries
        c_used[t] = res.ledger.classical_queries
        e_used[t] = res.ledger.evaluations
    return errors, q_used, c_used, e_used, hits


def _exp_error_vs_n(spec: ExperimentSpec) -> list[dict]:
    rows = []
    points = []
    for p, n in enumerate(spec.sizes):
        errors, q_used, c_used, e_used, hits = _run_maximize_point(spec, p, n, None)
        quant = estimate_error_quantile(errors, spec.theta).epsilon_hat
        row = _base_row(spec)
        row.update(
            {
                "n": n,
                "N": n**spec.d,
                "success_rate": hits / spec.trials,
                "mean_quantum_queries": float(q_used.mean()),
                "mean_classical_queries": float(c_used.mean()),
                "mean_evaluations": float(e_used.mean()),
                "error_quantile_theta25": quant,
            }
        )
        rows.append(row)
        if quant > 0.0:
            points.append((n, quant))
    summary = _summary_row(spec, points)
    if summary is not None:
        rows.append(summary)
    return rows


def _exp_queries_vs_eps(spec: ExperimentSpec) -> list[dict]:
    rows = []
    points = []
    for p, eps in enumerate(spec.eps_values):
        n = choose_n(eps, spec.d, spec.r, spec.rho, spec.h_conf)
        errors, q_used, c_used, e_used, hits = _run_maximize_point(spec, p, None, eps)
        quant = estimate_error_quantile(errors, spec.theta).epsilon_hat
        row = _base_row(spec)
        row.update(
            {
                "n": n,
                "N": n**spec.d,
                "epsilon": eps,
                "success_rate": hits / spec.trials,
                "mean_quantum_queries": float(q_used.mean()),
                "mean_classical_queries": float(c_used.mean()),
                "mean_evaluations": float(e_used.mean()),
                "error_quantile_theta25": quant,
            }
        )
        rows.append(row)
        points.append((eps, float(q_used.mean())))
    summary = _summary_row(spec, points)
    if summary is not None:
        rows.append(summary)
    return rows


def _exp_baseline_queries(spec: ExperimentSpec) -> list[dict]:
    rows = []
    points = []
    for p, eps in enumerate(spec.eps_values):
        n = choose_n(eps, spec.d, spec.r, spec.rho, spec.h_conf)
        inst_rng = trial_rng(spec.master_seed, p, 0, 0)
        f = make_function(spec.function, spec.d, spec.r, spec.rho, rng=inst_rng)
        res = grid_maximize(f, n)
        err = abs(res.value - f.known_max)
        h_conf = spec.h_conf if spec.h_conf is not None else default_h_conf(spec.d, spec.r)
        bound = (h_conf + 1.0) * (1.0 / n) ** (spec.r + spec.rho)
        row = _base_row(spec)
        row.update(
            {
                "n": n,
                "N": n**spec.d,
                "epsilon": eps,
                "trials": 1,
                "success_rate": float(err <= bound),
                "mean_classical_queries": float(res.ledger.classical_queries),
                "mean_evaluations": float(res.ledger.evaluations),
                "error_quantile_theta25": err,
            }
        )
        rows.append(row)
        points.append((eps, float(res.ledger.classical_queries)))
    summary = _summary_row(spec, points)
    if summary is not None:
        summary["trials"] = 1
        rows.append(summary)
    return rows


def _make_bits(pattern: str, size: int, rng: np.random.Generator) -> np.ndarray:
    if pattern == "zeros":
        return np.zeros(size, dtype=int)
    if pattern == "one":
        bits = np.zeros(size, dtype=int)
        bits[int(rng.integers(0, size))] = 1
        return bits
    if pattern == "random":
        return rng.integers(0, 2, size=size)
    if pattern == "ones":
        return np.ones(size, dtype=int)
    raise ValueError(f"unknown bit pattern {pattern!r}")


def _exp_or_reduction(spec: ExperimentSpec) -> list[dict]:
    rows = []
    points = {}
    for pi, pattern in enumerate(spec.patterns):
        for p, size in enumerate(spec.sizes):
            q_used = np.empty(spec.trials)
            c_used = np.empty(spec.trials)
            hits = 0
            for t in range(spec.trials):
                rng = trial_rng(spec.master_seed, pi, p, t)
                bits = _make_bits(pattern, size, rng)
                mparams = MaximizerParams(h_conf=spec.h_conf, search=spec.search)
                bit, res, _ = or_trial(
                    bits, None, mparams, rng, d=spec.d, r=spec.r, rho=spec.rho
                )
                hits += int(bit == int(bits.max()))
                q_used[t] = res.ledger.quantum_queries
                c_used[t] = res.ledger.classical_queries
            row = _base_row(spec)
            row.update(
                {
                    "function": f"bits-{pattern}",
                    "n": size,
                    "success_rate": hits / spec.trials,
                    "mean_quantum_queries": float(q_used.mean()),
                    "mean_classical_queries": float(c_used.mean()),
                }
            )
            rows.append(row)
            points.setdefault(pattern, []).append((size, float(q_used.mean())))
    for pattern in spec.patterns:
        summary = _summary_row(spec, points.get(pattern, []))
        if summary is not None:
            summary["function"] = f"bits-{pattern}"
            rows.append(summary)
    return rows


_RUNNERS = {
    "qsearch-scaling": _exp_qsearch_scaling,
    "maxfind-success": _exp_maxfind_success,
    "holder-error-vs-n": _exp_error_vs_n,
    "holder-queries-vs-eps": _exp_queries_vs_eps,
    "baseline-queries-vs-eps": _exp_baseline_queries,
    "or-reduction": _exp_or_reduction,
}


def run_experiment(spec: ExperimentSpec, out_path=None, plot_path=None) -> list[dict]:
    """Run one experiment; optionally write the CSV and plot data files."""
    if spec.descriptor not in _RUNNERS:
        raise ValueError(
            f"unknown experiment {spec.descriptor!r}; known: {', '.join(DESCRIPTORS)}"
        )
    if spec.trials < 1:
        raise ValueError("trials must be positive")
    needs_sizes = spec.descriptor in (
        "qsearch-scaling",
        "maxfind-success",
        "holder-error-vs-n",
        "or-reduction",
    )
    if needs_sizes and not spec.sizes:
        raise ValueError(f"{spec.descriptor} needs a non-empty sizes list")
    if not needs_sizes and not spec.eps_values:
        raise ValueError(f"{spec.descriptor} needs a non-empty eps_values list")
    rows = _RUNNERS[spec.descriptor](spec)
    if out_path is not None:
        write_csv(rows, out_path)
    if plot_path is not None:
        write_plot_data(rows, plot_path, spec.descriptor)
    return rows
