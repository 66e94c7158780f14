"""Experiment harness: quantiles, slope fits, CSV reproducibility."""

import dataclasses
import math

import numpy as np
import pytest

from qfmax.bench import (
    CSV_COLUMNS,
    EXPERIMENTS,
    ExperimentSpec,
    binomial_margin,
    estimate_error_quantile,
    fit_loglog_slope,
    run_experiment,
    trial_rng,
    write_csv,
)
from qfmax.search import SearchParams


def test_quantile_all_zero_errors():
    assert estimate_error_quantile([0, 0, 0, 0]) == 0.0


def test_quantile_order_statistic_rule():
    # exceedance of 3 within {1,2,3,4} is {4}: fraction 1/4 <= theta = 1/4
    assert estimate_error_quantile([4, 1, 3, 2]) == 3.0
    assert estimate_error_quantile([-4, 1, -3, 2]) == 3.0


def test_quantile_uniform_samples():
    rng = np.random.default_rng(17)
    assert abs(estimate_error_quantile(rng.random(1000)) - 0.75) < 0.05


def test_quantile_validation():
    with pytest.raises(ValueError):
        estimate_error_quantile([])


def test_slope_exact_square_law():
    x = np.array([1.0, 2.0, 4.0, 8.0])
    slope, intercept, r2 = fit_loglog_slope(np.c_[x, x**2])
    assert abs(slope - 2.0) < 1e-10
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_slope_recovers_prefactor():
    x = np.array([1.0, 3.0, 9.0, 27.0])
    slope, intercept, _ = fit_loglog_slope(np.c_[x, 5.0 * np.sqrt(x)])
    assert slope == pytest.approx(0.5, abs=1e-12)
    assert intercept == pytest.approx(math.log(5.0), abs=1e-12)


def test_slope_constant_series():
    x = np.array([1.0, 2.0, 4.0])
    slope, _, _ = fit_loglog_slope(np.c_[x, np.full(3, 2.5)])
    assert slope == pytest.approx(0.0, abs=1e-12)


def test_slope_validation():
    with pytest.raises(ValueError):
        fit_loglog_slope([(1.0, 1.0), (2.0, 2.0)])
    with pytest.raises(ValueError):
        fit_loglog_slope([(1.0, 1.0), (2.0, 0.0), (3.0, 2.0)])
    with pytest.raises(ValueError):
        fit_loglog_slope([(2.0, 1.0), (2.0, 2.0), (2.0, 3.0)])


def test_binomial_margin_values():
    assert binomial_margin(0.5, 2000) == pytest.approx(3 * math.sqrt(0.25 / 2000))
    with pytest.raises(ValueError):
        binomial_margin(0.5, 0)


def test_trial_rng_deterministic_and_keyed():
    a = trial_rng(7, 1, 2).random(4)
    b = trial_rng(7, 1, 2).random(4)
    c = trial_rng(7, 1, 3).random(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_run_experiment_validation():
    with pytest.raises(ValueError):
        run_experiment(ExperimentSpec("no-such-thing", sizes=(4,)))
    with pytest.raises(ValueError):
        run_experiment(ExperimentSpec("qsearch-scaling"))
    with pytest.raises(ValueError):
        run_experiment(ExperimentSpec("holder-queries-vs-eps", function="peak"))
    with pytest.raises(ValueError):
        run_experiment(
            ExperimentSpec("holder-error-vs-n", function="missing", sizes=(4,), trials=2)
        )


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"sizes": (2.5,)}, "sizes"),
        ({"sizes": (16,), "trials": 2.5}, "trials"),
        ({"sizes": (2**24 + 1,)}, "sizes must be at most"),
        ({"sizes": (4,), "rho": 0.0}, "rho must"),
        ({"sizes": (4,), "r": -1}, "r must"),
        ({"sizes": (4,), "d": 0}, "d must"),
    ],
)
def test_spec_refuses_bad_counts_and_class_parameters(fields, message):
    with pytest.raises(ValueError, match=message):
        ExperimentSpec("holder-error-vs-n", **fields)


@pytest.mark.parametrize("seed", [1.7, -1, "x"])
def test_a_seed_that_is_not_a_non_negative_integer_is_refused(seed):
    # 1.7 would run seed 1's stream while its CSV rows recorded 1.7
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        trial_rng(seed)
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        ExperimentSpec("maxfind-success", sizes=(16,), trials=5, master_seed=seed)


@pytest.mark.parametrize(
    "eps, message",
    [(0.0, "epsilon must be positive and finite, got 0.0"), (1e-300, "beyond the cap")],
)
def test_spec_refuses_a_bad_eps_point_before_any_trial_runs(eps, message, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a trial ran before the eps points were checked")

    monkeypatch.setattr("qfmax.bench.quantum_maximize", never)
    spec = dict(d=2, eps_values=(0.02, eps), trials=100)
    with pytest.raises(ValueError, match=message):
        run_experiment(ExperimentSpec("holder-queries-vs-eps", **spec))


# Off-default values for every field an experiment might read.
_ELSEWHERE = {
    "function": "cosprod", "d": 2, "r": 1, "rho": 0.5, "sizes": (16,), "eps_values": (0.05,),
    "trials": 3, "master_seed": 5, "patterns": ("ones",), "budget_factor": 30.0,
    "boost_rounds": 3,
}
_SEARCH_FIELDS = tuple(f.name for f in dataclasses.fields(SearchParams))
_RESULTS = (
    "n", "N", "epsilon", "success_rate", "mean_quantum_queries", "mean_classical_queries",
    "mean_evaluations", "error_quantile_theta25",
)


@pytest.mark.parametrize("descriptor", EXPERIMENTS)
def test_a_field_outside_reads_leaves_the_results_alone(descriptor):
    # the command line offers exactly the fields in reads, so no other field may matter
    spec_fields = {f.name for f in dataclasses.fields(ExperimentSpec)} - {"descriptor", "search"}
    assert set(_ELSEWHERE) == spec_fields | set(_SEARCH_FIELDS)
    reads = EXPERIMENTS[descriptor].reads
    assert set(reads) <= set(_ELSEWHERE)
    tiny = {"sizes": (4, 8), "eps_values": (0.2, 0.1), "trials": 2}
    tiny = {name: value for name, value in tiny.items() if name in reads}
    moved = {name: value for name, value in _ELSEWHERE.items() if name not in reads}
    search = SearchParams(**{name: moved.pop(name) for name in _SEARCH_FIELDS if name in moved})
    rows = run_experiment(ExperimentSpec(descriptor, **tiny))
    moved_rows = run_experiment(ExperimentSpec(descriptor, **tiny, **moved, search=search))
    assert [{col: row.get(col) for col in _RESULTS} for row in moved_rows] == [
        {col: row.get(col) for col in _RESULTS} for row in rows
    ]


@pytest.mark.parametrize("descriptor", EXPERIMENTS)
def test_every_descriptor_refuses_an_unknown_function(descriptor):
    points = {"sizes": (8,)} if EXPERIMENTS[descriptor].x == "n" else {"eps_values": (0.1,)}
    with pytest.raises(ValueError, match="unknown function 'bogus'; known: bumpfamily"):
        ExperimentSpec(descriptor, function="bogus", trials=2, **points)


def test_qsearch_scaling_rows():
    spec = ExperimentSpec("qsearch-scaling", sizes=(16, 64, 256), trials=30, master_seed=5)
    rows = run_experiment(spec)
    assert len(rows) == 4
    assert all(r["experiment"] == "qsearch-scaling" for r in rows)
    assert rows[-1]["slope"] > 0.0
    assert all(r["success_rate"] >= 0.9 for r in rows[:3])


def test_maxfind_success_rows():
    spec = ExperimentSpec("maxfind-success", sizes=(64, 256), trials=150, master_seed=6)
    rows = run_experiment(spec)
    assert all(r["success_rate"] >= 0.5 for r in rows[:2])
    assert all(r["n"] in (64, 256) for r in rows[:2])


def test_error_vs_n_quantile_decreases():
    spec = ExperimentSpec(
        "holder-error-vs-n", function="peak", d=1, r=0, rho=1.0,
        sizes=(4, 16, 64), trials=40, master_seed=7,
    )
    rows = run_experiment(spec)
    quantiles = [r["error_quantile_theta25"] for r in rows if r.get("slope") is None]
    assert quantiles[0] > quantiles[-1]
    summary = rows[-1]
    assert summary["slope"] < -0.5


def test_queries_vs_eps_slope_matches_half_rate():
    spec = ExperimentSpec(
        "holder-queries-vs-eps", function="peak", d=1, r=0, rho=1.0,
        eps_values=(0.2, 0.1, 0.05, 0.02, 0.01), trials=3, master_seed=8,
    )
    rows = run_experiment(spec)
    summary = rows[-1]
    assert summary["slope"] == pytest.approx(-0.5, abs=0.05)


def test_baseline_queries_slope_matches_full_rate():
    spec = ExperimentSpec(
        "baseline-queries-vs-eps", function="peak", d=1, r=0, rho=1.0,
        eps_values=(0.2, 0.1, 0.05, 0.02, 0.01), master_seed=9,
    )
    rows = run_experiment(spec)
    summary = rows[-1]
    assert summary["slope"] == pytest.approx(-1.0, abs=0.1)
    assert all(r["success_rate"] == 1.0 for r in rows[:-1])


def test_or_reduction_rows():
    spec = ExperimentSpec(
        "or-reduction", d=1, r=0, rho=1.0, sizes=(16,), trials=10,
        master_seed=10, patterns=("one", "zeros"),
    )
    rows = run_experiment(spec)
    assert {r["function"] for r in rows} == {"bits-one", "bits-zeros"}
    assert all(r["success_rate"] >= 0.7 for r in rows)


def test_csv_writer_layout(tmp_path):
    path = tmp_path / "out.csv"
    rows = [{"experiment": "x", "d": 1, "rho": 0.5, "success_rate": 1 / 3}]
    write_csv(rows, path)
    text = path.read_text().splitlines()
    assert text[0] == ",".join(CSV_COLUMNS)
    cells = text[1].split(",")
    assert cells[0] == "x"
    assert cells[4] == "0.5"
    assert cells[10] == "0.333333333333"
    assert len(cells) == len(CSV_COLUMNS)


def test_csv_byte_identical_reruns(tmp_path):
    spec = ExperimentSpec(
        "holder-error-vs-n", function="peak", d=1, r=1, rho=1.0,
        sizes=(4, 8), trials=12, master_seed=2024,
    )
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_experiment(spec, out_path=p1)
    run_experiment(spec, out_path=p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_descriptor_catalog_is_complete():
    assert set(EXPERIMENTS) == {
        "qsearch-scaling",
        "maxfind-success",
        "holder-error-vs-n",
        "holder-queries-vs-eps",
        "baseline-queries-vs-eps",
        "or-reduction",
    }


def test_search_params_flow_into_experiments():
    spec = ExperimentSpec(
        "maxfind-success", sizes=(16,), trials=20, master_seed=11,
        search=SearchParams(boost_rounds=1),
    )
    rows1 = run_experiment(spec)
    spec2 = ExperimentSpec(
        "maxfind-success", sizes=(16,), trials=20, master_seed=11,
        search=SearchParams(boost_rounds=2),
    )
    rows2 = run_experiment(spec2)
    assert rows2[0]["mean_quantum_queries"] > rows1[0]["mean_quantum_queries"]


_POINT = ("experiment", "function", "d", "r", "rho", "n", "trials", "master_seed", "success_rate")
_SUMMARY = ("experiment", "function", "d", "r", "rho", "trials", "master_seed",
            "slope", "intercept", "r2")
_QC = ("mean_quantum_queries", "mean_classical_queries")
_MAXIMIZER = ("N", "epsilon") + _QC + ("mean_evaluations", "error_quantile_theta25")


@pytest.mark.parametrize(
    "spec, point_columns",
    [
        # A point whose trials all find the mark with no quantum query stays out
        # of the fit and leaves no summary.  One trial does so with probability
        # about 0.40 at n = 4 but 0.03 at n = 64, so at these sizes a point
        # left out has probability below 1e-4 under any random stream.
        (ExperimentSpec("qsearch-scaling", sizes=(64, 128, 256), trials=3),
         _POINT + ("mean_quantum_queries",)),
        (ExperimentSpec("maxfind-success", sizes=(4, 8, 16), trials=2), _POINT + _QC),
        (ExperimentSpec("holder-error-vs-n", sizes=(4, 8, 16), trials=2),
         _POINT + tuple(c for c in _MAXIMIZER if c != "epsilon")),
        (ExperimentSpec("holder-queries-vs-eps", eps_values=(0.2, 0.1, 0.05), trials=2),
         _POINT + _MAXIMIZER),
        (ExperimentSpec("baseline-queries-vs-eps", eps_values=(0.2, 0.1, 0.05)),
         _POINT + tuple(c for c in _MAXIMIZER if c != "mean_quantum_queries")),
        (ExperimentSpec("or-reduction", sizes=(4, 8, 16), trials=1, patterns=("one", "zeros")),
         _POINT + _QC),
    ],
    ids=list(EXPERIMENTS),
)
def test_descriptor_fills_its_csv_columns(spec, point_columns, tmp_path):
    path = tmp_path / "out.csv"
    run_experiment(spec, out_path=path)
    header, *lines = [line.split(",") for line in path.read_text().splitlines()]
    filled = [{col for col, cell in zip(header, cells) if cell} for cells in lines]
    summaries = [cols for cols in filled if "slope" in cols]
    points = [cols for cols in filled if "slope" not in cols]
    groups = len(spec.patterns) if spec.descriptor == "or-reduction" else 1
    assert len(summaries) == groups
    assert len(points) == groups * 3
    assert all(cols == set(point_columns) for cols in points)
    assert all(cols == set(_SUMMARY) for cols in summaries)


@pytest.mark.parametrize("descriptor", ["qsearch-scaling", "maxfind-success"])
def test_size_one_point_is_left_out_of_the_fit(descriptor):
    # one index costs no quantum query, so its y = 0 cannot enter a log-log fit
    rows = run_experiment(ExperimentSpec(descriptor, sizes=(1, 16, 64, 256), trials=4))
    assert [r.get("n") for r in rows] == [1, 16, 64, 256, None]
    assert rows[0]["mean_quantum_queries"] == 0.0
    points = [(r["n"], r["mean_quantum_queries"]) for r in rows[1:4]]
    assert rows[-1]["slope"] == fit_loglog_slope(points)[0]
    assert run_experiment(ExperimentSpec(descriptor, sizes=(1, 16, 64), trials=4))[-1]["n"] == 64

