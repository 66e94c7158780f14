"""Unstructured search and threshold-based extremum finding."""

import math

import numpy as np
import pytest

from qfmax.bench import fit_loglog_slope, trial_rng
from qfmax.qcore import MarkPredicate, QueryLedger
from qfmax.search import (
    MaxResult,
    SearchParams,
    SequenceOracle,
    find_maximum,
    find_minimum,
    qsearch,
)

TRIALS = 400
SIGMA3_HALF = 3 * math.sqrt(0.25 / TRIALS)  # 3 sigma at p = 1/2


def test_params_validation():
    SearchParams(lambda_=4 / 3)
    with pytest.raises(ValueError):
        SearchParams(lambda_=1.0)
    with pytest.raises(ValueError):
        SearchParams(lambda_=1.5)
    with pytest.raises(ValueError):
        SearchParams(budget_factor=0.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError):
            SearchParams(budget_factor=bad)
        with pytest.raises(ValueError):
            SearchParams(lambda_=bad)
    with pytest.raises(ValueError):
        SearchParams(boost_rounds=0)


def test_sequence_oracle_validation():
    with pytest.raises(ValueError):
        SequenceOracle([])
    with pytest.raises(ValueError):
        SequenceOracle([0.2, 1.2])
    with pytest.raises(ValueError):
        SequenceOracle([[0.1], [0.2]])
    orc = SequenceOracle([0.25, 0.75])
    assert orc.n == 2
    assert orc.value(1) == 0.75
    assert orc.ledger.classical_queries == 1


def test_qsearch_no_marks_exhausts_budget_exactly():
    led = QueryLedger()
    pred = MarkPredicate(16, lambda i: False, led)
    rng = np.random.default_rng(3)
    assert qsearch(pred, rng, SearchParams(), 50) is None
    assert led.quantum_queries == 50


def test_qsearch_all_marked_is_immediate():
    led = QueryLedger()
    pred = MarkPredicate(16, lambda i: True, led)
    idx = qsearch(pred, rng=np.random.default_rng(4), params=SearchParams(), max_queries=50)
    assert idx is not None
    assert led.quantum_queries == 0
    assert led.classical_queries == 1


def test_qsearch_single_element_space():
    led = QueryLedger()
    pred = MarkPredicate(1, lambda i: True, led)
    assert qsearch(pred, np.random.default_rng(0), SearchParams(), 10) == 0
    pred = MarkPredicate(1, lambda i: False, led)
    assert qsearch(pred, np.random.default_rng(0), SearchParams(), 10) is None


def test_qsearch_returns_only_marked_indices():
    rng = np.random.default_rng(8)
    for _ in range(60):
        n = int(rng.integers(2, 300))
        marks = rng.random(n) < rng.uniform(0.02, 0.5)
        led = QueryLedger()
        pred = MarkPredicate(n, marks, led)
        budget = math.ceil(22.5 * math.sqrt(n))
        idx = qsearch(pred, rng, SearchParams(), budget)
        assert led.quantum_queries <= budget
        if idx is not None:
            assert marks[idx]
        else:
            assert led.quantum_queries == budget


def test_qsearch_finds_single_mark_reliably():
    rng = np.random.default_rng(9)
    n = 256
    budget = math.ceil(22.5 * math.sqrt(n))
    hits = 0
    for _ in range(TRIALS):
        target = int(rng.integers(0, n))
        pred = MarkPredicate(n, lambda i, t=target: i == t)
        if qsearch(pred, rng, SearchParams(), budget) == target:
            hits += 1
    assert hits / TRIALS >= 0.95


def test_qsearch_query_scaling_single_mark():
    # mean total oracle accesses (amplification steps plus one classical
    # verification per round) over a 64x size range; the analytic law is
    # sqrt(N/k)
    params = SearchParams()
    pts = []
    for size_exp in (6, 8, 10, 12):
        n = 2**size_exp
        budget = math.ceil(params.budget_factor * math.sqrt(n))
        total = 0
        trials = 800
        for t in range(trials):
            rng = trial_rng(424242, size_exp, t)
            target = int(rng.integers(0, n))
            led = QueryLedger()
            pred = MarkPredicate(n, lambda i, m=target: i == m, led)
            assert qsearch(pred, rng, params, budget) == target
            total += led.quantum_queries + led.classical_queries
        pts.append((n, total / trials))
    slope = fit_loglog_slope(pts)[0]
    assert 0.45 <= slope <= 0.55


def test_find_maximum_constant_sequence():
    res = find_maximum(SequenceOracle([0.4, 0.4, 0.4, 0.4]), np.random.default_rng(1))
    assert res.value == 0.4
    assert 0 <= res.witness < 4
    assert res.success


def test_find_maximum_small_instance_frequency():
    vals = [0.1, 0.9, 0.3, 0.5]
    hits = 0
    for t in range(TRIALS):
        res = find_maximum(SequenceOracle(vals), trial_rng(5, t))
        assert isinstance(res, MaxResult)
        if res.value == 0.9 and res.witness == 1:
            hits += 1
    assert hits / TRIALS >= 0.75 - 3 * math.sqrt(0.75 * 0.25 / TRIALS)


def test_find_maximum_value_matches_witness():
    rng = np.random.default_rng(6)
    for _ in range(30):
        vals = rng.random(50)
        res = find_maximum(SequenceOracle(vals), rng)
        assert res.value == vals[res.witness]


def test_find_maximum_single_round_beats_half():
    hits = 0
    n = 256
    params = SearchParams(boost_rounds=1)
    for t in range(TRIALS):
        rng = trial_rng(77, t)
        vals = rng.permutation(n) / n
        res = find_maximum(SequenceOracle(vals), rng, params)
        hits += int(res.value == (n - 1) / n)
    assert hits / TRIALS >= 0.5 - SIGMA3_HALF


def test_find_maximum_budget_compliance():
    params = SearchParams(boost_rounds=2)
    for t, n in enumerate((5, 16, 100, 333)):
        rng = trial_rng(13, t)
        vals = rng.random(n)
        res = find_maximum(SequenceOracle(vals), rng, params)
        cap = params.boost_rounds * math.ceil(params.budget_factor * math.sqrt(n))
        assert res.ledger.quantum_queries <= cap + params.boost_rounds


def test_find_maximum_threshold_chain_strictly_increases():
    for t in range(40):
        rng = trial_rng(21, t)
        vals = rng.random(64)
        rounds: list[list[float]] = []
        find_maximum(SequenceOracle(vals), rng, record_thresholds=rounds)
        assert len(rounds) == SearchParams().boost_rounds
        for chain in rounds:
            assert chain
            for lo, hi in zip(chain, chain[1:]):
                assert hi > lo


def test_find_minimum_single_element():
    res = find_minimum(SequenceOracle([0.7]), np.random.default_rng(2))
    assert res.value == 0.7
    assert res.witness == 0


def test_find_minimum_reverse_sorted_frequency():
    n = 64
    vals = np.arange(n)[::-1] / n
    params = SearchParams(boost_rounds=1)
    hits = 0
    for t in range(TRIALS):
        res = find_minimum(SequenceOracle(vals), trial_rng(99, t), params)
        hits += int(res.value == 0.0)
    assert hits / TRIALS >= 0.5 - SIGMA3_HALF


def test_min_max_duality():
    # same seeds, complemented values: the two searches must walk the same
    # index trajectory
    for t in range(200):
        vals = trial_rng(1234, t, 0).random(80)
        rmin = find_minimum(SequenceOracle(vals), trial_rng(1234, t, 1))
        rmax = find_maximum(SequenceOracle(1.0 - vals), trial_rng(1234, t, 1))
        assert rmin.witness == rmax.witness
        assert rmin.value == pytest.approx(1.0 - rmax.value, abs=1e-15)
        assert rmin.success == rmax.success


def test_ledger_snapshot_is_isolated():
    orc = SequenceOracle(np.linspace(0.0, 0.9, 10))
    res = find_maximum(orc, np.random.default_rng(0))
    frozen = res.ledger.quantum_queries
    orc.value(3)
    assert res.ledger.quantum_queries == frozen
