"""Unstructured search and threshold-based extremum finding."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfmax.bench import fit_loglog_slope, trial_rng
from qfmax.holder import DEFAULT_MAX_CUBES
from qfmax.qcore import MarkPredicate, QueryLedger
from qfmax.search import (
    DEFAULT_MAX_QUANTUM_QUERIES,
    MaxResult,
    SearchParams,
    SequenceOracle,
    find_maximum,
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


@pytest.mark.parametrize("rounds", [2.5, 2.0, "2", None])
def test_params_refuse_non_integer_boost_rounds(rounds):
    with pytest.raises(ValueError, match="boost_rounds must be an integer"):
        SearchParams(boost_rounds=rounds)


@pytest.mark.parametrize(
    "params,n",
    [
        (SearchParams(budget_factor=1e300), 1024),
        (SearchParams(budget_factor=1e308), 1024),  # budget_factor * sqrt(n) overflows
        (SearchParams(boost_rounds=10**12), 1024),
        (SearchParams(budget_factor=2**23 + 0.5), 1),  # 2 rounds of 2^23 + 1 queries
    ],
)
def test_unbounded_quantum_budget_is_refused_before_the_first_read(params, n):
    oracle = SequenceOracle(np.linspace(0.0, 1.0, n))
    with pytest.raises(ValueError, match="exceeds the cap"):
        find_maximum(oracle, np.random.default_rng(0), params)
    assert oracle.ledger.classical_queries == oracle.ledger.quantum_queries == 0


def test_quantum_budget_at_the_cap_is_accepted():
    # one item: 2 rounds of ceil(2^23) queries is exactly the cap, and each
    # round settles the item with one classical check
    params = SearchParams(budget_factor=2**23)
    assert params.boost_rounds * params.budget(1) == DEFAULT_MAX_QUANTUM_QUERIES
    res = find_maximum(SequenceOracle([0.5]), np.random.default_rng(0), params)
    assert res.value == 0.5 and res.success


def test_sequence_oracle_validation():
    for bad in ([], [[0.1], [0.2]], [0.2, math.inf], [-math.inf, 0.2]):
        with pytest.raises(ValueError, match="non-empty 1-d array of finite numbers"):
            SequenceOracle(bad)
    # any finite values are accepted, below 0 and above 1 included
    orc = SequenceOracle([-2.5, 1.2, 0.75])
    assert orc.n == 3
    assert orc.value(0) == -2.5 and orc.value(1) == 1.2
    assert orc.ledger.classical_queries == 2
    np.testing.assert_array_equal(orc.above(2).mask(), [False, True, False])


def test_sequence_oracle_copies_the_callers_values():
    # value reads and predicate tables both see the values as given, not a later write
    v = np.array([0.1, 0.9, 0.5])
    o = SequenceOracle(v)
    p = o.above(0)
    p.mask()
    v[1] = -5.0
    assert o.value(1) == 0.9
    assert p.check(1)
    np.testing.assert_array_equal(o.above(0).mask(), [False, True, True])


@pytest.mark.parametrize("values", [[math.nan, 0.2, 0.9, 0.1], [0.2, math.nan]])
def test_sequence_oracle_refuses_nan(values):
    # every comparison with NaN is false, so a NaN cell would never be marked
    with pytest.raises(ValueError, match="non-empty 1-d array of finite numbers"):
        SequenceOracle(values)


def test_qsearch_no_marks_exhausts_budget_exactly():
    led = QueryLedger()
    pred = MarkPredicate(16, np.zeros(16, dtype=bool), led)
    rng = np.random.default_rng(3)
    assert qsearch(pred, rng, SearchParams(), 50) is None
    assert led.quantum_queries == 50


def test_qsearch_all_marked_is_immediate():
    led = QueryLedger()
    pred = MarkPredicate(16, np.ones(16, dtype=bool), led)
    idx = qsearch(pred, rng=np.random.default_rng(4), params=SearchParams(), max_queries=50)
    assert idx is not None
    assert led.quantum_queries == 0
    assert led.classical_queries == 1


def test_qsearch_single_element_space():
    led = QueryLedger()
    pred = MarkPredicate(1, np.ones(1, dtype=bool), led)
    assert qsearch(pred, np.random.default_rng(0), SearchParams(), 10) == 0
    pred = MarkPredicate(1, np.zeros(1, dtype=bool), led)
    assert qsearch(pred, np.random.default_rng(0), SearchParams(), 10) is None


def test_top_uniform_draws_the_largest_step_count():
    # j = int(u * ceil(m)) for u < 1; ceil(m) <= sqrt(dim) <= 4096 under the
    # 2^24 size cap, and there the largest double below 1 still gives j < ceil(m)
    u = np.nextafter(1.0, 0.0)
    assert math.isqrt(DEFAULT_MAX_CUBES) == 4096
    assert all(int(u * c) == c - 1 for c in range(1, 4097))


class _Blocks:
    """A Generator that counts the rng.random calls made on it."""

    def __init__(self, seed):
        self.gen = np.random.default_rng(seed)
        self.calls = 0

    def random(self, size=None):
        self.calls += 1
        return self.gen.random(size)


class _StepLog(MarkPredicate):
    """Records the quantum queries charged so far at every classical check."""

    __slots__ = ("at_check",)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.at_check = []

    def check(self, index):
        self.at_check.append(self.ledger.quantum_queries)
        return super().check(index)


def test_qsearch_past_one_block_charges_its_budget_and_repeats():
    ledgers = []
    for _ in range(2):
        led = QueryLedger()
        rng = _Blocks(11)
        pred = MarkPredicate(64, np.zeros(64, dtype=bool), led)
        assert qsearch(pred, rng, SearchParams(), 300) is None
        assert led.quantum_queries == 300
        attempts = led.classical_queries
        assert attempts > 32
        # two uniforms per attempt, 64 per block
        assert rng.calls == math.ceil(attempts / 32)
        ledgers.append((led.quantum_queries, led.classical_queries))
    assert ledgers[0] == ledgers[1]


def test_drawn_step_counts_are_uniform_below_the_cap():
    # m reaches its cap sqrt(49) = 7 after 15 failed attempts; from then on
    # j is uniform on {0, ..., 6}
    pred = _StepLog(49, np.zeros(49, dtype=bool))
    assert qsearch(pred, np.random.default_rng(12), SearchParams(), 20_000) is None
    # j of every attempt from the 16th on, leaving out the last, cut by the budget
    steps = np.diff([0] + pred.at_check)[15:-1]
    counts = np.bincount(steps, minlength=7)
    assert counts.size == 7
    trials, p = steps.size, 1.0 / 7.0
    assert trials > 5000
    sigma = math.sqrt(trials * p * (1.0 - p))
    assert np.all(np.abs(counts - trials * p) <= 3.0 * sigma), counts


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
        pred = MarkPredicate(n, np.arange(n) == target)
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
            pred = MarkPredicate(n, np.arange(n) == target, led)
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


def test_value_table_builds_once_at_its_first_use():
    truth = np.array([0.3, 0.5, 0.1, 0.5, 0.9, 0.0])
    first_uses = {
        "value": lambda oracle: oracle.value(2),
        "check": lambda oracle: oracle.above(2).check(0),
        "mask": lambda oracle: oracle.above(2).mask(),
    }
    for name, first_use in first_uses.items():
        calls, ledger = [], QueryLedger()

        def build():
            calls.append(name)
            return truth

        oracle = SequenceOracle._lazy(truth.size, build, ledger)
        pred = oracle.above(1)
        # neither the oracle nor a predicate builds at construction
        assert calls == []
        assert oracle.n == truth.size and oracle.ledger is ledger
        first_use(oracle)
        assert calls == [name]
        # later reads, checks, masks and values() build nothing
        assert oracle.value(4) == truth[4] and oracle.value(5) == truth[5]
        assert pred.check(4) and not pred.check(2)
        np.testing.assert_array_equal(oracle.above(0).mask(), truth > truth[0])
        np.testing.assert_array_equal(oracle.values(), truth)
        assert calls == [name]
        # above(s) leaves the cells that tie with cell s unmarked, s included
        np.testing.assert_array_equal(pred.mask(), [False, False, False, False, True, False])
        assert not pred.check(1) and not pred.check(3)
        assert ledger.classical_queries == {"value": 1, "check": 1, "mask": 0}[name] + 6
        assert ledger.quantum_queries == 0


@pytest.mark.parametrize(
    "built,message",
    [
        (np.zeros(5), r"built values must have shape \(6,\), got \(5,\)"),
        (np.zeros(7), r"built values must have shape \(6,\), got \(7,\)"),
        (np.zeros((2, 3)), "non-empty 1-d array of finite numbers"),
        (np.array([0.1, 0.2, math.inf, 0.3, 0.4, 0.5]), "non-empty 1-d array of finite numbers"),
    ],
)
def test_lazy_oracle_refuses_a_bad_build_at_its_first_use(built, message):
    oracle = SequenceOracle._lazy(6, lambda: built, QueryLedger())
    pred = oracle.above(0)
    with pytest.raises(ValueError, match=message):
        pred.mask()


def test_find_maximum_threshold_chain_strictly_increases():
    for t in range(40):
        rng = trial_rng(21, t)
        vals = rng.random(64)
        rounds = find_maximum(SequenceOracle(vals), rng).thresholds
        assert len(rounds) == SearchParams().boost_rounds
        for chain in rounds:
            assert chain
            for lo, hi in zip(chain, chain[1:]):
                assert hi > lo


@st.composite
def _searches(draw):
    n = draw(st.integers(1, 300))
    levels = draw(st.integers(1, 6))  # few distinct values, so ties are common
    values = np.array(draw(st.lists(st.integers(0, levels), min_size=n, max_size=n))) / levels
    params = SearchParams(
        lambda_=draw(st.floats(1.0, 4.0 / 3.0, exclude_min=True)),
        budget_factor=draw(st.floats(0.1, 30.0)),
        boost_rounds=draw(st.integers(1, 4)),
    )
    return values, params, draw(st.integers(0, 2**32 - 1))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_searches())
def test_extremum_search_invariants(case):
    values, params, seed = case
    res = find_maximum(SequenceOracle(values), np.random.default_rng(seed), params)
    rounds = res.thresholds
    # qsearch clamps each round to its exact budget, so there is no per-round slack
    budget = math.ceil(params.budget_factor * math.sqrt(values.size))
    assert res.ledger.quantum_queries <= params.boost_rounds * budget
    assert len(rounds) == params.boost_rounds
    for chain in rounds:
        assert chain
        assert set(chain) <= set(values.tolist())
        assert all(b > a for a, b in zip(chain, chain[1:]))
    assert res.value == values[res.witness]
    assert res.value == max(chain[-1] for chain in rounds)


def test_ledger_snapshot_is_isolated():
    orc = SequenceOracle(np.linspace(0.0, 0.9, 10))
    res = find_maximum(orc, np.random.default_rng(0))
    frozen = res.ledger.quantum_queries
    orc.value(3)
    assert res.ledger.quantum_queries == frozen
