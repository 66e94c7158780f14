"""Statevector core and the two-amplitude search state: closed forms, ledger, measurement."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfmax.qcore import (
    ClassState,
    MarkPredicate,
    QueryLedger,
    StateVector,
    grover_iteration,
    grover_success_probability,
    measure,
    uniform_state,
)

# Frozen oracle values, computed independently of the implementation:
#   sin^2(3 * arcsin(sqrt(1/4))) = sin^2(pi/2) = 1
#   sin^2(13 * arcsin(sqrt(1/64))) = 0.99658555...
SIN2_13_ARCSIN_EIGHTH = math.sin(13 * math.asin(1.0 / 8.0)) ** 2
UNIFORM3_AMP = 0.5773502691896258  # 1/sqrt(3)


def test_uniform_state_dim1():
    s = uniform_state(1)
    assert s.dim == 1
    assert s.amps[0] == pytest.approx(1.0, abs=1e-15)


def test_uniform_state_dim4():
    s = uniform_state(4)
    np.testing.assert_allclose(s.amps, 0.5, atol=1e-15)


def test_uniform_state_dim3_amplitude_and_norm():
    s = uniform_state(3)
    np.testing.assert_allclose(s.amps.real, UNIFORM3_AMP, atol=1e-12)
    assert abs(s.probabilities().sum() - 1.0) < 1e-12


def test_uniform_state_rejects_zero_dim():
    with pytest.raises(ValueError):
        uniform_state(0)


def test_statevector_rejects_unnormalized():
    with pytest.raises(ValueError):
        StateVector([0.5, 0.5])
    with pytest.raises(ValueError):
        StateVector([])


def test_statevector_accepts_complex_and_copies():
    amps = np.array([0.6, 0.8j])
    s = StateVector(amps)
    amps[0] = 99.0
    assert s.amps[0] == 0.6
    np.testing.assert_allclose(s.probabilities(), [0.36, 0.64], atol=1e-15)


def test_success_probability_examples():
    assert grover_success_probability(4, 1, 1) == pytest.approx(1.0, abs=1e-15)
    assert grover_success_probability(64, 1, 6) == pytest.approx(SIN2_13_ARCSIN_EIGHTH, abs=1e-15)
    assert abs(grover_success_probability(64, 1, 6) - 0.9966) < 1e-4


@pytest.mark.parametrize("n", [1, 2, 5, 16])
def test_success_probability_j0_is_k_over_n(n):
    for k in range(n + 1):
        assert grover_success_probability(n, k, 0) == pytest.approx(k / n, abs=1e-15)


def test_success_probability_edges_and_validation():
    for j in range(5):
        assert grover_success_probability(9, 0, j) == 0.0
        assert grover_success_probability(9, 9, j) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        grover_success_probability(4, 5, 1)
    with pytest.raises(ValueError):
        grover_success_probability(4, -1, 1)


def _iterate(n, marks, j, ledger=None):
    pred = MarkPredicate(n, marks, ledger)
    s = uniform_state(n)
    for _ in range(j):
        s = grover_iteration(s, pred)
    return s, pred


def test_single_mark_dim4_one_iteration_is_certain():
    s, _ = _iterate(4, np.arange(4) == 2, 1)
    assert abs(s.amps[2]) == pytest.approx(1.0, abs=1e-12)
    assert np.abs(np.delete(s.amps, 2)).max() < 1e-12


def test_no_marks_uniform_is_fixed_point():
    s, _ = _iterate(6, np.zeros(6, dtype=bool), 3)
    np.testing.assert_allclose(s.amps, uniform_state(6).amps, atol=1e-12)


def test_all_marked_flips_global_sign():
    s, _ = _iterate(5, np.ones(5, dtype=bool), 1)
    np.testing.assert_allclose(s.amps, -uniform_state(5).amps, atol=1e-12)
    np.testing.assert_allclose(s.probabilities(), 0.2, atol=1e-12)


def test_closed_form_equivalence_sweep():
    # moderate sweep here; the full N <= 64 sweep runs in the acceptance suite
    for n in range(2, 21):
        for k in range(n + 1):
            marks = np.arange(n) < k
            pred = MarkPredicate(n, marks)
            s = uniform_state(n)
            for j in range(8):
                p = s.probabilities()[:k].sum()
                assert abs(p - grover_success_probability(n, k, j)) < 1e-10
                s = grover_iteration(s, pred)


def test_norm_preserved_over_long_runs():
    rng = np.random.default_rng(20260814)
    for n in (3, 17, 64):
        marks = rng.random(n) < 0.3
        pred = MarkPredicate(n, marks)
        s = uniform_state(n)
        for _ in range(50):
            s = grover_iteration(s, pred)
            assert abs(s.probabilities().sum() - 1.0) < 1e-12


def test_invariant_two_dimensional_subspace():
    rng = np.random.default_rng(7)
    for n in (6, 13):
        marks = rng.random(n) < 0.4
        if not marks.any() or marks.all():
            marks[0] = True
            marks[-1] = False
        pred = MarkPredicate(n, marks)
        s = uniform_state(n)
        for _ in range(25):
            s = grover_iteration(s, pred)
            inside = s.amps[marks]
            outside = s.amps[~marks]
            assert np.abs(inside - inside[0]).max() < 1e-12
            assert np.abs(outside - outside[0]).max() < 1e-12


def test_matrix_oracle_equivalence():
    # brute-force (2|u><u| - I) O against the streaming implementation
    rng = np.random.default_rng(11)
    for n in range(2, 17):
        marks = rng.random(n) < 0.5
        oracle = np.diag(np.where(marks, -1.0, 1.0))
        diffusion = 2.0 * np.full((n, n), 1.0 / n) - np.eye(n)
        matrix = diffusion @ oracle

        pred = MarkPredicate(n, marks)
        vec = rng.normal(size=n)
        vec = vec / np.linalg.norm(vec)
        out = grover_iteration(StateVector(vec), pred)
        np.testing.assert_allclose(out.amps, matrix @ vec, atol=1e-12)


def test_grover_iteration_dim_mismatch():
    pred = MarkPredicate(4, np.arange(4) == 0)
    with pytest.raises(ValueError):
        grover_iteration(uniform_state(5), pred)


def test_ledger_counts_iterations_not_measurements():
    led = QueryLedger()
    pred = MarkPredicate(8, np.arange(8) == 3, led)
    s = uniform_state(8)
    for expected in (1, 2, 3):
        s = grover_iteration(s, pred)
        assert led.quantum_queries == expected
    rng = np.random.default_rng(0)
    measure(s, rng.random())
    assert led.quantum_queries == 3
    assert led.classical_queries == 0


def test_ledger_classical_check_and_snapshot():
    led = QueryLedger()
    pred = MarkPredicate(8, np.arange(8) % 2 == 0, led)
    assert pred.check(2) is True
    assert pred.check(3) is False
    assert led.classical_queries == 2
    snap = led.snapshot()
    pred.check(0)
    assert snap.classical_queries == 2
    assert led.classical_queries == 3


def test_mark_predicate_sources_agree():
    marks = np.array([True, False, True, True, False])
    from_arr = MarkPredicate(5, marks)
    from_provider = MarkPredicate(5, lambda: marks)
    np.testing.assert_array_equal(from_arr.mask(), from_provider.mask())
    assert [from_arr.check(i) for i in range(5)] == [from_provider.check(i) for i in range(5)]
    with pytest.raises(ValueError):
        MarkPredicate(4, marks)


def test_predicate_builds_its_table_once_at_the_first_check_or_mask():
    # check() verifies a candidate against the same truth table that the
    # phase oracle marks, so the provider is called once, by whichever of
    # check() and mask() comes first, and never at construction.
    marks = np.arange(12) % 5 == 1
    builds = []

    def provider():
        builds.append(len(builds))
        return marks

    led = QueryLedger()
    pred = MarkPredicate(12, provider, led)
    assert builds == []
    assert [pred.check(i) for i in range(12)] == marks.tolist()
    assert builds == [0] and led.classical_queries == 12
    state = ClassState.uniform(12)
    for _ in range(3):
        state = grover_iteration(state, pred)
    np.testing.assert_array_equal(pred.mask(), marks)
    assert builds == [0] and led.quantum_queries == 3
    # a first mask() builds the table as well, and check() then reuses it
    pred = MarkPredicate(12, provider)
    np.testing.assert_array_equal(pred.mask(), marks)
    assert [pred.check(i) for i in range(12)] == marks.tolist()
    assert builds == [0, 1]


def test_predicate_tables_of_the_wrong_shape_are_refused():
    with pytest.raises(ValueError, match="shape"):
        MarkPredicate(6, np.ones(5, dtype=bool))
    with pytest.raises(ValueError, match="shape"):
        MarkPredicate(6, np.ones((6, 1), dtype=bool))
    # a provider is not called at construction, so its table is refused at
    # the first check() or mask()
    pred = MarkPredicate(6, lambda: np.ones(7, dtype=bool))
    with pytest.raises(ValueError, match="shape"):
        pred.check(3)
    with pytest.raises(ValueError, match="shape"):
        pred.mask()


def test_measure_deterministic_state():
    s = StateVector([1.0, 0.0, 0.0, 0.0])
    rng = np.random.default_rng(5)
    assert all(measure(s, rng.random()) == 0 for _ in range(20))


def test_measure_frequencies_uniform_dim2():
    rng = np.random.default_rng(31415)
    s = uniform_state(2)
    draws = 100_000
    ones = sum(measure(s, rng.random()) for _ in range(draws))
    assert abs(ones / draws - 0.5) < 0.01


def test_measure_frequencies_complex_amplitudes():
    rng = np.random.default_rng(2718)
    s = StateVector([0.6, 0.8j])
    draws = 100_000
    ones = sum(measure(s, rng.random()) for _ in range(draws))
    assert abs(ones / draws - 0.64) < 0.01


def test_measure_reproducible_under_seed():
    s = uniform_state(10)
    a = [measure(s, np.random.default_rng(99).random()) for _ in range(5)]
    b = [measure(s, np.random.default_rng(99).random()) for _ in range(5)]
    assert a == b


# ---------------------------------------------------------------------------
# two-amplitude ClassState against the StateVector reference


@st.composite
def _amplified(draw):
    """(n, mask, j): a register, its marking (k = 0 and k = n included), a step count."""
    n = draw(st.integers(2, 256))
    mask = draw(
        st.one_of(
            st.just(np.zeros(n, dtype=bool)),
            st.just(np.ones(n, dtype=bool)),
            st.lists(st.booleans(), min_size=n, max_size=n).map(np.array),
        )
    )
    return n, mask, draw(st.integers(0, 40))


def _both_states(n, mask, j):
    ref_ledger, cls_ledger = QueryLedger(), QueryLedger()
    ref_pred = MarkPredicate(n, mask, ref_ledger)
    cls_pred = MarkPredicate(n, mask, cls_ledger)
    ref, cls = uniform_state(n), ClassState.uniform(n)
    for _ in range(j):
        ref = grover_iteration(ref, ref_pred)
        cls = grover_iteration(cls, cls_pred)
    assert ref_ledger.quantum_queries == cls_ledger.quantum_queries == j
    return ref, cls


_PROPERTY = settings(derandomize=True, deadline=None, max_examples=80)


@_PROPERTY
@given(_amplified())
def test_class_amplitudes_match_statevector(case):
    n, mask, j = case
    ref, cls = _both_states(n, mask, j)
    assert cls.dim == n
    if mask.any():
        assert np.abs(ref.amps[mask] - cls.marked).max() <= 1e-12
    if not mask.all():
        assert np.abs(ref.amps[~mask] - cls.unmarked).max() <= 1e-12


@_PROPERTY
@given(_amplified(), st.integers(0, 2**32 - 1))
def test_class_measure_keeps_the_cumsum_index_order(case, seed):
    n, mask, j = case
    ref, cls = _both_states(n, mask, j)
    c = np.cumsum(ref.probabilities())
    probe, rng_ref, rng_cls = (np.random.default_rng(seed) for _ in range(3))
    compared = 0
    for _ in range(64):
        x = probe.random() * c[-1]
        want, got = measure(ref, rng_ref.random()), measure(cls, rng_cls.random())
        assert want == min(int(np.searchsorted(c, x, side="right")), n - 1)
        if np.abs(c - x).min() > 1e-9:
            assert got == want
            compared += 1
    assert compared > 0


@_PROPERTY
@given(_amplified(), st.integers(0, 2**32 - 1))
def test_class_measure_hits_marked_at_the_closed_form_rate(case, seed):
    n, mask, j = case
    _, cls = _both_states(n, mask, j)
    p = grover_success_probability(n, int(mask.sum()), j)
    rng = np.random.default_rng(seed)
    draws = 1000
    hits = sum(bool(mask[measure(cls, rng.random())]) for _ in range(draws))
    # 3 sigma of a binomial count, plus one draw for p near 0 or 1.
    assert abs(hits - draws * p) <= 3.0 * math.sqrt(draws * p * (1.0 - p)) + 1.0


def test_class_state_refuses_a_second_predicate():
    first = MarkPredicate(8, np.arange(8) == 3)
    second = MarkPredicate(8, np.arange(8) == 5)
    s = grover_iteration(ClassState.uniform(8), first)
    with pytest.raises(ValueError):
        grover_iteration(s, second)
    with pytest.raises(ValueError):
        grover_iteration(ClassState.uniform(5), first)
    with pytest.raises(ValueError):
        ClassState.uniform(0)


# ---------------------------------------------------------------------------
# measurement by marked positions against the running-count bisection


def reference_locate(state, mask):
    """First index whose cumulative mass exceeds x, by bisecting the running mark count."""
    counts = np.cumsum(mask)
    a2 = state.marked * state.marked
    b2 = state.unmarked * state.unmarked

    def find(x):
        lo, hi = 0, state.dim - 1
        while lo < hi:
            mid = (lo + hi) // 2
            r = counts.item(mid)
            if a2 * r + b2 * (mid + 1 - r) > x:
                hi = mid
            else:
                lo = mid + 1
        return lo

    return find, [a2 * r + b2 * (i + 1 - r) for i, r in enumerate(counts.tolist())]


@st.composite
def _marked_register(draw):
    """(n, mask, j): no marks, one, all, runs of adjacent marks or random marks."""
    n = draw(st.integers(1, 300))
    kind = draw(st.sampled_from(["none", "one", "all", "runs", "random"]))
    mask = np.zeros(n, dtype=bool)
    if kind == "one":
        mask[draw(st.integers(0, n - 1))] = True
    elif kind == "all":
        mask[:] = True
    elif kind == "runs":
        for _ in range(draw(st.integers(1, 4))):
            start = draw(st.integers(0, n - 1))
            mask[start : start + draw(st.integers(1, 40))] = True
    elif kind == "random":
        mask = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    return n, mask, draw(st.integers(0, 40))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_marked_register())
def test_locate_by_positions_matches_the_running_count_bisection(case):
    n, mask, j = case
    pred = MarkPredicate(n, mask)
    state = ClassState.uniform(n)
    for _ in range(j):
        state = grover_iteration(state, pred)
    # The uniform start marks nothing yet: its reference count is all zero.
    find, cumulative = reference_locate(state, mask if j else np.zeros(n, dtype=bool))
    probes = [0.0, state.total(), -1.0, 2.0]
    for c in cumulative:
        probes += [c, np.nextafter(c, -np.inf), np.nextafter(c, np.inf)]
    for x in probes:
        assert state.locate(float(x)) == find(float(x)), (x, state.marked, state.unmarked)


# ---------------------------------------------------------------------------
# step accounting on the memoized chain


class _CountingPredicate(MarkPredicate):
    __slots__ = ("reads",)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.reads = 0

    def mask(self):
        self.reads += 1
        return super().mask()


def test_each_class_step_reads_the_table_once_and_charges_one_query():
    pred = _CountingPredicate(50, np.arange(50) % 7 == 3)
    seen = []
    for j in (0, 5, 3, 12, 12):
        reads, queries = pred.reads, pred.ledger.quantum_queries
        state = ClassState.uniform(50)
        for _ in range(j):
            state = grover_iteration(state, pred)
            seen.append((state, state.marked, state.unmarked))
        assert pred.reads - reads == j
        assert pred.ledger.quantum_queries - queries == j
        # the walk ends at the j-th entry of the predicate's chain
        entry = pred._head
        for _ in range(j):
            entry = entry.succ
        assert j == 0 or state is entry
    # Later steps and repeated walks leave every earlier state as it was.
    for state, marked, unmarked in seen:
        assert (state.marked, state.unmarked) == (marked, unmarked)


def test_chain_states_belong_to_one_predicate_and_uniform_starts_anywhere():
    a = MarkPredicate(16, np.arange(16) < 3)
    b = MarkPredicate(16, np.arange(16) < 3)
    s = grover_iteration(grover_iteration(ClassState.uniform(16), a), a)
    with pytest.raises(ValueError):
        grover_iteration(s, b)
    fresh = ClassState.uniform(16)
    assert grover_iteration(fresh, b) is b._head.succ
    assert grover_iteration(fresh, a) is a._head.succ
    assert grover_iteration(fresh, a) is grover_iteration(ClassState.uniform(16), a)
