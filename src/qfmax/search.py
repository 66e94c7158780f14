"""Query-budgeted search and extremum finding over finite value sequences.

qsearch performs amplitude amplification with a randomized iteration count
when the number of marked indices is unknown (the classic exponential
searching scheme: draw the step count uniformly below a geometrically
growing cap, measure, verify classically).  find_maximum and find_minimum
wrap it in a threshold-improvement loop: keep a current best index, search
for any strictly better one, and stop once the quantum query budget
ceil(budget_factor * sqrt(n)) is exhausted.  Boosting repeats the whole
round and keeps the best answer, which drives the failure probability down
by a factor of two per round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .qcore import (
    MarkPredicate,
    QueryLedger,
    grover_iteration,
    measure,
    uniform_state,
)

__all__ = [
    "SearchParams",
    "SequenceOracle",
    "MaxResult",
    "qsearch",
    "find_maximum",
    "find_minimum",
]


@dataclass
class SearchParams:
    """Tunable constants for budgeted search.

    lambda_ is the growth factor of the iteration-count cap, valid in
    (1, 4/3].  budget_factor scales the total quantum budget
    ceil(budget_factor * sqrt(n)); the default 22.5 is the classic cutoff
    for which a single threshold-search round succeeds with probability
    above one half.  boost_rounds independent rounds are run and the best
    value kept.
    """

    lambda_: float = 8.0 / 7.0
    budget_factor: float = 22.5
    boost_rounds: int = 2

    def __post_init__(self) -> None:
        if not 1.0 < self.lambda_ <= 4.0 / 3.0:
            raise ValueError("lambda_ must lie in (1, 4/3]")
        if not 0.0 < self.budget_factor < math.inf:
            raise ValueError("budget_factor must be positive and finite")
        if self.boost_rounds < 1:
            raise ValueError("boost_rounds must be at least 1")


@dataclass
class SequenceOracle:
    """A sequence of values in [0, 1] addressed by index, plus its ledger."""

    values: np.ndarray
    ledger: QueryLedger = field(default_factory=QueryLedger)

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("values must form a non-empty 1-d array")
        if float(arr.min()) < 0.0 or float(arr.max()) > 1.0:
            raise ValueError("values must lie in [0, 1]")
        self.values = arr

    @property
    def n(self) -> int:
        return self.values.size

    def value(self, i: int) -> float:
        """Read one value (one classical query)."""
        self.ledger.classical_queries += 1
        return float(self.values[int(i)])


@dataclass
class MaxResult:
    """Outcome of an extremum search.

    value is the best value found (exactly the sequence/model entry at the
    witness).  success is False when the final round was cut off by budget
    exhaustion immediately after an improvement, i.e. the threshold chain
    did not end with a completed, failed search.
    """

    value: float
    witness: object
    success: bool
    ledger: QueryLedger


def qsearch(
    pred: MarkPredicate,
    rng: np.random.Generator,
    params: SearchParams,
    max_queries: int,
) -> int | None:
    """Find any marked index, unknown mark count, within a query budget.

    Each attempt draws j uniformly from {0, ..., ceil(m)-1}, runs j
    amplification steps from the uniform state, measures, and verifies the
    outcome classically (one classical query).  On failure m grows by
    lambda_ up to sqrt(dim).  Draws are clamped so that exactly
    ``max_queries`` quantum queries are consumed before giving up.

    Returns a verified marked index, or None at budget exhaustion.
    """
    if max_queries < 0:
        raise ValueError("max_queries must be non-negative")
    dim = pred.dim
    if dim == 1:
        # A zero-step attempt would repeat forever; one classical check
        # settles the only index.
        return 0 if pred.check(0) else None
    used = 0
    m = 1.0
    m_cap = math.sqrt(dim)
    while True:
        j = int(rng.integers(0, math.ceil(m)))
        j = min(j, max_queries - used)
        state = uniform_state(dim)
        for _ in range(j):
            state = grover_iteration(state, pred)
        used += j
        cand = measure(state, rng)
        if pred.check(cand):
            return cand
        if used >= max_queries:
            return None
        m = min(params.lambda_ * m, m_cap)


class _Accessor:
    """The threshold climb's view of a value sequence.

    Each value(i) read is one classical query.  predicate(t) marks the
    indices whose value is > t, with all_values() as its truth table.
    """

    __slots__ = ("n", "ledger", "_value_at", "_all_values")

    def __init__(self, n: int, ledger: QueryLedger, value_at, all_values) -> None:
        self.n = n
        self.ledger = ledger
        self._value_at = value_at
        self._all_values = all_values

    def value(self, i: int) -> float:
        self.ledger.classical_queries += 1
        return self._value_at(int(i))

    def predicate(self, threshold: float) -> MarkPredicate:
        value_at, all_values = self._value_at, self._all_values
        return MarkPredicate(
            self.n,
            lambda i: value_at(int(i)) > threshold,
            self.ledger,
            mask_provider=lambda: all_values() > threshold,
        )


def _threshold_climb(acc, rng, params, budget, record=None):
    """One round of threshold improvement within a quantum budget.

    Returns (index, value, clean) where clean is True when the round ended
    with a completed (failed) search rather than a truncated one.
    """
    s = int(rng.integers(0, acc.n))
    current = acc.value(s)
    if record is not None:
        record.append(current)
    start = acc.ledger.quantum_queries
    clean = False
    while True:
        remaining = budget - (acc.ledger.quantum_queries - start)
        if remaining <= 0:
            break
        pred = acc.predicate(current)
        idx = qsearch(pred, rng, params, remaining)
        if idx is None:
            clean = True
            break
        s = idx
        current = acc.value(s)
        if record is not None:
            record.append(current)
    return s, current, clean


def _boosted_climb(acc, rng, params, budget, record_thresholds=None):
    best_s = None
    best_v = None
    success = True
    for _ in range(params.boost_rounds):
        rec = [] if record_thresholds is not None else None
        s, v, clean = _threshold_climb(acc, rng, params, budget, record=rec)
        if record_thresholds is not None:
            record_thresholds.append(rec)
        if best_v is None or v > best_v:
            best_s, best_v = s, v
        success = success and clean
    return best_s, best_v, success


def _climb_sequence(oracle, values, rng, params, record_thresholds):
    """Boosted maximum search over values, charged to the oracle's ledger."""
    params = params if params is not None else SearchParams()
    acc = _Accessor(oracle.n, oracle.ledger, lambda i: float(values[i]), lambda: values)
    budget = math.ceil(params.budget_factor * math.sqrt(acc.n))
    return _boosted_climb(acc, rng, params, budget, record_thresholds)


def find_maximum(
    oracle: SequenceOracle,
    rng: np.random.Generator,
    params: SearchParams | None = None,
    record_thresholds: list | None = None,
) -> MaxResult:
    """Locate the maximum of the sequence with high probability.

    Runs boost_rounds threshold-improvement rounds, each with a fresh
    quantum budget ceil(budget_factor * sqrt(n)), and keeps the best
    value.  A single round succeeds with probability greater than one
    half at the default budget factor; each extra round halves the
    failure probability.
    """
    s, v, success = _climb_sequence(oracle, oracle.values, rng, params, record_thresholds)
    return MaxResult(value=v, witness=s, success=success, ledger=oracle.ledger.snapshot())


def find_minimum(
    oracle: SequenceOracle,
    rng: np.random.Generator,
    params: SearchParams | None = None,
    record_thresholds: list | None = None,
) -> MaxResult:
    """Mirror image of find_maximum (thresholds strictly decrease).

    Runs the maximum search on the negated values; negation is exact, so
    every comparison, and hence every step, is that of a minimum search.
    """
    rec = [] if record_thresholds is not None else None
    s, v, success = _climb_sequence(oracle, -oracle.values, rng, params, rec)
    if record_thresholds is not None:
        record_thresholds.extend([-t for t in chain] for chain in rec)
    return MaxResult(value=-v, witness=s, success=success, ledger=oracle.ledger.snapshot())
