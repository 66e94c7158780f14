"""Query-budgeted search and maximum finding over finite value sequences.

qsearch performs amplitude amplification with a randomized iteration count
when the number of marked indices is unknown (the classic exponential
searching scheme: draw the step count uniformly below a geometrically
growing cap, measure, verify classically).  find_maximum wraps it in a
threshold-improvement loop: keep a current best index, search for any
strictly better one, and stop once the quantum query budget
ceil(budget_factor * sqrt(n)) is exhausted.  Boosting repeats the whole
round and keeps the best answer, which drives the failure probability down
by a factor of two per round.  The climb reads one SequenceOracle, whose
values may be built on demand, and returns each round's threshold chain.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .qcore import (
    ClassState,
    MarkPredicate,
    QueryLedger,
    grover_iteration,
    measure,
)

__all__ = [
    "SearchParams",
    "SequenceOracle",
    "MaxResult",
    "qsearch",
    "find_maximum",
]

DEFAULT_MAX_QUANTUM_QUERIES = 2**24

# Uniform doubles qsearch takes from its rng per call: two per attempt, so
# one block serves 32 attempts.
_UNIFORM_BLOCK = 64


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
        if not isinstance(self.boost_rounds, numbers.Integral):
            raise ValueError(f"boost_rounds must be an integer, got {self.boost_rounds!r}")
        if self.boost_rounds < 1:
            raise ValueError("boost_rounds must be at least 1")

    def budget(self, n: int) -> int:
        """Quantum queries one threshold-search round over n items may use."""
        return math.ceil(self.budget_factor * math.sqrt(n))


class SequenceOracle:
    """A finite sequence of values addressed by index, plus its own ledger, empty at first.

    values must form a non-empty 1-d array of finite numbers, kept as a
    copy.  Each value(i) read is one classical query.  above(s) marks the
    indices whose value is > that of index s: its truth table is
    values() > values()[s], built at the predicate's first check() or mask().
    """

    __slots__ = ("n", "ledger", "_vals", "_build")

    def __init__(self, values) -> None:
        self.ledger = QueryLedger()
        self._vals, self._build = self._checked(values).copy(), None
        self.n = self._vals.size

    @classmethod
    def _lazy(cls, n: int, build, ledger: QueryLedger) -> SequenceOracle:
        """An oracle over the n values build() returns, built at the first read, check or mask."""
        oracle = cls.__new__(cls)
        oracle.n, oracle.ledger, oracle._vals, oracle._build = n, ledger, None, build
        return oracle

    @staticmethod
    def _checked(values) -> np.ndarray:
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 1 or arr.size == 0 or not np.isfinite(arr).all():
            raise ValueError("values must form a non-empty 1-d array of finite numbers")
        return arr

    def values(self) -> np.ndarray:
        if self._vals is None:
            vals = self._checked(self._build())
            if vals.shape != (self.n,):
                raise ValueError(f"built values must have shape ({self.n},), got {vals.shape}")
            self._vals = vals
        return self._vals

    def value(self, i: int) -> float:
        """Read one value (one classical query)."""
        self.ledger.classical_queries += 1
        return self.values().item(int(i))

    def above(self, s: int) -> MarkPredicate:
        return MarkPredicate(self.n, lambda: self.values() > self.values()[s], self.ledger)


@dataclass
class MaxResult:
    """Outcome of a maximum search.

    value is the best value found (exactly the sequence/model entry at the
    witness).  success is False when any round was cut off by budget
    exhaustion immediately after an improvement, i.e. its threshold chain
    did not end with a completed, failed search.  thresholds holds one
    chain per boosted round: the values the round climbed through, in
    order, from its random first read to its best.  The classical
    baselines leave it empty.
    """

    value: float
    witness: object
    success: bool
    ledger: QueryLedger
    thresholds: list = field(default_factory=list)


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

    Randomness comes from rng in blocks of _UNIFORM_BLOCK doubles, each
    block one rng.random call, and every attempt takes the next two: the
    first u gives j = int(u * ceil(m)), the second is passed to measure.
    Doubles left in the last block when the search ends are dropped.  A
    search over one index draws nothing.

    The steps run on the two-amplitude ClassState.  Every attempt walks the
    predicate's memoized chain from the same uniform start by successor
    links, so a step is a lookup that still reads the truth table and
    charges one quantum query, and a measurement is O(log k) in the number
    k of marked indices.

    Returns a verified marked index, or None at budget exhaustion.
    """
    if max_queries < 0:
        raise ValueError("max_queries must be non-negative")
    dim = pred.dim
    if dim == 1:
        # A zero-step attempt would repeat forever; one classical check
        # settles the only index.
        return 0 if pred.check(0) else None

    def uniforms():
        while True:
            yield from rng.random(_UNIFORM_BLOCK).tolist()

    draw = uniforms().__next__
    used = 0
    m = 1.0
    m_cap = math.sqrt(dim)
    start = ClassState.uniform(dim)
    while True:
        j = min(int(draw() * math.ceil(m)), max_queries - used)
        state = start
        for _ in range(j):
            state = grover_iteration(state, pred)
        used += j
        cand = measure(state, draw())
        if pred.check(cand):
            return cand
        if used >= max_queries:
            return None
        m = min(params.lambda_ * m, m_cap)


def _threshold_climb(oracle, rng, params, budget):
    """One round of threshold improvement within a quantum budget.

    Returns (index, chain, clean).  chain lists the values climbed, from
    the random first index to index, read (one classical query each) after
    the searches, whose first check() builds lazy values; clean is True
    when the round ended with a completed (failed) search, not a truncated one.
    """
    path = [int(rng.integers(0, oracle.n))]
    end = oracle.ledger.quantum_queries + budget
    idx = path[0]
    while idx is not None and oracle.ledger.quantum_queries < end:
        idx = qsearch(oracle.above(path[-1]), rng, params, end - oracle.ledger.quantum_queries)
        if idx is not None:
            path.append(idx)
    return path[-1], [oracle.value(i) for i in path], idx is None


def find_maximum(
    oracle: SequenceOracle,
    rng: np.random.Generator,
    params: SearchParams | None = None,
) -> MaxResult:
    """Locate the maximum of the sequence with high probability.

    Runs boost_rounds threshold-improvement rounds, each with a fresh
    quantum budget ceil(budget_factor * sqrt(n)), and keeps the value and
    index of the first round with the largest value.  A single round
    succeeds with probability greater than one half at the default budget
    factor; each extra round halves the failure probability.  success is
    True when every round ended clean.  params None means SearchParams().
    A total budget above DEFAULT_MAX_QUANTUM_QUERIES is refused before the
    first read.
    """
    params = params if params is not None else SearchParams()
    # the first test keeps ceil away from an overflowing product
    per_round = params.budget_factor * math.sqrt(oracle.n)
    if (
        per_round > DEFAULT_MAX_QUANTUM_QUERIES
        or params.boost_rounds * params.budget(oracle.n) > DEFAULT_MAX_QUANTUM_QUERIES
    ):
        raise ValueError(
            f"quantum budget of {params.boost_rounds} rounds of {per_round:.6g} queries "
            f"exceeds the cap of {DEFAULT_MAX_QUANTUM_QUERIES}"
        )
    budget = params.budget(oracle.n)
    rounds = [_threshold_climb(oracle, rng, params, budget) for _ in range(params.boost_rounds)]
    s, chain, _ = max(rounds, key=lambda rnd: rnd[1][-1])
    success = all(clean for _, _, clean in rounds)
    return MaxResult(chain[-1], s, success, oracle.ledger.snapshot(), [c for _, c, _ in rounds])
