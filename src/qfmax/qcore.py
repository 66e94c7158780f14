"""Simulation of Grover-style amplitude amplification on class amplitudes.

The register lives on an arbitrary finite index set {0, ..., N-1}; N is any
positive integer, not only a power of two.  The diffusion operator
2|u><u| - I (reflection about the uniform superposition) is well defined for
every N, and algorithmic cost is measured in oracle queries rather than gate
counts, so nothing is gained by padding to qubit registers.

One amplification step applies the phase oracle (sign flip on marked
amplitudes) followed by the diffusion reflection, and charges exactly one
quantum query to the ledger.  Measurement is a classical projective sample
and is free; verifying a measured candidate against the predicate costs one
classical query.

All operations are pure (they return new states) except for ledger counter
increments.  Simulation work is not the cost model: only the ledger reflects
query complexity.  The search runs on ClassState: from the uniform start,
every step keeps one amplitude shared by all marked indices and one shared
by all unmarked indices, so a step is O(1) and a measurement bisects the
predicate's running mark count in O(log N).  StateVector holds all N
amplitudes, a step touches every one of them, and it serves as the
reference the two-amplitude state is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "QueryLedger",
    "StateVector",
    "ClassState",
    "MarkPredicate",
    "uniform_state",
    "grover_iteration",
    "measure",
    "grover_success_probability",
]

_NORM_TOL = 1e-12


@dataclass
class QueryLedger:
    """Counters for the three kinds of oracle access in one run.

    quantum_queries   one per amplification step (phase oracle applied to
                      the whole superposition).
    classical_queries one per post-measurement value lookup or comparison.
    evaluations       function/derivative evaluations charged by model
                      builders (weighted by coefficients per point).
    """

    quantum_queries: int = 0
    classical_queries: int = 0
    evaluations: int = 0

    def snapshot(self) -> "QueryLedger":
        return QueryLedger(self.quantum_queries, self.classical_queries, self.evaluations)


class StateVector:
    """Unit-norm vector of complex amplitudes over {0, ..., dim-1}."""

    __slots__ = ("dim", "amps")

    def __init__(self, amps) -> None:
        arr = np.asarray(amps, dtype=complex)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("amplitudes must form a non-empty 1-d array")
        nrm = float(np.linalg.norm(arr))
        if abs(nrm - 1.0) > _NORM_TOL:
            raise ValueError(f"state norm is {nrm!r}, expected 1")
        self.amps = arr.copy()
        self.dim = arr.size

    @classmethod
    def _trusted(cls, arr: np.ndarray) -> "StateVector":
        # Internal fast path for arrays produced by unitary steps; skips
        # validation and copying.
        obj = object.__new__(cls)
        obj.amps = arr
        obj.dim = arr.size
        return obj

    def probabilities(self) -> np.ndarray:
        a = self.amps
        return (a.real * a.real + a.imag * a.imag)

    def __repr__(self) -> str:  # pragma: no cover
        return f"StateVector(dim={self.dim})"


class ClassState:
    """Grover state of the search, stored as two class amplitudes.

    Every marked index carries the real amplitude ``marked`` and every
    unmarked index carries ``unmarked``.  ``counts`` is the running mark
    count R[i] = #{marked indices <= i} of the predicate the state was
    amplified under and ``k`` = R[dim-1] its marked count.  The uniform
    start has ``counts`` None and ``k`` 0: its two amplitudes are equal,
    so the marking does not matter yet.
    """

    __slots__ = ("dim", "marked", "unmarked", "counts", "k")

    def __init__(self, dim: int, marked: float, unmarked: float, counts=None, k: int = 0) -> None:
        self.dim = dim
        self.marked = marked
        self.unmarked = unmarked
        self.counts = counts
        self.k = k

    @classmethod
    def uniform(cls, dim: int) -> "ClassState":
        """Uniform superposition, amplitude 1/sqrt(dim) in both classes."""
        if dim < 1:
            raise ValueError("dim must be a positive integer")
        amp = 1.0 / math.sqrt(dim)
        return cls(dim, amp, amp)

    def locate(self, x: float) -> int:
        """First index whose cumulative probability exceeds x; dim-1 if none.

        With a = marked and b = unmarked, the probability mass of indices
        0..i is a^2 R[i] + b^2 (i+1-R[i]), non-decreasing in i, so bisection
        finds the index that searchsorted over the cumsum of the full
        probability vector would return.
        """
        a2 = self.marked * self.marked
        b2 = self.unmarked * self.unmarked
        counts = self.counts
        lo, hi = 0, self.dim - 1
        while lo < hi:
            mid = (lo + hi) // 2
            r = 0 if counts is None else counts.item(mid)
            if a2 * r + b2 * (mid + 1 - r) > x:
                hi = mid
            else:
                lo = mid + 1
        return lo

    def total(self) -> float:
        """Probability mass of all dim indices (1 up to rounding)."""
        k = self.k
        return self.marked * self.marked * k + self.unmarked * self.unmarked * (self.dim - k)


def uniform_state(dim: int) -> StateVector:
    """Uniform superposition, amplitude 1/sqrt(dim) on every index."""
    if dim < 1:
        raise ValueError("dim must be a positive integer")
    amps = np.full(dim, 1.0 / math.sqrt(dim), dtype=complex)
    return StateVector._trusted(amps)


class MarkPredicate:
    """Deterministic boolean marking of indices, with query accounting.

    ``marks`` is either a callable index -> bool or a boolean array of
    length ``dim``.  The phase oracle conceptually re-evaluates the
    predicate on every index at each amplification step; because the
    predicate is deterministic, the truth table is computed once and
    cached, which changes nothing observable.  ``mask_provider`` may
    supply the full table in one vectorized call.
    """

    __slots__ = ("dim", "ledger", "_marks", "_mask", "_counts", "_mask_provider")

    def __init__(
        self,
        dim: int,
        marks,
        ledger: QueryLedger | None = None,
        mask_provider: Callable[[], np.ndarray] | None = None,
    ) -> None:
        if dim < 1:
            raise ValueError("dim must be a positive integer")
        self.dim = dim
        self.ledger = ledger if ledger is not None else QueryLedger()
        self._mask_provider = mask_provider
        self._counts = None
        if callable(marks):
            self._marks = marks
            self._mask = None
        else:
            arr = np.asarray(marks, dtype=bool)
            if arr.shape != (dim,):
                raise ValueError("mark table must have shape (dim,)")
            self._mask = arr
            self._marks = lambda i: bool(arr[i])

    def mask(self) -> np.ndarray:
        if self._mask is None:
            if self._mask_provider is not None:
                arr = np.asarray(self._mask_provider(), dtype=bool)
                if arr.shape != (self.dim,):
                    raise ValueError("mask provider returned wrong shape")
                self._mask = arr
            else:
                self._mask = np.fromiter(
                    (bool(self._marks(i)) for i in range(self.dim)), bool, self.dim
                )
        return self._mask

    def counts(self) -> np.ndarray:
        """Running mark count R[i] = #{marked indices <= i}, cached with the mask.

        Reads the truth table on every call, as each phase-oracle
        application does.
        """
        mask = self.mask()
        if self._counts is None:
            self._counts = np.cumsum(mask)
        return self._counts

    def check(self, index: int) -> bool:
        """Classically verify one index (one classical query)."""
        self.ledger.classical_queries += 1
        return bool(self._marks(int(index)))

    def __call__(self, index: int) -> bool:
        return bool(self._marks(int(index)))


def grover_iteration(
    state: ClassState | StateVector, pred: MarkPredicate
) -> ClassState | StateVector:
    """One amplification step: phase oracle, then inversion about the mean.

    Takes a ClassState (an O(1) update of the two class amplitudes) or a
    StateVector (all dim amplitudes).  Charges exactly one quantum query.
    Preserves the norm (both factors are reflections, hence unitary for
    every dim >= 1).
    """
    if state.dim != pred.dim:
        raise ValueError(f"state dim {state.dim} != predicate dim {pred.dim}")
    if isinstance(state, ClassState):
        counts = pred.counts()
        if state.counts is counts:
            k = state.k
        elif state.counts is None:
            k = int(counts[-1])
        else:
            raise ValueError("state was amplified under another predicate")
        n = state.dim
        flipped = -state.marked
        mean = (k * flipped + (n - k) * state.unmarked) / n
        out = ClassState(n, 2.0 * mean - flipped, 2.0 * mean - state.unmarked, counts, k)
    else:
        m = pred.mask()
        flipped = np.where(m, -state.amps, state.amps)
        out = StateVector._trusted(2.0 * flipped.mean() - flipped)
    pred.ledger.quantum_queries += 1
    return out


def measure(state: ClassState | StateVector, rng: np.random.Generator) -> int:
    """Sample an index from |amps|^2 with one rng.random() draw.

    Free of queries.  Indices are ordered as in the cumulative sum of the
    probability vector, for a ClassState as for a StateVector.
    """
    if isinstance(state, ClassState):
        return state.locate(rng.random() * state.total())
    p = state.probabilities()
    c = np.cumsum(p)
    x = rng.random() * c[-1]
    i = int(np.searchsorted(c, x, side="right"))
    return min(i, state.dim - 1)


def grover_success_probability(N: int, k: int, j: int) -> float:
    """Closed-form marked mass after j amplification steps from uniform.

    With k of N indices marked and theta = arcsin(sqrt(k/N)), the marked
    probability mass after j steps is sin((2j+1) theta)^2.  Returns 0.0
    when k == 0 and 1.0 when k == N.
    """
    if N < 1:
        raise ValueError("N must be a positive integer")
    if not 0 <= k <= N:
        raise ValueError(f"k must lie in [0, {N}], got {k}")
    if j < 0:
        raise ValueError("j must be non-negative")
    if k == 0:
        return 0.0
    theta = math.asin(math.sqrt(k / N))
    return math.sin((2 * j + 1) * theta) ** 2
