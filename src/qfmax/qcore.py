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
by all unmarked indices.  Each predicate memoizes the chain of states its
steps reach from the uniform start: every state links to its successor,
computed once by the recurrence, so a step follows one link, still reads
the truth table and charges one quantum query.  A measurement takes one
uniform double u in [0, 1), then bisects the k sorted marked positions and
solves the unmarked run after them in closed form, O(log k).  StateVector
holds all N amplitudes, a step touches every one of them, and it serves as
the reference the two-amplitude state is checked against.
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


class ClassState:
    """Grover state of the search, stored as two class amplitudes.

    Every marked index carries the real amplitude ``marked`` and every
    unmarked index carries ``unmarked``.  ``positions`` holds the sorted
    marked indices of the predicate the state was amplified under, ``k``
    their number, and the state is an entry of that predicate's chain of
    states reached from the uniform start.  ``succ`` memoizes the next
    entry: None until a step first leaves this state, then that
    state.  The uniform start has ``positions`` None and ``k`` 0: its two
    amplitudes are equal, so the marking does not matter yet, and it may
    start under any predicate; its ``succ`` stays None.  Amplitudes never
    change and ``succ`` is set once, so chain entries are shared by every
    caller.
    """

    __slots__ = ("dim", "marked", "unmarked", "positions", "k", "succ")

    def __init__(self, dim: int, marked: float, unmarked: float, positions=None) -> None:
        self.dim = dim
        self.marked = marked
        self.unmarked = unmarked
        self.positions = positions
        self.k = 0 if positions is None else positions.size
        self.succ = None

    @classmethod
    def uniform(cls, dim: int) -> "ClassState":
        """Uniform superposition, amplitude 1/sqrt(dim) in both classes."""
        if dim < 1:
            raise ValueError("dim must be a positive integer")
        amp = 1.0 / math.sqrt(dim)
        return cls(dim, amp, amp)

    def _successor(self) -> "ClassState":
        """The state one step later: phase flip, then inversion about the mean."""
        n, k = self.dim, self.k
        flipped = -self.marked
        mean = (k * flipped + (n - k) * self.unmarked) / n
        return ClassState(n, 2.0 * mean - flipped, 2.0 * mean - self.unmarked, self.positions)

    def locate(self, x: float) -> int:
        """First index whose cumulative probability exceeds x; dim-1 if none.

        With a = marked, b = unmarked and R[i] the number of marked indices
        <= i, the probability mass of indices 0..i is
        C(i) = a^2 R[i] + b^2 (i+1-R[i]).  Rounding is monotone, so C is
        non-decreasing in i and the answer is that of searchsorted over the
        cumsum of the full probability vector.  The t-th marked position
        P[t] has C(P[t]) = a^2 (t+1) + b^2 (P[t]-t): bisecting those k
        values finds t, the number of marked indices before the answer.
        The answer then lies in the unmarked run after P[t-1], where
        C(i) = a^2 t + b^2 (i+1-t) is solved by one division, corrected by
        the same expression.  O(log k); O(1) when nothing is marked.
        """
        a2 = self.marked * self.marked
        b2 = self.unmarked * self.unmarked
        positions, k = self.positions, self.k
        t, t_hi = 0, k
        while t < t_hi:
            mid = (t + t_hi) // 2
            if a2 * (mid + 1) + b2 * (positions.item(mid) - mid) > x:
                t_hi = mid
            else:
                t = mid + 1
        lo = 0 if t == 0 else positions.item(t - 1) + 1
        hi = self.dim - 1 if t == k else positions.item(t)
        if lo >= hi:
            return hi
        base = a2 * t
        if b2 == 0.0:
            return lo if base > x else hi
        q = (x - base) / b2
        i = max(lo, t + int(q)) if q < hi - t else hi
        while i > lo and base + b2 * (i - t) > x:
            i -= 1
        while i < hi and base + b2 * (i + 1 - t) <= x:
            i += 1
        return i

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

    ``table`` is a boolean array of shape (dim,), or a zero-argument
    callable returning one, called once at the first check() or mask(); a
    table of another shape is refused.  The phase oracle conceptually
    re-evaluates the deterministic predicate at every step, so its truth
    table is built once and cached, and check() reads the same table.  The
    predicate also keeps the head of the chain of ClassStates its steps
    reach from the uniform start: the uniform state marked by its table,
    whose successor links grover_iteration extends one step at a time.
    """

    __slots__ = ("dim", "ledger", "_mask", "_provider", "_head")

    def __init__(
        self,
        dim: int,
        table: np.ndarray | Callable[[], np.ndarray],
        ledger: QueryLedger | None = None,
    ) -> None:
        if dim < 1:
            raise ValueError("dim must be a positive integer")
        self.dim = dim
        self.ledger = ledger if ledger is not None else QueryLedger()
        self._head = None
        if callable(table):
            self._mask, self._provider = None, table
        else:
            self._mask, self._provider = self._shaped(table), None

    def _shaped(self, table) -> np.ndarray:
        arr = np.asarray(table, dtype=bool)
        if arr.shape != (self.dim,):
            raise ValueError(f"mark table must have shape ({self.dim},), got {arr.shape}")
        return arr

    def mask(self) -> np.ndarray:
        if self._mask is None:
            self._mask = self._shaped(self._provider())
        return self._mask

    def check(self, index: int) -> bool:
        """Classically verify one index (one classical query)."""
        self.ledger.classical_queries += 1
        return bool(self.mask()[int(index)])


def grover_iteration(
    state: ClassState | StateVector, pred: MarkPredicate
) -> ClassState | StateVector:
    """One amplification step: phase oracle, then inversion about the mean.

    Takes a ClassState or a StateVector (all dim amplitudes).  A ClassState
    step reads the truth table, as the phase oracle does, and returns the
    state's successor in the predicate's chain, computing it if no earlier
    step has.  Charges exactly one quantum query.  Preserves the norm (both
    factors are reflections, hence unitary for every dim >= 1).
    """
    if state.dim != pred.dim:
        raise ValueError(f"state dim {state.dim} != predicate dim {pred.dim}")
    mask = pred.mask()
    if isinstance(state, ClassState):
        head = pred._head
        if head is None:
            u = ClassState.uniform(pred.dim)
            head = pred._head = ClassState(u.dim, u.marked, u.unmarked, np.flatnonzero(mask))
        if state.positions is None:
            state = head
        elif state.positions is not head.positions:
            raise ValueError("state was amplified under another predicate")
        out = state.succ
        if out is None:
            out = state.succ = state._successor()
    else:
        flipped = np.where(mask, -state.amps, state.amps)
        out = StateVector._trusted(2.0 * flipped.mean() - flipped)
    pred.ledger.quantum_queries += 1
    return out


def measure(state: ClassState | StateVector, u: float) -> int:
    """Sample an index from |amps|^2 given one uniform double u in [0, 1).

    Returns the first index whose cumulative probability exceeds u times
    the total mass; in search.qsearch u is the attempt's second uniform.
    Free of queries.  Indices are ordered as in the cumulative sum of the
    probability vector, for a ClassState as for a StateVector.
    """
    if isinstance(state, ClassState):
        return state.locate(u * state.total())
    p = state.probabilities()
    c = np.cumsum(p)
    x = u * c[-1]
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
