"""
Finding the maximum of an unsorted table in O(sqrt(n)) queries
==============================================================

The threshold method keeps a current best index and repeatedly searches,
with amplitude amplification, for any index whose value beats it. Each
improvement roughly halves the number of better candidates, so the whole
climb costs O(sqrt(n)) quantum queries even though nothing is sorted.
"""

import numpy as np

from qfmax import SearchParams, SequenceOracle, find_maximum, trial_rng

rng = np.random.default_rng(7)
n = 256
values = rng.permutation(n) / n

res = find_maximum(SequenceOracle(values), rng)
print(f"table of {n} distinct values")
print(f"found value {res.value:.6f} at index {res.witness} "
      f"(true max {values.max():.6f} at {values.argmax()})")
print(f"quantum queries {res.ledger.quantum_queries}, "
      f"classical comparisons {res.ledger.classical_queries}")
# Each boosting round climbs from a random start through strictly better
# values; res.thresholds holds one such chain per round.
for k, chain in enumerate(res.thresholds, 1):
    print(f"round {k} thresholds: " + " < ".join(f"{v:.6f}" for v in chain))

# -- success frequency under both boost settings -----------------------------
# One boosting round already succeeds more than half the time; a second
# independent round pushes the floor to three quarters.
trials = 400
for rounds in (1, 2):
    params = SearchParams(boost_rounds=rounds)
    hits = 0
    queries = 0
    for t in range(trials):
        trng = trial_rng(2, rounds, t)
        vals = trng.permutation(n) / n
        r = find_maximum(SequenceOracle(vals), trng, params)
        hits += r.value == vals.max()
        queries += r.ledger.quantum_queries
    print(f"boost_rounds={rounds}: success {hits / trials:.1%}, "
          f"mean quantum queries {queries / trials:.1f}")

# -- the sqrt(n) footprint ----------------------------------------------------
print(f"\n{'n':>6} {'mean quantum queries':>22} {'queries/sqrt(n)':>16}")
for n in (64, 256, 1024, 4096):
    queries = 0
    for t in range(50):
        trng = trial_rng(3, n, t)
        vals = trng.permutation(n) / n
        queries += find_maximum(SequenceOracle(vals), trng).ledger.quantum_queries
    mean = queries / 50
    print(f"{n:>6} {mean:>22.1f} {mean / np.sqrt(n):>16.2f}")
# The last column is flat: the budget scales exactly like sqrt(n).
