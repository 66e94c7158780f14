"""
Amplitude amplification on a plain statevector
==============================================

One Grover step is a sign flip on the marked entries followed by a
reflection about the uniform state. Everything here runs on dense numpy
vectors, so we can watch the marked mass slosh around and compare it with
the closed-form prediction sin^2((2j+1) asin sqrt(k/N)).
"""

import numpy as np

from qfmax import (
    MarkPredicate,
    grover_iteration,
    grover_success_probability,
    measure,
    uniform_state,
)

N = 64
MARKED = (7, 21, 22)

mask = np.zeros(N, dtype=bool)
mask[list(MARKED)] = True
pred = MarkPredicate(N, mask)

# -- walk the iteration count and watch the marked mass ---------------------
state = uniform_state(N)
print(f"N = {N}, {mask.sum()} marked items")
print(f"{'j':>3} {'simulated':>12} {'closed form':>12}")
for j in range(13):
    simulated = state.probabilities()[mask].sum()
    predicted = grover_success_probability(N, int(mask.sum()), j)
    print(f"{j:>3} {simulated:>12.6f} {predicted:>12.6f}")
    state = grover_iteration(state, pred)

# The mass peaks near j = (pi/4) sqrt(N/k) and then rotates past the target:
# running longer actively hurts, which is why the search layer randomizes j.
best_j = int(np.round(np.pi / 4 * np.sqrt(N / mask.sum()) - 0.5))
print(f"\npeak expected near j = {best_j}")

# -- sample from the rotated state ------------------------------------------
state = uniform_state(N)
for _ in range(best_j):
    state = grover_iteration(state, pred)
rng = np.random.default_rng(1)
draws = np.array([measure(state, rng.random()) for _ in range(200)])
hit = np.isin(draws, MARKED).mean()
print(f"after {best_j} steps, 200 measurements land on a marked index "
      f"{hit:.0%} of the time")

# The ledger on the predicate counted one quantum query per iteration.
print(f"quantum queries charged: {pred.ledger.quantum_queries}")
