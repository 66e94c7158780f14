"""
Maximizing a smooth function to a requested accuracy
====================================================

The maximizer covers [0,1]^d with n^d cubes, builds an order-r Taylor
model at each center, bounds each model's cube maximum to tolerance
eps1, and then finds the best cube with the quantum discrete-maximum
routine. Given a target accuracy epsilon it picks n itself so that the
model error plus eps1 stays under epsilon.
"""

import numpy as np

from qfmax import MaximizerParams, choose_n, make_function, quantum_maximize

rng = np.random.default_rng(11)

# -- a one-dimensional target with a known maximum ----------------------------
f = make_function("cosprod", d=1, r=1, rho=1.0, rng=rng)
print(f"target {f.name!r}: d={f.d}, r={f.r}, rho={f.rho}, "
      f"known max {f.known_max:.6f}")

for eps in (0.1, 0.01, 0.001):
    n = choose_n(eps, f.d, f.r, f.rho)
    res = quantum_maximize(f, MaximizerParams(epsilon=eps), rng)
    err = abs(res.value - f.known_max)
    print(f"  epsilon {eps:<6} -> n = {n:>4} cubes, value {res.value:.6f}, "
          f"error {err:.2e}, quantum queries {res.ledger.quantum_queries}, "
          f"evaluations {res.ledger.evaluations}")

# The error column runs well below epsilon: the guarantee is conservative
# because the class constant bounds the worst member, not this function.

# -- two dimensions, same interface --------------------------------------------
g = make_function("cosprod", d=2, r=2, rho=1.0)
res = quantum_maximize(g, MaximizerParams(epsilon=0.01), rng)
print(f"\ntarget {g.name!r}: value {res.value:.6f} at witness {res.witness}, "
      f"known max {g.known_max:.6f}")
print(f"  quantum queries {res.ledger.quantum_queries}, "
      f"derivative evaluations {res.ledger.evaluations}")

# -- overriding the resolution --------------------------------------------------
# n_override skips the accuracy-driven choice; useful when sweeping n directly.
res = quantum_maximize(g, MaximizerParams(n_override=32), rng)
print(f"\nforced n=32: value {res.value:.6f}, "
      f"error {abs(res.value - g.known_max):.2e}")

# A randomized instance family with the maximum planted at a random point.
# Instances drawn with the same generator state are identical.
h = make_function("peak", d=2, r=1, rho=0.5, rng=np.random.default_rng(4))
res = quantum_maximize(h, MaximizerParams(epsilon=0.05), rng)
print(f"\nrandomized {h.name!r}: value {res.value:.6f}, "
      f"planted max {h.known_max:.6f}, success flag {res.success}")
