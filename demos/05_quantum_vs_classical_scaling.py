"""
Quadratic speedup in the accuracy parameter
===========================================

For the class with smoothness r + rho, reaching accuracy epsilon needs
about epsilon^(-d/(r+rho)) classical queries but only the square root of
that quantumly. This script measures both cost curves on randomized
instances, fits log-log slopes, and checks the ratio of exponents is 2.
"""

import numpy as np

from qfmax import (
    MaximizerParams,
    choose_n,
    fit_loglog_slope,
    grid_maximize,
    make_function,
    quantum_maximize,
    trial_rng,
)

D, R, RHO = 1, 0, 1.0
EPS = (0.2, 0.1, 0.05, 0.02, 0.01, 0.005)

quantum_pts = []
classical_pts = []
print(f"{'epsilon':>8} {'n':>5} {'quantum':>9} {'classical':>10}")
for p, eps in enumerate(EPS):
    # a few trials average out the randomized instances; the query budget
    # itself is deterministic in n, so the mean settles immediately
    q = 0.0
    trials = 5
    for t in range(trials):
        f = make_function("peak", D, R, RHO, rng=trial_rng(50, p, t, 0))
        res = quantum_maximize(f, MaximizerParams(epsilon=eps), trial_rng(50, p, t, 1))
        q += res.ledger.quantum_queries
    n = choose_n(eps, D, R, RHO)
    f = make_function("peak", D, R, RHO, rng=trial_rng(50, p, 9))
    c = grid_maximize(f, n).ledger.classical_queries
    quantum_pts.append((eps, q / trials))
    classical_pts.append((eps, c))
    print(f"{eps:>8} {n:>5} {q / trials:>9.1f} {c:>10}")

slope_q, _, r2_q = fit_loglog_slope(quantum_pts)
slope_c, _, r2_c = fit_loglog_slope(classical_pts)
print(f"\nquantum   slope {slope_q:+.3f}  (theory {-D / (2 * (R + RHO)):+.2f}, "
      f"r2 {r2_q:.4f})")
print(f"classical slope {slope_c:+.3f}  (theory {-D / (R + RHO):+.2f}, "
      f"r2 {r2_c:.4f})")
print(f"exponent ratio  {slope_c / slope_q:.2f}  (quadratic speedup = 2)")

# The same sweep is scriptable from the shell with CSV output:
#   qfmax holder-queries-vs-eps --d 1 --r 0 --rho 1 \
#       --eps 0.2,0.1,0.05,0.02,0.01 --trials 5 --seed 50 --out scaling.csv
