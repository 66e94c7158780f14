"""Classical baselines sharing the local-model machinery.

grid_maximize scans every cell of the subdivision (deterministic,
exhaustive, one classical query per cell), random_maximize scans a
uniformly sampled subset of cells (drawn without replacement).  Both
return the best certified local model maximum, so their error obeys the
same (1/n)^(r+rho) chain as the quantum pipeline; only the query counts
differ.
"""

from __future__ import annotations

import numpy as np

from .holder import HolderFunction, build_grid
from .maximizer import local_max_at
from .qcore import QueryLedger
from .search import MaxResult

__all__ = ["grid_maximize", "random_maximize"]


def grid_maximize(f: HolderFunction, n: int) -> MaxResult:
    """Deterministic exhaustive scan over all n^d local model maxima."""
    grid = build_grid(n, f.d)
    ledger = QueryLedger()
    vals = local_max_at(f, grid, grid.centers(), ledger)
    ledger.classical_queries += grid.N
    i = int(np.argmax(vals))
    return MaxResult(
        value=float(vals[i]),
        witness=grid.center(i),
        success=True,
        ledger=ledger.snapshot(),
    )


def random_maximize(
    f: HolderFunction,
    n: int,
    budget: int,
    rng: np.random.Generator,
) -> MaxResult:
    """Best local model maximum over ``budget`` cells sampled uniformly.

    Sampling is without replacement, so budget >= n^d degenerates to the
    exhaustive scan.
    """
    if budget < 1:
        raise ValueError("budget must be positive")
    grid = build_grid(n, f.d)
    k = min(budget, grid.N)
    chosen = rng.choice(grid.N, size=k, replace=False)
    chosen.sort()
    centers = grid.centers(chosen)
    ledger = QueryLedger()
    vals = local_max_at(f, grid, centers, ledger)
    ledger.classical_queries += k
    j = int(np.argmax(vals))
    return MaxResult(
        value=float(vals[j]),
        witness=centers[j],
        success=True,
        ledger=ledger.snapshot(),
    )
