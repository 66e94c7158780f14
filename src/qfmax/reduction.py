"""Reduction from computing OR of a bit string to smooth maximization.

Each bit owns one cell of the unit cube; set bits contribute a disjointly
supported smooth bump of height epsilon1.  The resulting function is a
class member whose maximum is exactly epsilon1 when any bit is set and 0
otherwise, so any maximizer with accuracy epsilon1 / 4 decides OR: answer
1 when the estimate lands in [3/4 eps1, 5/4 eps1] and 0 otherwise (an
accurate estimate for all-zero bits lands in [-1/4 eps1, 1/4 eps1]).
Since OR of n bits costs on the order of sqrt(n) quantum queries at best,
maximization to accuracy epsilon inherits the matching lower bound.
"""

from __future__ import annotations

import math

import numpy as np

from .holder import BumpFamily, Grid, HolderFunction, _as_points, _sum_factor, make_bump_family
from .maximizer import MaximizerParams, _solve_grid, quantum_maximize
from .search import MaxResult, SearchParams

__all__ = ["embed_bits", "decision_rule", "or_trial"]


def _as_bits(bits) -> np.ndarray:
    """bits as a bool array, refused unless every entry equals 0 or 1 before any cast."""
    arr = np.asarray(bits)
    if not ((arr == 0) | (arr == 1)).all():
        raise ValueError("bits must contain only 0 and 1")
    return arr.astype(bool)


def embed_bits(bits, family: BumpFamily) -> HolderFunction:
    """Sum of the family's bumps whose bit is set: the one way bits become a class member.

    Supports are pairwise disjoint, so at any point at most one bump is
    nonzero; evaluation locates the covering cell and evaluates only that
    bump.  The declared seminorm is one bump's, height / (kappa *
    radius^(r+rho)), times _sum_factor.  The exact maximum is
    family.height if any bit is set, else 0.
    """
    active = _as_bits(bits)
    if active.ndim != 1 or active.size != family.n_bumps:
        raise ValueError(f"bits must be a flat array of length {family.n_bumps}")
    d = family.d
    grid = Grid(family.cells_per_edge, d)

    def deriv(alpha, pts):
        pts = _as_points(pts, d)
        flat = grid.cell_of(pts)
        covered = flat < family.n_bumps
        idx = np.where(covered, flat, 0)
        live = covered & active[idx]
        out = np.zeros(pts.shape[0])
        if live.any():
            out[live] = family.member_derivative(idx[live], tuple(alpha), pts[live])
        return out

    one_bump = family.height / (family.kappa * family.radius ** (family.r + family.rho))
    declared = _sum_factor(family.n_bumps, family.rho) * one_bump
    return HolderFunction(
        d=d,
        r=family.r,
        rho=family.rho,
        deriv=deriv,
        seminorm_bound=declared,
        sup_bound=family.height,
        known_max=family.height if active.any() else 0.0,
        name="bits-embedding",
    )


def decision_rule(value: float, epsilon1: float) -> int:
    """OR decision from a maximizer estimate: 1 inside [3/4, 5/4] epsilon1, else 0."""
    if not 0.0 < epsilon1 < math.inf:
        raise ValueError(f"epsilon1 must be positive and finite, got {epsilon1}")
    return int(0.75 * epsilon1 <= value <= 1.25 * epsilon1)


def or_trial(
    bits,
    epsilon1: float | None,
    search: SearchParams | None,
    rng: np.random.Generator,
    d: int = 1,
    r: int = 0,
    rho: float = 1.0,
) -> tuple[int, MaxResult, float]:
    """One full OR-via-maximization run.

    epsilon1=None picks the largest class-conforming bump height for the
    layout.  The maximizer always runs at epsilon = epsilon1 / 4, the
    accuracy the decision window needs; search=None takes SearchParams().
    Returns (bit, maximizer result, epsilon1 used).
    """
    bits = _as_bits(bits)
    family = make_bump_family(bits.size, d, r, rho, epsilon1)
    params = MaximizerParams(epsilon=family.height / 4.0, search=search or SearchParams())
    _solve_grid(params, d, r, rho)  # refuses an oversized grid before any bump is built
    res = quantum_maximize(embed_bits(bits, family), params, rng)
    return decision_rule(res.value, family.height), res, family.height

