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

from dataclasses import replace

import numpy as np

from .holder import BumpFamily, HolderFunction, _as_points, make_bump_family
from .maximizer import MaximizerParams, quantum_maximize
from .search import MaxResult

__all__ = ["embed_bits", "decision_rule", "or_trial", "or_via_maximizer"]


def embed_bits(bits, family: BumpFamily) -> HolderFunction:
    """Sum of the family members whose bit is set.

    Supports are pairwise disjoint, so at any point at most one member is
    nonzero; evaluation locates the covering cell and evaluates only that
    member.  The exact maximum is family.height if any bit is set, else 0.
    """
    arr = np.asarray(bits, dtype=int)
    if arr.ndim != 1 or arr.size != family.n_bumps:
        raise ValueError(f"bits must be a flat array of length {family.n_bumps}")
    if not np.isin(arr, (0, 1)).all():
        raise ValueError("bits must contain only 0 and 1")
    active = arr.astype(bool)
    m = family.cells_per_edge
    d = family.d

    def deriv(alpha, pts):
        pts = _as_points(pts, d)
        cell_axes = np.clip((pts * m).astype(int), 0, m - 1)
        flat = np.ravel_multi_index(tuple(cell_axes.T), (m,) * d)
        covered = flat < family.n_bumps
        idx = np.where(covered, flat, 0)
        live = covered & active[idx]
        out = np.zeros(pts.shape[0])
        if live.any():
            out[live] = family.member_derivative(idx[live], tuple(alpha), pts[live])
        return out

    # a^rho + b^rho <= 2^(1-rho) (a+b)^rho: pairs split across two supports
    # can exceed the single-member quotient by this factor.
    order = family.r + family.rho
    declared = 2.0 ** (1.0 - family.rho) * family.height / (family.kappa * family.radius**order)
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
    if epsilon1 <= 0.0:
        raise ValueError("epsilon1 must be positive")
    return int(0.75 * epsilon1 <= value <= 1.25 * epsilon1)


def or_trial(
    bits,
    epsilon1: float | None,
    params: MaximizerParams | None,
    rng: np.random.Generator,
    d: int = 1,
    r: int = 0,
    rho: float = 1.0,
) -> tuple[int, MaxResult, float]:
    """One full OR-via-maximization run.

    epsilon1=None picks the largest class-conforming bump height for the
    layout.  Unless params pins an accuracy or a grid size, the maximizer
    runs at the coupled target epsilon = epsilon1 / 4.  Returns
    (bit, maximizer result, epsilon1 used).
    """
    bits = np.asarray(bits, dtype=int)
    family = make_bump_family(bits.size, d, r, rho, epsilon1)
    f = embed_bits(bits, family)
    if params is None:
        params = MaximizerParams(epsilon=family.height / 4.0)
    elif params.epsilon is None and params.n_override is None:
        params = replace(params, epsilon=family.height / 4.0)
    res = quantum_maximize(f, params, rng)
    return decision_rule(res.value, family.height), res, family.height


def or_via_maximizer(
    bits,
    epsilon1: float | None,
    params: MaximizerParams | None,
    rng: np.random.Generator,
    d: int = 1,
    r: int = 0,
    rho: float = 1.0,
) -> int:
    """OR of the bit string, computed through the smooth maximizer."""
    bit, _, _ = or_trial(bits, epsilon1, params, rng, d, r, rho)
    return bit
