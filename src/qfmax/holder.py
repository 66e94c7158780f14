"""Holder smoothness classes on the unit cube: grids, Taylor tableaux, bumps.

The function class F(r, rho, d) consists of f in C^r([0,1]^d) with
sup |f| <= 1 whose order-r partial derivatives are rho-Holder with constant
1 in the max norm:

    |D^a f(x) - D^a f(y)| <= ||x - y||_inf ** rho   for all |a| = r.

Functions are represented by a derivative evaluator covering every
multi-index up to order r, so degree-r Taylor models can be assembled at
any point from exact derivative values.  A model has one form: a row of
the tableau (alphas, coeffs) that taylor_tableau builds at a batch of
centers, evaluated at offsets from its center by eval_taylor, the one
polynomial evaluator, which also gives the certification kernel's bounds.
Subdividing the cube into n^d congruent cells and modelling f around
each cell center keeps the model error of order (1/n)^(r+rho) uniformly.

The bump family is the layout through which reduction.embed_bits turns bit
strings into smooth functions: each bit owns one cell of an m-per-edge
partition and contributes a compactly supported C^r bump, a product of the
polynomial profile bump_profile, scaled so the family stays inside the unit
ball of the class.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .qcore import QueryLedger

__all__ = [
    "multi_indices",
    "coefficient_count",
    "HolderFunction",
    "Grid",
    "build_grid",
    "taylor_tableau",
    "eval_taylor",
    "remainder_bound_check",
    "bump_profile",
    "bump_class_scale",
    "BumpFamily",
    "make_bump_family",
    "membership_check",
]

DEFAULT_MAX_CUBES = 2**24


# ---------------------------------------------------------------------------
# multi-indices


@lru_cache(maxsize=None)
def multi_indices(d: int, max_order: int) -> tuple[tuple[int, ...], ...]:
    """All exponent tuples alpha with |alpha| <= max_order.

    Deterministic order: ascending total order, lexicographic within each
    order.  The count equals comb(d + max_order, max_order).
    """
    if d < 1 or max_order < 0:
        raise ValueError("need d >= 1 and max_order >= 0")
    out: list[tuple[int, ...]] = []
    for order in range(max_order + 1):
        # stars and bars: d - 1 bars among order + d - 1 places, in lexicographic
        # order, give the compositions of order into d parts in lexicographic order
        for bars in itertools.combinations(range(order + d - 1), d - 1):
            edges = (-1,) + bars + (order + d - 1,)
            out.append(tuple(b - a - 1 for a, b in zip(edges, edges[1:])))
    return tuple(out)


def coefficient_count(d: int, r: int) -> int:
    """Number of Taylor coefficients of order <= r in d variables."""
    return math.comb(d + r, r)


def _alpha_factorial(alpha: tuple[int, ...]) -> float:
    out = 1.0
    for a in alpha:
        out *= math.factorial(a)
    return out


# ---------------------------------------------------------------------------
# function representation


def _check_class(d: int, r: int, rho: float) -> None:
    """Refuse (d, r, rho) outside the class: integers d >= 1 and r >= 0, and 0 < rho <= 1."""
    if not isinstance(d, numbers.Integral) or d < 1:
        raise ValueError(f"d must be a positive integer, got {d!r}")
    if not isinstance(r, numbers.Integral) or r < 0:
        raise ValueError(f"r must be a non-negative integer, got {r!r}")
    if not 0.0 < rho <= 1.0:
        raise ValueError("rho must lie in (0, 1]")


@dataclass(frozen=True)
class HolderFunction:
    """A function on [0,1]^d with exact derivatives up to order r.

    deriv(alpha, pts) evaluates D^alpha f at a batch of points with shape
    (M, d) and returns shape (M,).  seminorm_bound is the declared Holder
    constant of the order-r derivatives (class members have it <= 1),
    sup_bound a declared bound on |f|, and known_max the exact maximum
    when available (used by benchmarks to score errors).
    """

    d: int
    r: int
    rho: float
    deriv: Callable[[tuple[int, ...], np.ndarray], np.ndarray]
    seminorm_bound: float = 1.0
    sup_bound: float = 1.0
    known_max: float | None = None
    name: str = ""

    def __post_init__(self) -> None:
        _check_class(self.d, self.r, self.rho)

    def partial(self, alpha: tuple[int, ...], pts) -> np.ndarray:
        alpha = tuple(int(a) for a in alpha)
        if len(alpha) != self.d or min(alpha) < 0:
            raise ValueError(f"bad multi-index {alpha} for d={self.d}")
        if sum(alpha) > self.r:
            raise ValueError(f"derivative order {sum(alpha)} exceeds r={self.r}")
        pts = _as_points(pts, self.d)
        return np.asarray(self.deriv(alpha, pts), dtype=float)

    def __call__(self, pts) -> np.ndarray:
        return self.partial((0,) * self.d, pts)


def _as_points(pts, d: int) -> np.ndarray:
    arr = np.asarray(pts, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(1, d) if arr.size == d else arr.reshape(-1, 1)
    if arr.ndim != 2 or arr.shape[1] != d:
        raise ValueError(f"points must have shape (M, {d})")
    return arr


# ---------------------------------------------------------------------------
# grid of congruent cells


@dataclass(frozen=True)
class Grid:
    """Partition of [0,1]^d into n^d congruent closed cubes, C-order indexed."""

    n: int
    d: int

    def __post_init__(self) -> None:
        if not (isinstance(self.n, numbers.Integral) and isinstance(self.d, numbers.Integral)):
            raise ValueError(f"grid needs integer n and d, got n={self.n!r}, d={self.d!r}")
        if self.n < 1 or self.d < 1:
            raise ValueError("grid needs n >= 1 and d >= 1")
        if self.d > 64:  # numpy's cap on the axes of the cell index arrays
            raise ValueError(f"grid needs d <= 64, got d={self.d}")
        if self.N > np.iinfo(np.intp).max:  # numpy's cap on a flat cell index
            raise ValueError(
                f"grid of {self.n}^{self.d} cells has more cells than numpy can index"
            )

    @property
    def N(self) -> int:
        return self.n**self.d

    @property
    def h(self) -> float:
        return 1.0 / self.n

    def center(self, i: int) -> np.ndarray:
        return self.centers(np.array([int(i)]))[0]

    def centers(self, cells: np.ndarray | None = None) -> np.ndarray:
        """Centers of the flat cells (default all), row k matching cells[k].

        Axis index k is at (2k + 1) / (2n); the whole grid broadcasts those n values per axis.
        """
        n, d = self.n, self.d
        if cells is not None:
            a = np.stack(np.unravel_index(cells, (n,) * d), axis=1).astype(float)
            return (2.0 * a + 1.0) / (2.0 * n)
        axis = (2.0 * np.arange(n) + 1.0) / (2.0 * n)
        out = np.empty((self.N, d))
        for j in range(d):
            out[:, j] = np.broadcast_to(axis[:, None], (n**j, n, n ** (d - 1 - j))).ravel()
        return out

    def cell_of(self, pts) -> np.ndarray:
        """Flat cell index containing each point (boundary goes downward)."""
        arr = _as_points(pts, self.d)
        idx = np.clip((arr * self.n).astype(int), 0, self.n - 1)
        return np.ravel_multi_index(tuple(idx.T), (self.n,) * self.d)


def build_grid(n: int, d: int) -> Grid:
    """The n^d grid, refused up front above DEFAULT_MAX_CUBES cells."""
    grid = Grid(n=n, d=d)
    if grid.N > DEFAULT_MAX_CUBES:
        raise ValueError(f"grid of {n}^{d} cubes exceeds the cap of {DEFAULT_MAX_CUBES}")
    return grid


def _cell_scale(f: HolderFunction, grid: Grid) -> float:
    """(1/n)^(r+rho): the order of f's model error on one cell of the grid.

    It is also the tolerance eps1 to which each cell's model is maximized,
    and is refused when it underflows to 0.
    """
    scale = grid.h ** (f.r + f.rho)
    if not scale > 0.0:
        raise ValueError(
            f"cell tolerance (1/n)^(r+rho) underflows to 0 at n={grid.n}, "
            f"r+rho={f.r + f.rho:g}"
        )
    return scale


# ---------------------------------------------------------------------------
# Taylor models


def taylor_tableau(
    f: HolderFunction, centers, ledger: QueryLedger | None = None
) -> tuple[tuple[tuple[int, ...], ...], np.ndarray]:
    """Taylor coefficients at a batch of centers, shape (M, n_coeffs).

    Charges coefficient_count(d, r) evaluations per center to the ledger.
    """
    if f.r > 170:  # every alpha! <= r!, and 171! passes the largest double
        raise ValueError(f"Taylor models need r <= 170, got r={f.r}: r! overflows")
    centers = _as_points(centers, f.d)
    alphas = multi_indices(f.d, f.r)
    cols = [np.asarray(f.deriv(a, centers), dtype=float) / _alpha_factorial(a) for a in alphas]
    # C order like np.column_stack, at a fraction of its cost
    coeffs = np.array(cols).T.copy()
    if ledger is not None:
        ledger.evaluations += centers.shape[0] * len(alphas)
    return alphas, coeffs


@lru_cache(maxsize=None)
def _exponents(alphas, d: int) -> tuple[tuple, tuple[int, ...]]:
    """The evaluation plan of the monomials alphas in d variables, built once per alphas.

    Returns (factors, tops): factors[j] lists the (axis, exponent) pairs
    of alphas[j] with a non-zero exponent, in axis order, and tops[k] is
    the largest exponent of axis k.
    """
    factors = tuple(tuple((k, int(e)) for k, e in enumerate(alpha) if e) for alpha in alphas)
    tops = tuple(max((int(alpha[k]) for alpha in alphas), default=0) for k in range(d))
    return factors, tops


def eval_taylor(alphas, coeffs, offsets: np.ndarray) -> np.ndarray:
    """sum_k coeffs[..., k] * prod(offsets ** alphas[k]) for each row of offsets (M, d).

    The one polynomial evaluator: alphas and coeffs come from
    taylor_tableau (or are a partial's tableau in the certification
    kernel), and offsets are points minus the model's center.  coeffs is
    one row shared by all offsets, or (M, K) with one row per offset.
    Powers are numpy's x ** e, one column per axis and exponent.  Term j
    is coefficient column j times the power column of each non-zero
    exponent, in axis order, and the terms are added left to right into
    a total that starts at 0.0.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape[-1:] != (len(alphas),):
        raise ValueError(f"coeffs need a last axis of {len(alphas)}, got shape {coeffs.shape}")
    factors, tops = _exponents(alphas, offsets.shape[1])
    powers = [[1.0, x, *(x**e for e in range(2, top + 1))] for x, top in zip(offsets.T, tops)]
    total = np.zeros(offsets.shape[0])
    for j, term_factors in enumerate(factors):
        term = coeffs[..., j]
        for k, e in term_factors:
            term = term * powers[k][e]
        total += term
    return total


def remainder_bound_check(
    f: HolderFunction,
    grid: Grid,
    samples: int,
    rng: np.random.Generator | None = None,
) -> float:
    """Worst sampled |f - model| / (1/n)^(r+rho) over random (cell, point) pairs.

    One tableau holds the models at the sampled cells' centers, one row
    per pair, and eval_taylor evaluates each at its pair's point.

    For class members the ratio stays below a constant depending only on
    (d, r), such as maximizer.default_h_conf; callers compare the
    returned ratio with it.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    if rng is None:
        rng = np.random.default_rng(0)
    denom = _cell_scale(f, grid)
    cells = rng.integers(0, grid.N, size=samples)
    offs = (rng.random((samples, f.d)) - 0.5) * grid.h
    centers = grid.centers(cells)
    pts = np.clip(centers + offs, 0.0, 1.0)
    alphas, coeffs = taylor_tableau(f, centers)
    worst = float(np.abs(f(pts) - eval_taylor(alphas, coeffs, pts - centers)).max()) / denom
    return worst


# ---------------------------------------------------------------------------
# compactly supported bumps


# In the power basis the order-r derivative errs by 3.4e-9 of its sup at
# r = 20 and by 1.7e-8 at r = 21; tests/test_holder.py checks r = 12, 16
# and 20 against exact rationals.  Up to this cap that stays far inside
# kappa's 10 percent margin.
_MAX_PROFILE_ORDER = 20


@lru_cache(maxsize=None)
def _profile_poly(r: int, order: int) -> np.polynomial.Polynomial:
    return (np.polynomial.Polynomial([1, 0, -1]) ** (r + 1)).deriv(order)


def bump_profile(u, r: int, order: int = 0) -> np.ndarray | float:
    """The order-th derivative of the C^r profile: (1-|u|)_+ at r = 0, (1-u^2)_+^(r+1) above.

    Every derivative of order <= r vanishes at |u| = 1, and the order-r
    derivative is Lipschitz, so one profile serves every rho <= 1.
    Outside the support the value is exactly 0.  Refuses an order outside
    0..r and an r past _MAX_PROFILE_ORDER.
    """
    if r > _MAX_PROFILE_ORDER:
        raise ValueError(
            f"bump profile derivative of order {r} is past double precision "
            f"(bumps take r <= {_MAX_PROFILE_ORDER})"
        )
    if not 0 <= order <= r:
        raise ValueError(f"order must be in 0..{r}, got {order}")
    arr = np.asarray(u, dtype=float)
    vals = 1.0 - np.abs(arr) if r == 0 else _profile_poly(r, order)(arr)
    out = np.where(np.abs(arr) < 1.0, vals, 0.0)
    return float(out) if out.ndim == 0 else out


@lru_cache(maxsize=None)
def _profile_sup(r: int, order: int) -> float:
    return float(np.abs(bump_profile(np.linspace(-1.0, 1.0, 8001), r, order)).max())


@lru_cache(maxsize=None)
def _profile_seminorm(r: int, order: int, rho_key: float) -> float:
    """Dense estimate of the 1-d rho-Holder seminorm of the profile's order-th derivative."""
    rho = float(rho_key)
    g = np.linspace(-1.0, 1.0, 20001)
    v = bump_profile(g, r, order)
    step = g[1] - g[0]
    worst = 0.0
    stride = 1
    while stride < g.size:
        dv = np.abs(v[stride:] - v[:-stride])
        worst = max(worst, float(dv.max()) / (stride * step) ** rho)
        stride *= 2
    return worst


@lru_cache(maxsize=None)
def bump_class_scale(d: int, r: int, rho_key: float) -> float:
    """kappa with: height <= kappa * radius^(r+rho) keeps one bump in class.

    The order-r seminorm of the unit-radius product bump is bounded by
    max over |alpha| = r of sum_k H(alpha_k) prod_{j != k} M(alpha_j),
    with H and M dense 1-d estimates of the seminorms and sups of the
    derivatives of the C^r profile (bump_profile).  A 10 percent margin
    absorbs the sampling error of the 1-d estimates.  Pairs straddling
    the support boundary are covered for free: the segment from an inside
    point to an outside point crosses the boundary, where every profile
    derivative of order <= r vanishes, and max-norm distances along a
    segment are additive.  Sums over several disjoint supports are NOT
    covered; a pair split across two supports can push the quotient up by
    another 2^(1-rho) (see _sum_factor).
    """
    rho = float(rho_key)
    _check_class(d, r, rho)
    worst = 0.0
    for alpha in multi_indices(d, r):
        if sum(alpha) != r:
            continue
        total = 0.0
        for k in range(d):
            term = _profile_seminorm(r, alpha[k], rho)
            for j in range(d):
                if j != k:
                    term *= _profile_sup(r, alpha[j])
            total += term
        worst = max(worst, total)
    return 1.0 / (1.1 * worst)


# Support shrink keeps neighbouring supports strictly separated.
_SUPPORT_SHRINK = 0.99


@dataclass(frozen=True)
class BumpFamily:
    """n_bumps disjointly supported product bumps of common height.

    Cell layout: the first n_bumps cells of Grid(m, d), the smallest grid
    with m^d >= n_bumps, one bump centered on each (centers, built at its
    first read); the other cells stay empty.  The support radius is
    slightly below half the cell width so supports keep a positive gap.
    A family is a layout with no function of its own: reduction.embed_bits
    turns any choice of its bumps into a HolderFunction.
    """

    n_bumps: int
    d: int
    r: int
    rho: float
    radius: float
    height: float
    kappa: float
    cells_per_edge: int

    @cached_property
    def centers(self) -> np.ndarray:
        return Grid(self.cells_per_edge, self.d).centers(np.arange(self.n_bumps))

    def member_derivative(self, i, alpha: tuple[int, ...], pts) -> np.ndarray:
        """D^alpha of member i at pts; i is one index or one index per point."""
        pts = _as_points(pts, self.d)
        u = (pts - self.centers[np.asarray(i, dtype=int)]) / self.radius
        out = np.full(pts.shape[0], self.height)
        for k, a in enumerate(alpha):
            out = out * bump_profile(u[:, k], self.r, a) / self.radius**a
        return out


def _sum_factor(n_bumps: int, rho: float) -> float:
    """How far a sum of bumps can exceed one bump's Holder quotient.

    A pair split across two supports is bounded through the boundary
    points between them: a^rho + b^rho <= 2^(1-rho) (a+b)^rho.  One bump
    has no such pair.
    """
    return 2.0 ** (1.0 - rho) if n_bumps > 1 else 1.0


def make_bump_family(
    n_bumps: int, d: int, r: int, rho: float, height: float | None
) -> BumpFamily:
    """Build a family of n_bumps disjoint bumps whose every sum is a class member.

    height=None picks 95 percent of the largest class-conforming height.
    Raises if the requested height exceeds kappa * radius^(r+rho), divided
    by _sum_factor (a sum of bumps would leave the unit ball of the
    class), or 1 (sup bound).
    """
    if not isinstance(n_bumps, numbers.Integral) or n_bumps < 1:
        raise ValueError(f"n_bumps must be a positive integer, got {n_bumps!r}")
    _check_class(d, r, rho)
    # the fewest cells per edge with m^d >= n_bumps: a float root, made exact
    m = max(1, round(n_bumps ** (1 / d)))
    while m**d < n_bumps:
        m += 1
    while (m - 1) ** d >= n_bumps:
        m -= 1
    radius = _SUPPORT_SHRINK * 0.5 / m
    kappa = bump_class_scale(d, r, float(rho))
    cap = min(1.0, kappa * radius ** (r + rho) / _sum_factor(n_bumps, rho))
    if height is None:
        height = 0.95 * cap
    if height <= 0.0:
        raise ValueError("height must be positive")
    if height > cap * (1.0 + 1e-12):
        raise ValueError(f"height {height} exceeds the class cap {cap} for this layout")
    Grid(m, d)  # refuses a layout numpy cannot index before centers are asked for
    return BumpFamily(
        n_bumps=n_bumps,
        d=d,
        r=r,
        rho=float(rho),
        radius=radius,
        height=float(height),
        kappa=kappa,
        cells_per_edge=m,
    )


def membership_check(
    f: HolderFunction,
    pairs: int,
    rng: np.random.Generator,
) -> float:
    """Worst sampled Holder quotient of the order-r derivatives.

    Samples a mix of far and near point pairs; class members never exceed
    their declared seminorm bound.  Pure sampling, so the return value is
    a lower estimate of the true seminorm.
    """
    if pairs < 1:
        raise ValueError("pairs must be positive")
    half = pairs // 2
    x_far = rng.random((half, f.d))
    y_far = rng.random((half, f.d))
    rest = pairs - half
    x_near = rng.random((rest, f.d))
    scales = 10.0 ** rng.uniform(-5.0, -0.3, size=(rest, 1))
    y_near = np.clip(x_near + scales * (rng.random((rest, f.d)) - 0.5), 0.0, 1.0)
    x = np.vstack([x_far, x_near])
    y = np.vstack([y_far, y_near])
    dist = np.abs(x - y).max(axis=1)
    keep = dist > 1e-14
    x, y, dist = x[keep], y[keep], dist[keep]
    worst = 0.0
    for alpha in multi_indices(f.d, f.r):
        if sum(alpha) != f.r:
            continue
        dv = np.abs(f.partial(alpha, x) - f.partial(alpha, y))
        worst = max(worst, float((dv / dist**f.rho).max()))
    return worst
