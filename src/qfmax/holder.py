"""Holder smoothness classes on the unit cube: grids, Taylor tableaux, bumps.

The function class F(r, rho, d) consists of f in C^r([0,1]^d) with
sup |f| <= 1 whose order-r partial derivatives are rho-Holder with constant
1 in the max norm:

    |D^a f(x) - D^a f(y)| <= ||x - y||_inf ** rho   for all |a| = r.

Functions are represented by a derivative evaluator covering every
multi-index up to order r, so degree-r Taylor models can be assembled at
any point from exact derivative values.  A model has one form: a row of
the tableau (alphas, coeffs) that taylor_tableau builds at a batch of
centers, evaluated at offsets from its center by eval_taylor.
Subdividing the cube into n^d congruent cells and modelling f around each
cell center keeps the model error of order (1/n)^(r+rho) uniformly.

The bump family turns bit strings into smooth functions: each bit owns one
cell of an m-per-edge partition and contributes a compactly supported C^inf
bump scaled so the family stays inside the unit ball of the class.
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
    """Refuse (d, r, rho) outside the class: d >= 1, r >= 0 and 0 < rho <= 1."""
    if d < 1:
        raise ValueError("d must be a positive integer")
    if r < 0:
        raise ValueError("r must be non-negative")
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


def _power_table(x: np.ndarray, top: int) -> list:
    """Entry e is the e-th power of x for e = 0..top: 1.0, x itself, then x ** e.

    Every power in the certification kernel comes from here, so model
    values and gradient bounds share numpy's array power.
    """
    table = [1.0, x][: top + 1]
    table.extend(x**e for e in range(2, top + 1))
    return table


def _monomial_sum(c: np.ndarray, factors, powers) -> np.ndarray:
    """Per row, 0.0 + the sum over j in order of c[:, j] * prod_(k, e) in factors[j] powers[k][e].

    Term j starts from column c[:, j] and is multiplied by the power
    column of each of its non-zero exponents, in axis order, so it equals
    the product over all axes with the zero exponents' factors of exactly
    1.0.  The terms are added one by one into a total that starts at 0.0,
    so each row's sum keeps its left-to-right order.  factors comes from
    _exponents and powers[k] from _power_table.
    """
    total = np.zeros(c.shape[0])
    for term, term_factors in zip(c.T, factors):
        for k, e in term_factors:
            term = term * powers[k][e]
        total += term
    return total


def eval_taylor(alphas, coeffs, offsets: np.ndarray) -> np.ndarray:
    """sum_k coeffs[..., k] * prod(offsets ** alphas[k]) for each row of offsets (M, d).

    This evaluates a Taylor model: alphas and coeffs come from
    taylor_tableau, and offsets are points minus the model's center.
    coeffs is one coefficient row shared by all offsets, or (M, K) with
    one row per offset.  Powers are numpy's, one column per axis and
    exponent, and the terms are summed by _monomial_sum.
    """
    m, d = offsets.shape
    factors, tops = _exponents(alphas, d)
    powers = [_power_table(offsets[:, k], top) for k, top in enumerate(tops)]
    cols = np.broadcast_to(np.asarray(coeffs, dtype=float), (m, len(alphas)))
    return _monomial_sum(cols, factors, powers)


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


@lru_cache(maxsize=None)
def _profile_poly(order: int) -> np.polynomial.Polynomial:
    """Numerator P_k with phi^(k)(u) = P_k(u) / (1-u^2)^(2k) * phi(u).

    Recursion: P_0 = 1 and
    P_{k+1} = (1-u^2)^2 P_k' + (4k u (1-u^2) - 2u) P_k.
    """
    u = np.polynomial.Polynomial([0.0, 1.0])
    one = np.polynomial.Polynomial([1.0])
    s = one - u * u
    if order == 0:
        return one
    p = _profile_poly(order - 1)
    k = order - 1
    return s * s * p.deriv() + (4.0 * k * u * s - 2.0 * u) * p


def bump_profile(u, order: int = 0) -> np.ndarray | float:
    """phi(u) = exp(1 - 1/(1-u^2)) inside |u| < 1, or its derivatives.

    All derivatives vanish continuously at |u| = 1; outside the support
    the value is exactly 0.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    arr = np.asarray(u, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    s = 1.0 - arr * arr
    inside = s > 1e-12
    s_safe = np.where(inside, s, 1.0)
    core = np.exp(1.0 - 1.0 / s_safe)
    if order == 0:
        vals = core
    else:
        p = _profile_poly(order)
        vals = p(arr) * core / s_safe ** (2 * order)
    out = np.where(inside, vals, 0.0)
    return float(out[0]) if scalar else out


def _profile_samples(order: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """size points of [-1, 1] and phi^(order) there, refused if one is not finite."""
    g = np.linspace(-1.0, 1.0, size)
    with np.errstate(all="ignore"):  # refused below, without a numpy warning
        v = bump_profile(g, order)
    if not np.isfinite(v).all():
        raise ValueError(f"bump profile derivative of order {order} is not finite")
    return g, v


@lru_cache(maxsize=None)
def _profile_sup(order: int) -> float:
    return float(np.abs(_profile_samples(order, 8001)[1]).max())


@lru_cache(maxsize=None)
def _profile_seminorm(order: int, rho_key: float) -> float:
    """Dense estimate of the 1-d rho-Holder seminorm of phi^(order)."""
    rho = float(rho_key)
    g, v = _profile_samples(order, 20001)
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
    with H and M dense 1-d estimates of the profile derivative seminorms
    and sups.  A 10 percent margin absorbs the sampling error of the 1-d
    estimates.  Pairs straddling the support boundary are covered for
    free: the segment from an inside point to an outside point crosses
    the boundary, where all constrained derivatives vanish, and max-norm
    distances along a segment are additive.  Sums over several disjoint
    supports are NOT covered; a pair split across two supports can push
    the quotient up by another 2^(1-rho) (see embed_bits).
    """
    rho = float(rho_key)
    _check_class(d, r, rho)
    worst = 0.0
    for alpha in multi_indices(d, r):
        if sum(alpha) != r:
            continue
        total = 0.0
        for k in range(d):
            term = _profile_seminorm(alpha[k], rho)
            for j in range(d):
                if j != k:
                    term *= _profile_sup(alpha[j])
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
            out = out * bump_profile(u[:, k], a) / self.radius**a
        return out

    def member(self, i: int) -> HolderFunction:
        if not 0 <= i < self.n_bumps:
            raise ValueError(f"member index {i} out of range")
        fam = self

        def deriv(alpha, pts, _i=i):
            return fam.member_derivative(_i, alpha, pts)

        declared = self.height / (self.kappa * self.radius ** (self.r + self.rho))
        return HolderFunction(
            d=self.d,
            r=self.r,
            rho=self.rho,
            deriv=deriv,
            seminorm_bound=declared,
            sup_bound=self.height,
            known_max=self.height,
            name=f"bump[{i}]",
        )

    def max_height(self) -> float:
        return min(1.0, self.kappa * self.radius ** (self.r + self.rho))


def make_bump_family(
    n_bumps: int, d: int, r: int, rho: float, height: float | None
) -> BumpFamily:
    """Build a class-conforming family of n_bumps disjoint bumps.

    height=None picks 95 percent of the largest class-conforming height.
    Raises if the requested height exceeds kappa * radius^(r+rho) (the
    family would leave the unit ball of the class) or 1 (sup bound).
    """
    if n_bumps < 1:
        raise ValueError("n_bumps must be positive")
    if d < 1:
        raise ValueError("d must be positive")
    # the fewest cells per edge with m^d >= n_bumps: a float root, made exact
    m = max(1, round(n_bumps ** (1 / d)))
    while m**d < n_bumps:
        m += 1
    while (m - 1) ** d >= n_bumps:
        m -= 1
    radius = _SUPPORT_SHRINK * 0.5 / m
    kappa = bump_class_scale(d, r, float(rho))
    cap = min(1.0, kappa * radius ** (r + rho))
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
