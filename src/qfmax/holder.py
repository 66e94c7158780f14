"""Holder smoothness classes on the unit cube: grids, Taylor models, bumps.

The function class F(r, rho, d) consists of f in C^r([0,1]^d) with
sup |f| <= 1 whose order-r partial derivatives are rho-Holder with constant
1 in the max norm:

    |D^a f(x) - D^a f(y)| <= ||x - y||_inf ** rho   for all |a| = r.

Functions are represented by a derivative evaluator covering every
multi-index up to order r, so degree-r Taylor models can be assembled at
any point from exact derivative values.  Subdividing the cube into n^d
congruent cells and modelling f around each cell center keeps the model
error of order (1/n)^(r+rho) uniformly.

The bump family turns bit strings into smooth functions: each bit owns one
cell of an m-per-edge partition and contributes a compactly supported C^inf
bump scaled so the family stays inside the unit ball of the class.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .qcore import QueryLedger

__all__ = [
    "multi_indices",
    "coefficient_count",
    "HolderFunction",
    "Grid",
    "build_grid",
    "TaylorModel",
    "taylor_model",
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
        level = [a for a in itertools.product(range(order + 1), repeat=d) if sum(a) == order]
        out.extend(sorted(level))
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
        if self.d < 1:
            raise ValueError("d must be a positive integer")
        if self.r < 0:
            raise ValueError("r must be non-negative")
        if not 0.0 < self.rho <= 1.0:
            raise ValueError("rho must lie in (0, 1]")

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
        if self.n < 1 or self.d < 1:
            raise ValueError("grid needs n >= 1 and d >= 1")

    @property
    def N(self) -> int:
        return self.n**self.d

    @property
    def h(self) -> float:
        return 1.0 / self.n

    def coords(self, i: int) -> tuple[int, ...]:
        return tuple(int(c) for c in np.unravel_index(int(i), (self.n,) * self.d))

    def center(self, i: int) -> np.ndarray:
        a = np.asarray(self.coords(i), dtype=float)
        return (2.0 * a + 1.0) / (2.0 * self.n)

    def centers(self) -> np.ndarray:
        """All cell centers, shape (N, d), row i matching flat index i."""
        axes = np.unravel_index(np.arange(self.N), (self.n,) * self.d)
        a = np.stack(axes, axis=1).astype(float)
        return (2.0 * a + 1.0) / (2.0 * self.n)

    def cube_bounds(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        c = self.center(i)
        half = 0.5 * self.h
        return c - half, c + half

    def cell_of(self, pts) -> np.ndarray:
        """Flat cell index containing each point (boundary goes downward)."""
        arr = _as_points(pts, self.d)
        idx = np.clip((arr * self.n).astype(int), 0, self.n - 1)
        return np.ravel_multi_index(tuple(idx.T), (self.n,) * self.d)


def build_grid(n: int, d: int, max_cubes: int = DEFAULT_MAX_CUBES) -> Grid:
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    if n**d > max_cubes:
        raise ValueError(f"grid of {n}^{d} cubes exceeds the cap of {max_cubes}")
    return Grid(n=n, d=d)


# ---------------------------------------------------------------------------
# Taylor models


@dataclass(frozen=True)
class TaylorModel:
    """Degree-r Taylor polynomial around a center.

    coeffs[k] multiplies prod((t - center) ** alphas[k]); the coefficient
    for alpha is D^alpha f(center) / alpha!.
    """

    center: np.ndarray
    alphas: tuple[tuple[int, ...], ...]
    coeffs: np.ndarray

    def coeff(self, alpha: tuple[int, ...]) -> float:
        alpha = tuple(int(a) for a in alpha)
        return float(self.coeffs[self.alphas.index(alpha)])

    @property
    def degree(self) -> int:
        return max(sum(a) for a in self.alphas)


def taylor_tableau(
    f: HolderFunction, centers, ledger: QueryLedger | None = None
) -> tuple[tuple[tuple[int, ...], ...], np.ndarray]:
    """Taylor coefficients at a batch of centers, shape (M, n_coeffs).

    Charges coefficient_count(d, r) evaluations per center to the ledger.
    """
    centers = _as_points(centers, f.d)
    alphas = multi_indices(f.d, f.r)
    cols = [np.asarray(f.deriv(a, centers), dtype=float) / _alpha_factorial(a) for a in alphas]
    # C order like np.column_stack, at a fraction of its cost on the
    # one-row tableaux of the lazy local-max table
    coeffs = np.array(cols).T.copy()
    if ledger is not None:
        ledger.evaluations += centers.shape[0] * len(alphas)
    return alphas, coeffs


def taylor_model(f: HolderFunction, center, ledger: QueryLedger | None = None) -> TaylorModel:
    """Degree-r model of f at one center, built from exact derivatives."""
    center = np.asarray(center, dtype=float).reshape(f.d)
    alphas, coeffs = taylor_tableau(f, center[None, :], ledger)
    return TaylorModel(center=center.copy(), alphas=alphas, coeffs=coeffs[0])


def _poly_at_offsets(alphas, coeffs, offs: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] * prod(offs ** alphas[k]) for each row of offs (M, d)."""
    acc = np.zeros(offs.shape[0])
    for alpha, c in zip(alphas, coeffs):
        term = np.full(offs.shape[0], float(c))
        for k, a in enumerate(alpha):
            if a:
                term = term * offs[:, k] ** a
        acc += term
    return acc


def eval_taylor(model: TaylorModel, pts) -> np.ndarray | float:
    """Evaluate the model polynomial; scalar in, scalar out."""
    arr = np.asarray(pts, dtype=float)
    offs = _as_points(arr, model.center.size) - model.center
    acc = _poly_at_offsets(model.alphas, model.coeffs, offs)
    return float(acc[0]) if arr.ndim == 1 else acc


def remainder_bound_check(
    f: HolderFunction,
    grid: Grid,
    samples: int,
    h_conf: float | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """Worst sampled |f - model| / (1/n)^(r+rho) over random (cell, point) pairs.

    For class members the ratio stays below a constant depending only on
    (d, r); pass that constant as h_conf to turn the check into a hard
    failure, or leave it None and assert on the returned ratio.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    if rng is None:
        rng = np.random.default_rng(0)
    denom = grid.h ** (f.r + f.rho)
    cells = rng.integers(0, grid.N, size=samples)
    offs = (rng.random((samples, f.d)) - 0.5) * grid.h
    worst = 0.0
    for cell in np.unique(cells):
        sel = cells == cell
        center = grid.center(int(cell))
        pts = np.clip(center + offs[sel], 0.0, 1.0)
        model = taylor_model(f, center)
        resid = np.abs(f(pts) - eval_taylor(model, pts))
        worst = max(worst, float(resid.max()) / denom)
    if h_conf is not None and worst > h_conf:
        raise ValueError(
            f"remainder ratio {worst:.6g} exceeds the declared constant {h_conf:.6g}"
        )
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


@lru_cache(maxsize=None)
def _profile_sup(order: int) -> float:
    g = np.linspace(-1.0, 1.0, 8001)
    return float(np.abs(bump_profile(g, order)).max())


@lru_cache(maxsize=None)
def _profile_seminorm(order: int, rho_key: float) -> float:
    """Dense estimate of the 1-d rho-Holder seminorm of phi^(order)."""
    rho = float(rho_key)
    g = np.linspace(-1.0, 1.0, 20001)
    v = bump_profile(g, order)
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
    if not 0.0 < rho <= 1.0:
        raise ValueError("rho must lie in (0, 1]")
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

    Cell layout: m cells per edge with m^d >= n_bumps, centers at cell
    midpoints in C-order; members beyond the first n_bumps cells are not
    created.  The support radius is slightly below half the cell width so
    supports keep a positive gap.
    """

    n_bumps: int
    d: int
    r: int
    rho: float
    centers: np.ndarray
    radius: float
    height: float
    kappa: float
    cells_per_edge: int

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

    def members(self) -> list[HolderFunction]:
        return [self.member(i) for i in range(self.n_bumps)]

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
    m = 1
    while m**d < n_bumps:
        m += 1
    radius = _SUPPORT_SHRINK * 0.5 / m
    kappa = bump_class_scale(d, r, round(float(rho), 12))
    cap = min(1.0, kappa * radius ** (r + rho))
    if height is None:
        height = 0.95 * cap
    if height <= 0.0:
        raise ValueError("height must be positive")
    if height > cap * (1.0 + 1e-12):
        raise ValueError(f"height {height} exceeds the class cap {cap} for this layout")
    axes = np.unravel_index(np.arange(n_bumps), (m,) * d)
    a = np.stack(axes, axis=1).astype(float)
    centers = (2.0 * a + 1.0) / (2.0 * m)
    return BumpFamily(
        n_bumps=n_bumps,
        d=d,
        r=r,
        rho=float(rho),
        centers=centers,
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
