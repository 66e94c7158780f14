"""Global maximization of Holder-smooth functions via discrete search.

Pipeline: subdivide [0,1]^d into n^d cells, build the degree-r Taylor
model of f at each cell center from exact derivative values, maximize each
model over its cell to tolerance eps1 = (1/n)^(r+rho) without any further
function access, and run the budgeted quantum threshold search over the
resulting sequence of local estimates.  For class members the returned
value is within (H + 1) (1/n)^(r+rho) of the true maximum whenever the
discrete search succeeds, which it does with probability above one half
per round (boosting multiplies rounds).

Cost accounting: coefficient_count(d, r) evaluations per distinct cell
center ever touched (models are cached), one quantum query per
amplification step, one classical query per post-measurement lookup.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .holder import (
    Grid,
    HolderFunction,
    TaylorModel,
    _poly_at_offsets,
    build_grid,
    multi_indices,
    taylor_tableau,
)
from .qcore import QueryLedger
from .search import MaxResult, SearchParams, _Accessor, _boosted_climb

__all__ = [
    "MaximizerParams",
    "default_h_conf",
    "choose_n",
    "local_max_taylor",
    "local_max_values",
    "quantum_maximize",
]


@dataclass
class MaximizerParams:
    """Configuration for quantum_maximize.

    Either epsilon (target accuracy, resolved through choose_n) or
    n_override (explicit subdivisions per axis) must be set.  eps1
    overrides the local-maximization tolerance, default (1/n)^(r+rho).
    h_conf is the model-error constant used by choose_n, default
    d^r / r!.
    """

    epsilon: float | None = None
    n_override: int | None = None
    eps1: float | None = None
    h_conf: float | None = None
    search: SearchParams = field(default_factory=SearchParams)
    max_cubes: int = 2**24


def default_h_conf(d: int, r: int) -> float:
    """Conservative constant H with |f - model| <= H (1/n)^(r+rho) in class.

    From the integral remainder: the order-r derivative difference is
    bounded by sum over |alpha| = r of r!/alpha! times the Holder bound,
    and sum r!/alpha! = d^r, giving d^r / r! times ||t - center||^(r+rho)
    with ||t - center|| <= 1/(2n) <= 1/n.
    """
    return float(d**r) / math.factorial(r)


def choose_n(
    epsilon: float, d: int, r: int, rho: float, h_conf: float | None = None
) -> int:
    """Smallest per-axis subdivision with (h_conf + 1) (1/n)^(r+rho) <= epsilon."""
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    if h_conf is None:
        h_conf = default_h_conf(d, r)
    x = ((h_conf + 1.0) / epsilon) ** (1.0 / (r + rho))
    return max(1, math.ceil(x - 1e-12))


# ---------------------------------------------------------------------------
# certified maximization of one Taylor model over a box
#
# Degrees 0 and 1 have exact closed forms in any dimension, degree 2 has
# exact closed forms for d <= 2 (candidate enumeration: corners, edge
# vertices, interior critical point).  The general case runs certified
# branch-and-bound with coefficient-derived gradient bounds.


def _linear_box_max(c0, grads, lo_off, hi_off):
    # max of c0 + <g, x> over the box, attained at a vertex
    contrib = np.maximum(grads * lo_off, grads * hi_off)
    return c0 + contrib.sum(axis=-1)


def _quad_box_max_1d(c0, c1, c2, lo, hi):
    """Vectorized exact max of c0 + c1 x + c2 x^2 over [lo, hi]."""
    v_lo = c0 + c1 * lo + c2 * lo * lo
    v_hi = c0 + c1 * hi + c2 * hi * hi
    out = np.maximum(v_lo, v_hi)
    with np.errstate(divide="ignore", invalid="ignore"):
        xs = -c1 / (2.0 * c2)
    ok = (c2 < 0.0) & np.isfinite(xs) & (xs > lo) & (xs < hi)
    xs = np.where(ok, xs, lo)
    v_in = c0 + c1 * xs + c2 * xs * xs
    return np.where(ok, np.maximum(out, v_in), out)


def _quad_eval_2d(C, x, y):
    c00, cy, cx, cyy, cxy, cxx = C
    return c00 + cx * x + cy * y + cxx * x * x + cxy * x * y + cyy * y * y


def _quad_box_max_2d(C, lx, ux, ly, uy):
    """Vectorized exact max of a bivariate quadratic over a rectangle.

    C holds coefficient arrays ordered like multi_indices(2, 2):
    (0,0), (0,1), (1,0), (0,2), (1,1), (2,0), i.e. axis 0 is x.
    """
    c00, cy, cx, cyy, cxy, cxx = C
    best = _quad_eval_2d(C, lx, ly)
    for xx, yy in ((lx, uy), (ux, ly), (ux, uy)):
        best = np.maximum(best, _quad_eval_2d(C, xx, yy))
    # vertical edges x fixed: quadratic in y
    for xx in (lx, ux):
        b = cy + cxy * xx
        with np.errstate(divide="ignore", invalid="ignore"):
            ys = -b / (2.0 * cyy)
        ok = (cyy < 0.0) & np.isfinite(ys) & (ys > ly) & (ys < uy)
        ys = np.where(ok, ys, ly)
        v = _quad_eval_2d(C, xx, ys)
        best = np.where(ok, np.maximum(best, v), best)
    # horizontal edges y fixed: quadratic in x
    for yy in (ly, uy):
        b = cx + cxy * yy
        with np.errstate(divide="ignore", invalid="ignore"):
            xs = -b / (2.0 * cxx)
        ok = (cxx < 0.0) & np.isfinite(xs) & (xs > lx) & (xs < ux)
        xs = np.where(ok, xs, lx)
        v = _quad_eval_2d(C, xs, yy)
        best = np.where(ok, np.maximum(best, v), best)
    # interior critical point where the Hessian is negative definite
    det = 4.0 * cxx * cyy - cxy * cxy
    with np.errstate(divide="ignore", invalid="ignore"):
        xs = (-2.0 * cyy * cx + cxy * cy) / det
        ys = (-2.0 * cxx * cy + cxy * cx) / det
    ok = (det > 0.0) & (cxx < 0.0)
    ok &= np.isfinite(xs) & np.isfinite(ys)
    ok &= (xs > lx) & (xs < ux) & (ys > ly) & (ys < uy)
    xs = np.where(ok, xs, lx)
    ys = np.where(ok, ys, ly)
    v = _quad_eval_2d(C, xs, ys)
    return np.where(ok, np.maximum(best, v), best)


def _poly_partial(alphas, coeffs, k):
    out_a, out_c = [], []
    for alpha, c in zip(alphas, coeffs):
        if alpha[k] == 0:
            continue
        beta = list(alpha)
        beta[k] -= 1
        out_a.append(tuple(beta))
        out_c.append(c * alpha[k])
    return out_a, out_c


def _poly_abs_bound(alphas, coeffs, lo_off, hi_off):
    m = np.maximum(np.abs(lo_off), np.abs(hi_off))
    total = 0.0
    for alpha, c in zip(alphas, coeffs):
        term = abs(float(c))
        for k, a in enumerate(alpha):
            if a:
                term *= m[k] ** a
        total += term
    return total


def _branch_bound_max(model: TaylorModel, lo, hi, eps1: float, max_nodes: int = 500_000):
    """Certified max of the model over [lo, hi] within eps1.

    Interval bound per box: value at the midpoint plus the sum over axes
    of a coefficient-derived sup bound on |d p / d t_k| times the half
    width.  Boxes are split along their longest axis, best-upper-bound
    first, until the gap between the incumbent and the largest upper
    bound is at most eps1.
    """
    d = model.center.size
    alphas, coeffs = model.alphas, model.coeffs
    partials = [_poly_partial(alphas, coeffs, k) for k in range(d)]
    lo0 = np.asarray(lo, dtype=float) - model.center
    hi0 = np.asarray(hi, dtype=float) - model.center

    def box_bounds(lo_off, hi_off):
        mid = 0.5 * (lo_off + hi_off)
        val = float(_poly_at_offsets(alphas, coeffs, mid[None, :])[0])
        slack = 0.0
        for k in range(d):
            pa, pc = partials[k]
            gbound = _poly_abs_bound(pa, pc, lo_off, hi_off)
            slack += gbound * 0.5 * (hi_off[k] - lo_off[k])
        return val, val + slack

    best, ub0 = box_bounds(lo0, hi0)
    heap = [(-ub0, 0, lo0, hi0)]
    counter = itertools.count(1)
    nodes = 0
    ub_final = ub0
    while heap:
        neg_ub, _, blo, bhi = heapq.heappop(heap)
        ub = -neg_ub
        if ub - best <= eps1:
            ub_final = ub
            break
        nodes += 1
        if nodes > max_nodes:
            raise RuntimeError("certified refinement exceeded the node cap")
        axis = int(np.argmax(bhi - blo))
        mid = 0.5 * (blo[axis] + bhi[axis])
        for child_lo, child_hi in (
            (blo, _replace(bhi, axis, mid)),
            (_replace(blo, axis, mid), bhi),
        ):
            val, cub = box_bounds(child_lo, child_hi)
            if val > best:
                best = val
            if cub - best > eps1:
                heapq.heappush(heap, (-cub, next(counter), child_lo, child_hi))
    else:
        ub_final = best
    ub_final = max(ub_final, best)
    return 0.5 * (best + min(ub_final, best + eps1))


def _replace(arr, axis, value):
    out = arr.copy()
    out[axis] = value
    return out


def _box_max(alphas, coeffs, centers, lo_off, hi_off, eps1: float) -> np.ndarray:
    """Certified max of each row's Taylor model over its box, within eps1.

    Row i is the model with coefficients coeffs[i] (ordered like alphas)
    around centers[i], maximized over centers[i] + [lo_off[i], hi_off[i]].
    Canonically ordered models (multi_indices) of degree <= 1, or of
    degree 2 in d <= 2, use the closed forms; every other row runs
    branch-and-bound.
    """
    if not eps1 > 0.0:
        raise ValueError("eps1 must be positive")
    d = lo_off.shape[1]
    deg = sum(alphas[-1])  # the degree, if alphas is in canonical order
    if alphas == multi_indices(d, deg):
        if deg == 0:
            return coeffs[:, 0].copy()
        if deg == 1:
            # order-1 indices are sorted, so column 1 + k belongs to axis d-1-k
            return _linear_box_max(
                coeffs[:, 0], coeffs[:, 1:], lo_off[:, ::-1], hi_off[:, ::-1]
            )
        if deg == 2 and d == 1:
            c0, c1, c2 = coeffs.T
            return _quad_box_max_1d(c0, c1, c2, lo_off[:, 0], hi_off[:, 0])
        if deg == 2 and d == 2:
            return _quad_box_max_2d(
                list(coeffs.T), lo_off[:, 0], hi_off[:, 0], lo_off[:, 1], hi_off[:, 1]
            )
    out = np.empty(coeffs.shape[0])
    for i in range(out.size):
        model = TaylorModel(center=centers[i], alphas=alphas, coeffs=coeffs[i])
        out[i] = _branch_bound_max(model, centers[i] + lo_off[i], centers[i] + hi_off[i], eps1)
    return out


def local_max_taylor(model: TaylorModel, lo, hi, eps1: float) -> float:
    """Max of one Taylor model over a box, certified within eps1.

    Exact (closed form) for degree <= 1 in any dimension and degree 2 in
    one or two dimensions; otherwise certified branch-and-bound.  Never
    touches the modelled function, only the stored coefficients.
    """
    d = model.center.size
    lo_off = np.asarray(lo, dtype=float).reshape(1, d) - model.center
    hi_off = np.asarray(hi, dtype=float).reshape(1, d) - model.center
    if np.any(hi_off < lo_off):
        raise ValueError("box must satisfy lo <= hi")
    return float(
        _box_max(model.alphas, model.coeffs[None], model.center[None], lo_off, hi_off, eps1)[0]
    )


def local_max_at(
    f: HolderFunction,
    centers: np.ndarray,
    half_width: float,
    eps1: float,
    ledger: QueryLedger | None = None,
) -> np.ndarray:
    """Certified local maxima of f's Taylor models on cells around centers.

    Vectorized over cells for the closed-form degrees; the general case
    falls back to per-cell branch-and-bound.  Charges
    coefficient_count(d, r) evaluations per center.
    """
    alphas, coeffs = taylor_tableau(f, centers, ledger)
    hi_off = np.full((coeffs.shape[0], f.d), half_width)
    return _box_max(alphas, coeffs, centers, -hi_off, hi_off, eps1)


def local_max_values(
    f: HolderFunction,
    grid: Grid,
    eps1: float,
    ledger: QueryLedger | None = None,
) -> np.ndarray:
    """Certified local maxima for every cell of the grid, flat C-order."""
    return local_max_at(f, grid.centers(), 0.5 * grid.h, eps1, ledger)


# ---------------------------------------------------------------------------
# lazy model table and the quantum pipeline


class _LocalMaxTable:
    """Per-cell local maxima, built on demand and cached.

    A classical candidate check touches one cell (one model is built and
    charged); the first amplification step needs the whole truth table, at
    which point every remaining cell is built in one vectorized pass.
    """

    def __init__(self, f: HolderFunction, grid: Grid, eps1: float, ledger: QueryLedger):
        self.f = f
        self.grid = grid
        self.eps1 = eps1
        self.ledger = ledger
        self._vals = np.full(grid.N, np.nan)
        self._complete = False

    def value(self, i: int) -> float:
        v = self._vals[i]
        if np.isnan(v):
            center = self.grid.center(int(i))
            v = float(
                local_max_at(self.f, center[None, :], 0.5 * self.grid.h, self.eps1, self.ledger)[0]
            )
            self._vals[i] = v
        return float(v)

    def values(self) -> np.ndarray:
        if not self._complete:
            missing = np.isnan(self._vals)
            if missing.any():
                centers = self.grid.centers()[missing]
                self._vals[missing] = local_max_at(
                    self.f, centers, 0.5 * self.grid.h, self.eps1, self.ledger
                )
            self._complete = True
        return self._vals


def quantum_maximize(
    f: HolderFunction,
    params: MaximizerParams,
    rng: np.random.Generator,
) -> MaxResult:
    """Approximate the maximum of f by quantum search over local models.

    Returns a MaxResult whose witness is the winning cell center and whose
    value is the certified local maximum of that cell's model.  Quantum
    cost is at most boost_rounds * ceil(budget_factor * sqrt(n^d)).
    """
    if params.n_override is not None:
        n = int(params.n_override)
        if n < 1:
            raise ValueError("n_override must be positive")
    elif params.epsilon is not None:
        n = choose_n(params.epsilon, f.d, f.r, f.rho, params.h_conf)
    else:
        raise ValueError("either epsilon or n_override must be set")
    grid = build_grid(n, f.d, params.max_cubes)
    eps1 = params.eps1 if params.eps1 is not None else grid.h ** (f.r + f.rho)
    h_conf = params.h_conf if params.h_conf is not None else default_h_conf(f.d, f.r)
    ledger = QueryLedger()
    table = _LocalMaxTable(f, grid, eps1, ledger)
    # Comparisons use values mapped into [0, 1] by v -> (v + B) / (2B) with
    # B = sup_bound + model-error slack + eps1, a strictly increasing map,
    # so thresholds behave exactly as on the raw values.
    slack = eps1 + h_conf * max(1.0, f.seminorm_bound) * grid.h ** (f.r + f.rho)
    bound = f.sup_bound + slack
    span = 2.0 * bound
    acc = _Accessor(
        grid.N,
        ledger,
        lambda i: (table.value(i) + bound) / span,
        lambda: (table.values() + bound) / span,
    )
    budget = math.ceil(params.search.budget_factor * math.sqrt(grid.N))
    idx, _, success = _boosted_climb(acc, rng, params.search, budget)
    value = table.value(idx)
    return MaxResult(
        value=value,
        witness=grid.center(idx),
        success=success,
        ledger=ledger.snapshot(),
    )
