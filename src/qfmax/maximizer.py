"""Global maximization of Holder-smooth functions via discrete search.

Pipeline: subdivide [0,1]^d into n^d cells, build the degree-r Taylor
model of f at each cell center from exact derivative values (one
taylor_tableau row per cell), maximize each model over its cell to
tolerance eps1 = (1/n)^(r+rho) without any further function access
(local_max_at is the one way into this certification), and run the
discrete maximum search, search.find_maximum, over the resulting
sequence of local estimates, a SequenceOracle whose values are built on
demand.  For class members the returned value is within
(H + 1) (1/n)^(r+rho) of the true maximum whenever the discrete search
succeeds, which it does with probability above one half per round
(boosting multiplies rounds).

Cost accounting: coefficient_count(d, r) evaluations per cell, each
certified once (every cell in one local_max_at call, made when the
oracle's values are first needed, inside the first mask() of the first
predicate), one quantum query per amplification step, one classical
query per post-measurement lookup.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .holder import (
    DEFAULT_MAX_CUBES,
    Grid,
    HolderFunction,
    _cell_scale,
    _check_class,
    build_grid,
    eval_taylor,
    taylor_tableau,
)
from .qcore import QueryLedger
from .search import MaxResult, SearchParams, SequenceOracle, find_maximum

__all__ = [
    "MaximizerParams",
    "default_h_conf",
    "choose_n",
    "local_max_at",
    "quantum_maximize",
]


@dataclass
class MaximizerParams:
    """Configuration for quantum_maximize.

    Exactly one of epsilon (target accuracy, resolved through choose_n
    with the class's model-error constant default_h_conf) and n_override
    (explicit subdivisions per axis) must be set before a solve.
    """

    epsilon: float | None = None
    n_override: int | None = None
    search: SearchParams = field(default_factory=SearchParams)

    def __post_init__(self) -> None:
        if self.epsilon is not None and self.n_override is not None:
            raise ValueError("set one of epsilon and n_override, not both")
        if self.n_override is not None:
            if not isinstance(self.n_override, numbers.Integral):
                raise ValueError(f"n_override must be an integer, got {self.n_override!r}")
            if self.n_override < 1:
                raise ValueError("n_override must be positive")


def default_h_conf(d: int, r: int) -> float:
    """Conservative constant H with |f - model| <= H (1/n)^(r+rho) in class.

    From the integral remainder: the order-r derivative difference is
    bounded by sum over |alpha| = r of r!/alpha! times the Holder bound,
    and sum r!/alpha! = d^r, giving d^r / r! times ||t - center||^(r+rho)
    with ||t - center|| <= 1/(2n) <= 1/n.
    """
    return d**r / math.factorial(r)


def _error_bound(n: int, d: int, r: int, rho: float) -> float:
    """(H + 1) (1/n)^(r+rho) with H = default_h_conf(d, r), the accuracy n promises."""
    return (default_h_conf(d, r) + 1.0) * (1.0 / n) ** (r + rho)


def choose_n(epsilon: float, d: int, r: int, rho: float) -> int:
    """Smallest n with (H + 1) (1/n)^(r+rho) <= epsilon, refused if n^d is past the cap.

    H = default_h_conf(d, r) is fixed by the class, so epsilon alone sets n.
    """
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    _check_class(d, r, rho)
    try:
        # d^r / r! <= e^d overflows only for d > 709, where even n = 2 is past the cap
        h_conf = default_h_conf(d, r)
        n = max(1, math.ceil(((h_conf + 1.0) / epsilon) ** (1.0 / (r + rho)) - 1e-12))
    except OverflowError:  # n or h_conf is past a float's range, so the grid is far past the cap
        n = DEFAULT_MAX_CUBES + 1
    # 2^(bits of the cap) exceeds the cap, so no n >= 2 needs a higher power than that
    if n ** min(d, DEFAULT_MAX_CUBES.bit_length()) > DEFAULT_MAX_CUBES:
        raise ValueError(
            f"epsilon {epsilon} at r + rho = {r + rho:g} needs a grid beyond the cap "
            f"of {DEFAULT_MAX_CUBES} cubes"
        )
    return n


# ---------------------------------------------------------------------------
# certified maximization of Taylor models over one cell
#
# Every model is maximized over the same cell [-half, half]^d.  Degrees 0 and
# 1 have exact closed forms in any dimension, degree 2 for d <= 2 by the faces
# of the cell (Moré & Toraldo 1989): the 2-D form takes its four edges from the
# 1-D form, plus the interior critical point.  The general case runs certified
# branch-and-bound, bounding each partial by eval_taylor of its |c| tableau,
# for all rows of a batch in one frontier that splits every unfinished row's
# best box per pass and is rebuilt from the boxes still open, oldest first.


def _quad_box_max_1d(c0, c1, c2, half):
    """Vectorized exact max of c0 + c1 x + c2 x^2 over [-half, half]."""
    lo, hi = -half, half
    v_lo = c0 + c1 * lo + c2 * lo * lo
    v_hi = c0 + c1 * hi + c2 * hi * hi
    out = np.maximum(v_lo, v_hi)
    with np.errstate(divide="ignore", invalid="ignore"):
        xs = -c1 / (2.0 * c2)
    ok = (c2 < 0.0) & np.isfinite(xs) & (xs > lo) & (xs < hi)
    xs = np.where(ok, xs, lo)
    v_in = c0 + c1 * xs + c2 * xs * xs
    return np.where(ok, np.maximum(out, v_in), out)


def _quad_box_max_2d(C, half):
    """Vectorized exact max of a bivariate quadratic over [-half, half]^2.

    C holds coefficient arrays ordered like multi_indices(2, 2):
    (0,0), (0,1), (1,0), (0,2), (1,1), (2,0), i.e. axis 0 is x.  Each edge
    is a 1-D quadratic whose ends are the corners.
    """
    c00, cy, cx, cyy, cxy, cxx = C
    best = np.full(c00.shape, -np.inf)
    for s in (-half, half):
        on_x = _quad_box_max_1d(c00 + cx * s + cxx * s * s, cy + cxy * s, cyy, half)  # x = s
        on_y = _quad_box_max_1d(c00 + cy * s + cyy * s * s, cx + cxy * s, cxx, half)  # y = s
        best = np.maximum(best, np.maximum(on_x, on_y))
    # interior critical point where the Hessian is negative definite
    det = 4.0 * cxx * cyy - cxy * cxy
    with np.errstate(divide="ignore", invalid="ignore"):
        xs = (-2.0 * cyy * cx + cxy * cy) / det
        ys = (-2.0 * cxx * cy + cxy * cx) / det
    ok = (det > 0.0) & (cxx < 0.0)
    ok &= np.isfinite(xs) & np.isfinite(ys)
    ok &= (np.abs(xs) < half) & (np.abs(ys) < half)
    xs, ys = np.where(ok, xs, 0.0), np.where(ok, ys, 0.0)
    v = c00 + cx * xs + cy * ys + cxx * xs * xs + cxy * xs * ys + cyy * ys * ys
    return np.where(ok, np.maximum(best, v), best)


@lru_cache(maxsize=None)
def _gradient_terms(alphas, d: int):
    """The tableau of each partial derivative d p / d t_k, built once per alphas.

    Returns (cols, scale, parts).  Entry k of parts is (start, stop,
    lowered): columns start:stop of coeffs[:, cols] * scale hold alpha[k]
    times the coefficient of each alpha with alpha[k] > 0, and lowered
    lists their monomials, alpha with alpha[k] lowered by one.  cols and
    scale are read-only, since every call with these alphas shares them.
    """
    cols, scale, parts = [], [], []
    for k in range(d):
        start, lowered = len(cols), []
        for j, alpha in enumerate(alphas):
            if alpha[k]:
                cols.append(j)
                scale.append(float(alpha[k]))
                lowered.append(alpha[:k] + (alpha[k] - 1,) + alpha[k + 1 :])
        parts.append((start, len(cols), tuple(lowered)))
    cols, scale = np.array(cols, dtype=np.intp), np.array(scale)
    cols.flags.writeable = scale.flags.writeable = False
    return cols, scale, tuple(parts)


def _box_bounds(alphas, parts, coeffs, terms, lo, hi):
    """Midpoint value and upper bound of each row's model over its offset box.

    parts comes from _gradient_terms and terms holds the rows' |c| of its
    columns.  Both go through eval_taylor: the value is the model at the
    box midpoint, and the bound adds, per axis k, a sup of |d p / d t_k|
    (the partial's |c| tableau at m, the largest |offset|) times the half width.
    """
    mid = 0.5 * (lo + hi)
    m = np.maximum(np.abs(lo), np.abs(hi))
    width = hi - lo
    val = eval_taylor(alphas, coeffs, mid)
    slack = np.zeros(m.shape[0])
    for k, (start, stop, lowered) in enumerate(parts):
        slack += eval_taylor(lowered, terms[:, start:stop], m) * 0.5 * width[:, k]
    return val, val + slack


# Splits one row of _branch_bound_max may take before the run is refused.
_MAX_NODES = 500_000


def _branch_bound_max(alphas, coeffs, centers, lo_off, hi_off, eps1: float) -> np.ndarray:
    """Certified max of each row's model over its box within eps1, all rows at once.

    Every row runs best-first branch-and-bound: pop the box with the
    largest upper bound (oldest first on ties), stop once that bound is
    within eps1 of the incumbent, else split it along its longest axis
    and keep each half whose bound still clears the incumbent by eps1.
    The open boxes of all rows share one frontier and every unstopped row
    takes one such step per pass, so the numpy work is batched across
    rows while each row's sequence of steps is its own.  More than
    _MAX_NODES splits in one row raise RuntimeError.  Row i's box is
    centers[i] + [lo_off, hi_off], the offsets broadcast against centers.
    """
    rows, d = centers.shape
    cols, scale, parts = _gradient_terms(alphas, d)
    terms = np.abs(coeffs[:, cols] * scale)
    # the box as the centers' float rounding sees it, never the exact offsets
    lo = (centers + lo_off) - centers
    hi = (centers + hi_off) - centers
    best, ub = _box_bounds(alphas, parts, coeffs, terms, lo, hi)
    ub_final = np.zeros(rows)
    nodes = np.zeros(rows, dtype=np.int64)
    stopped = np.zeros(rows, dtype=bool)
    # The frontier holds one slot per open box: its row, bound and box.  Each
    # pass rebuilds it from the slots it neither popped nor stopped, in order,
    # followed by the pushed children, so each row's slots lie in push order
    # and its oldest box comes first.
    cell = np.arange(rows)
    while True:
        top_ub = np.full(rows, -np.inf)
        np.maximum.at(top_ub, cell, ub)
        cand = np.flatnonzero(ub == top_ub[cell])
        if not cand.size:
            break
        # each row pops its first slot with the largest bound, rows in order
        first = np.full(rows, ub.size)
        np.minimum.at(first, cell[cand], cand)
        top = first[first < ub.size]
        tc = cell[top]
        done = ub[top] - best[tc] <= eps1
        finished = tc[done]
        ub_final[finished] = ub[top[done]]
        stopped[finished] = True
        top, tc = top[~done], tc[~done]
        if not top.size:
            # every popped box met its stop rule, so no row has a box left
            break
        nodes[tc] += 1
        if np.any(nodes[tc] > _MAX_NODES):
            raise RuntimeError("certified refinement exceeded the node cap")
        # split each popped box along its longest axis into a low and a high half
        pick = np.arange(top.size)
        blo, bhi = lo[top], hi[top]
        axis = np.argmax(bhi - blo, axis=1)
        mid = 0.5 * (blo[pick, axis] + bhi[pick, axis])
        hi1, lo2 = bhi.copy(), blo.copy()
        hi1[pick, axis] = mid
        lo2[pick, axis] = mid
        clo, chi = np.concatenate([blo, lo2]), np.concatenate([hi1, bhi])
        crow = np.concatenate([tc, tc])
        val, cub = _box_bounds(alphas, parts, coeffs[crow], terms[crow], clo, chi)
        # the incumbent takes the low half's value before the high half is tested
        b0 = best[tc]
        b1 = np.where(val[: tc.size] > b0, val[: tc.size], b0)
        b2 = np.where(val[tc.size :] > b1, val[tc.size :], b1)
        best[tc] = b2
        # the low halves, then the high halves: each row's low child first
        new = np.flatnonzero(cub - np.concatenate([b1, b2]) > eps1)
        keep = ~stopped[cell]
        keep[top] = False
        keep = np.flatnonzero(keep)
        cell, ub, lo, hi = (
            np.concatenate([old.take(keep, 0), kids.take(new, 0)])
            for old, kids in ((cell, crow), (ub, cub), (lo, clo), (hi, chi))
        )
    # a row whose frontier ran empty ends at its incumbent
    ub_final = np.where(stopped & ~(best > ub_final), ub_final, best)
    cap = best + eps1
    return 0.5 * (best + np.where(cap < ub_final, cap, ub_final))


def _box_max(alphas, coeffs, centers, half: float, eps1: float) -> np.ndarray:
    """Certified max of each row's Taylor model over its cell, within eps1 > 0.

    Row i is the model with coefficients coeffs[i] (ordered like alphas)
    around centers[i], maximized over centers[i] + [-half, half]^d.
    alphas must be in taylor_tableau's canonical order (multi_indices),
    as they are from local_max_at, the only caller: the closed forms read
    coefficients by position.  Degree <= 1, or degree 2 in d <= 2, use the
    closed forms; all other rows are certified together by one batched
    branch-and-bound frontier (_branch_bound_max), whose per-row results
    equal those of a per-model heap bit for bit.
    """
    d = centers.shape[1]
    deg = sum(alphas[-1])  # canonical order ends with the degree on axis 0
    if deg == 0:
        return coeffs[:, 0].copy()
    if deg == 1:
        return coeffs[:, 0] + (np.abs(coeffs[:, 1:]) * half).sum(axis=-1)
    if deg == 2 and d == 1:
        c0, c1, c2 = coeffs.T
        return _quad_box_max_1d(c0, c1, c2, half)
    if deg == 2 and d == 2:
        return _quad_box_max_2d(list(coeffs.T), half)
    return _branch_bound_max(alphas, coeffs, centers, -half, half, eps1)


def local_max_at(
    f: HolderFunction,
    grid: Grid,
    centers: np.ndarray,
    ledger: QueryLedger | None = None,
) -> np.ndarray:
    """Certified local maxima of f's Taylor models on the grid cells at centers.

    Each model is maximized over its cell, center + [-h/2, h/2]^d for
    h = grid.h, within eps1 = (1/n)^(r+rho), the order of its model error;
    a grid on which eps1 underflows is refused before any evaluation is
    charged.  Vectorized over cells, with one half width for all of them:
    closed forms for the low degrees, otherwise one
    branch-and-bound frontier shared by all cells.  Charges
    coefficient_count(d, r) evaluations per center.
    """
    eps1 = _cell_scale(f, grid)
    alphas, coeffs = taylor_tableau(f, centers, ledger)
    return _box_max(alphas, coeffs, centers, 0.5 * grid.h, eps1)


# ---------------------------------------------------------------------------
# the quantum pipeline


def _solve_grid(params: MaximizerParams, d: int, r: int, rho: float) -> Grid:
    """The grid a solve of a (d, r, rho) function at params runs on, refused past the cap."""
    if params.n_override is not None:
        return build_grid(int(params.n_override), d)
    if params.epsilon is None:
        raise ValueError("either epsilon or n_override must be set")
    return build_grid(choose_n(params.epsilon, d, r, rho), d)


def quantum_maximize(
    f: HolderFunction,
    params: MaximizerParams,
    rng: np.random.Generator,
) -> MaxResult:
    """Approximate the maximum of f by quantum search over local models.

    Returns a MaxResult whose witness is the winning cell center, whose
    value is the certified local maximum of that cell's model, and whose
    thresholds are the certified cell values each round climbed through.
    Quantum cost is at most boost_rounds * ceil(budget_factor * sqrt(n^d)).
    """
    grid = _solve_grid(params, f.d, f.r, f.rho)
    ledger = QueryLedger()
    oracle = SequenceOracle._lazy(
        grid.N, lambda: local_max_at(f, grid, grid.centers(), ledger), ledger
    )
    res = find_maximum(oracle, rng, params.search)
    return replace(res, witness=grid.center(res.witness))
