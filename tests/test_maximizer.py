"""Certified local maximization and the end-to-end quantum maximizer."""

import heapq
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfmax import maximizer, qcore
from qfmax.bench import trial_rng
from qfmax.cli import main
from qfmax.functions import make_function
from qfmax.holder import (
    HolderFunction,
    build_grid,
    coefficient_count,
    eval_taylor,
    multi_indices,
    remainder_bound_check,
    taylor_tableau,
)
from qfmax.maximizer import (
    MaximizerParams,
    _box_max,
    _branch_bound_max,
    _error_bound,
    _gradient_terms,
    choose_n,
    default_h_conf,
    local_max_at,
    quantum_maximize,
)
from qfmax.qcore import QueryLedger
from qfmax.search import SearchParams, SequenceOracle, find_maximum


def random_model(rng, d, degree, scale=1.0):
    """(alphas, coeffs, center) of a random model in canonical order."""
    alphas = multi_indices(d, degree)
    coeffs = scale * rng.normal(size=len(alphas))
    center = rng.random(d)
    return alphas, coeffs, center


def box_max(alphas, coeffs, center, half, eps1):
    """Certified max of one model over the cell center + [-half, half]^d."""
    return float(_box_max(alphas, coeffs[None], center[None], half, eps1)[0])


def dense_grid_max(alphas, coeffs, center, lo, hi, points_total=1_000_000):
    d = center.size
    per_axis = max(2, int(round(points_total ** (1.0 / d))))
    axes = [np.linspace(lo[k], hi[k], per_axis) for k in range(d)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    return float(eval_taylor(alphas, coeffs, mesh - center).max())


# ---------------------------------------------------------------------------
# parameter plumbing


def test_default_h_conf_formula():
    assert default_h_conf(1, 0) == 1.0
    assert default_h_conf(1, 2) == pytest.approx(0.5)
    assert default_h_conf(2, 2) == pytest.approx(4 / 2)
    assert default_h_conf(3, 4) == pytest.approx(3**4 / 24)


def test_default_h_conf_is_correctly_rounded_past_170():
    # float(d**r) overflowed from r = 171 on; a Fraction converts to the
    # correctly rounded float, as a true division of two ints does
    for d, r in [(1, 171), (2, 171), (3, 400), (7, 170), (5, 37)]:
        assert default_h_conf(d, r) == float(Fraction(d**r, math.factorial(r)))
    for d in range(1, 8):
        for r in range(3):
            assert default_h_conf(d, r) == float(d**r) / math.factorial(r)
    assert choose_n(0.1, 1, 171, 1.0) == 2


def test_choose_n_examples():
    assert choose_n(0.5, 1, 1, 1.0) == 2
    assert choose_n(2.0, 1, 1, 1.0) == 1
    with pytest.raises(ValueError):
        choose_n(0.0, 1, 0, 1.0)
    with pytest.raises(ValueError, match="r must"):
        choose_n(0.1, 1, -1, 1.0)
    with pytest.raises(ValueError, match="rho must"):
        choose_n(0.1, 1, 0, 0.0)
    with pytest.raises(ValueError, match="beyond the cap"):
        choose_n(0.1, 1, 0, 1e-300)
    # n^d against the cap of 2^24 cubes: 256^3 fits, 300^3 and 3^40 do not
    assert choose_n(2.0 / 256, 3, 0, 1.0) == 256
    assert choose_n(2.0, 40, 0, 1.0) == 1
    for eps, d in ((2.0 / 300, 3), (0.9, 40), (1e-300, 1)):
        with pytest.raises(ValueError, match="beyond the cap"):
            choose_n(eps, d, 0, 1.0)


def test_choose_n_bound_and_homogeneity():
    for eps in (0.3, 0.05, 0.007):
        for (d, r, rho) in [(1, 0, 1.0), (2, 1, 0.5)]:
            n = choose_n(eps, d, r, rho)
            assert _error_bound(n, d, r, rho) <= eps * (1 + 1e-9)
            assert _error_bound(n, d, r, rho) == (default_h_conf(d, r) + 1.0) * (1.0 / n) ** (
                r + rho
            )
            # halving the bound target via eps -> eps/2^(r+rho) doubles n
            n2 = choose_n(eps / 2 ** (r + rho), d, r, rho)
            assert n2 in (2 * n - 1, 2 * n, 2 * n + 1)
    # n is the smallest that meets eps, also where the bound hits eps exactly
    rng = np.random.default_rng(24)
    cases = [(0.02, 2, 0, 1.0), (0.2, 1, 0, 1.0), (1 / 32, 1, 0, 1.0), (3e-3, 3, 2, 1.0)]
    for _ in range(2000):
        d, r = int(rng.integers(1, 4)), int(rng.integers(0, 3))
        cases.append((float(10 ** rng.uniform(-3, 0)), d, r, float(rng.uniform(0.1, 1.0))))
    checked = 0
    for eps, d, r, rho in cases:
        try:
            n = choose_n(eps, d, r, rho)
        except ValueError:  # a grid past the cap has no n to check
            continue
        checked += 1
        assert _error_bound(n, d, r, rho) <= eps * (1 + 1e-9)
        assert n == 1 or _error_bound(n - 1, d, r, rho) > eps, (eps, d, r, rho)
    assert checked > 1000


def test_params_require_target():
    f = make_function("peak", 1, 0, 1.0)
    with pytest.raises(ValueError):
        quantum_maximize(f, MaximizerParams(), np.random.default_rng(0))
    for n in (2.5, 0):
        with pytest.raises(ValueError, match="n_override"):
            MaximizerParams(n_override=n)


def test_params_refuse_both_targets():
    # n_override would win, leaving epsilon silently unused
    with pytest.raises(ValueError, match="set one of epsilon and n_override, not both"):
        MaximizerParams(epsilon=0.001, n_override=4)


# ---------------------------------------------------------------------------
# certified local maxima


def test_local_max_constant_model():
    center, coeffs = np.array([0.5]), np.array([0.37])
    assert box_max(((0,),), coeffs, center, 0.1, 1e-6) == 0.37


def test_local_max_linear_vertex_formula():
    # the max of c0 + <g, x> over [-half, half]^d is c0 + sum |g_k| half, bit
    # for bit, for every row of a batch
    rng = np.random.default_rng(3)
    for d in (1, 2, 3, 10):
        alphas = multi_indices(d, 1)
        coeffs = rng.normal(size=(20, len(alphas)))
        centers = rng.random((20, d))
        half = rng.uniform(0.01, 0.2)
        got = _box_max(alphas, coeffs, centers, half, 1e-9)
        for row, value in zip(coeffs, got):
            grads = np.array([c for c, alpha in zip(row, alphas) if sum(alpha) == 1])
            assert value == row[alphas.index((0,) * d)] + (np.abs(grads) * half).sum()


def test_local_max_interior_parabola():
    # w(t) = 1 - (t - c)^2 around an interior stationary point
    c = 0.52
    coeffs = np.array([1 - (0.5 - c) ** 2, -2 * (0.5 - c), -1.0])
    eps1 = 1e-8
    got = box_max(((0,), (1,), (2,)), coeffs, np.array([0.5]), 0.1, eps1)
    assert got == pytest.approx(1.0, abs=eps1)


@pytest.mark.parametrize(
    "d,degree", [(1, 2), (2, 2), (1, 3), (2, 3), (3, 2), (3, 3), (1, 4), (2, 4)]
)
def test_local_max_vs_dense_grid(d, degree):
    rng = np.random.default_rng(100 + 10 * d + degree)
    eps1 = 0.02
    for _ in range(12):
        model = random_model(rng, d, degree)
        half = rng.uniform(0.02, 0.08)
        lo, hi = model[2] - half, model[2] + half
        got = box_max(*model, half, eps1)
        ref = dense_grid_max(*model, lo, hi, 200_000)
        assert got >= ref - eps1
        assert got <= ref + eps1 + 1e-9


def test_quadratic_closed_form_agrees_with_branch_and_bound():
    rng = np.random.default_rng(9)
    for d in (1, 2):
        for _ in range(40):
            alphas, coeffs, center = random_model(rng, d, 2)
            half = rng.uniform(0.02, 0.1)
            exact = box_max(alphas, coeffs, center, half, 1e-10)
            bb = _branch_bound_max(
                alphas, coeffs[None], center[None],
                np.full((1, d), -half), np.full((1, d), half), 1e-7,
            )[0]
            assert exact == pytest.approx(bb, abs=2e-7)


# coefficients (c00, cy, cx, cyy, cxy, cxx), ordered like multi_indices(2, 2)
QUADRATIC_2D_CASES = {
    "cxx = 0": (0.2, 0.1, 0.3, -1.0, 0.5, 0.0),
    "cyy = 0": (0.2, 0.3, 0.1, 0.0, 0.5, -1.0),
    "det = 0, concave ridge": (0.0, 0.05, 0.1, -1.0, 2.0, -1.0),
    "no quadratic terms": (0.4, -0.7, 0.2, 0.0, 0.0, 0.0),
    "saddle": (0.0, 0.1, -0.2, 1.0, 0.3, -1.0),
    "positive definite": (0.1, -0.1, 0.2, 2.0, 0.5, 1.0),
    "maximum on an edge": (0.0, 2.0, 0.1, 0.0, 0.0, -1.0),
    "maximum at a corner": (0.0, 1.0, 1.0, -0.1, 0.0, -0.1),
    "interior maximum": (0.0, -0.03, 0.05, -1.0, 0.2, -1.0),
}


@pytest.mark.parametrize("case", sorted(QUADRATIC_2D_CASES))
def test_quadratic_2d_degenerate_cases(case):
    # the faces of the cell must cover every Hessian, singular ones included
    alphas = multi_indices(2, 2)
    coeffs = np.array(QUADRATIC_2D_CASES[case])
    center, half = np.array([0.5, 0.5]), 0.25
    got = box_max(alphas, coeffs, center, half, 1e-10)
    ref = dense_grid_max(alphas, coeffs, center, center - half, center + half)
    assert ref - 1e-12 <= got <= ref + 1e-6
    bb = _branch_bound_max(alphas, coeffs[None], center[None], -half, half, 1e-5)[0]
    assert got == pytest.approx(bb, abs=1e-5)


# ---------------------------------------------------------------------------
# the batched branch-and-bound frontier against a per-model heap


def reference_branch_bound(alphas, coeffs, center, lo_off, hi_off, eps1, max_nodes=500_000):
    """Per-model heap branch-and-bound; returns (certified max, boxes split).

    The batched frontier must reproduce it bit for bit, so its float
    operations are the ones the frontier copies: offsets are
    (center + lo_off) - center, polynomial terms are added one by one,
    slack is summed over axes in order, and every power, in the value
    and in the gradient bound, is numpy's array power on a one-element
    slice.
    """
    d = center.size

    def partial(k):
        out_a, out_c = [], []
        for alpha, c in zip(alphas, coeffs):
            if alpha[k]:
                beta = list(alpha)
                beta[k] -= 1
                out_a.append(beta)
                out_c.append(c * alpha[k])
        return out_a, out_c

    partials = [partial(k) for k in range(d)]

    def abs_bound(pa, pc, lo, hi):
        m = np.maximum(np.abs(lo), np.abs(hi))
        total = 0.0
        for alpha, c in zip(pa, pc):
            term = abs(float(c))
            for k, a in enumerate(alpha):
                if a:
                    term *= (m[k : k + 1] ** a)[0]
            total += term
        return total

    def value_at(offs):
        acc = np.zeros(1)
        for alpha, c in zip(alphas, coeffs):
            term = np.full(1, float(c))
            for k, a in enumerate(alpha):
                if a:
                    term = term * offs[:, k] ** a
            acc += term
        return float(acc[0])

    def box_bounds(lo, hi):
        mid = 0.5 * (lo + hi)
        val = value_at(mid[None, :])
        slack = 0.0
        for k in range(d):
            slack += abs_bound(*partials[k], lo, hi) * 0.5 * (hi[k] - lo[k])
        return val, val + slack

    lo0 = (center + lo_off) - center
    hi0 = (center + hi_off) - center
    best, ub0 = box_bounds(lo0, hi0)
    heap = [(-ub0, 0, lo0, hi0)]
    counter = itertools.count(1)
    nodes = 0
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
        low_hi, high_lo = bhi.copy(), blo.copy()
        low_hi[axis] = high_lo[axis] = mid
        for child_lo, child_hi in ((blo, low_hi), (high_lo, bhi)):
            val, cub = box_bounds(child_lo, child_hi)
            if val > best:
                best = val
            if cub - best > eps1:
                heapq.heappush(heap, (-cub, next(counter), child_lo, child_hi))
    else:
        ub_final = best
    ub_final = max(ub_final, best)
    return 0.5 * (best + min(ub_final, best + eps1)), nodes


@st.composite
def _model_batches(draw):
    d = draw(st.integers(1, 4))
    degree = draw(st.integers(2, 4))
    alphas = multi_indices(d, degree)
    if draw(st.booleans()):
        alphas = tuple(draw(st.permutations(alphas)))
    rows = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # easy rows (tiny coefficients) mixed with deep ones
    scale = rng.choice([1e-3, 0.3, 1.0, 3.0], size=(rows, 1))
    coeffs = scale * rng.normal(size=(rows, len(alphas)))
    centers = rng.random((rows, d))
    lo_off = -rng.uniform(0.0, 0.15, size=(rows, d))
    hi_off = rng.uniform(0.0, 0.15, size=(rows, d))
    flat = rng.random((rows, d)) < 0.2  # zero-width axes
    lo_off[flat] = hi_off[flat] = 0.0
    eps1 = draw(st.sampled_from([3e-3, 1e-2, 3e-2]))
    return alphas, coeffs, centers, lo_off, hi_off, eps1


@pytest.mark.parametrize("d, degree", [(d, g) for d in (1, 2, 3) for g in range(5)])
def test_gradient_tableaux_match_central_differences(d, degree):
    """Each partial's (lowered, coeffs[:, cols] * scale) tableau is d p / d t_k.

    The oracle is a central difference of eval_taylor on the model itself,
    on random rows of coefficients and offsets.
    """
    rng = np.random.default_rng(100 * d + degree)
    alphas = multi_indices(d, degree)
    coeffs = rng.normal(size=(30, len(alphas)))
    x = rng.uniform(-1.0, 1.0, size=(30, d))
    cols, scale, parts = _gradient_terms(alphas, d)
    assert len(parts) == d
    h = 1e-5
    for k, (start, stop, lowered) in enumerate(parts):
        step = np.zeros(d)
        step[k] = h
        fd = (eval_taylor(alphas, coeffs, x + step) - eval_taylor(alphas, coeffs, x - step)) / (
            2 * h
        )
        terms = coeffs[:, cols[start:stop]] * scale[start:stop]
        np.testing.assert_allclose(eval_taylor(lowered, terms, x), fd, rtol=1e-6, atol=1e-6)



@settings(derandomize=True, deadline=None, max_examples=100)
@given(_model_batches())
def test_batched_frontier_matches_per_model_heap_bitwise(batch):
    alphas, coeffs, centers, lo_off, hi_off, eps1 = batch
    got = _branch_bound_max(alphas, coeffs, centers, lo_off, hi_off, eps1)
    for i in range(coeffs.shape[0]):
        want, _ = reference_branch_bound(
            alphas, coeffs[i], centers[i], lo_off[i], hi_off[i], eps1
        )
        assert got[i].tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("d,degree", [(1, 4), (2, 3), (3, 4), (4, 3)])
def test_root_box_bound_matches_per_model_heap_bitwise(d, degree):
    # with eps1 above every gap each row stops at its root box and returns
    # the midpoint of its value and bound, so last-bit slips in the
    # gradient bound show here rather than being rounded away deep in a tree
    rng = np.random.default_rng(10 * d + degree)
    alphas = multi_indices(d, degree)
    rows = 400
    coeffs = rng.normal(size=(rows, len(alphas))) * rng.choice([0.1, 1.0, 10.0], size=(rows, 1))
    centers = rng.random((rows, d))
    lo_off = -rng.uniform(0.0, 0.5, size=(rows, d))
    hi_off = rng.uniform(0.0, 0.5, size=(rows, d))
    got = _branch_bound_max(alphas, coeffs, centers, lo_off, hi_off, 1e9)
    for i in range(rows):
        want, nodes = reference_branch_bound(
            alphas, coeffs[i], centers[i], lo_off[i], hi_off[i], 1e9
        )
        assert nodes == 0
        assert got[i].tobytes() == np.float64(want).tobytes()


def test_large_frontier_matches_per_model_heap_bitwise():
    # 120 rows of degree 4 in d=3 share one frontier; they stop after
    # anywhere from 0 to a few hundred splits, so the frontier is rebuilt
    # many times while some rows are gone and others keep splitting
    rng = np.random.default_rng(0)
    alphas = multi_indices(3, 4)
    rows, eps1 = 120, 1e-4
    coeffs = rng.normal(size=(rows, len(alphas))) * rng.choice([1e-3, 0.1, 1.0], size=(rows, 1))
    centers = rng.random((rows, 3))
    lo_off = -rng.uniform(0.0, 0.05, size=(rows, 3))
    hi_off = rng.uniform(0.0, 0.05, size=(rows, 3))
    got = _branch_bound_max(alphas, coeffs, centers, lo_off, hi_off, eps1)
    nodes = []
    for i in range(rows):
        want, k = reference_branch_bound(
            alphas, coeffs[i], centers[i], lo_off[i], hi_off[i], eps1
        )
        nodes.append(k)
        assert got[i].tobytes() == np.float64(want).tobytes()
    assert min(nodes) == 0 and max(nodes) >= 100 and len(set(nodes)) >= 30


@pytest.mark.parametrize(
    "cubic,linear,eps1",
    [(1.0, -1 / 16, 1 / 16), (-1.0, 1 / 16, 1 / 16), (1.0, -1 / 16, 13 / 32)],
)
def test_exact_ties_follow_the_heap_order(cubic, linear, eps1):
    # x^3 - x/16 on [-1/2, 1/2]: both halves of the root have midpoint
    # value 0 and equal bounds, so the older (low) half must be popped
    # first; with eps1 = 13/32 the root gap equals eps1 and must stop it.
    # Copies of the row and its mirror image x -> -x share one batch, so
    # after a rebuild their tied slots interleave row by row in the
    # frontier, and each row must still pop its own oldest one.  With
    # d = 2 the model is constant in y, so the halves of each y split tie
    # exactly as well
    for d in (1, 2):
        alphas = multi_indices(d, 3)
        row = np.zeros(len(alphas))
        row[alphas.index((3,) + (0,) * (d - 1))] = cubic
        row[alphas.index((1,) + (0,) * (d - 1))] = linear
        coeffs = np.array([row, row, -row, row])
        centers, half = np.full((4, d), 0.5), np.full((4, d), 0.5)
        got = _branch_bound_max(alphas, coeffs, centers, -half, half, eps1)
        for i in range(4):
            want, _ = reference_branch_bound(
                alphas, coeffs[i], centers[i], -half[i], half[i], eps1
            )
            assert got[i].tobytes() == np.float64(want).tobytes()


def test_tied_bounds_pop_the_box_pushed_in_an_earlier_pass():
    # x^2/2 - x^4/2 on [-1/2, 1/2] is even, so mirrored boxes tie on their
    # bounds, also a box pushed passes ago with a newly pushed one; popping
    # the newer first would move the result by 7e-5
    alphas = multi_indices(1, 4)
    coeffs = np.array([[0.0, 0.0, 0.5, 0.0, -0.5]])
    center, half = np.array([[0.5]]), np.array([[0.5]])
    got = _branch_bound_max(alphas, coeffs, center, -half, half, 2.0**-10)[0]
    want, _ = reference_branch_bound(alphas, coeffs[0], center[0], -half[0], half[0], 2.0**-10)
    assert got == want


def test_node_cap_applies_per_row(monkeypatch):
    rng = np.random.default_rng(21)
    alphas = multi_indices(2, 3)
    rows = 60
    coeffs = rng.normal(size=(rows, len(alphas)))
    centers = rng.random((rows, 2))
    half = np.full((rows, 2), 0.1)
    eps1 = 1e-3
    nodes = [
        reference_branch_bound(alphas, coeffs[i], centers[i], -half[i], half[i], eps1)[1]
        for i in range(rows)
    ]
    cap = max(nodes)
    assert cap >= 2 and sum(nodes) > 10 * cap
    # many rows together split far more than cap boxes, none more than cap
    monkeypatch.setattr("qfmax.maximizer._MAX_NODES", cap)
    _branch_bound_max(alphas, coeffs, centers, -half, half, eps1)
    hard = [int(np.argmax(nodes))]
    monkeypatch.setattr("qfmax.maximizer._MAX_NODES", cap - 1)
    with pytest.raises(RuntimeError, match="node cap"):
        _branch_bound_max(alphas, coeffs[hard], centers[hard], -half[hard], half[hard], eps1)


_LAZY_TABLE_CASES = (
    [("cosprod", d, r) for d in (1, 2, 3) for r in range(4)]
    + [("peak", d, r) for d in (1, 2, 3) for r in range(3)]
    + [("sin1d", 1, r) for r in range(4)]
)


@pytest.mark.parametrize("name,d,r", _LAZY_TABLE_CASES)
def test_local_max_at_one_cell_matches_the_batch_bitwise(name, d, r):
    # a solve certifies the whole grid in one call and the sampling baseline
    # a random subset, so a cell's value must not depend on the cells
    # sharing its call
    f = make_function(name, d, r, 1.0, rng=np.random.default_rng(4))
    grid = build_grid(5, d)
    centers = grid.centers()
    batch = local_max_at(f, grid, centers)
    single = np.concatenate([local_max_at(f, grid, c[None, :]) for c in centers])
    assert single.tobytes() == batch.tobytes()


@pytest.mark.parametrize("r,n", [(100, 4096), (170, 100), (200, 64)])
def test_underflowing_cell_tolerance_is_refused_up_front(r, n, capsys):
    # (1/n)^(r+rho) is every cell's tolerance eps1 and the remainder ratio's
    # divisor; the user never sets it, so its underflow to 0 is refused with n
    # and r+rho named, before any evaluation is charged
    argv = ["holder-max", "--function", "cosprod", "--d", "1", "--r", str(r), "--n", str(n)]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err == (
        f"qfmax: error: cell tolerance (1/n)^(r+rho) underflows to 0 at n={n}, r+rho={r + 1}\n"
    )
    f, grid, led = make_function("cosprod", 1, r, 1.0), build_grid(n, 1), QueryLedger()
    with pytest.raises(ValueError, match=f"underflows to 0 at n={n}, r"):
        remainder_bound_check(f, grid, 10)
    with pytest.raises(ValueError, match="underflows"):
        local_max_at(f, grid, grid.centers()[:1], led)
    assert led.evaluations == 0


def test_local_max_uses_no_function_evaluations():
    # certification reads only the tableau: one derivative call per alpha,
    # coefficient_count(d, r) evaluations per cell, closed form or branch-and-bound
    for name, d, r in (("peak", 2, 2), ("cosprod", 2, 3)):
        f = make_function(name, d, r, 1.0, rng=np.random.default_rng(5))
        calls = []
        counted = HolderFunction(
            d=d, r=r, rho=1.0, deriv=lambda alpha, pts: calls.append(alpha) or f.deriv(alpha, pts)
        )
        grid = build_grid(4, d)
        led = QueryLedger()
        local_max_at(counted, grid, grid.centers(), led)
        assert calls == list(multi_indices(d, r))
        assert led.evaluations == grid.N * coefficient_count(d, r)


# ---------------------------------------------------------------------------
# end-to-end maximizer


def test_constant_function_is_exact():
    f = HolderFunction(
        d=2, r=1, rho=1.0,
        deriv=lambda alpha, pts: np.full(pts.shape[0], 0.5 if sum(alpha) == 0 else 0.0),
        seminorm_bound=0.0, sup_bound=0.5, known_max=0.5,
    )
    res = quantum_maximize(f, MaximizerParams(n_override=3), np.random.default_rng(0))
    assert res.value == pytest.approx(0.5, abs=1e-12)
    assert res.witness.shape == (2,)


def test_climb_tells_apart_values_closer_than_the_sup_bound_resolution():
    # One cell's certified value is 1e-300, all others 0: far below ulp(1),
    # yet the climb must still see it as the larger value.
    n, best = 64, 37

    def deriv(alpha, pts):
        cells = np.clip((pts[:, 0] * n).astype(int), 0, n - 1)
        return np.where(cells == best, 1e-300, 0.0)

    f = HolderFunction(d=1, r=0, rho=1.0, deriv=deriv, known_max=1e-300)
    found = 0
    for seed in range(20):
        res = quantum_maximize(f, MaximizerParams(n_override=n), np.random.default_rng(seed))
        found += int(res.value == 1e-300)
        assert res.value == f(res.witness)[0]
    assert found >= 18


def test_sine_error_bound_frequency():
    # error within G h^2 of the true maximum at least 3/4 of the time;
    # G calibrated from the observed remainder ratio plus the local slack
    n, trials = 32, 400
    f = make_function("sin1d", 1, 1, 1.0)
    grid = build_grid(n, 1)
    ratio = remainder_bound_check(f, grid, 20_000, rng=np.random.default_rng(0))
    bound = (ratio + 1.0) * grid.h**2 * 1.05
    hits = 0
    for t in range(trials):
        rng = np.random.default_rng(1000 + t)
        res = quantum_maximize(f, MaximizerParams(n_override=n), rng)
        hits += int(abs(res.value - f.known_max) <= bound)
    assert hits / trials >= 0.75 - 3 * math.sqrt(0.75 * 0.25 / trials)


@pytest.mark.parametrize(
    "name,d,r,rho,n",
    [
        ("peak", 1, 0, 1.0, 64),
        ("peak", 1, 2, 1.0, 16),
        ("peak", 2, 1, 1.0, 12),
        ("cosprod", 2, 1, 1.0, 12),
        ("bumpfamily", 1, 1, 1.0, 16),
    ],
)
def test_success_frequency_on_registered_functions(name, d, r, rho, n):
    trials = 400
    h_conf = default_h_conf(d, r)
    bound = (h_conf + 1.0) * (1.0 / n) ** (r + rho)
    hits = 0
    for t in range(trials):
        inst = np.random.default_rng((hash((name, d, r)) & 0xFFFF) * 10_000 + t)
        f = make_function(name, d, r, rho, rng=inst)
        res = quantum_maximize(f, MaximizerParams(n_override=n), inst)
        hits += int(abs(res.value - f.known_max) <= bound)
    assert hits / trials >= 0.75 - 3 * math.sqrt(0.75 * 0.25 / trials)


def test_error_chain_and_conditional_exactness():
    # whenever the discrete search returns the true maximum of the local
    # estimates, the end-to-end error obeys remainder + eps1
    n = 24
    grid = build_grid(n, 1)
    eps1 = grid.h ** 2
    checked = 0
    for t in range(60):
        inst = np.random.default_rng(3000 + t)
        f = make_function("peak", 1, 1, 1.0, rng=inst)
        res = quantum_maximize(f, MaximizerParams(n_override=n), inst)
        table = local_max_at(f, grid, grid.centers())
        if res.value == table.max():
            checked += 1
            h_conf = default_h_conf(1, 1)
            assert abs(res.value - f.known_max) <= h_conf * grid.h**2 + eps1
    assert checked >= 40


def test_query_and_evaluation_accounting():
    n, d, r = 16, 2, 1
    f = make_function("cosprod", d, r, 1.0, rng=np.random.default_rng(6))
    params = MaximizerParams(n_override=n, search=SearchParams(boost_rounds=2))
    res = quantum_maximize(f, params, np.random.default_rng(7))
    per_round = math.ceil(params.search.budget_factor * math.sqrt(n**d))
    assert res.ledger.quantum_queries <= 2 * per_round + 2
    # every cell is certified exactly once, however many times it is read
    assert res.ledger.evaluations == n**d * coefficient_count(d, r)
    assert res.ledger.classical_queries >= 1


def test_a_solve_certifies_every_cell_in_one_call_inside_the_first_mask(monkeypatch):
    # The count form of the timing check in perfbench's instrument test:
    # every cell is certified in one local_max_at call, made while the
    # solve's first mask() call, and no other, is open.
    calls, masks, open_masks = [], [], []
    certify, mask = maximizer.local_max_at, qcore.MarkPredicate.mask

    def counted_certify(f, grid, centers, ledger=None):
        calls.append((len(centers), list(open_masks)))
        return certify(f, grid, centers, ledger)

    def watched_mask(self):
        masks.append(self)
        open_masks.append(len(masks))
        try:
            return mask(self)
        finally:
            open_masks.pop()

    monkeypatch.setattr(maximizer, "local_max_at", counted_certify)
    monkeypatch.setattr(qcore.MarkPredicate, "mask", watched_mask)
    for name, d, r, n in [("peak", 2, 0, 8), ("cosprod", 2, 1, 12)]:
        N = n**d
        for seed in range(5):
            f = make_function(name, d, r, 1.0, rng=np.random.default_rng(seed))
            calls.clear()
            masks.clear()
            res = quantum_maximize(f, MaximizerParams(n_override=n), np.random.default_rng(seed))
            assert calls == [(N, [1])]
            assert res.ledger.evaluations == N * coefficient_count(d, r)
    # a solve refused for its quantum budget certifies nothing
    calls.clear()
    refused = MaximizerParams(n_override=8, search=SearchParams(budget_factor=1e12))
    with pytest.raises(ValueError, match="budget"):
        quantum_maximize(make_function("peak", 2, 0, 1.0), refused, np.random.default_rng(0))
    assert calls == []


def test_threshold_chains_climb_through_certified_cell_values():
    n, d, r, rounds = 12, 2, 1, 3
    grid = build_grid(n, d)
    params = MaximizerParams(n_override=n, search=SearchParams(boost_rounds=rounds))
    for seed in range(10):
        f = make_function("cosprod", d, r, 1.0, rng=np.random.default_rng(seed))
        res = quantum_maximize(f, params, np.random.default_rng(100 + seed))
        cells = local_max_at(f, grid, grid.centers())
        assert len(res.thresholds) == rounds
        for chain in res.thresholds:
            assert chain
            assert all(b > a for a, b in zip(chain, chain[1:]))
            assert set(chain) <= set(cells.tolist())
        assert max(chain[-1] for chain in res.thresholds) == res.value
        assert res.value == cells[grid.cell_of(res.witness)[0]]


@pytest.mark.parametrize(
    "name,d,r,n", [("cosprod", 2, 1, 12), ("cosprod", 3, 2, 6), ("peak", 2, 0, 20)]
)
def test_a_solve_is_find_maximum_over_its_certified_cells(name, d, r, n):
    # cosprod's cell values include negative ones, which the sequence
    # search takes as they are
    grid = build_grid(n, d)
    for seed in range(6):
        f = make_function(name, d, r, 1.0, rng=trial_rng(seed, 0))
        res = quantum_maximize(f, MaximizerParams(n_override=n), trial_rng(seed, 1))
        cells = local_max_at(f, grid, grid.centers())
        ref = find_maximum(SequenceOracle(cells), trial_rng(seed, 1))
        assert name == "peak" or cells.min() < 0.0
        assert grid.cell_of(res.witness)[0] == ref.witness
        np.testing.assert_array_equal(res.witness, grid.center(ref.witness))
        assert res.value == ref.value
        assert res.thresholds == ref.thresholds
        assert res.success == ref.success
        assert res.ledger.quantum_queries == ref.ledger.quantum_queries
        assert res.ledger.classical_queries == ref.ledger.classical_queries


def test_epsilon_driven_run_meets_target():
    eps = 0.02
    misses = 0
    for t in range(50):
        inst = np.random.default_rng(5000 + t)
        f = make_function("peak", 1, 1, 1.0, rng=inst)
        res = quantum_maximize(f, MaximizerParams(epsilon=eps), inst)
        misses += int(abs(res.value - f.known_max) > eps)
    assert misses <= 8


def test_witness_is_center_of_reported_cell():
    f = make_function("peak", 2, 0, 1.0, rng=np.random.default_rng(8))
    res = quantum_maximize(f, MaximizerParams(n_override=9), np.random.default_rng(9))
    grid = build_grid(9, 2)
    i = int(grid.cell_of(res.witness)[0])
    np.testing.assert_allclose(grid.center(i), res.witness, atol=1e-12)


def test_grid_cap_propagates():
    f = make_function("peak", 2, 0, 1.0, rng=np.random.default_rng(10))
    with pytest.raises(ValueError):
        quantum_maximize(f, MaximizerParams(epsilon=1e-9), np.random.default_rng(0))
