"""Grids, Taylor models, bump families, and class-membership checks."""

import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfmax.functions import make_function
from qfmax.holder import (
    Grid,
    HolderFunction,
    build_grid,
    bump_class_scale,
    bump_profile,
    coefficient_count,
    eval_taylor,
    make_bump_family,
    membership_check,
    multi_indices,
    remainder_bound_check,
    taylor_tableau,
)
from qfmax.holder import _SUPPORT_SHRINK, _exponents, _monomial_sum, _power_table
from qfmax.qcore import QueryLedger

# Frozen oracles.
# Degree-2 model of sin(2*pi*t) at 0.5: f=0, f'=-2*pi, f''=0, so the model
# at t=0.6 is -2*pi*0.1.
SIN_TAYLOR2_AT_06 = -0.6283185307179586
# Profile value exp(1 - 1/(1 - 0.25)) = exp(-1/3).
PROFILE_AT_HALF = 0.7165313105737893


def brute_multi_indices(d, max_order):
    # every tuple of the cube, ordered by total order, then lexicographically
    cube = itertools.product(range(max_order + 1), repeat=d)
    return tuple(sorted((a for a in cube if sum(a) <= max_order), key=lambda a: (sum(a), a)))


def sin_function(r, rho=1.0, amp=1.0):
    # D^k [amp sin(2 pi t)] = amp (2 pi)^k sin(2 pi t + k pi/2)
    def deriv(alpha, pts):
        k = alpha[0]
        return amp * (2 * math.pi) ** k * np.sin(2 * math.pi * pts[:, 0] + k * math.pi / 2)

    bound = amp * (2 * math.pi) ** r * 2 * math.pi**rho
    return HolderFunction(
        d=1, r=r, rho=rho, deriv=deriv, seminorm_bound=bound, sup_bound=amp, known_max=amp
    )


# ---------------------------------------------------------------------------
# grid


def test_grid_centers_1d():
    g = build_grid(2, 1)
    np.testing.assert_allclose(g.centers()[:, 0], [0.25, 0.75], atol=1e-15)


def test_grid_middle_cell_2d():
    g = build_grid(3, 2)
    assert g.N == 9
    np.testing.assert_allclose(g.center(4), [0.5, 0.5], atol=1e-15)


def test_grid_tiling_3d():
    g = build_grid(10, 3)
    assert g.N == 1000
    c = g.centers()
    assert c.min() > 0.0 and c.max() < 1.0
    assert g.N * g.h**3 == pytest.approx(1.0, abs=1e-12)
    # round trip: every center falls back into its own cube
    for i in (0, 137, 999):
        assert g.cell_of(g.center(i)) == i


def test_grid_cap_and_validation():
    with pytest.raises(ValueError):
        build_grid(2**13, 2)
    build_grid(2**12, 2)
    with pytest.raises(ValueError):
        build_grid(0, 1)
    with pytest.raises(ValueError):
        Grid(n=3, d=0)
    with pytest.raises(ValueError, match="d <= 64"):
        Grid(n=1, d=65)
    grid = build_grid(1, 64)  # the most axes numpy's index arrays take
    assert grid.centers().shape == (1, 64) and grid.center(0).shape == (64,)
    # a flat cell index must fit numpy's intp
    with pytest.raises(ValueError, match=r"2\^63 cells"):
        Grid(2, 63)
    assert Grid(2, 62).center(2**62 - 1).tolist() == [0.75] * 62
    assert Grid(1, 64).N == 1
    for n, d in [(2.5, 1), (np.float64(4.0), 2), (3, 1.0)]:
        with pytest.raises(ValueError, match="integer"):
            Grid(n, d)


@pytest.mark.parametrize("n,d", [(100, 2), (13, 3), (2600, 1), (5, 4), (1, 64), (2, 62)])
def test_grid_centers_match_the_unravelled_formula_bitwise(n, d):
    def formula(cells):
        axes = np.stack(np.unravel_index(cells, (n,) * d), 1).astype(float)
        return (2.0 * axes + 1.0) / (2.0 * n)

    grid = Grid(n, d)
    rng = np.random.default_rng(n + d)
    subsets = [rng.integers(0, grid.N, size=k) for k in (1, 7, 500)] + [np.array([grid.N - 1])]
    whole = [(grid.centers(), np.arange(grid.N))] if grid.N <= 10**4 else []  # not 2^62 cells
    for got, cells in whole + [(grid.centers(cells), cells) for cells in subsets]:
        want = formula(cells)
        assert got.shape == want.shape
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
    last = formula(np.array([grid.N - 1]))[0]
    np.testing.assert_array_equal(grid.center(grid.N - 1).view(np.int64), last.view(np.int64))


# ---------------------------------------------------------------------------
# multi-indices and models


@pytest.mark.parametrize("d", range(1, 7))
@pytest.mark.parametrize("r", range(0, 7))
def test_multi_index_enumeration_matches_brute_force(d, r):
    got = multi_indices(d, r)
    assert got == brute_multi_indices(d, r)
    assert len(got) == coefficient_count(d, r)
    assert coefficient_count(d, r) == math.factorial(d + r) // (
        math.factorial(d) * math.factorial(r)
    )


def test_multi_indices_in_many_dimensions_are_quick():
    multi_indices.cache_clear()
    t0 = time.perf_counter()
    got = multi_indices(40, 2)
    assert time.perf_counter() - t0 < 1.0
    assert len(got) == coefficient_count(40, 2) == 861
    assert got[1] == (0,) * 39 + (1,) and got[-1] == (2,) + (0,) * 39


def test_multi_index_order_is_stable():
    assert multi_indices(2, 2) == (
        (0, 0),
        (0, 1),
        (1, 0),
        (0, 2),
        (1, 1),
        (2, 0),
    )


def test_taylor_model_counts():
    f2 = HolderFunction(
        d=2, r=2, rho=1.0, deriv=lambda alpha, pts: np.zeros(pts.shape[0]), seminorm_bound=0.0
    )
    assert taylor_tableau(f2, np.array([[0.5, 0.5]]))[1].shape == (1, 6)
    f3 = HolderFunction(
        d=3, r=2, rho=1.0, deriv=lambda alpha, pts: np.zeros(pts.shape[0]), seminorm_bound=0.0
    )
    assert taylor_tableau(f3, np.array([[0.5, 0.5, 0.5]]))[1].shape == (1, 10)


def test_taylor_model_constant_case():
    f = HolderFunction(
        d=1, r=0, rho=1.0, deriv=lambda alpha, pts: np.full(pts.shape[0], 0.37),
        seminorm_bound=1.0,
    )
    alphas, coeffs = taylor_tableau(f, np.array([[0.25]]))
    assert coeffs[0, 0] == pytest.approx(0.37, abs=1e-15)
    assert eval_taylor(alphas, coeffs[0], np.array([[0.9 - 0.25]]))[0] == pytest.approx(
        0.37, abs=1e-15
    )


def test_taylor_tableau_charges_evaluations():
    led = QueryLedger()
    f = HolderFunction(
        d=2, r=1, rho=1.0, deriv=lambda alpha, pts: np.ones(pts.shape[0]), seminorm_bound=1.0
    )
    centers = build_grid(3, 2).centers()
    taylor_tableau(f, centers, led)
    assert led.evaluations == 9 * coefficient_count(2, 1)


def test_eval_taylor_at_center_returns_leading_coefficient():
    f = sin_function(2)
    alphas, coeffs = taylor_tableau(f, np.array([[0.3]]))
    assert eval_taylor(alphas, coeffs[0], np.zeros((1, 1)))[0] == pytest.approx(
        math.sin(2 * math.pi * 0.3), abs=1e-15
    )


def test_eval_taylor_reproduces_polynomials_exactly():
    # quadratic in two variables with hand derivatives; degree <= r means
    # the model is the polynomial itself
    coef = {"c": 0.3, "x": -0.7, "y": 0.41, "xx": 0.9, "xy": -1.1, "yy": 0.27}

    def deriv(alpha, pts):
        x, y = pts[:, 0], pts[:, 1]
        if alpha == (0, 0):
            return (
                coef["c"]
                + coef["x"] * x
                + coef["y"] * y
                + coef["xx"] * x * x
                + coef["xy"] * x * y
                + coef["yy"] * y * y
            )
        if alpha == (1, 0):
            return coef["x"] + 2 * coef["xx"] * x + coef["xy"] * y
        if alpha == (0, 1):
            return coef["y"] + 2 * coef["yy"] * y + coef["xy"] * x
        if alpha == (2, 0):
            return np.full(pts.shape[0], 2 * coef["xx"])
        if alpha == (0, 2):
            return np.full(pts.shape[0], 2 * coef["yy"])
        if alpha == (1, 1):
            return np.full(pts.shape[0], coef["xy"])
        raise AssertionError(alpha)

    f = HolderFunction(d=2, r=2, rho=1.0, deriv=deriv, seminorm_bound=10.0, sup_bound=10.0)
    rng = np.random.default_rng(17)
    center = np.array([0.4, 0.6])
    alphas, coeffs = taylor_tableau(f, center[None, :])
    pts = rng.random((100, 2))
    np.testing.assert_allclose(eval_taylor(alphas, coeffs[0], pts - center), f(pts), atol=1e-10)


def gather_accumulate_sum(c, exps, tables):
    """The former _monomial_sum, kept as the reference for the column-wise one.

    tables[k] is (R, top + 1) with column e the e-th power of variable k:
    every axis gathers its power columns into the (R, K) terms, zero
    exponents included, then one accumulate adds them left to right from 0.0.
    """
    terms = np.zeros((c.shape[0], c.shape[1] + 1))
    terms[:, 1:] = c
    for k, table in enumerate(tables):
        terms[:, 1:] *= table[:, exps[:, k]]
    return np.add.accumulate(terms, axis=1, out=terms)[:, -1].copy()


@st.composite
def _monomial_cases(draw):
    rows = draw(st.integers(1, 50))
    d = draw(st.integers(1, 4))
    degree = draw(st.integers(0, 4))
    alphas = tuple(draw(st.permutations(multi_indices(d, degree))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (rows, len(alphas))
    coeffs = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
    zero = rng.random(shape) < 0.2
    coeffs[zero] = np.copysign(0.0, rng.normal(size=zero.sum()))  # +0.0 and -0.0
    if draw(st.booleans()):  # one coefficient row shared by all rows
        coeffs = np.broadcast_to(coeffs[0], shape)
    x = rng.uniform(-1.5, 1.5, size=(rows, d))
    x[rng.random(x.shape) < 0.1] = draw(st.sampled_from([0.0, -0.0]))
    return alphas, coeffs, x


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_monomial_cases())
def test_monomial_sum_matches_gather_and_accumulate_bitwise(case):
    alphas, coeffs, x = case
    rows, d = x.shape
    exps = np.array(alphas).reshape(len(alphas), d)
    tables = [
        np.column_stack([np.ones(rows)] + [x[:, k] ** e for e in range(1, top + 1)])
        for k, top in enumerate(exps.max(axis=0))
    ]
    factors, tops = _exponents(alphas, d)
    powers = [_power_table(x[:, k], top) for k, top in enumerate(tops)]
    got = _monomial_sum(coeffs, factors, powers)
    assert got.tobytes() == gather_accumulate_sum(coeffs, exps, tables).tobytes()


def test_eval_taylor_frozen_sin_value():
    alphas, coeffs = taylor_tableau(sin_function(2), np.array([[0.5]]))
    value = eval_taylor(alphas, coeffs[0], np.array([[0.6 - 0.5]]))[0]
    assert value == pytest.approx(SIN_TAYLOR2_AT_06, abs=1e-12)


# ---------------------------------------------------------------------------
# remainder


def test_remainder_zero_for_constant():
    f = HolderFunction(
        d=1, r=0, rho=1.0, deriv=lambda alpha, pts: np.full(pts.shape[0], 0.5),
        seminorm_bound=1.0,
    )
    assert remainder_bound_check(f, build_grid(4, 1), 200, rng=np.random.default_rng(0)) == 0.0


def test_remainder_zero_for_linear_model():
    def deriv(alpha, pts):
        if alpha == (0, 0):
            return 0.1 + 0.3 * pts[:, 0] - 0.2 * pts[:, 1]
        if alpha == (1, 0):
            return np.full(pts.shape[0], 0.3)
        if alpha == (0, 1):
            return np.full(pts.shape[0], -0.2)
        raise AssertionError(alpha)

    f = HolderFunction(d=2, r=1, rho=1.0, deriv=deriv, seminorm_bound=1.0)
    ratio = remainder_bound_check(f, build_grid(3, 2), 500, rng=np.random.default_rng(1))
    assert ratio <= 1e-12


def test_remainder_ratio_stays_bounded_across_n():
    # second derivative of sin(2 pi t) is bounded by (2 pi)^2, so the
    # order-1 remainder over a half-cell never exceeds (2 pi)^2 / 8 times
    # h^2; the ratio must show no upward trend as the grid refines
    f = sin_function(1)
    cap = (2 * math.pi) ** 2 / 8
    ratios = []
    for i, n in enumerate((4, 8, 16, 32)):
        r = remainder_bound_check(f, build_grid(n, 1), 10_000, rng=np.random.default_rng(i))
        assert r <= cap
        ratios.append(r)
    assert max(ratios[2:]) <= max(ratios[:2]) * 1.05


def per_cell_remainder_ratio(f, grid, samples, rng):
    """remainder_bound_check as a loop over the sampled cells, one model per cell."""
    denom = grid.h ** (f.r + f.rho)
    cells = rng.integers(0, grid.N, size=samples)
    offs = (rng.random((samples, f.d)) - 0.5) * grid.h
    worst = 0.0
    for cell in np.unique(cells):
        sel = cells == cell
        center = grid.center(int(cell))
        pts = np.clip(center + offs[sel], 0.0, 1.0)
        alphas, coeffs = taylor_tableau(f, center[None, :])
        resid = np.abs(f(pts) - eval_taylor(alphas, coeffs[0], pts - center))
        worst = max(worst, float(resid.max()) / denom)
    return worst


@pytest.mark.parametrize(
    "name,d,r",
    [
        ("cosprod", 2, 2),
        ("cosprod", 3, 3),
        ("cosprod", 1, 4),
        ("peak", 2, 1),
        ("peak", 1, 2),
        ("sin1d", 1, 3),
        ("bumpfamily", 2, 2),
    ],
)
def test_remainder_check_matches_per_cell_loop_bitwise(name, d, r):
    # one tableau over all sampled cells must give the loop's ratio to the bit
    f = make_function(name, d, r, 1.0, rng=np.random.default_rng(11))
    grid = build_grid(6, d)
    got = remainder_bound_check(f, grid, 3000, rng=np.random.default_rng(12))
    want = per_cell_remainder_ratio(f, grid, 3000, np.random.default_rng(12))
    assert 0.0 < got and np.float64(got).tobytes() == np.float64(want).tobytes()


# ---------------------------------------------------------------------------
# bump profile and families


def test_profile_basic_values():
    assert bump_profile(np.array([0.0]))[0] == pytest.approx(1.0, abs=1e-15)
    assert bump_profile(np.array([0.5]))[0] == pytest.approx(PROFILE_AT_HALF, abs=1e-15)
    np.testing.assert_allclose(bump_profile(np.array([-1.0, 1.0, 1.7])), 0.0, atol=1e-300)


def test_profile_derivatives_match_finite_differences():
    u = np.linspace(-0.92, 0.92, 41)
    h = 1e-6
    for order in range(1, 5):
        exact = bump_profile(u, order)
        fd = (bump_profile(u + h, order - 1) - bump_profile(u - h, order - 1)) / (2 * h)
        np.testing.assert_allclose(exact, fd, atol=1e-5, rtol=1e-4)


def test_profile_vanishes_at_support_boundary():
    u = np.array([1.0 - 1e-3, -1.0 + 1e-3, 1.0, -1.0])
    for order in range(0, 5):
        assert np.abs(bump_profile(u, order)).max() < 1e-8


def test_profile_even_odd_symmetry():
    u = np.linspace(0.05, 0.95, 19)
    for order in range(0, 4):
        sign = (-1) ** order
        np.testing.assert_allclose(
            bump_profile(-u, order), sign * bump_profile(u, order), atol=1e-12
        )


def test_class_scale_positive_and_decreasing_in_r():
    prev = None
    for r in range(0, 4):
        k = bump_class_scale(1, r, 1.0)
        assert k > 0.0
        if prev is not None:
            assert k < prev
        prev = k
    with pytest.raises(ValueError):
        bump_class_scale(1, 0, 0.0)


@pytest.mark.parametrize("d", [1, 2])
def test_class_scale_refuses_a_profile_order_past_double_range(d):
    # Order 44 is the first whose derivative is not finite on the 20,001-point
    # seminorm grid.  max() used to drop its NaN: at d = 1 the scale divided
    # by zero, at d >= 2 the seminorm read 0 and kappa came out wrong.
    assert 0.0 < bump_class_scale(d, 43, 1.0) < math.inf
    with pytest.raises(ValueError, match="order 44 is not finite"):
        bump_class_scale(d, 44, 1.0)


def test_taylor_models_stop_where_the_factorial_overflows():
    f = make_function("cosprod", 1, 170, 1.0)
    assert np.isfinite(taylor_tableau(f, [[0.5]])[1]).all()
    with pytest.raises(ValueError, match="r <= 170"):
        taylor_tableau(make_function("cosprod", 1, 171, 1.0), [[0.5]])


def test_single_bump_with_requested_height():
    fam = make_bump_family(1, 1, 0, 0.1, 0.5)
    f = fam.member(0)
    assert f(np.array([0.5])) == pytest.approx(0.5, abs=1e-15)
    assert f(np.array([0.0])) == 0.0
    assert f(np.array([1.0])) == 0.0
    assert fam.max_height() >= 0.5


def test_bump_family_rejects_excess_height():
    cap = make_bump_family(1, 1, 1, 1.0, None).max_height()
    with pytest.raises(ValueError):
        make_bump_family(1, 1, 1, 1.0, cap * 1.01)
    fam = make_bump_family(1, 1, 1, 1.0, cap)
    assert fam.height == pytest.approx(cap)


def test_bump_family_layout_and_disjointness():
    fam = make_bump_family(4, 2, 0, 1.0, None)
    assert fam.n_bumps == 4
    assert fam.cells_per_edge == 2
    gaps = []
    for i in range(4):
        for j in range(i + 1, 4):
            gaps.append(np.abs(fam.centers[i] - fam.centers[j]).max())
    assert min(gaps) > 2 * fam.radius
    # ragged layout: 5 bumps need a 3x3 grid, extra cells stay empty
    fam5 = make_bump_family(5, 2, 0, 1.0, None)
    assert fam5.cells_per_edge == 3
    assert fam5.centers.shape == (5, 2)


def test_bump_layout_edge_matches_the_linear_search():
    # every field of a family, against one laid out on the m found by
    # counting up from 1
    r, rho = 1, 0.5
    for d in range(1, 5):
        kappa = bump_class_scale(d, r, rho)
        for k in (1, 2, 3, 5, 10, 17):
            for n_bumps in {max(1, k**d - 1), k**d, k**d + 1}:
                m = 1
                while m**d < n_bumps:
                    m += 1
                fam = make_bump_family(n_bumps, d, r, rho, None)
                radius = _SUPPORT_SHRINK * 0.5 / m
                assert (fam.n_bumps, fam.d, fam.r, fam.rho) == (n_bumps, d, r, rho)
                assert fam.cells_per_edge == m and fam.radius == radius
                assert fam.kappa == kappa
                assert fam.height == 0.95 * min(1.0, kappa * radius ** (r + rho))
                np.testing.assert_array_equal(fam.centers, Grid(m, d).centers(np.arange(n_bumps)))


def test_bump_member_peaks_at_center():
    for (d, r, rho) in [(1, 0, 1.0), (1, 2, 1.0), (2, 1, 0.5)]:
        fam = make_bump_family(3, d, r, rho, None)
        for i in range(3):
            f = fam.member(i)
            assert f(fam.centers[i]) == pytest.approx(fam.height, abs=1e-15)
            assert f.known_max == pytest.approx(fam.height)
            off = np.clip(fam.centers[i] + 0.6 * fam.radius, 0, 1)
            assert f(off) < fam.height


def test_membership_trivial_cases():
    zero = HolderFunction(
        d=1, r=0, rho=1.0, deriv=lambda alpha, pts: np.zeros(pts.shape[0]), seminorm_bound=0.0
    )
    assert membership_check(zero, 500, np.random.default_rng(0)) == 0.0

    ident = HolderFunction(
        d=1, r=0, rho=1.0, deriv=lambda alpha, pts: pts[:, 0], seminorm_bound=1.0
    )
    q = membership_check(ident, 5000, np.random.default_rng(1))
    assert q == pytest.approx(1.0, abs=1e-9)
    assert q <= 1.0 + 1e-12


@pytest.mark.parametrize("d,r,rho", [(1, 0, 1.0), (1, 1, 0.5), (1, 2, 1.0), (2, 1, 1.0)])
def test_calibrated_members_stay_in_class(d, r, rho):
    fam = make_bump_family(4 if d == 1 else 9, d, r, rho, None)
    rng = np.random.default_rng(101)
    pairs = 100_000 if d == 1 else 30_000
    for i in range(2):
        f = fam.member(i)
        assert membership_check(f, pairs, rng) <= 1.0
        assert f.seminorm_bound <= 1.0
        assert f.sup_bound <= 1.0
