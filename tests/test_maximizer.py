"""Certified local maximization and the end-to-end quantum maximizer."""

import itertools
import math

import numpy as np
import pytest

from qfmax.functions import make_function
from qfmax.holder import (
    HolderFunction,
    TaylorModel,
    build_grid,
    coefficient_count,
    eval_taylor,
    multi_indices,
    remainder_bound_check,
    taylor_model,
)
from qfmax.maximizer import (
    MaximizerParams,
    _branch_bound_max,
    choose_n,
    default_h_conf,
    local_max_taylor,
    local_max_values,
    quantum_maximize,
)
from qfmax.qcore import QueryLedger
from qfmax.search import SearchParams


def random_model(rng, d, degree, scale=1.0):
    alphas = multi_indices(d, degree)
    coeffs = scale * rng.normal(size=len(alphas))
    center = rng.random(d)
    return TaylorModel(center=center, alphas=alphas, coeffs=coeffs)


def dense_grid_max(model, lo, hi, points_total=1_000_000):
    d = model.center.size
    per_axis = max(2, int(round(points_total ** (1.0 / d))))
    axes = [np.linspace(lo[k], hi[k], per_axis) for k in range(d)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    return float(eval_taylor(model, mesh).max())


# ---------------------------------------------------------------------------
# parameter plumbing


def test_default_h_conf_formula():
    assert default_h_conf(1, 0) == 1.0
    assert default_h_conf(1, 2) == pytest.approx(0.5)
    assert default_h_conf(2, 2) == pytest.approx(4 / 2)
    assert default_h_conf(3, 4) == pytest.approx(3**4 / 24)


def test_choose_n_examples():
    assert choose_n(0.5, 1, 1, 1.0, h_conf=1.0) == 2
    assert choose_n(2.0, 1, 1, 1.0, h_conf=1.0) == 1
    with pytest.raises(ValueError):
        choose_n(0.0, 1, 0, 1.0)


def test_choose_n_bound_and_homogeneity():
    for eps in (0.3, 0.05, 0.007):
        for (d, r, rho) in [(1, 0, 1.0), (2, 1, 0.5)]:
            h_conf = default_h_conf(d, r)
            n = choose_n(eps, d, r, rho)
            assert (h_conf + 1.0) * (1.0 / n) ** (r + rho) <= eps * (1 + 1e-9)
            # halving the bound target via eps -> eps/2^(r+rho) doubles n
            n2 = choose_n(eps / 2 ** (r + rho), d, r, rho)
            assert n2 in (2 * n - 1, 2 * n, 2 * n + 1)


def test_params_require_target():
    f = make_function("peak", 1, 0, 1.0)
    with pytest.raises(ValueError):
        quantum_maximize(f, MaximizerParams(), np.random.default_rng(0))


# ---------------------------------------------------------------------------
# certified local maxima


def test_local_max_constant_model():
    m = TaylorModel(center=np.array([0.5]), alphas=((0,),), coeffs=np.array([0.37]))
    assert local_max_taylor(m, np.array([0.4]), np.array([0.6]), 1e-6) == 0.37


def test_local_max_linear_vertex_formula():
    # per-axis extents on both sides: a dispatch that pairs a gradient
    # with another axis's extent gets these boxes wrong
    rng = np.random.default_rng(3)
    for d in (1, 2, 3):
        for _ in range(20):
            model = random_model(rng, d, 1)
            below, above = rng.uniform(0.01, 0.2, size=(2, d))
            lo, hi = model.center - below, model.center + above
            got = local_max_taylor(model, lo, hi, 1e-9)
            want = model.coeff((0,) * d)
            for k in range(d):
                g = model.coeff(tuple(np.eye(d, dtype=int)[k]))
                want += max(-g * below[k], g * above[k])
            assert got == pytest.approx(want, abs=1e-12)


def test_local_max_interior_parabola():
    # w(t) = 1 - (t - c)^2 around an interior stationary point
    c = 0.52
    model = TaylorModel(
        center=np.array([0.5]),
        alphas=((0,), (1,), (2,)),
        coeffs=np.array([1 - (0.5 - c) ** 2, -2 * (0.5 - c), -1.0]),
    )
    eps1 = 1e-8
    got = local_max_taylor(model, np.array([0.4]), np.array([0.6]), eps1)
    assert got == pytest.approx(1.0, abs=eps1)


@pytest.mark.parametrize("d,degree", [(1, 2), (2, 2), (1, 3), (2, 3), (3, 2), (3, 3)])
def test_local_max_vs_dense_grid(d, degree):
    rng = np.random.default_rng(100 + 10 * d + degree)
    eps1 = 0.02
    for _ in range(12):
        model = random_model(rng, d, degree)
        half = rng.uniform(0.02, 0.08)
        lo, hi = model.center - half, model.center + half
        got = local_max_taylor(model, lo, hi, eps1)
        ref = dense_grid_max(model, lo, hi, 200_000)
        assert got >= ref - eps1
        assert got <= ref + eps1 + 1e-9


def test_quadratic_closed_form_agrees_with_branch_and_bound():
    rng = np.random.default_rng(9)
    for d in (1, 2):
        for _ in range(40):
            model = random_model(rng, d, 2)
            half = rng.uniform(0.02, 0.1)
            lo, hi = model.center - half, model.center + half
            exact = local_max_taylor(model, lo, hi, 1e-10)
            bb = _branch_bound_max(model, lo, hi, 1e-7)
            assert exact == pytest.approx(bb, abs=2e-7)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_local_max_values_batch_matches_scalar_route(d, r):
    f = make_function("cosprod", d, r, 1.0, rng=np.random.default_rng(4))
    grid = build_grid(5, d)
    eps1 = grid.h ** (r + 1)
    led = QueryLedger()
    batch = local_max_values(f, grid, eps1, led)
    for i in range(grid.N):
        model = taylor_model(f, grid.center(i))
        lo, hi = grid.cube_bounds(i)
        assert batch[i] == pytest.approx(local_max_taylor(model, lo, hi, eps1), abs=1e-12)


@pytest.mark.parametrize("r,eps1", [(3, 0.0), (0, -1.0), (1, float("nan"))])
def test_non_positive_eps1_is_refused_up_front(r, eps1):
    f = make_function("cosprod", 1, r, 1.0)
    params = MaximizerParams(n_override=4, eps1=eps1)
    with pytest.raises(ValueError, match="eps1"):
        quantum_maximize(f, params, np.random.default_rng(0))
    with pytest.raises(ValueError, match="eps1"):
        local_max_values(f, build_grid(4, 1), eps1)


def test_local_max_uses_no_function_evaluations():
    f = make_function("peak", 2, 2, 1.0, rng=np.random.default_rng(5))
    grid = build_grid(4, 2)
    models = [taylor_model(f, grid.center(i), None) for i in range(grid.N)]
    led = QueryLedger()
    before = led.evaluations
    for i, model in enumerate(models):
        lo, hi = grid.cube_bounds(i)
        local_max_taylor(model, lo, hi, 1e-4)
    assert led.evaluations == before == 0


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
        table = local_max_values(f, grid, eps1, QueryLedger())
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
    assert res.ledger.evaluations <= n**d * coefficient_count(d, r)
    assert res.ledger.evaluations % coefficient_count(d, r) == 0
    assert res.ledger.classical_queries >= 1


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
