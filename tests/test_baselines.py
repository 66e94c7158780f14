"""Classical competitors: exhaustive grid scan and random center sampling."""

import numpy as np
import pytest

from qfmax.baselines import grid_maximize, random_maximize
from qfmax.functions import make_function
from qfmax.holder import HolderFunction, build_grid
from qfmax.maximizer import default_h_conf


def constant(c, d=1):
    return HolderFunction(
        d=d, r=0, rho=1.0,
        deriv=lambda alpha, pts: np.full(pts.shape[0], c),
        seminorm_bound=0.0, sup_bound=abs(c), known_max=c,
    )


def test_grid_constant_costs_n_queries():
    res = grid_maximize(constant(0.42, d=2), 5)
    assert res.value == pytest.approx(0.42, abs=1e-12)
    assert res.ledger.classical_queries == 25
    assert res.success


def test_grid_lipschitz_error_bound():
    # f(t) = 1 - |t - 0.3| has a kink at the max; the scan must land
    # within (H_conf + 1) / n of the true value 1
    def deriv(alpha, pts):
        return 1.0 - np.abs(pts[:, 0] - 0.3)

    f = HolderFunction(d=1, r=0, rho=1.0, deriv=deriv, seminorm_bound=1.0, known_max=1.0)
    res = grid_maximize(f, 100)
    assert res.value >= 1.0 - 2.0 / 100
    assert res.value <= 1.0 + 2.0 / 100


def test_grid_deterministic():
    f = make_function("peak", 2, 1, 1.0, rng=np.random.default_rng(3))
    a = grid_maximize(f, 7)
    b = grid_maximize(f, 7)
    assert a.value == b.value
    np.testing.assert_array_equal(a.witness, b.witness)


@pytest.mark.parametrize("d,r,rho,n", [(1, 0, 1.0, 128), (1, 2, 1.0, 16), (2, 1, 1.0, 12)])
def test_grid_meets_class_error_bound(d, r, rho, n):
    bound = (default_h_conf(d, r) + 1.0) * (1.0 / n) ** (r + rho)
    for t in range(20):
        f = make_function("peak", d, r, rho, rng=np.random.default_rng(700 + t))
        res = grid_maximize(f, n)
        assert abs(res.value - f.known_max) <= bound


def test_random_budget_one_on_constant():
    res = random_maximize(constant(0.9), 8, 1, np.random.default_rng(0))
    assert res.value == pytest.approx(0.9, abs=1e-12)
    assert res.ledger.classical_queries == 1


def test_random_full_budget_matches_grid():
    # drawing every center (without replacement) runs the scan on the same cells
    for t in range(50):
        rng = np.random.default_rng(40 + t)
        f = make_function("peak", 2, 1, 1.0, rng=rng)
        n = 4
        full = grid_maximize(f, n)
        sampled = random_maximize(f, n, n**2, rng)
        assert sampled.value == full.value
        np.testing.assert_array_equal(sampled.witness, full.witness)
        assert sampled.ledger == full.ledger
        assert sampled.ledger.classical_queries == n**2


def test_witness_owns_its_data():
    # a view would keep every scanned center alive as long as the result
    f = make_function("peak", 2, 1, 1.0, rng=np.random.default_rng(5))
    for res in (grid_maximize(f, 20), random_maximize(f, 20, 300, np.random.default_rng(6))):
        assert res.witness.base is None
        assert res.witness.shape == (2,)


def test_random_budget_caps_at_grid_size():
    f = make_function("peak", 1, 0, 1.0, rng=np.random.default_rng(1))
    res = random_maximize(f, 10, 500, np.random.default_rng(2))
    assert res.ledger.classical_queries == 10


def test_random_never_beats_grid_at_equal_resolution():
    # at the same n, the scan sees a superset of what sampling sees
    wins = 0
    for t in range(100):
        rng = np.random.default_rng(90 + t)
        f = make_function("peak", 1, 1, 1.0, rng=rng)
        g = grid_maximize(f, 32)
        s = random_maximize(f, 32, 8, rng)
        assert s.value <= g.value + 1e-12
        wins += int(abs(s.value - f.known_max) <= abs(g.value - f.known_max))
    assert wins < 100


def test_random_error_shrinks_with_budget():
    errs = {}
    for budget in (4, 64):
        tot = 0.0
        for t in range(150):
            rng = np.random.default_rng(4200 + t)
            f = make_function("peak", 1, 0, 1.0, rng=rng)
            res = random_maximize(f, 64, budget, rng)
            tot += abs(res.value - f.known_max)
        errs[budget] = tot / 150
    assert errs[64] < errs[4]
