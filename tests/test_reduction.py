"""OR-of-bits through the maximizer: embedding, decision rule, scaling."""

import math

import numpy as np
import pytest

from qfmax import reduction
from qfmax.bench import fit_loglog_slope, trial_rng
from qfmax.cli import main
from qfmax.holder import Grid, make_bump_family, membership_check
from qfmax.search import SearchParams
from qfmax.reduction import decision_rule, embed_bits, or_trial


def brute_force_sum(bits, family, pts):
    total = np.zeros(pts.shape[0])
    zero = (0,) * family.d
    for i, b in enumerate(bits):
        if b:
            total += family.member_derivative(i, zero, pts)
    return total


def test_embed_validation():
    fam = make_bump_family(4, 1, 0, 1.0, None)
    with pytest.raises(ValueError):
        embed_bits([1, 0, 1], fam)
    with pytest.raises(ValueError):
        embed_bits([1, 0, 2, 0], fam)


def test_fractional_or_non_binary_bits_are_refused_before_any_cast():
    fam = make_bump_family(4, 1, 0, 1.0, None)
    bad = ([0.7, 0.2, 0.9, 0.4], [1, 0, 0.9, 0], [1, 0, math.nan, 0], [1, 0, 2, 0], [1, -1, 0, 0])
    for bits in bad:
        with pytest.raises(ValueError, match="bits must contain only 0 and 1"):
            embed_bits(bits, fam)
        with pytest.raises(ValueError, match="bits must contain only 0 and 1"):
            or_trial(bits, None, None, trial_rng(5, 0))
    with pytest.raises(ValueError, match="bits must contain only 0 and 1"):
        or_trial(np.full(8, 0.9), None, None, trial_rng(5, 1))
    flags = np.array([False, True, False, True])
    f = embed_bits(flags, fam)
    assert f.known_max == fam.height
    np.testing.assert_array_equal(f(fam.centers), fam.height * flags)
    assert or_trial(flags, None, None, trial_rng(5, 2))[1].ledger.quantum_queries > 0


@pytest.mark.parametrize(
    "d,r,rho",
    [(1, 0, 1.0), (2, 0, 1.0), (3, 0, 1.0), (2, 1, 1.0), (3, 1, 1.0), (3, 2, 1.0),
     (1, 2, 0.5), (1, 4, 1.0)],
)
def test_embedded_alternating_bits_are_a_class_member(d, r, rho):
    # neighbouring bumps alternate on and off, so pairs split across two
    # supports and pairs across an empty cell are both sampled
    n_bits = 3**d
    fam = make_bump_family(n_bits, d, r, rho, None)
    f = embed_bits(np.arange(n_bits) % 2, fam)
    q = membership_check(f, 20_000, np.random.default_rng(d * 100 + r * 10 + int(2 * rho)))
    assert 0.0 < q <= f.seminorm_bound <= 1.0
    assert f.sup_bound <= 1.0


def test_embed_all_zeros_is_zero_function():
    fam = make_bump_family(8, 1, 0, 1.0, None)
    f = embed_bits(np.zeros(8, dtype=int), fam)
    assert f.known_max == 0.0
    t = np.random.default_rng(0).random((500, 1))
    assert np.abs(f(t)).max() == 0.0


def test_embed_single_bit_peaks_at_its_center():
    fam = make_bump_family(9, 2, 1, 1.0, None)
    bits = np.zeros(9, dtype=int)
    bits[4] = 1
    f = embed_bits(bits, fam)
    assert f.known_max == pytest.approx(fam.height)
    assert f(fam.centers[4]) == pytest.approx(fam.height, abs=1e-15)
    assert f(fam.centers[3]) == 0.0


def test_embed_matches_brute_force_sum():
    rng = np.random.default_rng(12)
    for (d, r, n_bits) in [(1, 0, 16), (1, 2, 7), (2, 1, 9)]:
        fam = make_bump_family(n_bits, d, r, 1.0, None)
        bits = rng.integers(0, 2, size=n_bits)
        f = embed_bits(bits, fam)
        pts = rng.random((10_000, d))
        np.testing.assert_allclose(f(pts), brute_force_sum(bits, fam, pts), atol=1e-12)


def test_embed_first_derivatives_match_brute_force():
    rng = np.random.default_rng(13)
    fam = make_bump_family(5, 1, 1, 1.0, None)
    bits = np.array([1, 0, 1, 1, 0])
    f = embed_bits(bits, fam)
    pts = rng.random((4000, 1))
    manual = np.zeros(4000)
    for i, b in enumerate(bits):
        if b:
            manual += fam.member_derivative(i, (1,), pts)
    np.testing.assert_allclose(f.deriv((1,), pts), manual, atol=1e-12)


def test_embedded_sum_respects_declared_seminorm():
    fam = make_bump_family(8, 1, 0, 0.5, None)
    f = embed_bits(np.ones(8, dtype=int), fam)
    q = membership_check(f, 40_000, np.random.default_rng(3))
    assert q <= f.seminorm_bound * (1 + 1e-9)


def test_decision_rule_literal_branches():
    eps1 = 0.2
    grid = np.arange(-eps1, 2 * eps1, 1e-3 * eps1)
    for v in grid:
        want = 1 if 0.75 * eps1 <= v <= 1.25 * eps1 else 0
        assert decision_rule(float(v), eps1) == want
    assert decision_rule(0.5 * eps1, eps1) == 0
    assert decision_rule(10.0, eps1) == 0
    for bad in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="epsilon1"):
            decision_rule(0.1, bad)


def test_or_trial_patterns_small():
    trials = 60
    n = 16
    for pattern in ("zeros", "one", "random"):
        hits = 0
        for t in range(trials):
            rng = trial_rng(55, hash(pattern) & 0xFFFF, t)
            if pattern == "zeros":
                bits = np.zeros(n, dtype=int)
            elif pattern == "one":
                bits = np.zeros(n, dtype=int)
                bits[rng.integers(0, n)] = 1
            else:
                bits = rng.integers(0, 2, size=n)
            got, res, eps1 = or_trial(bits, None, None, rng)
            assert res.ledger.quantum_queries > 0
            hits += int(got == int(bits.max()))
        assert hits / trials >= 0.75 - 3 * math.sqrt(0.75 * 0.25 / trials)


def test_or_explicit_height_and_params():
    fam = make_bump_family(8, 1, 0, 1.0, None)
    height = 0.5 * min(1.0, fam.kappa * fam.radius ** (fam.r + fam.rho))
    rng = trial_rng(77, 0)
    bits = np.array([0, 0, 0, 1, 0, 0, 0, 0])
    bit = or_trial(bits, height, SearchParams(), rng)[0]
    assert bit == 1


def test_or_query_scaling_sqrt_bits():
    # all-zero inputs always exhaust the budget, making the query count a
    # deterministic function of the bit count
    params = SearchParams()
    pts = []
    for n in (16, 64, 256, 1024):
        rng = trial_rng(88, n)
        _, res, _ = or_trial(np.zeros(n, dtype=int), None, params, rng)
        pts.append((n, res.ledger.quantum_queries))
    slope = fit_loglog_slope(pts)[0]
    assert 0.4 <= slope <= 0.6


def test_an_oversized_or_grid_is_refused_before_the_bumps_are_built(monkeypatch, capsys):
    # 2^24 bits need a maximizer grid far past the cap; the refusal is
    # decided from the bit count and the bump height alone, so neither the
    # bump centers nor the embedding of the bits is ever built
    def never(*args, **kwargs):
        raise AssertionError("built before the grid cap was checked")

    monkeypatch.setattr(Grid, "centers", never)
    monkeypatch.setattr(reduction, "embed_bits", never)
    argv = ["or-reduction", "--n", str(2**24), "--trials", "1", "--patterns", "zeros"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("qfmax: error: epsilon ")
    assert err.endswith(" at r + rho = 1 needs a grid beyond the cap of 16777216 cubes\n")
