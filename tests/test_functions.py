"""Registered test families: analytic derivatives, known maxima, membership."""

import math

import numpy as np
import pytest

from qfmax.functions import available_functions, make_function, peak_class_scale
from qfmax.holder import make_bump_family, membership_check, multi_indices

AMP_SIN = 1 / (2 * math.pi)


def finite_difference(f, alpha, pts, h=1e-6):
    """Central difference of the derivative one order below alpha."""
    k = int(np.argmax(np.asarray(alpha) > 0))
    lower = tuple(a - (1 if i == k else 0) for i, a in enumerate(alpha))
    up = pts.copy()
    dn = pts.copy()
    up[:, k] += h
    dn[:, k] -= h
    return (f.deriv(lower, up) - f.deriv(lower, dn)) / (2 * h)


def test_registry_names():
    assert available_functions() == ("bumpfamily", "cosprod", "peak", "sin1d")


def test_unknown_name_raises_with_catalog():
    with pytest.raises(ValueError, match="peak"):
        make_function("nope", 1, 0, 1.0)


def test_sin1d_shape_and_max():
    f = make_function("sin1d", 1, 1, 1.0)
    assert f.known_max == pytest.approx(AMP_SIN)
    t = np.linspace(0, 1, 2001)[:, None]
    vals = f(t)
    assert vals.max() == pytest.approx(AMP_SIN, abs=1e-7)
    assert f.sup_bound <= 1.0
    assert make_function("sin1d", 1, 1, 1.0, rng=None)(np.array([[0.25]]))[0] == pytest.approx(
        AMP_SIN, abs=1e-12
    )


def test_sin1d_rejects_higher_dimension():
    with pytest.raises(ValueError):
        make_function("sin1d", 2, 1, 1.0)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_sin1d_derivatives_match_finite_differences(r):
    f = make_function("sin1d", 1, r, 1.0, rng=np.random.default_rng(5))
    pts = np.linspace(0.05, 0.95, 37)[:, None]
    for order in range(1, r + 1):
        fd = finite_difference(f, (order,), pts)
        np.testing.assert_allclose(f.deriv((order,), pts), fd, atol=1e-5, rtol=1e-4)


def test_sin1d_declared_seminorm_is_honest():
    for r, rho in [(0, 1.0), (1, 0.5), (2, 1.0)]:
        f = make_function("sin1d", 1, r, rho, rng=np.random.default_rng(3))
        q = membership_check(f, 40_000, np.random.default_rng(8))
        assert q <= f.seminorm_bound * (1 + 1e-9)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_cosprod_max_at_center(d):
    rng = np.random.default_rng(21)
    f = make_function("cosprod", d, 1, 1.0, rng=rng)
    t = np.linspace(0.05, 0.95, 9)
    mesh = np.stack(np.meshgrid(*([t] * d), indexing="ij"), axis=-1).reshape(-1, d)
    assert f(mesh).max() <= f.known_max + 1e-12
    assert f.known_max > 0.0


def test_cosprod_is_class_member():
    for d, r, rho in [(1, 0, 1.0), (2, 1, 1.0), (2, 2, 0.5)]:
        f = make_function("cosprod", d, r, rho, rng=np.random.default_rng(9))
        assert f.seminorm_bound <= 1.0
        q = membership_check(f, 30_000, np.random.default_rng(10))
        assert q <= 1.0


def test_cosprod_derivatives_match_finite_differences():
    f = make_function("cosprod", 2, 2, 1.0, rng=np.random.default_rng(2))
    pts = np.random.default_rng(3).random((50, 2))
    for alpha in [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]:
        fd = finite_difference(f, alpha, pts)
        np.testing.assert_allclose(f.deriv(alpha, pts), fd, atol=1e-5, rtol=1e-4)


@pytest.mark.parametrize("d,r,rho", [(1, 0, 1.0), (1, 1, 0.5), (1, 2, 1.0), (2, 1, 1.0)])
def test_peak_known_max_attained(d, r, rho):
    rng = np.random.default_rng(33)
    f = make_function("peak", d, r, rho, rng=rng)
    # the maximum sits at an interior point; verify by dense sampling
    pts = rng.random((200_000, d)) * 0.5 + 0.25
    vals = f(pts)
    assert vals.max() <= f.known_max + 1e-12
    assert vals.max() >= f.known_max - 1e-3


@pytest.mark.parametrize("d,r,rho", [(1, 0, 1.0), (1, 1, 0.5), (1, 1, 1.0), (1, 2, 1.0), (2, 1, 1.0), (2, 2, 1.0)])
def test_peak_is_class_member(d, r, rho):
    f = make_function("peak", d, r, rho, rng=np.random.default_rng(44))
    assert f.seminorm_bound <= 0.9 + 1e-12
    assert f.sup_bound <= 1.0
    q = membership_check(f, 50_000, np.random.default_rng(45))
    assert q <= 1.0


@pytest.mark.parametrize("name", ["sin1d", "cosprod"])
def test_two_pi_scaled_families_stop_where_the_power_overflows(name):
    # both scale by (2 pi)^r, the largest double lies between orders 386 and 387;
    # cosprod's amplitude divides by a further 2 pi d, so it stops one order earlier
    f = make_function(name, 1, 386 if name == "sin1d" else 385, 1.0)
    assert math.isfinite(f.seminorm_bound) and 0.0 < f.sup_bound < math.inf
    with pytest.raises(ValueError, match="r <= 386"):
        make_function(name, 1, 387, 1.0)


@pytest.mark.parametrize("d,r", [(1, 386), (2, 385), (64, 383)])
def test_cosprod_refuses_an_amplitude_that_underflows(d, r):
    # the amplitude 0.95 / (d (2 pi)^r 2 pi^rho) reads 0.0 here, which would pass
    # the zero function off as a cosprod instance with known maximum 0
    with pytest.raises(ValueError, match="amplitude underflows"):
        make_function("cosprod", d, r, 1.0)
    assert make_function("cosprod", 1, 300, 1.0).sup_bound > 0.0


def test_peak_rejects_r_above_two():
    with pytest.raises(ValueError):
        make_function("peak", 1, 3, 1.0)


def test_peak_derivatives_match_finite_differences():
    for d, r in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        f = make_function("peak", d, r, 1.0, rng=np.random.default_rng(7))
        pts = np.random.default_rng(8).random((60, d)) * 0.8 + 0.1
        for alpha in [a for a in __import__("itertools").product(range(3), repeat=d) if 0 < sum(a) <= r]:
            fd = finite_difference(f, alpha, pts, h=1e-5)
            np.testing.assert_allclose(f.deriv(alpha, pts), fd, atol=2e-4, rtol=1e-3)


def test_peak_scale_caches_and_positive():
    a = peak_class_scale(2, 1, 1.0)
    b = peak_class_scale(2, 1, 1.0)
    assert a == b > 0.0


def test_bumpfamily_single_bump():
    f = make_function("bumpfamily", 1, 1, 1.0)
    assert f.known_max > 0.0
    assert f(np.array([[0.5]]))[0] == pytest.approx(f.known_max, abs=1e-15)
    assert membership_check(f, 20_000, np.random.default_rng(6)) <= 1.0


@pytest.mark.parametrize("d,r", [(1, 0), (1, 2), (2, 1), (3, 2)])
def test_bumpfamily_is_its_family_bump_bit_for_bit(d, r):
    f = make_function("bumpfamily", d, r, 1.0)
    fam = make_bump_family(1, d, r, 1.0, None)
    center, radius, axis = fam.centers[0], fam.radius, np.eye(d)[0]
    inside = [center, center + 0.5 * radius * axis, center + 0.3 * radius]
    on = [center + radius * axis, center - radius * axis]
    outside = [np.zeros(d), np.ones(d), center + 1.01 * radius * axis]
    pts = np.array(inside + on + outside)
    for alpha in multi_indices(d, r):
        want = fam.member_derivative(0, alpha, pts)
        assert f.partial(alpha, pts).tobytes() == want.tobytes()
        assert (want[-len(outside):] == 0.0).all()
    assert f.seminorm_bound == fam.height / (fam.kappa * fam.radius ** (r + 1.0))
    assert f.sup_bound == f.known_max == fam.height


@pytest.mark.parametrize("name", available_functions())
def test_every_function_is_named_by_its_registry_key(name):
    assert make_function(name, 1, 0, 1.0).name == name


def test_instances_reproducible_under_seed():
    pts = np.random.default_rng(1).random((20, 2))
    for name in ("cosprod", "peak"):
        f1 = make_function(name, 2, 1, 1.0, rng=np.random.default_rng(123))
        f2 = make_function(name, 2, 1, 1.0, rng=np.random.default_rng(123))
        f3 = make_function(name, 2, 1, 1.0, rng=np.random.default_rng(124))
        np.testing.assert_array_equal(f1(pts), f2(pts))
        assert not np.array_equal(f1(pts), f3(pts))
