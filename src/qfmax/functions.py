"""Registry of test functions with known maxima, addressable by name.

Each factory returns a HolderFunction for the requested (d, r, rho) with
exact derivative evaluators, a declared seminorm bound, and the exact
maximum recorded in known_max.  Passing a generator randomizes the free
instance parameters (the centre c, and peak's height); without one the
factories return a fixed canonical instance.

Families
--------
cosprod     a * prod_k cos(2pi (t_k - c_k)), amplitude calibrated to keep
            the order-r derivatives rho-Holder with constant < 1.
peak        M0 - b * ||t - c||_2^(r+rho), the critical-smoothness peak:
            it lies in C^r, its order-r derivatives are exactly rho-Holder
            and no smoother, so model errors genuinely scale like
            (1/n)^(r+rho).  Supported for r <= 2.
bumpfamily  reduction.embed_bits of one set bit: a single centered compactly
            supported bump at the largest class-conforming height.

Every function's name is its registry key.
"""

from __future__ import annotations

import math
from dataclasses import replace
from functools import lru_cache

import numpy as np

from .holder import HolderFunction, _as_points, _check_class, make_bump_family, multi_indices
from .reduction import embed_bits

__all__ = ["available_functions", "make_function", "peak_class_scale"]

_TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# cosprod


def _make_cosprod(d: int, r: int, rho: float, rng) -> HolderFunction:
    if rng is not None:
        c = rng.uniform(0.25, 0.75, size=d)
    else:
        c = np.full(d, 0.5)
    if r > 386:  # (2 pi)^387 passes the largest double
        raise ValueError(f"cosprod needs r <= 386, got r={r}: (2 pi)^r overflows")
    amp = 0.95 / (d * _TWO_PI**r * 2.0 * math.pi**rho)
    if not amp > 0.0:  # the divisor can overflow where (2 pi)^r alone does not
        raise ValueError(f"cosprod amplitude underflows to 0 at d={d}, r={r}, rho={rho:g}")

    def deriv(alpha, pts):
        pts = _as_points(pts, d)
        out = np.full(pts.shape[0], amp)
        for k, a in enumerate(alpha):
            out = out * _TWO_PI**a * np.cos(_TWO_PI * (pts[:, k] - c[k]) + a * math.pi / 2.0)
        return out

    return HolderFunction(
        d=d,
        r=r,
        rho=rho,
        deriv=deriv,
        seminorm_bound=0.95,
        sup_bound=amp,
        known_max=amp,
    )


# ---------------------------------------------------------------------------
# peak: M0 - b ||t - c||^(r+rho)


@lru_cache(maxsize=None)
def peak_class_scale(d: int, r: int, rho_key: float) -> float:
    """Holder seminorm of the order-r derivatives of ||u||_2^(r+rho).

    d = 1 is exact; higher d is estimated by sampling the (scale-invariant)
    quotient over structured point pairs and inflating by 30 percent.
    """
    rho = float(rho_key)
    p = r + rho
    if d == 1:
        coef = 1.0
        for i in range(r):
            coef *= p - i
        if r % 2:
            coef *= 2.0 ** (1.0 - rho)
        return coef
    rng = np.random.default_rng(795318246)
    m_samples = 40000
    x = rng.uniform(-1.0, 1.0, size=(m_samples, d))
    mode = rng.integers(0, 2, size=m_samples).astype(bool)
    delta = rng.uniform(-1.0, 1.0, size=(m_samples, d))
    scales = 10.0 ** rng.uniform(-4.0, 0.4, size=(m_samples, 1))
    y = np.where(mode[:, None], x + scales * delta, rng.uniform(-1.0, 1.0, size=(m_samples, d)))
    dist = np.abs(x - y).max(axis=1)
    keep = dist > 1e-12
    x, y, dist = x[keep], y[keep], dist[keep]
    worst = 0.0
    for alpha in multi_indices(d, r):
        if sum(alpha) != r:
            continue
        dv = np.abs(_radial_partial(x, alpha, p) - _radial_partial(y, alpha, p))
        worst = max(worst, float((dv / dist**rho).max()))
    return 1.3 * worst


def _radial_partial(u: np.ndarray, alpha: tuple[int, ...], p: float) -> np.ndarray:
    """D^alpha of ||u||_2^p for |alpha| <= 2 < p, with value 0 at u = 0."""
    s = (u * u).sum(axis=1)
    pos = s > 0.0
    s_safe = np.where(pos, s, 1.0)
    q = 0.5 * p
    order = sum(alpha)
    if order == 0:
        out = s_safe**q
    elif order == 1:
        k = alpha.index(1)
        out = 2.0 * q * u[:, k] * s_safe ** (q - 1.0)
    elif order == 2:
        if 2 in alpha:
            k = alpha.index(2)
            out = 2.0 * q * s_safe ** (q - 1.0) + 4.0 * q * (q - 1.0) * u[:, k] ** 2 * s_safe ** (
                q - 2.0
            )
        else:
            k = alpha.index(1)
            l = alpha.index(1, k + 1)
            out = 4.0 * q * (q - 1.0) * u[:, k] * u[:, l] * s_safe ** (q - 2.0)
    else:
        raise ValueError("radial peak derivatives are implemented for order <= 2")
    return np.where(pos, out, 0.0)


def _make_peak(d: int, r: int, rho: float, rng) -> HolderFunction:
    if r > 2:
        raise ValueError("peak supports r <= 2")
    p = r + rho
    if rng is not None:
        c = rng.uniform(0.25, 0.75, size=d)
        m0 = float(rng.uniform(0.3, 0.7))
    else:
        c = np.full(d, 0.5)
        m0 = 0.5
    scale = peak_class_scale(d, r, float(rho))
    if not scale > 0.0:
        raise ValueError(f"rho {rho} is too small: the peak's class scale rounds to {scale}")
    b_class = 0.9 / scale
    b_sup = 1.3 / (0.75 * math.sqrt(d)) ** p
    b = min(b_class, b_sup)

    def deriv(alpha, pts):
        pts = _as_points(pts, d)
        u = pts - c
        vals = -b * _radial_partial(u, tuple(alpha), p)
        if sum(alpha) == 0:
            vals = vals + m0
        return vals

    return HolderFunction(
        d=d,
        r=r,
        rho=rho,
        deriv=deriv,
        seminorm_bound=b * scale,
        sup_bound=1.0,
        known_max=m0,
    )


# ---------------------------------------------------------------------------
# bumpfamily


def _make_bumpfamily(d: int, r: int, rho: float, rng) -> HolderFunction:
    return embed_bits([1], make_bump_family(1, d, r, rho, height=None))


_REGISTRY = {
    "cosprod": _make_cosprod,
    "peak": _make_peak,
    "bumpfamily": _make_bumpfamily,
}


def available_functions() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def make_function(
    name: str,
    d: int = 1,
    r: int = 0,
    rho: float = 1.0,
    rng: np.random.Generator | None = None,
) -> HolderFunction:
    """Instantiate a registered test function for the given class, named by its key."""
    _check_class(d, r, rho)
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown function {name!r}; known: {', '.join(available_functions())}")
    return replace(factory(d, r, rho, rng), name=name)
