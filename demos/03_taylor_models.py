"""
Local Taylor models on a cube grid, with certified remainders
=============================================================

Split [0,1]^d into n^d cubes, expand the function to order r at each
center, and the smoothness class guarantees the model is accurate to
(H/r!) d^r h^(r+rho) on its own cube. This demo builds the pieces one at
a time: the grid, one model, its measured remainder, and the certified
maximum of the model over its cube.
"""

import numpy as np

from qfmax import (
    build_grid,
    coefficient_count,
    eval_taylor,
    local_max_at,
    make_function,
    remainder_bound_check,
    taylor_tableau,
)

f = make_function("cosprod", d=2, r=2, rho=1.0)
print(f"function {f.name!r} on [0,1]^{f.d}, smoothness r={f.r}, rho={f.rho}")

# -- the grid -----------------------------------------------------------------
n = 8
grid = build_grid(n, f.d)
print(f"grid: {grid.n}^{grid.d} cubes of side {1 / grid.n}")

# -- one local model ----------------------------------------------------------
# a model is one row of the tableau: coefficients ordered like alphas, taken
# around the cell center and evaluated at offsets from it
cell = 3 * n + 4  # flat C-order index of cell (3, 4)
center = grid.center(cell)
alphas, coeffs = taylor_tableau(f, center[None, :])
print(f"model at center {center}: {coeffs.shape[1]} coefficients "
      f"(formula gives {coefficient_count(f.d, f.r)})")

half = 0.5 / n
lo, hi = center - half, center + half
pts = np.random.default_rng(0).uniform(lo, hi, size=(2000, f.d))
gap = np.abs(f(pts) - eval_taylor(alphas, coeffs[0], pts - center)).max()
bound = (f.d**f.r / 2.0) * half ** (f.r + f.rho)  # H_conf = d^r / r!
print(f"worst model error on the cube: {gap:.2e} (certified bound {bound:.2e})")

# -- remainder audit over the whole grid ---------------------------------------
# remainder_bound_check rescales every sampled error by the certified bound;
# the worst ratio must stay at or below the declared constant.
ratio = remainder_bound_check(f, grid, samples=64)
print(f"worst remainder/bound ratio over {n**f.d} cubes: {ratio:.3f}")

# -- certified maximum of one model --------------------------------------------
# local_max_at maximizes each cell's model over its cube within (1/n)^(r+rho)
m_tilde = local_max_at(f, grid, center[None, :])[0]
dense = np.stack(np.meshgrid(np.linspace(lo[0], hi[0], 400),
                             np.linspace(lo[1], hi[1], 400),
                             indexing="ij"), axis=-1).reshape(-1, 2)
print(f"local max of the model: {m_tilde:.8f} "
      f"(dense grid check {eval_taylor(alphas, coeffs[0], dense - center).max():.8f}, "
      f"tolerance (1/n)^(r+rho) = {grid.h ** (f.r + f.rho):.3g})")
