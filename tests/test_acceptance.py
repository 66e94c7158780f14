"""Acceptance gate for the shipped guarantees.

Each test checks one numbered claim end to end and prints a single
``[acceptance] criterion k: PASS|FAIL (...)`` line on the real stdout so the
verdicts survive pytest's capture. Statistical floors use 3-sigma binomial
margins derived from the trial counts, never ad-hoc fudge factors.
"""

import itertools
import math
import time

import numpy as np

from qfmax.baselines import grid_maximize
from qfmax.bench import (
    ExperimentSpec,
    binomial_margin,
    estimate_error_quantile,
    fit_loglog_slope,
    run_experiment,
    trial_rng,
)
from qfmax.functions import make_function
from qfmax.holder import (
    bump_profile,
    coefficient_count,
    eval_taylor,
    make_bump_family,
    multi_indices,
)
from qfmax.maximizer import MaximizerParams, _box_max, choose_n, quantum_maximize
from qfmax.qcore import (
    MarkPredicate,
    StateVector,
    grover_iteration,
    grover_success_probability,
    uniform_state,
)
from qfmax.reduction import embed_bits, or_trial
from qfmax.search import SearchParams, SequenceOracle, find_maximum


def _report(capsys, k, ok, detail):
    with capsys.disabled():
        print(f"[acceptance] criterion {k}: {'PASS' if ok else 'FAIL'} ({detail})")


# ---------------------------------------------------------------------------
# 1. simulated marked mass vs the closed form, full small-dimension sweep


def test_criterion_1_grover_closed_form(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(2, 65):
        for k in range(n + 1):
            mask = np.zeros(n, dtype=bool)
            mask[:k] = True
            pred = MarkPredicate(n, mask)
            state = uniform_state(n)
            for j in range(21):
                got = float(state.probabilities()[mask].sum())
                want = grover_success_probability(n, k, j)
                diff = abs(got - want)
                if diff > worst:
                    worst = diff
                if j < 20:
                    state = grover_iteration(state, pred)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 10.0
    _report(capsys, 1, ok,
            f"max |sim - closed form| = {worst:.2e} over N<=64, k<=N, j<=20 in {elapsed:.1f}s")
    assert worst <= 1e-10
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 2. discrete maximum search success floors at both boost settings


def test_criterion_2_discrete_max_success(capsys):
    t0 = time.perf_counter()
    trials = 2000
    cells = []
    ok = True
    for rounds, floor in ((1, 0.5), (2, 0.75)):
        margin = binomial_margin(floor, trials)
        params = SearchParams(boost_rounds=rounds)
        for n in (16, 64, 256, 1024):
            hits = 0
            for t in range(trials):
                rng = trial_rng(860214, rounds, n, t)
                vals = rng.permutation(n) / n
                res = find_maximum(SequenceOracle(vals), rng, params)
                hits += res.value == vals.max()
            rate = hits / trials
            cells.append((rounds, n, rate, floor - margin))
            ok = ok and rate >= floor - margin
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300.0
    slack = min(rate - bound for (_, _, rate, bound) in cells)
    _report(capsys, 2, ok,
            f"min success slack {slack:+.3f} over 8 (rounds, n) cells, "
            f"{trials} trials each, {elapsed:.0f}s")
    for rounds, n, rate, bound in cells:
        assert rate >= bound, f"boost_rounds={rounds} n={n}: {rate:.4f} < {bound:.4f}"
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# 3. sqrt-n quantum query growth of the discrete maximizer


def test_criterion_3_query_scaling(capsys):
    pts = []
    for e in range(4, 13):
        n = 2**e
        trials = 5
        total = 0
        for t in range(trials):
            rng = trial_rng(31337, e, t)
            vals = rng.permutation(n) / n
            total += find_maximum(SequenceOracle(vals), rng).ledger.quantum_queries
        pts.append((n, total / trials))
    slope, _, r2 = fit_loglog_slope(pts)
    ok = 0.45 <= slope <= 0.55
    _report(capsys, 3, ok,
            f"quantum query slope {slope:.3f} in [0.45, 0.55] over n=2^4..2^12, r2={r2:.4f}")
    assert 0.45 <= slope <= 0.55


# ---------------------------------------------------------------------------
# 4. error decay exponent -(r+rho) on randomized known-maximum instances


def test_criterion_4_error_decay_exponent(capsys):
    sizes = (4, 8, 16, 32, 64)
    trials = 48
    results = []
    ok = True
    for d in (1, 2):
        for r, rho in ((0, 1.0), (1, 0.5), (1, 1.0), (2, 1.0)):
            pts = []
            for p, n in enumerate(sizes):
                errs = []
                for t in range(trials):
                    inst = trial_rng(314159, d, r, int(round(10 * rho)), p, t, 0)
                    alg = trial_rng(314159, d, r, int(round(10 * rho)), p, t, 1)
                    f = make_function("peak", d, r, rho, rng=inst)
                    res = quantum_maximize(f, MaximizerParams(n_override=n), alg)
                    errs.append(abs(res.value - f.known_max))
                pts.append((n, estimate_error_quantile(np.array(errs))))
            slope = fit_loglog_slope(pts)[0]
            target = -(r + rho)
            results.append((d, r, rho, slope, target))
            ok = ok and abs(slope - target) <= 0.15
    worst = max(abs(s - t) for (_, _, _, s, t) in results)
    _report(capsys, 4, ok,
            f"max |slope + (r+rho)| = {worst:.3f} <= 0.15 over 8 (d, r, rho) combinations")
    for d, r, rho, slope, target in results:
        assert abs(slope - target) <= 0.15, \
            f"d={d} r={r} rho={rho}: slope {slope:.3f} vs {target:.2f}"


# ---------------------------------------------------------------------------
# 5. query cost vs accuracy: quantum exponent, classical exponent, their ratio


def test_criterion_5_accuracy_cost_exponents(capsys):
    eps_values = (0.2, 0.1, 0.05, 0.02, 0.01)
    summary = []
    ok = True
    for d in (1, 2):
        pts_q = []
        pts_c = []
        for p, eps in enumerate(eps_values):
            trials = 3
            qtotal = 0.0
            for t in range(trials):
                inst = trial_rng(271828, d, p, t, 0)
                alg = trial_rng(271828, d, p, t, 1)
                f = make_function("peak", d, 0, 1.0, rng=inst)
                res = quantum_maximize(f, MaximizerParams(epsilon=eps), alg)
                qtotal += res.ledger.quantum_queries
            f = make_function("peak", d, 0, 1.0, rng=trial_rng(271828, d, p, 99))
            gres = grid_maximize(f, choose_n(eps, d, 0, 1.0))
            pts_q.append((eps, qtotal / trials))
            pts_c.append((eps, gres.ledger.classical_queries))
        slope_q = fit_loglog_slope(pts_q)[0]
        slope_c = fit_loglog_slope(pts_c)[0]
        ratio = slope_c / slope_q
        ok_q = abs(slope_q - (-d / 2)) <= 0.1 * (d / 2)
        ok_c = abs(slope_c - (-d)) <= 0.1 * d
        ok_r = 1.8 <= ratio <= 2.2
        ok = ok and ok_q and ok_c and ok_r
        summary.append((d, slope_q, slope_c, ratio))
    detail = "; ".join(
        f"d={d}: quantum {sq:.3f} (target {-d / 2:+.2f}), classical {sc:.3f} "
        f"(target {-d:+.1f}), ratio {ra:.2f}" for (d, sq, sc, ra) in summary)
    _report(capsys, 5, ok, detail)
    for d, sq, sc, ra in summary:
        assert abs(sq - (-d / 2)) <= 0.1 * (d / 2), f"d={d} quantum slope {sq:.3f}"
        assert abs(sc - (-d)) <= 0.1 * d, f"d={d} classical slope {sc:.3f}"
        assert 1.8 <= ra <= 2.2, f"d={d} slope ratio {ra:.3f}"


# ---------------------------------------------------------------------------
# 6. Taylor coefficient count vs brute-force multi-index enumeration


def test_criterion_6_coefficient_count(capsys):
    def brute(d, r):
        return sum(1 for tup in itertools.product(range(r + 1), repeat=d)
                   if sum(tup) <= r)

    ok = True
    for d in range(1, 7):
        for r in range(0, 7):
            want = brute(d, r)
            ok = (ok
                  and coefficient_count(d, r) == want
                  and len(multi_indices(d, r)) == want
                  and want == math.comb(d + r, r))
    _report(capsys, 6, ok, "exact match with brute-force enumeration for all d, r <= 6")
    assert ok


# ---------------------------------------------------------------------------
# 7. OR of 64 bits through the continuous maximizer


def test_criterion_7_or_reduction(capsys):
    n_bits = 64
    trials = 1000
    floor = 0.75 - binomial_margin(0.75, trials)
    rates = {}
    t0 = time.perf_counter()
    for p, pattern in enumerate(("zeros", "one", "random")):
        hits = 0
        for t in range(trials):
            rng = trial_rng(640814, p, t)
            bits = np.zeros(n_bits, dtype=int)
            if pattern == "one":
                bits[rng.integers(n_bits)] = 1
            elif pattern == "random":
                bits = rng.integers(0, 2, size=n_bits)
            got, _, _ = or_trial(bits, None, None, rng)
            hits += got == int(bits.any())
        rates[pattern] = hits / trials
    elapsed = time.perf_counter() - t0
    ok = all(rate >= floor for rate in rates.values())
    detail = ", ".join(f"{p}: {rate:.3f}" for p, rate in rates.items())
    _report(capsys, 7, ok, f"correct rates {detail} all >= {floor:.3f}, {elapsed:.0f}s")
    for pattern, rate in rates.items():
        assert rate >= floor, f"{pattern}: {rate:.4f} < {floor:.4f}"


# ---------------------------------------------------------------------------
# 8. three independent oracles: reflection matrices, dense grids, raw bump sums


def test_criterion_8_oracle_equivalences(capsys):
    rng = np.random.default_rng(881)

    # (a) one Grover step vs the explicit reflection-matrix product
    worst_a = 0.0
    for n in range(2, 17):
        subsets = [np.zeros(n, dtype=bool), np.ones(n, dtype=bool)]
        for _ in range(4):
            k = int(rng.integers(0, n + 1))
            mask = np.zeros(n, dtype=bool)
            mask[rng.choice(n, size=k, replace=False)] = True
            subsets.append(mask)
        for marks in subsets:
            signs = np.where(marks, -1.0, 1.0)
            diffusion = (2.0 / n) * np.ones((n, n)) - np.eye(n)
            amps = rng.normal(size=n) + 1j * rng.normal(size=n)
            amps /= np.linalg.norm(amps)
            want = diffusion @ (signs * amps)
            got = grover_iteration(StateVector(amps), MarkPredicate(n, marks)).amps
            worst_a = max(worst_a, float(np.abs(got - want).max()))

    # (b) certified local maximum vs a dense evaluation grid, 100 random models
    eps1 = 0.02
    worst_b = 0.0
    for i in range(100):
        d = 1 + i % 3
        degree = 2 + (i // 3) % 2
        alphas = multi_indices(d, degree)
        center = rng.random(d)
        coeffs = rng.normal(size=len(alphas))
        width = rng.uniform(0.05, 0.5)
        lo = center - width / 2
        hi = center + width / 2
        per_axis = max(2, int(round(200_000 ** (1.0 / d))))
        axes = [np.linspace(lo[k], hi[k], per_axis) for k in range(d)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
        ref = float(eval_taylor(alphas, coeffs, mesh - center).max())
        got = float(_box_max(alphas, coeffs[None], center[None], width / 2, eps1)[0])
        worst_b = max(worst_b, abs(got - ref))

    # (c) embedded bit string vs a raw profile-product sum, 10^4 points
    worst_c = 0.0
    for n_bits, d, r, rho in ((16, 1, 0, 1.0), (7, 1, 2, 0.5), (9, 2, 1, 1.0)):
        fam = make_bump_family(n_bits, d, r, rho, None)
        bits = rng.integers(0, 2, size=n_bits)
        bits[0] = 1
        f = embed_bits(bits, fam)
        pts = rng.random((10_000, d))
        total = np.zeros(pts.shape[0])
        for i, b in enumerate(bits):
            if b:
                member = np.full(pts.shape[0], fam.height)
                for k in range(fam.d):
                    member *= bump_profile((pts[:, k] - fam.centers[i, k]) / fam.radius, fam.r)
                total += member
        worst_c = max(worst_c, float(np.abs(f(pts) - total).max()))

    ok = worst_a <= 1e-12 and worst_b <= eps1 + 1e-4 and worst_c <= 1e-12
    _report(capsys, 8, ok,
            f"reflection {worst_a:.1e} <= 1e-12, local max gap {worst_b:.4f} "
            f"<= {eps1 + 1e-4:.4f}, bump sum {worst_c:.1e} <= 1e-12")
    assert worst_a <= 1e-12
    assert worst_b <= eps1 + 1e-4
    assert worst_c <= 1e-12


# ---------------------------------------------------------------------------
# 9. byte-identical experiment output under a fixed master seed


def test_criterion_9_csv_reproducibility(tmp_path, capsys):
    def make_spec():
        return ExperimentSpec(descriptor="holder-error-vs-n", d=1, r=0, rho=1.0,
                              sizes=(4, 8, 16), trials=6, master_seed=99)

    path_a = tmp_path / "run_a.csv"
    path_b = tmp_path / "run_b.csv"
    run_experiment(make_spec(), out_path=path_a)
    run_experiment(make_spec(), out_path=path_b)
    bytes_a = path_a.read_bytes()
    ok = bytes_a == path_b.read_bytes() and len(bytes_a.splitlines()) >= 4
    _report(capsys, 9, ok,
            f"two runs, {len(bytes_a)} bytes each, byte-identical under master_seed=99")
    assert ok
