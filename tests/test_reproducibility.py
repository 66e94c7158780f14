"""Seeded runs give the same discrete outputs as the recorded golden digests.

Each digest is the sha256 of a JSON list of integers and booleans taken
from seeded runs: ledger counts, success flags, witness cell indices,
threshold chains of permutation values k/n (stored as k) and OR bits.
The bench digest also holds the CSV cells that are inputs or ratios of
such counts (success rates and ledger means).  Floating-point values that
depend on the platform's math library or LAPACK (error quantiles and the
log-log fits) are left out, so the digests hold on any IEEE-754 machine.

The digests cover models of degree r <= 2 only.  There the certification
kernel takes no power above 2, and numpy computes ``x**2`` as the
correctly rounded product ``x*x``.  For r >= 3, certified values use
numpy's array power ``x ** e``.  With numpy 2.4.6 on an AVX-512 x86-64
CPU, ``x**3`` over 100,000 uniform values in [0, 0.5) differed from the
C library's ``pow`` in 5,406 of them, while a one-element array and a
strided column gave the same bits as the full column.  Whether numpy's
bits also differ between CPUs has not been measured, so no digest pins a
value of degree r >= 3.

The random stream of a search is fixed in ``search.qsearch``: each call
draws doubles from its rng in blocks of 64 (one ``rng.random(64)`` call
serves 32 attempts), and every attempt takes the next two, the first for its
step count j and the second for its measurement.  The threshold climb
draws its start index from the rng itself with ``rng.integers``.

Same version plus same master seed gives identical outputs.  Outputs are
not kept identical across versions: a change that is meant to alter the
random stream or a search decision updates the digests below and says so
in CHANGES.md; any other change must leave them as they are.  Streams
from before the block draws (one ``rng.integers`` and one ``rng.random``
per attempt) are not reproduced.

To re-record a digest after such a change:

1. Run ``PYTHONPATH=src python tests/test_reproducibility.py`` at the
   parent commit and at the change.  Each run prints every digest name,
   its value and ``ok`` or ``CHANGED`` against its GOLDEN entry, and
   exits 1 if any digest changed.
2. Replace in GOLDEN only the values of the digests the change is meant
   to alter; every other printed value must equal its GOLDEN entry.
3. Compare the underlying lists (the RUNS entry of each changed digest)
   between the two commits and report in CHANGES.md:

   - after a change to a search decision, the changed rows;
   - after a deliberate change of the random stream, which alters nearly
     every row, each digest's row count and the old and new means of its
     ledger counts and success flags.  A threshold climb spends its whole
     quantum budget whatever the stream, so its quantum queries stay
     equal; the other means should agree within sampling error;
   - after a change to a function the runs maximize (its values, its
     height or the grid its accuracy needs), each changed digest's row
     count and the old and new means of its ledger counts and success
     flags.
"""

import hashlib
import json

import numpy as np
import pytest

from qfmax import bench, maximizer, reduction, search
from qfmax.functions import make_function

GOLDEN = {
    "peak-d2": "f83050eb04036c3b1ada55055434a0a72ef8b71992ae4841674eac43dcc7ffe7",
    "cosprod-d3": "1df22a26ad6e55e39eab8624a877e45a518427d50d99022e85f3f255de4573d2",
    "find-maximum": "4d1bd17299542f451354464494f983f5e268551e4eebeda1305f08d29eac5c0c",
    "or-64": "cdc01b90ce50c3fd77cbb73e70b44b3bcb46b9b08be79eba27514998515493b6",
    "bench": "c13e4439491bdd82246e0020720a328d86fc15a200e29fbbe746fa92344b2927",
}


def _ledger(ledger) -> list[int]:
    return [ledger.quantum_queries, ledger.classical_queries, ledger.evaluations]


def _maximize_runs(function, d, r, eps, seeds) -> list:
    n = maximizer.choose_n(eps, d, r, 1.0)
    params = maximizer.MaximizerParams(epsilon=eps)
    out = []
    for seed in seeds:
        f = make_function(function, d, r, 1.0, rng=bench.trial_rng(seed, 0))
        res = maximizer.quantum_maximize(f, params, bench.trial_rng(seed, 1))
        cell = np.rint(np.asarray(res.witness) * n - 0.5).astype(int).tolist()
        out.append([_ledger(res.ledger), res.success, cell])
    return out


def _find_maximum_runs() -> list:
    out = []
    for n in (16, 64, 256, 1024):
        for seed in range(20):
            # Values k/n with n a power of two are exact; k is recorded.
            oracle = search.SequenceOracle(bench.trial_rng(seed, n, 0).permutation(n) / n)
            res = search.find_maximum(oracle, bench.trial_rng(seed, n, 1))
            ks = [[int(v * n) for v in chain] for chain in res.thresholds]
            best = int(res.value * n)
            out.append([n, best, int(res.witness), res.success, ks, _ledger(res.ledger)])
    return out


def _or_runs() -> list:
    out = []
    for seed in range(10):
        pick = bench.trial_rng(seed, 0)
        patterns = {
            "zeros": np.zeros(64, dtype=int),
            "one": np.eye(64, dtype=int)[int(pick.integers(64))],
            "random": pick.integers(0, 2, size=64),
        }
        for name, bits in patterns.items():
            bit, res, _ = reduction.or_trial(bits, None, None, bench.trial_rng(seed, 1))
            out.append([name, bit, res.success, _ledger(res.ledger)])
    return out


_BENCH_SPECS = (
    bench.ExperimentSpec("qsearch-scaling", sizes=(16, 64, 256), trials=20, master_seed=3),
    bench.ExperimentSpec("maxfind-success", sizes=(16, 64, 256), trials=20, master_seed=3),
    bench.ExperimentSpec("holder-error-vs-n", sizes=(4, 8, 16), trials=20, master_seed=3),
    bench.ExperimentSpec(
        "holder-queries-vs-eps", eps_values=(0.2, 0.1, 0.05), trials=20, master_seed=3
    ),
    bench.ExperimentSpec("baseline-queries-vs-eps", eps_values=(0.2, 0.1, 0.05), master_seed=3),
    bench.ExperimentSpec(
        "or-reduction", sizes=(16, 64), trials=20, master_seed=3,
        patterns=("zeros", "one", "random", "ones"),
    ),
)

_EXACT_COLUMNS = (
    "experiment", "function", "d", "r", "rho", "n", "N", "epsilon", "trials", "master_seed",
    "success_rate", "mean_quantum_queries", "mean_classical_queries", "mean_evaluations",
)


def _bench_rows() -> list:
    return [
        [row.get(col) for col in _EXACT_COLUMNS]
        for spec in _BENCH_SPECS
        for row in bench.run_experiment(spec)
    ]


RUNS = {
    "peak-d2": lambda: _maximize_runs("peak", 2, 0, 0.02, range(20)),
    "cosprod-d3": lambda: _maximize_runs("cosprod", 3, 2, 3e-3, range(6)),
    "find-maximum": _find_maximum_runs,
    "or-64": _or_runs,
    "bench": _bench_rows,
}


def digest(name: str) -> str:
    return hashlib.sha256(json.dumps(RUNS[name]()).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_seeded_outputs_match_golden_digest(name):
    assert digest(name) == GOLDEN[name]


if __name__ == "__main__":
    changed = False
    for name in sorted(RUNS):
        value = digest(name)
        changed |= value != GOLDEN[name]
        print(name, value, "ok" if value == GOLDEN[name] else "CHANGED")
    raise SystemExit(1 if changed else 0)
