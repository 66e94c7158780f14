"""Every demo script runs to completion and prints its recorded output.

Each demo's stdout is pinned by its sha256 in GOLDEN.  The demos print
rounded values of seeded runs, so the same version prints the same bytes.
A change that is meant to alter a demo's output updates that entry and
says so in CHANGES.md, under the rule of tests/test_reproducibility.py;
any other change must leave every entry as it is.  To re-record, run the
demo with PYTHONPATH=src at the parent commit and at the change, and
compare ``sha256sum`` of the two outputs.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

GOLDEN = {
    "01_grover_basics.py": "b5333d3f7482b33eafb7261bd161890e537cf47274588405502f26281ae26a26",
    "02_discrete_maximum.py": "b8e6b87d4b4b0f8a770291bec6860930c15f449150f60672fdea8ed6db0ecc30",
    "03_taylor_models.py": "a9559de2cc711f44e46755100dd6e043bb70ae84029356009fb6400ec5b84874",
    "04_function_maximizer.py": "49250df554d2203ccc8560bec8b5b818b5f20de835f66169818390ee7329a27a",
    "05_quantum_vs_classical_scaling.py":
        "0c877fea3d9da679018ab9b3bff1224a8cde40ad3259d7089804f02304031e40",
    "06_or_reduction.py": "09646ad09c8b5dbf36dc570b77b387e2ed6ed38e7000234fe1ee6acd632c1904",
}


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == GOLDEN[script.name]
