"""Every demo script runs to completion as a fresh program, with no
RuntimeWarning (an error, as in the test suite), and prints the bytes first
recorded for it."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

#: sha256 of each demo's stdout. Demo 02 prints subsets_eigensolved, so a
#: change to the RIC pruning re-pins it.
STDOUT_SHA256 = {
    "01_worked_example.py": "07af9f983f076ebd1a01db9f7ff93e21404bf24bb454394036bcfe8423a1b802",
    "02_exact_ric.py": "dea0eea1d33d4b6741825ed087f63be56c3e70aa749c9d43135e4034719dabc9",
    "03_omp_trace.py": "ebd3c019d86a485cf7630a9483404f881016f0c84cdedf2386f4b3c71b112f7c",
    "04_recovery_conditions.py": "1ee630a02a6f72ca73b7c68922ff3559cba37fa9f23e9ea6caad0bfa02528c0a",
    "05_theorem_validation.py": "01fd917b3921d06e54967a34e29358dd566ec0e8a8dd55c7ec79627832a67a79",
    "06_sharpness_probe.py": "03501b07cb3f4757ed4b89ded19ec0eaf7dc96fb304c36fa28aba3633392bfdc",
    "07_lemma_sweep.py": "18fe3ad60f21486a523b2d380d7d8cb02761baa20dae23c61e77b55e02079512",
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo.name]
