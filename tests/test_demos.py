"""Every quick demo runs to the end with warnings as errors.

oracle_convergence.py is left out: it makes three dense eigensolves at
dimension 5488 per coupling, over a minute on a 2-core machine, and the
oracle it drives is tested in test_oracle.py and criterion 7.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "demo", ["coherence_sweep.py", "dawson_regimes.py", "kernel_shapes.py", "method_agreement.py"]
)
def test_demo_runs_cleanly(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning",
         "-W", "error::UserWarning", "-W", "error::ResourceWarning", str(ROOT / "demos" / demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
