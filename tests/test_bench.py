"""The benchmark harness's own self-check: it traces the program through
hooks that read the arguments and results of program functions (for
example ``squared_hinge_objective``'s ``weights`` and ``x`` and the arrays
``load_tensors`` returns), so a program change that breaks a hook fails
here rather than in a benchmark run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_harness_selfcheck_passes():
    proc = subprocess.run([sys.executable, "bench/selfcheck.py"], cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
