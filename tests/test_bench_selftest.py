"""The benchmark's own wrong-answer checks still catch wrong answers.

``bench/selftest.py`` swaps real outputs for wrong ones and expects every
targeted check to fail and every real output to pass.  Running it here means
a change to what the library shares or freezes cannot silently disarm the
checks the benchmark runs after its timed phase.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "selftest.py")],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
