"""The benchmark reads the package through its modules; keep those reads working."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_benchmark_selfcheck_passes():
    # real certify, states and cli ops through the benchmark's own checkers
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selfcheck.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
