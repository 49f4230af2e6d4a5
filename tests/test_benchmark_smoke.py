"""The benchmark's smoke test, run from the repository root.

``perfbench/smoke.py`` runs every workload at a tiny size, untraced and
traced. It fails when a name or signature the benchmark wraps or reads
(``export_metrics``, ``read_metrics``, ``run_lockstep``) stops working.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke_passes():
    done = subprocess.run(
        [sys.executable, "perfbench/smoke.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=900,
    )
    assert done.returncode == 0, done.stdout + done.stderr
