"""Demos 01-06 run end to end, each in a fresh directory."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "demo, outputs",
    [
        ("02_optimal_policy.py", ("oracle_policy.csv", "oracle_q.csv")),
        ("03_tabular_q_learning.py", ("tabular_metrics.csv",)),
        ("01_popularity_dynamics.py", ()),
        ("04_scalable_q_learning.py", ()),
        ("05_large_network.py", ()),
        ("06_dynamic_costs.py", ()),
    ],
)
def test_oracle_demo_runs(tmp_path, demo, outputs):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    for name in outputs:
        assert (tmp_path / name).stat().st_size > 0
