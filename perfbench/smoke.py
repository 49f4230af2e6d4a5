"""Smoke test of the benchmark: every workload at a tiny size, untraced and traced.

    python3 perfbench/smoke.py

For each workload, ``run.py --tiny`` runs once with ``--trace 0`` and once
with ``--trace 1``. Each run must exit with code 0 and end with a result
object that names exactly the metrics BENCHMARK.json lists for its trace
mode, each a finite number with its unit, with no failed repeat. The traced
repeats must give the same digest as the untraced ones, which shows that
the timing proxies did not change the RNG draw order. Exits with code 1 and
lists the problems when any of this does not hold.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
SEED = 3
RUN_TIMEOUT_S = 300


def run_tiny(spec: dict, workload: str, trace: int) -> tuple[list[str], dict]:
    """Problems of one tiny run, and its digests keyed by traced/untraced."""
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(SEED)]
    cmd += ["--seconds", "1", "--trace", str(trace), "--tiny"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        failed = [line.strip() for line in done.stdout.splitlines() if "FAILED" in line]
        return [f"exit code {done.returncode}", *failed[:3], done.stderr.strip()[-500:]], {}
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(result["metrics"]) != set(expected):
        problems.append(f"metrics {sorted(set(result['metrics']) ^ set(expected))} differ from BENCHMARK.json")
    for name, metric in result["metrics"].items():
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name} = {value!r} is not a finite number")
        if metric.get("unit") != expected.get(name):
            problems.append(f"{name} has unit {metric.get('unit')!r}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
    record_path = ROOT / ".perfbench_out" / f"{workload}-seed{SEED}-trace{trace}-tiny.json"
    with open(record_path, encoding="utf-8") as fh:
        repeats = json.load(fh)["repeats"]
    digests = {
        traced: {r["values"]["digest"] for r in repeats if r["traced"] == traced and "values" in r}
        for traced in (False, True)
    }
    return problems, digests


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        problems, untraced = run_tiny(spec, workload, 0)
        traced_problems, traced = run_tiny(spec, workload, 1)
        problems += traced_problems
        seen = [untraced.get(False), traced.get(False), traced.get(True)]
        if not problems and not (len(seen[0]) == 1 and seen[0] == seen[1] == seen[2]):
            problems.append(f"digests differ between untraced and traced repeats: {seen}")
        failures += bool(problems)
        print(f"{workload}: {'ok' if not problems else 'FAILED'}")
        for problem in problems:
            print(f"  {problem}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
