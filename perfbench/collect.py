"""Run the benchmark over several seeds and summarize every metric.

    python3 perfbench/collect.py --seeds 101-110 [--workloads a,b] [--trace 0 1]
                                 [--out FILE] [--compare FILE]

Each (trace mode, workload, seed) is one ``run.py`` process, run one after
another. For every workload and metric the summary gives the median, the
quartiles (``statistics.quantiles(n=4)``), the sample count and the spread
(q3 - q1) / median, checked against the metric's bound from BENCHMARK.json:
a spread below a third of the bound is steady. ``failed_frac`` is the
failed repeats over the attempted ones. The deterministic outputs of each
seed (digest, final-window cost, Q error, policy-iteration count) are kept
per seed, from the untraced and the traced run alike.

``--out`` writes the summary as JSON; ``perfbench/baseline.json`` is the
one recorded when the benchmark was added. ``--compare`` checks a
fresh summary against a stored one: each end-to-end median may be worse by
at most its bound, and every deterministic output of a seed in both must be
identical. The exit code is 1 when a run failed or a check did not hold.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run
from run import DETERMINISTIC

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(run.__file__).resolve()
RUN_TIMEOUT_S = 600


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_one(workload: str, seed: int, trace: int, seconds: float | None) -> tuple[dict, dict | None]:
    """One run's row of results, and its manifest (None when the run failed)."""
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed)]
    cmd += ["--trace", str(trace)]
    cmd += ["--seconds", str(seconds)] if seconds else []
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"seed": seed, "trace": trace, "correct": False, "error": done.stderr[-2000:]}, None
    result = json.loads(lines[-1])
    record_path = ROOT / ".perfbench_out" / f"{workload}-seed{seed}-trace{trace}.json"
    with open(record_path, encoding="utf-8") as fh:
        record = json.load(fh)
    ok = [r for r in record["repeats"] if not r["problems"]]
    values = ok[0]["values"] if ok else {}
    row = {"seed": seed, "trace": trace, **{k: result[k] for k in ("correct", "attempted", "failed")}}
    row.update({k: values.get(k) for k in DETERMINISTIC})
    row["traced_digests"] = sorted({r["values"]["digest"] for r in ok if r["traced"]})
    row["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
    return row, record["manifest"]


def quartiles(values: list[float]) -> dict:
    """``run.quartiles`` plus the spread (q3 - q1) / median."""
    q = run.quartiles(values)
    q["spread"] = (q["q3"] - q["q1"]) / abs(q["median"]) if q["median"] else 0.0
    return q


def summarize(spec: dict, rows: list[dict], manifest: dict | None) -> dict:
    out = {"runs": rows}
    if manifest is not None:
        out["config"] = manifest["config"]
        out["why"] = manifest["why"]
    for kind, trace in (("end_to_end", 0), ("per_layer", 1)):
        done = [r for r in rows if r["trace"] == trace and "metrics" in r]
        if not done:
            continue
        out[kind] = {}
        for metric in spec[kind]:
            samples = [r["metrics"][metric["name"]] for r in done if metric["name"] in r["metrics"]]
            if samples:
                out[kind][metric["name"]] = {"unit": metric["unit"], **quartiles(samples)}
    attempted = sum(r.get("attempted", 0) for r in rows)
    failed = sum(r.get("failed", 0) for r in rows)
    out["failed_frac"] = failed / attempted if attempted else 1.0
    return out


def print_summary(spec: dict, summary: dict) -> bool:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload, s in summary["workloads"].items():
        print(f"\n{workload}: failed_frac {s['failed_frac']:.3g}")
        for kind in ("end_to_end", "per_layer"):
            for name, q in s.get(kind, {}).items():
                line = (
                    f"  {name:34s} median {q['median']:<12.6g} q1 {q['q1']:<12.6g} "
                    f"q3 {q['q3']:<12.6g} n {q['n']:<3d} spread {q['spread']:.4f}"
                )
                if name in bounds:
                    ok = q["spread"] <= bounds[name] / 3
                    steady &= ok
                    line += f"  bound {bounds[name]} {'steady' if ok else 'TOO WIDE'}"
                print(line)
    return steady


def compare(spec: dict, summary: dict, reference: dict) -> bool:
    """Medians within bounds of the reference; deterministic outputs identical."""
    ok = True
    print("\ncomparison with the reference summary:")
    for workload, s in summary["workloads"].items():
        ref = reference["workloads"].get(workload)
        if ref is None:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name not in s.get("end_to_end", {}) or name not in ref.get("end_to_end", {}):
                continue
            new, old = s["end_to_end"][name]["median"], ref["end_to_end"][name]["median"]
            worse = (new - old) / old if metric["better"] == "lower" else (old - new) / old
            good = worse <= metric["bound"]
            ok &= good
            print(f"  {workload:24s} {name:20s} {old:<12.6g} -> {new:<12.6g} "
                  f"worse by {worse:+.4f} (bound {metric['bound']}) {'ok' if good else 'WORSE'}")
        ref_rows = {(r["seed"], r["trace"]): r for r in ref["runs"]}
        for row in s["runs"]:
            old = ref_rows.get((row["seed"], row["trace"]))
            if old is None:
                continue
            same = all(row.get(k) == old.get(k) for k in DETERMINISTIC)
            ok &= same
            if not same:
                print(f"  {workload} seed {row['seed']}: deterministic outputs differ")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="101-110")
    parser.add_argument("--workloads", default=None, help="comma-separated (default: all)")
    parser.add_argument("--trace", type=int, nargs="+", choices=(0, 1), default=[0])
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--compare", type=Path, default=None)
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)

    summary = {"seeds": seeds, "run_seconds": args.seconds or spec["run_seconds"], "workloads": {}}
    all_correct = True
    for workload in names:
        rows = []
        manifest = None
        for trace in args.trace:
            for seed in seeds:
                row, run_manifest = run_one(workload, seed, trace, args.seconds)
                manifest = manifest or run_manifest
                all_correct &= bool(row["correct"])
                rows.append(row)
                shown = {k: v for k, v in row.get("metrics", {}).items() if trace == 0}
                print(f"{workload} seed {seed} trace {trace}: correct={row['correct']} "
                      f"digest={str(row.get('digest'))[:12]} {json.dumps(shown)}", flush=True)
                if trace == 1 and row.get("traced_digests", [row.get("digest")]) != [row.get("digest")]:
                    print("  traced digest differs from the untraced digest")
                    all_correct = False
        summary["workloads"][workload] = summarize(spec, rows, manifest)
        if manifest is not None and "manifest" not in summary:
            keys = ("git", "python", "numpy", "blas", "nproc", "blas_threads", "default_seed")
            summary["manifest"] = {k: manifest[k] for k in keys}

    steady = print_summary(spec, summary)
    agrees = True
    if args.compare is not None:
        with open(args.compare, encoding="utf-8") as fh:
            agrees = compare(spec, summary, json.load(fh))
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    print(f"\nall runs correct: {all_correct}; every spread steady: {steady}"
          + (f"; agrees with {args.compare}: {agrees}" if args.compare else ""))
    return 0 if all_correct and agrees else 1


if __name__ == "__main__":
    sys.exit(main())
