"""Benchmark of the cache_rl package: run one workload and report its metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The package is imported from ``src/`` of the
checkout this file sits in, never from an installed copy; without ``src/``
the script exits with code 2 and prints no result.

A run sets up the workload's scenario, then repeats the workload's measured
work for about ``--seconds`` seconds (at least ``MIN_REPEATS`` times) and
reports medians over the repeats; the first repeat warms up and is checked
but not timed. With ``--trace 0``, set-up is timed in fresh interpreters
interleaved with the repeats (after one untimed probe that warms the page
cache), so its median covers the same stretch of time as theirs. Every
repeat's outputs are checked; a
repeat that fails a check or raises counts as failed and the run goes on.
The deterministic outputs (digest of the per-slot trace or of the oracle
policy, final-window cost, Q error, policy-iteration count) must repeat
exactly across the repeats of a run.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced repeats with repeats traced by ``tracing.instrumented`` and reports
the per-layer metrics, medians over the traced repeats, plus the tracing
overhead. Metric names, units and the workloads' reasons are defined in
BENCHMARK.json at the repository root.

Human-readable lines go to stdout first, and the last line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. The full record (manifest, per-repeat samples, digests,
failures) is written to ``.perfbench_out/``, and a traced run also writes
the spans of its last traced repeat there.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
# per trace mode: the untimed warm-up plus three timed repeats, or two pairs
MIN_REPEATS = {0: 4, 1: 5}
# untraced runs: share of the elapsed time spent timing set-up in fresh
# interpreters, with at least one probe after each repeat
SETUP_SHARE = 0.25
CHILD_TIMEOUT_S = 120
# values that must repeat exactly for one seed: across repeats of a run, and
# between traced and untraced repeats
DETERMINISTIC = ("digest", "final_window_cost", "q_error_final", "pi_iterations")


def parse_args(argv):
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=None, help="realization base seed (default: the presets' own)")
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def cap_blas_threads(nproc: int) -> int:
    """Cap BLAS threads at ``nproc`` (or lower, if asked); must precede numpy's import."""
    cap = nproc
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            cap = min(cap, int(os.environ[var]))
        except (KeyError, ValueError):
            pass
    cap = max(cap, 1)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = str(cap)
    return cap


def import_package():
    """Import cache_rl from this checkout's src/, or return None."""
    sys.path.insert(0, str(SRC))
    import cache_rl

    if not Path(cache_rl.__file__).resolve().is_relative_to(SRC.resolve()):
        return None
    return cache_rl


def setup_probe(args) -> int:
    """Print the seconds this fresh process takes to import and set up."""
    t0 = perf_counter()
    if import_package() is None:
        return 2
    import workloads

    workloads.build_scenario(workloads.workload(args.workload, args.tiny), args.seed)
    print(repr(perf_counter() - t0))
    return 0


def measure_setup(args) -> float:
    """Set-up time of one fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe"]
    cmd += ["--workload", args.workload, "--seed", str(args.seed)]
    cmd += ["--tiny"] if args.tiny else []
    done = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True
    )
    return float(done.stdout.strip().splitlines()[-1])


def git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None}

    def git(*argv):
        return subprocess.run(
            ["git", *argv], cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        ).stdout.strip()

    try:
        return {
            "sha": git("rev-parse", "HEAD") or None,
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        }
    except (OSError, subprocess.SubprocessError):
        return {"sha": None, "dirty": None}


def manifest(args, spec, nproc, blas_threads, config) -> dict:
    import numpy as np

    import workloads

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    why = {w["name"]: w["why"] for w in spec["workloads"]}[args.workload]
    return {
        "git": git_state(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
        "nproc": nproc,
        "blas_threads": blas_threads,
        "workload": args.workload,
        "why": why,
        "config": config,
        "seed": args.seed,
        "default_seed": workloads.DEFAULT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
    }


def one_repeat(w, sc, csv_path, traced: bool) -> dict:
    """Run, trace if asked, and check one repeat; never raises."""
    import tracing
    import workloads

    tracer = tracing.Tracer() if traced else None
    try:
        if traced:
            with tracing.instrumented(tracer):
                rep = tracer.wrap(tracing.ROOT_SPAN, workloads.run_repeat)(w, sc, csv_path)
        else:
            rep = workloads.run_repeat(w, sc, csv_path)
        values, problems = workloads.check(w, sc, rep.outputs)
    except Exception:  # a failed repeat is counted; the run goes on
        return {"traced": traced, "problems": [traceback.format_exc()]}
    out = {"traced": traced, "problems": problems, "values": values}
    out["wall_s"] = rep.wall_s
    out["rslots_per_s"] = sc.horizon * sc.realizations / rep.sim_s
    if traced:
        layers = tracer.layer_metrics()
        layers["q_linear.forced_explore_frac"] = workloads.forced_explore_frac(
            sc, layers["q_linear.select_calls"]
        )
        layers["experiments.q_error_final"] = values.get("q_error_final", 0.0)
        out["layers"] = layers
        out["spans"] = tracer.spans
    return out


def measure(args, w, sc) -> tuple[list[dict], list | None, list[float]]:
    """Repeat the workload for about ``args.seconds`` seconds.

    Returns the repeats, the spans of the last traced one and the set-up
    times (untraced runs only).
    """
    csv_path = OUT_DIR / f"{args.workload}-seed{args.seed}-metrics.csv"
    repeats: list[dict] = []
    spans = None
    reference = None
    setup: list[float] = []
    setup_elapsed = 0.0
    start = perf_counter()
    if args.trace == 0:
        measure_setup(args)
    while True:
        traced = args.trace == 1 and len(repeats) % 2 == 1
        rep = one_repeat(w, sc, csv_path, traced)
        spans = rep.pop("spans", spans)
        if not rep["problems"]:
            det = {key: rep["values"].get(key) for key in DETERMINISTIC}
            if reference is None:
                reference = det
            elif det != reference:
                rep["problems"].append(f"deterministic outputs changed: {det} != {reference}")
        repeats.append(rep)
        n = len(repeats)
        while args.trace == 0 and (
            len(setup) < n or setup_elapsed < SETUP_SHARE * (perf_counter() - start)
        ):
            t0 = perf_counter()
            setup.append(measure_setup(args))
            setup_elapsed += perf_counter() - t0
        if n >= MIN_REPEATS[args.trace] and (perf_counter() - start) * (n + 1) / n > args.seconds:
            return repeats, spans, setup


def quartiles(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def summarize(args, repeats, setup) -> tuple[dict, dict]:
    """(metric values, their sample summaries) for the requested trace mode."""
    ok = [r for r in repeats[1:] if not r["problems"]]
    plain = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    if not plain or (args.trace == 1 and not traced):
        return {}, {}
    samples = {}
    if args.trace == 0:
        samples["wall_s"] = [r["wall_s"] for r in plain]
        samples["rslots_per_s"] = [r["rslots_per_s"] for r in plain]
        samples["setup_s"] = setup
        values = {name: statistics.median(s) for name, s in samples.items()}
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values["final_window_cost"] = plain[0]["values"]["final_window_cost"]
    else:
        for name in traced[0]["layers"]:
            samples[name] = [r["layers"][name] for r in traced]
        values = {name: statistics.median(s) for name, s in samples.items()}
        samples["trace.traced_wall_s"] = [r["wall_s"] for r in traced]
        samples["trace.untraced_wall_s"] = [r["wall_s"] for r in plain]
        values["trace.overhead_s"] = statistics.median(
            samples["trace.traced_wall_s"]
        ) - statistics.median(samples["trace.untraced_wall_s"])
    return values, {name: quartiles(s) for name, s in samples.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cache_rl" / "__init__.py").is_file():
        print(f"error: {SRC / 'cache_rl'} is missing; run from a full checkout", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    blas_threads = cap_blas_threads(nproc)
    if args.setup_probe:
        return setup_probe(args)
    if import_package() is None:
        print(f"error: cache_rl was not imported from {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.seed is None:
        args.seed = workloads.DEFAULT_SEED
    spec = load_spec()
    OUT_DIR.mkdir(exist_ok=True)
    w = workloads.workload(args.workload, args.tiny)
    sc = workloads.build_scenario(w, args.seed)
    record = {"manifest": manifest(args, spec, nproc, blas_threads, workloads.describe(w, sc))}

    repeats, spans, setup = measure(args, w, sc)
    values, summaries = summarize(args, repeats, setup)
    names = [m["name"] for m in spec["end_to_end" if args.trace == 0 else "per_layer"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = {name: {"value": values[name], "unit": units[name]} for name in names if name in values}
    failed = sum(1 for r in repeats if r["problems"])
    finite = len(metrics) == len(names) and all(math.isfinite(m["value"]) for m in metrics.values())
    result = {
        "correct": failed == 0 and finite,
        "attempted": len(repeats),
        "failed": failed,
        "metrics": metrics,
    }

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    if spans is not None:
        with open(OUT_DIR / f"{stem}-spans.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": spans}, fh)
    record.update(result=result, summaries=summaries, repeats=repeats)
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(repeats)} repeats, {failed} failed")
    for rep in repeats:
        for problem in rep["problems"]:
            print(f"  FAILED: {problem.strip()}")
    for name in names:
        if name not in metrics:
            print(f"  {name:34s} missing")
            continue
        line = f"  {name:34s} {metrics[name]['value']:<14.6g} {units[name]}"
        if name in summaries and summaries[name]["n"] > 1:
            s = summaries[name]
            line += f"  (median of {s['n']}, q1 {s['q1']:.6g}, q3 {s['q3']:.6g})"
        print(line)
    print(f"  record: {OUT_DIR / (stem + '.json')}")
    print(json.dumps(result))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
