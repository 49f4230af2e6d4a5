"""Command-line front end.

Subcommands:
  run      simulate a scenario (preset name or JSON file) and write metrics CSV
  presets  list the named presets and reference network configurations
  oracle   solve a scenario's MDP exactly and export policy/values/Q as CSV

Exit codes: 0 success, 2 configuration/usage errors, 3 learner divergence.
"""

from __future__ import annotations

import argparse
import os
import sys

from .caching_core import write_table
from .experiments import (
    list_presets,
    load_scenario,
    preset_scenario,
    PRESET_PARAMS,
    run_scenario,
    scenario_with,
    export_metrics,
)
from .mdp_oracle import StateSpace, export_policy_csv, export_qtable_csv, policy_iteration
from .simulate import DivergenceError


def _resolve_scenario(spec: str, args) -> object:
    sizes = {k: getattr(args, k, None) for k in ("horizon", "realizations")}
    learner = getattr(args, "learner", None)
    if spec in set(PRESET_PARAMS) | {"dynamic"}:
        scenario = preset_scenario(spec, learner=learner, **sizes)
    else:
        if not os.path.exists(spec):
            raise ValueError(f"scenario {spec!r} is neither a preset nor an existing file")
        if learner is not None:
            raise ValueError("--learner applies to presets only; a scenario file names its learner")
        given = {k: v for k, v in sizes.items() if v is not None}
        scenario = scenario_with(load_scenario(spec), **given)
    if getattr(args, "seed", None) is not None:
        scenario = scenario_with(scenario, base_seed=args.seed)
    return scenario


def _check_writable(*paths: str) -> None:
    """Raise before any work is done when an output file could not be created."""
    for path in paths:
        parent = os.path.dirname(path) or "."
        if not path or os.path.isdir(path) or not os.access(parent, os.W_OK | os.X_OK):
            raise OSError(f"cannot write {path or repr(path)}")


def _cmd_run(args) -> int:
    scenario = _resolve_scenario(args.scenario, args)
    _check_writable(args.out)
    trace = run_scenario(scenario, oracle_compare=args.oracle_compare)
    export_metrics(trace, args.out)
    final = trace.run_avg_cost[-1]
    print(f"wrote {trace.horizon} slots to {args.out}")
    print(f"final running-average cost: {final:.6g}")
    if trace.oracle_average_cost is not None:
        print(f"oracle average cost: {trace.oracle_average_cost:.6g}")
    return 0


def _cmd_presets(args) -> int:
    rows = list_presets()
    header = (
        f"{'name':<8}{'network':<8}{'F':>6}{'M':>4}{'lambda1':>9}{'lambda2':>9}"
        f"{'lambda3':>9}  {'learner':<15}{'horizon':>9}{'realiz.':>8}"
    )
    print(header)
    for row in rows:
        lam = (
            f"{row['lambda1']:>9g}{row['lambda2']:>9g}{row['lambda3']:>9g}"
            if row["segments"] == 1
            else f"{'(two-interval schedule)':>27}"
        )
        print(
            f"{row['name']:<8}{row['network']:<8}{row['catalog_size']:>6}{row['cache_size']:>4}"
            f"{lam}  {row['learner']:<15}{row['horizon']:>9}{row['realizations']:>8}"
        )
    print()
    print("small network: catalog 10, capacity 2, two-state global/local chains")
    print("large network: catalog 1000, capacity 10, 50-state global / 40-state local chains")
    return 0


def _cmd_oracle(args) -> int:
    scenario = _resolve_scenario(args.scenario, args)
    params = scenario.lambda_schedule.constant_params()
    if not os.path.basename(args.out):  # the files would be named _policy.csv and so on
        raise ValueError(f"--out must end in a file name prefix, got {args.out!r}")
    policy_path, values_path, q_path = (f"{args.out}_{k}.csv" for k in ("policy", "values", "q"))
    _check_writable(policy_path, values_path, q_path)
    space = StateSpace(scenario.g_chain, scenario.l_chain, scenario.cache_size)
    space.check_tables()  # the exported Q table, before the solve
    result = policy_iteration(space, scenario.gamma, params)
    export_policy_csv(space, result.policy, result.values, policy_path)
    write_table(values_path, ["state_index", "value"], enumerate(result.values.tolist()))
    export_qtable_csv(space, result.q, q_path)
    print(f"solved {space.n_states} states x {space.n_actions} actions "
          f"in {result.iterations} iterations")
    print(f"wrote {policy_path}, {values_path}, {q_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cache-rl",
        description="Simulate and solve cache management under Markov popularity dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate a scenario and export metrics CSV")
    run.add_argument("--scenario", required=True, help="preset name (s1..s9, dynamic) or JSON path")
    run.add_argument("--seed", type=int, default=None, help="override the base seed")
    run.add_argument("--horizon", type=int, default=None, help="override the slot count")
    run.add_argument("--realizations", type=int, default=None, help="override the realization count")
    run.add_argument("--learner", default=None, help="override a preset's learner kind")
    run.add_argument("--out", default="metrics.csv", help="output CSV path")
    run.add_argument(
        "--oracle-compare",
        action="store_true",
        help="also solve the MDP and track normalized Q error (small networks only)",
    )
    run.set_defaults(func=_cmd_run)

    presets = sub.add_parser("presets", help="list named presets")
    presets.set_defaults(func=_cmd_presets)

    oracle = sub.add_parser("oracle", help="export the optimal policy, values, and Q table")
    oracle.add_argument("--scenario", required=True, help="preset name or JSON path")
    oracle.add_argument("--out", default="oracle", help="output path prefix")
    oracle.set_defaults(func=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, TypeError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
