"""The benchmark's workloads: configuration, one measured repeat, output checks.

Every call into the package goes through the ``cache_rl`` namespaces at call
time (``cr.run_scenario``, ``cr.simulate.run_lockstep``, ...), so the
wrappers that ``tracing.instrumented`` installs there are picked up.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np

import cache_rl as cr
import cache_rl.simulate  # noqa: F401  (makes cr.simulate available)

# preset_scenario's own default realization seed
DEFAULT_SEED = 7
# max |Q - T Q| allowed for the oracle's Q, relative to max |Q|
ORACLE_RESIDUAL_RTOL = 1e-9
# the oracle-policy rollout's final-window cost must lie this many standard
# errors (across realizations) from the exact long-run average cost
ROLLOUT_SE_TOL = 6.0
# slots between Q-error snapshots: run_scenario's default stride at the
# 10k-slot horizon where the workloads were profiled, kept fixed so the
# snapshots' share of a repeat does not depend on the horizon
ERROR_STRIDE = 50


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    learner: str
    horizon: int
    realizations: int
    request_mode: str = "state"
    oracle_compare: bool = False
    # replaces the preset's small network by small_network_chains(catalog_size)
    catalog_size: int | None = None
    cache_size: int | None = None

    @property
    def is_oracle(self) -> bool:
        return self.learner == "oracle-policy"


# Horizons are set so one repeat takes 1-6 s on a 2-core x86 machine; each
# run then takes several repeats and reports their median. The reasons for
# choosing each workload are in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("small-exact", "s1", "exact", 2000, 200, oracle_compare=True),
        Workload(
            "small-linear-empirical",
            "s1",
            "linear",
            1000,
            200,
            request_mode="empirical",
            oracle_compare=True,
        ),
        Workload("large-linear", "s7", "linear", 10_000, 1),
        # solve on the F=20, M=3 network, then roll the policy out
        Workload("oracle-f20m3", "s1", "oracle-policy", 4000, 400, catalog_size=20, cache_size=3),
    )
}

# Smoke-test sizes: every code path of the full workload, in well under a second.
TINY = {
    "small-exact": dict(horizon=200, realizations=4),
    "small-linear-empirical": dict(horizon=200, realizations=4),
    "large-linear": dict(horizon=300),
    "oracle-f20m3": dict(horizon=400, realizations=8, catalog_size=10, cache_size=2),
}


def workload(name: str, tiny: bool = False) -> Workload:
    w = WORKLOADS[name]
    return replace(w, **TINY[name]) if tiny else w


def build_scenario(w: Workload, seed: int):
    """Set-up: the preset's chains and configuration, with ``seed`` as base seed."""
    sc = cr.preset_scenario(
        w.preset,
        horizon=w.horizon,
        realizations=w.realizations,
        base_seed=seed,
        learner=w.learner,
    )
    overrides = {"request_mode": w.request_mode}
    if w.catalog_size is not None:
        g_chain, l_chain = cr.small_network_chains(w.catalog_size)
        overrides.update(g_chain=g_chain, l_chain=l_chain, cache_size=w.cache_size)
    return cr.scenario_with(sc, **overrides)


def describe(w: Workload, sc) -> dict:
    """Full configuration of a workload as run, for the run manifest."""
    return {
        "preset": w.preset,
        "learner": sc.learner,
        "F": sc.catalog_size,
        "M": sc.cache_size,
        "R": sc.realizations,
        "horizon": sc.horizon,
        "request_mode": sc.request_mode,
        "requests_per_slot": sc.requests_per_slot,
        "oracle_compare": w.oracle_compare,
        "n_g": sc.g_chain.n_states,
        "n_l": sc.l_chain.n_states,
        "gamma": sc.gamma,
        "base_seed": sc.base_seed,
    }


def final_window(horizon: int) -> tuple[int, int]:
    """The final 10% of slots."""
    return (horizon - max(1, horizon // 10), horizon)


def error_slots(horizon: int) -> list[int]:
    """Q-error snapshot slots: every ERROR_STRIDE slots, and always the last."""
    slots = list(range(ERROR_STRIDE - 1, horizon, ERROR_STRIDE))
    return slots if slots and slots[-1] == horizon - 1 else slots + [horizon - 1]


def digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


@dataclass
class Timed:
    """One repeat: wall time, the engine-run time inside it, and raw outputs."""

    wall_s: float
    sim_s: float
    outputs: dict


def run_repeat(w: Workload, sc, csv_path) -> Timed:
    """The measured work of one repeat (set-up excluded, checks excluded)."""
    window = final_window(sc.horizon)
    if w.is_oracle:
        params = sc.lambda_schedule.segments[0][1]
        t0 = perf_counter()
        space = cr.StateSpace(sc.g_chain, sc.l_chain, sc.cache_size)
        pi = cr.policy_iteration(space, sc.gamma, params)
        long_run = cr.long_run_average_cost(space, pi.policy, params)
        t1 = perf_counter()
        rngs = [cr.realization_rng(sc.base_seed, r) for r in range(sc.realizations)]
        agent = cr.simulate.OraclePolicyAgent(space, pi.policy)
        rollout = cr.simulate.run_lockstep(
            sc.env(), agent, sc.lambda_schedule, sc.horizon, rngs, windows=(window,)
        )
        t2 = perf_counter()
        outputs = dict(space=space, pi=pi, long_run=long_run, rollout=rollout, params=params)
        return Timed(wall_s=t2 - t0, sim_s=t2 - t1, outputs=outputs)
    t0 = perf_counter()
    trace = cr.run_scenario(
        sc,
        oracle_compare=w.oracle_compare,
        error_slots=error_slots(sc.horizon) if w.oracle_compare else None,
        windows=(window,),
    )
    t1 = perf_counter()
    cr.export_metrics(trace, csv_path)
    t2 = perf_counter()
    return Timed(wall_s=t2 - t0, sim_s=t1 - t0, outputs=dict(trace=trace, csv=csv_path))


def check(w: Workload, sc, outputs: dict) -> tuple[dict, list[str]]:
    """Deterministic result values of a repeat, and the checks it failed."""
    if w.is_oracle:
        return _check_oracle(sc, **outputs)
    return _check_learner(w, **outputs)


def _nonfinite(named: dict) -> list[str]:
    return [f"non-finite {name}" for name, arr in named.items() if not np.isfinite(arr).all()]


def _check_learner(w: Workload, trace, csv) -> tuple[dict, list[str]]:
    arrays = {
        "avg_cost": trace.avg_cost,
        "hit_fraction": trace.hit_fraction,
        "cost_std": trace.cost_std,
        "window_cost": trace.window_cost,
    }
    if w.oracle_compare:
        if trace.norm_error is None or trace.oracle_average_cost is None:
            return {}, ["oracle comparison missing from the trace"]
        arrays["norm_error"] = trace.norm_error
        arrays["oracle_average_cost"] = np.asarray(trace.oracle_average_cost)
    problems = _nonfinite(arrays)
    if problems:
        return {}, problems
    if not ((trace.hit_fraction >= 0.0) & (trace.hit_fraction <= 1.0)).all():
        problems.append("hit fraction outside [0, 1]")
    if (trace.avg_cost < 0.0).any():
        problems.append("negative slot cost")
    _, cols = cr.read_metrics(csv)
    if not (
        np.array_equal(cols["avg_cost"], trace.avg_cost)
        and np.array_equal(cols["hit_fraction"], trace.hit_fraction)
    ):
        problems.append("exported metrics CSV does not read back bit-identically")
    values = {
        "digest": digest(trace.avg_cost, trace.hit_fraction),
        "final_window_cost": float(trace.window_cost[:, 0].mean()),
    }
    if w.oracle_compare:
        values["q_error_final"] = float(trace.norm_error[-1])
        values["oracle_average_cost"] = float(trace.oracle_average_cost)
    return values, problems


def _check_oracle(sc, space, pi, long_run, rollout, params) -> tuple[dict, list[str]]:
    problems = _nonfinite(
        {"Q": pi.q, "long_run_cost": np.asarray(long_run), "rollout_cost": rollout.window_cost}
    )
    if problems:
        return {}, problems
    residual = cr.bellman_optimality_residual(space, pi.q, sc.gamma, params)
    scale = float(np.abs(pi.q).max())
    if not residual <= ORACLE_RESIDUAL_RTOL * scale:
        problems.append(f"Bellman residual {residual:.3g} exceeds {ORACLE_RESIDUAL_RTOL:g} * {scale:.6g}")
    if not np.array_equal(cr.policy_improvement(space, pi.q), pi.policy):
        problems.append("returned policy is not greedy for the returned Q")
    window = rollout.window_cost[:, 0]
    mean = float(window.mean())
    se = float(window.std(ddof=1)) / math.sqrt(window.size)
    if not abs(mean - long_run) <= ROLLOUT_SE_TOL * se:
        problems.append(
            f"rollout cost {mean:.6g} is {abs(mean - long_run) / se:.1f} standard errors "
            f"from the long-run average cost {long_run:.6g}"
        )
    values = {
        "digest": digest(pi.policy.astype(np.int64)),
        "final_window_cost": mean,
        "pi_iterations": int(pi.iterations),
        "long_run_average_cost": float(long_run),
        "bellman_residual": residual,
        "n_states": space.n_states,
    }
    return values, problems


def forced_explore_frac(sc, select_calls: float) -> float:
    """Share of ``select`` calls made at epsilon = 1, where greedy work is wasted.

    ``select`` runs once per slot, so the share comes from the learner's
    public epsilon schedule over the scenario's slots (1-based).
    """
    if not select_calls:
        return 0.0
    eps = sc.learner_config.epsilon.epsilon_array(np.arange(1, sc.horizon + 1))
    return float(np.count_nonzero(eps >= 1.0)) / select_calls
