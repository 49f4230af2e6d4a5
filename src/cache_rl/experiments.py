"""Scenario presets, the Monte Carlo driver, metrics, and CSV export.

A Scenario bundles everything one experiment needs: the two popularity
chains, cache capacity, discount, a piecewise-constant cost-weight
schedule, the agent kind and its configuration, the horizon, the number of
Monte Carlo realizations, and the base seed. Realization ``r`` uses the
seed mix ``SeedSequence(base_seed, spawn_key=(r,))``, so realizations are
independent and each one can be re-run on its own.

The named presets s1..s9 are cost-weight settings on two reference
networks: a small one (catalog 10, capacity 2, two-state chains) where the
exact solver is tractable, and a large one (catalog 1000, capacity 10,
50/40-state chains) that only the linear learner can handle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .caching_core import ActionSpace, CacheAction, CostParams, cached_mass, write_table
from .mdp_oracle import (
    PolicyIterationResult,
    StateSpace,
    long_run_average_cost,
    policy_iteration,
    relative_q_error,
)
from .popularity import MarkovChain, PopularityProfile, random_chain, zipf_profile
from .popularity import as_discount, as_int
from .q_exact import BatchExactAgent, QLearnerConfig
from .q_linear import BatchLinearAgent, LinearLearnerConfig, LinearParams, linear_q_matrix
from .schedules import (
    ExploreThenInverseDecay,
    PiecewiseCostSchedule,
    as_cost_schedule,
    fields_from_json,
    fields_to_json,
)
from .simulate import (
    MetricsTrace,
    OraclePolicyAgent,
    PopularityEnv,
    RandomBaselineAgent,
    realization_rng,
    run_lockstep,
    uniform_subsets,
)

LEARNER_KINDS = ("exact", "linear", "oracle-policy", "random-baseline")
# Configuration class of each learner kind that takes one.
LEARNER_CONFIGS = {"exact": QLearnerConfig, "linear": LinearLearnerConfig}

# Cost-weight presets (lambda1, lambda2, lambda3).
PRESET_PARAMS = {
    "s1": CostParams(10, 600, 1000),
    "s2": CostParams(600, 10, 1000),
    "s3": CostParams(10, 10, 1000),
    "s4": CostParams(0, 1000, 0),
    "s5": CostParams(0, 0, 1000),
    "s6": CostParams(60, 10, 10),
    "s7": CostParams(100, 20, 20),
    "s8": CostParams(0, 0, 1000),
    "s9": CostParams(0, 1000, 600),
}

SMALL_NET_PRESETS = ("s1", "s2", "s3", "s4", "s5", "s6")
LARGE_NET_PRESETS = ("s7", "s8", "s9")

# Semi-gradient SGD moves F - M entries of two score rows per slot, so the
# induced Q-value step is about (alpha_g + alpha_l) * (F - M) times the TD
# error; steps are stable only when that factor stays well below 1. The
# small-network default 0.005 would diverge at F = 1000.
LARGE_NET_ALPHA = 0.0005
GLOBAL_ZIPF_EXPONENTS = (1.0, 1.5)
LOCAL_ZIPF_EXPONENTS = (0.7, 2.5)
GLOBAL_TRANSITION = ((0.8, 0.2), (0.75, 0.25))
LOCAL_TRANSITION = ((0.6, 0.4), (0.2, 0.8))


def small_network_chains(catalog_size: int = 10) -> tuple[MarkovChain, MarkovChain]:
    """Reference two-state chains for the small network.

    Global states are Zipf(1.0) and Zipf(1.5); local states Zipf(0.7) and
    Zipf(2.5). Each state assigns the files an independent random ordering
    drawn from the fixed seed 12345, so the chains are reproducible.
    """
    rng = np.random.default_rng(12345)
    g_states = tuple(
        zipf_profile(catalog_size, eta, rng.permutation(catalog_size) + 1)
        for eta in GLOBAL_ZIPF_EXPONENTS
    )
    l_states = tuple(
        zipf_profile(catalog_size, eta, rng.permutation(catalog_size) + 1)
        for eta in LOCAL_ZIPF_EXPONENTS
    )
    g_chain = MarkovChain(states=g_states, transition=np.array(GLOBAL_TRANSITION))
    l_chain = MarkovChain(states=l_states, transition=np.array(LOCAL_TRANSITION))
    return g_chain, l_chain


def large_network_chains() -> tuple[MarkovChain, MarkovChain]:
    """Random chains for the large network: 50 global and 40 local states
    over 1000 files, drawn from the fixed seed 20240.

    Transition rows are flat-Dirichlet draws; Zipf exponents are uniform
    over (2, 4) with an independent random file ordering per state.
    """
    seq = np.random.SeedSequence(20240)
    g_rng, l_rng = (np.random.default_rng(s) for s in seq.spawn(2))
    return random_chain(50, 1000, g_rng), random_chain(40, 1000, l_rng)


@dataclass(frozen=True)
class Scenario:
    name: str
    g_chain: MarkovChain
    l_chain: MarkovChain
    cache_size: int
    gamma: float
    lambda_schedule: PiecewiseCostSchedule
    learner: str
    learner_config: QLearnerConfig | LinearLearnerConfig | None
    horizon: int
    realizations: int
    base_seed: int
    request_mode: str = "state"
    requests_per_slot: int = 100

    def __post_init__(self) -> None:
        for name in ("name", "learner", "request_mode"):
            if not isinstance(getattr(self, name), str):
                raise ValueError(f"{name} must be a string, got {getattr(self, name)!r}")
        bounds = {
            "cache_size": (1, self.g_chain.catalog_size + 1),
            "horizon": (1, None),
            "realizations": (1, None),
            "base_seed": (0, None),
        }
        for name, (lo, hi) in bounds.items():
            object.__setattr__(self, name, as_int(getattr(self, name), name, lo, hi))
        object.__setattr__(self, "gamma", as_discount(self.gamma))
        if "\n" in self.name or "\r" in self.name:
            raise ValueError("name must not contain a line break")
        if self.learner not in LEARNER_KINDS:
            raise ValueError(f"learner must be one of {LEARNER_KINDS}")
        # the environment checks the chain pair, request_mode and requests_per_slot
        object.__setattr__(self, "requests_per_slot", self.env().requests_per_slot)
        object.__setattr__(self, "lambda_schedule", as_cost_schedule(self.lambda_schedule))
        config_cls = LEARNER_CONFIGS.get(self.learner)
        if config_cls is not None and not isinstance(self.learner_config, config_cls):
            raise ValueError(f"{self.learner} learner needs a {config_cls.__name__}")
        if self.learner_config is not None and self.learner_config.gamma != self.gamma:
            raise ValueError("learner_config.gamma must match the scenario gamma")

    @property
    def catalog_size(self) -> int:
        return self.g_chain.catalog_size

    def env(self) -> PopularityEnv:
        return PopularityEnv(
            g_chain=self.g_chain,
            l_chain=self.l_chain,
            request_mode=self.request_mode,
            requests_per_slot=self.requests_per_slot,
        )


def preset_scenario(
    name: str,
    horizon: int | None = None,
    realizations: int | None = None,
    base_seed: int = 7,
    learner: str | None = None,
) -> Scenario:
    """Build a ready-to-run Scenario for a named preset (s1..s9, dynamic).

    ``dynamic`` runs the small network for 40 000 slots under s4 weights,
    switching to s5 weights at half the horizon (at slot 1 when it is 1).
    """
    if name == "dynamic":
        horizon = 40_000 if horizon is None else horizon
        schedule = PiecewiseCostSchedule(
            segments=((0, PRESET_PARAMS["s4"]), (max(1, horizon // 2), PRESET_PARAMS["s5"]))
        )
    elif name in PRESET_PARAMS:
        horizon = 100_000 if horizon is None else horizon
        schedule = PiecewiseCostSchedule.constant(PRESET_PARAMS[name])
    else:
        raise ValueError(f"unknown preset {name!r}")
    large = name in LARGE_NET_PRESETS
    if learner is None:
        learner = "exact" if name in SMALL_NET_PRESETS and name not in ("s4", "s5") else "linear"
    if learner == "linear" and large:
        config = LinearLearnerConfig(
            alpha_g=LARGE_NET_ALPHA,
            alpha_l=LARGE_NET_ALPHA,
            alpha_r=LARGE_NET_ALPHA,
            epsilon=ExploreThenInverseDecay(t_explore=max(1, horizon // 5)),
        )
    else:
        config_cls = LEARNER_CONFIGS.get(learner)
        config = None if config_cls is None else config_cls()
    g_chain, l_chain = large_network_chains() if large else small_network_chains()
    if realizations is None:
        realizations = 1 if large else 100
    return Scenario(
        name=name,
        g_chain=g_chain,
        l_chain=l_chain,
        cache_size=10 if large else 2,
        gamma=0.8,
        lambda_schedule=schedule,
        learner=learner,
        learner_config=config,
        horizon=horizon,
        realizations=realizations,
        base_seed=base_seed,
    )


def list_presets() -> list[dict]:
    """Summaries of all named presets (for the CLI)."""
    rows = []
    for name in list(PRESET_PARAMS) + ["dynamic"]:
        sc = preset_scenario(name)
        seg0 = sc.lambda_schedule.segments[0][1]
        rows.append(
            {
                "name": name,
                "network": "small" if sc.catalog_size == 10 else "large",
                "catalog_size": sc.catalog_size,
                "cache_size": sc.cache_size,
                "lambda1": seg0.lambda1,
                "lambda2": seg0.lambda2,
                "lambda3": seg0.lambda3,
                "segments": len(sc.lambda_schedule.segments),
                "learner": sc.learner,
                "horizon": sc.horizon,
                "realizations": sc.realizations,
            }
        )
    return rows


def _build_agent(scenario: Scenario, oracle: PolicyIterationResult | None, space):
    if scenario.learner == "exact":
        return BatchExactAgent(space, scenario.learner_config)
    if scenario.learner == "linear":
        return BatchLinearAgent(
            scenario.g_chain.n_states,
            scenario.l_chain.n_states,
            scenario.catalog_size,
            scenario.cache_size,
            scenario.learner_config,
        )
    if scenario.learner == "oracle-policy":
        return OraclePolicyAgent(space, oracle.policy)
    return RandomBaselineAgent(scenario.catalog_size, scenario.cache_size)


def run_scenario(
    scenario: Scenario,
    oracle_compare: bool = False,
    error_slots=None,
    windows: tuple[tuple[int, int], ...] = (),
) -> MetricsTrace:
    """Simulate a scenario and average its metrics across realizations.

    With ``oracle_compare`` the optimal policy is solved first (constant
    cost weights only); the trace then carries the oracle's long-run
    average cost and, for the learners, normalized Q-error snapshots taken
    at ``error_slots`` (default: about 200 evenly spaced slots). Giving
    ``error_slots`` to a run that tracks no Q error raises ``ValueError``.
    """
    track_error = oracle_compare and scenario.learner in ("exact", "linear")
    if error_slots is not None and not track_error:
        raise ValueError("error_slots needs oracle_compare and a learning agent")
    needs_oracle = oracle_compare or scenario.learner == "oracle-policy"
    oracle = None
    space = None
    if needs_oracle or scenario.learner == "exact":
        space = StateSpace(scenario.g_chain, scenario.l_chain, scenario.cache_size)
    if needs_oracle:
        if not scenario.lambda_schedule.is_constant:
            raise ValueError("oracle comparison requires a constant cost schedule")
        params = scenario.lambda_schedule.segments[0][1]
        oracle = policy_iteration(space, scenario.gamma, params)
    agent = _build_agent(scenario, oracle, space)

    if track_error:
        if error_slots is None:
            stride = max(1, scenario.horizon // 200)
            error_slots = list(range(stride - 1, scenario.horizon, stride))
            if error_slots[-1] != scenario.horizon - 1:
                error_slots.append(scenario.horizon - 1)
        agent.set_error_reference(oracle.q, space)

    rngs = [realization_rng(scenario.base_seed, r) for r in range(scenario.realizations)]
    result = run_lockstep(
        scenario.env(),
        agent,
        scenario.lambda_schedule,
        scenario.horizon,
        rngs,
        windows=windows,
        error_slots=error_slots,
    )
    oracle_cost = None if oracle is None else long_run_average_cost(space, oracle.policy, params)
    return replace(
        result,
        base_seed=scenario.base_seed,
        gamma=scenario.gamma,
        learner=scenario.learner,
        oracle_average_cost=oracle_cost,
        metadata={
            "scenario": scenario.name,
            "norm_error_metric": "relative_frobenius",
            "hit_metric": "expected_mass" if scenario.request_mode == "state" else "count_ratio",
        },
    )


def cache_hit_fraction(action: CacheAction, p_l: PopularityProfile) -> float:
    """Share of the slot's local request mass served from cache."""
    if action.catalog_size != p_l.catalog_size:
        raise ValueError("action and profile catalog sizes differ")
    return float(cached_mass(action.as_mask(), p_l.probs))


def normalized_q_error(q_hat, q_star: np.ndarray, space: StateSpace | None = None) -> float:
    """Relative Frobenius error ||Q_hat - Q*||_F / ||Q*||_F."""
    if isinstance(q_hat, LinearParams):
        if space is None:
            raise ValueError("materializing linear parameters needs the state space")
        q_hat = linear_q_matrix(q_hat, space)
    return relative_q_error(q_hat, q_star)


def random_baseline_action(space: ActionSpace, rng: np.random.Generator) -> int:
    """Uniform action index, drawn by the engine's M-subset rule (no enumeration)."""
    files = np.sort(uniform_subsets(rng.random(space.f), space.m)) + 1
    action = CacheAction(files=tuple(files), catalog_size=space.f)
    return space.index_of(action)


def export_metrics(trace: MetricsTrace, path) -> None:
    """Write per-slot metrics as CSV: LF line endings, 17-significant-digit floats.

    Leading '#' lines carry run metadata. The norm_error column appears only
    when the run was oracle-compared; between snapshots it holds the latest
    snapshot value (the error of zero-initialized tables is exactly 1).
    oracle_average_cost, then in the metadata, is the oracle policy's
    ``long_run_average_cost`` from the simulator's start, as a rollout of
    that policy measures it; under preset s2 it depends on that start.
    """
    header = ["slot", "avg_cost", "run_avg_cost", "hit_fraction"]
    columns = [trace.avg_cost, trace.run_avg_cost, trace.hit_fraction]
    if trace.norm_error is not None:
        header.append("norm_error")
        latest = np.searchsorted(trace.error_slots, np.arange(trace.horizon), side="right")
        columns.append(np.concatenate(([1.0], trace.norm_error))[latest])
    comments = {
        "learner": trace.learner,
        "gamma": trace.gamma,
        "realizations": trace.realizations,
        "base_seed": trace.base_seed,
        **(trace.metadata or {}),
    }
    if trace.oracle_average_cost is not None:
        comments["oracle_average_cost"] = trace.oracle_average_cost
    write_table(path, header, zip(range(trace.horizon), *(c.tolist() for c in columns)), comments)


def read_metrics(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read back a metrics CSV: (metadata dict, column arrays)."""
    metadata: dict[str, str] = {}
    rows = []
    header = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                metadata[key.strip()] = value
                continue
            if header is None:
                header = line.strip().split(",")
                continue
            if line.strip():
                rows.append(line.strip().split(","))
    if header is None:
        raise ValueError(f"no header found in {path!r}")
    data = np.asarray(rows, dtype=np.float64)
    return metadata, {name: data[:, i] for i, name in enumerate(header)}


# Scenario fields with their own codecs; the other fields are plain values.
_STRUCTURED_FIELDS = ("g_chain", "l_chain", "lambda_schedule", "learner_config")


def scenario_to_json(scenario: Scenario) -> str:
    """One key per Scenario field; the learner's gamma is the scenario's."""
    doc = fields_to_json(scenario, skip=_STRUCTURED_FIELDS)
    doc["g_chain"] = json.loads(scenario.g_chain.to_json())
    doc["l_chain"] = json.loads(scenario.l_chain.to_json())
    doc["lambda_schedule"] = scenario.lambda_schedule.to_json()
    if scenario.learner_config is not None:
        doc["learner_config"] = fields_to_json(scenario.learner_config, skip=("gamma",))
    return json.dumps(doc, indent=2)


def scenario_from_json(text: str) -> Scenario:
    """Inverse of :func:`scenario_to_json`; absent optional fields take their defaults."""
    doc = json.loads(text)
    kwargs = fields_from_json(Scenario, {"name": "custom", **doc}, skip=_STRUCTURED_FIELDS)
    kwargs["g_chain"] = MarkovChain(**doc["g_chain"])
    kwargs["l_chain"] = MarkovChain(**doc["l_chain"])
    kwargs["lambda_schedule"] = PiecewiseCostSchedule.from_json(doc["lambda_schedule"])
    config_cls = LEARNER_CONFIGS.get(kwargs["learner"])
    kwargs["learner_config"] = None
    if config_cls is not None:
        config_doc = doc.get("learner_config") or {}
        kwargs["learner_config"] = config_cls(
            **fields_from_json(config_cls, config_doc, skip=("gamma",)), gamma=kwargs["gamma"]
        )
    return Scenario(**kwargs)


def load_scenario(path) -> Scenario:
    with open(path, encoding="utf-8") as fh:
        return scenario_from_json(fh.read())


def save_scenario(scenario: Scenario, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(scenario_to_json(scenario))


def scenario_with(scenario: Scenario, **overrides) -> Scenario:
    """Copy a scenario with field overrides (keeps config gamma in sync)."""
    if (
        "gamma" in overrides
        and scenario.learner_config is not None
        and "learner_config" not in overrides
    ):
        overrides["learner_config"] = replace(scenario.learner_config, gamma=overrides["gamma"])
    return replace(scenario, **overrides)
