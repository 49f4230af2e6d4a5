"""Reinforcement-learning cache management under Markov popularity dynamics.

A small basestation holds M of F catalog files; local and global content
popularity each follow a finite Markov chain. The package provides the slot
cost model, an exact policy-iteration solver for the joint MDP, a tabular
Q-learner, a scalable linear-approximation Q-learner whose greedy action is
a top-M partition, and a Monte Carlo experiment harness with CSV export.
"""

from .caching_core import (
    ActionSpace,
    CacheAction,
    CostParams,
    SystemState,
    aggregate_cost,
    enumerate_actions,
    expected_cost,
    mismatch_cost,
    refresh_cost,
)
from .experiments import (
    MetricsTrace,
    PRESET_PARAMS,
    Scenario,
    cache_hit_fraction,
    export_metrics,
    large_network_chains,
    list_presets,
    load_scenario,
    normalized_q_error,
    preset_scenario,
    random_baseline_action,
    read_metrics,
    run_scenario,
    save_scenario,
    scenario_from_json,
    scenario_to_json,
    scenario_with,
    small_network_chains,
)
from .mdp_oracle import (
    PolicyIterationResult,
    StateSpace,
    bellman_optimality_residual,
    export_policy_csv,
    export_qtable_csv,
    long_run_average_cost,
    policy_evaluation,
    policy_improvement,
    policy_iteration,
    q_from_value,
    transition_prob,
)
from .popularity import (
    MarkovChain,
    PopularityProfile,
    RequestBatch,
    estimate_empirical,
    quantize_to_state,
    random_chain,
    sample_requests,
    step_chain,
    total_variation,
    zipf_profile,
)
from .q_exact import ExactQLearner, ExactRunResult, QLearnerConfig, run_exact
from .q_linear import (
    LinearLearnerConfig,
    LinearParams,
    LinearRunResult,
    greedy_top_m,
    linear_q_matrix,
    linear_td_error,
    psi,
    q_hat,
    run_linear,
    sgd_update,
)
from .schedules import (
    ConstantEpsilon,
    ExploreThenExploit,
    ExploreThenInverseDecay,
    InverseTimeEpsilon,
    PiecewiseCostSchedule,
    VisitCountBeta,
)
from .simulate import DivergenceError, PopularityEnv, RunTrace, realization_rng

__version__ = "0.1.0"
