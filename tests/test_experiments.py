import json
import re
import tracemalloc

import numpy as np
import pytest

import cache_rl as cr
from cache_rl.q_exact import BatchExactAgent
from cache_rl.q_linear import BatchLinearAgent, LinearParams
from cache_rl.simulate import realization_rng


def small_scenario(small_net, **overrides):
    g_chain, l_chain = small_net
    fields = dict(
        name="test",
        g_chain=g_chain,
        l_chain=l_chain,
        cache_size=2,
        gamma=0.8,
        lambda_schedule=cr.PiecewiseCostSchedule.constant(cr.CostParams(10, 600, 1000)),
        learner="exact",
        learner_config=cr.QLearnerConfig(),
        horizon=2000,
        realizations=3,
        base_seed=7,
    )
    fields.update(overrides)
    return cr.Scenario(**fields)


class TestPresets:
    def test_preset_weights_match_reference_settings(self):
        expected = {
            "s1": (10, 600, 1000),
            "s2": (600, 10, 1000),
            "s3": (10, 10, 1000),
            "s4": (0, 1000, 0),
            "s5": (0, 0, 1000),
            "s6": (60, 10, 10),
            "s7": (100, 20, 20),
            "s8": (0, 0, 1000),
            "s9": (0, 1000, 600),
        }
        assert set(cr.PRESET_PARAMS) == set(expected)
        for name, (l1, l2, l3) in expected.items():
            params = cr.PRESET_PARAMS[name]
            assert (params.lambda1, params.lambda2, params.lambda3) == (l1, l2, l3)

    def test_small_network_chain_construction(self, small_net):
        g_chain, l_chain = small_net
        np.testing.assert_allclose(g_chain.transition, [[0.8, 0.2], [0.75, 0.25]])
        np.testing.assert_allclose(l_chain.transition, [[0.6, 0.4], [0.2, 0.8]])
        # each state is a Zipf profile under some file ordering
        for chain, etas in ((g_chain, (1.0, 1.5)), (l_chain, (0.7, 2.5))):
            for state, eta in zip(chain.states, etas):
                expected_masses = np.sort(cr.zipf_profile(10, eta).probs)
                np.testing.assert_allclose(np.sort(state.probs), expected_masses, atol=1e-12)

    def test_preset_scenarios_build(self):
        for row in cr.list_presets():
            assert row["learner"] in ("exact", "linear")
        small = cr.preset_scenario("s1")
        assert small.catalog_size == 10 and small.cache_size == 2
        large = cr.preset_scenario("s7")
        assert large.catalog_size == 1000 and large.cache_size == 10
        assert large.g_chain.n_states == 50 and large.l_chain.n_states == 40
        dyn = cr.preset_scenario("dynamic")
        assert len(dyn.lambda_schedule.segments) == 2
        with pytest.raises(ValueError):
            cr.preset_scenario("s99")

    @pytest.mark.parametrize("learner", ["exact", "linear", "oracle-policy", "random-baseline"])
    def test_dynamic_preset_takes_every_learner(self, learner):
        sc = cr.preset_scenario("dynamic", learner=learner)
        expected = {"exact": cr.QLearnerConfig(), "linear": cr.LinearLearnerConfig()}
        assert sc.learner == learner
        assert sc.learner_config == expected.get(learner)
        assert (sc.horizon, sc.realizations, sc.cache_size) == (40_000, 100, 2)
        assert sc.lambda_schedule.segments == (
            (0, cr.PRESET_PARAMS["s4"]),
            (20_000, cr.PRESET_PARAMS["s5"]),
        )

    def test_scenario_json_round_trip(self, tmp_path):
        sc = cr.preset_scenario("s2", horizon=500, realizations=2)
        path = tmp_path / "scenario.json"
        cr.save_scenario(sc, path)
        back = cr.load_scenario(path)
        assert back.learner == sc.learner
        assert back.horizon == 500
        assert back.lambda_schedule == sc.lambda_schedule
        assert back.learner_config == sc.learner_config
        np.testing.assert_array_equal(back.g_chain.transition, sc.g_chain.transition)

    @pytest.mark.parametrize("learner", ["random-baseline", "oracle-policy"])
    @pytest.mark.parametrize("config", [cr.QLearnerConfig(), "junk"], ids=["config", "junk"])
    def test_config_less_learner_rejects_learner_config(self, learner, config):
        """A config that the learner would ignore, and that a scenario file would
        drop on loading, is refused like a config of the wrong kind."""
        sc = cr.preset_scenario("s1", horizon=50, learner=learner)
        with pytest.raises(ValueError, match=f"^{learner} learner takes no learner_config$"):
            cr.scenario_with(sc, learner_config=config)

    def test_scenario_validation(self, small_net):
        with pytest.raises(ValueError):
            small_scenario(small_net, learner="bogus", learner_config=None)
        with pytest.raises(ValueError):
            small_scenario(small_net, learner_config=cr.QLearnerConfig(gamma=0.5))
        with pytest.raises(ValueError):
            small_scenario(small_net, cache_size=11)
        # each bad value fails with one message, read from a file or passed in code
        for key, bad, message in (
            ("horizon", 50.9, "must be an integer"),
            ("cache_size", 2.7, "must be an integer"),
            ("realizations", True, "must be an integer"),
            ("horizon", "50", "must be an integer"),
            ("requests_per_slot", 2.5, "must be an integer"),
            ("gamma", "0.8", "must be a number"),
            ("learner", 5, "must be a string"),
            ("learner", [5], "must be a string"),
            ("name", "a\nb", "must not contain a line break"),
            ("name", "a\rb", "must not contain a line break"),
        ):
            doc = written_doc(small_scenario(small_net))
            doc[key] = bad
            with pytest.raises(ValueError, match=f"{key} {message}"):
                cr.scenario_from_json(json.dumps(doc))
            with pytest.raises(ValueError, match=f"{key} {message}"):
                small_scenario(small_net, **{key: bad})
        with pytest.raises(ValueError, match="requests_per_slot must be an integer"):
            cr.PopularityEnv(*small_net, requests_per_slot=2.5)
        for learner, key, bad, message in (
            ("exact", "epsilon", True, "must not be a boolean"),
            ("exact", "beta", True, "must not be a boolean"),
            ("linear", "alpha_g", True, "must not be a boolean"),
            ("exact", "beta", "0.8", "must be a number"),
            ("linear", "alpha_g", "0.005", "must be a number"),
            ("linear", "epsilon", "0.8", "must be a number"),
        ):
            doc = written_doc(cr.preset_scenario("s1", horizon=50, learner=learner))
            doc["learner_config"][key] = bad
            with pytest.raises(ValueError, match=f"{key} {message}"):
                cr.scenario_from_json(json.dumps(doc))
            config_cls = {"exact": cr.QLearnerConfig, "linear": cr.LinearLearnerConfig}[learner]
            with pytest.raises(ValueError, match=f"{key} {message}"):
                config_cls(**{key: bad})
        for chain, key, row, col, bad, message in (
            ("g_chain", "states", 0, 0, "0.1", "must hold numbers"),
            ("l_chain", "transition", 1, 1, "0.8", "must hold numbers"),
            ("g_chain", "states", 1, 0, True, "must hold numbers"),
            ("l_chain", "states", 0, 2, float("nan"), "entries must be finite"),
            ("g_chain", "transition", 0, 0, float("nan"), "entries must be finite"),
            ("l_chain", "transition", 0, 1, float("inf"), "entries must be finite"),
        ):
            doc = written_doc(small_scenario(small_net))
            doc[chain][key][row][col] = bad
            with pytest.raises(ValueError, match=f"{key} {message}"):
                cr.scenario_from_json(json.dumps(doc))
            with pytest.raises(ValueError, match=f"{key} {message}"):
                cr.MarkovChain(states=doc[chain]["states"], transition=doc[chain]["transition"])
        doc = written_doc(small_scenario(small_net))
        doc["lambda_schedule"][0]["lambda1"] = True
        with pytest.raises(ValueError, match="lambda1 must not be a boolean"):
            cr.scenario_from_json(json.dumps(doc))
        with pytest.raises(ValueError, match="lambda1 must not be a boolean"):
            cr.CostParams(True, 600, 1000)


class TestRunScenario:
    @pytest.mark.parametrize(
        "learner, oracle_compare",
        [("exact", False), ("oracle-policy", True), ("random-baseline", True)],
    )
    def test_error_slots_without_tracked_error_raise(self, learner, oracle_compare):
        sc = cr.preset_scenario("s1", horizon=20, realizations=1, learner=learner)
        with pytest.raises(ValueError, match="error_slots needs oracle_compare"):
            cr.run_scenario(sc, oracle_compare=oracle_compare, error_slots=[3, 5])

    def test_identical_seeds_average_equals_single(self, small_net, small_space):
        sc = small_scenario(small_net, horizon=800)

        def run(n_rngs):
            agent = BatchExactAgent(small_space, sc.learner_config)
            rngs = [realization_rng(4, 0) for _ in range(n_rngs)]
            return cr.simulate.run_lockstep(sc.env(), agent, sc.lambda_schedule, sc.horizon, rngs)

        avg, single = run(3), run(1)
        # identical trajectories; the mean of three equal doubles can differ
        # from the value by an ulp, hence the tight relative tolerance
        np.testing.assert_allclose(avg.avg_cost, single.avg_cost, rtol=1e-12)
        np.testing.assert_allclose(avg.hit_fraction, single.hit_fraction, rtol=1e-12)
        assert avg.cost_std.max() < 1e-3

    def test_oracle_policy_constant_cost_on_single_state(self):
        p = cr.PopularityProfile(np.array([0.6, 0.3, 0.1]))
        chain = cr.MarkovChain(states=(p,), transition=np.ones((1, 1)))
        sc = cr.Scenario(
            name="single",
            g_chain=chain,
            l_chain=chain,
            cache_size=1,
            gamma=0.8,
            lambda_schedule=cr.PiecewiseCostSchedule.constant(cr.CostParams(5, 100, 100)),
            learner="oracle-policy",
            learner_config=None,
            horizon=50,
            realizations=1,
            base_seed=0,
        )
        trace = cr.run_scenario(sc)
        # optimal: keep file 1 cached forever; cost 200 * 0.4 every slot
        np.testing.assert_allclose(trace.avg_cost, 80.0)

    def test_determinism_across_runs(self, small_net):
        sc = small_scenario(small_net, horizon=1500, realizations=4, learner="linear",
                            learner_config=cr.LinearLearnerConfig())
        a = cr.run_scenario(sc)
        b = cr.run_scenario(sc)
        np.testing.assert_array_equal(a.avg_cost, b.avg_cost)
        np.testing.assert_array_equal(a.run_avg_cost, b.run_avg_cost)
        np.testing.assert_array_equal(a.hit_fraction, b.hit_fraction)

    def test_single_realization_matches_run_exact(self, small_net):
        sc = small_scenario(small_net, horizon=500, realizations=1)
        trace = cr.run_scenario(sc)
        g_chain, l_chain = small_net
        env = cr.PopularityEnv(g_chain=g_chain, l_chain=l_chain)
        run = cr.run_exact(
            env, 2, sc.lambda_schedule, sc.learner_config, 500, realization_rng(sc.base_seed, 0)
        )
        np.testing.assert_array_equal(trace.avg_cost, run.trace.costs)

    def test_oracle_lower_bounds_learner(self, small_net, small_space):
        params = cr.CostParams(10, 10, 1000)
        optimal = cr.policy_iteration(small_space, 0.8, params)
        oracle_avg = cr.long_run_average_cost(small_space, optimal.policy, params)
        sc = small_scenario(
            small_net,
            lambda_schedule=cr.PiecewiseCostSchedule.constant(params),
            learner="linear",
            learner_config=cr.LinearLearnerConfig(),
            horizon=20_000,
            realizations=50,
        )
        trace = cr.run_scenario(sc)
        burn = sc.horizon // 4
        sem = trace.cost_std / np.sqrt(sc.realizations)
        assert np.all(trace.run_avg_cost[burn:] + 2 * sem[burn:] >= oracle_avg)

    def test_lambda_boundary_is_exact(self):
        p = cr.PopularityProfile(np.array([0.6, 0.4]))
        chain = cr.MarkovChain(states=(p,), transition=np.ones((1, 1)))
        schedule = cr.PiecewiseCostSchedule(
            segments=((0, cr.CostParams(0, 100, 0)), (25, cr.CostParams(0, 300, 0)))
        )
        sc = cr.Scenario(
            name="switch",
            g_chain=chain,
            l_chain=chain,
            cache_size=1,
            gamma=0.8,
            lambda_schedule=schedule,
            learner="oracle-policy",
            learner_config=None,
            horizon=50,
            realizations=1,
            base_seed=0,
        )
        with pytest.raises(ValueError):
            cr.run_scenario(sc)  # oracle needs constant weights
        sc = cr.scenario_with(sc, learner="random-baseline")
        trace = cr.run_scenario(sc)
        # single-file cache over two files: random action keeps the cached
        # mass at 0.6 or 0.4, so the cost is lambda2 * uncached exactly
        assert set(np.round(trace.avg_cost[:25], 9)) <= {40.0, 60.0}
        assert set(np.round(trace.avg_cost[25:], 9)) <= {120.0, 180.0}

    def test_empirical_mode_runs_and_matches_state_mode_with_many_requests(self, small_net):
        sc_state = small_scenario(small_net, horizon=4000, realizations=4)
        sc_emp = small_scenario(
            small_net,
            horizon=4000,
            realizations=4,
            request_mode="empirical",
            requests_per_slot=20_000,
        )
        a = cr.run_scenario(sc_state)
        b = cr.run_scenario(sc_emp)
        # with huge request batches the empirical profile pins the true state,
        # so long-run averages agree closely (draws differ, costs fluctuate)
        assert abs(a.run_avg_cost[-1] - b.run_avg_cost[-1]) / a.run_avg_cost[-1] < 0.05

    def test_empirical_mode_small_batches_quantize(self, small_net):
        sc = small_scenario(
            small_net, horizon=500, realizations=1, request_mode="empirical", requests_per_slot=5
        )
        trace = cr.run_scenario(sc)
        assert np.isfinite(trace.avg_cost).all()
        assert np.all((trace.hit_fraction >= 0) & (trace.hit_fraction <= 1))
        # realized count ratios are multiples of 1/5
        np.testing.assert_allclose((trace.hit_fraction * 5) % 1, 0, atol=1e-9)


class TestAgentContract:
    """``run_lockstep`` asks an agent for ``normalized_error`` (with
    ``error_slots``) and ``trace_epsilon``/``trace_beta`` (with
    ``collect_trace``) only if it has them, and says so before the first slot."""

    @staticmethod
    def run(agent, **options):
        sc = cr.preset_scenario("s1", horizon=5, realizations=1)
        rngs = [realization_rng(0, 0)]
        return cr.simulate.run_lockstep(sc.env(), agent, sc.lambda_schedule, 5, rngs, **options)

    @pytest.mark.parametrize("kind", ["random-baseline", "oracle-policy"])
    @pytest.mark.parametrize(
        "options, method",
        [(dict(collect_trace=True), "trace_epsilon"), (dict(error_slots=[2]), "normalized_error")],
    )
    def test_non_learner_rejected_before_first_select(self, small_space, kind, options, method):
        if kind == "random-baseline":
            agent = cr.simulate.RandomBaselineAgent(10, 2)
        else:
            agent = cr.simulate.OraclePolicyAgent(small_space, np.zeros(180, dtype=np.int64))
        selected = []
        select = agent.select
        agent.select = lambda *args: selected.append(1) or select(*args)
        name = type(agent).__name__
        with pytest.raises(ValueError, match=f"needs {method}\\(\\), which {name} lacks"):
            self.run(agent, **options)
        assert selected == []

    @pytest.mark.parametrize("kind", ["random-baseline", "linear", "exact"])
    def test_catalog_mismatch_rejected_before_begin(self, small_space, kind):
        """A 12-file agent on the 10-file network, or a 10-file tabular agent
        on a 12-file network."""
        sc = cr.preset_scenario("s1", horizon=5, realizations=1)
        env, f = sc.env(), 12
        if kind == "random-baseline":
            agent = cr.simulate.RandomBaselineAgent(12, 2)
        elif kind == "linear":
            agent = BatchLinearAgent(2, 2, 12, 2, cr.LinearLearnerConfig())
        else:
            agent = BatchExactAgent(small_space, cr.QLearnerConfig())
            env, f = cr.PopularityEnv(*cr.small_network_chains(12)), 10
        begun = []
        agent.begin = begun.append
        message = f"^{type(agent).__name__}.f must be {env.catalog_size}, got {f}$"
        with pytest.raises(ValueError, match=message):
            cr.simulate.run_lockstep(env, agent, sc.lambda_schedule, 5, [realization_rng(0, 0)])
        assert begun == []

    @pytest.mark.parametrize("chain", ["n_g", "n_l"])
    @pytest.mark.parametrize("kind", ["linear", "exact", "oracle-policy"])
    def test_chain_size_mismatch_rejected_before_begin(self, small_space, kind, chain):
        """An agent of the 2x2 small network on a network whose global (or
        local) chain has 3 states, with the same 10 files."""
        g_chain, l_chain = small_space.g_chain, small_space.l_chain
        three = cr.random_chain(3, 10, np.random.default_rng(0))
        env = cr.PopularityEnv(*((three, l_chain) if chain == "n_g" else (g_chain, three)))
        if kind == "linear":
            agent = BatchLinearAgent(2, 2, 10, 2, cr.LinearLearnerConfig())
        elif kind == "exact":
            agent = BatchExactAgent(small_space, cr.QLearnerConfig())
        else:
            agent = cr.simulate.OraclePolicyAgent(small_space, np.zeros(180, dtype=np.int64))
        begun = []
        agent.begin = begun.append
        sc = cr.preset_scenario("s1", horizon=5, realizations=1)
        with pytest.raises(ValueError, match=f"^{type(agent).__name__}.{chain} must be 3, got 2$"):
            cr.simulate.run_lockstep(env, agent, sc.lambda_schedule, 5, [realization_rng(0, 0)])
        assert begun == []

    @pytest.mark.parametrize("size, own, value", [("catalog_size", 10, 12), ("cache_size", 2, 3)])
    @pytest.mark.parametrize("kind", ["exact", "oracle-policy"])
    def test_space_mismatch_rejected_before_begin(self, small_net, kind, size, own, value):
        """An agent whose own f and m are the 10-file network's F and M = 2,
        but whose space has 12 files, or caches 3."""
        chains = cr.small_network_chains(12) if size == "catalog_size" else small_net
        space = cr.StateSpace(*chains, 3 if size == "cache_size" else 2)
        if kind == "exact":
            agent = BatchExactAgent(space, cr.QLearnerConfig())
        else:
            agent = cr.simulate.OraclePolicyAgent(space, np.zeros(space.n_states, dtype=np.int64))
        agent.f, agent.m = 10, 2
        begun = []
        agent.begin = begun.append
        message = f"^{type(agent).__name__}.space.{size} must be {own}, got {value}$"
        with pytest.raises(ValueError, match=message):
            self.run(agent)
        assert begun == []

    @pytest.mark.parametrize(
        "options, message",
        [
            (dict(windows=((2, 6),)), r"^window \(2, 6\) does not fit in \[0, 5\)$"),
            (dict(error_slots=[1, 5]), r"^error slot must lie in \[0, 5\), got 5$"),
            (dict(collect_trace=True), "^traces are collected for single realizations only$"),
        ],
        ids=["window", "error-slot", "trace"],
    )
    def test_bad_option_rejected_before_begin(self, small_space, options, message):
        """A window or error slot past the horizon, or a trace of two realizations."""
        agent = BatchExactAgent(small_space, cr.QLearnerConfig())
        begun = []
        agent.begin = begun.append
        sc = cr.preset_scenario("s1", horizon=5, realizations=2)
        rngs = [realization_rng(0, r) for r in range(2)]
        with pytest.raises(ValueError, match=message):
            cr.simulate.run_lockstep(sc.env(), agent, sc.lambda_schedule, 5, rngs, **options)
        assert begun == []

    @pytest.mark.parametrize("kind", ["exact", "linear"])
    def test_learner_without_error_reference(self, small_space, kind):
        if kind == "exact":
            agent = BatchExactAgent(small_space, cr.QLearnerConfig())
        else:
            agent = BatchLinearAgent(2, 2, 10, 2, cr.LinearLearnerConfig())
        begun = []
        agent.begin = begun.append
        with pytest.raises(ValueError, match="call set_error_reference"):
            self.run(agent, error_slots=[2])
        assert begun == []

    @pytest.mark.parametrize(
        "kind, message",
        [
            ("exact-f12", "^BatchExactAgent reference space f must be 10, got 12$"),
            ("linear-1x4", "^BatchLinearAgent reference space n_g must be 1, got 2$"),
            ("exact-shape", r"^Q table must be 180x45, got \(180, 44\)$"),
        ],
    )
    def test_foreign_reference_rejected(self, small_space, kind, message):
        """The F = 12 network's Q* for a 10-file tabular learner, the 2x2
        space's Q* for a learner of a 1x4 network, and a Q* of the wrong shape."""
        qstar, space = np.ones((180, 45)), small_space
        if kind == "exact-f12":
            agent = BatchExactAgent(small_space, cr.QLearnerConfig())
            space = cr.StateSpace(*cr.small_network_chains(12), 2)
            qstar = np.ones((space.n_states, space.n_actions))
        elif kind == "linear-1x4":
            agent = BatchLinearAgent(1, 4, 10, 2, cr.LinearLearnerConfig())
        else:
            agent = BatchExactAgent(small_space, cr.QLearnerConfig())
            qstar = np.ones((180, 44))
        with pytest.raises(ValueError, match=message):
            agent.set_error_reference(qstar, space)

    @pytest.mark.parametrize("kind", ["exact", "linear"])
    @pytest.mark.parametrize(
        "entry, norm", [(np.nan, "nan"), (np.inf, "inf"), (-np.inf, "inf"), (1e200, "inf"), (0.0, "0.0")]
    )
    def test_bad_reference_rejected_when_set(self, small_space, kind, entry, norm):
        """A non-finite, overflowing or all-zero Q* raises at set time, so no
        run starts (the parent gave NaN errors, or raised at the first snapshot)."""
        if kind == "exact":
            agent = BatchExactAgent(small_space, cr.QLearnerConfig())
        else:
            agent = BatchLinearAgent(2, 2, 10, 2, cr.LinearLearnerConfig())
        begun = []
        agent.begin = begun.append
        qstar = np.zeros((180, 45)) if entry == 0.0 else np.ones((180, 45))
        qstar[3, 4] = entry
        message = f"^Q\\* reference must have a finite nonzero norm, got {norm}$"
        with pytest.raises(ValueError, match=message):
            agent.set_error_reference(qstar, small_space)
            self.run(agent, error_slots=[2])
        assert begun == []
        with pytest.raises(ValueError, match="call set_error_reference"):
            agent.error_reference()

    def test_linear_q_of_another_network_rejected(self, small_space):
        """Parameters of a 1x4 network measured on the 2x2 space."""
        params = LinearParams.zeros(1, 4, 10)
        with pytest.raises(ValueError, match="^theta_g rows must be 2, got 1$"):
            cr.normalized_q_error(params, np.ones((180, 45)), small_space)
        with pytest.raises(ValueError, match="^theta_l rows must be 2, got 4$"):
            cr.linear_q_matrix(LinearParams.zeros(2, 4, 10), small_space)
        with pytest.raises(ValueError, match="^parameter catalog size must be 10, got 12$"):
            cr.linear_q_matrix(LinearParams.zeros(2, 2, 12), small_space)

    def test_cost_params_is_the_constant_schedule(self, small_space):
        params = cr.CostParams(10, 600, 1000)

        def avg_cost(cost_schedule):
            agent = BatchExactAgent(small_space, cr.QLearnerConfig())
            env = cr.PopularityEnv(*cr.small_network_chains())
            rngs = [realization_rng(3, r) for r in range(2)]
            return cr.simulate.run_lockstep(env, agent, cost_schedule, 300, rngs).avg_cost

        expected = avg_cost(cr.PiecewiseCostSchedule.constant(params))
        np.testing.assert_array_equal(avg_cost(params), expected)

    def test_non_schedule_rejected_before_begin(self):
        agent = cr.simulate.RandomBaselineAgent(10, 2)
        begun = []
        agent.begin = begun.append
        env = cr.PopularityEnv(*cr.small_network_chains())
        with pytest.raises(TypeError, match="^not a cost schedule: 'x'$"):
            cr.simulate.run_lockstep(env, agent, "x", 5, [realization_rng(0, 0)])
        assert begun == []


class TestOneRecord:
    """``run_lockstep`` returns the :class:`MetricsTrace` that ``run_scenario``
    hands back with the scenario's fields added."""

    HORIZON = 400
    ERROR_SLOTS = [49, 199, 399]
    WINDOWS = ((100, 300),)

    def engine_run(self, sc, small_space):
        oracle = cr.policy_iteration(small_space, sc.gamma, sc.lambda_schedule.segments[0][1])
        agent = BatchExactAgent(small_space, sc.learner_config)
        agent.set_error_reference(oracle.q, small_space)
        rngs = [realization_rng(sc.base_seed, r) for r in range(sc.realizations)]
        return cr.simulate.run_lockstep(
            sc.env(), agent, sc.lambda_schedule, sc.horizon, rngs,
            windows=self.WINDOWS, error_slots=self.ERROR_SLOTS,
        )

    def test_run_lockstep_returns_the_metrics_trace(self, small_net, small_space):
        sc = small_scenario(small_net, horizon=self.HORIZON)
        result = self.engine_run(sc, small_space)
        assert type(result) is cr.MetricsTrace
        assert result.horizon == self.HORIZON and result.realizations == 3
        expected = np.cumsum(result.avg_cost) / np.arange(1, self.HORIZON + 1)
        np.testing.assert_array_equal(result.run_avg_cost, expected)
        np.testing.assert_array_equal(result.error_slots, self.ERROR_SLOTS)
        assert result.norm_error.shape == (3,) and np.isfinite(result.norm_error).all()
        assert result.window_cost.shape == (3, 1)
        assert (result.base_seed, result.gamma, result.learner, result.metadata) == (None,) * 4

    def test_run_scenario_adds_only_the_scenario_fields(self, small_net, small_space):
        sc = small_scenario(small_net, horizon=self.HORIZON)
        engine = self.engine_run(sc, small_space)
        trace = cr.run_scenario(
            sc, oracle_compare=True, error_slots=self.ERROR_SLOTS, windows=self.WINDOWS
        )
        for name in (
            "avg_cost", "run_avg_cost", "hit_fraction", "cost_std",
            "window_cost", "window_hit", "error_slots", "norm_error",
        ):
            np.testing.assert_array_equal(getattr(trace, name), getattr(engine, name), err_msg=name)
        assert trace.realizations == engine.realizations and trace.trace is None
        assert (trace.base_seed, trace.gamma, trace.learner) == (7, 0.8, "exact")
        assert trace.oracle_average_cost is not None and trace.metadata["scenario"] == "test"


class TestMetricsHelpers:
    def test_cache_hit_fraction_examples(self):
        p = cr.PopularityProfile(np.array([0.5, 0.3, 0.2]))
        full = cr.CacheAction(files=(1, 2, 3), catalog_size=3)
        assert cr.cache_hit_fraction(full, p) == pytest.approx(1.0)
        top2 = cr.CacheAction(files=(1, 2), catalog_size=3)
        assert cr.cache_hit_fraction(top2, p) == pytest.approx(0.8)
        p_disjoint = cr.PopularityProfile(np.array([0.0, 0.0, 1.0]))
        assert cr.cache_hit_fraction(top2, p_disjoint) == 0.0

    def test_normalized_q_error_examples(self, small_space):
        rng = np.random.default_rng(0)
        q_star = rng.uniform(1, 5, size=(small_space.n_states, small_space.n_actions))
        assert cr.normalized_q_error(q_star, q_star) == 0.0
        assert cr.normalized_q_error(np.zeros_like(q_star), q_star) == pytest.approx(1.0)
        assert cr.normalized_q_error(2 * q_star, q_star) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            cr.normalized_q_error(q_star, np.zeros_like(q_star))

    @pytest.mark.parametrize(
        "q, q_star, message",
        [
            (np.ones((2, 2)), np.full((2, 2), np.nan), "reference Q table must have a finite nonzero norm"),
            (np.full((2, 2), np.inf), np.ones((2, 2)), r"\|\|Q - Q\*\|\|_F must be finite"),
        ],
        ids=["nan-ref", "inf-q"],
    )
    def test_normalized_q_error_rejects_non_finite_tables(self, q, q_star, message):
        with pytest.raises(ValueError, match=message):
            cr.normalized_q_error(q, q_star)

    def test_normalized_q_error_rejects_non_finite_reference_for_params(self, small_space):
        q_star = np.ones((small_space.n_states, small_space.n_actions))
        q_star[3, 4] = np.nan
        with pytest.raises(ValueError, match="reference Q table must have a finite nonzero norm, got nan"):
            cr.normalized_q_error(LinearParams.zeros(2, 2, 10), q_star, small_space)

    def test_normalized_q_error_materializes_linear_params(self, small_space):
        rng = np.random.default_rng(1)
        params = LinearParams(
            theta_g=rng.normal(size=(2, 10)),
            theta_l=rng.normal(size=(2, 10)),
            theta_r=float(rng.normal()),
        )
        q = cr.linear_q_matrix(params, small_space)
        assert q.shape == (small_space.n_states, small_space.n_actions)
        s = small_space.state_index(1, 0, 7)
        state = small_space.system_state(s)
        a = small_space.actions.action(13)
        assert q[s, 13] == pytest.approx(cr.q_hat(params, state, a))
        assert cr.normalized_q_error(params, q, small_space) == pytest.approx(0.0, abs=1e-12)

    def test_random_baseline_uniform(self):
        space = cr.enumerate_actions(4, 2)
        rng = np.random.default_rng(2)
        n = 1_000_000
        counts = np.bincount(
            [cr.random_baseline_action(space, rng) for _ in range(n)], minlength=6
        )
        np.testing.assert_allclose(counts / n, 1 / 6, atol=0.01)

    def test_engine_subset_sampler_uniform(self):
        draws = cr.simulate.UniformActionDraws(4, 2)
        n = 1_000_000
        draws.draw([np.random.default_rng(2)], n)
        files = np.sort(draws.files[:, 0], axis=1)
        counts = np.bincount(files[:, 0] * 4 + files[:, 1], minlength=16)
        # the six pairs (a, b) with a < b hold every draw, each about 1/6 of them
        pairs = counts[[1, 2, 3, 6, 7, 11]]
        assert pairs.sum() == n
        np.testing.assert_allclose(pairs / n, 1 / 6, atol=0.01)

    def test_engine_subset_draws_beyond_uint8(self):
        # F = 300 files need uint16; the row blocks continue one stream
        f, m, n, seeds = 300, 3, cr.simulate.DRAW_ROWS + 44, (8, 9)
        draws = cr.simulate.UniformActionDraws(f, m)
        draws.draw([np.random.default_rng(s) for s in seeds], n)
        assert draws.files.dtype == np.uint16 and draws.files.max() > 255
        for r, seed in enumerate(seeds):
            u = np.random.default_rng(seed).random((n, f))
            np.testing.assert_array_equal(draws.files[:, r], cr.simulate.uniform_subsets(u, m))

    def test_random_baseline_edge_and_reproducible(self):
        full = cr.enumerate_actions(3, 3)
        assert cr.random_baseline_action(full, np.random.default_rng(0)) == 0
        space = cr.enumerate_actions(9, 3)
        a = [cr.random_baseline_action(space, np.random.default_rng(5)) for _ in range(10)]
        b = [cr.random_baseline_action(space, np.random.default_rng(5)) for _ in range(10)]
        assert a == b

    def test_random_baseline_never_enumerates(self, monkeypatch):
        space = cr.enumerate_actions(1000, 10)
        def boom(self):
            raise AssertionError("materialized the action space")
        monkeypatch.setattr(cr.ActionSpace, "files_array", boom)
        monkeypatch.setattr(cr.ActionSpace, "mask_matrix", boom)
        idx = cr.random_baseline_action(space, np.random.default_rng(3))
        assert 0 <= idx < space.size


class TestEngineMemory:
    def test_empirical_requests_are_compact_counts(self, small_net):
        """A 1000-slot chunk of empirical requests at R = 200 and F = 10 is a
        uint8 (n, R, F) table of counts, 1.9 MiB, which each slot divides into
        one float64 (R, F) buffer. With the rest of the chunk (chain uniforms
        and paths, the random agent's file draws) the peak is about 6.3 MiB. A
        float64 (n, R, F) table of the chunk's fractions alone takes 15.3 MiB,
        so the peak stays below half of one only if none is built."""
        env = cr.simulate.PopularityEnv(*small_net, request_mode="empirical")
        agent = cr.simulate.RandomBaselineAgent(10, 2)
        rngs = [realization_rng(11, r) for r in range(200)]
        fractions = 8 * 1000 * 200 * 10
        tracemalloc.start()
        try:
            cr.simulate.run_lockstep(env, agent, cr.CostParams(10, 600, 1000), 1000, rngs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < fractions / 2


class TestExportMetrics:
    def test_header_and_row_count(self, small_net, tmp_path):
        sc = small_scenario(small_net, horizon=2, realizations=2)
        trace = cr.run_scenario(sc)
        path = tmp_path / "metrics.csv"
        cr.export_metrics(trace, path)
        lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
        assert lines[0] == "slot,avg_cost,run_avg_cost,hit_fraction"
        assert len(lines) == 3

    def test_round_trip_bit_exact(self, small_net, tmp_path):
        sc = small_scenario(small_net, horizon=50, realizations=3)
        trace = cr.run_scenario(sc)
        path = tmp_path / "metrics.csv"
        cr.export_metrics(trace, path)
        metadata, cols = cr.read_metrics(path)
        assert metadata["learner"] == "exact"
        np.testing.assert_array_equal(cols["avg_cost"], trace.avg_cost)
        np.testing.assert_array_equal(cols["run_avg_cost"], trace.run_avg_cost)
        np.testing.assert_array_equal(cols["hit_fraction"], trace.hit_fraction)

    def test_norm_error_column_iff_oracle_compare(self, small_net, tmp_path):
        sc = small_scenario(small_net, horizon=40, realizations=2)
        plain = cr.run_scenario(sc)
        compared = cr.run_scenario(sc, oracle_compare=True)
        p1, p2 = tmp_path / "plain.csv", tmp_path / "compared.csv"
        cr.export_metrics(plain, p1)
        cr.export_metrics(compared, p2)
        _, cols1 = cr.read_metrics(p1)
        meta2, cols2 = cr.read_metrics(p2)
        assert "norm_error" not in cols1
        assert "norm_error" in cols2
        assert meta2["norm_error_metric"] == "relative_frobenius"
        assert "oracle_average_cost" in meta2
        # zero-initialized learner starts at relative error 1
        assert cols2["norm_error"][0] <= 1.0
        assert cols2["norm_error"][-1] < 1.0

    def test_unwritable_path_raises_with_context(self, small_net, tmp_path):
        sc = small_scenario(small_net, horizon=2, realizations=1)
        trace = cr.run_scenario(sc)
        bad = tmp_path / "missing-dir" / "metrics.csv"
        with pytest.raises(OSError) as err:
            cr.export_metrics(trace, bad)
        assert "metrics" in str(err.value)


class TestWindows:
    def test_window_means_match_trace_segments(self, small_net):
        sc = small_scenario(small_net, horizon=1000, realizations=1)
        windows = ((100, 300), (800, 1000))
        trace = cr.run_scenario(sc, windows=windows)
        np.testing.assert_allclose(trace.window_cost[0, 0], trace.avg_cost[100:300].mean())
        np.testing.assert_allclose(trace.window_cost[0, 1], trace.avg_cost[800:1000].mean())
        np.testing.assert_allclose(trace.window_hit[0, 0], trace.hit_fraction[100:300].mean())

    def test_invalid_window_rejected(self, small_net):
        sc = small_scenario(small_net, horizon=100, realizations=1)
        with pytest.raises(ValueError):
            cr.run_scenario(sc, windows=((50, 200),))


SCALAR_KEYS = {
    "name",
    "cache_size",
    "gamma",
    "learner",
    "horizon",
    "realizations",
    "base_seed",
    "request_mode",
    "requests_per_slot",
}


def written_doc(scenario):
    return json.loads(cr.scenario_to_json(scenario))


# Values of each JSON type, with a falsy one where the type has one, so that
# none of them can pass for an absent key.
JSON_VALUES = {
    "number": (5, 0),
    "string": ("x", ""),
    "list": ([5], []),
    "object": ({},),
    "bool": (True, False),
    "null": (None,),
}
# Each nested level of a scenario document: the JSON types it may hold (null
# where the key is optional), and how the error for any other type begins.
DOCUMENT_LEVELS = {
    "scenario": (("object",), "scenario must be a Scenario document (a JSON object), got "),
    "g_chain": (("object",), "g_chain must be a MarkovChain document (a JSON object), got "),
    "l_chain": (("object",), "l_chain must be a MarkovChain document (a JSON object), got "),
    "lambda_schedule": (("list",), "lambda_schedule must be a list of CostParams documents, got "),
    "segment": (("object",), "lambda_schedule segment must be a CostParams document"),
    "learner_config": (("object", "null"), "learner_config must be a LinearLearnerConfig document"),
    "epsilon": (("number", "object", "null"), "epsilon must "),
}
WRONG_TYPED = [
    pytest.param(level, value, id=f"{level}-{json.dumps(value)}")
    for level, (types, _) in DOCUMENT_LEVELS.items()
    for kind, values in JSON_VALUES.items()
    if kind not in types
    for value in values
]


class TestScenarioFileFormat:
    """The scenario file format, pinned as literal documents."""

    SMALL_LINEAR = {"alpha_g": 0.005, "alpha_l": 0.005, "alpha_r": 0.005, "epsilon": 0.05}

    @pytest.mark.parametrize(
        "preset, learner, expected",
        [
            ("s1", None, {"beta": 0.8, "epsilon": 0.05}),
            ("s1", "linear", SMALL_LINEAR),
            ("s4", None, SMALL_LINEAR),
            ("dynamic", None, SMALL_LINEAR),
            (
                "s7",
                None,
                {
                    "alpha_g": 0.0005,
                    "alpha_l": 0.0005,
                    "alpha_r": 0.0005,
                    "epsilon": {"kind": "explore_then_inverse", "t_explore": 200},
                },
            ),
            ("s1", "oracle-policy", None),
            ("s2", "random-baseline", None),
        ],
    )
    def test_learner_config_documents(self, preset, learner, expected):
        sc = cr.preset_scenario(preset, horizon=1000, realizations=2, learner=learner)
        doc = written_doc(sc)
        assert SCALAR_KEYS | {"g_chain", "l_chain", "lambda_schedule"} <= set(doc)
        assert doc.get("learner_config") == expected
        assert doc["gamma"] == 0.8 and doc["horizon"] == 1000 and doc["realizations"] == 2
        back = cr.scenario_from_json(json.dumps(doc))
        assert back.learner_config == sc.learner_config
        assert back.lambda_schedule == sc.lambda_schedule

    @pytest.mark.parametrize(
        "beta, epsilon, expected",
        [
            (cr.VisitCountBeta(), cr.InverseTimeEpsilon(), {
                "beta": {"kind": "visit_count"}, "epsilon": {"kind": "inverse_time"}}),
            (0.5, cr.ExploreThenExploit(5), {
                "beta": 0.5, "epsilon": {"kind": "explore_then_exploit", "t_explore": 5}}),
            (0.25, cr.ExploreThenInverseDecay(9), {
                "beta": 0.25, "epsilon": {"kind": "explore_then_inverse", "t_explore": 9}}),
            (1.0, cr.ConstantEpsilon(0.2), {"beta": 1.0, "epsilon": 0.2}),
        ],
    )
    def test_schedule_documents(self, small_net, beta, epsilon, expected):
        config = cr.QLearnerConfig(beta=beta, epsilon=epsilon, gamma=0.8)
        sc = small_scenario(small_net, learner_config=config)
        doc = written_doc(sc)
        assert doc["learner_config"] == expected
        assert cr.scenario_from_json(json.dumps(doc)).learner_config == config

    def test_cost_schedule_document(self):
        sc = cr.preset_scenario("dynamic", horizon=100)
        assert written_doc(sc)["lambda_schedule"] == [
            {"start": 0, "lambda1": 0, "lambda2": 1000, "lambda3": 0},
            {"start": 50, "lambda1": 0, "lambda2": 0, "lambda3": 1000},
        ]

    def test_scalars_and_chains(self, small_net):
        sc = small_scenario(small_net, request_mode="empirical", requests_per_slot=7)
        doc = written_doc(sc)
        assert {k: doc[k] for k in SCALAR_KEYS} == {
            "name": "test",
            "cache_size": 2,
            "gamma": 0.8,
            "learner": "exact",
            "horizon": 2000,
            "realizations": 3,
            "base_seed": 7,
            "request_mode": "empirical",
            "requests_per_slot": 7,
        }
        g_chain, _ = small_net
        assert doc["g_chain"] == {
            "states": [s.probs.tolist() for s in g_chain.states],
            "transition": g_chain.transition.tolist(),
        }

    @pytest.mark.parametrize(
        "level, key, cls",
        [
            ("scenario", "horizn", "Scenario"),
            ("learner_config", "alpha", "LinearLearnerConfig"),
            ("learner_config", "gamma", "LinearLearnerConfig"),  # the scenario's gamma wins
            ("lambda_schedule", "lamda1", "CostParams"),
            ("epsilon", "bogus", "ExploreThenExploit"),
        ],
    )
    def test_unknown_key_rejected(self, small_net, level, key, cls):
        config = cr.LinearLearnerConfig(epsilon=cr.ExploreThenExploit(5))
        doc = written_doc(small_scenario(small_net, learner="linear", learner_config=config))
        target = {
            "scenario": doc,
            "learner_config": doc["learner_config"],
            "lambda_schedule": doc["lambda_schedule"][0],
            "epsilon": doc["learner_config"]["epsilon"],
        }[level]
        target[key] = 1
        with pytest.raises(ValueError, match=f"^unexpected key '{key}' in a {cls} document$"):
            cr.scenario_from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "level, key, cls",
        [
            ("scenario", "g_chain", "Scenario"),
            ("scenario", "learner", "Scenario"),
            ("scenario", "horizon", "Scenario"),
            ("g_chain", "transition", "MarkovChain"),
            ("lambda_schedule", "start", "CostParams"),
            ("lambda_schedule", "lambda2", "CostParams"),
            ("epsilon", "t_explore", "ExploreThenExploit"),
        ],
    )
    def test_missing_key_rejected(self, small_net, level, key, cls):
        config = cr.LinearLearnerConfig(epsilon=cr.ExploreThenExploit(5))
        doc = written_doc(small_scenario(small_net, learner="linear", learner_config=config))
        target = {
            "scenario": doc,
            "g_chain": doc["g_chain"],
            "lambda_schedule": doc["lambda_schedule"][0],
            "epsilon": doc["learner_config"]["epsilon"],
        }[level]
        del target[key]
        with pytest.raises(ValueError, match=f"^missing key '{key}' in a {cls} document$"):
            cr.scenario_from_json(json.dumps(doc))

    @pytest.mark.parametrize("level, value", WRONG_TYPED)
    def test_wrong_json_type_names_its_key(self, small_net, level, value):
        config = cr.LinearLearnerConfig(epsilon=cr.ExploreThenExploit(5))
        doc = written_doc(small_scenario(small_net, learner="linear", learner_config=config))
        if level == "scenario":
            doc = value
        else:
            target, key = {
                "segment": (doc["lambda_schedule"], 0),
                "epsilon": (doc["learner_config"], "epsilon"),
            }.get(level, (doc, level))
            target[key] = value
        message = DOCUMENT_LEVELS[level][1]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            cr.scenario_from_json(json.dumps(doc))

    def test_config_of_a_learner_that_takes_none_rejected(self, small_net):
        doc = written_doc(small_scenario(small_net, learner="random-baseline", learner_config=None))
        doc["learner_config"] = {"alpha_g": 0.1}
        with pytest.raises(ValueError, match="^random-baseline learner takes no learner_config$"):
            cr.scenario_from_json(json.dumps(doc))

    def test_missing_optional_fields_take_the_defaults(self, small_net):
        doc = written_doc(small_scenario(small_net))
        for key in ("name", "request_mode", "requests_per_slot"):
            del doc[key]
        doc["learner_config"] = {}
        back = cr.scenario_from_json(json.dumps(doc))
        assert back.name == "custom"
        assert back.request_mode == "state" and back.requests_per_slot == 100
        assert back.learner_config == cr.QLearnerConfig()
        # so do a null and an absent learner_config; other falsy values fail (above)
        doc["learner_config"] = None
        assert cr.scenario_from_json(json.dumps(doc)).learner_config == cr.QLearnerConfig()
        del doc["learner_config"]
        assert cr.scenario_from_json(json.dumps(doc)).learner_config == cr.QLearnerConfig()
