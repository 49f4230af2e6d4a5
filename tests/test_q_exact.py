import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cache_rl as cr
from cache_rl import mdp_oracle
from cache_rl.caching_core import aggregate_cost
from cache_rl.mdp_oracle import relative_q_error
from cache_rl.q_exact import BatchExactAgent
from cache_rl.schedules import ExploreThenInverseDecay, VisitCountBeta
from cache_rl.simulate import CHUNK, realization_rng
from oracles_util import LoopExactLearner, loop_slot_cost, traced_peak


def make_learner(space, **kwargs):
    defaults = dict(beta=0.8, epsilon=0.05, gamma=0.8)
    defaults.update(kwargs)
    return cr.ExactQLearner(space, cr.QLearnerConfig(**defaults))


class TestEpsilonGreedyAction:
    def test_pure_exploitation_argmin(self, small_space):
        learner = make_learner(small_space)
        learner.q[0, :3] = [3.0, 1.0, 2.0]
        learner.q[0, 3:] = 10.0
        assert learner.epsilon_greedy_action(0, 0.0, np.random.default_rng(0)) == 1

    def test_all_zero_row_tie_rule(self, small_space):
        learner = make_learner(small_space)
        assert learner.epsilon_greedy_action(5, 0.0, np.random.default_rng(0)) == 0

    def test_full_exploration_uniform_over_45(self, small_space):
        learner = make_learner(small_space)
        rng = np.random.default_rng(1)
        n = 1_000_000
        counts = np.bincount(
            [learner.epsilon_greedy_action(0, 1.0, rng) for _ in range(n)],
            minlength=small_space.n_actions,
        )
        np.testing.assert_allclose(counts / n, 1.0 / 45.0, atol=0.01)

    def test_invalid_state(self, small_space):
        learner = make_learner(small_space)
        with pytest.raises(ValueError):
            learner.epsilon_greedy_action(10_000, 0.0, np.random.default_rng(0))


class TestTdUpdate:
    def test_half_step(self, small_space):
        learner = make_learner(small_space, gamma=0.0)
        new = learner.td_update(0, 0, 1, cost=10.0, beta=0.5)
        assert new == pytest.approx(5.0)

    def test_full_replacement(self, small_space):
        learner = make_learner(small_space)
        learner.q[7] = 4.0
        learner.td_update(3, 2, 7, cost=10.0, beta=1.0)
        assert learner.q[3, 2] == pytest.approx(10.0 + 0.8 * 4.0)

    def test_zero_step_freezes(self, small_space):
        learner = make_learner(small_space)
        learner.q[3, 2] = 1.25
        learner.td_update(3, 2, 7, cost=99.0, beta=1e-300)
        assert learner.q[3, 2] == pytest.approx(1.25)

    def test_only_one_entry_changes(self, small_space):
        learner = make_learner(small_space)
        before = learner.q.copy()
        learner.td_update(11, 17, 23, cost=42.0)
        changed = np.argwhere(learner.q != before)
        assert changed.tolist() == [[11, 17]]

    def test_rejects_non_finite_cost(self, small_space):
        learner = make_learner(small_space)
        with pytest.raises(ValueError):
            learner.td_update(0, 0, 0, cost=float("nan"))

    @pytest.mark.parametrize("beta", [5.0, 0.0, float("nan")])
    def test_explicit_beta_checked_like_the_configured_one(self, small_space, beta):
        learner = make_learner(small_space)
        learner.q[1] = 4.0
        with pytest.raises(ValueError, match=rf"^beta must lie in \(0, 1\], got {beta}$"):
            learner.td_update(0, 0, 1, cost=10.0, beta=beta)
        assert learner.q[0, 0] == 0.0
        assert learner.visits[0, 0] == 0

    def test_visit_count_beta_first_visit_replaces(self, small_space):
        learner = make_learner(small_space, beta=VisitCountBeta(), gamma=0.0)
        learner.td_update(0, 0, 1, cost=10.0)
        assert learner.q[0, 0] == pytest.approx(10.0)
        learner.td_update(0, 0, 1, cost=20.0)
        assert learner.q[0, 0] == pytest.approx(15.0)  # running mean


class TestRepeatVisitMean:
    def test_converges_to_expected_cost(self, small_net, small_space):
        """gamma=0, beta=1: entries jump to realized costs; their mean over
        many revisits approaches the expected cost."""
        g_chain, l_chain = small_net
        params = cr.CostParams(12, 600, 1000)
        learner = make_learner(small_space, gamma=0.0)
        rng = np.random.default_rng(2)
        s = small_space.state_index(0, 1, 4)
        state = small_space.system_state(s)
        a_idx = 9
        act = small_space.actions.action(a_idx)
        seen = []
        for _ in range(10_000):
            g2 = rng.choice(2, p=g_chain.transition[0])
            l2 = rng.choice(2, p=l_chain.transition[1])
            cost = aggregate_cost(state, act, g_chain.states[g2], l_chain.states[l2], params)
            seen.append(learner.td_update(s, a_idx, 0, cost, beta=1.0))
        expected = cr.expected_cost(state, act, g_chain, l_chain, params)
        assert abs(np.mean(seen) - expected) / expected < 0.02


class TestTableMemoryCheck:
    """The learners' (|S|, |A|) tables are checked against physical memory before allocation."""

    # one 180 x 45 table takes 64 800 B, the 45 x 45 refresh table 2 025 B
    MEMORY = 100_000

    @pytest.mark.parametrize("beta, n_real", [(0.8, 2), (VisitCountBeta(), 1)])
    def test_batch_agent_checks_before_allocating(self, small_space, monkeypatch, beta, n_real):
        monkeypatch.setattr(mdp_oracle, "_PHYSICAL_MEMORY", self.MEMORY)
        agent = BatchExactAgent(small_space, cr.QLearnerConfig(beta=beta))
        with pytest.raises(ValueError, match="180-state Q table x 2 is too large to materialize"):
            agent.begin(n_real)
        assert agent.q is None

    def test_batch_agent_within_memory(self, small_space, monkeypatch):
        monkeypatch.setattr(mdp_oracle, "_PHYSICAL_MEMORY", self.MEMORY)
        agent = BatchExactAgent(small_space, cr.QLearnerConfig())
        agent.begin(1)
        assert agent.q.shape == (1, 180, 45)

    def test_scalar_learner_checks_its_two_tables(self, small_space, monkeypatch):
        monkeypatch.setattr(mdp_oracle, "_PHYSICAL_MEMORY", self.MEMORY)
        with pytest.raises(ValueError, match="180-state Q table x 2 is too large to materialize"):
            make_learner(small_space)


class TestStoredDraws:
    def test_exploration_beyond_uint8(self):
        """|A| = C(24, 2) = 276 actions need uint16. The coins and the
        exploration actions equal what each Generator gives, in that order."""
        space = cr.StateSpace(*cr.small_network_chains(24), 2)
        agent = BatchExactAgent(space, cr.QLearnerConfig(epsilon=0.5))
        n, seeds = 300, (5, 6)
        agent.begin(len(seeds))
        agent.predraw([np.random.default_rng(s) for s in seeds], np.arange(n))
        explore = np.array([agent.explores(j) for j in range(n)])
        assert agent._explore_a.dtype == np.uint16 and agent._explore_a.max() > 255
        for r, seed in enumerate(seeds):
            rng = np.random.default_rng(seed)
            np.testing.assert_array_equal(explore[:, r], rng.random(n) < 0.5)
            np.testing.assert_array_equal(agent._explore_a[:, r], rng.integers(0, 276, size=n))
        zeros = np.zeros(len(seeds), dtype=np.int64)
        a = agent.select(0, zeros, zeros, zeros)
        np.testing.assert_array_equal(a, np.where(explore[0], agent._explore_a[0], 0))


class TestRunExact:
    def test_single_slot_updates_one_entry(self, small_net, small_space):
        g_chain, l_chain = small_net
        env = cr.PopularityEnv(g_chain=g_chain, l_chain=l_chain)
        config = cr.QLearnerConfig(beta=0.8, epsilon=1.0, gamma=0.8)
        result = cr.run_exact(
            env, 2, cr.CostParams(10, 600, 1000), config, 1, realization_rng(0, 0), space=small_space
        )
        assert result.trace.horizon == 1
        assert int((result.q != 0).sum()) == 1

    def test_deterministic_single_state_env(self):
        profile = cr.PopularityProfile(np.array([0.7, 0.3]))
        chain = cr.MarkovChain(states=(profile,), transition=np.ones((1, 1)))
        env = cr.PopularityEnv(g_chain=chain, l_chain=chain)
        config = cr.QLearnerConfig(beta=1.0, epsilon=0.0, gamma=0.0)
        params = cr.CostParams(0, 100, 0)
        result = cr.run_exact(env, 1, params, config, 3, realization_rng(0, 0))
        # slot 0 caches file 1 (initial contents, cost 100 * 0.3) and its Q
        # entry becomes exactly that cost; slot 1 tries the still-zero entry
        # of file 2 (cost 100 * 0.7); slot 2 settles back on file 1
        assert result.q[0, 0] == pytest.approx(30.0)
        assert result.trace.costs == pytest.approx([30.0, 70.0, 30.0])
        assert result.q[0, 1] == pytest.approx(70.0)
        assert result.q[1, 0] == pytest.approx(30.0)

    def test_identical_seeds_bit_identical(self, small_net):
        g_chain, l_chain = small_net
        env = cr.PopularityEnv(g_chain=g_chain, l_chain=l_chain)
        config = cr.QLearnerConfig()
        runs = [
            cr.run_exact(env, 2, cr.CostParams(10, 600, 1000), config, 3000, realization_rng(5, 0))
            for _ in range(2)
        ]
        np.testing.assert_array_equal(runs[0].trace.costs, runs[1].trace.costs)
        np.testing.assert_array_equal(runs[0].trace.actions, runs[1].trace.actions)
        np.testing.assert_array_equal(runs[0].q, runs[1].q)

    def test_trace_csv_columns(self, small_net, tmp_path):
        g_chain, l_chain = small_net
        env = cr.PopularityEnv(g_chain=g_chain, l_chain=l_chain)
        config = cr.QLearnerConfig()
        result = cr.run_exact(
            env, 2, cr.CostParams(10, 600, 1000), config, 5, realization_rng(1, 0)
        )
        path = tmp_path / "trace.csv"
        result.trace.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "slot,g_state,l_state,action,realized_cost,epsilon,beta"
        assert len(lines) == 6
        first = lines[1].split(",")
        files = [int(x) for x in first[3].split(";")]
        assert files == sorted(files) and all(1 <= x <= 10 for x in files)


class TestEngineMatchesReferenceSemantics:
    def test_lockstep_equals_manual_loop(self, small_net, small_space):
        """Replay the engine's documented draw order through the plain-Python
        loop reference and demand bit-identical costs and Q."""
        g_chain, l_chain = small_net
        env = cr.PopularityEnv(g_chain=g_chain, l_chain=l_chain)
        params = cr.CostParams(10, 600, 1000)
        horizon = 400
        assert horizon <= CHUNK
        config = cr.QLearnerConfig(beta=0.8, epsilon=0.1, gamma=0.8)
        result = cr.run_exact(env, 2, params, config, horizon, realization_rng(9, 0), space=small_space)

        rng = realization_rng(9, 0)
        space = small_space
        n_g, n_l, n_a = space.n_g, space.n_l, space.n_actions
        g = int(rng.integers(n_g))
        l = int(rng.integers(n_l))
        u_g = rng.random(horizon)
        u_l = rng.random(horizon)
        u_eps = rng.random(horizon)
        explore_a = rng.integers(0, n_a, size=horizon)
        cum_g = np.cumsum(g_chain.transition, axis=1)
        cum_l = np.cumsum(l_chain.transition, axis=1)
        learner = LoopExactLearner(space.n_states, n_a, gamma=0.8, beta=0.8)
        files = [[x + 1 for x in row] for row in space.action_files.tolist()]
        a_prev = 0
        costs = []
        for t in range(horizon):
            s_prev = space.state_index(g, l, a_prev)
            a = int(explore_a[t]) if u_eps[t] < 0.1 else learner.greedy(s_prev)
            g = int((cum_g[g] <= u_g[t]).sum())
            l = int((cum_l[l] <= u_l[t]).sum())
            p_g, p_l = g_chain.states[g], l_chain.states[l]
            cost = loop_slot_cost(files[a_prev], files[a], p_g, p_l, params)
            learner.update(s_prev, a, space.state_index(g, l, a), cost)
            costs.append(cost)
            a_prev = a
        np.testing.assert_array_equal(result.trace.costs, np.asarray(costs))
        np.testing.assert_array_equal(result.q, np.array(learner.q))


class TestConvergence:
    def test_glie_reaches_optimal_policy(self, tiny_instance):
        space = tiny_instance
        params = cr.CostParams(10, 300, 300)
        gamma = 0.5
        optimal = cr.policy_iteration(space, gamma, params)
        env = cr.PopularityEnv(g_chain=space.g_chain, l_chain=space.l_chain)
        config = cr.QLearnerConfig(
            beta=VisitCountBeta(), epsilon=ExploreThenInverseDecay(80_000), gamma=gamma
        )
        result = cr.run_exact(env, 1, params, config, 100_000, realization_rng(0, 0), space=space)
        np.testing.assert_array_equal(result.q.argmin(axis=1), optimal.policy)

    def test_long_run_tracks_oracle_on_frequent_states(self, small_net, small_space):
        """After 1e5 slots the greedy policy agrees with the optimal one on
        most of the visited time, and where it differs the chosen action is
        nearly optimal in Q* value. (Exact per-state argmin agreement is not
        achievable at beta=0.8: the constant step size keeps entry noise at
        the scale of many inter-action gaps.)"""
        g_chain, l_chain = small_net
        params = cr.CostParams(600, 10, 1000)
        optimal = cr.policy_iteration(small_space, 0.8, params)
        env = cr.PopularityEnv(g_chain=g_chain, l_chain=l_chain)
        config = cr.QLearnerConfig(beta=0.8, epsilon=0.05, gamma=0.8)
        result = cr.run_exact(env, 2, params, config, 100_000, realization_rng(3, 0), space=small_space)
        tr = result.trace
        a_idx = np.array(
            [
                small_space.actions.index_of(
                    cr.CacheAction(files=tr.action_files(t), catalog_size=10)
                )
                for t in range(tr.horizon)
            ]
        )
        s_t = (tr.g_states * small_space.n_l + tr.l_states) * small_space.n_actions + a_idx
        counts = np.bincount(s_t, minlength=small_space.n_states)
        weights = counts / counts.sum()
        greedy = result.q.argmin(axis=1)
        agree = float((weights * (greedy == optimal.policy)).sum())
        rel_subopt = (
            optimal.q[np.arange(small_space.n_states), greedy] - optimal.values
        ) / optimal.values
        assert agree >= 0.55
        assert float((weights * rel_subopt).sum()) <= 0.06


class RecordingExactAgent(BatchExactAgent):
    """Records, at each snapshot, the running error and the materialized one
    of the same tables, against the full Q* table of ``reference``, the
    (lambda1, W) pair that it also sets as its Q* reference."""

    def __init__(self, space, config, reference):
        super().__init__(space, config)
        self.reference, self.snapshots = reference, []
        self.set_error_reference(*reference, space)

    def normalized_error(self):
        running = super().normalized_error()
        qstar = self.space.q_table(*self.reference)
        exact = np.array([relative_q_error(q_r, qstar) for q_r in self.q])
        self.snapshots.append((running, exact))
        return running


@st.composite
def error_runs(draw):
    """A random small network and learner and its oracle Q* reference (lambda1,
    W), with R = 1..5, random error slots, and the local state revealed or
    quantized from 1..20 sampled requests per slot."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f = draw(st.integers(2, 5))  # with M < F some file is always missed: Q* > 0
    chains = []
    for _ in range(2):
        n = draw(st.integers(1, 3))
        probs = rng.dirichlet(np.ones(f), size=n)
        trans = rng.dirichlet(np.ones(n), size=n)
        states = tuple(cr.PopularityProfile(p) for p in probs)
        chains.append(cr.MarkovChain(states=states, transition=trans))
    space = cr.StateSpace(*chains, draw(st.integers(1, f - 1)))
    horizon = draw(st.integers(1, 300))
    params = cr.CostParams(*(draw(st.integers(1, 1000)) for _ in range(3)))
    gamma = draw(st.sampled_from([0.0, 0.5, 0.8]))
    w = cr.policy_iteration(space, gamma, params).w
    return dict(
        space=space,
        env=cr.PopularityEnv(
            *chains,
            request_mode=draw(st.sampled_from(cr.simulate.REQUEST_MODES)),
            requests_per_slot=draw(st.integers(1, 20)),
        ),
        params=params,
        horizon=horizon,
        n_real=draw(st.integers(1, 5)),
        error_slots=draw(st.lists(st.integers(0, horizon - 1), min_size=1, max_size=8)),
        reference=(params.lambda1, w),
        config=cr.QLearnerConfig(
            beta=VisitCountBeta() if draw(st.booleans()) else 0.8,
            epsilon=draw(st.floats(0.0, 1.0)),
            gamma=gamma,
        ),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


class TestRunningError:
    """The tabular agent's running sum((Q - Q*)**2) against the materialized error."""

    @settings(max_examples=100, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(run=error_runs())
    def test_matches_materialized_error(self, run):
        """At every snapshot, in both revelation modes; the drift lies on the
        sum, relative to ||Q*||^2."""
        agent = RecordingExactAgent(run["space"], run["config"], run["reference"])
        rngs = [realization_rng(run["seed"], r) for r in range(run["n_real"])]
        cr.simulate.run_lockstep(
            run["env"], agent, run["params"], run["horizon"], rngs, error_slots=run["error_slots"]
        )
        assert len(agent.snapshots) == len(set(run["error_slots"]))
        for running, exact in agent.snapshots:
            assert np.abs(running**2 - exact**2).max() <= 1e-12

    def test_error_at_zero_tables_is_exactly_one(self, small_space):
        agent = BatchExactAgent(small_space, cr.QLearnerConfig())
        agent.set_error_reference(3.0, np.arange(4 * 45.0).reshape(4, 45) / 7.0, small_space)
        agent.begin(3)
        assert agent.normalized_error().tolist() == [1.0, 1.0, 1.0]

    def test_snapshot_reads_no_table(self, small_space):
        """At R = 200 a snapshot allocates a few (R,) vectors, no (|S|, |A|) table (64.8 KiB)."""
        agent = BatchExactAgent(small_space, cr.QLearnerConfig())
        oracle = cr.policy_iteration(small_space, 0.8, cr.CostParams(10, 600, 1000))
        agent.set_error_reference(10, oracle.w, small_space)
        agent.begin(200)
        agent.normalized_error()  # warm-up
        errors, peak = traced_peak(agent.normalized_error)
        assert errors.shape == (200,)
        assert peak < 16 * 1024
