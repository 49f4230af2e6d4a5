import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cache_rl as cr
from cache_rl import mdp_oracle, simulate
from oracles_util import (
    brute_force_optimal,
    dense_kernels,
    dense_long_run_average_cost,
    dense_policy_evaluation,
    dense_policy_iteration,
    epsilon_soft_average_cost,
    first_principles_tables,
    random_instance,
    value_iteration_oracle,
)


def n_closed_classes(p):
    """Number of closed communicating classes of a transition matrix."""
    n = p.shape[0]
    reach = (p > 0) | np.eye(n, dtype=bool)
    while True:
        wider = reach | (reach.astype(np.int64) @ reach.astype(np.int64) > 0)
        if np.array_equal(wider, reach):
            break
        reach = wider
    # s is recurrent iff every state it reaches leads back to it
    return len(
        {
            frozenset(np.nonzero(reach[s] & reach[:, s])[0])
            for s in range(n)
            if reach[reach[s], s].all()
        }
    )


def single_state_space(cost_scale=1.0):
    """One global state, one local state, M = F so |A| = 1."""
    p = cr.PopularityProfile(np.array([0.6, 0.4]))
    chain = cr.MarkovChain(states=(p,), transition=np.ones((1, 1)))
    return cr.StateSpace(chain, chain, 2)


class TestTransitionProb:
    def test_action_component_is_deterministic(self, small_space):
        s = small_space.state_index(0, 0, 3)
        s_next = small_space.state_index(1, 1, 4)
        assert cr.transition_prob(small_space, s, 3, s_next) == 0.0

    def test_reference_matrix_product(self, small_space):
        # global row 0 -> 1 is 0.2, local row 0 -> 0 is 0.6
        s = small_space.state_index(0, 0, 7)
        s_next = small_space.state_index(1, 0, 7)
        assert cr.transition_prob(small_space, s, 7, s_next) == pytest.approx(0.2 * 0.6)

    def test_rows_sum_to_one(self, small_space):
        rng = np.random.default_rng(0)
        for _ in range(5):
            s = int(rng.integers(small_space.n_states))
            a = int(rng.integers(small_space.n_actions))
            total = sum(
                cr.transition_prob(small_space, s, a, s2) for s2 in range(small_space.n_states)
            )
            assert total == pytest.approx(1.0)


class TestPolicyEvaluation:
    def test_single_state_geometric_series(self):
        space = single_state_space()
        # lambda2 = 10 with everything cached -> cost from global mismatch only
        params = cr.CostParams(0, 0, 0)
        v = cr.policy_evaluation(space, np.zeros(1, dtype=int), 0.5, params)
        assert v[0] == pytest.approx(0.0)
        # make cbar = 10 via a refresh-free mismatch: uncached mass is 0 here,
        # so use a direct check with lambda3 on a partial cache instead
        space2 = cr.StateSpace(
            cr.MarkovChain(
                states=(cr.PopularityProfile(np.array([0.6, 0.4])),), transition=np.ones((1, 1))
            ),
            cr.MarkovChain(
                states=(cr.PopularityProfile(np.array([0.6, 0.4])),), transition=np.ones((1, 1))
            ),
            1,
        )
        params2 = cr.CostParams(0, 0, 25)
        policy = np.zeros(space2.n_states, dtype=int)
        v2 = cr.policy_evaluation(space2, policy, 0.5, params2)
        # state (0, 0, cache={1}): per-slot cost 25 * 0.4 = 10, V = 10 / (1 - 0.5)
        assert v2[space2.state_index(0, 0, 0)] == pytest.approx(20.0)

    def test_gamma_zero_is_myopic(self, small_space):
        params = cr.CostParams(10, 600, 1000)
        policy = np.full(small_space.n_states, 11, dtype=int)
        v = cr.policy_evaluation(small_space, policy, 0.0, params)
        cbar = small_space.expected_cost_matrix(params)
        np.testing.assert_allclose(v, cbar[np.arange(small_space.n_states), policy])

    def test_non_finite_values_raise(self, small_space):
        params = cr.CostParams(1e308, 1e308, 1e308)
        policy = np.arange(small_space.n_states) % small_space.n_actions
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="non-finite"):
                cr.policy_evaluation(small_space, policy, 0.8, params)

    def test_solution_satisfies_recursion(self, small_space):
        params = cr.CostParams(10, 600, 1000)
        rng = np.random.default_rng(1)
        policy = rng.integers(0, small_space.n_actions, size=small_space.n_states)
        gamma = 0.8
        v = cr.policy_evaluation(small_space, policy, gamma, params)
        cbar = small_space.expected_cost_matrix(params)
        q = cr.q_from_value(small_space, v, gamma, params)
        residual = np.abs(v - q[np.arange(small_space.n_states), policy]).max()
        assert residual < 1e-8
        assert cbar.shape == q.shape


class TestQFromValue:
    def test_gamma_zero_gives_expected_cost(self, small_space):
        params = cr.CostParams(10, 600, 1000)
        q = cr.q_from_value(small_space, np.zeros(small_space.n_states), 0.0, params)
        cbar = small_space.expected_cost_matrix(params)
        np.testing.assert_allclose(q, cbar)
        # spot-check cbar against the public expected_cost
        s = small_space.state_index(1, 0, 5)
        state = small_space.system_state(s)
        a = small_space.actions.action(17)
        direct = cr.expected_cost(
            state, a, small_space.g_chain, small_space.l_chain, params
        )
        assert cbar[s, 17] == pytest.approx(direct)

    def test_fixed_point_min_recovers_values(self, small_space):
        params = cr.CostParams(600, 10, 1000)
        res = cr.policy_iteration(small_space, 0.8, params)
        np.testing.assert_allclose(res.q.min(axis=1), res.values, atol=1e-8)

    def test_single_state_q_equals_v(self):
        space = single_state_space()
        params = cr.CostParams(3, 5, 7)
        policy = np.zeros(space.n_states, dtype=int)
        v = cr.policy_evaluation(space, policy, 0.6, params)
        q = cr.q_from_value(space, v, 0.6, params)
        np.testing.assert_allclose(q[:, 0], v)


class TestPolicyImprovement:
    def test_constant_q_ties_to_zero(self, small_space):
        q = np.ones((small_space.n_states, small_space.n_actions))
        assert (cr.policy_improvement(small_space, q) == 0).all()

    def test_unique_minima(self, small_space):
        rng = np.random.default_rng(2)
        q = rng.uniform(size=(small_space.n_states, small_space.n_actions))
        np.testing.assert_array_equal(cr.policy_improvement(small_space, q), q.argmin(axis=1))

    def test_idempotent_at_optimum(self):
        rng = np.random.default_rng(3)
        space, params = random_instance(rng, f=4, m=1)
        res = cr.policy_iteration(space, 0.8, params)
        again = cr.policy_improvement(space, res.q)
        np.testing.assert_array_equal(again, res.policy)


class TestPolicyIteration:
    def test_gamma_zero_picks_myopic_argmin(self, small_space):
        params = cr.CostParams(10, 600, 1000)
        res = cr.policy_iteration(small_space, 0.0, params)
        cbar = small_space.expected_cost_matrix(params)
        np.testing.assert_array_equal(res.policy, cbar.argmin(axis=1))

    def test_single_action_space(self):
        space = single_state_space()
        params = cr.CostParams(1, 2, 3)
        res = cr.policy_iteration(space, 0.9, params)
        assert (res.policy == 0).all()

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(4)
        # |A| ** |S| = 3 ** 6 = 729 policies
        for _ in range(4):
            space, params = random_instance(rng, f=3, m=1, n_g=2, n_l=1)
            res = cr.policy_iteration(space, 0.8, params)
            v_min, pol = brute_force_optimal(space, 0.8, params)
            np.testing.assert_allclose(res.values, v_min, atol=1e-8)
            np.testing.assert_array_equal(res.policy, pol)

    def test_rejects_invalid_policy(self, small_space):
        params = cr.PRESET_PARAMS["s1"]
        negative, too_large = np.zeros((2, small_space.n_states), dtype=int)
        negative[7], too_large[7] = -1, small_space.n_actions
        # a float policy is rejected, not truncated: all 0.9 would pass as action 0
        fractional = np.full(small_space.n_states, 0.9)
        for policy in (np.zeros(2, dtype=int), negative, too_large, fractional):
            for solve in (
                lambda: cr.policy_iteration(small_space, 0.8, params, initial_policy=policy),
                lambda: cr.policy_evaluation(small_space, policy, 0.8, params),
                lambda: cr.long_run_average_cost(small_space, policy, params),
                lambda: simulate.OraclePolicyAgent(small_space, policy),
            ):
                with pytest.raises(ValueError, match="one valid action per state"):
                    solve()

    def test_monotone_value_improvement(self):
        rng = np.random.default_rng(5)
        space, params = random_instance(rng, f=4, m=2)
        initial = rng.integers(0, space.n_actions, size=space.n_states)
        res = cr.policy_iteration(space, 0.85, params, initial_policy=initial)
        for older, newer in zip(res.value_history, res.value_history[1:]):
            assert np.all(newer <= older + 1e-9)

    def test_values_non_decreasing_in_each_lambda(self):
        rng = np.random.default_rng(6)
        space, params = random_instance(rng, f=4, m=1, lam_high=300)
        base = cr.policy_iteration(space, 0.8, params).values
        for bump in (
            cr.CostParams(params.lambda1 + 100, params.lambda2, params.lambda3),
            cr.CostParams(params.lambda1, params.lambda2 + 100, params.lambda3),
            cr.CostParams(params.lambda1, params.lambda2, params.lambda3 + 100),
        ):
            bumped = cr.policy_iteration(space, 0.8, bump).values
            assert np.all(bumped >= base - 1e-9)

    def test_matches_value_iteration_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(3):
            space, params = random_instance(rng, f=4, m=1)
            res = cr.policy_iteration(space, 0.8, params)
            vi_policy, vi_values, _ = value_iteration_oracle(space, 0.8, params)
            np.testing.assert_allclose(res.values, vi_values, atol=1e-7)
            np.testing.assert_array_equal(res.policy, vi_policy)


class TestBellmanResidual:
    def test_optimal_q_residual_tiny(self, small_space):
        params = cr.CostParams(10, 600, 1000)
        res = cr.policy_iteration(small_space, 0.8, params)
        assert cr.bellman_optimality_residual(small_space, res.q, 0.8, params) < 1e-8

    def test_zero_q_gamma_zero(self, small_space):
        params = cr.CostParams(10, 600, 1000)
        cbar = small_space.expected_cost_matrix(params)
        q = np.zeros_like(cbar)
        resid = cr.bellman_optimality_residual(small_space, q, 0.0, params)
        assert resid == pytest.approx(np.abs(cbar).max())

    def test_perturbation_is_detected(self, small_space):
        params = cr.CostParams(10, 600, 1000)
        res = cr.policy_iteration(small_space, 0.8, params)
        q = res.q.copy()
        q[3, 7] += 1e-3
        resid = cr.bellman_optimality_residual(small_space, q, 0.8, params)
        assert resid > 1e-5

    @pytest.mark.parametrize("gamma", [1.5, 1.0, -0.1, float("nan"), True])
    def test_gamma_outside_the_discount_range_raises(self, small_space, gamma):
        # q_from_value used to take any gamma: 1.5 gave a residual of 1516.4, NaN gave nan
        q = np.zeros((small_space.n_states, small_space.n_actions))
        params = cr.PRESET_PARAMS["s1"]
        with pytest.raises(ValueError, match="gamma"):
            cr.bellman_optimality_residual(small_space, q, gamma, params)
        with pytest.raises(ValueError, match="gamma"):
            cr.q_from_value(small_space, np.zeros(small_space.n_states), gamma, params)


class TestAverageCostAndExport:
    def test_long_run_average_matches_simulation(self, small_net, small_space):
        params = cr.CostParams(600, 10, 1000)
        res = cr.policy_iteration(small_space, 0.8, params)
        analytic = cr.long_run_average_cost(small_space, res.policy, params)
        g_chain, l_chain = small_net
        sc = cr.Scenario(
            name="oracle-check",
            g_chain=g_chain,
            l_chain=l_chain,
            cache_size=2,
            gamma=0.8,
            lambda_schedule=cr.PiecewiseCostSchedule.constant(params),
            learner="oracle-policy",
            learner_config=None,
            horizon=40_000,
            realizations=20,
            base_seed=17,
        )
        trace = cr.run_scenario(sc)
        assert abs(trace.run_avg_cost[-1] - analytic) / analytic < 0.02

    def test_long_run_average_raises_when_not_converged(self, small_space):
        params = cr.PRESET_PARAMS["s2"]
        policy = cr.policy_iteration(small_space, 0.8, params).policy
        assert cr.long_run_average_cost(small_space, policy, params) == pytest.approx(
            596.57, abs=0.01
        )
        with pytest.raises(RuntimeError, match="did not converge"):
            cr.long_run_average_cost(small_space, policy, params, max_iter=1)

    def test_csv_exports(self, small_space, tmp_path):
        params = cr.CostParams(10, 600, 1000)
        res = cr.policy_iteration(small_space, 0.8, params)
        policy_path = tmp_path / "policy.csv"
        q_path = tmp_path / "q.csv"
        cr.export_policy_csv(small_space, res.policy, res.values, policy_path)
        cr.export_qtable_csv(small_space, res.q, q_path)
        policy_lines = policy_path.read_text().strip().splitlines()
        q_lines = q_path.read_text().strip().splitlines()
        assert len(policy_lines) == small_space.n_states + 1
        assert len(q_lines) == small_space.n_states * small_space.n_actions + 1
        assert policy_lines[0].startswith("state_index,")
        # 1-based sorted file lists
        first = policy_lines[1].split(",")
        assert first[3] == "1;2"

    def test_csv_exports_check_shapes_before_writing(self, small_space, tmp_path):
        res = cr.policy_iteration(small_space, 0.8, cr.CostParams(10, 600, 1000))
        path = tmp_path / "out.csv"
        with pytest.raises(ValueError, match="Q table must be 180x45"):
            cr.export_qtable_csv(small_space, res.q[:, :40], path)
        with pytest.raises(ValueError, match=r"values must have shape \(180,\), got \(5,\)"):
            cr.export_policy_csv(small_space, res.policy, res.values[:5], path)
        with pytest.raises(ValueError, match="one valid action per state"):
            cr.export_policy_csv(small_space, res.policy[:5], res.values, path)
        assert not path.exists()


class TestRelativeQError:
    @pytest.mark.parametrize(
        "q, q_star, message",
        [
            (np.ones((2, 2)), np.full((2, 2), np.nan), "reference Q table must have a finite nonzero norm, got nan"),
            (np.ones((2, 2)), np.full((2, 2), -np.inf), "reference Q table must have a finite nonzero norm, got inf"),
            (np.ones((2, 2)), np.full((2, 2), 1e200), "reference Q table must have a finite nonzero norm, got inf"),
            (np.ones((2, 2)), np.zeros((2, 2)), "reference Q table must have a finite nonzero norm, got 0.0"),
            (np.full((2, 2), np.nan), np.ones((2, 2)), r"\|\|Q - Q\*\|\|_F must be finite, got nan"),
            (np.full((2, 2), np.inf), np.ones((2, 2)), r"\|\|Q - Q\*\|\|_F must be finite, got inf"),
            (np.full((2, 2), 1e200), np.ones((2, 2)), r"\|\|Q - Q\*\|\|_F must be finite, got inf"),
        ],
        ids=["nan-ref", "inf-ref", "overflow-ref", "zero-ref", "nan-q", "inf-q", "overflow-q"],
    )
    def test_non_finite_table_raises(self, q, q_star, message):
        """A NaN or inf error used to be returned; no warning escapes either."""
        with pytest.raises(ValueError, match=f"^{message}$"):
            mdp_oracle.relative_q_error(q, q_star)


class TestEpsilonSoftAverageCost:
    def test_matches_epsilon_greedy_rollout(self):
        rng = np.random.default_rng(11)
        space, params = random_instance(rng, f=4, m=2)
        policy = cr.policy_iteration(space, 0.8, params).policy
        eps = 0.2
        exact = epsilon_soft_average_cost(space, policy, eps, params)
        g_ch, l_ch = space.g_chain, space.l_chain
        cum_g, cum_l = np.cumsum(g_ch.transition, axis=1), np.cumsum(l_ch.transition, axis=1)
        costs = {}
        burn_in, n_batches, batch = 1_000, 40, 5_000
        n = burn_in + n_batches * batch
        u_explore, u_g, u_l = rng.random(n), rng.random(n), rng.random(n)
        a_explore = rng.integers(space.n_actions, size=n)
        g, l, a_prev = 0, 0, 0
        realized = np.empty(n)
        for t in range(n):
            s = space.state_index(g, l, a_prev)
            a = int(a_explore[t]) if u_explore[t] < eps else int(policy[s])
            g2 = min(int(np.searchsorted(cum_g[g], u_g[t], side="right")), space.n_g - 1)
            l2 = min(int(np.searchsorted(cum_l[l], u_l[t], side="right")), space.n_l - 1)
            key = (a_prev, a, g2, l2)
            if key not in costs:
                prev = cr.SystemState(g=g, l=l, action=space.actions.action(a_prev))
                costs[key] = cr.aggregate_cost(
                    prev, space.actions.action(a), g_ch.states[g2], l_ch.states[l2], params
                )
            realized[t] = costs[key]
            g, l, a_prev = g2, l2, a
        # Batches of 5000 slots are far longer than this chain's mixing time
        # (every action has probability >= eps / |A| and the chain rows are
        # dense), so the batch means are close to independent and their
        # spread gives the standard error of the overall mean.
        means = realized[burn_in:].reshape(n_batches, batch).mean(axis=1)
        se = means.std(ddof=1) / np.sqrt(n_batches)
        assert se < 0.01 * exact
        assert abs(means.mean() - exact) < 4 * se
        # the exploration is visible at this precision
        assert abs(cr.long_run_average_cost(space, policy, params) - exact) > 4 * se

    def test_full_exploration_is_the_random_cache_cost(self):
        rng = np.random.default_rng(12)
        f, m = 5, 2
        space, params = random_instance(rng, f=f, m=m, n_g=3, n_l=2)
        # two independent uniform M-subsets share M * M / F files on average,
        # and a uniform cache holds a fraction M / F of any profile's mass
        random_cache = params.lambda1 * (m - m * m / f) + (params.lambda2 + params.lambda3) * (
            1 - m / f
        )
        for _ in range(2):
            policy = rng.integers(space.n_actions, size=space.n_states)
            cost = epsilon_soft_average_cost(space, policy, 1.0, params)
            assert cost == pytest.approx(random_cache, rel=1e-10)

    def test_tends_to_long_run_average_as_eps_vanishes(self):
        rng = np.random.default_rng(0)
        space, params = random_instance(rng, f=4, m=2)
        policy = cr.policy_iteration(space, 0.8, params).policy
        _, succ, prob = first_principles_tables(space, params)
        p_pi = dense_kernels(succ, prob)[np.arange(space.n_states), policy]
        # with one closed class the limit does not depend on the start state
        assert n_closed_classes(p_pi) == 1
        target = cr.long_run_average_cost(space, policy, params)
        gaps = [
            abs(epsilon_soft_average_cost(space, policy, eps, params) - target) / target
            for eps in (1e-2, 1e-3, 1e-4, 1e-6)
        ]
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] < 1e-5

    @pytest.mark.parametrize("eps", [0.0, -0.1, 1.5])
    def test_rejects_eps_outside_unit_interval(self, eps):
        rng = np.random.default_rng(13)
        space, params = random_instance(rng, f=3, m=1)
        with pytest.raises(ValueError):
            epsilon_soft_average_cost(space, np.zeros(space.n_states, dtype=int), eps, params)


def value_scale(space, params, gamma):
    """max |cbar| / (1 - gamma): a bound on every |Q| that, unlike max |Q|,
    does not vanish when every cost is rounding noise (M = F)."""
    return np.abs(space.expected_cost_matrix(params)).max() / (1.0 - gamma)


def assert_matches_dense_policy_iteration(space, gamma, params):
    res = cr.policy_iteration(space, gamma, params)
    policy, values, q, iterations = dense_policy_iteration(space, gamma, params)
    np.testing.assert_array_equal(res.policy, policy)
    assert res.iterations == iterations
    scale = value_scale(space, params, gamma)
    assert np.abs(res.q - q).max() <= 1e-10 * scale
    assert np.abs(res.values - values).max() <= 1e-10 * scale
    return res


@st.composite
def evaluation_cases(draw):
    """A random instance, a random policy and a discount factor."""
    f = draw(st.integers(1, 5))
    m = draw(st.integers(1, f))
    n_g, n_l = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    space, params = random_instance(rng, f=f, m=m, n_g=n_g, n_l=n_l)
    policy = rng.integers(space.n_actions, size=space.n_states)
    return space, params, policy, draw(st.sampled_from([0.0, 0.5, 0.8, 0.95, 0.99]))


class TestDenseReference:
    """The factored solver against a dense |S| x |S| transition matrix."""

    @settings(
        max_examples=100,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(evaluation_cases())
    def test_random_instances(self, case):
        space, params, policy, gamma = case
        v = cr.policy_evaluation(space, policy, gamma, params)
        ref = dense_policy_evaluation(space, policy, gamma, params)
        c_pi = space.expected_cost_matrix(params)[np.arange(space.n_states), policy]
        assert np.abs(v - ref).max() <= 1e-12 * np.abs(c_pi).max() / (1.0 - gamma)
        # relative to the cost scale, which stays meaningful when every cost is ~0
        avg = cr.long_run_average_cost(space, policy, params)
        assert abs(avg - dense_long_run_average_cost(space, policy, params)) <= (
            1e-12 * np.abs(c_pi).max()
        )
        assert_matches_dense_policy_iteration(space, gamma, params)

    def test_criterion_1_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            space, params = random_instance(rng, f=4, m=1, n_g=2, n_l=2)
            assert_matches_dense_policy_iteration(space, 0.8, params)

    @pytest.mark.parametrize("name", ["s1", "s2", "s3", "s4", "s5", "s6"])
    def test_small_network_presets(self, small_space, name):
        assert_matches_dense_policy_iteration(small_space, 0.8, cr.PRESET_PARAMS[name])

    @pytest.mark.parametrize("name, digest", [("s1", "75dac216cedb"), ("s2", "46da19122b16")])
    def test_twenty_files_three_cached(self, name, digest):
        # |S| = 4560: the dense matrix takes 166 MB, the factored kernel 128 bytes
        space = cr.StateSpace(*cr.small_network_chains(20), 3)
        params = cr.PRESET_PARAMS[name]
        res = assert_matches_dense_policy_iteration(space, 0.8, params)
        # the policy the dense solver found before the factored kernel replaced it
        assert hashlib.sha256(res.policy.astype(np.int64).tobytes()).hexdigest()[:12] == digest
        avg = cr.long_run_average_cost(space, res.policy, params)
        ref = dense_long_run_average_cost(space, res.policy, params)
        assert avg == pytest.approx(ref, rel=1e-12)


class TestRefreshTable:
    def test_compact_and_built_in_blocks(self):
        """At F = 20, M = 3 the (|A|, |A|) refresh table is 1140**2 B, 1.24 MiB,
        in uint8; a float64 table or matmul over all of it would take 9.9 MiB."""
        chains = cr.small_network_chains(20)
        tracemalloc.start()
        try:
            space = cr.StateSpace(*chains, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert space.refresh_counts.dtype.kind == "u"
        assert peak < 2 * 2**20
        masks = space.action_masks
        np.testing.assert_array_equal(space.refresh_counts, 3 - masks @ masks.T)


class TestPostDecisionSolver:
    """Policy iteration on W against the full-table functions it replaced."""

    @pytest.mark.parametrize("name", ["s1", "s2"])
    def test_policy_iteration_builds_no_full_table(self, name):
        space = cr.StateSpace(*cr.small_network_chains(20), 3)
        table_bytes = 8 * space.n_states * space.n_actions  # 39.7 MiB
        tracemalloc.start()
        try:
            res = cr.policy_iteration(space, 0.8, cr.PRESET_PARAMS[name])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < table_bytes
        assert "q" not in vars(res)

    @settings(
        max_examples=100,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(evaluation_cases())
    def test_blockwise_paths_equal_full_tables(self, case):
        space, params, policy, gamma = case
        res = cr.policy_iteration(space, gamma, params)
        assert res.q.tobytes() == cr.q_from_value(space, res.values, gamma, params).tobytes()
        assert res.policy.tobytes() == cr.policy_improvement(space, res.q).tobytes()
        v = cr.policy_evaluation(space, policy, gamma, params)
        for q in (res.q, cr.q_from_value(space, v, gamma, params)):
            target = cr.q_from_value(space, q.min(axis=1), gamma, params)
            full = float(np.abs(q - target).max())
            assert cr.bellman_optimality_residual(space, q, gamma, params) == full

    def test_solves_where_q_does_not_fit(self, small_net, monkeypatch):
        params = cr.PRESET_PARAMS["s1"]
        expected = cr.policy_iteration(cr.StateSpace(*small_net, 2), 0.8, params)
        # the 45 x 45 uint8 refresh table takes 2 025 B, one 180 x 45 table 64 800 B
        monkeypatch.setattr(mdp_oracle, "_PHYSICAL_MEMORY", 32_000)
        space = cr.StateSpace(*small_net, 2)
        res = cr.policy_iteration(space, 0.8, params)
        np.testing.assert_array_equal(res.policy, expected.policy)
        np.testing.assert_array_equal(res.values, expected.values)
        with pytest.raises(ValueError, match="180-state Q table is too large to materialize"):
            res.q
        with pytest.raises(ValueError, match="180-state Q table is too large to materialize"):
            cr.q_from_value(space, res.values, 0.8, params)
        monkeypatch.setattr(mdp_oracle, "_PHYSICAL_MEMORY", 2_000)
        with pytest.raises(ValueError, match="45-action refresh table is too large to materialize"):
            cr.StateSpace(*small_net, 2)


@st.composite
def table_cases(draw):
    """A random instance (M = F included) and random linear parameters."""
    f = draw(st.integers(1, 4))
    m = draw(st.integers(1, f))
    n_g, n_l = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    space, params = random_instance(rng, f=f, m=m, n_g=n_g, n_l=n_l)
    theta = cr.LinearParams(rng.normal(size=(n_g, f)), rng.normal(size=(n_l, f)), rng.normal())
    return space, params, theta


class TestTableBuilder:
    """Every (|S|, |A|) table of ``StateSpace.q_table`` against per-entry references."""

    @settings(
        max_examples=100,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(table_cases())
    def test_full_tables_match_references(self, case):
        space, params, theta = case
        assert theta.theta_r != 0.0
        cbar, _, _ = first_principles_tables(space, params)
        # the largest possible slot cost: with M = F every mean cost is
        # rounding noise, so max |cbar| would be no scale at all
        scale = params.lambda1 * space.cache_size + params.lambda2 + params.lambda3
        assert np.abs(space.expected_cost_matrix(params) - cbar).max() <= 1e-12 * scale
        q_ref = np.array(
            [
                [cr.q_hat(theta, space.system_state(s), action) for action in space.actions]
                for s in range(space.n_states)
            ]
        )
        q = cr.linear_q_matrix(theta, space)
        assert np.abs(q - q_ref).max() <= 1e-12 * np.abs(q_ref).max()
