import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import cache_rl as cr
from cache_rl.q_linear import BatchLinearAgent, LinearParams, top_m
from cache_rl.simulate import CHUNK, DivergenceError, realization_rng
from oracles_util import LoopLinearLearner, loop_slot_cost, loop_top_m, random_instance, traced_peak


def state(g, l, files, f):
    return cr.SystemState(g=g, l=l, action=cr.CacheAction(files=tuple(files), catalog_size=f))


def random_params(rng, n_g, n_l, f, scale=10.0):
    return LinearParams(
        theta_g=rng.normal(scale=scale, size=(n_g, f)),
        theta_l=rng.normal(scale=scale, size=(n_l, f)),
        theta_r=float(rng.normal(scale=scale)),
    )


class TestPsi:
    def test_all_zero(self):
        p = LinearParams.zeros(2, 2, 4)
        np.testing.assert_array_equal(cr.psi(p, state(0, 0, (1,), 4)), np.zeros(4))

    def test_scaled_indicator(self):
        p = LinearParams(theta_g=np.zeros((1, 4)), theta_l=np.zeros((1, 4)), theta_r=2.0)
        np.testing.assert_array_equal(cr.psi(p, state(0, 0, (1, 3), 4)), [2, 0, 2, 0])

    def test_row_sum(self):
        p = LinearParams(
            theta_g=np.array([[1.0, 1.0, 1.0, 1.0]]),
            theta_l=np.array([[0.0, 1.0, 0.0, 1.0]]),
            theta_r=0.0,
        )
        np.testing.assert_array_equal(cr.psi(p, state(0, 0, (2,), 4)), [1, 2, 1, 2])

    def test_dimension_checks(self):
        p = LinearParams.zeros(2, 2, 4)
        with pytest.raises(ValueError):
            cr.psi(p, state(0, 0, (1,), 5))
        with pytest.raises(ValueError):
            cr.psi(p, state(3, 0, (1,), 4))


class TestQHat:
    def test_full_cache_is_zero(self):
        rng = np.random.default_rng(0)
        p = random_params(rng, 2, 2, 4)
        s = state(0, 1, (1, 2), 4)
        assert cr.q_hat(p, s, cr.CacheAction(files=(1, 2, 3, 4), catalog_size=4)) == 0.0

    def test_sums_uncached_entries(self):
        p = LinearParams(theta_g=np.array([[5.0, 1.0, 3.0]]), theta_l=np.zeros((1, 3)), theta_r=0.0)
        s = state(0, 0, (1,), 3)
        assert cr.q_hat(p, s, cr.CacheAction(files=(1, 3), catalog_size=3)) == pytest.approx(1.0)

    def test_zero_params_zero_everywhere(self):
        p = LinearParams.zeros(2, 2, 5)
        s = state(1, 1, (2, 4), 5)
        for a in cr.enumerate_actions(5, 2):
            assert cr.q_hat(p, s, a) == 0.0

    def test_linear_in_parameters(self):
        rng = np.random.default_rng(1)
        p = random_params(rng, 2, 3, 6)
        s = state(1, 2, (1, 5), 6)
        a = cr.CacheAction(files=(2, 3), catalog_size=6)
        assert cr.q_hat(p.scaled(3.5), s, a) == pytest.approx(3.5 * cr.q_hat(p, s, a))


class TestGreedyTopM:
    def test_two_largest(self):
        p = LinearParams(theta_g=np.array([[5.0, 1.0, 3.0]]), theta_l=np.zeros((1, 3)), theta_r=0.0)
        assert cr.greedy_top_m(p, state(0, 0, (1,), 3), 2).files == (1, 3)

    def test_tie_rule_lowest_files(self):
        p = LinearParams.zeros(1, 1, 4)
        assert cr.greedy_top_m(p, state(0, 0, (3,), 4), 2).files == (1, 2)

    def test_equals_exhaustive_argmin(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            f = int(rng.integers(2, 9))
            m = int(rng.integers(1, f + 1))
            n_g, n_l = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            p = random_params(rng, n_g, n_l, f)
            files_prev = tuple(np.sort(rng.choice(f, size=m, replace=False)) + 1)
            s = state(int(rng.integers(n_g)), int(rng.integers(n_l)), files_prev, f)
            fast = cr.greedy_top_m(p, s, m)
            best = min(
                cr.enumerate_actions(f, m),
                key=lambda a: (cr.q_hat(p, s, a), a.files),
            )
            assert cr.q_hat(p, s, fast) == pytest.approx(cr.q_hat(p, s, best))
            assert fast.files == best.files


SPECIAL_SCORES = (0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan)


@st.composite
def score_rows(draw):
    """(R, F) score rows and an M: normal scores, few distinct values, all
    tied, or special values (signed zeros, +-inf, NaN) mixed with numbers.
    Rows of up to SORT_FILES files are sorted outright; 17, 64 and 1000
    files take the partition path."""
    r = draw(st.sampled_from((1, 3, 200)))
    f = draw(st.sampled_from((*range(2, 13), 17, 64, 1000)))
    m = draw(st.integers(1, f))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("normal", "few", "tied", "special")))
    if kind == "normal":
        rows = rng.normal(size=(r, f))
    elif kind == "few":
        rows = rng.integers(0, draw(st.integers(1, 4)), size=(r, f)).astype(np.float64)
    elif kind == "tied":
        rows = np.full((r, f), draw(st.sampled_from(SPECIAL_SCORES)))
    else:
        pool = draw(st.lists(st.sampled_from(SPECIAL_SCORES), min_size=1, max_size=5))
        special = rng.choice(pool, size=(r, f))
        rows = np.where(rng.random((r, f)) < 0.5, special, rng.normal(size=(r, f)))
    return rows, m


class TestTopMKernel:
    @settings(
        max_examples=200,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=score_rows())
    def test_same_files_as_the_loop_reference(self, case):
        """Each row holds M distinct files, the set that the (-score, index)
        order of the loop reference ranks first, as one row or a batch."""
        rows, m = case
        files = top_m(rows, m)
        assert files.shape == (rows.shape[0], m)
        for row, got in zip(rows, files):
            expected = loop_top_m(row.tolist(), m)
            assert len(set(got.tolist())) == m
            assert tuple(sorted(got.tolist())) == expected
        assert tuple(sorted(top_m(rows[0], m).tolist())) == loop_top_m(rows[0].tolist(), m)
        if np.isfinite(rows[0]).all():
            p = LinearParams(theta_g=rows[:1], theta_l=np.zeros((1, rows.shape[1])), theta_r=0.0)
            greedy = cr.greedy_top_m(p, state(0, 0, (1,), rows.shape[1]), m)
            assert greedy.files == tuple(i + 1 for i in loop_top_m(rows[0].tolist(), m))


class TestTdErrorAndSgd:
    def test_zero_params_error_is_cost(self):
        p = LinearParams.zeros(2, 2, 4)
        s0, s1 = state(0, 0, (1,), 4), state(1, 1, (2,), 4)
        a = cr.CacheAction(files=(2,), catalog_size=4)
        assert cr.linear_td_error(p, s0, a, s1, cost=17.0, gamma=0.9) == pytest.approx(17.0)

    def test_zero_cost_fixed_point(self):
        p = LinearParams.zeros(2, 2, 4)
        s0, s1 = state(0, 0, (1,), 4), state(1, 0, (3,), 4)
        a = cr.CacheAction(files=(3,), catalog_size=4)
        assert cr.linear_td_error(p, s0, a, s1, cost=0.0, gamma=0.8) == 0.0

    def test_hand_built_parameters(self):
        # psi(s0) = [4, 2, 1], psi(s1) = [1, 6, 2] (theta_r = 1 adds the cache mask)
        p = LinearParams(
            theta_g=np.array([[3.0, 2.0, 1.0], [0.0, 6.0, 1.0]]),
            theta_l=np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
            theta_r=1.0,
        )
        s0 = state(0, 0, (1,), 3)
        s1 = state(1, 1, (3,), 3)
        a = cr.CacheAction(files=(3,), catalog_size=3)
        # q_hat(s0, a) = psi(s0)[0] + psi(s0)[1] = 6
        # best next action caches file 2 (psi(s1) = [1, 6, 2]), q = 1 + 2 = 3
        got = cr.linear_td_error(p, s0, a, s1, cost=10.0, gamma=0.5)
        assert got == pytest.approx(10.0 + 0.5 * 3.0 - 6.0)

    def test_zero_error_keeps_parameters(self):
        rng = np.random.default_rng(3)
        p = random_params(rng, 2, 2, 4)
        s = state(0, 1, (1,), 4)
        a = cr.CacheAction(files=(2,), catalog_size=4)
        out = cr.sgd_update(p, s, a, 0.0, cr.LinearLearnerConfig(gamma=0.8))
        np.testing.assert_array_equal(out.theta_g, p.theta_g)
        np.testing.assert_array_equal(out.theta_l, p.theta_l)
        assert out.theta_r == p.theta_r

    def test_gradient_arithmetic(self):
        p = LinearParams.zeros(2, 2, 3)
        s = state(1, 0, (2,), 3)
        a = cr.CacheAction(files=(1,), catalog_size=3)
        cfg = cr.LinearLearnerConfig(alpha_g=0.1, alpha_l=0.2, alpha_r=0.3, gamma=0.8)
        out = cr.sgd_update(p, s, a, 2.0, cfg)
        np.testing.assert_allclose(out.theta_g[1], [0.0, 0.2 * 1, 0.2 * 1])
        np.testing.assert_allclose(out.theta_g[0], 0.0)
        np.testing.assert_allclose(out.theta_l[0], [0.0, 0.4, 0.4])
        # dropped count: file 2 was cached, is no longer -> 1
        assert out.theta_r == pytest.approx(0.3 * 2.0 * 1.0)

    def test_keeping_cache_leaves_theta_r(self):
        rng = np.random.default_rng(4)
        p = random_params(rng, 2, 2, 5)
        a = cr.CacheAction(files=(2, 4), catalog_size=5)
        s = cr.SystemState(g=0, l=0, action=a)
        out = cr.sgd_update(p, s, a, 3.0, cr.LinearLearnerConfig(gamma=0.8))
        assert out.theta_r == p.theta_r

    def test_pure_update_does_not_mutate_input(self):
        rng = np.random.default_rng(5)
        p = random_params(rng, 2, 2, 4)
        snapshot = p.copy()
        s = state(0, 0, (1,), 4)
        cr.sgd_update(p, s, cr.CacheAction(files=(2,), catalog_size=4), 1.5,
                      cr.LinearLearnerConfig(gamma=0.8))
        np.testing.assert_array_equal(p.theta_g, snapshot.theta_g)
        assert p.theta_r == snapshot.theta_r

    def test_non_finite_error_raises(self):
        p = LinearParams.zeros(1, 1, 3)
        s = state(0, 0, (1,), 3)
        with pytest.raises(DivergenceError):
            cr.sgd_update(p, s, cr.CacheAction(files=(2,), catalog_size=3), float("inf"),
                          cr.LinearLearnerConfig(gamma=0.8))


class TestLinearParams:
    @pytest.mark.parametrize(
        "bad, message",
        [
            (float("nan"), "parameters must be finite"),
            (float("inf"), "parameters must be finite"),
            (True, "theta_r must not be a boolean"),
            ("0.5", "theta_r must be a number"),
        ],
    )
    def test_theta_r_checked_like_its_siblings(self, bad, message):
        with pytest.raises(ValueError, match=message):
            LinearParams(theta_g=np.zeros((1, 3)), theta_l=np.zeros((1, 3)), theta_r=bad)


class TestLinearLearnerConfig:
    @pytest.mark.parametrize("name", ["alpha_g", "alpha_l", "alpha_r"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -0.1])
    def test_step_sizes_must_be_finite_and_positive(self, name, bad):
        with pytest.raises(ValueError, match=name):
            cr.LinearLearnerConfig(**{name: bad})


class TestGradientCheck:
    def test_semi_gradient_matches_central_differences(self):
        """Squared TD error with a frozen bootstrap target is quadratic in
        the parameters, so central differences are exact up to rounding."""
        rng = np.random.default_rng(6)
        for _ in range(25):
            f = int(rng.integers(3, 7))
            m = int(rng.integers(1, f))
            n_g, n_l = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            p = random_params(rng, n_g, n_l, f, scale=5.0)
            g_i, l_i = int(rng.integers(n_g)), int(rng.integers(n_l))
            prev_files = tuple(np.sort(rng.choice(f, m, replace=False)) + 1)
            s_prev = state(g_i, l_i, prev_files, f)
            a = cr.CacheAction(
                files=tuple(np.sort(rng.choice(f, m, replace=False)) + 1), catalog_size=f
            )
            cost = float(rng.uniform(0, 100))
            gamma = 0.8
            target = cost + gamma * 0.0  # frozen bootstrap contribution
            not_cached = 1.0 - a.as_mask()

            def loss(params):
                return 0.5 * (target - cr.q_hat(params, s_prev, a)) ** 2

            analytic_g = -(target - cr.q_hat(p, s_prev, a)) * not_cached
            h = 1e-5
            for i in range(f):
                bump = p.copy()
                bump.theta_g[g_i, i] += h
                dent = p.copy()
                dent.theta_g[g_i, i] -= h
                fd = (loss(bump) - loss(dent)) / (2 * h)
                denom = max(1.0, abs(analytic_g[i]))
                assert abs(fd - analytic_g[i]) / denom < 1e-6


class TestRunLinear:
    def test_single_slot_sparsity(self, small_net):
        g_chain, l_chain = small_net
        env = cr.PopularityEnv(g_chain=g_chain, l_chain=l_chain)
        config = cr.LinearLearnerConfig(epsilon=1.0, gamma=0.8)
        result = cr.run_linear(env, 2, cr.CostParams(10, 600, 1000), config, 1, realization_rng(2, 0))
        p = result.params
        g_rows_changed = np.any(p.theta_g != 0, axis=1).sum()
        l_rows_changed = np.any(p.theta_l != 0, axis=1).sum()
        assert g_rows_changed == 1 and l_rows_changed == 1
        # exactly F - M entries move within each changed row
        assert int((p.theta_g != 0).sum()) == 8
        assert int((p.theta_l != 0).sum()) == 8
        # the drawn random action differs from the initial cache, so the
        # refresh parameter moves too
        assert p.theta_r != 0.0

    def test_identical_seeds_bit_identical(self, small_net):
        g_chain, l_chain = small_net
        env = cr.PopularityEnv(g_chain=g_chain, l_chain=l_chain)
        config = cr.LinearLearnerConfig()
        runs = [
            cr.run_linear(env, 2, cr.CostParams(10, 600, 1000), config, 3000, realization_rng(8, 0))
            for _ in range(2)
        ]
        np.testing.assert_array_equal(runs[0].trace.costs, runs[1].trace.costs)
        np.testing.assert_array_equal(runs[0].params.theta_g, runs[1].params.theta_g)

    def test_divergence_guard_fires(self):
        rng = np.random.default_rng(11)
        chain_g = cr.random_chain(3, 60, rng, eta_range=(1.0, 2.0))
        chain_l = cr.random_chain(3, 60, rng, eta_range=(1.0, 2.0))
        env = cr.PopularityEnv(g_chain=chain_g, l_chain=chain_l)
        # step-size stability needs (alpha_g + alpha_l) * (F - M) well below
        # 2; here it is about 55, so the run must abort quickly
        config = cr.LinearLearnerConfig(alpha_g=0.5, alpha_l=0.5, alpha_r=0.5, epsilon=0.2, gamma=0.8)
        with pytest.raises(DivergenceError):
            cr.run_linear(env, 5, cr.CostParams(100, 500, 500), config, 5000, realization_rng(0, 0))

    def test_large_catalog_parameter_count(self):
        rng = np.random.default_rng(12)
        g_chain = cr.random_chain(50, 1000, rng)
        l_chain = cr.random_chain(40, 1000, rng)
        env = cr.PopularityEnv(g_chain=g_chain, l_chain=l_chain)
        config = cr.LinearLearnerConfig(
            alpha_g=0.0005, alpha_l=0.0005, alpha_r=0.0005, epsilon=1.0, gamma=0.8
        )
        result = cr.run_linear(env, 10, cr.CostParams(100, 20, 20), config, 200, realization_rng(0, 0))
        assert result.params.n_parameters == (50 + 40) * 1000 + 1 == 90_001

    def test_params_csv(self, tmp_path):
        p = LinearParams(
            theta_g=np.array([[1.0, 2.0]]), theta_l=np.array([[3.0, 4.0]]), theta_r=5.0
        )
        path = tmp_path / "params.csv"
        p.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "block,state,file,value"
        assert len(lines) == 6
        assert lines[-1].startswith("theta_r")


class TestEngineMatchesReferenceSemantics:
    def test_lockstep_equals_manual_loop(self, small_net):
        """Replay the engine's documented draw order through the plain-Python
        loop reference and demand bit-identical costs and parameters. With
        M = 2 the reference's min over next caches is one addition, as in
        ``test_differential``."""
        self.replay(small_net, 0.15)

    def test_lockstep_equals_manual_loop_explore_then_decay(self, small_net):
        """The same replay with epsilon = 1 for the first 61 slots, where
        ``select`` skips the greedy choice, and greedy slots after them."""
        eps = cr.ExploreThenInverseDecay(t_explore=60)
        explores = eps.epsilon_array(np.arange(1, 301)) == 1.0
        assert explores[:61].all() and not explores[61:].any()
        self.replay(small_net, eps)

    @staticmethod
    def replay(small_net, epsilon):
        g_chain, l_chain = small_net
        env = cr.PopularityEnv(g_chain=g_chain, l_chain=l_chain)
        params = cr.CostParams(10, 600, 1000)
        horizon = 300
        assert horizon <= CHUNK
        config = cr.LinearLearnerConfig(epsilon=epsilon, gamma=0.8)
        eps = config.epsilon.epsilon_array(np.arange(1, horizon + 1))
        result = cr.run_linear(env, 2, params, config, horizon, realization_rng(21, 0))

        f, m = 10, 2
        rng = realization_rng(21, 0)
        g = int(rng.integers(g_chain.n_states))
        l = int(rng.integers(l_chain.n_states))
        u_g = rng.random(horizon)
        u_l = rng.random(horizon)
        u_eps = rng.random(horizon)
        rand_u = rng.random((horizon, f))
        rand_files = np.sort(np.argpartition(rand_u, m - 1, axis=1)[:, :m], axis=1) + 1
        cum_g = np.cumsum(g_chain.transition, axis=1)
        cum_l = np.cumsum(l_chain.transition, axis=1)
        learner = LoopLinearLearner(g_chain.n_states, l_chain.n_states, f, m, config)
        prev = state(g, l, (1, 2), f)
        costs = []
        for t in range(horizon):
            files = tuple(rand_files[t].tolist()) if u_eps[t] < eps[t] else learner.top_m(prev)
            g = int((cum_g[g] <= u_g[t]).sum())
            l = int((cum_l[l] <= u_l[t]).sum())
            p_g, p_l = g_chain.states[g], l_chain.states[l]
            cost = loop_slot_cost(prev.action.files, files, p_g, p_l, params)
            nxt = state(g, l, files, f)
            learner.update(prev, files, nxt, cost)
            costs.append(cost)
            prev = nxt
        np.testing.assert_allclose(result.trace.costs, np.asarray(costs), rtol=0, atol=0)
        np.testing.assert_allclose(result.params.theta_g, learner.theta_g, rtol=0, atol=0)
        np.testing.assert_allclose(result.params.theta_l, learner.theta_l, rtol=0, atol=0)
        assert result.params.theta_r == learner.theta_r


class TestConvergenceSmall:
    def test_tracks_oracle_running_average(self, small_net, small_space):
        """Ten thousand slots suffice for the running-average cost to come
        within ten percent of the oracle's long-run average."""
        params = cr.CostParams(10, 600, 1000)
        optimal = cr.policy_iteration(small_space, 0.8, params)
        oracle_avg = cr.long_run_average_cost(small_space, optimal.policy, params)
        g_chain, l_chain = small_net
        sc = cr.Scenario(
            name="s1-linear",
            g_chain=g_chain,
            l_chain=l_chain,
            cache_size=2,
            gamma=0.8,
            lambda_schedule=cr.PiecewiseCostSchedule.constant(params),
            learner="linear",
            learner_config=cr.LinearLearnerConfig(epsilon=0.05, gamma=0.8),
            horizon=10_000,
            realizations=30,
            base_seed=19,
        )
        trace = cr.run_scenario(sc)
        assert abs(trace.run_avg_cost[-1] - oracle_avg) / oracle_avg < 0.10


@st.composite
def error_cases(draw):
    """A random instance (F <= 7, every M), a Q* reference (lambda1, W) over it,
    W either the oracle's or random, and R sets of random parameters, theta_r
    either near lambda1 or anywhere."""
    f = draw(st.integers(1, 7))
    m = draw(st.integers(1, f))
    n_g, n_l = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    space, params = random_instance(rng, f=f, m=m, n_g=n_g, n_l=n_l)
    if draw(st.booleans()):
        w = cr.policy_iteration(space, 0.8, params).w
    else:
        w = rng.normal(scale=params.lambda1, size=(n_g * n_l, space.n_actions))
    # with M = F the oracle's costs may all round to 0
    assume(np.linalg.norm(space.q_table(params.lambda1, w)) > 0.0)
    n_real = draw(st.integers(1, 4))
    scale = params.lambda1 / f
    theta_g = rng.normal(scale=scale, size=(n_real, n_g, f))
    theta_l = rng.normal(scale=scale, size=(n_real, n_l, f))
    if draw(st.booleans()):
        theta_r = params.lambda1 * (1.0 + rng.normal(scale=1e-6, size=n_real))
    else:
        theta_r = rng.normal(scale=params.lambda1, size=n_real)
    return space, (params.lambda1, w), theta_g, theta_l, theta_r


class TestClosedFormQError:
    """``BatchLinearAgent.normalized_error`` sums per overlap k = |a_prev & a|;
    ``normalized_q_error`` materializes each realization's (|S|, |A|) table."""

    @staticmethod
    def agent_for(space, reference, n_real):
        f, m = space.catalog_size, space.cache_size
        agent = BatchLinearAgent(space.n_g, space.n_l, f, m, cr.LinearLearnerConfig())
        agent.set_error_reference(*reference, space)
        agent.begin(n_real)
        return agent

    @staticmethod
    def oracle_reference(space, params):
        return params.lambda1, cr.policy_iteration(space, 0.8, params).w

    @settings(
        max_examples=100,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(error_cases())
    def test_equals_the_materialized_error(self, case):
        space, reference, theta_g, theta_l, theta_r = case
        agent = self.agent_for(space, reference, len(theta_r))
        agent.theta_g[:], agent.theta_l[:], agent.theta_r[:] = theta_g, theta_l, theta_r
        qstar = space.q_table(*reference)
        materialized = [
            cr.normalized_q_error(agent.params_of(r), qstar, space) for r in range(len(theta_r))
        ]
        np.testing.assert_allclose(agent.normalized_error(), materialized, rtol=1e-12, atol=0)

    def test_one_snapshot_at_twenty_files_stays_small(self):
        """F = 20, M = 3, R = 10: each Q table would take 39.7 MiB."""
        space = cr.StateSpace(*cr.small_network_chains(20), 3)
        reference = self.oracle_reference(space, cr.PRESET_PARAMS["s1"])
        agent = self.agent_for(space, reference, 10)
        rng = np.random.default_rng(5)
        agent.theta_g[:] = rng.normal(scale=100.0, size=agent.theta_g.shape)
        agent.theta_l[:] = rng.normal(scale=100.0, size=agent.theta_l.shape)
        agent.theta_r[:] = rng.normal(scale=600.0, size=10)
        errors, peak = traced_peak(agent.normalized_error)
        assert peak < 2**20
        expected = cr.normalized_q_error(agent.params_of(9), space.q_table(*reference), space)
        assert errors[9] == pytest.approx(expected, rel=1e-12)

    def test_overflowing_error_diverges(self, small_space):
        """theta_g = 1e160 overflows the squared error: DivergenceError, no warning, no inf."""
        reference = self.oracle_reference(small_space, cr.PRESET_PARAMS["s1"])
        agent = self.agent_for(small_space, reference, 2)
        agent.theta_g[1] = 1e160
        with pytest.raises(DivergenceError, match="^non-finite linear Q error; aborting run$"):
            agent.normalized_error()
