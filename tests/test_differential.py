"""Differential tests: the lockstep engine against a manual per-slot loop.

On random small instances, ``run_lockstep`` with each learner kind, the
oracle-policy agent and the random baseline must reproduce, bit for bit, a
loop that replays the engine's documented draw order (per realization:
initial global and local state, then per chunk the global chain draws, the
local chain draws, the request samples in empirical mode, and the agent's
own draws) through the single-step public API: ``step_chain``,
``sample_requests``, ``quantize_to_state(estimate_empirical(...))``,
``aggregate_cost``, ``ExactQLearner`` and ``psi``/``greedy_top_m``/
``linear_td_error``/``sgd_update``. For one realization, the learners'
traces must equal the loop's actions, seen states and costs slot by slot.

Catalogs stay below 8 files, so every numpy sum over a catalog-length row
(the engine's masked sums) and every sum over the cached files (the scalar
API) is a plain left-to-right sum: both see the same nonzero terms in the
same order, and the results are equal. The chunk size is drawn too, so chunk
boundaries fall anywhere in the horizon.
"""

from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cache_rl as cr
from cache_rl import simulate
from cache_rl.caching_core import aggregate_cost
from cache_rl.q_exact import BatchExactAgent
from cache_rl.q_linear import BatchLinearAgent, LinearParams
from cache_rl.schedules import VisitCountBeta

SETTINGS = settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def random_chain(rng, n_states, f, duplicate):
    """Dirichlet profiles and rows; ``duplicate`` makes state 1 equal state 0
    (a quantization tie, which must go to the lower index)."""
    probs = rng.dirichlet(np.ones(f), size=n_states)
    if duplicate and n_states > 1:
        probs[1] = probs[0]
    trans = rng.dirichlet(np.ones(n_states), size=n_states)
    return cr.MarkovChain(states=tuple(cr.PopularityProfile(p) for p in probs), transition=trans)


@st.composite
def instances(draw, max_m):
    """A random engine run: chains, cache size, costs, exploration, mode, sizes."""
    f = draw(st.integers(1, 6))
    m = draw(st.integers(1, min(f, max_m)))
    n_g = draw(st.integers(1, 3))
    n_l = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g_chain = random_chain(rng, n_g, f, duplicate=False)
    l_chain = random_chain(rng, n_l, f, duplicate=draw(st.booleans()))
    horizon = draw(st.integers(1, 40))
    lam = st.integers(0, 1000)
    segments = [(0, cr.CostParams(draw(lam), draw(lam), draw(lam)))]
    switch = draw(st.integers(0, horizon))
    if 0 < switch < horizon:
        segments.append((switch, cr.CostParams(draw(lam), draw(lam), draw(lam))))
    mode = draw(st.sampled_from(simulate.REQUEST_MODES))
    env = cr.PopularityEnv(
        g_chain=g_chain,
        l_chain=l_chain,
        request_mode=mode,
        requests_per_slot=draw(st.integers(1, 30)),
    )
    return dict(
        env=env,
        m=m,
        schedule=cr.PiecewiseCostSchedule(segments=tuple(segments)),
        horizon=horizon,
        chunk=draw(st.integers(1, horizon + 1)),
        n_real=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 2**32 - 1)),
        epsilon=draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)),
        rng=rng,
    )


def run_engine(inst, agent, collect_trace=False):
    rngs = [cr.realization_rng(inst["seed"], r) for r in range(inst["n_real"])]
    with mock.patch.object(simulate, "CHUNK", inst["chunk"]):
        return simulate.run_lockstep(
            inst["env"], agent, inst["schedule"], inst["horizon"], rngs, collect_trace
        )


def walk(chain, state, n, rng):
    path = []
    for _ in range(n):
        state = cr.step_chain(chain, state, rng)
        path.append(state)
    return path


def manual_run(inst, realization, agent_draws, choose, update):
    """One realization through the scalar API.

    Returns (costs, hits, actions, g_states, l_states): per slot, the cost,
    the hit fraction, the chosen CacheAction and the next state it saw.

    ``agent_draws(rng, n)`` makes the agent's draws for a chunk,
    ``choose(t, j, draws, prev)`` picks the action from the previous
    SystemState, and ``update(prev, action, next_state, cost)`` learns.
    """
    env, m, horizon, chunk = inst["env"], inst["m"], inst["horizon"], inst["chunk"]
    g_chain, l_chain, f = env.g_chain, env.l_chain, env.catalog_size
    rng = cr.realization_rng(inst["seed"], realization)
    g = int(rng.integers(g_chain.n_states))
    l = int(rng.integers(l_chain.n_states))
    prev = cr.SystemState(g=g, l=l, action=cr.CacheAction(tuple(range(1, m + 1)), f))
    costs, hits, actions, g_states, l_states = [], [], [], [], []
    for c0 in range(0, horizon, chunk):
        n = min(chunk, horizon - c0)
        g_path = walk(g_chain, g, n, rng)
        l_path = walk(l_chain, l, n, rng)
        g, l = g_path[-1], l_path[-1]
        if env.request_mode == "empirical":
            revealed = [
                cr.estimate_empirical(
                    cr.sample_requests(l_chain.states[x], env.requests_per_slot, rng)
                )
                for x in l_path
            ]
            seen = [cr.quantize_to_state(p, l_chain) for p in revealed]
        else:
            revealed = [l_chain.states[x] for x in l_path]
            seen = l_path
        draws = agent_draws(rng, n)
        for j in range(n):
            t = c0 + j
            action = choose(t, j, draws, prev)
            g_next = g_path[j]
            cost = aggregate_cost(
                prev,
                action,
                g_chain.states[g_next],
                revealed[j],
                inst["schedule"].params_at(t),
            )
            nxt = cr.SystemState(g=g_next, l=seen[j], action=action)
            update(prev, action, nxt, cost)
            costs.append(cost)
            hits.append(cr.cache_hit_fraction(action, revealed[j]))
            actions.append(action)
            g_states.append(nxt.g)
            l_states.append(nxt.l)
            prev = nxt
    return costs, hits, actions, g_states, l_states


def assert_same_aggregates(result, per_real):
    """Per-slot means over realizations, each taken over one contiguous
    (R,) vector as the engine takes it (a strided axis-0 mean may add the
    terms in another order)."""
    for k, got in enumerate((result.avg_cost, result.hit_fraction)):
        per_slot = np.array([run[k] for run in per_real]).T.copy()
        np.testing.assert_array_equal(got, [row.mean() for row in per_slot])


def assert_same_trace(result, per_real):
    """With one realization, the engine's trace equals the manual loop's
    actions (as 0-based files), seen states and costs."""
    trace = result.trace
    if trace is None:
        return
    costs, _, actions, g_states, l_states = per_real[0]
    np.testing.assert_array_equal(trace.actions, [[x - 1 for x in a.files] for a in actions])
    np.testing.assert_array_equal(trace.g_states, g_states)
    np.testing.assert_array_equal(trace.l_states, l_states)
    np.testing.assert_array_equal(trace.costs, costs)


def explore_draws(n_actions):
    def draws(rng, n):
        return rng.random(n), rng.integers(0, n_actions, size=n)

    return draws


class TestEngineAgainstManualLoop:
    @SETTINGS
    @given(inst=instances(max_m=6), visit_beta=st.booleans())
    def test_exact_agent(self, inst, visit_beta):
        env, m = inst["env"], inst["m"]
        space = cr.StateSpace(env.g_chain, env.l_chain, m)
        config = cr.QLearnerConfig(
            beta=VisitCountBeta() if visit_beta else 0.8, epsilon=inst["epsilon"], gamma=0.8
        )
        agent = BatchExactAgent(space, config)
        result = run_engine(inst, agent, collect_trace=inst["n_real"] == 1)
        index = space.actions.index_of
        per_real = []
        for r in range(inst["n_real"]):
            learner = cr.ExactQLearner(space, config)

            def choose(t, j, draws, prev):
                u, explore_a = draws
                s = space.state_index(prev.g, prev.l, index(prev.action))
                greedy = int(np.argmin(learner.q[s]))
                a = int(explore_a[j]) if u[j] < config.epsilon.epsilon_at(t + 1) else greedy
                return space.actions.action(a)

            def update(prev, action, nxt, cost):
                s_prev = space.state_index(prev.g, prev.l, index(prev.action))
                s_next = space.state_index(nxt.g, nxt.l, index(action))
                learner.td_update(s_prev, index(action), s_next, cost)

            per_real.append(
                manual_run(inst, r, explore_draws(space.n_actions), choose, update)
            )
            np.testing.assert_array_equal(agent.q[r], learner.q)
        assert_same_aggregates(result, per_real)
        assert_same_trace(result, per_real)

    # The engine sums the top-M scores in np.partition order, the scalar
    # q_hat in ascending file order; for M <= 2 the two sums are the same
    # single addition, for M >= 3 they may round differently.
    @SETTINGS
    @given(inst=instances(max_m=2), alpha=st.floats(1e-4, 0.02))
    def test_linear_agent(self, inst, alpha):
        env, m = inst["env"], inst["m"]
        f = env.catalog_size
        config = cr.LinearLearnerConfig(
            alpha_g=alpha, alpha_l=alpha / 2, alpha_r=alpha, epsilon=inst["epsilon"], gamma=0.8
        )
        agent = BatchLinearAgent(env.g_chain.n_states, env.l_chain.n_states, f, m, config)
        result = run_engine(inst, agent, collect_trace=inst["n_real"] == 1)
        per_real = []
        for r in range(inst["n_real"]):
            params = [LinearParams.zeros(env.g_chain.n_states, env.l_chain.n_states, f)]

            def draws(rng, n):
                u = rng.random(n)
                rand_u = rng.random((n, f))
                return u, np.sort(np.argpartition(rand_u, m - 1, axis=1)[:, :m], axis=1)

            def choose(t, j, draws, prev):
                u, rand_files = draws
                if u[j] < config.epsilon.epsilon_at(t + 1):
                    return cr.CacheAction(tuple(int(x) + 1 for x in rand_files[j]), f)
                return cr.greedy_top_m(params[0], prev, m)

            def update(prev, action, nxt, cost):
                err = cr.linear_td_error(params[0], prev, action, nxt, cost, config.gamma)
                params[0] = cr.sgd_update(params[0], prev, action, err, config)

            per_real.append(manual_run(inst, r, draws, choose, update))
            np.testing.assert_array_equal(agent.theta_g[r], params[0].theta_g)
            np.testing.assert_array_equal(agent.theta_l[r], params[0].theta_l)
            assert agent.theta_r[r] == params[0].theta_r
        assert_same_aggregates(result, per_real)
        assert_same_trace(result, per_real)

    @SETTINGS
    @given(inst=instances(max_m=6))
    def test_oracle_policy_agent(self, inst):
        env, m = inst["env"], inst["m"]
        space = cr.StateSpace(env.g_chain, env.l_chain, m)
        policy = inst["rng"].integers(0, space.n_actions, size=space.n_states)
        result = run_engine(inst, simulate.OraclePolicyAgent(space, policy))
        index = space.actions.index_of

        def choose(t, j, draws, prev):
            s = space.state_index(prev.g, prev.l, index(prev.action))
            return space.actions.action(int(policy[s]))

        per_real = [
            manual_run(inst, r, lambda rng, n: None, choose, lambda *args: None)
            for r in range(inst["n_real"])
        ]
        assert_same_aggregates(result, per_real)

    @SETTINGS
    @given(inst=instances(max_m=6))
    def test_random_baseline_agent(self, inst):
        env, m = inst["env"], inst["m"]
        f = env.catalog_size
        result = run_engine(inst, simulate.RandomBaselineAgent(f, m))

        def draws(rng, n):
            return np.argpartition(rng.random((n, f)), m - 1, axis=1)[:, :m]

        def choose(t, j, draws, prev):
            return cr.CacheAction(tuple(int(x) + 1 for x in draws[j]), f)

        per_real = [
            manual_run(inst, r, draws, choose, lambda *args: None) for r in range(inst["n_real"])
        ]
        assert_same_aggregates(result, per_real)
