"""Differential tests: the lockstep engine against a manual per-slot loop.

On random small instances, ``run_lockstep`` with each learner kind, the
oracle-policy agent and the random baseline must reproduce, bit for bit, a
loop that replays the engine's documented draw order (per realization:
initial global and local state, then per chunk the global chain draws, the
local chain draws, the request samples in empirical mode, and the agent's
own draws). The loop draws through the single-step public API
(``step_chain``, ``sample_requests``,
``quantize_to_state(estimate_empirical(...))``) and computes the slot cost,
the hit fraction and both learners' steps with the plain-Python loop
reference in ``oracles_util`` (``loop_slot_cost``, ``loop_cached_mass``,
``LoopExactLearner``, ``LoopLinearLearner``), which shares no code with the
kernels the engine and its agents run. For one realization, the learners'
traces must equal the loop's actions, seen states and costs slot by slot.

Catalogs stay below 8 files, so every numpy sum over a catalog-length row
(the engine's masked sums) is a plain left-to-right sum, and so is the
reference's sum over the cached files in ascending order: both see the same
nonzero terms in the same order, and the results are equal. The chunk size
and the engine's metric block size are drawn too, so their boundaries fall
anywhere in the horizon, and so are windows, which straddle them. Larger
catalogs are covered engine against engine: the cost an agent with an
explicit state space reads from tables against the same policy's masked sums.
The engine's chain walk is checked against ``next_states`` and ``step_chain``
stepping on its own.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cache_rl as cr
from cache_rl import simulate
from cache_rl.popularity import PROB_TOL, next_states
from cache_rl.q_exact import BatchExactAgent
from cache_rl.q_linear import BatchLinearAgent
from cache_rl.schedules import VisitCountBeta
from oracles_util import (
    LoopExactLearner,
    LoopLinearLearner,
    loop_cached_mass,
    loop_slot_cost,
    row_sum,
)

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
        # 255/256 and 65535/65536 cross the count table's uint8/uint16/uint32 boundaries
        requests_per_slot=draw(st.integers(1, 30) | st.sampled_from([255, 256, 65_535, 65_536])),
    )
    bounds = st.lists(st.integers(0, horizon), min_size=2, max_size=2, unique=True).map(sorted)
    return dict(
        env=env,
        m=m,
        schedule=cr.PiecewiseCostSchedule(segments=tuple(segments)),
        horizon=horizon,
        chunk=draw(st.integers(1, horizon + 1)),
        block=draw(st.integers(1, horizon + 1)),
        windows=tuple(map(tuple, draw(st.lists(bounds, max_size=3)))),
        n_real=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 2**32 - 1)),
        epsilon=draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)),
        rng=rng,
    )


def sizes_of(inst):
    """The instance's chunk and metric block sizes, patched into the engine."""
    return mock.patch.multiple(simulate, CHUNK=inst["chunk"], DRAW_ROWS=inst["block"])


def run_engine(inst, agent, collect_trace=False):
    rngs = [cr.realization_rng(inst["seed"], r) for r in range(inst["n_real"])]
    with sizes_of(inst):
        return simulate.run_lockstep(
            inst["env"],
            agent,
            inst["schedule"],
            inst["horizon"],
            rngs,
            collect_trace,
            windows=inst["windows"],
        )


def walk(chain, state, n, rng):
    path = []
    for _ in range(n):
        state = cr.step_chain(chain, state, rng)
        path.append(state)
    return path


def manual_run(inst, realization, agent_draws, choose, update):
    """One realization through the single-step API and the loop reference.

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
            cost = loop_slot_cost(
                prev.action.files,
                action.files,
                g_chain.states[g_next],
                revealed[j],
                inst["schedule"].params_at(t),
            )
            nxt = cr.SystemState(g=g_next, l=seen[j], action=action)
            update(prev, action, nxt, cost)
            costs.append(cost)
            hits.append(loop_cached_mass(action.files, revealed[j].probs))
            actions.append(action)
            g_states.append(nxt.g)
            l_states.append(nxt.l)
            prev = nxt
    return costs, hits, actions, g_states, l_states


def assert_same_aggregates(result, per_real, windows):
    """Per-slot means over realizations, each taken over one contiguous
    (R,) vector as the engine takes it (a strided axis-0 mean may add the
    terms in another order); the per-slot standard deviation from the means
    of the costs and of their squares; and per realization and window, the
    mean cost and hit fraction, summed slot by slot from zero."""
    costs, hits = (np.array([run[k] for run in per_real]).T.copy() for k in (0, 1))
    cost_mean = np.array([row.mean() for row in costs])
    sq_mean = np.array([(row * row).mean() for row in costs])
    np.testing.assert_array_equal(result.avg_cost, cost_mean)
    np.testing.assert_array_equal(result.hit_fraction, [row.mean() for row in hits])
    std = np.sqrt(np.maximum(sq_mean - cost_mean**2, 0.0))
    np.testing.assert_array_equal(result.cost_std, std)
    for k, got in enumerate((result.window_cost, result.window_hit)):
        want = np.zeros((len(per_real), len(windows)))
        for r, run in enumerate(per_real):
            for w, (a, b) in enumerate(windows):
                total = 0.0
                for x in run[k][a:b]:
                    total += x
                want[r, w] = total / (b - a)
        np.testing.assert_array_equal(got, want)


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
            learner = LoopExactLearner(
                space.n_states, space.n_actions, config.gamma, None if visit_beta else config.beta
            )

            def choose(t, j, draws, prev):
                u, explore_a = draws
                s = space.state_index(prev.g, prev.l, index(prev.action))
                greedy = learner.greedy(s)
                a = int(explore_a[j]) if u[j] < config.epsilon.epsilon_at(t + 1) else greedy
                return space.actions.action(a)

            def update(prev, action, nxt, cost):
                s_prev = space.state_index(prev.g, prev.l, index(prev.action))
                s_next = space.state_index(nxt.g, nxt.l, index(action))
                learner.update(s_prev, index(action), s_next, cost)

            per_real.append(
                manual_run(inst, r, explore_draws(space.n_actions), choose, update)
            )
            np.testing.assert_array_equal(agent.q[r], np.array(learner.q))
        assert_same_aggregates(result, per_real, inst["windows"])
        assert_same_trace(result, per_real)

    # The engine's min over next caches sums the top-M scores in
    # np.partition order; the loop reference takes the minimum of the Q of
    # every cache, each summed in ascending file order. For M <= 2 each sum
    # is one addition and both minima are the same number; for M >= 3 they
    # may round differently.
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
            learner = LoopLinearLearner(env.g_chain.n_states, env.l_chain.n_states, f, m, config)

            def draws(rng, n):
                u = rng.random(n)
                rand_u = rng.random((n, f))
                return u, np.sort(np.argpartition(rand_u, m - 1, axis=1)[:, :m], axis=1)

            def choose(t, j, draws, prev):
                u, rand_files = draws
                if u[j] < config.epsilon.epsilon_at(t + 1):
                    return cr.CacheAction(tuple(int(x) + 1 for x in rand_files[j]), f)
                return cr.CacheAction(learner.top_m(prev), f)

            def update(prev, action, nxt, cost):
                learner.update(prev, action.files, nxt, cost)

            per_real.append(manual_run(inst, r, draws, choose, update))
            np.testing.assert_array_equal(agent.theta_g[r], np.array(learner.theta_g))
            np.testing.assert_array_equal(agent.theta_l[r], np.array(learner.theta_l))
            assert agent.theta_r[r] == learner.theta_r
        assert_same_aggregates(result, per_real, inst["windows"])
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
        assert_same_aggregates(result, per_real, inst["windows"])

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
        assert_same_aggregates(result, per_real, inst["windows"])


class MaskPolicyAgent:
    """``OraclePolicyAgent``'s policy without ``space``: it returns the chosen
    actions as (R, F) masks, so the engine sums each cost term over them."""

    def __init__(self, agent):
        self.agent, self.f, self.m = agent, agent.f, agent.m

    def begin(self, n):
        self._a = np.zeros(n, dtype=np.int64)

    def predraw(self, rngs, ts):
        pass

    def select(self, j, g, l_seen, mask_prev):
        self._a = self.agent.select(j, g, l_seen, self._a)
        return self.agent.space.action_masks[self._a]

    def learn(self, j, g_next, l_next_seen, cost, refresh):
        pass


@st.composite
def wide_instances(draw):
    """Catalogs of 8 to 20 files, where numpy sums a row pairwise, with every
    M whose action space stays small (up to 300 caches)."""
    f = draw(st.integers(8, 20))
    m = draw(st.sampled_from([m for m in range(1, f + 1) if math.comb(f, m) <= 300]))
    inst = draw(instances(max_m=1))
    rng = inst["rng"]
    env = inst["env"]
    g_chain = random_chain(rng, env.g_chain.n_states, f, duplicate=False)
    l_chain = random_chain(rng, env.l_chain.n_states, f, duplicate=True)
    inst["env"] = cr.PopularityEnv(g_chain, l_chain, env.request_mode, env.requests_per_slot)
    inst["m"] = m
    return inst


class TestIndexTablesAgainstMasks:
    """An agent with ``space`` has its slot cost read from tables built once
    per run; the same policy returning masks has it summed every slot. Both
    must give the same metrics, bit for bit, at catalogs where numpy's
    pairwise sum is in play."""

    @SETTINGS
    @given(inst=wide_instances())
    def test_oracle_policy_agent(self, inst):
        env, m, horizon = inst["env"], inst["m"], inst["horizon"]
        space = cr.StateSpace(env.g_chain, env.l_chain, m)
        policy = inst["rng"].integers(0, space.n_actions, size=space.n_states)
        windows = ((0, horizon), (horizon // 2, horizon))
        runs = []
        for agent in (
            simulate.OraclePolicyAgent(space, policy),
            MaskPolicyAgent(simulate.OraclePolicyAgent(space, policy)),
        ):
            rngs = [cr.realization_rng(inst["seed"], r) for r in range(inst["n_real"])]
            with sizes_of(inst):
                runs.append(
                    simulate.run_lockstep(
                        env, agent, inst["schedule"], horizon, rngs, windows=windows
                    )
                )
        tables, masks = runs
        for name in ("avg_cost", "hit_fraction", "cost_std", "window_cost", "window_hit"):
            np.testing.assert_array_equal(getattr(tables, name), getattr(masks, name))


@SETTINGS
@given(n=st.integers(1, 600), seed=st.integers(0, 2**32 - 1))
def test_row_sum_is_numpy_row_order(n, seed):
    """The loop reference's ``row_sum`` adds a row's terms as numpy does."""
    row = np.random.default_rng(seed).normal(scale=100.0, size=(1, n))
    assert row_sum(row[0].tolist()) == row.sum(axis=-1)[0]


@st.composite
def walk_chains(draw):
    """A chain for the walk: one to five states or 60 (s7's chains have 50
    and 40); Dirichlet rows with some entries zeroed, or rows on a 1/4 grid,
    whose zeros and cumulative values repeat across rows; and in some
    chains rows scaled to sum to 1 - PROB_TOL / 2, where a uniform can lie
    above a row's last cumulative value and the clamp fires."""
    n = draw(st.sampled_from([1, 2, 3, 5, 60]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        trans = rng.multinomial(4, np.ones(n) / n, size=n) / 4.0
    else:
        trans = rng.dirichlet(np.ones(n), size=n)
        trans[rng.random((n, n)) < 0.3] = 0.0
        trans[np.arange(n), rng.integers(0, n, size=n)] += 1e-3  # no row left empty
        trans /= trans.sum(axis=1, keepdims=True)
    trans[rng.random(n) < draw(st.sampled_from([0.0, 0.5]))] *= 1.0 - PROB_TOL / 2
    profile = cr.PopularityProfile([1.0])
    return cr.MarkovChain(states=(profile,) * n, transition=trans)


class TestChainWalk:
    """``chain_path`` over a ``walk_table`` against one ``next_states`` step
    per slot, from the same uniforms."""

    @SETTINGS
    @given(chain=walk_chains(), seed=st.integers(0, 2**32 - 1), n_real=st.integers(1, 3))
    def test_walk_is_step_chain(self, chain, seed, n_real):
        """From a Generator's stream, the walk equals ``step_chain`` per slot."""
        n = 50
        rngs = [np.random.default_rng([seed, r]) for r in range(n_real)]
        start = np.array([rng.integers(chain.n_states) for rng in rngs])
        u = np.empty((n, n_real))
        for r, rng in enumerate(rngs):
            u[:, r] = rng.random(n)
        table = simulate.walk_table(np.cumsum(chain.transition, axis=1))
        path = simulate.chain_path(table, start, u)
        for r in range(n_real):
            rng = np.random.default_rng([seed, r])
            state = int(rng.integers(chain.n_states))
            np.testing.assert_array_equal(path[:, r], walk(chain, state, n, rng))

    @SETTINGS
    @given(chain=walk_chains(), picks=st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=80))
    def test_walk_on_breakpoints(self, chain, picks):
        """Uniforms on a breakpoint, one float either side of it, 0 and the
        largest float below 1, stepped as ``next_states`` steps them."""
        cum = np.cumsum(chain.transition, axis=1)
        values = np.unique(cum)
        crafted = np.concatenate(
            [values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf), [0.0, 1.0]]
        )
        crafted = np.unique(np.clip(crafted, 0.0, np.nextafter(1.0, 0.0)))
        picks = np.array(picks[: len(picks) // 2 * 2])
        u = crafted[picks % crafted.size].reshape(-1, 2)  # two realizations
        start = picks[:2] % chain.n_states
        path = simulate.chain_path(simulate.walk_table(cum), start, u)
        state = start
        for j, row in enumerate(u):
            state = next_states(cum[state], row)
            np.testing.assert_array_equal(path[j], state)


@st.composite
def single_steps(draw, max_f):
    """A start for a few slots of one realization: chains, sizes, the first
    state, cost weights and the learners' hyperparameters."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # sizes uniform over the range, not skewed small as st.integers draws them
    f = int(rng.integers(1, max_f + 1))
    m = int(rng.integers(1, f + 1))
    g_chain = random_chain(rng, draw(st.integers(1, 2)), f, duplicate=False)
    l_chain = random_chain(rng, draw(st.integers(1, 2)), f, duplicate=False)
    return dict(
        g_chain=g_chain,
        l_chain=l_chain,
        m=m,
        rng=rng,
        g=int(rng.integers(g_chain.n_states)),
        l=int(rng.integers(l_chain.n_states)),
        prev_files=tuple(int(x) + 1 for x in np.sort(rng.permutation(f)[:m])),
        params=cr.CostParams(*rng.uniform(0.0, 1000.0, size=3)),
        explore=draw(st.booleans()),
        gamma=draw(st.floats(0.0, 0.99)),
    )


def engine_cost(mask_prev, mask, p_g, p_l, params):
    """The cost of caching ``mask`` after ``mask_prev`` (one realization's
    (1, F) masks) as ``run_lockstep`` computes it, on one-state chains with
    the profiles ``p_g`` and ``p_l``."""
    picks, costs = [mask_prev, mask], []

    class Replay:
        m = int(mask.sum())
        f = mask.shape[-1]

        def begin(self, n):
            pass

        def predraw(self, rngs, ts):
            pass

        def select(self, j, g, l_seen, prev):
            return picks[len(costs)]

        def learn(self, j, g_next, l_next_seen, cost, refresh):
            costs.append(cost[0])

    def chain(p):
        return cr.MarkovChain(states=(cr.PopularityProfile(p),), transition=[[1.0]])

    env = cr.PopularityEnv(g_chain=chain(p_g), l_chain=chain(p_l))
    schedule = cr.PiecewiseCostSchedule.constant(params)
    simulate.run_lockstep(env, Replay(), schedule, 2, [np.random.default_rng(0)])
    return costs[1]


class TestScalarApiIsTheBatchMath:
    """The single-state API against the lockstep agents and engine with one
    realization, bit for bit, at catalogs up to 12 files and every M <= F.

    The loop reference above is the correctness check; these cases pin the
    scalar names to the same kernels at sizes where a second copy of the
    math would round differently (numpy's pairwise sums from 8 files on,
    np.partition order from 3 cached files on).
    """

    @SETTINGS
    @given(case=single_steps(max_f=12), alpha=st.floats(1e-4, 0.1))
    def test_linear_select_and_learn(self, case, alpha):
        g_chain, l_chain, m, rng = case["g_chain"], case["l_chain"], case["m"], case["rng"]
        n_g, n_l, f = g_chain.n_states, l_chain.n_states, g_chain.catalog_size
        config = cr.LinearLearnerConfig(
            alpha_g=alpha, alpha_l=alpha / 2, alpha_r=alpha, epsilon=float(case["explore"]),
            gamma=case["gamma"],
        )
        agent = BatchLinearAgent(n_g, n_l, f, m, config)
        agent.begin(1)
        # few distinct values, so that top-M ties occur
        agent.theta_g[0] = rng.integers(-3, 4, size=(n_g, f)) * 100.0 + rng.normal(size=(n_g, f))
        agent.theta_l[0] = rng.integers(-3, 4, size=(n_l, f)) * 10.0
        agent.theta_r[0] = rng.normal(scale=100.0)
        params = agent.params_of(0)
        prev = cr.SystemState(case["g"], case["l"], cr.CacheAction(case["prev_files"], f))
        for _ in range(5):
            agent.predraw([rng], np.arange(1))
            mask_prev = prev.action.as_mask()[None]
            mask = agent.select(0, np.array([prev.g]), np.array([prev.l]), mask_prev)
            action = cr.CacheAction(tuple(int(x) + 1 for x in np.flatnonzero(mask[0])), f)
            if not case["explore"]:
                assert cr.greedy_top_m(params, prev, m) == action
            nxt = cr.SystemState(int(rng.integers(n_g)), int(rng.integers(n_l)), action)
            cost = float(rng.uniform(0.0, 2000.0))
            refresh = np.array([cr.refresh_cost(action, prev.action, 1.0)])
            agent.learn(0, np.array([nxt.g]), np.array([nxt.l]), np.array([cost]), refresh)
            err = cr.linear_td_error(params, prev, action, nxt, cost, config.gamma)
            params = cr.sgd_update(params, prev, action, err, config)
            np.testing.assert_array_equal(agent.theta_g[0], params.theta_g)
            np.testing.assert_array_equal(agent.theta_l[0], params.theta_l)
            assert agent.theta_r[0] == params.theta_r
            prev = nxt

    @SETTINGS
    @given(case=single_steps(max_f=12), visit_beta=st.booleans())
    def test_exact_select_and_learn(self, case, visit_beta):
        g_chain, l_chain, m, rng = case["g_chain"], case["l_chain"], case["m"], case["rng"]
        space = cr.StateSpace(g_chain, l_chain, m)
        config = cr.QLearnerConfig(
            beta=VisitCountBeta() if visit_beta else 0.8,
            epsilon=float(case["explore"]),
            gamma=case["gamma"],
        )
        agent = BatchExactAgent(space, config)
        agent.begin(1)
        # few distinct values, so that argmin ties occur
        agent.q[0] = rng.integers(0, 3, size=agent.q[0].shape) * 10.0
        learner = cr.ExactQLearner(space, config)
        learner.q[:] = agent.q[0]
        lazy = np.random.default_rng(0)
        g, l, a_prev = case["g"], case["l"], 0
        for _ in range(3):
            agent.predraw([rng], np.arange(1))
            s_prev = space.state_index(g, l, a_prev)
            a = int(agent.select(0, np.array([g]), np.array([l]), np.array([a_prev]))[0])
            if not case["explore"]:
                assert learner.epsilon_greedy_action(s_prev, 0.0, lazy) == a
            g, l = int(rng.integers(space.n_g)), int(rng.integers(space.n_l))
            cost = float(rng.uniform(0.0, 2000.0))
            agent.learn(0, np.array([g]), np.array([l]), np.array([cost]), None)
            learner.td_update(s_prev, a, space.state_index(g, l, a), cost)
            np.testing.assert_array_equal(agent.q[0], learner.q)
            a_prev = a

    @SETTINGS
    @given(case=single_steps(max_f=12))
    def test_aggregate_cost_is_the_engine_cost(self, case):
        g_chain, l_chain, m, rng = case["g_chain"], case["l_chain"], case["m"], case["rng"]
        f = g_chain.catalog_size
        p_g, p_l = g_chain.states[0], l_chain.states[0]
        prev = cr.SystemState(case["g"], case["l"], cr.CacheAction(case["prev_files"], f))
        for _ in range(5):
            files = tuple(int(x) + 1 for x in np.sort(rng.permutation(f)[:m]))
            action = cr.CacheAction(files, f)
            masks = (prev.action.as_mask()[None], action.as_mask()[None])
            got = engine_cost(*masks, p_g.probs, p_l.probs, case["params"])
            assert got == cr.aggregate_cost(prev, action, p_g, p_l, case["params"])
