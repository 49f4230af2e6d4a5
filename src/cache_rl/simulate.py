"""Slot-structured simulation engine.

Each slot runs the same protocol: the agent picks the next cache contents
from the state it observed last slot, both popularity chains advance, the
new profiles are revealed, the slot cost (refresh + local mismatch + global
mismatch) is incurred, and the agent updates.

The engine runs any number of Monte Carlo realizations in lockstep,
vectorized over realizations, with one independent Generator per
realization. Randomness is pre-drawn in fixed-size chunks in a fixed order
(chain draws, then request samples, then agent draws), so a realization
re-run alone reproduces bit-identically the trace it had inside a batch.

Two revelation modes are supported. In "state" mode the true local chain
state is revealed each slot. In "empirical" mode the agent instead sees a
finite batch of sampled requests: the local profile is estimated from the
counts, quantized to the nearest chain state for learning, and the realized
count fractions drive the cost and the hit metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .caching_core import cached_mass, fetched_count, files_label, files_mask, write_table
from .mdp_oracle import relative_q_error
from .popularity import MarkovChain, as_int, as_ints, nearest_states, next_states
from .schedules import PiecewiseCostSchedule, as_cost_schedule

CHUNK = 2048
DRAW_ROWS = 256  # rows of uniforms per Generator call in UniformActionDraws

REQUEST_MODES = ("state", "empirical")


class DivergenceError(RuntimeError):
    """A learner produced non-finite values; the run was aborted."""


@dataclass(frozen=True, eq=False)
class PopularityEnv:
    """Environment configuration: the two chains plus the revelation mode."""

    g_chain: MarkovChain
    l_chain: MarkovChain
    request_mode: str = "state"
    requests_per_slot: int = 100

    def __post_init__(self) -> None:
        if self.g_chain.catalog_size != self.l_chain.catalog_size:
            raise ValueError("global and local chains must share one catalog size")
        if self.request_mode not in REQUEST_MODES:
            raise ValueError(f"request_mode must be one of {REQUEST_MODES}")
        n_requests = as_int(self.requests_per_slot, "requests_per_slot", 1)
        object.__setattr__(self, "requests_per_slot", n_requests)

    @property
    def catalog_size(self) -> int:
        return self.g_chain.catalog_size


@dataclass
class RunTrace:
    """Per-slot record of a single realization."""

    g_states: np.ndarray
    l_states: np.ndarray
    actions: np.ndarray  # (horizon, M) sorted 0-based file indices
    costs: np.ndarray
    epsilons: np.ndarray
    betas: np.ndarray

    @property
    def horizon(self) -> int:
        return int(self.costs.size)

    def action_files(self, t: int) -> tuple[int, ...]:
        """Cached files during slot ``t`` as sorted 1-based indices."""
        return tuple(int(x) + 1 for x in self.actions[t])

    def to_csv(self, path) -> None:
        """Columns: slot,g_state,l_state,action,realized_cost,epsilon,beta.

        Actions render as sorted 1-based file lists joined with ';' and
        floats with 17 significant digits; lines end in LF.
        """
        header = ["slot", "g_state", "l_state", "action", "realized_cost", "epsilon", "beta"]
        columns = (self.g_states, self.l_states, self.costs, self.epsilons, self.betas)
        g, l, cost, eps, beta = (c.tolist() for c in columns)
        labels = map(files_label, self.actions.tolist())
        write_table(path, header, zip(range(self.horizon), g, l, labels, cost, eps, beta))


@dataclass
class MetricsTrace:
    """Monte-Carlo-averaged per-slot metrics of one run (plus the trace when R == 1).

    ``run_lockstep`` fills the metrics; ``run_scenario`` adds the scenario's
    base seed, discount, learner kind, oracle cost and metadata.
    """

    avg_cost: np.ndarray
    run_avg_cost: np.ndarray
    hit_fraction: np.ndarray
    cost_std: np.ndarray
    realizations: int
    window_cost: np.ndarray  # (R, n_windows) per-slot means within each window
    window_hit: np.ndarray
    error_slots: np.ndarray | None = None
    norm_error: np.ndarray | None = None
    trace: RunTrace | None = None
    base_seed: int | None = None
    gamma: float | None = None
    learner: str | None = None
    oracle_average_cost: float | None = None
    metadata: dict | None = None

    @property
    def horizon(self) -> int:
        return int(self.avg_cost.size)


def realization_rng(base_seed: int, realization: int) -> np.random.Generator:
    """Generator for one realization: seed mixed with the realization index.

    The mixing function is ``SeedSequence(base_seed, spawn_key=(realization,))``,
    so streams are independent and any realization can be re-run alone.
    """
    return np.random.default_rng(np.random.SeedSequence(base_seed, spawn_key=(realization,)))


def run_lockstep(
    env: PopularityEnv,
    agent,
    cost_schedule: PiecewiseCostSchedule,
    horizon: int,
    rngs: list[np.random.Generator],
    collect_trace: bool = False,
    windows: tuple[tuple[int, int], ...] = (),
    error_slots=None,
) -> MetricsTrace:
    """Run ``len(rngs)`` realizations of one agent in lockstep; returns their metrics.

    ``cost_schedule`` is a :class:`PiecewiseCostSchedule` or one
    ``CostParams`` for the whole run; anything else raises ``TypeError``
    before the agent begins. ``windows`` is a sequence of (start, stop) slot
    intervals for which per-realization mean cost and hit fraction are
    returned. ``error_slots`` lists slots after which
    ``agent.normalized_error()`` is sampled into ``norm_error``.

    Agent contract (arrays have one row per realization; j is the slot's
    offset in its chunk): ``m`` is the cache capacity; ``f`` (or
    ``space.catalog_size``) is the catalog size and must be the
    environment's; ``begin(R)`` resets; ``predraw(rngs, ts)`` makes the
    agent's draws for the chunk of 0-based slots ``ts``, after the engine's
    own; ``select(j, g, l_seen, mask_prev)`` returns the new cache as an
    (R, F) 0/1 mask with M ones per row; ``learn(j, g_next, l_next_seen,
    cost, refresh)`` sees the slot's outcome. ``error_slots`` needs
    ``normalized_error()`` -> (R,), and ``collect_trace`` needs
    ``trace_epsilon(j)`` and ``trace_beta(j)``, as a
    :class:`LockstepLearner` has. An agent with another catalog, or without
    a method that an option needs, fails with ``ValueError`` before the
    first slot.
    """
    cost_schedule = as_cost_schedule(cost_schedule)
    horizon = as_int(horizon, "horizon", 1)
    n_real = len(rngs)
    if n_real < 1:
        raise ValueError("need at least one realization")
    if error_slots is not None:
        _require(agent, "error_slots", "normalized_error")
    if collect_trace:
        _require(agent, "collect_trace", "trace_epsilon", "trace_beta")
    f = env.catalog_size
    catalog = agent.space.catalog_size if hasattr(agent, "space") else agent.f
    if catalog != f:
        raise ValueError(f"{type(agent).__name__} caches from {catalog} files; the env has {f}")
    n_g, n_l = env.g_chain.n_states, env.l_chain.n_states
    m = agent.m
    g_profiles = env.g_chain.profile_matrix()
    l_profiles = env.l_chain.profile_matrix()
    cum_g = np.cumsum(env.g_chain.transition, axis=1)
    cum_l = np.cumsum(env.l_chain.transition, axis=1)
    empirical = env.request_mode == "empirical"
    n_req = env.requests_per_slot

    g = np.array([int(rng.integers(n_g)) for rng in rngs], dtype=np.int64)
    l = np.array([int(rng.integers(n_l)) for rng in rngs], dtype=np.int64)
    l_seen = l.copy()
    mask_prev = np.zeros((n_real, f))
    mask_prev[:, :m] = 1.0

    agent.begin(n_real)

    cost_mean = np.empty(horizon)
    cost_sqmean = np.empty(horizon)
    hit_mean = np.empty(horizon)
    windows = tuple((as_int(a, "window start"), as_int(b, "window stop")) for a, b in windows)
    for a, b in windows:
        if not 0 <= a < b <= horizon:
            raise ValueError(f"window ({a}, {b}) does not fit in [0, {horizon})")
    win_cost = np.zeros((n_real, len(windows)))
    win_hit = np.zeros((n_real, len(windows)))
    err_slots = None
    err_values: list[float] = []
    err_ptr = 0
    if error_slots is not None:
        err_slots = np.unique(as_ints(list(error_slots), "error slot", 0, horizon))

    trace = None
    if collect_trace:
        if n_real != 1:
            raise ValueError("traces are collected for single realizations only")
        trace = RunTrace(
            g_states=np.empty(horizon, dtype=np.int64),
            l_states=np.empty(horizon, dtype=np.int64),
            actions=np.empty((horizon, m), dtype=np.int64),
            costs=np.empty(horizon),
            epsilons=np.empty(horizon),
            betas=np.empty(horizon),
        )

    for c0 in range(0, horizon, CHUNK):
        n = min(CHUNK, horizon - c0)
        ts = np.arange(c0, c0 + n, dtype=np.int64)
        lam = cost_schedule.lambda_arrays(c0, c0 + n)
        u_g = np.stack([rng.random(n) for rng in rngs])
        u_l = np.stack([rng.random(n) for rng in rngs])
        g_path = chain_path(cum_g, g, u_g)
        l_path = chain_path(cum_l, l, u_l)
        del u_g, u_l
        counts = None
        if empirical:
            counts = np.stack(
                [rngs[r].multinomial(n_req, l_profiles[l_path[r]]) for r in range(n_real)]
            )
        agent.predraw(rngs, ts)

        for j in range(n):
            t = c0 + j
            mask = agent.select(j, g, l_seen, mask_prev)
            g_next = g_path[:, j]
            l_next = l_path[:, j]
            uncached_g = 1.0 - cached_mass(mask, g_profiles[g_next])
            if empirical:
                freq = counts[:, j, :] / n_req
                cached_l = cached_mass(mask, freq)
                l_next_seen = nearest_states(freq, l_profiles)
            else:
                cached_l = cached_mass(mask, l_profiles[l_next])
                l_next_seen = l_next
            refresh = fetched_count(mask, mask_prev, m)
            cost = lam[0, j] * refresh + lam[1, j] * (1.0 - cached_l) + lam[2, j] * uncached_g
            agent.learn(j, g_next, l_next_seen, cost, refresh)

            cost_mean[t] = cost.mean()
            cost_sqmean[t] = (cost * cost).mean()
            hit_mean[t] = cached_l.mean()
            for w, (a, b) in enumerate(windows):
                if a <= t < b:
                    win_cost[:, w] += cost
                    win_hit[:, w] += cached_l
            if err_slots is not None and err_ptr < err_slots.size and err_slots[err_ptr] == t:
                err_values.append(float(agent.normalized_error().mean()))
                err_ptr += 1
            if trace is not None:
                trace.g_states[t] = g_next[0]
                trace.l_states[t] = l_next_seen[0]
                trace.actions[t] = np.flatnonzero(mask[0])
                trace.costs[t] = cost[0]
                trace.epsilons[t] = agent.trace_epsilon(j)
                trace.betas[t] = agent.trace_beta(j)

            g = g_next
            l = l_next
            l_seen = l_next_seen
            mask_prev = mask
        del g_path, l_path, counts

    for w, (a, b) in enumerate(windows):
        win_cost[:, w] /= b - a
        win_hit[:, w] /= b - a
    cost_var = np.maximum(cost_sqmean - cost_mean**2, 0.0)
    return MetricsTrace(
        avg_cost=cost_mean,
        run_avg_cost=np.cumsum(cost_mean) / np.arange(1, horizon + 1),
        hit_fraction=hit_mean,
        cost_std=np.sqrt(cost_var),
        realizations=n_real,
        window_cost=win_cost,
        window_hit=win_hit,
        error_slots=err_slots,
        norm_error=np.asarray(err_values) if err_slots is not None else None,
        trace=trace,
    )


def chain_path(cum: np.ndarray, start: np.ndarray, u: np.ndarray) -> np.ndarray:
    """(R, n) chain states stepped from ``start`` by the (R, n) uniforms ``u`` over rows ``cum``."""
    path = np.empty(u.shape, dtype=np.int64)
    state = start
    for j in range(u.shape[1]):
        state = next_states(cum[state], u[:, j])
        path[:, j] = state
    return path


def _require(agent, option: str, *methods) -> None:
    """Reject an agent that lacks a method that ``option`` calls."""
    for method in methods:
        if not hasattr(agent, method):
            raise ValueError(f"{option} needs {method}(), which {type(agent).__name__} lacks")


def run_single(env, agent, cost_schedule, horizon: int, rng: np.random.Generator) -> RunTrace:
    """One realization of ``agent`` driven by ``rng``; returns its per-slot trace."""
    return run_lockstep(env, agent, cost_schedule, horizon, [rng], collect_trace=True).trace


class LockstepLearner:
    """What both learning agents share: the realization index ``_r``, the
    epsilon-greedy coins (drawn before a subclass's own draws), the Q-error
    reference and the epsilon trace. A subclass adds ``select``, ``learn``,
    ``trace_beta`` and ``q_table(r, space)``, realization r's Q over ``space``."""

    def __init__(self, m: int, config):
        self.m = m
        self.config = config
        self._err_ref = None

    def begin(self, n_realizations: int) -> None:
        self._r = np.arange(n_realizations)

    def predraw(self, rngs, ts) -> None:
        self._eps = self.config.epsilon.epsilon_array(ts + 1)
        self._u = np.stack([rng.random(ts.size) for rng in rngs])

    def explores(self, j) -> np.ndarray:
        """Per realization, whether slot ``j`` of the chunk explores."""
        return self._u[:, j] < self._eps[j]

    def set_error_reference(self, qstar: np.ndarray, space) -> None:
        """Reference Q table over ``space``, a state space of this network."""
        self._err_ref = (qstar, float(np.linalg.norm(qstar)), space)

    def normalized_error(self) -> np.ndarray:
        """Per realization, ||Q - Q*||_F / ||Q*||_F against the reference."""
        if self._err_ref is None:
            raise ValueError(f"{type(self).__name__} has no Q* reference; call set_error_reference")
        qstar, norm, space = self._err_ref
        return np.array([relative_q_error(self.q_table(r, space), qstar, norm) for r in self._r])

    def trace_epsilon(self, j) -> float:
        return float(self._eps[j])


def uniform_subsets(u: np.ndarray, m: int) -> np.ndarray:
    """Unordered 0-based M-subsets, one per row of i.i.d. uniforms ``u`` over the catalog.

    A row's subset holds the positions of its M smallest uniforms, which is
    uniform over all C(F, M) subsets without enumerating them.
    """
    return np.argpartition(u, m - 1, axis=-1)[..., :m]


class UniformActionDraws:
    """Chunked sampling of :func:`uniform_subsets`, one per slot per realization."""

    def __init__(self, f: int, m: int):
        self.f = as_int(f, "catalog size", 1)
        self.m = as_int(m, "cache capacity", 1, self.f + 1)
        self.files: np.ndarray | None = None  # (R, n, M), unordered within a row

    def draw(self, rngs, n: int) -> None:
        self.files = np.empty((len(rngs), n, self.m), dtype=np.intp)
        for r, rng in enumerate(rngs):
            # row blocks keep the (rows, F) temporaries small; the stream is unchanged
            for lo in range(0, n, DRAW_ROWS):
                u = rng.random((min(DRAW_ROWS, n - lo), self.f))
                self.files[r, lo : lo + DRAW_ROWS] = uniform_subsets(u, self.m)

    def mask_at(self, j: int) -> np.ndarray:
        return files_mask(self.files[:, j], self.f)


class RandomBaselineAgent:
    """Caches a fresh uniform random M-subset every slot; never learns."""

    def __init__(self, f: int, m: int):
        self._draws = UniformActionDraws(f, m)
        self.f = self._draws.f
        self.m = self._draws.m

    def begin(self, n_realizations: int) -> None:
        pass

    def predraw(self, rngs, ts) -> None:
        self._draws.draw(rngs, ts.size)

    def select(self, j, g, l_seen, mask_prev):
        return self._draws.mask_at(j)

    def learn(self, j, g_next, l_next_seen, cost, refresh) -> None:
        pass


class OraclePolicyAgent:
    """Follows a fixed per-state policy over an explicit state space."""

    def __init__(self, space, policy: np.ndarray):
        self.space = space
        self.policy = space.check_policy(policy)
        self.m = space.cache_size
        self._a_idx: np.ndarray | None = None

    def begin(self, n_realizations: int) -> None:
        self._a_idx = np.zeros(n_realizations, dtype=np.int64)

    def predraw(self, rngs, ts) -> None:
        pass

    def select(self, j, g, l_seen, mask_prev):
        space = self.space
        self._a_idx = self.policy[space.state_indices(g, l_seen, self._a_idx)]
        return space.action_masks[self._a_idx]

    def learn(self, j, g_next, l_next_seen, cost, refresh) -> None:
        pass
