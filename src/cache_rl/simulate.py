"""Slot-structured simulation engine.

Each slot runs the same protocol: the agent picks the next cache contents
from the state it observed last slot, both popularity chains advance, the
new profiles are revealed, the slot cost (refresh + local mismatch + global
mismatch) is incurred, and the agent updates. For an agent over an explicit
state space the cost terms are read from tables built once per run.

The engine runs any number of Monte Carlo realizations in lockstep,
vectorized over realizations, with one independent Generator per
realization. Randomness is pre-drawn in fixed-size chunks in a fixed order
(chain draws, then request samples, then agent draws), so a realization
re-run alone reproduces bit-identically the trace it had inside a batch.
Every per-chunk array is slot-major, (n, R, ...), so slot j of the chunk
reads row j, and each realization fills its own column. Chain paths are
walked up front through a table built once per run, and the per-slot
metrics are reduced once per block of slots (see :func:`run_lockstep`).

Two revelation modes are supported. In "state" mode the true local chain
state is revealed each slot. In "empirical" mode the agent instead sees a
finite batch of sampled requests: the local profile is estimated from the
counts, quantized to the nearest chain state for learning, and the realized
count fractions drive the cost and the hit metric. A chunk keeps the counts
in the smallest unsigned type that holds ``requests_per_slot``, and each
slot divides its row into one float64 (R, F) fractions buffer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .caching_core import cached_mass, fetched_count, files_label, files_mask, write_table
from .popularity import MarkovChain, as_int, as_ints, as_number, nearest_states, next_states
from .schedules import PiecewiseCostSchedule, as_cost_schedule

CHUNK = 2048
DRAW_ROWS = 256  # UniformActionDraws' rows per Generator call; run_lockstep's metric block

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
        f = self.g_chain.catalog_size
        as_int(self.l_chain.catalog_size, "local chain catalog size", f, f + 1)
        if self.request_mode not in REQUEST_MODES:
            raise ValueError(f"request_mode must be one of {REQUEST_MODES}")
        # below 2**63: a Generator draws int64 counts, and the count table's type holds n
        n_requests = as_int(self.requests_per_slot, "requests_per_slot", 1, 2**63)
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
    ``CostParams`` for the whole run. ``windows`` is a sequence of (start,
    stop) slot intervals for which per-realization mean cost and hit
    fraction are returned. ``error_slots`` lists slots after which
    ``agent.normalized_error()`` is sampled into ``norm_error``.

    Agent contract (arrays have one row per realization; j is the slot's
    offset in its chunk): ``m`` is the cache capacity; ``f`` is the catalog
    size and ``n_g``/``n_l`` the global/local chain sizes (declared by an
    agent that indexes chain states), each the environment's; ``begin(R)``
    resets; ``predraw(rngs, ts)`` makes the agent's draws for the chunk of
    0-based slots ``ts``, after the engine's own; ``select(j, g, l_seen,
    prev)`` returns the new cache, which the engine keeps as the next
    ``prev`` (the first caches files 1..M), so the agent must not write into
    it later: (R,) action indices for an agent with ``space``, an explicit
    state space whose catalog and cache sizes must be F and ``m`` and whose
    slot cost is read from tables; else an (R, F) 0/1 mask with M ones per
    row. ``learn(j, g_next, l_next_seen, cost, refresh)`` sees the slot's
    outcome. ``error_slots`` needs ``normalized_error()`` -> (R,) and
    ``error_reference()``, the Q* reference set before ``begin``, as (rep, n_k,
    ||Q*||_F, space), (rep, n_k) = ``space.q_by_overlap(lambda1, w)``; it
    raises when there is none. ``collect_trace`` needs ``trace_epsilon(j)`` and
    ``trace_beta(j)``, as a :class:`LockstepLearner` has. Every option is
    checked before ``agent.begin``: a bad schedule raises ``TypeError``, and
    any other bad option, such as weights whose R squared costs overflow a
    sum, ``ValueError``.

    Hot path: every per-chunk array is slot-major, (n, R, ...), so slot j
    reads row j: the chains' paths from :func:`chain_path`, the agents' draws
    and the empirical request counts, an (n, R, F) table in the smallest
    unsigned type that holds ``requests_per_slot``. Each slot divides its
    counts into one float64 (R, F) fractions buffer, allocated once per run,
    which the cost and the quantization read. Each slot stores its (R,) cost
    and hit fraction as one row of a (``DRAW_ROWS``, R) buffer; a full block
    (or the last slot) gets its per-slot means as row sums, bit for bit each
    row's own ``.mean()``, and its window sums row by row in slot order. The
    cost of an agent with ``space`` is read from its tables by flat index.
    """
    cost_schedule = as_cost_schedule(cost_schedule)
    horizon = as_int(horizon, "horizon", 1)
    n_real = as_int(len(rngs), "realization count", 1)
    if error_slots is not None:
        _require(agent, "error_slots", "normalized_error", "error_reference")
    if collect_trace:
        _require(agent, "collect_trace", "trace_epsilon", "trace_beta")
    f, n_g, n_l = env.catalog_size, env.g_chain.n_states, env.l_chain.n_states
    name = type(agent).__name__
    as_int(agent.f, f"{name}.f", f, f + 1)
    for attr, size in (("n_g", n_g), ("n_l", n_l)):  # declared by agents that index chain states
        as_int(getattr(agent, attr, size), f"{name}.{attr}", size, size + 1)
    m = agent.m
    for top in (p.lambda1 * m + p.lambda2 + p.lambda3 for _, p in cost_schedule.segments):
        as_number(n_real * top * top, "R * (lambda1 * M + lambda2 + lambda3)**2", "[0, inf)")
    space = getattr(agent, "space", None)
    if space is not None:
        as_int(space.catalog_size, f"{name}.space.catalog_size", f, f + 1)
        as_int(space.cache_size, f"{name}.space.cache_size", m, m + 1)
    windows = tuple((as_int(a, "window start"), as_int(b, "window stop")) for a, b in windows)
    for a, b in windows:
        if not 0 <= a < b <= horizon:
            raise ValueError(f"window ({a}, {b}) does not fit in [0, {horizon})")
    if error_slots is not None:
        error_slots = np.unique(as_ints(list(error_slots), "error slot", 0, horizon))
        agent.error_reference()
    if collect_trace and n_real != 1:
        raise ValueError("traces are collected for single realizations only")
    g_profiles = env.g_chain.profile_matrix()
    l_profiles = env.l_chain.profile_matrix()
    walk_g = walk_table(np.cumsum(env.g_chain.transition, axis=1))
    walk_l = walk_table(np.cumsum(env.l_chain.transition, axis=1))
    empirical = env.request_mode == "empirical"
    n_req = env.requests_per_slot
    freq = np.empty((n_real, f)) if empirical else None  # the slot's request fractions

    g = np.array([int(rng.integers(n_g)) for rng in rngs], dtype=np.int64)
    l = np.array([int(rng.integers(n_l)) for rng in rngs], dtype=np.int64)
    l_seen = l.copy()
    if space is None:
        prev = np.zeros((n_real, f))
        prev[:, :m] = 1.0
    else:
        # cached mass of every action in every chain state; action 0 caches files 1..M
        hit_g = cached_mass(space.action_masks, g_profiles[:, None, :])
        hit_l = cached_mass(space.action_masks, l_profiles[:, None, :])
        n_a = space.n_actions
        prev = np.zeros(n_real, dtype=np.int64)

    agent.begin(n_real)

    cost_mean = np.empty(horizon)
    cost_sqmean = np.empty(horizon)
    hit_mean = np.empty(horizon)
    win_cost = np.zeros((n_real, len(windows)))
    win_hit = np.zeros((n_real, len(windows)))
    snapshots = set() if error_slots is None else set(error_slots.tolist())
    err_values: list[float] = []
    block = DRAW_ROWS
    cost_rows = np.empty((min(block, horizon), n_real))  # the current block's slots
    hit_rows = np.empty_like(cost_rows)

    def reduce_block(t0: int, k: int) -> None:
        """Fold the block's k slots from t0 into the means and window sums."""
        costs, hits = cost_rows[:k], hit_rows[:k]
        for w, (a, b) in enumerate(windows):
            for t in range(max(a, t0), min(b, t0 + k)):  # row by row, in slot order
                win_cost[:, w] += costs[t - t0]
                win_hit[:, w] += hits[t - t0]
        # the sum of a contiguous (R,) row is bit for bit its .sum(), and sum / R its .mean()
        cost_mean[t0 : t0 + k] = costs.sum(axis=1) / n_real
        hit_mean[t0 : t0 + k] = hits.sum(axis=1) / n_real
        np.multiply(costs, costs, out=costs)
        cost_sqmean[t0 : t0 + k] = costs.sum(axis=1) / n_real

    trace = None
    if collect_trace:
        trace = RunTrace(
            g_states=np.empty(horizon, dtype=np.int64),
            l_states=np.empty(horizon, dtype=np.int64),
            actions=np.empty((horizon, m), dtype=np.int64),
            costs=cost_mean,  # one realization: each slot's mean is its cost
            epsilons=np.empty(horizon),
            betas=np.empty(horizon),
        )

    for c0 in range(0, horizon, CHUNK):
        n = min(CHUNK, horizon - c0)
        ts = np.arange(c0, c0 + n, dtype=np.int64)
        lam = cost_schedule.lambda_arrays(c0, c0 + n)
        u = np.empty((n, n_real))  # slot-major; per realization the global draws come first
        for r, rng in enumerate(rngs):
            u[:, r] = rng.random(n)
        g_path = chain_path(walk_g, g, u)
        for r, rng in enumerate(rngs):
            u[:, r] = rng.random(n)
        l_path = chain_path(walk_l, l, u)
        del u
        counts = None
        if empirical:  # each realization's request counts
            counts = np.empty((n, n_real, f), dtype=np.min_scalar_type(n_req))
            for r, rng in enumerate(rngs):
                counts[:, r] = rng.multinomial(n_req, l_profiles[l_path[:, r]])
        agent.predraw(rngs, ts)
        if trace is not None:
            trace.g_states[c0 : c0 + n] = g_path[:, 0]

        for j in range(n):
            t = c0 + j
            choice = agent.select(j, g, l_seen, prev)
            g_next, l_next = g_path[j], l_path[j]
            l_next_seen = l_next
            if space is None:  # (R, F) masks: each term is a masked sum
                mask = choice
                uncached_g = 1.0 - cached_mass(mask, g_profiles[g_next])
                refresh = fetched_count(mask, prev, m)
            else:  # (R,) action indices: each term is a flat table lookup
                mask = space.action_masks[choice] if empirical else None
                uncached_g = 1.0 - hit_g.take(g_next * n_a + choice)
                refresh = space.refresh_counts.take(prev * n_a + choice)
            if empirical:
                np.divide(counts[j], n_req, out=freq)
                cached_l = cached_mass(mask, freq)
                l_next_seen = nearest_states(freq, l_profiles)
            elif mask is None:
                cached_l = hit_l.take(l_next * n_a + choice)
            else:
                cached_l = cached_mass(mask, l_profiles[l_next])
            cost = lam[0, j] * refresh + lam[1, j] * (1.0 - cached_l) + lam[2, j] * uncached_g
            agent.learn(j, g_next, l_next_seen, cost, refresh)

            k = t % block + 1  # slots of the current block so far
            cost_rows[k - 1] = cost
            hit_rows[k - 1] = cached_l
            if k == block or t == horizon - 1:
                reduce_block(t + 1 - k, k)
            if t in snapshots:
                err_values.append(float(agent.normalized_error().mean()))
            if trace is not None:
                trace.l_states[t] = l_next_seen[0]
                files = np.flatnonzero(mask[0]) if space is None else space.action_files[choice[0]]
                trace.actions[t] = files
                trace.epsilons[t] = agent.trace_epsilon(j)
                trace.betas[t] = agent.trace_beta(j)

            g, l, l_seen, prev = g_next, l_next, l_next_seen, choice
        del g_path, l_path, counts

    lengths = np.array([b - a for a, b in windows])
    win_cost /= lengths
    win_hit /= lengths
    cost_var = np.maximum(cost_sqmean - cost_mean**2, 0.0)
    return MetricsTrace(
        avg_cost=cost_mean,
        run_avg_cost=np.cumsum(cost_mean) / np.arange(1, horizon + 1),
        hit_fraction=hit_mean,
        cost_std=np.sqrt(cost_var),
        realizations=n_real,
        window_cost=win_cost,
        window_hit=win_hit,
        error_slots=error_slots,
        norm_error=np.asarray(err_values) if error_slots is not None else None,
        trace=trace,
    )


def walk_table(cum: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The walk table of a chain with cumulative transition rows ``cum``.

    Returns (bounds, table): ``bounds`` are the values of ``cum`` in
    ascending order, and ``table[k, s]`` is the next state from state s for
    a uniform u with exactly k bounds <= u. No row value lies strictly
    between u and the largest bound <= u, so :func:`next_states` at that
    bound (at -inf for k = 0) counts the same row entries as at u itself,
    clamp included: the walk is exact. (A repeated value leaves a bin that
    no uniform reaches.) For n_s states the table has n_s**2 + 1 bins by
    n_s states, in the smallest integer type that holds a state: about
    125 KB at 50 states.
    """
    bounds = np.sort(cum, axis=None)
    lower = np.concatenate(([-np.inf], bounds))
    table = np.empty((lower.size, len(cum)), dtype=np.min_scalar_type(len(cum) - 1))
    for s, row in enumerate(cum):
        table[:, s] = next_states(row, lower)
    return bounds, table


def chain_path(walk: tuple, start: np.ndarray, u: np.ndarray) -> np.ndarray:
    """(n, R) chain states stepped from the (R,) ``start`` by the (n, R) uniforms ``u``.

    One ``searchsorted`` places every uniform among the walk's bounds; each
    slot is then one flat ``take`` from the table of :func:`walk_table`.
    """
    bounds, table = walk
    path = np.searchsorted(bounds, u, side="right")
    path *= table.shape[1]  # flat offset of the bin's table row
    state = start
    for row in path:
        state = table.take(row + state)
        row[:] = state
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
    epsilon-greedy coins (drawn before a subclass's own draws and kept as an
    (n, R) bool table of u < epsilon), the Q-error reference and the epsilon
    trace. The reference, Q* = lambda1 * refresh_counts + w, is fixed for a
    run and kept only by overlap. A subclass sets ``f``, ``n_g`` and ``n_l``
    and adds ``select``, ``learn``, ``trace_beta`` and ``normalized_error``,
    each realization's ||Q - Q*||_F / ||Q*||_F."""

    def __init__(self, m: int, config):
        self.m = m
        self.config = config
        self._err_ref = None
        self._r = None

    def begin(self, n_realizations: int) -> None:
        self._r = np.arange(n_realizations)

    def predraw(self, rngs, ts) -> None:
        self._eps = self.config.epsilon.epsilon_array(ts + 1)
        self._explore = np.empty((ts.size, len(rngs)), dtype=bool)
        for r, rng in enumerate(rngs):
            np.less(rng.random(ts.size), self._eps, out=self._explore[:, r])

    def explores(self, j) -> np.ndarray:
        """Per realization, whether slot ``j`` of the chunk explores."""
        return self._explore[j]

    def set_error_reference(self, lambda1, w: np.ndarray, space) -> None:
        """Reference Q* = ``space.q_table(lambda1, w)``, the oracle's being
        (params.lambda1, result.w), kept by overlap and set before ``begin``.
        The space's chain, catalog and cache sizes must be the learner's
        ``n_g``, ``n_l``, ``f`` and ``m``, lambda1 must lie in [0, inf), and
        ||Q*||_F, summed per overlap, must be finite and nonzero."""
        if self._r is not None:
            raise ValueError(f"{type(self).__name__} has begun; set the Q* reference before begin")
        sizes = {"n_g": space.n_g, "n_l": space.n_l, "f": space.catalog_size, "m": space.cache_size}
        for attr, size in sizes.items():
            own = getattr(self, attr)
            as_int(size, f"{type(self).__name__} reference space {attr}", own, own + 1)
        lambda1 = as_number(lambda1, "lambda1", "[0, inf)")
        rep, n_k = space.q_by_overlap(lambda1, w)
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite norm is rejected below
            norm = float(np.sqrt(np.square(rep).sum(axis=(0, 2)) @ n_k))
        if not 0.0 < norm < np.inf:
            raise ValueError(f"Q* reference must have a finite nonzero norm, got {norm}")
        self._err_ref = (rep, n_k, norm, space)

    def error_reference(self) -> tuple:
        """(rep, n_k, ||Q*||_F, space), by overlap as set; raises ValueError if there is none."""
        if self._err_ref is None:
            raise ValueError(f"{type(self).__name__} has no Q* reference; call set_error_reference")
        return self._err_ref

    def trace_epsilon(self, j) -> float:
        return float(self._eps[j])


def uniform_subsets(u: np.ndarray, m: int) -> np.ndarray:
    """Unordered 0-based M-subsets, one per row of i.i.d. uniforms ``u`` over the catalog.

    A row's subset holds the positions of its M smallest uniforms, which is
    uniform over all C(F, M) subsets without enumerating them.
    """
    return np.argpartition(u, m - 1, axis=-1)[..., :m]


class UniformActionDraws:
    """Chunked sampling of :func:`uniform_subsets`, one per slot per realization.

    ``files`` is (n, R, M), unordered within a row, in the smallest unsigned
    type that holds F - 1.
    """

    def __init__(self, f: int, m: int):
        self.f = as_int(f, "catalog size", 1)
        self.m = as_int(m, "cache capacity", 1, self.f + 1)
        self.files: np.ndarray | None = None

    def draw(self, rngs, n: int) -> None:
        self.files = np.empty((n, len(rngs), self.m), dtype=np.min_scalar_type(self.f - 1))
        for r, rng in enumerate(rngs):
            # row blocks keep the (rows, F) temporaries small; the stream is unchanged
            for lo in range(0, n, DRAW_ROWS):
                u = rng.random((min(DRAW_ROWS, n - lo), self.f))
                self.files[lo : lo + DRAW_ROWS, r] = uniform_subsets(u, self.m)


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
        return files_mask(self._draws.files[j], self.f)

    def learn(self, j, g_next, l_next_seen, cost, refresh) -> None:
        pass


class OraclePolicyAgent:
    """Follows a fixed per-state policy over an explicit state space."""

    def __init__(self, space, policy: np.ndarray):
        self.space = space
        self.policy = space.check_policy(policy)
        self.f, self.n_g, self.n_l = space.catalog_size, space.n_g, space.n_l
        self.m = space.cache_size

    def begin(self, n_realizations: int) -> None:
        pass

    def predraw(self, rngs, ts) -> None:
        pass

    def select(self, j, g, l_seen, a_prev):
        return self.policy[self.space.state_indices(g, l_seen, a_prev)]

    def learn(self, j, g_next, l_next_seen, cost, refresh) -> None:
        pass
