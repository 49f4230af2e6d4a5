"""Q-learning with a linear model, scalable to huge action spaces.

Instead of one value per (state, action) pair, the approximate Q-value of
picking cache contents a' from state s is psi(s)^T (1 - a'): a per-file
"cost of not caching" score vector

    psi(s) = theta_g[g] + theta_l[l] + theta_r * a

with one row of scores per global state, one per local state, and a single
scalar for the refresh pressure of the files currently cached. That is
(|P_G| + |P_L|) * F + 1 parameters total, and the greedy action is simply
the M files with the largest psi entries; no search over the C(F, M)
actions ever happens. Updates are semi-gradient SGD on the squared TD
error, touching one theta_g row, one theta_l row, and theta_r per slot.

The kernels act on the last (file) axis, of (R, F) rows in the lockstep
agent and of one row in the wrappers ``psi`` (``scores``), ``greedy_top_m``
(``top_m``), ``q_hat`` (``cache_q``), ``linear_td_error`` (``td_error``)
and ``sgd_update`` (``sgd_step``).

The lockstep agent's Q error needs no (|S|, |A|) table. Over a state space,
Q_theta(g, l, a_prev, a) = D(g, l, a) + theta_r * (M - k) with
D = (theta_g[g] + theta_l[l])^T (1 - a) and k = |a_prev & a|, so Q_theta - Q*
depends on the previous cache only through the overlap k, provided Q* does:
Q* = w * (M - k) + W(g, l, a), the form that ``StateSpace.q_table`` builds.
Then ||Q_theta - Q*||_F^2 = sum over (g, l, a, k) of n_k * (D + theta_r * (M - k)
- Q*_k)^2, with n_k = C(M, k) * C(F - M, M - k) previous caches of overlap k.
That costs O(n_g * n_l * |A| * (M + 1)) per realization instead of
O(n_g * n_l * |A|^2). ``linear_q_matrix`` still materializes the table.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .caching_core import CacheAction, SystemState, fetched_count, files_mask, write_table
from .mdp_oracle import StateSpace
from .popularity import as_discount, as_int, as_number
from .schedules import EpsilonSchedule, PiecewiseCostSchedule, as_epsilon_schedule
from .simulate import (
    DivergenceError,
    LockstepLearner,
    PopularityEnv,
    RunTrace,
    UniformActionDraws,
    run_single,
)

# rows this short are sorted outright: a stable sort of at most 16 entries
# costs less than the partition and the scans of top_m's O(F) path
SORT_FILES = 16


@dataclass(frozen=True)
class LinearLearnerConfig:
    alpha_g: float = 0.005
    alpha_l: float = 0.005
    alpha_r: float = 0.005
    epsilon: float | EpsilonSchedule = 0.05
    gamma: float = 0.8

    def __post_init__(self) -> None:
        for name in ("alpha_g", "alpha_l", "alpha_r"):
            object.__setattr__(self, name, as_number(getattr(self, name), name, "(0, inf)"))
        object.__setattr__(self, "epsilon", as_epsilon_schedule(self.epsilon))
        object.__setattr__(self, "gamma", as_discount(self.gamma))


@dataclass
class LinearParams:
    """Per-state score rows plus the scalar refresh parameter."""

    theta_g: np.ndarray  # (|P_G|, F)
    theta_l: np.ndarray  # (|P_L|, F)
    theta_r: float

    def __post_init__(self) -> None:
        self.theta_g = np.asarray(self.theta_g, dtype=np.float64)
        self.theta_l = np.asarray(self.theta_l, dtype=np.float64)
        as_int(self.theta_g.ndim, "theta_g ndim", 2, 3)
        as_int(self.theta_l.ndim, "theta_l ndim", 2, 3)
        f = self.catalog_size
        as_int(self.theta_l.shape[1], "theta_l catalog size", f, f + 1)
        self.theta_r = as_number(self.theta_r, "theta_r")
        if not all(np.isfinite(t).all() for t in (self.theta_g, self.theta_l, self.theta_r)):
            raise ValueError("parameters must be finite")

    @classmethod
    def zeros(cls, n_g: int, n_l: int, f: int) -> "LinearParams":
        return cls(theta_g=np.zeros((n_g, f)), theta_l=np.zeros((n_l, f)), theta_r=0.0)

    @property
    def catalog_size(self) -> int:
        return int(self.theta_g.shape[1])

    @property
    def n_parameters(self) -> int:
        return self.theta_g.size + self.theta_l.size + 1

    def copy(self) -> "LinearParams":
        return LinearParams(self.theta_g.copy(), self.theta_l.copy(), self.theta_r)

    def scaled(self, c: float) -> "LinearParams":
        return LinearParams(c * self.theta_g, c * self.theta_l, c * self.theta_r)

    def to_csv(self, path) -> None:
        """Rows of (block, state_row, file, value) for inspection."""
        blocks = (("theta_g", self.theta_g), ("theta_l", self.theta_l))
        rows = (
            (name, i, f + 1, v)
            for name, block in blocks
            for i, row in enumerate(block)
            for f, v in enumerate(row.tolist())
        )
        theta_r = [("theta_r", "", "", self.theta_r)]
        write_table(path, ["block", "state", "file", "value"], itertools.chain(rows, theta_r))


def scores(theta_g, theta_l, theta_r, at_g, at_l, mask):
    """Not-caching scores psi = theta_g[at_g] + theta_l[at_l] + theta_r * mask, per file."""
    return theta_g[at_g] + theta_l[at_l] + theta_r * mask


def top_m(psi_rows, m):
    """0-based files of the M largest scores in each row, ties to the lowest index.

    Each row's files are the set ``np.argsort(-row, kind="stable")[:m]``
    (NaN ranks lowest), in no fixed order. Rows longer than ``SORT_FILES``
    find it in O(F): the files at or above the M-th largest score, where a
    row holds exactly M of them. Rows tied at that boundary, or short of M
    non-NaN scores, take the stable sort, those rows alone.
    """
    if psi_rows.shape[-1] <= SORT_FILES:
        return np.argsort(-psi_rows, axis=-1, kind="stable")[..., :m]
    top = psi_rows >= -np.partition(-psi_rows, m - 1, axis=-1)[..., m - 1 : m]
    tied = top.sum(axis=-1) != m
    if tied.any():
        ranked = np.argsort(-psi_rows[tied], axis=-1, kind="stable")[..., :m]
        top[tied] = files_mask(ranked, top.shape[-1])
    return np.nonzero(top)[-1].reshape(top.shape[:-1] + (m,))


def cache_q(psi_rows, mask):
    """Q of each cache in ``mask``: the score mass it leaves uncached."""
    return psi_rows.sum(axis=-1) - (psi_rows * mask).sum(axis=-1)


def td_error(cost, gamma, psi_next, m, q_prev):
    """cost + gamma * min_a' Q(s', a') - Q(s, a); the min adds the top M in partition order."""
    top = -np.partition(-psi_next, m - 1, axis=-1)[..., :m].sum(axis=-1)
    return cost + gamma * (psi_next.sum(axis=-1) - top) - q_prev


def sgd_step(theta_g, theta_l, theta_r, at_g, at_l, mask, err, refresh, config):
    """Semi-gradient step: theta_g[at_g] and theta_l[at_l] in place on the files
    ``mask`` leaves uncached; returns theta_r moved by the fetched count ``refresh``."""
    upd = err[..., None] * (1.0 - mask)
    theta_g[at_g] += config.alpha_g * upd
    theta_l[at_l] += config.alpha_l * upd
    return theta_r + config.alpha_r * err * refresh


def psi(params: LinearParams, state: SystemState) -> np.ndarray:
    """Per-file not-caching scores for one state."""
    f = params.catalog_size
    as_int(state.action.catalog_size, "state action catalog size", f, f + 1)
    g = as_int(state.g, "g", 0, params.theta_g.shape[0])
    l = as_int(state.l, "l", 0, params.theta_l.shape[0])
    return scores(params.theta_g, params.theta_l, params.theta_r, g, l, state.action.as_mask())


def q_hat(params: LinearParams, state: SystemState, a_next: CacheAction) -> float:
    """Approximate Q-value: the psi mass left uncached by ``a_next``."""
    f = params.catalog_size
    as_int(a_next.catalog_size, "action catalog size", f, f + 1)
    return float(cache_q(psi(params, state), a_next.as_mask()))


def greedy_top_m(params: LinearParams, state: SystemState, m: int) -> CacheAction:
    """The M files with the largest psi entries (ties to the lowest index).

    Equals the argmin of ``q_hat`` over all C(F, M) actions, found by
    ``top_m`` (a partition, or a sort of a short row) instead of a search.
    """
    f = params.catalog_size
    m = as_int(m, "cache capacity", 1, f + 1)
    files = top_m(psi(params, state), m)
    return CacheAction(files=tuple(int(x) + 1 for x in files), catalog_size=f)


def linear_td_error(
    params: LinearParams,
    s_prev: SystemState,
    a: CacheAction,
    s_next: SystemState,
    cost: float,
    gamma: float,
) -> float:
    """cost + gamma * min_a' q_hat(s_next, a') - q_hat(s_prev, a)."""
    cost, gamma = as_number(cost, "cost", "(-inf, inf)"), as_discount(gamma)
    q_prev = q_hat(params, s_prev, a)
    return float(td_error(cost, gamma, psi(params, s_next), a.cache_size, q_prev))


def sgd_update(
    params: LinearParams,
    s_prev: SystemState,
    a: CacheAction,
    err: float,
    config: LinearLearnerConfig,
) -> LinearParams:
    """One semi-gradient step on the squared TD error; returns new params.

    Only row g of theta_g, row l of theta_l, and theta_r change; within the
    rows only the F - M entries left uncached by ``a`` move.
    """
    if not np.isfinite(err):
        raise DivergenceError("non-finite TD error; aborting")
    out = params.copy()
    mask = a.as_mask()
    refresh = fetched_count(mask, s_prev.action.as_mask(), a.cache_size)
    thetas, err = (out.theta_g, out.theta_l, out.theta_r), np.float64(err)
    out.theta_r = float(sgd_step(*thetas, s_prev.g, s_prev.l, mask, err, refresh, config))
    return out


def overlap_table(qstar: np.ndarray, space: StateSpace):
    """``qstar`` by overlap: (rep, weights) with rep[gl, k, a] = Q*(gl, a_prev, a)
    at the lowest a_prev with |a_prev & a| = k, and weights[k] = n_k =
    C(M, k) * C(F - M, M - k), the number of such a_prev (a k with n_k = 0 keeps
    an arbitrary entry of weight 0). The action axis is last, so that sums
    over it run on contiguous rows.

    Raises ValueError unless every entry of the (|S|, |A|) table ``qstar``
    equals its representative, checked a few rows (at most 64 KiB) at a time.
    """
    m, n_a = space.cache_size, space.n_actions
    ks = np.arange(m + 1)
    n_k = [math.comb(m, k) * math.comb(space.catalog_size - m, m - k) for k in ks]
    weights = np.array(n_k, dtype=np.float64)
    step = max(1, 2**16 // (8 * n_a))
    # the overlap is symmetric, so row a of it lists each a_prev's overlap with a
    first = np.empty((m + 1, n_a), dtype=np.intp)
    for a in range(0, n_a, step):
        overlap = m - space.refresh_counts[a : a + step]
        first[:, a : a + step] = np.argmax(overlap[:, None, :] == ks[:, None], axis=2).T
    q = qstar.reshape(-1, n_a, n_a)
    cols = np.arange(n_a)
    rep = q[:, first, cols]
    for a in range(0, n_a, step):
        overlap = m - space.refresh_counts[a : a + step]
        for q_gl, rep_gl in zip(q, rep):
            if not np.array_equal(q_gl[a : a + step], rep_gl[overlap, cols]):
                raise ValueError(
                    "Q* reference must depend on the previous cache only through its "
                    "overlap with the next one, as StateSpace.q_table builds it"
                )
    return rep, weights


def linear_q_matrix(params: LinearParams, space: StateSpace) -> np.ndarray:
    """Materialize the linear learner's Q values over all (state, action) of
    ``space``, whose chain and catalog sizes the parameters must have."""
    sizes = (
        ("theta_g rows", params.theta_g.shape[0], space.n_g),
        ("theta_l rows", params.theta_l.shape[0], space.n_l),
        ("parameter catalog size", params.catalog_size, space.catalog_size),
    )
    for name, value, size in sizes:
        as_int(value, name, size, size + 1)
    rows = (params.theta_g[:, None, :] + params.theta_l[None, :, :]).reshape(-1, params.catalog_size)
    return space.q_table(params.theta_r, rows @ (1.0 - space.action_masks).T)


class BatchLinearAgent(LockstepLearner):
    """Lockstep linear learner driven by the simulation engine."""

    def __init__(self, n_g: int, n_l: int, f: int, m: int, config: LinearLearnerConfig):
        self._draws = UniformActionDraws(f, m)
        super().__init__(self._draws.m, config)
        self.n_g, self.n_l = as_int(n_g, "n_g", 1), as_int(n_l, "n_l", 1)
        self.f = self._draws.f
        self.theta_g: np.ndarray | None = None
        self.theta_l: np.ndarray | None = None
        self.theta_r: np.ndarray | None = None

    def begin(self, n_realizations: int) -> None:
        super().begin(n_realizations)
        self.theta_g = np.zeros((n_realizations, self.n_g, self.f))
        self.theta_l = np.zeros((n_realizations, self.n_l, self.f))
        self.theta_r = np.zeros(n_realizations)

    def predraw(self, rngs, ts) -> None:
        super().predraw(rngs, ts)
        self._ts = ts
        self._draws.draw(rngs, ts.size)

    def select(self, j, g, l_seen, mask_prev):
        explore = self.explores(j)
        with np.errstate(over="ignore", invalid="ignore"):
            psi_prev = self._scores(g, l_seen, mask_prev)
            files = self._draws.files[j]
            if not explore.all():
                files = np.where(explore[:, None], files, top_m(psi_prev, self.m))
            mask = files_mask(files, self.f)
            q_prev = cache_q(psi_prev, mask)
        self._pending = (g, l_seen, q_prev, mask)
        return mask

    def learn(self, j, g_next, l_next_seen, cost, refresh) -> None:
        g_prev, l_prev, q_prev, mask = self._pending
        # overflow here is the divergence signal, not an error in itself
        with np.errstate(over="ignore", invalid="ignore"):
            psi_next = self._scores(g_next, l_next_seen, mask)
            err = td_error(cost, self.config.gamma, psi_next, self.m, q_prev)
        if not np.isfinite(err).all():
            t = int(self._ts[j])
            raise DivergenceError(f"non-finite TD error at slot {t}; aborting run")
        r = self._r
        thetas = (self.theta_g, self.theta_l, self.theta_r)
        self.theta_r = sgd_step(*thetas, (r, g_prev), (r, l_prev), mask, err, refresh, self.config)

    def _scores(self, g, l, mask):
        r = self._r
        return scores(self.theta_g, self.theta_l, self.theta_r[:, None], (r, g), (r, l), mask)

    def params_of(self, realization: int) -> LinearParams:
        return LinearParams(
            theta_g=self.theta_g[realization].copy(),
            theta_l=self.theta_l[realization].copy(),
            theta_r=float(self.theta_r[realization]),
        )

    def set_error_reference(self, qstar: np.ndarray, space) -> None:
        """As :meth:`LockstepLearner.set_error_reference`, and ``qstar`` must
        depend on the previous cache only through its overlap with the next
        one, as every table that ``StateSpace.q_table`` builds does; else
        ValueError, with the reference left as it was."""
        previous = self._err_ref
        super().set_error_reference(qstar, space)
        try:
            self._by_overlap = overlap_table(self._err_ref[0], space)
        except ValueError:
            self._err_ref = previous
            raise
        self._uncached = (1.0 - space.action_masks).T

    def normalized_error(self) -> np.ndarray:
        """Per realization, ||Q - Q*||_F / ||Q*||_F in the per-overlap closed form:
        the root of the sum over (g, l, k, a) of n_k * (theta_r * (M - k) + D - Q*_k)^2,
        in O(n_g * n_l * |A| * (M + 1)) per realization, for a Q* that depends
        on the previous cache only through the overlap k (the rule that
        ``set_error_reference`` checks).

        For each (g, l) and block of realizations, D = (theta_g[r, g] +
        theta_l[r, l]) (1 - a) is one matmul. A block's temporaries take at
        most 64 KiB (or one realization), under glibc's mmap threshold. A sum
        that overflows, or a non-finite theta, raises DivergenceError.
        """
        norm, space = self.error_reference()[1:]
        rep, weights = self._by_overlap
        n_k, n_a = rep.shape[1:]
        refresh = self.m - np.arange(n_k)
        n_real = len(self.theta_r)
        step = max(1, 2**13 // (n_k * n_a))
        err_sq = np.zeros(n_real)
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sum raises below
            for gl, rep_gl in enumerate(rep):
                g, l = divmod(gl, space.n_l)
                for r in range(0, n_real, step):
                    at = slice(r, r + step)
                    d = (self.theta_g[at, g] + self.theta_l[at, l]) @ self._uncached
                    e = (self.theta_r[at, None] * refresh)[:, :, None] + d[:, None, :]
                    e -= rep_gl
                    e *= e
                    err_sq[at] += e.sum(axis=2) @ weights
            err = np.sqrt(err_sq) / norm
        if not np.isfinite(err).all():
            raise DivergenceError("non-finite linear Q error; aborting run")
        return err

    def trace_beta(self, j) -> float:
        return self.config.alpha_g


@dataclass
class LinearRunResult:
    trace: RunTrace
    params: LinearParams


def run_linear(
    env: PopularityEnv,
    cache_size: int,
    cost_schedule: PiecewiseCostSchedule,
    config: LinearLearnerConfig,
    horizon: int,
    rng: np.random.Generator,
) -> LinearRunResult:
    """One seeded realization of the linear learner; returns trace and params."""
    agent = BatchLinearAgent(
        env.g_chain.n_states, env.l_chain.n_states, env.catalog_size, cache_size, config
    )
    trace = run_single(env, agent, cost_schedule, horizon, rng)
    return LinearRunResult(trace=trace, params=agent.params_of(0))
