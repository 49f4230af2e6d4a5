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
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .caching_core import CacheAction, SystemState, files_mask, write_table
from .mdp_oracle import StateSpace, relative_q_error
from .popularity import as_discount, as_int, as_number
from .schedules import (
    EpsilonSchedule,
    PiecewiseCostSchedule,
    as_cost_schedule,
    as_epsilon_schedule,
)
from .simulate import (
    DivergenceError,
    PopularityEnv,
    RunTrace,
    UniformActionDraws,
    run_lockstep,
)


@dataclass(frozen=True)
class LinearLearnerConfig:
    alpha_g: float = 0.005
    alpha_l: float = 0.005
    alpha_r: float = 0.005
    epsilon: float | EpsilonSchedule = 0.05
    gamma: float = 0.8

    def __post_init__(self) -> None:
        for name in ("alpha_g", "alpha_l", "alpha_r"):
            value = as_number(getattr(self, name), name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0")
            object.__setattr__(self, name, value)
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
        if self.theta_g.ndim != 2 or self.theta_l.ndim != 2:
            raise ValueError("theta_g and theta_l must be 2-D")
        if self.theta_g.shape[1] != self.theta_l.shape[1]:
            raise ValueError("theta_g and theta_l must share the catalog dimension")
        if not (np.isfinite(self.theta_g).all() and np.isfinite(self.theta_l).all()):
            raise ValueError("parameters must be finite")
        self.theta_r = float(self.theta_r)

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


def psi(params: LinearParams, state: SystemState) -> np.ndarray:
    """Per-file not-caching scores for one state."""
    f = params.catalog_size
    if state.action.catalog_size != f:
        raise ValueError("state action catalog does not match the parameters")
    g = as_int(state.g, "g", 0, params.theta_g.shape[0])
    l = as_int(state.l, "l", 0, params.theta_l.shape[0])
    return params.theta_g[g] + params.theta_l[l] + params.theta_r * state.action.as_mask()


def q_hat(params: LinearParams, state: SystemState, a_next: CacheAction) -> float:
    """Approximate Q-value: the psi mass left uncached by ``a_next``."""
    if a_next.catalog_size != params.catalog_size:
        raise ValueError("action catalog does not match the parameters")
    scores = psi(params, state)
    return float(scores.sum() - scores[np.array(a_next.files) - 1].sum())


def greedy_top_m(params: LinearParams, state: SystemState, m: int) -> CacheAction:
    """The M files with the largest psi entries (ties to the lowest index).

    Equals the argmin of ``q_hat`` over all C(F, M) actions, found by a
    sort instead of a search.
    """
    f = params.catalog_size
    m = as_int(m, "cache capacity", 1, f + 1)
    scores = psi(params, state)
    order = np.argsort(-scores, kind="stable")
    return CacheAction(files=tuple(int(x) + 1 for x in order[:m]), catalog_size=f)


def linear_td_error(
    params: LinearParams,
    s_prev: SystemState,
    a: CacheAction,
    s_next: SystemState,
    cost: float,
    gamma: float,
) -> float:
    """cost + gamma * min_a' q_hat(s_next, a') - q_hat(s_prev, a)."""
    best_next = greedy_top_m(params, s_next, a.cache_size)
    return cost + gamma * q_hat(params, s_next, best_next) - q_hat(params, s_prev, a)


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
    not_cached = 1.0 - a.as_mask()
    out.theta_g[s_prev.g] += config.alpha_g * err * not_cached
    out.theta_l[s_prev.l] += config.alpha_l * err * not_cached
    dropped = float(s_prev.action.as_mask() @ not_cached)
    out.theta_r += config.alpha_r * err * dropped
    return out


def _q_table(theta_g, theta_l, theta_r, space: StateSpace) -> np.ndarray:
    """Linear Q values over all (state, action) pairs; a_prev^T (1 - a) is the refresh count."""
    scores = (theta_g[:, None, :] + theta_l[None, :, :]).reshape(-1, theta_g.shape[1])
    return space.q_table(theta_r, scores @ (1.0 - space.action_masks).T)


def linear_q_matrix(params: LinearParams, space: StateSpace) -> np.ndarray:
    """Materialize the linear learner's Q values over all (state, action)."""
    return _q_table(params.theta_g, params.theta_l, params.theta_r, space)


class BatchLinearAgent:
    """Lockstep linear learner driven by the simulation engine."""

    def __init__(self, n_g: int, n_l: int, f: int, m: int, config: LinearLearnerConfig):
        self.n_g = n_g
        self.n_l = n_l
        self.f = f
        self.m = m
        self.config = config
        self._draws = UniformActionDraws(f, m)
        self.theta_g: np.ndarray | None = None
        self.theta_l: np.ndarray | None = None
        self.theta_r: np.ndarray | None = None
        self._eps: np.ndarray | None = None
        self._u: np.ndarray | None = None
        self._ts: np.ndarray | None = None
        self._pending = None
        self._err_ref: tuple[np.ndarray, float, StateSpace] | None = None

    def begin(self, n_realizations: int) -> None:
        self.theta_g = np.zeros((n_realizations, self.n_g, self.f))
        self.theta_l = np.zeros((n_realizations, self.n_l, self.f))
        self.theta_r = np.zeros(n_realizations)
        self._r = np.arange(n_realizations)

    def predraw(self, rngs, ts) -> None:
        self._ts = ts
        self._eps = self.config.epsilon.epsilon_array(ts + 1)
        self._u = np.stack([rng.random(ts.size) for rng in rngs])
        self._draws.draw(rngs, ts.size)

    def select(self, j, g, l_seen, mask_prev):
        with np.errstate(over="ignore", invalid="ignore"):
            scores = (
                self.theta_g[self._r, g]
                + self.theta_l[self._r, l_seen]
                + self.theta_r[:, None] * mask_prev
            )
            top = np.argsort(-scores, axis=1, kind="stable")[:, : self.m]
            explore = self._u[:, j] < self._eps[j]
            mask = files_mask(np.where(explore[:, None], self._draws.files[:, j], top), self.f)
            q_prev = scores.sum(axis=1) - (scores * mask).sum(axis=1)
        self._pending = (g, l_seen, q_prev, mask)
        return mask

    def learn(self, j, g_next, l_next_seen, cost, refresh) -> None:
        g_prev, l_prev, q_prev, mask = self._pending
        # overflow here is the divergence signal, not an error in itself
        with np.errstate(over="ignore", invalid="ignore"):
            scores_next = (
                self.theta_g[self._r, g_next]
                + self.theta_l[self._r, l_next_seen]
                + self.theta_r[:, None] * mask
            )
            top = -np.partition(-scores_next, self.m - 1, axis=1)[:, : self.m].sum(axis=1)
            q_min_next = scores_next.sum(axis=1) - top
            err = cost + self.config.gamma * q_min_next - q_prev
        if not np.isfinite(err).all():
            t = int(self._ts[j])
            raise DivergenceError(f"non-finite TD error at slot {t}; aborting run")
        not_cached = 1.0 - mask
        upd = err[:, None] * not_cached
        self.theta_g[self._r, g_prev] += self.config.alpha_g * upd
        self.theta_l[self._r, l_prev] += self.config.alpha_l * upd
        self.theta_r += self.config.alpha_r * err * refresh

    def params_of(self, realization: int) -> LinearParams:
        return LinearParams(
            theta_g=self.theta_g[realization].copy(),
            theta_l=self.theta_l[realization].copy(),
            theta_r=float(self.theta_r[realization]),
        )

    def set_error_reference(self, qstar: np.ndarray, space: StateSpace) -> None:
        """Reference Q table over ``space``, a state space of this network."""
        self._err_ref = (qstar, float(np.linalg.norm(qstar)), space)

    def normalized_error(self) -> np.ndarray:
        qstar, norm, space = self._err_ref
        thetas = zip(self.theta_g, self.theta_l, self.theta_r)
        return np.array([relative_q_error(_q_table(*t, space), qstar, norm) for t in thetas])

    def trace_epsilon(self, j) -> float:
        return float(self._eps[j])

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
    result = run_lockstep(
        env,
        agent,
        as_cost_schedule(cost_schedule),
        horizon,
        [rng],
        collect_trace=True,
    )
    return LinearRunResult(trace=result.trace, params=agent.params_of(0))
