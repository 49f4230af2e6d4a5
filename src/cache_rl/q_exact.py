"""Tabular Q-learning over the joint popularity/cache state space.

The learner keeps one value per (state, action) pair, selects actions
epsilon-greedily, and after each slot moves the visited entry toward
``cost + gamma * min_a Q(s', a)`` with step size beta. It never sees the
chain transition probabilities; only realized costs drive the updates.

The lockstep agent applies ``greedy`` and ``tabular_step`` to (R, S, A)
tables; ``ExactQLearner.epsilon_greedy_action`` and ``td_update`` wrap
them for one (S, A) table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mdp_oracle import StateSpace
from .popularity import as_discount, as_int
from .schedules import (
    EpsilonSchedule,
    PiecewiseCostSchedule,
    VisitCountBeta,
    as_epsilon_schedule,
    validate_beta,
)
from .simulate import LockstepLearner, PopularityEnv, RunTrace, run_single


@dataclass(frozen=True)
class QLearnerConfig:
    beta: float | VisitCountBeta = 0.8
    epsilon: float | EpsilonSchedule = 0.05
    gamma: float = 0.8

    def __post_init__(self) -> None:
        object.__setattr__(self, "beta", validate_beta(self.beta))
        object.__setattr__(self, "epsilon", as_epsilon_schedule(self.epsilon))
        object.__setattr__(self, "gamma", as_discount(self.gamma))


def greedy(q_rows):
    """Greedy action of each Q row: the lowest-index argmin over the last axis."""
    return np.argmin(q_rows, axis=-1)


def tabular_step(q, visits, at, at_next, cost, gamma, beta):
    """Move q[at] toward cost + gamma * min q[at_next] in place; returns the step size,
    ``beta`` or, for a VisitCountBeta, 1 / (1 + visits[at]). ``visits`` may be None."""
    q_min_next = q[at_next].min(axis=-1)
    if isinstance(beta, VisitCountBeta):
        beta = 1.0 / (1.0 + visits[at])
    if visits is not None:
        visits[at] += 1
    q[at] = (1.0 - beta) * q[at] + beta * (cost + gamma * q_min_next)
    return beta


class ExactQLearner:
    """Mutable tabular learner; one instance per simulation loop."""

    def __init__(self, space: StateSpace, config: QLearnerConfig):
        self.space = space
        self.config = config
        space.check_tables(2)
        self.q = np.zeros((space.n_states, space.n_actions))
        self.visits = np.zeros((space.n_states, space.n_actions), dtype=np.int64)

    def epsilon_greedy_action(self, s: int, epsilon: float, rng: np.random.Generator) -> int:
        """Greedy action w.p. 1-epsilon (ties to lowest index), else uniform."""
        s = as_int(s, "state index", 0, self.space.n_states)
        if rng.random() < epsilon:
            return int(rng.integers(self.space.n_actions))
        return int(greedy(self.q[s]))

    def td_update(
        self,
        s_prev: int,
        a: int,
        s_next: int,
        cost: float,
        beta: float | VisitCountBeta | None = None,
    ) -> float:
        """Move Q(s_prev, a) toward cost + gamma * min_a' Q(s_next, a').

        ``beta`` overrides the configured step size. Only the visited entry
        changes. Returns its new value.
        """
        s_prev = as_int(s_prev, "state index", 0, self.space.n_states)
        a = as_int(a, "action index", 0, self.space.n_actions)
        s_next = as_int(s_next, "next state index", 0, self.space.n_states)
        if not np.isfinite(cost):
            raise ValueError("cost must be finite")
        beta = validate_beta(self.config.beta if beta is None else beta)
        tabular_step(self.q, self.visits, (s_prev, a), s_next, cost, self.config.gamma, beta)
        return float(self.q[s_prev, a])


class BatchExactAgent(LockstepLearner):
    """Lockstep tabular learner driven by the simulation engine."""

    def __init__(self, space: StateSpace, config: QLearnerConfig):
        super().__init__(space.cache_size, config)
        self.space = space
        self.f, self.n_g, self.n_l = space.catalog_size, space.n_g, space.n_l
        self.q: np.ndarray | None = None
        self._visits: np.ndarray | None = None

    def begin(self, n_realizations: int) -> None:
        visit_counts = isinstance(self.config.beta, VisitCountBeta)
        self.space.check_tables(n_realizations * (1 + visit_counts))
        super().begin(n_realizations)
        shape = (n_realizations, self.space.n_states, self.space.n_actions)
        self.q = np.zeros(shape)
        if visit_counts:
            self._visits = np.zeros(shape, dtype=np.int64)

    def predraw(self, rngs, ts) -> None:
        super().predraw(rngs, ts)
        self._explore_a = np.empty((ts.size, len(rngs)), dtype=np.int64)
        for r, rng in enumerate(rngs):
            self._explore_a[:, r] = rng.integers(0, self.space.n_actions, size=ts.size)

    def select(self, j, g, l_seen, a_prev):
        s_prev = self.space.state_indices(g, l_seen, a_prev)
        a = np.where(self.explores(j), self._explore_a[j], greedy(self.q[self._r, s_prev]))
        self._pending = (s_prev, a)
        return a

    def learn(self, j, g_next, l_next_seen, cost, refresh) -> None:
        s_prev, a = self._pending
        s_next = self.space.state_indices(g_next, l_next_seen, a)
        at, at_next = (self._r, s_prev, a), (self._r, s_next)
        gamma, beta = self.config.gamma, self.config.beta
        self._beta = tabular_step(self.q, self._visits, at, at_next, cost, gamma, beta)

    def q_table(self, r, space: StateSpace) -> np.ndarray:
        """Realization r's table; ``space`` is the space the agent learns on."""
        return self.q[r]

    def trace_beta(self, j) -> float:
        return float(np.asarray(self._beta).ravel()[0])


@dataclass
class ExactRunResult:
    trace: RunTrace
    q: np.ndarray
    space: StateSpace


def run_exact(
    env: PopularityEnv,
    cache_size: int,
    cost_schedule: PiecewiseCostSchedule,
    config: QLearnerConfig,
    horizon: int,
    rng: np.random.Generator,
    space: StateSpace | None = None,
) -> ExactRunResult:
    """One seeded realization of the tabular learner; returns trace and Q."""
    if space is None:
        space = StateSpace(env.g_chain, env.l_chain, cache_size)
    agent = BatchExactAgent(space, config)
    trace = run_single(env, agent, cost_schedule, horizon, rng)
    return ExactRunResult(trace=trace, q=agent.q[0], space=space)
