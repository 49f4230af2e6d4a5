"""Tabular Q-learning over the joint popularity/cache state space.

The learner keeps one value per (state, action) pair, selects actions
epsilon-greedily, and after each slot moves the visited entry toward
``cost + gamma * min_a Q(s', a)`` with step size beta. It never sees the
chain transition probabilities; only realized costs drive the updates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mdp_oracle import StateSpace, relative_q_error
from .popularity import as_discount, as_int
from .schedules import (
    EpsilonSchedule,
    VisitCountBeta,
    as_epsilon_schedule,
    validate_beta,
)
from .simulate import PopularityEnv, RunTrace, run_lockstep
from .schedules import PiecewiseCostSchedule, as_cost_schedule


@dataclass(frozen=True)
class QLearnerConfig:
    beta: float | VisitCountBeta = 0.8
    epsilon: float | EpsilonSchedule = 0.05
    gamma: float = 0.8

    def __post_init__(self) -> None:
        object.__setattr__(self, "beta", validate_beta(self.beta))
        object.__setattr__(self, "epsilon", as_epsilon_schedule(self.epsilon))
        object.__setattr__(self, "gamma", as_discount(self.gamma))


class ExactQLearner:
    """Mutable tabular learner; one instance per simulation loop."""

    def __init__(self, space: StateSpace, config: QLearnerConfig):
        self.space = space
        self.config = config
        self.q = np.zeros((space.n_states, space.n_actions))
        self.visits = np.zeros((space.n_states, space.n_actions), dtype=np.int64)

    def epsilon_greedy_action(self, s: int, epsilon: float, rng: np.random.Generator) -> int:
        """Greedy action w.p. 1-epsilon (ties to lowest index), else uniform."""
        s = as_int(s, "state index", 0, self.space.n_states)
        if rng.random() < epsilon:
            return int(rng.integers(self.space.n_actions))
        return int(np.argmin(self.q[s]))

    def td_update(
        self,
        s_prev: int,
        a: int,
        s_next: int,
        cost: float,
        beta: float | None = None,
    ) -> float:
        """Move Q(s_prev, a) toward cost + gamma * min_a' Q(s_next, a').

        Only the visited entry changes. Returns its new value.
        """
        s_prev = as_int(s_prev, "state index", 0, self.space.n_states)
        a = as_int(a, "action index", 0, self.space.n_actions)
        s_next = as_int(s_next, "next state index", 0, self.space.n_states)
        if not np.isfinite(cost):
            raise ValueError("cost must be finite")
        if beta is None:
            if isinstance(self.config.beta, VisitCountBeta):
                beta = 1.0 / (1.0 + self.visits[s_prev, a])
            else:
                beta = self.config.beta
        target = cost + self.config.gamma * float(self.q[s_next].min())
        self.q[s_prev, a] = (1.0 - beta) * self.q[s_prev, a] + beta * target
        self.visits[s_prev, a] += 1
        return float(self.q[s_prev, a])


class BatchExactAgent:
    """Lockstep tabular learner driven by the simulation engine."""

    def __init__(self, space: StateSpace, config: QLearnerConfig):
        self.space = space
        self.config = config
        self.m = space.cache_size
        self.q: np.ndarray | None = None
        self._visits: np.ndarray | None = None
        self._per_visit = isinstance(config.beta, VisitCountBeta)
        self._a_idx: np.ndarray | None = None
        self._err_ref: tuple[np.ndarray, float] | None = None
        self._eps: np.ndarray | None = None
        self._u: np.ndarray | None = None
        self._explore_a: np.ndarray | None = None
        self._beta = 0.0
        self._pending: tuple[np.ndarray, np.ndarray] | None = None

    def begin(self, n_realizations: int) -> None:
        space = self.space
        self.q = np.zeros((n_realizations, space.n_states, space.n_actions))
        if self._per_visit:
            self._visits = np.zeros(
                (n_realizations, space.n_states, space.n_actions), dtype=np.int64
            )
        self._a_idx = np.zeros(n_realizations, dtype=np.int64)
        self._r = np.arange(n_realizations)

    def predraw(self, rngs, ts) -> None:
        n = ts.size
        self._eps = self.config.epsilon.epsilon_array(ts + 1)
        self._u = np.stack([rng.random(n) for rng in rngs])
        self._explore_a = np.stack(
            [rng.integers(0, self.space.n_actions, size=n) for rng in rngs]
        )

    def select(self, j, g, l_seen, mask_prev):
        space = self.space
        s_prev = space.state_indices(g, l_seen, self._a_idx)
        greedy = np.argmin(self.q[self._r, s_prev], axis=1)
        explore = self._u[:, j] < self._eps[j]
        a = np.where(explore, self._explore_a[:, j], greedy)
        self._pending = (s_prev, a)
        return space.action_masks[a]

    def learn(self, j, g_next, l_next_seen, cost, refresh) -> None:
        space = self.space
        s_prev, a = self._pending
        s_next = space.state_indices(g_next, l_next_seen, a)
        q_min_next = self.q[self._r, s_next].min(axis=1)
        if self._per_visit:
            beta = 1.0 / (1.0 + self._visits[self._r, s_prev, a])
            self._visits[self._r, s_prev, a] += 1
        else:
            beta = self.config.beta
        old = self.q[self._r, s_prev, a]
        self.q[self._r, s_prev, a] = (1.0 - beta) * old + beta * (
            cost + self.config.gamma * q_min_next
        )
        self._beta = beta
        self._a_idx = a

    def set_error_reference(self, qstar: np.ndarray, space: StateSpace) -> None:
        """Reference Q table over ``space``, the space the agent learns on."""
        self._err_ref = (qstar, float(np.linalg.norm(qstar)))

    def normalized_error(self) -> np.ndarray:
        qstar, norm = self._err_ref
        return np.array([relative_q_error(q, qstar, norm) for q in self.q])

    def trace_epsilon(self, j) -> float:
        return float(self._eps[j])

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
    result = run_lockstep(
        env,
        agent,
        as_cost_schedule(cost_schedule),
        horizon,
        [rng],
        collect_trace=True,
    )
    return ExactRunResult(trace=result.trace, q=agent.q[0], space=space)
