"""Tabular Q-learning over the joint popularity/cache state space.

The learner keeps one value per (state, action) pair, selects actions
epsilon-greedily, and after each slot moves the visited entry toward
``cost + gamma * min_a Q(s', a)`` with step size beta. It never sees the
chain transition probabilities; only realized costs drive the updates.

``greedy`` and ``tabular_step`` are the one kernel. ``tabular_step`` works
on a 2-D (rows, A) table by flat index: ``ExactQLearner`` passes its (S, A)
table, and the lockstep agent a (R*S, A) view of its (R, S, A) tables, whose
row r*S + s is state s of realization r. With a Q* reference the lockstep
agent keeps each realization's squared error to Q* as a running sum, updated
from the entry that each step changes, so its error snapshots read no table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mdp_oracle import StateSpace
from .popularity import as_discount, as_int, as_number
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
    """Move entry ``at`` of ``q`` toward cost + gamma * min q[at_next], in place.

    ``q`` is a C-contiguous 2-D (rows, A) table, ``at`` a flat index into it
    (row * A + action) and ``at_next`` a row index: ints for one entry, (R,)
    arrays for one entry per realization. ``visits``, shaped like ``q``, counts
    the updates and may be None. Returns (beta, old, new): the step size,
    ``beta`` or, for a VisitCountBeta, 1 / (1 + visits at ``at``), and the
    entry before and after the step.
    """
    entries = q.reshape(-1, copy=False)
    # the row min read at the row's argmin: the same number, NaN included
    q_min_next = entries[at_next * q.shape[1] + greedy(q.take(at_next, axis=0))]
    if isinstance(beta, VisitCountBeta):
        beta = 1.0 / (1.0 + visits.reshape(-1, copy=False)[at])
    if visits is not None:
        visits.reshape(-1, copy=False)[at] += 1
    old = entries[at]
    new = (1.0 - beta) * old + beta * (cost + gamma * q_min_next)
    entries[at] = new
    return beta, old, new


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
        epsilon = as_number(epsilon, "epsilon", "[0, 1]")
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
        cost = as_number(cost, "cost", "(-inf, inf)")
        beta = validate_beta(self.config.beta if beta is None else beta)
        at = s_prev * self.space.n_actions + a
        return float(tabular_step(self.q, self.visits, at, s_next, cost, self.config.gamma, beta)[2])


class BatchExactAgent(LockstepLearner):
    """Lockstep tabular learner driven by the simulation engine.

    ``select`` reuses the state index that the previous ``learn`` computed,
    as the engine passes it the state that ``learn`` saw. The running error
    sums hold while the tables ``q`` change only through ``learn``.
    """

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
        n_s, n_a = self.space.n_states, self.space.n_actions
        self.q = np.zeros((n_realizations, n_s, n_a))
        self._table = self.q.reshape(n_realizations * n_s, n_a)
        if visit_counts:
            self._visits = np.zeros(self._table.shape, dtype=np.int64)
        self._row0 = self._r * n_s  # realization r's first row
        self._at0 = self._row0 * n_a  # and its first entry
        self._next_rows = None  # each realization's row of the state the last learn saw
        self._err_sq = None
        if self._err_ref is not None:  # at Q = 0 each sum is the dot whose root is ||Q*||
            self._ref = self._err_ref[0].ravel()  # Q*[s, a] at s * A + a
            self._err_sq = np.full(n_realizations, self._ref.dot(self._ref))

    def set_error_reference(self, qstar: np.ndarray, space) -> None:
        super().set_error_reference(qstar, space)
        if self.q is not None:  # after begin: the sums restart from the tables, once
            self._ref = self._err_ref[0].ravel()
            diffs = (q_r.ravel() - self._ref for q_r in self.q)
            self._err_sq = np.array([d.dot(d) for d in diffs])

    def predraw(self, rngs, ts) -> None:
        super().predraw(rngs, ts)
        # drawn as int64, stored in the smallest type that holds |A| - 1
        n_a = self.space.n_actions
        self._explore_a = np.empty((ts.size, len(rngs)), dtype=np.min_scalar_type(n_a - 1))
        for r, rng in enumerate(rngs):
            self._explore_a[:, r] = rng.integers(0, n_a, size=ts.size)

    def select(self, j, g, l_seen, a_prev):
        rows = self._next_rows
        if rows is None:
            rows = self._row0 + self.space.state_indices(g, l_seen, a_prev)
        a = np.where(self.explores(j), self._explore_a[j], greedy(self._table.take(rows, axis=0)))
        self._pending = (a, rows * self.space.n_actions + a)
        return a

    def learn(self, j, g_next, l_next_seen, cost, refresh) -> None:
        a, at = self._pending
        self._next_rows = self._row0 + self.space.state_indices(g_next, l_next_seen, a)
        gamma, beta = self.config.gamma, self.config.beta
        step = tabular_step(self._table, self._visits, at, self._next_rows, cost, gamma, beta)
        self._beta, old, new = step
        if self._err_sq is not None:
            ref = self._ref[at - self._at0]
            self._err_sq += (new - ref) ** 2 - (old - ref) ** 2

    def normalized_error(self) -> np.ndarray:
        """Per realization, ||Q - Q*||_F / ||Q*||_F from the running sums."""
        norm = self.error_reference()[1]
        return np.sqrt(np.maximum(self._err_sq, 0.0)) / norm

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
