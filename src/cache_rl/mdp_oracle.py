"""Exact MDP solver: the ground-truth baseline for the learners.

With the popularity transition matrices known, the joint process over
(global state, local state, cache contents) is a finite MDP. The chains
evolve independently of the caching decisions and the next cache is the
chosen action, so the kernel factorizes as P^G[g, g'] * P^L[l, l'] * 1{a'' = a}.
The solver applies only its chain part, K = kron(P^G, P^L), to
(n_g * n_l, |A|) tables; no |S| x |S| matrix is built. The mean cost, Q* and
the linear Q all read w * refresh_counts[a_prev, a] + T[gl, a], one table
layout that ``StateSpace.q_table`` alone builds.

States are indexed g-major, then local state, then action index, which makes
table layouts reproducible across runs. Ties in every argmin break toward
the lowest index. The oracle supports constant cost weights; time-varying
weights are the simulator's concern.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .caching_core import ActionSpace, CostParams, SystemState, files_label, write_table
from .popularity import MarkovChain, as_discount, as_int, as_ints


class StateSpace:
    """Joint state space over both chains and the feasible action set."""

    def __init__(self, g_chain: MarkovChain, l_chain: MarkovChain, cache_size: int):
        if g_chain.catalog_size != l_chain.catalog_size:
            raise ValueError("chains must share one catalog size")
        self.g_chain = g_chain
        self.l_chain = l_chain
        self.actions = ActionSpace(g_chain.catalog_size, cache_size)
        # Materialized action tables, first: this rejects a space whose C(F, M)
        # is too large to count with len().
        self.action_files = self.actions.files_array()
        self.action_masks = self.actions.mask_matrix()
        self.n_g = g_chain.n_states
        self.n_l = l_chain.n_states
        self.n_actions = len(self.action_files)
        self.n_states = self.n_g * self.n_l * self.n_actions
        m = self.actions.m
        # overlap[a, b] = |a & b|, refresh_counts[a, b] = |b \ a|
        overlap = self.action_masks @ self.action_masks.T
        self.refresh_counts = np.subtract(m, overlap, out=overlap)
        # Components of every state, in index order.
        gl, self.state_actions = np.divmod(np.arange(self.n_states), self.n_actions)
        self.state_g, self.state_l = np.divmod(gl, self.n_l)
        # Chain part of the kernel over (g, l) pairs, g-major like the states.
        self.kernel = np.kron(g_chain.transition, l_chain.transition)

    @property
    def catalog_size(self) -> int:
        return self.g_chain.catalog_size

    @property
    def cache_size(self) -> int:
        return self.actions.m

    def state_indices(self, g, l, a_idx):
        """Vectorized state index of (global state, local state, cached action)."""
        return (g * self.n_l + l) * self.n_actions + a_idx

    def state_index(self, g: int, l: int, a_idx: int) -> int:
        g, l = as_int(g, "g", 0, self.n_g), as_int(l, "l", 0, self.n_l)
        a_idx = as_int(a_idx, "action index", 0, self.n_actions)
        return int(self.state_indices(g, l, a_idx))

    def state_components(self, index: int) -> tuple[int, int, int]:
        index = as_int(index, "state index", 0, self.n_states)
        return int(self.state_g[index]), int(self.state_l[index]), int(self.state_actions[index])

    def system_state(self, index: int) -> SystemState:
        g, l, a_idx = self.state_components(index)
        return SystemState(g=g, l=l, action=self.actions.action(a_idx))

    def check_policy(self, policy) -> np.ndarray:
        """``policy`` as an int64 copy, if it is an integer array of one valid action per state."""
        try:
            policy = as_ints(policy, "policy", 0, self.n_actions)
        except ValueError:
            policy = None
        if policy is None or policy.shape != (self.n_states,):
            raise ValueError("policy must assign one valid action per state")
        return policy

    def mismatch_cost(self, params: CostParams) -> np.ndarray:
        """lambda3 * (1 - E[p_G']^T a) + lambda2 * (1 - E[p_L']^T a) per (gl, a),
        E[p'] being the one-step conditional mean profile."""
        un_g, un_l = (
            1.0 - chain.transition @ chain.profile_matrix() @ self.action_masks.T
            for chain in (self.g_chain, self.l_chain)
        )
        cost = params.lambda3 * un_g[:, None, :] + params.lambda2 * un_l[None, :, :]
        return cost.reshape(self.n_g * self.n_l, self.n_actions)

    def q_table(self, refresh_weight: float, post: np.ndarray) -> np.ndarray:
        """refresh_weight * refresh_counts[a_prev, a] + post[gl, a], shape (|S|, |A|)."""
        # Filled in place, so no (|A|, |A|) or (|S|, |A|) temporary sits beside it.
        q = np.empty((self.n_g * self.n_l, self.n_actions, self.n_actions))
        np.multiply(refresh_weight, self.refresh_counts, out=q)
        q += post[:, None, :]
        return q.reshape(self.n_states, self.n_actions)

    def expected_cost_matrix(self, params: CostParams) -> np.ndarray:
        """Mean slot cost for every (state, action) pair, shape (|S|, |A|)."""
        return self.q_table(params.lambda1, self.mismatch_cost(params))


def transition_prob(space: StateSpace, s: int, a_idx: int, s_next: int) -> float:
    """Probability of moving from state ``s`` to ``s_next`` under action ``a_idx``."""
    g, l, _ = space.state_components(s)
    g2, l2, a2 = space.state_components(s_next)
    a_idx = as_int(a_idx, "action index", 0, space.n_actions)
    return float(space.kernel[g * space.n_l + l, g2 * space.n_l + l2]) if a2 == a_idx else 0.0


def _policy_tables(space: StateSpace, policy, params: CostParams):
    """A policy's (gl, pi(gl, a_prev)) flat indices and mean slot costs as
    (n_g * n_l, |A|) tables indexed (gl, a_prev)."""
    policy = space.check_policy(policy)
    shape = (space.n_g * space.n_l, space.n_actions)
    nxt = (np.arange(space.n_states) - space.state_actions + policy).reshape(shape)
    refresh = space.refresh_counts[space.state_actions, policy].reshape(shape)
    return nxt, params.lambda1 * refresh + np.take(space.mismatch_cost(params), nxt)


def policy_evaluation(
    space: StateSpace, policy: np.ndarray, gamma: float, params: CostParams
) -> np.ndarray:
    """Value of a deterministic policy by successive approximation.

    From V = c_pi, each sweep sets V[gl, a] = c_pi[gl, a] + gamma * (K V)[gl, pi(gl, a)].
    The sweep count is the smallest k with gamma**k <= 1e-15 (one sweep when
    gamma = 0), which bounds the truncation error by 1e-15 * max|c_pi| / (1 - gamma).
    Raises ValueError on non-finite values.
    """
    gamma = as_discount(gamma)
    nxt, c_pi = _policy_tables(space, policy, params)
    sweeps = 1 if gamma == 0.0 else math.ceil(math.log(1e-15) / math.log(gamma))
    v = c_pi
    for _ in range(sweeps):
        v = c_pi + gamma * np.take(space.kernel @ v, nxt)
    if not np.isfinite(v).all():
        raise ValueError("policy evaluation produced non-finite values")
    return v.ravel()


def q_from_value(
    space: StateSpace, v: np.ndarray, gamma: float, params: CostParams
) -> np.ndarray:
    """State-action values implied by a state value function."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (space.n_states,):
        raise ValueError("value function has wrong length")
    # w[gl, a]: expected next-state value once the cache holds action a
    w = space.kernel @ v.reshape(space.n_g * space.n_l, space.n_actions)
    return space.q_table(params.lambda1, space.mismatch_cost(params) + gamma * w)


def policy_improvement(space: StateSpace, q: np.ndarray) -> np.ndarray:
    """Greedy policy for a Q table; ties go to the lowest action index."""
    q = np.asarray(q)
    if q.shape != (space.n_states, space.n_actions):
        raise ValueError("Q table has wrong shape")
    return np.argmin(q, axis=1)


@dataclass(frozen=True)
class PolicyIterationResult:
    policy: np.ndarray
    values: np.ndarray
    q: np.ndarray
    iterations: int
    value_history: tuple[np.ndarray, ...]


def policy_iteration(
    space: StateSpace,
    gamma: float,
    params: CostParams,
    initial_policy: np.ndarray | None = None,
) -> PolicyIterationResult:
    """Alternate exact evaluation and greedy improvement to a fixed point.

    The default initial policy caches files {1..M} (action index 0) in every
    state, so runs are reproducible.
    """
    if initial_policy is None:
        initial_policy = np.zeros(space.n_states, dtype=np.int64)
    policy = space.check_policy(initial_policy)
    history = []
    for iterations in itertools.count(1):
        values = policy_evaluation(space, policy, gamma, params)
        history.append(values)
        q = q_from_value(space, values, gamma, params)
        new_policy = policy_improvement(space, q)
        if np.array_equal(new_policy, policy):
            return PolicyIterationResult(policy, values, q, iterations, tuple(history))
        policy = new_policy


def bellman_optimality_residual(
    space: StateSpace, q: np.ndarray, gamma: float, params: CostParams
) -> float:
    """Max absolute violation of the optimality recursion by a Q table."""
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (space.n_states, space.n_actions):
        raise ValueError("Q table has wrong shape")
    v = q.min(axis=1)
    target = q_from_value(space, v, gamma, params)
    return float(np.abs(np.subtract(q, target, out=target), out=target).max())


def long_run_average_cost(
    space: StateSpace,
    policy: np.ndarray,
    params: CostParams,
    max_iter: int = 200_000,
) -> float:
    """Long-run per-slot mean cost of a deterministic policy.

    Iterates the damped chain (I + P)/2, so periodic chains converge too:
    each step moves the mass at (gl, a_prev) to (gl, pi(gl, a_prev)), then
    the chain states by K. Raises RuntimeError when the iteration has not
    converged after ``max_iter`` steps.

    The start is the simulator's (uniform over chain states, cache = action
    0, files 1..M), so the value is what a rollout measures. It matters when
    the policy's chain has several closed classes: preset s2's optimal policy
    on the small network has 9, and its cost from one start cache ranges from
    591.84 to 697.05 over the 45 caches.
    """
    nxt, c_pi = _policy_tables(space, policy, params)
    n_gl, n_a = nxt.shape
    dist = np.zeros((n_gl, n_a))
    dist[:, 0] = 1.0 / n_gl
    for _ in range(max_iter):
        moved = np.bincount(nxt.ravel(), weights=dist.ravel(), minlength=space.n_states)
        dist, prev = 0.5 * (dist + space.kernel.T @ moved.reshape(n_gl, n_a)), dist
        if np.abs(dist - prev).sum() < 1e-13:
            return float(dist.ravel() @ c_pi.ravel())
    raise RuntimeError(
        f"limiting distribution did not converge to tol 1e-13 in {max_iter} iterations"
    )


def relative_q_error(q: np.ndarray, q_star: np.ndarray, star_norm=None) -> float:
    """Relative Frobenius error ||Q - Q*||_F / ||Q*||_F of one Q table
    (``star_norm``: ||Q*||_F, when the caller holds it already)."""
    q = np.asarray(q, dtype=np.float64)
    q_star = np.asarray(q_star, dtype=np.float64)
    if q.shape != q_star.shape:
        raise ValueError("Q tables must have identical shapes")
    denom = float(np.linalg.norm(q_star)) if star_norm is None else star_norm
    if denom == 0.0:
        raise ValueError("reference Q table has zero norm")
    return float(np.linalg.norm(q - q_star) / denom)


def export_policy_csv(space: StateSpace, policy: np.ndarray, values: np.ndarray, path) -> None:
    """Write per-state optimal actions and values (1-based file lists)."""
    labels = [files_label(files) for files in space.action_files.tolist()]
    policy = space.check_policy(policy).tolist()
    write_table(
        path,
        ["state_index", "g_state", "l_state", "cached_files", "action_index", "action_files", "value"],
        zip(
            range(space.n_states),
            space.state_g.tolist(),
            space.state_l.tolist(),
            [labels[a] for a in space.state_actions.tolist()],
            policy,
            [labels[a] for a in policy],
            np.asarray(values).tolist(),
        ),
    )


def export_qtable_csv(space: StateSpace, q: np.ndarray, path) -> None:
    """Write the full Q table as (state index, action index, value) rows."""
    labels = [files_label(files) for files in space.action_files.tolist()]
    rows = (
        (s, a, labels[a], v) for s in range(space.n_states) for a, v in enumerate(q[s].tolist())
    )
    write_table(path, ["state_index", "action_index", "action_files", "value"], rows)
