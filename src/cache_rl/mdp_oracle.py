"""Exact MDP solver: the ground-truth baseline for the learners.

With the popularity transition matrices known, the joint process over
(global state, local state, cache contents) is a finite MDP. The chains
evolve independently of the caching decisions and the next cache is the
chosen action, so the kernel factorizes as P^G[g, g'] * P^L[l, l'] * 1{a'' = a}.
The solver applies only its chain part, K = kron(P^G, P^L), to
(n_g * n_l, |A|) tables; no |S| x |S| matrix is built. The mean cost, Q* and
the linear Q all read w * refresh_counts[a_prev, a] + T[gl, a], one table
layout that only ``StateSpace.q_table`` builds, once it fits in memory. Policy
iteration reads Q a few rows at a time from W, the post-decision table.

States are indexed g-major, then local state, then action index, which makes
table layouts reproducible across runs. Ties in every argmin break toward
the lowest index. The oracle supports constant cost weights; time-varying
weights are the simulator's concern.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .caching_core import ActionSpace, CostParams, SystemState, files_label, files_mask, write_table
from .popularity import MarkovChain, as_discount, as_int, as_ints

_PHYSICAL_MEMORY = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


class StateSpace:
    """Joint state space over both chains and the feasible action set."""

    def __init__(self, g_chain: MarkovChain, l_chain: MarkovChain, cache_size: int):
        f = g_chain.catalog_size
        as_int(l_chain.catalog_size, "local chain catalog size", f, f + 1)
        self.g_chain = g_chain
        self.l_chain = l_chain
        self.actions = ActionSpace(g_chain.catalog_size, cache_size)
        # Materialized action tables, first: this rejects a space whose C(F, M)
        # is too large to count with len().
        self.action_files = self.actions.files_array()
        self.action_masks = files_mask(self.action_files, self.actions.f)
        self.n_g = g_chain.n_states
        self.n_l = l_chain.n_states
        self.n_actions = len(self.action_files)
        self.n_states = self.n_g * self.n_l * self.n_actions
        m, n_a, masks = self.actions.m, self.n_actions, self.action_masks
        counts_type = np.min_scalar_type(m)
        if counts_type.itemsize * n_a**2 > _PHYSICAL_MEMORY:
            raise ValueError(f"the {n_a}-action refresh table is too large to materialize")
        # refresh_counts[a, b] = |b \ a| = M - |a & b|, in the smallest type that
        # holds M. Filled in row blocks of at most 64 KiB, under glibc's 128 KiB
        # mmap threshold: a freed (|A|, |A|) float64 temporary would raise that
        # threshold and grow peak RSS.
        self.refresh_counts = np.empty((n_a, n_a), dtype=counts_type)
        step = max(1, 2**16 // (8 * n_a))
        for a in range(0, n_a, step):
            self.refresh_counts[a : a + step] = m - masks[a : a + step] @ masks.T
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

    def check_q_table(self, q) -> np.ndarray:
        """``q`` as a float64 array, if it is an (|S|, |A|) table over this space."""
        q = np.asarray(q, dtype=np.float64)
        if q.shape != (self.n_states, self.n_actions):
            raise ValueError(f"Q table must be {self.n_states}x{self.n_actions}, got {q.shape}")
        return q

    def check_tables(self, count: int = 1) -> None:
        """Raise ValueError unless ``count`` 8-byte (|S|, |A|) tables fit in physical memory."""
        if 8 * count * self.n_states * self.n_actions > _PHYSICAL_MEMORY:
            times = "" if count == 1 else f" x {count}"
            raise ValueError(f"the {self.n_states}-state Q table{times} is too large to materialize")

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
        self.check_tables()
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


def _post_decision(space: StateSpace, v: np.ndarray, gamma: float, params: CostParams):
    """Post-decision table W[gl, a] = mismatch cost + gamma * (K V)[gl, a] (Powell, ADP, ch. 4)."""
    w = space.kernel @ v.reshape(space.n_g * space.n_l, space.n_actions)
    return space.mismatch_cost(params) + as_discount(gamma) * w


def _q_chunks(space: StateSpace, refresh_weight: float, post: np.ndarray):
    """(state rows, table rows) of ``space.q_table(refresh_weight, post)``, in order.

    A chunk of several rows takes at most 64 KiB, under glibc's 128 KiB mmap
    threshold, so it reuses heap memory; (|A|, |A|) blocks, freed, raise that
    threshold and grew peak RSS by 9.7% on F = 20, M = 3.
    """
    n_a = space.n_actions
    step = max(1, 2**16 // (8 * n_a))
    for gl, row in enumerate(post):
        for a in range(0, n_a, step):
            chunk = refresh_weight * space.refresh_counts[a : a + step]
            chunk += row
            yield slice(gl * n_a + a, gl * n_a + a + len(chunk)), chunk


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
    return space.q_table(params.lambda1, _post_decision(space, v, gamma, params))


def policy_improvement(space: StateSpace, q: np.ndarray) -> np.ndarray:
    """Greedy policy for a Q table; ties go to the lowest action index."""
    return np.argmin(space.check_q_table(q), axis=1)


@dataclass(frozen=True)
class PolicyIterationResult:
    """pi* and V* per state, W* per (gl, a), and Q*, built from W* on first read if it fits."""

    policy: np.ndarray
    values: np.ndarray
    w: np.ndarray
    iterations: int
    value_history: tuple[np.ndarray, ...]
    space: StateSpace
    params: CostParams

    @cached_property
    def q(self) -> np.ndarray:
        return self.space.q_table(self.params.lambda1, self.w)


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
        w = _post_decision(space, values, gamma, params)
        chunks = _q_chunks(space, params.lambda1, w)
        new_policy = np.concatenate([np.argmin(q, axis=1) for _, q in chunks])
        if np.array_equal(new_policy, policy):
            return PolicyIterationResult(policy, values, w, iterations, tuple(history), space, params)
        policy = new_policy


def bellman_optimality_residual(
    space: StateSpace, q: np.ndarray, gamma: float, params: CostParams
) -> float:
    """Max absolute violation of the optimality recursion by a Q table, a few rows at a time."""
    q = space.check_q_table(q)
    w = _post_decision(space, q.min(axis=1), gamma, params)
    chunks = _q_chunks(space, params.lambda1, w)
    return float(np.max([np.abs(np.subtract(q[s], t, out=t), out=t).max() for s, t in chunks]))


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
    max_iter = as_int(max_iter, "max_iter", 1)
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
    (``star_norm``: ||Q*||_F, when the caller holds it already). Raises
    ValueError unless ||Q*||_F is finite and nonzero and ||Q - Q*||_F finite,
    so a non-finite or overflowing table never gives a NaN or inf error."""
    q = np.asarray(q, dtype=np.float64)
    q_star = np.asarray(q_star, dtype=np.float64)
    if q.shape != q_star.shape:
        raise ValueError("Q tables must have identical shapes")
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite norm is rejected below
        denom = float(np.linalg.norm(q_star)) if star_norm is None else star_norm
        error = float(np.linalg.norm(q - q_star))
    if not 0.0 < denom < np.inf:
        raise ValueError(f"reference Q table must have a finite nonzero norm, got {denom}")
    if not error < np.inf:
        raise ValueError(f"||Q - Q*||_F must be finite, got {error}")
    return error / denom


def export_policy_csv(space: StateSpace, policy: np.ndarray, values: np.ndarray, path) -> None:
    """Write per-state optimal actions and values (1-based file lists); bad shapes raise first."""
    policy, values = space.check_policy(policy).tolist(), np.asarray(values)
    if values.shape != (space.n_states,):
        raise ValueError(f"values must have shape ({space.n_states},), got {values.shape}")
    labels = [files_label(files) for files in space.action_files.tolist()]
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
            values.tolist(),
        ),
    )


def export_qtable_csv(space: StateSpace, q: np.ndarray, path) -> None:
    """Write the full Q table as (state, action, value) rows; a bad shape raises first."""
    q = space.check_q_table(q)
    labels = [files_label(files) for files in space.action_files.tolist()]
    rows = (
        (s, a, labels[a], v) for s in range(space.n_states) for a, v in enumerate(q[s].tolist())
    )
    write_table(path, ["state_index", "action_index", "action_files", "value"], rows)
