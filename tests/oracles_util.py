"""Independent reference implementations used to cross-check the solvers.

Everything here is built from first principles (explicit loops over states,
definitional cost sums, itertools enumeration) so it shares no code path
with the vectorized solvers it validates. The dense references below are
the exception: they take the mean slot costs from
``StateSpace.expected_cost_matrix`` (itself checked entry by entry against
``first_principles_tables`` in ``TestTableBuilder``) and differ from the
solvers in the transition path, a dense |S| x |S| matrix with a direct
solve, which keeps them usable up to a few thousand states.

The per-slot references (``loop_cached_mass``, ``loop_slot_cost``,
``LoopExactLearner``, ``LoopLinearLearner``) restate the slot cost and both
learners' steps one file and one table entry at a time in plain Python, for
the differential tests that replay the lockstep engine slot by slot. The
linear learner's total score over the catalog goes through ``row_sum``,
which restates numpy's summation order for a row, so that catalogs of 8 or
more files compare bit for bit too.

``traced_peak`` is the memory tests' one measurement of a call's peak
allocation.
"""

from __future__ import annotations

import itertools
import tracemalloc

import numpy as np


def traced_peak(fn, *args, **kwargs):
    """(``fn(*args, **kwargs)``, the peak bytes that ``tracemalloc`` traced during the call)."""
    tracemalloc.start()
    try:
        return fn(*args, **kwargs), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def loop_sum(values, total=0.0):
    """Left-to-right float sum, starting from ``total``."""
    for x in values:
        total += x
    return total


def row_sum(values):
    """Sum of a whole row in numpy's order for a contiguous row, restated:
    left to right below 8 terms; up to 128 terms, eight interleaved partial
    sums combined as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)) and
    then the last n % 8 terms left to right; above 128 terms, the two halves
    (split at a multiple of 8) summed alike and added."""
    values = list(values)
    n = len(values)
    if n < 8:
        return loop_sum(values)
    if n > 128:
        half = n // 2 - (n // 2) % 8
        return row_sum(values[:half]) + row_sum(values[half:])
    r = values[:8]
    tail = n - n % 8
    for i in range(8, tail, 8):
        r = [r[k] + values[i + k] for k in range(8)]
    head = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    return loop_sum(values[tail:], head)


def loop_cached_mass(files, probs):
    """Popularity mass of the 1-based ``files``, added in ascending file order."""
    return loop_sum(probs[i - 1] for i in sorted(files))


def loop_slot_cost(prev_files, files, p_g, p_l, params):
    """Refresh + local + global mismatch cost of caching ``files`` after ``prev_files``.

    The refresh count is the set difference; ``p_g``/``p_l`` are the revealed
    next-slot profiles.
    """
    fetched = len(set(files) - set(prev_files))
    return (
        params.lambda1 * fetched
        + params.lambda2 * (1.0 - loop_cached_mass(files, p_l.probs))
        + params.lambda3 * (1.0 - loop_cached_mass(files, p_g.probs))
    )


class LoopExactLearner:
    """Tabular Q-learning, one table entry at a time.

    ``beta`` is a constant step size, or None for 1 / (1 + visits(s, a)).
    """

    def __init__(self, n_states, n_actions, gamma, beta):
        self.q = [[0.0] * n_actions for _ in range(n_states)]
        self.visits = [[0] * n_actions for _ in range(n_states)]
        self.gamma = gamma
        self.beta = beta

    def greedy(self, s):
        """Lowest action index among the minimizers of Q(s, .)."""
        row = self.q[s]
        best = 0
        for a in range(1, len(row)):
            if row[a] < row[best]:
                best = a
        return best

    def update(self, s, a, s_next, cost):
        beta = 1.0 / (1.0 + self.visits[s][a]) if self.beta is None else self.beta
        target = cost + self.gamma * min(self.q[s_next])
        self.q[s][a] = (1.0 - beta) * self.q[s][a] + beta * target
        self.visits[s][a] += 1


def loop_top_m(score, m):
    """0-based files of the M highest ``score`` entries, ascending: files in
    (-score, index) order, a NaN score ranking below every number."""
    def rank(i):
        return (1, 0.0, i) if score[i] != score[i] else (0, -score[i], i)

    order = sorted(range(len(score)), key=rank)
    return tuple(sorted(order[:m]))


class LoopLinearLearner:
    """The linear top-M learner, one file at a time.

    Scores are psi_i = theta_g[g][i] + theta_l[l][i] + theta_r * [i cached];
    the Q of a cache is the score mass it leaves uncached.
    """

    def __init__(self, n_g, n_l, f, m, config):
        self.theta_g = [[0.0] * f for _ in range(n_g)]
        self.theta_l = [[0.0] * f for _ in range(n_l)]
        self.theta_r = 0.0
        self.f = f
        self.m = m
        self.config = config

    def scores(self, state):
        cached = set(state.action.files)
        g_row, l_row = self.theta_g[state.g], self.theta_l[state.l]
        return [
            g_row[i] + l_row[i] + self.theta_r * (1.0 if i + 1 in cached else 0.0)
            for i in range(self.f)
        ]

    def top_m(self, state):
        """The M highest-scoring files (1-based, ascending), ties to the lowest index."""
        return tuple(i + 1 for i in loop_top_m(self.scores(state), self.m))

    def q(self, state, files):
        """The row's total score (summed as numpy sums a row) minus the cached files' scores."""
        score = self.scores(state)
        return row_sum(score) - loop_sum(score[i - 1] for i in sorted(files))

    def min_q(self, state):
        """Minimum of ``q`` over every M-file cache."""
        caches = itertools.combinations(range(1, self.f + 1), self.m)
        return min(self.q(state, files) for files in caches)

    def update(self, prev, files, nxt, cost):
        """TD error of caching ``files`` from ``prev`` and one semi-gradient step."""
        cfg = self.config
        err = cost + cfg.gamma * self.min_q(nxt) - self.q(prev, files)
        for i in range(self.f):
            not_cached = 0.0 if i + 1 in files else 1.0
            self.theta_g[prev.g][i] += cfg.alpha_g * (err * not_cached)
            self.theta_l[prev.l][i] += cfg.alpha_l * (err * not_cached)
        fetched = len(set(files) - set(prev.action.files))
        self.theta_r += cfg.alpha_r * err * fetched


def first_principles_tables(space, params):
    """Expected-cost matrix and transition structure via explicit sums.

    Returns (cbar (nS, nA), succ (nS, nA, nGL) state indices,
    prob (nS, nA, nGL)) where nGL enumerates joint next chain states.
    """
    n_s, n_a = space.n_states, space.n_actions
    g_ch, l_ch = space.g_chain, space.l_chain
    n_gl = g_ch.n_states * l_ch.n_states
    cbar = np.zeros((n_s, n_a))
    succ = np.zeros((n_s, n_a, n_gl), dtype=np.int64)
    prob = np.zeros((n_s, n_a, n_gl))
    for s in range(n_s):
        g, l, a_prev = space.state_components(s)
        prev_files = space.actions.action(a_prev).files
        for a in range(n_a):
            act = space.actions.action(a)
            k = 0
            for g2 in range(g_ch.n_states):
                for l2 in range(l_ch.n_states):
                    p = g_ch.transition[g, g2] * l_ch.transition[l, l2]
                    cbar[s, a] += p * loop_slot_cost(
                        prev_files, act.files, g_ch.states[g2], l_ch.states[l2], params
                    )
                    succ[s, a, k] = space.state_index(g2, l2, a)
                    prob[s, a, k] = p
                    k += 1
    return cbar, succ, prob


def dense_kernels(succ, prob):
    """Dense per-action transition kernels P[s, a, s'] from the tables above."""
    n_s, n_a, _ = succ.shape
    p_full = np.zeros((n_s, n_a, n_s))
    for s in range(n_s):
        for a in range(n_a):
            np.add.at(p_full[s, a], succ[s, a], prob[s, a])
    return p_full


def dense_policy_transition(space, policy):
    """Dense |S| x |S| transition matrix of the chain induced by ``policy``."""
    n_s, n_a = space.n_states, space.n_actions
    kron = np.kron(space.g_chain.transition, space.l_chain.transition)
    gl = np.arange(n_s) // n_a
    p_pi = np.zeros((n_s, n_s))
    # from (gl, a_prev) to (gl', policy[s]) with probability kron[gl, gl']
    cols = np.arange(kron.shape[0])[None, :] * n_a + np.asarray(policy)[:, None]
    p_pi[np.arange(n_s)[:, None], cols] = kron[gl]
    return p_pi


def dense_policy_evaluation(space, policy, gamma, params):
    """Value of ``policy`` by a direct solve of (I - gamma P_pi) V = c_pi."""
    c_pi = space.expected_cost_matrix(params)[np.arange(space.n_states), policy]
    a = dense_policy_transition(space, policy)
    a *= -gamma
    a[np.diag_indices_from(a)] += 1.0
    return np.linalg.solve(a, c_pi)


def dense_q_from_value(space, v, gamma, params):
    """Q[s, a] = cbar[s, a] + gamma * sum over (g', l') of P_G P_L V(g', l', a)."""
    v_t = np.asarray(v).reshape(space.n_g, space.n_l, space.n_actions)
    w = np.einsum("gh,lm,hma->gla", space.g_chain.transition, space.l_chain.transition, v_t)
    q = space.expected_cost_matrix(params).reshape(w.shape[:2] + (space.n_actions,) * 2)
    return (q + gamma * w[:, :, None, :]).reshape(space.n_states, space.n_actions)


def dense_policy_iteration(space, gamma, params):
    """(policy, values, Q, iterations) of policy iteration on the dense references."""
    policy = np.zeros(space.n_states, dtype=np.int64)
    iterations = 0
    while True:
        iterations += 1
        v = dense_policy_evaluation(space, policy, gamma, params)
        q = dense_q_from_value(space, v, gamma, params)
        new_policy = q.argmin(axis=1)
        if np.array_equal(new_policy, policy):
            return policy, v, q, iterations
        policy = new_policy


def dense_long_run_average_cost(space, policy, params, tol=1e-13, max_iter=200_000):
    """Per-slot cost in the limit of the damped chain (I + P_pi)/2 from the simulator's start."""
    p_pi = dense_policy_transition(space, policy)
    dist = np.zeros(space.n_states)
    for g in range(space.n_g):
        for l in range(space.n_l):
            dist[space.state_index(g, l, 0)] = 1.0 / (space.n_g * space.n_l)
    for _ in range(max_iter):
        nxt = 0.5 * (dist + dist @ p_pi)
        if np.abs(nxt - dist).sum() < tol:
            c_pi = space.expected_cost_matrix(params)[np.arange(space.n_states), policy]
            return float(nxt @ c_pi)
        dist = nxt
    raise RuntimeError("limiting distribution did not converge")


def value_iteration_oracle(space, gamma, params, tol=1e-13):
    """Optimal policy/values/Q by plain value iteration to a tight tolerance."""
    cbar, succ, prob = first_principles_tables(space, params)
    v = np.zeros(space.n_states)
    while True:
        q = cbar + gamma * (prob * v[succ]).sum(axis=2)
        v_new = q.min(axis=1)
        if np.abs(v_new - v).max() <= tol * max(1.0, np.abs(v_new).max()):
            return q.argmin(axis=1), v_new, q
        v = v_new


def brute_force_optimal(space, gamma, params, chunk=16384):
    """Enumerate every deterministic policy and evaluate each exactly.

    Returns (per-state minimum value over all policies, one policy attaining
    the minimum everywhere). Feasible only when |A| ** |S| is small.
    """
    n_s, n_a = space.n_states, space.n_actions
    cbar, succ, prob = first_principles_tables(space, params)
    p_full = dense_kernels(succ, prob)
    eye = np.eye(n_s)
    s_idx = np.arange(n_s)
    v_min = np.full(n_s, np.inf)
    best_policy = None
    best_sum = np.inf
    policies = itertools.product(range(n_a), repeat=n_s)
    while True:
        batch = np.array(list(itertools.islice(policies, chunk)), dtype=np.int64)
        if batch.size == 0:
            break
        p_pi = p_full[s_idx[None, :], batch]
        c_pi = cbar[s_idx[None, :], batch]
        values = np.linalg.solve(eye[None] - gamma * p_pi, c_pi[..., None])[..., 0]
        v_min = np.minimum(v_min, values.min(axis=0))
        sums = values.sum(axis=1)
        k = int(sums.argmin())
        if sums[k] < best_sum:
            best_sum = sums[k]
            best_policy = batch[k]
    return v_min, best_policy


def epsilon_soft_average_cost(space, policy, eps, params, tol=1e-10):
    """Long-run per-slot cost of ``policy`` under uniform epsilon-exploration.

    Each slot takes ``policy[s]`` with probability 1 - eps and otherwise a
    uniformly random action (the greedy one included), as the epsilon-greedy
    learners do. With eps > 0 every action has positive probability, so the
    stationary distribution is solved for directly instead of iterated from
    a start distribution; a non-unique solution or a solve residual above
    ``tol`` raises.
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError("eps must lie in (0, 1]")
    policy = np.asarray(policy, dtype=np.int64)
    n_s, n_a = space.n_states, space.n_actions
    cbar, succ, prob = first_principles_tables(space, params)
    mix = np.full((n_s, n_a), eps / n_a)
    mix[np.arange(n_s), policy] += 1.0 - eps
    p_mix = np.einsum("sa,sat->st", mix, dense_kernels(succ, prob))
    c_mix = (mix * cbar).sum(axis=1)
    # mu (P - I) = 0 together with sum(mu) = 1, as one overdetermined system
    lhs = np.vstack([p_mix.T - np.eye(n_s), np.ones((1, n_s))])
    rhs = np.zeros(n_s + 1)
    rhs[-1] = 1.0
    mu, _, rank, _ = np.linalg.lstsq(lhs, rhs, rcond=None)
    if rank < n_s:
        raise ValueError("the epsilon-soft chain has no unique stationary distribution")
    residual = max(np.abs(mu @ p_mix - mu).max(), abs(mu.sum() - 1.0), -mu.min())
    if residual > tol:
        raise ArithmeticError(f"stationary solve residual {residual:.2e} exceeds {tol:.0e}")
    return float(mu @ c_mix)


def random_instance(rng, f=4, m=1, n_g=2, n_l=2, lam_high=800.0):
    """Random small instance (chains + cost params) for oracle tests."""
    import cache_rl as cr

    g_states = tuple(cr.PopularityProfile(rng.dirichlet(np.ones(f))) for _ in range(n_g))
    l_states = tuple(cr.PopularityProfile(rng.dirichlet(np.ones(f))) for _ in range(n_l))
    g_chain = cr.MarkovChain(states=g_states, transition=rng.dirichlet(np.ones(n_g), size=n_g))
    l_chain = cr.MarkovChain(states=l_states, transition=rng.dirichlet(np.ones(n_l), size=n_l))
    params = cr.CostParams(*rng.uniform(0.0, lam_high, size=3))
    space = cr.StateSpace(g_chain, l_chain, m)
    return space, params
