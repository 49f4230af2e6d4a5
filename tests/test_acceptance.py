"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.

Criteria 2 and 3 check that the epsilon = 0.05 learners converge to the
optimal policy pi*. Every epsilon-greedy agent caches a uniformly random
action in 5% of slots, and Q-learning is off-policy: what it promises is
pi*, so a converged learner pays the long-run cost of pi* run under that
same exploration, not the cost of pi* itself. The 10% band is therefore
measured against ``epsilon_soft_average_cost`` of pi* at epsilon = 0.05
(the stationary cost of the mixed chain, unique because every action has
positive probability). Under s2's refresh weight (lambda1 = 600) that
exploration alone costs 1.199x the oracle average, so each report line
prints the ratio to the oracle as well as the ratio to this reference.
"""

import math
import time

import numpy as np
import pytest

import cache_rl as cr
from cache_rl.q_linear import LinearParams
from cache_rl.schedules import ExploreThenExploit
from oracles_util import (
    brute_force_optimal,
    epsilon_soft_average_cost,
    random_instance,
    value_iteration_oracle,
)

GAMMA = 0.8


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def small_setup():
    g_chain, l_chain = cr.small_network_chains()
    space = cr.StateSpace(g_chain, l_chain, 2)
    return g_chain, l_chain, space


def reference_costs(space, name, eps):
    """Oracle average cost and the cost of the oracle policy under eps-exploration."""
    params = cr.PRESET_PARAMS[name]
    policy = cr.policy_iteration(space, GAMMA, params).policy
    return (
        cr.long_run_average_cost(space, policy, params),
        epsilon_soft_average_cost(space, policy, eps, params),
    )


def scenario(g_chain, l_chain, name, learner, config, horizon, realizations, seed=202):
    return cr.Scenario(
        name=name,
        g_chain=g_chain,
        l_chain=l_chain,
        cache_size=2,
        gamma=GAMMA,
        lambda_schedule=cr.PiecewiseCostSchedule.constant(cr.PRESET_PARAMS[name]),
        learner=learner,
        learner_config=config,
        horizon=horizon,
        realizations=realizations,
        base_seed=seed,
    )


def test_criterion_1_oracle_correctness():
    """Policy iteration equals independent oracles; Bellman residual < 1e-8."""
    rng = np.random.default_rng(42)
    start = time.time()
    failures = []
    for i in range(20):
        space, params = random_instance(rng, f=4, m=1, n_g=2, n_l=2)
        res = cr.policy_iteration(space, GAMMA, params)
        residual = cr.bellman_optimality_residual(space, res.q, GAMMA, params)
        vi_policy, vi_values, _ = value_iteration_oracle(space, GAMMA, params)
        if residual >= 1e-8:
            failures.append(f"instance {i}: residual {residual:.2e}")
        if not np.array_equal(res.policy, vi_policy):
            failures.append(f"instance {i}: policy differs from value-iteration oracle")
        if np.abs(res.values - vi_values).max() > 1e-6:
            failures.append(f"instance {i}: values differ from value-iteration oracle")
    elapsed = time.time() - start
    if elapsed >= 10.0:
        failures.append(f"20-instance check took {elapsed:.1f}s (budget 10s)")
    # Exhaustive enumeration of every deterministic policy is infeasible at
    # F=4 (|A| ** |S| = 4 ** 16 ~ 4e9 policy evaluations), so the literal
    # enumeration oracle runs at the largest size where it fits the budget:
    # F=3 gives 3 ** 12 = 531441 policies.
    for i in range(2):
        space, params = random_instance(rng, f=3, m=1, n_g=2, n_l=2)
        res = cr.policy_iteration(space, GAMMA, params)
        v_min, brute_policy = brute_force_optimal(space, GAMMA, params)
        if np.abs(res.values - v_min).max() > 1e-8:
            failures.append(f"enumeration instance {i}: value mismatch")
        if not np.array_equal(res.policy, brute_policy):
            failures.append(f"enumeration instance {i}: policy mismatch")
    ok = not failures
    report(1, ok, f"oracle matches VI on 20 F=4 instances in {elapsed:.1f}s "
                  f"and full 531441-policy enumeration on F=3; {failures or 'no failures'}")
    assert ok, failures


def test_criterion_2_exact_learner_convergence(small_setup):
    """Exact learner under s2: final 1e4-slot window within 10% of the cost
    of the oracle policy under the same epsilon = 0.05 exploration."""
    g_chain, l_chain, space = small_setup
    oracle_avg, soft_avg = reference_costs(space, "s2", eps=0.05)
    config = cr.QLearnerConfig(beta=0.8, epsilon=0.05, gamma=GAMMA)
    sc = scenario(g_chain, l_chain, "s2", "exact", config, 100_000, 200)
    trace = cr.run_scenario(sc, windows=((90_000, 100_000),))
    final = float(trace.window_cost.mean())
    ratio = final / soft_avg
    ok = abs(ratio - 1.0) <= 0.10
    report(2, ok, f"s2 exact final-window cost {final:.1f}: {ratio:.3f}x the eps-soft "
                  f"oracle {soft_avg:.1f} (band 0.90..1.10), {final / oracle_avg:.3f}x "
                  f"the oracle {oracle_avg:.1f} (exploration alone costs "
                  f"{soft_avg / oracle_avg:.3f}x)")
    assert ok, (
        f"final window {final:.1f} is {ratio:.3f}x the eps=0.05 oracle cost {soft_avg:.1f}, "
        f"outside the 0.90..1.10 band ({final / oracle_avg:.3f}x the oracle {oracle_avg:.1f})"
    )


def test_criterion_3_linear_learner_convergence(small_setup):
    """Linear learner under s1, s2, s3: 10% band around the epsilon = 0.05
    oracle cost, plus convergence ordering."""
    g_chain, l_chain, space = small_setup
    finals, vs_oracle, reach = {}, {}, {}
    for name in ("s1", "s2", "s3"):
        oracle_avg, soft_avg = reference_costs(space, name, eps=0.05)
        config = cr.LinearLearnerConfig(epsilon=0.05, gamma=GAMMA)
        sc = scenario(g_chain, l_chain, name, "linear", config, 100_000, 200)
        trace = cr.run_scenario(sc, windows=((90_000, 100_000),))
        final = float(trace.window_cost.mean())
        finals[name] = final / soft_avg
        vs_oracle[name] = final / oracle_avg
        in_band = np.abs(trace.run_avg_cost / soft_avg - 1.0) <= 0.10
        hits = np.nonzero(in_band)[0]
        reach[name] = int(hits[0]) if hits.size else math.inf
    band_ok = all(abs(r - 1.0) <= 0.10 for r in finals.values())
    order_ok = reach["s2"] < reach["s1"] and reach["s3"] < reach["s1"]
    ok = band_ok and order_ok
    ratios = ", ".join(
        f"{k} {finals[k]:.3f}x eps-soft / {vs_oracle[k]:.3f}x oracle" for k in finals
    )
    failed = [half for half, good in (("band", band_ok), ("ordering", order_ok)) if not good]
    report(3, ok, f"final-window ratios {ratios}; slots-to-band {reach}")
    assert ok, (
        f"{' and '.join(failed)} failed: final-window ratios {ratios} (band 0.90..1.10 "
        f"around the eps-soft oracle); slots-to-band {reach} (expected s2 < s1 and s3 < s1)"
    )


def test_criterion_4_convergence_rate_ordering(small_setup):
    """Normalized Q error under s6: the linear learner crosses 0.2 at a
    strictly smaller exploitation index than the exact learner."""
    g_chain, l_chain, space = small_setup
    t_explore, horizon, realizations = 10_000, 20_000, 50
    eps = ExploreThenExploit(t_explore=t_explore)
    grid = list(range(t_explore, horizon, 10))
    crossings = {}
    start_err = {}
    for kind, config in (
        ("exact", cr.QLearnerConfig(beta=0.7, epsilon=eps, gamma=GAMMA)),
        ("linear", cr.LinearLearnerConfig(epsilon=eps, gamma=GAMMA)),
    ):
        sc = scenario(g_chain, l_chain, "s6", kind, config, horizon, realizations)
        trace = cr.run_scenario(sc, oracle_compare=True, error_slots=grid)
        below = np.nonzero(trace.norm_error < 0.2)[0]
        crossings[kind] = (
            int(trace.error_slots[below[0]]) - t_explore + 1 if below.size else math.inf
        )
        start_err[kind] = float(trace.norm_error[0])
    ok = crossings["linear"] < crossings["exact"] and math.isfinite(crossings["linear"])
    report(4, ok, f"exploitation index to error<0.2: linear {crossings['linear']}, "
                  f"exact {crossings['exact']} (errors at exploit start: "
                  f"linear {start_err['linear']:.3f}, exact {start_err['exact']:.3f})")
    assert ok, crossings


def test_criterion_5_hit_rate_ordering(small_setup):
    """Local-only weighting (s4) beats global-only (s5) in cache hits."""
    g_chain, l_chain, _ = small_setup
    horizon, realizations = 30_000, 100
    window = ((20_000, 30_000),)
    stats = {}
    for name in ("s4", "s5"):
        config = cr.LinearLearnerConfig(epsilon=0.05, gamma=GAMMA)
        sc = scenario(g_chain, l_chain, name, "linear", config, horizon, realizations)
        trace = cr.run_scenario(sc, windows=window)
        hits = trace.window_hit[:, 0]
        stats[name] = (hits.mean(), hits.std(ddof=1) / np.sqrt(realizations))
    gap = stats["s4"][0] - stats["s5"][0]
    sem = math.hypot(stats["s4"][1], stats["s5"][1])
    ok = gap > 2 * sem and gap > 0
    report(5, ok, f"steady hit fraction s4 {stats['s4'][0]:.3f} vs s5 {stats['s5'][0]:.3f}, "
                  f"gap {gap:.3f} > 2se {2 * sem:.4f}")
    assert ok, stats


def test_criterion_6_top_m_equivalence():
    """Top-M greedy (``greedy_top_m``) equals exhaustive argmin over every action space."""
    rng = np.random.default_rng(7)
    checked = 0
    mismatches = 0
    start = time.time()
    for f in range(2, 9):
        for m in range(1, f + 1):
            masks = cr.enumerate_actions(f, m).mask_matrix()
            files_rows = cr.enumerate_actions(f, m).files_array()
            for _ in range(1000):
                n_g, n_l = int(rng.integers(1, 3)), int(rng.integers(1, 3))
                params = LinearParams(
                    theta_g=rng.normal(scale=10, size=(n_g, f)),
                    theta_l=rng.normal(scale=10, size=(n_l, f)),
                    theta_r=float(rng.normal(scale=10)),
                )
                prev = tuple(np.sort(rng.choice(f, m, replace=False)) + 1)
                state = cr.SystemState(
                    g=int(rng.integers(n_g)),
                    l=int(rng.integers(n_l)),
                    action=cr.CacheAction(files=prev, catalog_size=f),
                )
                scores = cr.psi(params, state)
                q_all = (1.0 - masks) @ scores
                best = int(q_all.argmin())
                fast = cr.greedy_top_m(params, state, m)
                expected = tuple(files_rows[best] + 1)
                checked += 1
                if fast.files != expected:
                    mismatches += 1
    elapsed = time.time() - start
    ok = mismatches == 0
    report(6, ok, f"{checked} draws over all F<=8 spaces, {mismatches} mismatches, "
                  f"{elapsed:.1f}s")
    assert ok


def test_criterion_7_gradient_check():
    """Analytic semi-gradients match central differences to 1e-6 relative."""
    rng = np.random.default_rng(17)
    h = 1e-5
    worst = 0.0
    for _ in range(100):
        f = int(rng.integers(3, 8))
        m = int(rng.integers(1, f))
        n_g, n_l = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        params = LinearParams(
            theta_g=rng.normal(scale=8, size=(n_g, f)),
            theta_l=rng.normal(scale=8, size=(n_l, f)),
            theta_r=float(rng.normal(scale=8)),
        )
        g_i, l_i = int(rng.integers(n_g)), int(rng.integers(n_l))
        prev_files = tuple(np.sort(rng.choice(f, m, replace=False)) + 1)
        s_prev = cr.SystemState(
            g=g_i, l=l_i, action=cr.CacheAction(files=prev_files, catalog_size=f)
        )
        a = cr.CacheAction(
            files=tuple(np.sort(rng.choice(f, m, replace=False)) + 1), catalog_size=f
        )
        # frozen bootstrap target (semi-gradient convention)
        target = float(rng.uniform(0, 200))
        not_cached = 1.0 - a.as_mask()
        err = target - cr.q_hat(params, s_prev, a)
        grad_g = np.zeros_like(params.theta_g)
        grad_g[g_i] = -err * not_cached
        grad_l = np.zeros_like(params.theta_l)
        grad_l[l_i] = -err * not_cached
        dropped = float(s_prev.action.as_mask() @ not_cached)
        grad_r = -err * dropped

        def loss(p):
            return 0.5 * (target - cr.q_hat(p, s_prev, a)) ** 2

        def rel_err(numeric, analytic):
            return abs(numeric - analytic) / max(1.0, abs(analytic))

        for block, grad in (("theta_g", grad_g), ("theta_l", grad_l)):
            arr = getattr(params, block)
            for i in range(arr.shape[0]):
                for k in range(arr.shape[1]):
                    up, down = params.copy(), params.copy()
                    getattr(up, block)[i, k] += h
                    getattr(down, block)[i, k] -= h
                    fd = (loss(up) - loss(down)) / (2 * h)
                    worst = max(worst, rel_err(fd, grad[i, k]))
        up, down = params.copy(), params.copy()
        up.theta_r += h
        down.theta_r -= h
        fd = (loss(up) - loss(down)) / (2 * h)
        worst = max(worst, rel_err(fd, grad_r))
    ok = worst < 1e-6
    report(7, ok, f"worst relative gradient error {worst:.2e} over 100 configurations")
    assert ok


def test_criterion_8_large_network_scalability(monkeypatch):
    """F=1000 run: 90001 parameters, no action enumeration, beats random."""

    def refuse(self):
        raise AssertionError("the scalable path must not materialize the action space")

    monkeypatch.setattr(cr.ActionSpace, "files_array", refuse)
    monkeypatch.setattr(cr.ActionSpace, "mask_matrix", refuse)
    assert math.comb(1000, 10) > 2e23
    start = time.time()
    sc = cr.preset_scenario("s7", horizon=100_000, realizations=1)
    trace = cr.run_scenario(sc, windows=((90_000, 100_000),))
    elapsed = time.time() - start
    baseline_sc = cr.scenario_with(sc, learner="random-baseline", learner_config=None)
    baseline = cr.run_scenario(baseline_sc, windows=((90_000, 100_000),))
    learner_cost = float(trace.window_cost.mean())
    baseline_cost = float(baseline.window_cost.mean())
    n_params = (sc.g_chain.n_states + sc.l_chain.n_states) * sc.catalog_size + 1
    live = LinearParams.zeros(sc.g_chain.n_states, sc.l_chain.n_states, sc.catalog_size)
    ok = (
        elapsed < 300.0
        and live.n_parameters == n_params == 90_001
        and learner_cost < baseline_cost
    )
    report(8, ok, f"run {elapsed:.1f}s (<300s), 90001 parameters, final-window cost "
                  f"{learner_cost:.1f} vs random baseline {baseline_cost:.1f}")
    assert ok


def test_criterion_9_cost_expectation_consistency():
    """expected_cost equals the Monte Carlo mean of realized costs to 1%."""
    rng = np.random.default_rng(23)
    n = 100_000
    worst = 0.0
    for _ in range(10):
        f = int(rng.integers(3, 9))
        m = int(rng.integers(1, f))
        n_g, n_l = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        g_states = tuple(cr.PopularityProfile(rng.dirichlet(np.ones(f))) for _ in range(n_g))
        l_states = tuple(cr.PopularityProfile(rng.dirichlet(np.ones(f))) for _ in range(n_l))
        g_chain = cr.MarkovChain(states=g_states, transition=rng.dirichlet(np.ones(n_g), n_g))
        l_chain = cr.MarkovChain(states=l_states, transition=rng.dirichlet(np.ones(n_l), n_l))
        params = cr.CostParams(*rng.uniform(10, 800, size=3))
        prev_files = tuple(np.sort(rng.choice(f, m, replace=False)) + 1)
        action_files = tuple(np.sort(rng.choice(f, m, replace=False)) + 1)
        g0, l0 = int(rng.integers(n_g)), int(rng.integers(n_l))
        prev = cr.SystemState(g=g0, l=l0, action=cr.CacheAction(files=prev_files, catalog_size=f))
        act = cr.CacheAction(files=action_files, catalog_size=f)
        expected = cr.expected_cost(prev, act, g_chain, l_chain, params)
        g_next = rng.choice(n_g, size=n, p=g_chain.transition[g0])
        l_next = rng.choice(n_l, size=n, p=l_chain.transition[l0])
        total = 0.0
        for g2 in range(n_g):
            for l2 in range(n_l):
                count = int(((g_next == g2) & (l_next == l2)).sum())
                if count:
                    total += count * cr.aggregate_cost(
                        prev, act, g_chain.states[g2], l_chain.states[l2], params
                    )
        worst = max(worst, abs(total / n - expected) / expected)
    ok = worst < 0.01
    report(9, ok, f"worst relative Monte Carlo error {worst:.4f} over 10 configurations "
                  f"at {n} samples")
    assert ok


def test_criterion_10_dynamic_lambda_responsiveness(small_setup):
    """Switching the weights mid-run visibly moves the cache-hit fraction."""
    g_chain, l_chain, _ = small_setup
    horizon = 40_000
    schedule = cr.PiecewiseCostSchedule(
        segments=((0, cr.PRESET_PARAMS["s4"]), (horizon // 2, cr.PRESET_PARAMS["s5"]))
    )
    sc = cr.Scenario(
        name="dynamic-acceptance",
        g_chain=g_chain,
        l_chain=l_chain,
        cache_size=2,
        gamma=GAMMA,
        lambda_schedule=schedule,
        learner="linear",
        learner_config=cr.LinearLearnerConfig(epsilon=0.05, gamma=GAMMA),
        horizon=horizon,
        realizations=60,
        base_seed=303,
    )
    windows = ((10_000, 20_000), (30_000, 40_000))
    trace = cr.run_scenario(sc, windows=windows)
    first = trace.window_hit[:, 0]
    second = trace.window_hit[:, 1]
    diff = float(first.mean() - second.mean())
    sem = math.hypot(
        first.std(ddof=1) / math.sqrt(first.size), second.std(ddof=1) / math.sqrt(second.size)
    )
    ok = abs(diff) > 2 * sem
    report(10, ok, f"hit fraction {first.mean():.3f} under local weighting vs "
                   f"{second.mean():.3f} after switching to global ({abs(diff):.3f} > "
                   f"2se {2 * sem:.4f})")
    assert ok
