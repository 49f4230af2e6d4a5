import itertools
import json
import math
import re

import numpy as np
import pytest

import cache_rl as cr
from cache_rl import mdp_oracle
from cache_rl.caching_core import MATERIALIZE_LIMIT


def action(files, f=10):
    return cr.CacheAction(files=tuple(files), catalog_size=f)


class TestCacheAction:
    def test_canonical_sorted_and_equality(self):
        assert action((3, 1)).files == (1, 3)
        assert action((3, 1)) == action((1, 3))

    def test_validation(self):
        with pytest.raises(ValueError):
            action((1, 1))
        with pytest.raises(ValueError):
            action((0, 2))
        with pytest.raises(ValueError):
            action((1, 11))
        with pytest.raises(ValueError):
            action(())

    def test_mask(self):
        np.testing.assert_array_equal(action((1, 3), f=4).as_mask(), [1, 0, 1, 0])


class TestActionSpace:
    def test_singletons(self):
        space = cr.enumerate_actions(3, 1)
        assert [a.files for a in space] == [(1,), (2,), (3,)]

    def test_lexicographic_c42(self):
        space = cr.enumerate_actions(4, 2)
        listed = [a.files for a in space]
        assert len(listed) == 6
        assert listed[0] == (1, 2)
        assert listed[-1] == (3, 4)
        assert listed == sorted(listed)

    def test_reference_count_45(self):
        assert len(cr.enumerate_actions(10, 2)) == 45

    def test_rank_unrank_bijection(self):
        for f, m in ((5, 2), (7, 3), (6, 6), (9, 1)):
            space = cr.enumerate_actions(f, m)
            combos = list(itertools.combinations(range(1, f + 1), m))
            assert len(space) == len(combos)
            for i, files in enumerate(combos):
                assert space.action(i).files == files
                assert space.index_of(cr.CacheAction(files=files, catalog_size=f)) == i

    def test_huge_space_rank_unrank_without_enumeration(self):
        space = cr.enumerate_actions(1000, 10)
        assert space.size == math.comb(1000, 10)
        idx = space.size - 1
        top = space.action(idx)
        assert top.files == tuple(range(991, 1001))
        assert space.index_of(top) == idx
        assert space.action(0).files == tuple(range(1, 11))
        # the bound is compared as a Python int, beyond the int64 range
        with pytest.raises(ValueError, match=f"^action index must lie in \\[0, {idx + 1}\\)"):
            space.action(idx + 1)
        with pytest.raises(ValueError):
            space.mask_matrix()
        assert math.comb(1000, 10) > MATERIALIZE_LIMIT

    def test_len_beyond_the_index_range_points_to_size(self):
        space = cr.enumerate_actions(1000, 10)
        message = f"^{space.size} actions do not fit len\\(\\); read .size instead$"
        with pytest.raises(ValueError, match=message):
            len(space)

    def test_state_space_rejects_huge_action_space(self):
        with pytest.raises(ValueError, match="too large to materialize"):
            cr.StateSpace(*cr.large_network_chains(), 10)

    def test_state_space_rejects_tables_beyond_physical_memory(self, monkeypatch):
        # |A| = C(30, 5) = 142 506 passes the action limit, but the space's own
        # (|A|, |A|) uint8 refresh table would take 142 506**2 B, about 18.9 GiB,
        # more than the 16 GiB of physical memory set here
        monkeypatch.setattr(mdp_oracle, "_PHYSICAL_MEMORY", 16 * 2**30)
        assert math.comb(30, 5) < MATERIALIZE_LIMIT
        with pytest.raises(ValueError, match="142506-action refresh table is too large to materialize"):
            cr.StateSpace(*cr.small_network_chains(30), 5)
        assert cr.StateSpace(*cr.small_network_chains(20), 3).n_states == 4560

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            cr.enumerate_actions(3, 0)
        with pytest.raises(ValueError):
            cr.enumerate_actions(3, 4)


class TestCostParams:
    def test_json_round_trip(self):
        params = cr.CostParams(10, 600, 1000)
        assert params.to_json_dict() == {"lambda1": 10, "lambda2": 600, "lambda3": 1000}
        assert cr.CostParams.from_json_dict(params.to_json_dict()) == params

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            cr.CostParams(-1, 0, 0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_rejected(self, bad):
        rows = ((bad, 1, 1), (1, bad, 1), (1, 1, bad))
        for name, weights in zip(("lambda1", "lambda2", "lambda3"), rows):
            with pytest.raises(ValueError, match=rf"{name} must lie in \[0, inf\), got {bad}"):
                cr.CostParams(*weights)


class TestRefreshCost:
    def test_no_fetch(self):
        assert cr.refresh_cost(action((1, 2)), action((1, 2)), 10) == 0

    def test_two_new_files(self):
        assert cr.refresh_cost(action((3, 4)), action((1, 2)), 10) == 20

    def test_one_new_file(self):
        assert cr.refresh_cost(action((2, 3)), action((1, 2)), 10) == 10

    def test_catalog_mismatch(self):
        with pytest.raises(ValueError):
            cr.refresh_cost(action((1,), f=3), action((1,), f=4), 1)

    def test_relabel_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            perm = rng.permutation(10) + 1
            a_new = action(rng.choice(10, 3, replace=False) + 1)
            a_prev = action(rng.choice(10, 3, replace=False) + 1)
            relabeled_new = action(perm[np.array(a_new.files) - 1])
            relabeled_prev = action(perm[np.array(a_prev.files) - 1])
            assert cr.refresh_cost(a_new, a_prev, 7.0) == cr.refresh_cost(
                relabeled_new, relabeled_prev, 7.0
            )


class TestMismatchCost:
    def test_full_mass_cached(self):
        p = cr.PopularityProfile(np.array([1.0] + [0.0] * 9))
        assert cr.mismatch_cost(action((1, 5)), p, 600) == 0

    def test_uniform_symmetry(self):
        p = cr.zipf_profile(10, 0.0)
        assert cr.mismatch_cost(action((1, 2)), p, 600) == pytest.approx(480)

    def test_hand_sum(self):
        p = cr.PopularityProfile(np.array([0.5, 0.3, 0.2]))
        assert cr.mismatch_cost(action((1,), f=3), p, 1.0) == pytest.approx(0.5)

    def test_minimized_by_most_popular_files(self):
        rng = np.random.default_rng(1)
        for f in (4, 6, 8):
            for m in (1, 2, 3):
                p = cr.PopularityProfile(rng.dirichlet(np.ones(f)))
                costs = {
                    a.files: cr.mismatch_cost(a, p, 1.0) for a in cr.enumerate_actions(f, m)
                }
                best = min(costs, key=costs.get)
                top = tuple(sorted(np.argsort(-p.probs)[:m] + 1))
                assert costs[best] == pytest.approx(costs[top])


class TestAggregateCost:
    def test_zero_weights(self):
        prev = cr.SystemState(g=0, l=0, action=action((1,), f=4))
        p = cr.zipf_profile(4, 1.0)
        assert cr.aggregate_cost(prev, action((2,), f=4), p, p, cr.CostParams(0, 0, 0)) == 0

    def test_hand_computed_940(self):
        prev = cr.SystemState(g=0, l=0, action=action((1,), f=4))
        p_l = cr.PopularityProfile(np.array([0.1, 0.7, 0.1, 0.1]))
        p_g = cr.PopularityProfile(np.array([0.25, 0.25, 0.25, 0.25]))
        cost = cr.aggregate_cost(
            prev, action((2,), f=4), p_g, p_l, cr.CostParams(10, 600, 1000)
        )
        assert cost == pytest.approx(10 + 600 * 0.3 + 1000 * 0.75)
        assert cost == pytest.approx(940)

    def test_full_support_kept_is_free(self):
        a = action((1, 2), f=4)
        prev = cr.SystemState(g=0, l=0, action=a)
        support = cr.PopularityProfile(np.array([0.6, 0.4, 0.0, 0.0]))
        assert cr.aggregate_cost(prev, a, support, support, cr.CostParams(10, 600, 1000)) == 0

    def test_non_negative_and_monotone_in_lambdas(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            f = 6
            prev = cr.SystemState(
                g=0, l=0, action=action(rng.choice(f, 2, replace=False) + 1, f=f)
            )
            a = action(rng.choice(f, 2, replace=False) + 1, f=f)
            p_g = cr.PopularityProfile(rng.dirichlet(np.ones(f)))
            p_l = cr.PopularityProfile(rng.dirichlet(np.ones(f)))
            lam = rng.uniform(0, 100, size=3)
            base = cr.aggregate_cost(prev, a, p_g, p_l, cr.CostParams(*lam))
            assert base >= 0
            for k in range(3):
                bumped = lam.copy()
                bumped[k] += 50
                assert cr.aggregate_cost(prev, a, p_g, p_l, cr.CostParams(*bumped)) >= base


class TestExpectedCost:
    def test_identity_chains_degenerate(self, small_net):
        g_chain, l_chain = small_net
        ident = np.eye(2)
        g_id = cr.MarkovChain(states=g_chain.states, transition=ident)
        l_id = cr.MarkovChain(states=l_chain.states, transition=ident)
        prev = cr.SystemState(g=0, l=1, action=action((1, 2)))
        a = action((2, 3))
        params = cr.CostParams(10, 600, 1000)
        expected = cr.expected_cost(prev, a, g_id, l_id, params)
        realized = cr.aggregate_cost(prev, a, g_chain.states[0], l_chain.states[1], params)
        assert expected == pytest.approx(realized)

    def test_hand_mixture(self, small_net):
        g_chain, l_chain = small_net
        prev = cr.SystemState(g=0, l=0, action=action((1, 2)))
        a = action((1, 2))
        params = cr.CostParams(0, 1.0, 0)
        mix = 0.6 * l_chain.states[0].probs + 0.4 * l_chain.states[1].probs
        expected = cr.expected_cost(prev, a, g_chain, l_chain, params)
        assert expected == pytest.approx(1.0 - mix[:2].sum())

    def test_zero_mismatch_weights_equal_refresh(self, small_net):
        g_chain, l_chain = small_net
        prev = cr.SystemState(g=1, l=1, action=action((1, 2)))
        a = action((3, 9))
        params = cr.CostParams(7.5, 0, 0)
        assert cr.expected_cost(prev, a, g_chain, l_chain, params) == pytest.approx(
            cr.refresh_cost(a, prev.action, 7.5)
        )

    def test_monte_carlo_consistency(self, small_net):
        g_chain, l_chain = small_net
        rng = np.random.default_rng(3)
        prev = cr.SystemState(g=0, l=1, action=action((4, 7)))
        a = action((2, 7))
        params = cr.CostParams(12, 340, 910)
        expected = cr.expected_cost(prev, a, g_chain, l_chain, params)
        n = 100_000
        g_next = rng.choice(2, size=n, p=g_chain.transition[prev.g])
        l_next = rng.choice(2, size=n, p=l_chain.transition[prev.l])
        total = 0.0
        for g2, l2 in ((0, 0), (0, 1), (1, 0), (1, 1)):
            count = int(((g_next == g2) & (l_next == l2)).sum())
            total += count * cr.aggregate_cost(
                prev, a, g_chain.states[g2], l_chain.states[l2], params
            )
        assert abs(total / n - expected) / expected < 0.01


# One integer rule (popularity.as_int / as_ints) for every size, index and
# file id: a fraction or a bool raises ValueError naming the field, where it
# used to be truncated, accepted, or fail inside numpy.
INTEGER_HOLES = {
    "ActionSpace-fractional-m": (lambda sp, sc: cr.ActionSpace(10, 2.5), "cache capacity"),
    "ActionSpace-fractional-f": (lambda sp, sc: cr.ActionSpace(10.7, 2), "catalog size"),
    "ActionSpace-bool-m": (lambda sp, sc: cr.ActionSpace(10, True), "cache capacity"),
    "StateSpace-fractional-M": (
        lambda sp, sc: cr.StateSpace(sp.g_chain, sp.l_chain, 2.5), "cache capacity"
    ),
    "CacheAction-files": (lambda sp, sc: cr.CacheAction((1.9, 2.5), 3), "file index"),
    "CacheAction-catalog": (lambda sp, sc: cr.CacheAction((1, 2), 2.5), "catalog_size"),
    "SystemState-g": (lambda sp, sc: cr.SystemState(0.5, 0, action((1, 2))), "g"),
    "SystemState-l": (lambda sp, sc: cr.SystemState(0, 1.5, action((1, 2))), "l"),
    "state_index": (lambda sp, sc: sp.state_index(0, 1, 2.5), "action index"),
    "state_components": (lambda sp, sc: sp.state_components(1.5), "state index"),
    "ActionSpace.action": (lambda sp, sc: sp.actions.action(1.5), "action index"),
    "transition_prob-action": (lambda sp, sc: cr.transition_prob(sp, 0, 0.5, 0), "action index"),
    "run_scenario-windows": (
        lambda sp, sc: cr.run_scenario(sc, windows=((0.5, 10.7),)), "window start"
    ),
    "run_scenario-error_slots": (
        lambda sp, sc: cr.run_scenario(sc, oracle_compare=True, error_slots=[2.7, 10.2]),
        "error slot",
    ),
    "run_lockstep-horizon": (lambda sp, sc: lockstep(sc, 5.5), "horizon"),
    "td_update-state": (lambda sp, sc: learner(sp).td_update(0.5, 0, 0, 1.0), "state index"),
    "epsilon_greedy_action-state": (
        lambda sp, sc: learner(sp).epsilon_greedy_action(1.5, 0.0, np.random.default_rng(0)),
        "state index",
    ),
    "params_at-slot": (lambda sp, sc: sc.lambda_schedule.params_at(0.5), "slot"),
    "greedy_top_m-m": (
        lambda sp, sc: cr.greedy_top_m(cr.LinearParams.zeros(2, 2, 10), state(0, 0), 2.5),
        "cache capacity",
    ),
    "long_run_average_cost-max_iter": (lambda sp, sc: long_run(sp, 2.5), "max_iter"),
    "long_run_average_cost-bool-max_iter": (lambda sp, sc: long_run(sp, True), "max_iter"),
    "BatchLinearAgent-m": (lambda sp, sc: linear_agent(2.5), "cache capacity"),
    "BatchLinearAgent-n_g": (
        lambda sp, sc: cr.q_linear.BatchLinearAgent(2.5, 2, 10, 2, cr.LinearLearnerConfig()), "n_g"
    ),
    "RandomBaselineAgent-m": (
        lambda sp, sc: cr.simulate.RandomBaselineAgent(10, 2.5), "cache capacity"
    ),
    "RandomBaselineAgent-f": (
        lambda sp, sc: cr.simulate.RandomBaselineAgent(10.5, 2), "catalog size"
    ),
}


def lockstep(sc, horizon):
    agent = cr.simulate.RandomBaselineAgent(10, 2)
    rngs = [np.random.default_rng(0)]
    return cr.simulate.run_lockstep(sc.env(), agent, sc.lambda_schedule, horizon, rngs)


def linear_agent(m):
    return cr.q_linear.BatchLinearAgent(2, 2, 10, m, cr.LinearLearnerConfig())


def learner(sp):
    return cr.ExactQLearner(sp, cr.QLearnerConfig())


def long_run(sp, max_iter):
    policy = np.zeros(sp.n_states, dtype=np.int64)
    return cr.long_run_average_cost(sp, policy, cr.CostParams(1, 1, 1), max_iter=max_iter)


def state(g, l):
    return cr.SystemState(g, l, action((1, 2)))


# Bounds go through the same rule, as_int(value, name, lo, hi): an integer
# outside [lo, hi) raises ValueError naming the field and the bound.
OUT_OF_RANGE = {
    "CacheAction-file": (lambda sp, sc: action((1, 11)), "file index must lie in [1, 11), got 11"),
    "CacheAction-catalog-low": (
        lambda sp, sc: cr.CacheAction(files=(1,), catalog_size=0),
        "catalog_size must be >= 1, got 0",
    ),
    "ActionSpace-catalog-low": (
        lambda sp, sc: cr.ActionSpace(0, 1), "catalog size must be >= 1, got 0"
    ),
    "ActionSpace-m-low": (
        lambda sp, sc: cr.ActionSpace(10, 0), "cache capacity must lie in [1, 11), got 0"
    ),
    "ActionSpace-m-high": (
        lambda sp, sc: cr.ActionSpace(10, 11), "cache capacity must lie in [1, 11), got 11"
    ),
    "ActionSpace.action": (
        lambda sp, sc: sp.actions.action(45), "action index must lie in [0, 45), got 45"
    ),
    "SystemState-g": (lambda sp, sc: state(-1, 0), "g must be >= 0, got -1"),
    "SystemState-l": (lambda sp, sc: state(0, -1), "l must be >= 0, got -1"),
    "expected_cost-g": (
        lambda sp, sc: expected_cost(sp, state(2, 0)), "g must lie in [0, 2), got 2"
    ),
    "expected_cost-l": (
        lambda sp, sc: expected_cost(sp, state(0, 2)), "l must lie in [0, 2), got 2"
    ),
    "expected_cost-catalog": (
        lambda sp, sc: expected_cost_on(*chains12()), "action catalog size must be 12, got 10"
    ),
    "expected_cost-local-catalog": (
        lambda sp, sc: expected_cost_on(sp.g_chain, chains12()[1]),
        "action catalog size must be 12, got 10",
    ),
    "total_variation-catalog": (
        lambda sp, sc: cr.total_variation([0.5, 0.5], [1.0]), "q catalog size must be 2, got 1"
    ),
    "Scenario-cache_size": (
        lambda sp, sc: cr.scenario_with(sc, cache_size=11), "cache_size must lie in [1, 11), got 11"
    ),
    "Scenario-horizon": (
        lambda sp, sc: cr.scenario_with(sc, horizon=0), "horizon must be >= 1, got 0"
    ),
    "Scenario-realizations": (
        lambda sp, sc: cr.scenario_with(sc, realizations=0), "realizations must be >= 1, got 0"
    ),
    "Scenario-base_seed": (
        lambda sp, sc: cr.scenario_with(sc, base_seed=-1), "base_seed must be >= 0, got -1"
    ),
    "state_index": (lambda sp, sc: sp.state_index(2, 0, 0), "g must lie in [0, 2), got 2"),
    "state_components": (
        lambda sp, sc: sp.state_components(180), "state index must lie in [0, 180), got 180"
    ),
    "transition_prob-action": (
        lambda sp, sc: cr.transition_prob(sp, 0, 45, 0), "action index must lie in [0, 45), got 45"
    ),
    "epsilon_greedy_action-state": (
        lambda sp, sc: learner(sp).epsilon_greedy_action(180, 0.0, np.random.default_rng(0)),
        "state index must lie in [0, 180), got 180",
    ),
    "td_update-state": (
        lambda sp, sc: learner(sp).td_update(10_000, 0, 0, 1.0),
        "state index must lie in [0, 180), got 10000",
    ),
    "td_update-action": (
        lambda sp, sc: learner(sp).td_update(0, 45, 0, 1.0),
        "action index must lie in [0, 45), got 45",
    ),
    "td_update-next-state": (
        lambda sp, sc: learner(sp).td_update(0, 0, -1, 1.0),
        "next state index must lie in [0, 180), got -1",
    ),
    "psi-g": (
        lambda sp, sc: cr.psi(cr.LinearParams.zeros(2, 2, 10), state(3, 0)),
        "g must lie in [0, 2), got 3",
    ),
    "greedy_top_m-m": (
        lambda sp, sc: cr.greedy_top_m(cr.LinearParams.zeros(2, 2, 10), state(0, 0), 11),
        "cache capacity must lie in [1, 11), got 11",
    ),
    "t_explore": (lambda sp, sc: cr.ExploreThenExploit(-5), "t_explore must be >= 0, got -5"),
    "params_at-slot": (
        lambda sp, sc: sc.lambda_schedule.params_at(-1), "slot must be >= 0, got -1"
    ),
    "PopularityEnv-requests": (
        lambda sp, sc: cr.PopularityEnv(sp.g_chain, sp.l_chain, requests_per_slot=0),
        f"requests_per_slot must lie in [1, {2**63}), got 0",
    ),
    "PopularityEnv-requests-int64": (
        lambda sp, sc: cr.PopularityEnv(sp.g_chain, sp.l_chain, requests_per_slot=2**63),
        f"requests_per_slot must lie in [1, {2**63}), got {2**63}",
    ),
    "run_lockstep-horizon": (lambda sp, sc: lockstep(sc, 0), "horizon must be >= 1, got 0"),
    "long_run_average_cost-max_iter": (
        lambda sp, sc: long_run(sp, -1), "max_iter must be >= 1, got -1"
    ),
    "run_scenario-error_slots": (
        lambda sp, sc: cr.run_scenario(sc, oracle_compare=True, error_slots=[3, 20]),
        "error slot must lie in [0, 20), got 20",
    ),
    "BatchLinearAgent-m-high": (
        lambda sp, sc: linear_agent(11), "cache capacity must lie in [1, 11), got 11"
    ),
    "BatchLinearAgent-m-low": (
        lambda sp, sc: linear_agent(0), "cache capacity must lie in [1, 11), got 0"
    ),
    "RandomBaselineAgent-m-low": (
        lambda sp, sc: cr.simulate.RandomBaselineAgent(10, 0),
        "cache capacity must lie in [1, 11), got 0",
    ),
    "UniformActionDraws-m-high": (
        lambda sp, sc: cr.simulate.UniformActionDraws(10, 11),
        "cache capacity must lie in [1, 11), got 11",
    ),
    # size agreements: the one-value range [n, n + 1) reads "must be n"
    "CacheAction-empty": (lambda sp, sc: action(()), "cached file count must be >= 1, got 0"),
    "index_of-catalog": (
        lambda sp, sc: sp.actions.index_of(action((1, 2), f=12)),
        "action catalog size must be 10, got 12",
    ),
    "index_of-cache": (
        lambda sp, sc: sp.actions.index_of(action((1, 2, 3))), "action cache size must be 2, got 3"
    ),
    "refresh_cost-catalog": (
        lambda sp, sc: cr.refresh_cost(action((1, 2), f=12), action((1, 2)), 1.0),
        "new action catalog size must be 10, got 12",
    ),
    "mismatch_cost-catalog": (
        lambda sp, sc: cr.mismatch_cost(action((1, 2), f=12), sp.l_chain.states[0], 1.0),
        "action catalog size must be 10, got 12",
    ),
    "cache_hit_fraction-catalog": (
        lambda sp, sc: cr.cache_hit_fraction(action((1, 2), f=12), sp.l_chain.states[0]),
        "action catalog size must be 10, got 12",
    ),
    "StateSpace-catalog": (
        lambda sp, sc: cr.StateSpace(sp.g_chain, chains12()[1], 2),
        "local chain catalog size must be 10, got 12",
    ),
    "PopularityProfile-ndim": (
        lambda sp, sc: cr.PopularityProfile(np.full((2, 2), 0.5)), "profile ndim must be 1, got 2"
    ),
    "PopularityProfile-size": (
        lambda sp, sc: cr.PopularityProfile(np.array([])), "profile size must be >= 1, got 0"
    ),
    "MarkovChain-states": (
        lambda sp, sc: cr.MarkovChain(states=(), transition=[]),
        "chain state count must be >= 1, got 0",
    ),
    "MarkovChain-catalog": (
        lambda sp, sc: cr.MarkovChain(
            states=(sp.l_chain.states[0], chains12()[1].states[0]), transition=np.eye(2)
        ),
        "state catalog size must be 10, got 12",
    ),
    "RequestBatch-ndim": (
        lambda sp, sc: cr.RequestBatch(np.ones((2, 2), dtype=int)), "counts ndim must be 1, got 2"
    ),
    "RequestBatch-size": (
        lambda sp, sc: cr.RequestBatch(np.ones(0, dtype=int)), "counts size must be >= 1, got 0"
    ),
    "estimate_empirical-total": (
        lambda sp, sc: cr.estimate_empirical(cr.RequestBatch(np.zeros(3, dtype=int))),
        "request total must be >= 1, got 0",
    ),
    "quantize_to_state-catalog": (
        lambda sp, sc: cr.quantize_to_state(chains12()[1].states[0], sp.l_chain),
        "profile catalog size must be 10, got 12",
    ),
    "LinearParams-theta_g-ndim": (
        lambda sp, sc: cr.LinearParams(np.zeros(10), np.zeros((2, 10)), 0.0),
        "theta_g ndim must be 2, got 1",
    ),
    "LinearParams-theta_l-ndim": (
        lambda sp, sc: cr.LinearParams(np.zeros((2, 10)), np.zeros((2, 2, 10)), 0.0),
        "theta_l ndim must be 2, got 3",
    ),
    "LinearParams-catalog": (
        lambda sp, sc: cr.LinearParams(np.zeros((2, 10)), np.zeros((2, 12)), 0.0),
        "theta_l catalog size must be 10, got 12",
    ),
    "psi-catalog": (
        lambda sp, sc: cr.psi(
            cr.LinearParams.zeros(2, 2, 10), cr.SystemState(0, 0, action((1, 2), f=12))
        ),
        "state action catalog size must be 10, got 12",
    ),
    "q_hat-catalog": (
        lambda sp, sc: cr.q_hat(cr.LinearParams.zeros(2, 2, 10), state(0, 0), action((1, 2), 12)),
        "action catalog size must be 10, got 12",
    ),
    "PiecewiseCostSchedule-empty": (
        lambda sp, sc: cr.PiecewiseCostSchedule(segments=()), "segment count must be >= 1, got 0"
    ),
    "PiecewiseCostSchedule-first-start": (
        lambda sp, sc: cr.PiecewiseCostSchedule(segments=((5, cr.CostParams(1, 1, 1)),)),
        "first segment start must be 0, got 5",
    ),
    "PopularityEnv-catalog": (
        lambda sp, sc: cr.PopularityEnv(sp.g_chain, chains12()[1]),
        "local chain catalog size must be 10, got 12",
    ),
    "run_lockstep-realizations": (
        lambda sp, sc: cr.simulate.run_lockstep(
            sc.env(), cr.simulate.RandomBaselineAgent(10, 2), sc.lambda_schedule, 5, []
        ),
        "realization count must be >= 1, got 0",
    ),
}


# Reals go through one rule, as_number(value, name, interval): NaN, an
# excluded infinity or a value just past a finite end raises ValueError naming
# the field and the interval, and a bool or a string names the field and the
# type; a value read from a scenario document fails as the one passed in code.
REAL_INPUTS = {
    # case: (build from the space, the s1 scenario and the value; field; interval)
    "CostParams-lambda1": (lambda sp, sc, x: cr.CostParams(x, 1, 1), "lambda1", "[0, inf)"),
    "CostParams-lambda2": (lambda sp, sc, x: cr.CostParams(1, x, 1), "lambda2", "[0, inf)"),
    "CostParams-lambda3": (lambda sp, sc, x: cr.CostParams(1, 1, x), "lambda3", "[0, inf)"),
    "refresh_cost": (
        lambda sp, sc, x: cr.refresh_cost(action((1, 2)), action((1, 3)), x), "lambda1", "[0, inf)"
    ),
    "mismatch_cost": (
        lambda sp, sc, x: cr.mismatch_cost(action((1, 2)), sp.l_chain.states[0], x),
        "lam",
        "[0, inf)",
    ),
    "QLearnerConfig-gamma": (lambda sp, sc, x: cr.QLearnerConfig(gamma=x), "gamma", "[0, 1)"),
    "LinearLearnerConfig-gamma": (
        lambda sp, sc, x: cr.LinearLearnerConfig(gamma=x), "gamma", "[0, 1)"
    ),
    "Scenario-gamma": (lambda sp, sc, x: cr.scenario_with(sc, gamma=x), "gamma", "[0, 1)"),
    "linear_td_error-gamma": (lambda sp, sc, x: linear_td_error(1.0, x), "gamma", "[0, 1)"),
    "linear_td_error-cost": (lambda sp, sc, x: linear_td_error(x, 0.8), "cost", "(-inf, inf)"),
    "ConstantEpsilon": (lambda sp, sc, x: cr.ConstantEpsilon(x), "epsilon", "[0, 1]"),
    "QLearnerConfig-epsilon": (lambda sp, sc, x: cr.QLearnerConfig(epsilon=x), "epsilon", "[0, 1]"),
    "LinearLearnerConfig-epsilon": (
        lambda sp, sc, x: cr.LinearLearnerConfig(epsilon=x), "epsilon", "[0, 1]"
    ),
    "epsilon_greedy_action": (
        lambda sp, sc, x: learner(sp).epsilon_greedy_action(0, x, np.random.default_rng(0)),
        "epsilon",
        "[0, 1]",
    ),
    "validate_beta": (lambda sp, sc, x: cr.schedules.validate_beta(x), "beta", "(0, 1]"),
    "QLearnerConfig-beta": (lambda sp, sc, x: cr.QLearnerConfig(beta=x), "beta", "(0, 1]"),
    "td_update-beta": (
        lambda sp, sc, x: learner(sp).td_update(0, 0, 1, 1.0, beta=x), "beta", "(0, 1]"
    ),
    "td_update-cost": (lambda sp, sc, x: learner(sp).td_update(0, 0, 1, x), "cost", "(-inf, inf)"),
    **{
        f"LinearLearnerConfig-{name}": (
            lambda sp, sc, x, name=name: cr.LinearLearnerConfig(**{name: x}), name, "(0, inf)"
        )
        for name in ("alpha_g", "alpha_l", "alpha_r")
    },
    "zipf_profile": (lambda sp, sc, x: cr.zipf_profile(3, x), "zipf exponent", "[0, inf)"),
    # the same fields read from a scenario document
    **{
        f"document-{name}": (
            lambda sp, sc, x, name=name: from_document(("lambda_schedule", 0, name), x),
            name,
            "[0, inf)",
        )
        for name in ("lambda1", "lambda2", "lambda3")
    },
    "document-gamma": (lambda sp, sc, x: from_document(("gamma",), x), "gamma", "[0, 1)"),
    "document-beta": (
        lambda sp, sc, x: from_document(("learner_config", "beta"), x), "beta", "(0, 1]"
    ),
    "document-epsilon": (
        lambda sp, sc, x: from_document(("learner_config", "epsilon"), x), "epsilon", "[0, 1]"
    ),
    "document-constant-epsilon": (
        lambda sp, sc, x: from_document(
            ("learner_config", "epsilon"), {"kind": "constant", "value": x}
        ),
        "epsilon",
        "[0, 1]",
    ),
    **{
        f"document-{name}": (
            lambda sp, sc, x, name=name: from_document(("learner_config", name), x, "linear"),
            name,
            "(0, inf)",
        )
        for name in ("alpha_g", "alpha_l", "alpha_r")
    },
}
# per interval, the value just past each end: the nearest float outside a
# closed finite end, an open finite end itself, or an excluded infinity
JUST_OUTSIDE = {
    "[0, 1)": (-5e-324, 1.0),
    "(0, 1]": (0.0, 1.0000000000000002),
    "[0, 1]": (-5e-324, 1.0000000000000002),
    "[0, inf)": (-5e-324, math.inf),
    "(0, inf)": (0.0, math.inf),
    "(-inf, inf)": (-math.inf, math.inf),
}
REAL_CASES = [
    pytest.param(build, value, message, id=f"{case}-{label}")
    for case, (build, name, interval) in REAL_INPUTS.items()
    for label, value, message in (
        ("nan", math.nan, f"{name} must lie in {interval}, got nan"),
        ("bool", True, f"{name} must not be a boolean, got True"),
        ("string", "0.5", f"{name} must be a number, got '0.5'"),
        *((str(x), x, f"{name} must lie in {interval}, got {x}") for x in JUST_OUTSIDE[interval]),
    )
]


def linear_td_error(cost, gamma):
    s = state(0, 0)
    return cr.linear_td_error(cr.LinearParams.zeros(2, 2, 10), s, action((1, 3)), s, cost, gamma)


def from_document(keys, value, learner=None):
    """The short s1 scenario read back from its document with ``value`` at ``keys``."""
    sc = cr.preset_scenario("s1", horizon=20, realizations=1, learner=learner)
    doc = node = json.loads(cr.scenario_to_json(sc))
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    return cr.scenario_from_json(json.dumps(doc))


def chains12():
    return cr.small_network_chains(12)


def expected_cost(sp, prev):
    return cr.expected_cost(prev, action((1, 2)), sp.g_chain, sp.l_chain, cr.CostParams(1, 1, 1))


def expected_cost_on(g_chain, l_chain):
    """A 10-file action's expected cost under the given chains."""
    return cr.expected_cost(state(0, 0), action((1, 2)), g_chain, l_chain, cr.CostParams(1, 1, 1))


@pytest.fixture(scope="module")
def short_s1():
    return cr.preset_scenario("s1", horizon=20, realizations=1)


@pytest.mark.parametrize("case", INTEGER_HOLES)
def test_non_integer_raises_naming_its_field(case, small_space, short_s1):
    build, field = INTEGER_HOLES[case]
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
        build(small_space, short_s1)


@pytest.mark.parametrize("case", OUT_OF_RANGE)
def test_out_of_range_raises_naming_its_field(case, small_space, short_s1):
    build, message = OUT_OF_RANGE[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build(small_space, short_s1)


@pytest.mark.parametrize("build, value, message", REAL_CASES)
def test_real_outside_its_interval_raises_naming_its_field(
    build, value, message, small_space, short_s1
):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build(small_space, short_s1, value)


def test_whole_floats_convert_like_ints(small_space):
    space = cr.ActionSpace(10.0, 2.0)
    assert (space.f, space.m, space.size) == (10, 2, 45)
    assert type(space.f) is int and type(space.m) is int
    assert cr.CacheAction((3.0, 1.0), 10.0) == action((1, 3))
    assert cr.SystemState(1.0, 0.0, action((1, 2))) == cr.SystemState(1, 0, action((1, 2)))
    assert small_space.state_index(1.0, 0.0, 3.0) == small_space.state_index(1, 0, 3)
    assert small_space.state_components(47.0) == small_space.state_components(47)
    assert small_space.actions.action(3.0) == small_space.actions.action(3)
    assert cr.transition_prob(small_space, 0, 0.0, 0) == cr.transition_prob(small_space, 0, 0, 0)
    assert cr.transition_prob(small_space, 0, 0, 0) == pytest.approx(0.48)
    # a whole-float policy is the int policy; a fractional one is still rejected
    float_policy = np.zeros(small_space.n_states)
    checked = small_space.check_policy(float_policy)
    assert checked.dtype == np.int64
    np.testing.assert_array_equal(checked, small_space.check_policy(float_policy.astype(int)))
