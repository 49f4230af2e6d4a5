import itertools
import math
import re

import numpy as np
import pytest

import cache_rl as cr
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

    def test_state_space_rejects_huge_action_space(self):
        with pytest.raises(ValueError, match="too large to materialize"):
            cr.StateSpace(*cr.large_network_chains(), 10)

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
        for weights in ((bad, 1, 1), (1, bad, 1), (1, 1, bad)):
            with pytest.raises(ValueError, match="finite"):
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
}


def lockstep(sc, horizon):
    agent = cr.simulate.RandomBaselineAgent(10, 2)
    rngs = [np.random.default_rng(0)]
    return cr.simulate.run_lockstep(sc.env(), agent, sc.lambda_schedule, horizon, rngs)


def learner(sp):
    return cr.ExactQLearner(sp, cr.QLearnerConfig())


def state(g, l):
    return cr.SystemState(g, l, action((1, 2)))


# Bounds go through the same rule, as_int(value, name, lo, hi): an integer
# outside [lo, hi) raises ValueError naming the field and the bound.
OUT_OF_RANGE = {
    "CacheAction-file": (lambda sp, sc: action((1, 11)), "file index must lie in [1, 11), got 11"),
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
        "requests_per_slot must be >= 1, got 0",
    ),
    "run_lockstep-horizon": (lambda sp, sc: lockstep(sc, 0), "horizon must be >= 1, got 0"),
    "run_scenario-error_slots": (
        lambda sp, sc: cr.run_scenario(sc, oracle_compare=True, error_slots=[3, 20]),
        "error slot must lie in [0, 20), got 20",
    ),
}


def expected_cost(sp, prev):
    return cr.expected_cost(prev, action((1, 2)), sp.g_chain, sp.l_chain, cr.CostParams(1, 1, 1))


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
