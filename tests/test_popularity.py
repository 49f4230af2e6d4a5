import json
import re

import numpy as np
import pytest

import cache_rl as cr
from cache_rl.popularity import total_variation


class TestZipfProfile:
    def test_eta_zero_is_uniform(self):
        p = cr.zipf_profile(10, 0.0)
        np.testing.assert_allclose(p.probs, np.full(10, 0.1))

    def test_f3_eta1_hand_normalization(self):
        # 1 + 1/2 + 1/3 = 11/6
        p = cr.zipf_profile(3, 1.0)
        np.testing.assert_allclose(p.probs, [6 / 11, 3 / 11, 2 / 11], atol=1e-12)

    def test_f2_eta15_hand_value(self):
        w2 = 2.0 ** -1.5
        p = cr.zipf_profile(2, 1.5)
        np.testing.assert_allclose(p.probs, [1 / (1 + w2), w2 / (1 + w2)], atol=1e-12)
        np.testing.assert_allclose(p.probs, [0.7388, 0.2612], atol=1e-4)

    def test_ordering_places_mass(self):
        # file 3 is rank 1, file 1 rank 2, file 2 rank 3
        p = cr.zipf_profile(3, 1.0, ordering=(3, 1, 2))
        np.testing.assert_allclose(p.probs, [3 / 11, 2 / 11, 6 / 11], atol=1e-12)

    def test_sums_to_one_across_sizes_and_exponents(self):
        for f in (1, 2, 17, 1000, 10_000):
            for eta in (0.0, 0.5, 1.0, 2.7, 5.0):
                p = cr.zipf_profile(f, eta)
                assert abs(p.probs.sum() - 1.0) <= 1e-9

    def test_identity_ordering_non_increasing(self):
        for eta in (0.3, 1.0, 4.0):
            p = cr.zipf_profile(50, eta)
            assert np.all(np.diff(p.probs) <= 0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            cr.zipf_profile(3, -0.5)
        with pytest.raises(ValueError):
            cr.zipf_profile(3, 1.0, ordering=(1, 2, 2))
        with pytest.raises(ValueError):
            cr.zipf_profile(0, 1.0)
        with pytest.raises(ValueError, match="zipf exponent"):
            cr.zipf_profile(3, float("nan"))
        # a fractional ordering is rejected, not truncated to (1, 2, 3)
        with pytest.raises(ValueError, match="ordering"):
            cr.zipf_profile(3, 1.0, ordering=(1.9, 2.0, 3.0))


class TestProfileAndChainInvariants:
    def test_profile_rejects_negative_and_unnormalized(self):
        with pytest.raises(ValueError):
            cr.PopularityProfile(np.array([0.5, -0.1, 0.6]))
        with pytest.raises(ValueError):
            cr.PopularityProfile(np.array([0.5, 0.4]))
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="profile entries must be finite"):
                cr.PopularityProfile(np.array([bad, 1.0]))
        with pytest.raises(ValueError, match="profile must hold numbers"):
            cr.PopularityProfile(np.array([True, False]))

    def test_profile_is_immutable(self):
        p = cr.PopularityProfile(np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            p.probs[0] = 0.9

    def test_chain_validation(self):
        p = cr.PopularityProfile(np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            cr.MarkovChain(states=(p,), transition=np.array([[0.9]]))
        q = cr.PopularityProfile(np.array([0.2, 0.3, 0.5]))
        with pytest.raises(ValueError):
            cr.MarkovChain(states=(p, q), transition=np.eye(2))
        # a NaN row used to pass and always step to state 0
        with pytest.raises(ValueError, match="transition entries must be finite"):
            cr.MarkovChain(states=(p, p), transition=np.array([[np.nan, 1.0], [0.5, 0.5]]))

    def test_chain_json_round_trip(self, small_net):
        g_chain, _ = small_net
        doc = g_chain.to_json()
        parsed = json.loads(doc)
        assert set(parsed) == {"states", "transition"}
        back = cr.MarkovChain.from_json(doc)
        np.testing.assert_array_equal(back.transition, g_chain.transition)
        for a, b in zip(back.states, g_chain.states):
            np.testing.assert_array_equal(a.probs, b.probs)

    def test_chain_file_round_trip(self, small_net, tmp_path):
        _, l_chain = small_net
        path = tmp_path / "chain.json"
        l_chain.save(path)
        back = cr.MarkovChain.load(path)
        np.testing.assert_array_equal(back.transition, l_chain.transition)

    def test_chain_file_keys_checked(self, small_net, tmp_path):
        """A chain file is decoded by the rule of scenario files: each bad document
        names its key, from a string and from a file alike."""
        good = json.loads(small_net[0].to_json())
        path = tmp_path / "chain.json"
        ragged = [[0.5, 0.5], [1.0]]
        for doc, message in (
            ({"states": good["states"]}, "missing key 'transition' in a MarkovChain document"),
            ({**good, "x": 1}, "unexpected key 'x' in a MarkovChain document"),
            ([good], "chain must be a MarkovChain document (a JSON object), got [{"),
            ({**good, "states": 5}, "states ndim must be >= 1, got 0"),
            ({**good, "states": ragged}, "states rows must all have one length"),
            ({**good, "transition": ragged}, "transition rows must all have one length"),
        ):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
                cr.MarkovChain.from_json(json.dumps(doc))
            path.write_text(json.dumps(doc))
            with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
                cr.MarkovChain.load(path)


class TestStepChain:
    def test_identity_transition_stays_put(self):
        p = cr.PopularityProfile(np.array([0.5, 0.5]))
        chain = cr.MarkovChain(states=(p, p), transition=np.eye(2))
        rng = np.random.default_rng(0)
        assert all(cr.step_chain(chain, 0, rng) == 0 for _ in range(50))

    def test_deterministic_cycle(self):
        p = cr.PopularityProfile(np.array([1.0]))
        chain = cr.MarkovChain(states=(p, p), transition=np.array([[0.0, 1.0], [1.0, 0.0]]))
        rng = np.random.default_rng(0)
        assert cr.step_chain(chain, 0, rng) == 1
        assert cr.step_chain(chain, 1, rng) == 0

    def test_reference_global_matrix_frequencies(self, small_net):
        g_chain, _ = small_net
        rng = np.random.default_rng(123)
        n = 100_000
        hits = sum(cr.step_chain(g_chain, 1, rng) == 1 for _ in range(n))
        assert abs(hits / n - 0.25) < 0.01

    def test_empirical_rows_converge(self):
        rng = np.random.default_rng(7)
        trans = rng.dirichlet(np.ones(3), size=3)
        states = tuple(cr.PopularityProfile(rng.dirichlet(np.ones(4))) for _ in range(3))
        chain = cr.MarkovChain(states=states, transition=trans)
        n = 100_000
        for row in range(3):
            draws = np.bincount(
                [cr.step_chain(chain, row, rng) for _ in range(n)], minlength=3
            )
            np.testing.assert_allclose(draws / n, trans[row], atol=0.01)

    def test_out_of_range_state(self, small_net):
        g_chain, _ = small_net
        with pytest.raises(ValueError):
            cr.step_chain(g_chain, 5, np.random.default_rng(0))


class TestRequests:
    def test_degenerate_mass(self):
        p = cr.PopularityProfile(np.array([1.0, 0.0, 0.0]))
        batch = cr.sample_requests(p, 7, np.random.default_rng(0))
        np.testing.assert_array_equal(batch.counts, [7, 0, 0])

    def test_uniform_split(self):
        p = cr.PopularityProfile(np.array([0.5, 0.5]))
        batch = cr.sample_requests(p, 100_000, np.random.default_rng(1))
        assert abs(batch.counts[0] / 100_000 - 0.5) < 0.01

    def test_law_of_large_numbers(self):
        p = cr.PopularityProfile(np.array([0.5, 0.3, 0.2]))
        batch = cr.sample_requests(p, 100_000, np.random.default_rng(2))
        np.testing.assert_allclose(batch.counts / 100_000, p.probs, atol=0.01)

    def test_total_preserved_and_zero_rejected(self):
        p = cr.PopularityProfile(np.array([0.3, 0.7]))
        batch = cr.sample_requests(p, 55, np.random.default_rng(3))
        assert batch.total == 55
        with pytest.raises(ValueError):
            cr.sample_requests(p, 0, np.random.default_rng(3))

    def test_estimate_definition_ratio(self):
        assert np.allclose(
            cr.estimate_empirical(cr.RequestBatch(np.array([2, 3, 5]))).probs, [0.2, 0.3, 0.5]
        )
        assert np.allclose(
            cr.estimate_empirical(cr.RequestBatch(np.array([4, 0, 0, 0]))).probs, [1, 0, 0, 0]
        )
        assert np.allclose(cr.estimate_empirical(cr.RequestBatch(np.array([1, 1]))).probs, [0.5, 0.5])

    def test_estimate_rejects_empty(self):
        with pytest.raises(ValueError):
            cr.estimate_empirical(cr.RequestBatch(np.array([0, 0])))

    def test_estimate_inverts_sampling(self):
        p = cr.zipf_profile(6, 1.2)
        batch = cr.sample_requests(p, 100_000, np.random.default_rng(4))
        est = cr.estimate_empirical(batch)
        np.testing.assert_allclose(est.probs, p.probs, atol=0.01)


class TestQuantize:
    def test_exact_state_recovers_index(self, small_net):
        g_chain, l_chain = small_net
        for chain in (g_chain, l_chain):
            for i, state in enumerate(chain.states):
                assert cr.quantize_to_state(state, chain) == i

    def test_total_variation_choice(self):
        states = (
            cr.PopularityProfile(np.array([0.5, 0.5])),
            cr.PopularityProfile(np.array([0.9, 0.1])),
        )
        chain = cr.MarkovChain(states=states, transition=np.full((2, 2), 0.5))
        probe = cr.PopularityProfile(np.array([0.8, 0.2]))
        # TV distances are 0.3 and 0.1
        assert cr.quantize_to_state(probe, chain) == 1

    def test_tie_breaks_to_lowest_index(self):
        states = (
            cr.PopularityProfile(np.array([0.6, 0.4])),
            cr.PopularityProfile(np.array([0.2, 0.8])),
        )
        chain = cr.MarkovChain(states=states, transition=np.full((2, 2), 0.5))
        probe = cr.PopularityProfile(np.array([0.4, 0.6]))  # TV 0.2 to both
        assert total_variation(probe.probs, states[0].probs) == pytest.approx(
            total_variation(probe.probs, states[1].probs)
        )
        assert cr.quantize_to_state(probe, chain) == 0

    def test_dimension_mismatch(self, small_net):
        g_chain, _ = small_net
        with pytest.raises(ValueError):
            cr.quantize_to_state(cr.PopularityProfile(np.array([0.5, 0.5])), g_chain)


class TestRandomChain:
    def test_shapes_and_validity(self):
        rng = np.random.default_rng(5)
        chain = cr.random_chain(6, 30, rng)
        assert chain.n_states == 6
        assert chain.catalog_size == 30
        np.testing.assert_allclose(chain.transition.sum(axis=1), 1.0, atol=1e-9)

    def test_seeded_reproducibility(self):
        a = cr.random_chain(4, 12, np.random.default_rng(9))
        b = cr.random_chain(4, 12, np.random.default_rng(9))
        np.testing.assert_array_equal(a.transition, b.transition)
        for x, y in zip(a.states, b.states):
            np.testing.assert_array_equal(x.probs, y.probs)


# One integer rule (popularity.as_int / as_ints) for counts, orderings and
# state indices: a fraction or a bool raises ValueError naming the field.
INTEGER_HOLES = {
    "sample_requests-n": (
        lambda chain: cr.sample_requests(chain.states[0], 2.5, np.random.default_rng(0)),
        "request count",
    ),
    "RequestBatch-bool": (lambda chain: cr.RequestBatch([True, 2]), "counts"),
    "RequestBatch-fraction": (lambda chain: cr.RequestBatch([1.5, 2.0]), "counts"),
    "zipf_profile-bool-ordering": (lambda chain: cr.zipf_profile(3, 1.0, (True, 2, 3)), "ordering"),
    "step_chain-state": (
        lambda chain: cr.step_chain(chain, 0.5, np.random.default_rng(0)), "state index"
    ),
    "random_chain-n_states": (
        lambda chain: cr.random_chain(2.5, 3, np.random.default_rng(0)), "n_states"
    ),
    "random_chain-catalog": (
        lambda chain: cr.random_chain(2, 2.5, np.random.default_rng(0)), "catalog size"
    ),
}

# Bounds go through the same rule, as_int(value, name, lo, hi): an integer
# outside [lo, hi) raises ValueError naming the field and the bound.
OUT_OF_RANGE = {
    "RequestBatch-counts": (lambda chain: cr.RequestBatch([1, -1]), "counts must be >= 0, got -1"),
    "zipf_profile-catalog": (
        lambda chain: cr.zipf_profile(0, 1.0), "catalog size must be >= 1, got 0"
    ),
    "step_chain-state": (
        lambda chain: cr.step_chain(chain, 2, np.random.default_rng(0)),
        "state index must lie in [0, 2), got 2",
    ),
    "sample_requests-n": (
        lambda chain: cr.sample_requests(chain.states[0], 0, np.random.default_rng(0)),
        f"request count must lie in [1, {2**63}), got 0",
    ),
    "sample_requests-n-int64": (
        lambda chain: cr.sample_requests(chain.states[0], 2**63, np.random.default_rng(0)),
        f"request count must lie in [1, {2**63}), got {2**63}",
    ),
    "random_chain-n_states": (
        lambda chain: cr.random_chain(0, 3, np.random.default_rng(0)),
        "n_states must be >= 1, got 0",
    ),
}


@pytest.mark.parametrize("case", INTEGER_HOLES)
def test_non_integer_raises_naming_its_field(case, small_net):
    build, field = INTEGER_HOLES[case]
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
        build(small_net[0])


@pytest.mark.parametrize("case", OUT_OF_RANGE)
def test_out_of_range_raises_naming_its_field(case, small_net):
    build, message = OUT_OF_RANGE[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build(small_net[0])


def test_whole_floats_convert_like_ints(small_net):
    g_chain, _ = small_net
    batch = cr.RequestBatch([1.0, 2.0])
    assert batch.counts.dtype == np.int64
    np.testing.assert_array_equal(batch.counts, cr.RequestBatch([1, 2]).counts)
    p = g_chain.states[0]
    np.testing.assert_array_equal(
        cr.sample_requests(p, 7.0, np.random.default_rng(0)).counts,
        cr.sample_requests(p, 7, np.random.default_rng(0)).counts,
    )
    np.testing.assert_array_equal(
        cr.zipf_profile(3, 1.0, (3.0, 1.0, 2.0)).probs, cr.zipf_profile(3, 1.0, (3, 1, 2)).probs
    )
    assert cr.step_chain(g_chain, 1.0, np.random.default_rng(0)) == cr.step_chain(
        g_chain, 1, np.random.default_rng(0)
    )
