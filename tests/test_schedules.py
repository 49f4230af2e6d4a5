import numpy as np
import pytest

import cache_rl as cr
from cache_rl.schedules import (
    ConstantEpsilon,
    ExploreThenExploit,
    ExploreThenInverseDecay,
    InverseTimeEpsilon,
    PiecewiseCostSchedule,
    as_epsilon_schedule,
    beta_from_json,
    beta_to_json,
    epsilon_schedule_from_json,
    epsilon_schedule_to_json,
    VisitCountBeta,
    validate_beta,
)


class TestEpsilonSchedules:
    def test_constant(self):
        s = ConstantEpsilon(0.05)
        assert s.epsilon_at(1) == 0.05
        np.testing.assert_array_equal(s.epsilon_array(np.arange(1, 5)), [0.05] * 4)
        with pytest.raises(ValueError):
            ConstantEpsilon(1.5)

    def test_inverse_time(self):
        s = InverseTimeEpsilon()
        assert s.epsilon_at(1) == 1.0
        assert s.epsilon_at(4) == 0.25
        np.testing.assert_allclose(s.epsilon_array(np.array([1, 2, 10])), [1, 0.5, 0.1])

    def test_explore_then_exploit(self):
        s = ExploreThenExploit(t_explore=3)
        assert [s.epsilon_at(t) for t in (1, 2, 3, 4, 5)] == [1, 1, 1, 0, 0]
        np.testing.assert_array_equal(s.epsilon_array(np.arange(1, 6)), [1, 1, 1, 0, 0])

    def test_explore_then_inverse(self):
        s = ExploreThenInverseDecay(t_explore=2)
        assert [s.epsilon_at(t) for t in (1, 2, 3, 4, 6)] == [1, 1, 1.0, 0.5, 0.25]

    def test_explore_then_inverse_array(self):
        ts = np.array([0, 1, 5, 6, 7, 8, 10, 15, 105])
        np.testing.assert_array_equal(
            ExploreThenInverseDecay(t_explore=5).epsilon_array(ts),
            [1, 1, 1, 1, 0.5, 1 / 3, 0.2, 0.1, 0.01],
        )
        # min(1, 1/t), the t_explore = 0 case, for every t >= 0
        ts = np.arange(0, 1000)
        np.testing.assert_array_equal(
            InverseTimeEpsilon().epsilon_array(ts), np.minimum(1.0, 1.0 / np.maximum(ts, 1))
        )

    @pytest.mark.parametrize("cls", [ExploreThenExploit, ExploreThenInverseDecay])
    def test_t_explore_must_be_finite_and_non_negative(self, cls):
        for bad in (float("nan"), float("inf"), -float("inf"), -5, -0.5):
            with pytest.raises(ValueError, match="t_explore"):
                cls(t_explore=bad)
        assert cls(t_explore=0).t_explore == 0

    def test_coercion_and_json(self):
        assert as_epsilon_schedule(0.1) == ConstantEpsilon(0.1)
        for sched in (
            ConstantEpsilon(0.2),
            InverseTimeEpsilon(),
            ExploreThenExploit(5),
            ExploreThenInverseDecay(9),
        ):
            assert epsilon_schedule_from_json(epsilon_schedule_to_json(sched)) == sched

    def test_json_fields_are_cast_to_their_types(self):
        assert epsilon_schedule_from_json(
            {"kind": "explore_then_exploit", "t_explore": 5.0}
        ) == ExploreThenExploit(5)
        assert epsilon_schedule_from_json({"kind": "constant", "value": 1}) == ConstantEpsilon(1.0)
        with pytest.raises(ValueError):
            epsilon_schedule_from_json({"kind": "explore_then_inverse", "t_explore": float("nan")})
        # each bad value fails with one message, read from a document or passed in code
        for bad in (5.5, True, float("inf")):
            with pytest.raises(ValueError, match="t_explore must be an integer"):
                epsilon_schedule_from_json({"kind": "explore_then_exploit", "t_explore": bad})
            with pytest.raises(ValueError, match="t_explore must be an integer"):
                ExploreThenExploit(t_explore=bad)
        with pytest.raises(ValueError):
            epsilon_schedule_from_json({"kind": "bogus"})
        for bad in (True, False):
            with pytest.raises(ValueError, match="epsilon must not be a boolean"):
                epsilon_schedule_from_json(bad)
            with pytest.raises(ValueError, match="epsilon must not be a boolean"):
                as_epsilon_schedule(bad)
            with pytest.raises(ValueError, match="beta must not be a boolean"):
                beta_from_json(bad)
            with pytest.raises(ValueError, match="beta must not be a boolean"):
                validate_beta(bad)
            with pytest.raises(ValueError, match="value must not be a boolean"):
                epsilon_schedule_from_json({"kind": "constant", "value": bad})
            with pytest.raises(ValueError, match="value must not be a boolean"):
                ConstantEpsilon(bad)

    def test_beta_json(self):
        assert beta_from_json(beta_to_json(0.8)) == 0.8
        assert isinstance(beta_from_json(beta_to_json(VisitCountBeta())), VisitCountBeta)


class TestPiecewiseCostSchedule:
    def test_validation(self):
        p = cr.CostParams(1, 2, 3)
        with pytest.raises(ValueError):
            PiecewiseCostSchedule(segments=((5, p),))
        with pytest.raises(ValueError):
            PiecewiseCostSchedule(segments=((0, p), (0, p)))
        doc = [{"start": 0, **p.to_json_dict()}, {"start": 50, **p.to_json_dict()}]
        assert PiecewiseCostSchedule.from_json(doc).segments[1][0] == 50
        # each bad value fails with one message, read from a document or passed in code
        for bad in (50.9, True, 1.5):
            doc[1]["start"] = bad
            with pytest.raises(ValueError, match="start must be an integer"):
                PiecewiseCostSchedule.from_json(doc)
            with pytest.raises(ValueError, match="start must be an integer"):
                PiecewiseCostSchedule(segments=((0, p), (bad, p)))
        doc[1]["start"] = 50
        for key in ("lambda1", "lambda2", "lambda3"):
            with pytest.raises(ValueError, match=f"{key} must not be a boolean"):
                PiecewiseCostSchedule.from_json([doc[0], {**doc[1], key: True}])
            with pytest.raises(ValueError, match=f"{key} must not be a boolean"):
                cr.CostParams(**{**p.to_json_dict(), key: True})

    def test_left_closed_boundaries(self):
        a, b = cr.CostParams(1, 0, 0), cr.CostParams(2, 0, 0)
        sched = PiecewiseCostSchedule(segments=((0, a), (10, b)))
        assert sched.params_at(9) == a
        assert sched.params_at(10) == b
        lam = sched.lambda_arrays(8, 12)
        np.testing.assert_array_equal(lam[0], [1, 1, 2, 2])

    def test_constant_helper(self):
        p = cr.CostParams(4, 5, 6)
        sched = PiecewiseCostSchedule.constant(p)
        assert sched.is_constant
        assert sched.params_at(123456) == p

    def test_json_round_trip(self):
        sched = PiecewiseCostSchedule(
            segments=((0, cr.CostParams(0, 1000, 0)), (100, cr.CostParams(0, 0, 1000)))
        )
        assert PiecewiseCostSchedule.from_json(sched.to_json()) == sched
