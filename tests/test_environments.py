"""Context sources and adversary schedule construction."""

import numpy as np
import pytest

from relaxcb import (
    ContextDistribution,
    ContextSequence,
    CostSchedule,
    PolicyClass,
    best_policy_loss,
    make_adversary,
)


class TestContextDistribution:
    def test_point_mass(self):
        rng = np.random.default_rng(0)
        dist = ContextDistribution(np.array([0.0, 0.0, 0.0, 1.0]))
        assert all(dist.sample(rng) == 3 for _ in range(50))

    def test_single_context(self):
        rng = np.random.default_rng(1)
        dist = ContextDistribution.uniform(1)
        assert dist.sample(rng) == 0

    def test_frequencies(self):
        rng = np.random.default_rng(2)
        probs = np.array([0.5, 0.5])
        dist = ContextDistribution(probs)
        n = 100_000
        draws = dist.sample(rng, size=n)
        freq = np.mean(draws == 0)
        assert abs(freq - 0.5) <= 3 * np.sqrt(0.25 / n)

    def test_invalid_sum(self):
        with pytest.raises(ValueError, match="sum"):
            ContextDistribution(np.array([0.5, 0.6]))

    def test_vector_draws_match_scalar_protocol(self):
        probs = np.array([0.3, 0.2, 0.5])
        dist = ContextDistribution(probs)
        a = dist.sample(np.random.default_rng(3), size=5)
        rng = np.random.default_rng(3)
        b = [dist.sample(rng) for _ in range(5)]
        np.testing.assert_array_equal(a, b)


class TestContextSequence:
    """A known context sequence is checked once, when it is built."""

    def test_stores_a_read_only_int64_copy(self):
        raw = np.array([2, 0, 1], dtype=np.int32)
        seq = ContextSequence(raw, 3)
        assert seq.ids.dtype == np.int64 and seq.ids.tolist() == [2, 0, 1]
        assert not seq.ids.flags.writeable
        raw[0] = 1
        assert seq.ids[0] == 2
        assert ContextSequence([1, 1], 2).ids.tolist() == [1, 1]
        assert len({seq, ContextSequence(raw, 3)}) == 2  # hashable, compared by identity

    def test_rejects_non_integer_ids(self):
        # np.asarray(..., dtype=np.int64) would truncate these to [0, 1, 0]
        with pytest.raises(ValueError, match="integer array, got float64"):
            ContextSequence(np.array([0.9, 1.7, 0.2]), 2)
        with pytest.raises(ValueError, match="integer array, got bool"):
            ContextSequence(np.array([True, False]), 2)

    @pytest.mark.parametrize("ids", [[], [[0, 1]], 0], ids=["empty", "2-d", "scalar"])
    def test_rejects_other_shapes(self, ids):
        with pytest.raises(ValueError, match="non-empty 1-d integer array"):
            ContextSequence(np.array(ids, dtype=np.int64), 2)


class TestCostSchedule:
    def test_validates_range(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            CostSchedule(np.array([[0.5, 1.2]]))

    def test_round_lookup(self):
        sched = CostSchedule(np.array([[0.1, 0.2], [0.3, 0.4]]))
        assert sched.cost(2, 1) == pytest.approx(0.3)

    def test_immutable(self):
        sched = CostSchedule(np.array([[0.1, 0.2]]))
        with pytest.raises(ValueError):
            sched.costs[0, 0] = 0.9


def any_policy_class(k=3, u=4, seed=0):
    rng = np.random.default_rng(seed)
    table = rng.integers(1, k + 1, size=(6, u))
    table[0] = np.arange(u) % k + 1  # ensure coverage
    return PolicyClass(table=table, num_actions=k)


class TestStochasticGap:
    def test_extreme_gap_is_deterministic(self):
        pc = any_policy_class()
        sched = make_adversary({"type": "stochastic-gap", "delta": 1.0}, pc, 20, np.random.default_rng(0))
        col_means = sched.costs.mean(axis=0)
        target = int(np.argmin(col_means))
        np.testing.assert_allclose(sched.costs[:, target], 0.0)
        others = np.delete(sched.costs, target, axis=1)
        np.testing.assert_allclose(others, 1.0)

    def test_mean_gap(self):
        pc = any_policy_class()
        sched = make_adversary(
            {"type": "stochastic-gap", "delta": 0.4}, pc, 50_000, np.random.default_rng(1)
        )
        col_means = sched.costs.mean(axis=0)
        target = int(np.argmin(col_means))
        assert col_means[target] == pytest.approx((1 - 0.4) / 2, abs=0.01)
        for a in range(3):
            if a != target:
                assert col_means[a] - col_means[target] == pytest.approx(0.4, abs=0.01)

    def test_deterministic_given_seed(self):
        pc = any_policy_class()
        spec = {"type": "stochastic-gap", "delta": 0.3}
        a = make_adversary(spec, pc, 100, np.random.default_rng(7))
        b = make_adversary(spec, pc, 100, np.random.default_rng(7))
        np.testing.assert_array_equal(a.costs, b.costs)


class TestDrifting:
    def test_single_phase_is_fixed_vector(self):
        pc = any_policy_class()
        sched = make_adversary({"type": "drifting", "period": 30}, pc, 30, np.random.default_rng(0))
        assert np.all(sched.costs == sched.costs[0])

    def test_cheap_action_rotates(self):
        pc = any_policy_class()
        sched = make_adversary({"type": "drifting", "period": 5}, pc, 30, np.random.default_rng(0))
        cheap = sched.costs.argmin(axis=1)
        np.testing.assert_array_equal(cheap[:5], 0)
        np.testing.assert_array_equal(cheap[5:10], 1)
        np.testing.assert_array_equal(cheap[10:15], 2)
        np.testing.assert_array_equal(cheap[15:20], 0)


class TestPolicyTargeted:
    def test_margin_holds_every_round(self):
        pc = any_policy_class()
        delta = 0.2
        sched = make_adversary(
            {"type": "policy-targeted", "delta": delta, "period": 10}, pc, 100,
            np.random.default_rng(3),
        )
        target = int(np.argmin(sched.costs.mean(axis=0)))
        target_costs = sched.costs[:, target]
        others = np.delete(sched.costs, target, axis=1)
        assert np.all(others.min(axis=1) >= target_costs + delta - 1e-12)

    def test_decoys_flip_with_phase(self):
        pc = any_policy_class()
        sched = make_adversary(
            {"type": "policy-targeted", "delta": 0.2, "period": 10}, pc, 40,
            np.random.default_rng(3),
        )
        assert not np.all(sched.costs[0] == sched.costs[10])

    def test_constant_target_policy_attains_mean_cost(self):
        # with the constant policies in the class, the best hindsight policy
        # plays the hidden action every round, so the comparator equals the
        # per-round target cost times the horizon
        k, u, horizon, delta = 3, 2, 40, 0.2
        constants = np.array([[a + 1] * u for a in range(k)])
        pc = PolicyClass(table=constants, num_actions=k)
        sched = make_adversary(
            {"type": "policy-targeted", "delta": delta, "period": 8}, pc, horizon,
            np.random.default_rng(4),
        )
        contexts = np.random.default_rng(5).integers(0, u, size=horizon)
        comparator = best_policy_loss(pc, contexts, sched.costs)
        mean_target_cost = sched.costs.min(axis=1).mean()
        assert comparator == pytest.approx(mean_target_cost * horizon, abs=1e-9)


class TestAdversaryValidation:
    def test_unknown_type(self):
        with pytest.raises(ValueError, match="unknown adversary"):
            make_adversary({"type": "nope"}, any_policy_class(), 10, np.random.default_rng(0))

    def test_missing_delta(self):
        with pytest.raises(ValueError, match="delta"):
            make_adversary({"type": "stochastic-gap"}, any_policy_class(), 10, np.random.default_rng(0))

    def test_missing_period(self):
        with pytest.raises(ValueError, match="period"):
            make_adversary({"type": "drifting"}, any_policy_class(), 10, np.random.default_rng(0))

    @pytest.mark.parametrize("delta", ["0.3", True, np.True_, None, float("nan"), -0.1, 1.5])
    @pytest.mark.parametrize("kind", ["stochastic-gap", "policy-targeted"])
    def test_bad_delta_rejected(self, kind, delta):
        spec = {"type": kind, "delta": delta, "period": 3}
        with pytest.raises(ValueError, match="adversary delta must be a number in \\[0, 1\\]"):
            make_adversary(spec, any_policy_class(), 10, np.random.default_rng(0))

    @pytest.mark.parametrize("period", [True, 2.5, 2.0, "3", 0, -1])
    @pytest.mark.parametrize("kind", ["drifting", "policy-targeted"])
    def test_bad_period_rejected(self, kind, period):
        spec = {"type": kind, "delta": 0.3, "period": period}
        with pytest.raises(ValueError, match="adversary period must be a positive integer"):
            make_adversary(spec, any_policy_class(), 10, np.random.default_rng(0))

    def test_numpy_numbers_accepted(self):
        spec = {"type": "policy-targeted", "delta": np.float64(0.3), "period": np.int64(3)}
        pc = any_policy_class()
        assert np.array_equal(
            make_adversary(spec, pc, 10, np.random.default_rng(0)).costs,
            make_adversary({**spec, "delta": 0.3, "period": 3}, pc, 10, np.random.default_rng(0)).costs,
        )

    def test_costs_always_in_range(self):
        pc = any_policy_class()
        rng = np.random.default_rng(6)
        for spec in (
            {"type": "stochastic-gap", "delta": 0.05},
            {"type": "policy-targeted", "delta": 0.9, "period": 3},
            {"type": "drifting", "period": 4},
        ):
            sched = make_adversary(spec, pc, 60, rng)
            assert sched.costs.min() >= 0.0 and sched.costs.max() <= 1.0
