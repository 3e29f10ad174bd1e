"""Exp4 and uniform baselines."""

import numpy as np
import pytest

from relaxcb import (
    Exp4Learner,
    PolicyClass,
    UniformLearner,
    best_policy_loss,
    make_adversary,
    random_policy_class,
)


class TestExp4:
    def test_uniform_weights_and_balanced_class_give_uniform_play(self):
        # two policies per action at the only context: profile is uniform,
        # and mixing uniform with uniform stays uniform
        table = np.array([[1], [1], [2], [2], [3], [3]])
        pc = PolicyClass(table=table, num_actions=3)
        learner = Exp4Learner(pc, horizon=100)
        dist = learner.distribution(0)
        np.testing.assert_allclose(dist.probs, 1 / 3)

    def test_single_policy_plays_its_action_mixed_with_floor(self):
        pc = PolicyClass(table=np.array([[2, 2]]), num_actions=3)
        learner = Exp4Learner(pc, horizon=50)
        dist = learner.distribution(1)
        gamma = learner.exploration
        np.testing.assert_allclose(
            dist.probs, [gamma / 3, 1 - gamma + gamma / 3, gamma / 3]
        )

    def test_horizon_must_be_positive(self):
        pc = PolicyClass(table=np.array([[1], [2]]), num_actions=2)
        with pytest.raises(ValueError, match="horizon must be >= 1, got 0"):
            Exp4Learner(pc, horizon=0)

    @pytest.mark.parametrize(
        "x_t, error, message",
        [
            (-1, ValueError, "context id -1 outside 0..2 of a 3-context class"),
            (3, ValueError, "context id 3 outside 0..2 of a 3-context class"),
            (1.0, TypeError, "context id 1.0 is not an integer"),
            (True, TypeError, "context id True is not an integer"),
        ],
        ids=["negative", "U", "float", "bool"],
    )
    def test_context_outside_the_class_rejected(self, x_t, error, message):
        pc = random_policy_class(6, 3, 2, np.random.default_rng(0))
        learner = Exp4Learner(pc, horizon=10)
        learner.log_weights = np.log(np.arange(1.0, 7.0))  # not uniform, so a reset would show
        weights = learner.log_weights.copy()
        rng = np.random.default_rng(1)
        with pytest.raises(error, match=message):
            learner.play_round(x_t, lambda a: 0.5, rng)
        assert rng.bit_generator.state == np.random.default_rng(1).bit_generator.state
        assert np.array_equal(learner.log_weights, weights)

    def test_update_only_charges_matching_policies(self):
        table = np.array([[1], [2]])
        pc = PolicyClass(table=table, num_actions=2)
        learner = Exp4Learner(pc, horizon=10)
        rng = np.random.default_rng(0)
        action = learner.play_round(0, lambda a: 1.0, rng).played_action
        w = learner.log_weights
        # the policy that played the action lost weight relative to the other
        assert w[action - 1] < w[2 - action]

    def test_log_weights_stay_finite_under_adversarial_costs(self):
        rng = np.random.default_rng(1)
        pc = random_policy_class(8, 3, 3, rng)
        learner = Exp4Learner(pc, horizon=500)
        for t in range(500):
            x = int(rng.integers(3))
            learner.play_round(x, lambda a: float(rng.integers(2)), rng)
            assert np.all(np.isfinite(learner.log_weights))

    def test_sublinear_on_gap_instance(self):
        """Regret per round shrinks between T=500 and T=2000 on a 2-action gap."""
        rng_pc = np.random.default_rng(2)
        pc = random_policy_class(10, 2, 2, rng_pc)
        sched = make_adversary(
            {"type": "stochastic-gap", "delta": 0.2}, pc, 2000, np.random.default_rng(3)
        )
        rng_ctx = np.random.default_rng(4)
        contexts = rng_ctx.integers(0, 2, size=2000)

        def run(horizon, seed):
            rng = np.random.default_rng(seed)
            learner = Exp4Learner(pc, horizon)
            expected = 0.0
            for t in range(1, horizon + 1):
                x = int(contexts[t - 1])
                cvec = sched.costs[t - 1]
                record = learner.play_round(x, lambda a: cvec[a - 1], rng)
                expected += float(record.played_dist.probs @ cvec)
            comparator = best_policy_loss(pc, contexts[:horizon], sched.costs[:horizon])
            return expected - comparator

        reps = 5
        r500 = np.mean([run(500, 100 + i) for i in range(reps)]) / 500
        r2000 = np.mean([run(2000, 200 + i) for i in range(reps)]) / 2000
        assert r2000 < r500


class TestUniform:
    def test_distribution(self):
        rng = np.random.default_rng(0)
        record = UniformLearner(4).play_round(0, lambda a: 0.5, rng)
        np.testing.assert_allclose(record.played_dist.probs, 0.25)
        assert 1 <= record.played_action <= 4

    def test_action_frequencies(self):
        rng = np.random.default_rng(1)
        n = 100_000
        learner = UniformLearner(4)
        counts = np.bincount(
            [learner.play_round(0, lambda a: 0.5, rng).played_action - 1 for _ in range(n)], minlength=4
        )
        sigma = np.sqrt(0.25 * 0.75 / n)
        assert np.all(np.abs(counts / n - 0.25) <= 3 * sigma)

    def test_expected_regret_on_fixed_gap_instance(self):
        # against constant policies covering every action, the expected-cost
        # regret of uniform play is exactly (mean cost - best cost) per round
        k, horizon = 3, 400
        constants = np.array([[a + 1, a + 1] for a in range(k)])
        pc = PolicyClass(table=constants, num_actions=k)
        costs = np.tile(np.array([0.1, 0.5, 0.9]), (horizon, 1))
        contexts = np.zeros(horizon, dtype=int)
        per_round = costs[0].mean() - costs[0].min()
        rng = np.random.default_rng(2)
        learner = UniformLearner(k)
        expected = 0.0
        for t in range(horizon):
            record = learner.play_round(0, lambda a: costs[t, a - 1], rng)
            expected += float(record.played_dist.probs @ costs[t])
        regret = expected - best_policy_loss(pc, contexts, costs)
        assert regret == pytest.approx(per_round * horizon, abs=1e-9)


both_baselines = pytest.mark.parametrize(
    "make", [lambda pc: Exp4Learner(pc, horizon=10), lambda pc: UniformLearner(pc.num_actions)],
    ids=["exp4", "uniform"],
)


class TestLearnerInterface:
    """Both baselines play rounds like ``RelaxationLearner``: one record, no estimate."""

    @both_baselines
    def test_record_carries_no_estimate(self, make):
        pc = PolicyClass(table=np.array([[1, 2], [2, 1]]), num_actions=2)
        record = make(pc).play_round(1, lambda a: 0.25 * a, np.random.default_rng(0))
        assert record.context == 1
        assert record.observed_cost == 0.25 * record.played_action
        assert record.estimate is None

    @both_baselines
    @pytest.mark.parametrize("cost", [1.5, -0.1])
    def test_cost_outside_unit_interval_rejected(self, make, cost):
        pc = PolicyClass(table=np.array([[1, 2], [2, 1]]), num_actions=2)
        learner = make(pc)
        with pytest.raises(ValueError, match=r"observed cost .* outside \[0, 1\]"):
            learner.play_round(0, lambda a: cost, np.random.default_rng(0))
        if isinstance(learner, Exp4Learner):
            np.testing.assert_array_equal(learner.log_weights, 0.0)
