"""Core types: distributions, estimates, and the estimator coin."""

import numpy as np
import pytest

import relaxcb
from relaxcb import (
    ActionDistribution,
    ContextDistribution,
    CostSchedule,
    HistoryRecord,
    OracleScores,
    PolicyClass,
    build_estimate,
    draw_estimator_coin,
)
from relaxcb.core import sample_index
from relaxcb.learner import past_loss_matrix


class FixedUniform:
    """Stands in for a generator whose every uniform is ``u``, counting the draws."""

    def __init__(self, u: float) -> None:
        self.u = u
        self.draws = 0

    def random(self) -> float:
        self.draws += 1
        return self.u


def _random_simplex(seed: int) -> np.ndarray:
    rng = np.random.default_rng(100 + seed)
    return rng.dirichlet(np.ones(int(rng.integers(2, 9))))


SAMPLE_INDEX_CASES = [
    pytest.param(np.array([0.25, 0.25, 0.5]), None, id="quarters"),
    *(pytest.param(_random_simplex(seed), None, id=f"random-{seed}") for seed in range(6)),
    pytest.param(np.array([0.3, 0.7 - 1e-12]), 1.0 - 5e-13, id="short-cdf-clamped"),
]


class TestActionDistribution:
    def test_accepts_and_renormalizes_within_tolerance(self):
        d = ActionDistribution(np.array([0.5, 0.5 + 4e-10]))
        assert d.probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_sum_off_beyond_tolerance(self):
        with pytest.raises(ValueError, match="sum"):
            ActionDistribution(np.array([0.5, 0.6]))

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError, match="negative"):
            ActionDistribution(np.array([1.1, -0.1]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            ActionDistribution(np.array([np.nan, 1.0]))

    def test_uniform(self):
        d = ActionDistribution.uniform(4)
        np.testing.assert_allclose(d.probs, 0.25)

    def test_immutable(self):
        d = ActionDistribution.uniform(3)
        with pytest.raises(ValueError):
            d.probs[0] = 0.9

    def test_point_mass_sampling(self):
        rng = np.random.default_rng(0)
        d = ActionDistribution(np.array([0.0, 0.0, 1.0]))
        assert all(d.sample(rng) == 3 for _ in range(20))

    def test_sampling_frequencies(self):
        rng = np.random.default_rng(1)
        probs = np.array([0.2, 0.5, 0.3])
        d = ActionDistribution(probs)
        n = 40_000
        counts = np.bincount([d.sample(rng) - 1 for _ in range(n)], minlength=3)
        sigma = np.sqrt(probs * (1 - probs) / n)
        assert np.all(np.abs(counts / n - probs) <= 4 * sigma)

    @pytest.mark.parametrize("probs, u", SAMPLE_INDEX_CASES)
    def test_sample_index_consumes_one_uniform(self, probs, u):
        """Same index as ``np.searchsorted`` on ``np.cumsum``, clamped to the last action, from one uniform."""
        make = (lambda: np.random.default_rng(7)) if u is None else (lambda: FixedUniform(u))
        rng, ref_rng = make(), make()
        idx = sample_index(probs, rng)
        ref_u = ref_rng.random()
        unclamped = int(np.searchsorted(np.cumsum(probs), ref_u, side="right"))
        assert idx == min(unclamped, len(probs) - 1)
        if u is None:
            # both generators are now in the same state
            assert rng.random() == ref_rng.random()
        else:
            assert unclamped == len(probs)  # u lies above the last CDF entry
            assert rng.draws == 1


@pytest.mark.parametrize(
    "make",
    [
        lambda: ActionDistribution.uniform(2),
        lambda: ContextDistribution.uniform(2),
        lambda: CostSchedule(np.full((2, 2), 0.5)),
        lambda: PolicyClass(table=np.array([[1, 2]]), num_actions=2),
        lambda: OracleScores.from_minima(np.array([0.0, 1.0, 2.0]), 4.0),
    ],
    ids=["ActionDistribution", "ContextDistribution", "CostSchedule", "PolicyClass", "OracleScores"],
)
def test_array_value_types_compare_and_hash_by_identity(make):
    first, second = make(), make()
    assert first == first and first != second
    assert len({first, second}) == 2


class TestEstimatedCost:
    # the learner counts estimate coordinates into its (U, K) coin matrix, in units of its config's scale
    @staticmethod
    def record(est):
        dist = ActionDistribution.uniform(3)
        return HistoryRecord(context=0, played_dist=dist, played_action=2, observed_cost=0.5, estimate=est)

    def test_spike_vector(self):
        np.testing.assert_array_equal(past_loss_matrix([self.record(2)], 1, 3), [[0, 1, 0]])

    def test_zero_vector(self):
        np.testing.assert_array_equal(past_loss_matrix([self.record(0)], 1, 3), [[0, 0, 0]])

    def test_a_coordinate_and_nothing_else(self):
        for coin, coordinate in [(1, 2), (0, 0)]:
            est = build_estimate(2, coin)
            assert type(est) is int and est == coordinate


class TestHistoryRecord:
    def test_estimate_must_match_played_action(self):
        with pytest.raises(ValueError, match="coordinate"):
            HistoryRecord(
                context=0,
                played_dist=ActionDistribution.uniform(3),
                played_action=2,
                observed_cost=0.5,
                estimate=1,
            )

    def test_cost_range(self):
        with pytest.raises(ValueError, match="cost"):
            HistoryRecord(
                context=0,
                played_dist=ActionDistribution.uniform(3),
                played_action=2,
                observed_cost=1.5,
                estimate=2,
            )


class TestEstimatorCoin:
    def test_zero_cost_never_fires(self):
        rng = np.random.default_rng(2)
        assert all(draw_estimator_coin(0.0, 0.5, 4.0, rng) == 0 for _ in range(200))

    def test_probability_one_always_fires(self):
        # cost 1 at the floor probability: success probability exactly 1
        rng = np.random.default_rng(3)
        assert all(draw_estimator_coin(1.0, 0.25, 4.0, rng) == 1 for _ in range(200))

    def test_success_rate(self):
        # success probability = 0.4 / (4 * 0.5) = 0.2
        rng = np.random.default_rng(4)
        n = 100_000
        hits = sum(draw_estimator_coin(0.4, 0.5, 4.0, rng) for _ in range(n))
        assert hits / n == pytest.approx(0.2, abs=0.01)

    def test_rejects_probability_below_floor(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError, match="floor"):
            draw_estimator_coin(0.5, 0.2, 4.0, rng)  # floor is 0.25

    def test_accepts_probability_at_floor_within_slack(self):
        rng = np.random.default_rng(6)
        draw_estimator_coin(0.5, 0.25 - 1e-13, 4.0, rng)

    def test_rejects_bad_cost(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ValueError, match="cost"):
            draw_estimator_coin(1.2, 0.5, 4.0, rng)


class TestBuildEstimate:
    def test_spike(self):
        assert build_estimate(2, 1) == 2

    def test_zero(self):
        assert build_estimate(2, 0) == 0

    def test_rejects_bad_coin(self):
        with pytest.raises(ValueError, match="coin"):
            build_estimate(2, 2)

    def test_realized_estimates_stay_in_domain(self):
        # every realized estimate is the zero vector or one coin at the played coordinate
        rng = np.random.default_rng(8)
        scale = 6.0
        for _ in range(500):
            action = int(rng.integers(1, 5))
            coin = draw_estimator_coin(rng.random(), 0.25, scale, rng)
            assert build_estimate(action, coin) == (action if coin else 0)


class TestUnbiasedness:
    def test_estimate_mean_matches_costs(self):
        """Monte Carlo mean of the estimate converges to the true cost vector.

        Expected values are the analytic coordinates themselves; the
        tolerance is 3 analytic standard errors sqrt((scale*c - c^2)/n).
        """
        rng = np.random.default_rng(9)
        k, scale, n = 4, 8.0, 100_000
        raw = rng.random(k)
        probs = (1 - k / scale) * raw / raw.sum() + 1 / scale
        costs = rng.random(k)
        sums = np.zeros(k)
        for _ in range(n):
            action = sample_index(probs, rng) + 1
            coin = draw_estimator_coin(costs[action - 1], probs[action - 1], scale, rng)
            if coin:
                sums[action - 1] += scale
        means = sums / n
        stderr = np.sqrt((scale * costs - costs**2) / n)
        assert np.all(np.abs(means - costs) <= 3 * stderr)


class TestPublicApi:
    """Every listed export resolves, and the references stay out of the product modules."""

    def test_every_listed_name_resolves_once(self):
        assert len(set(relaxcb.__all__)) == len(relaxcb.__all__)
        for name in relaxcb.__all__:
            getattr(relaxcb, name)  # AttributeError if a listed name is missing

    def test_comparator_is_the_verify_reference(self):
        assert relaxcb.best_policy_loss is relaxcb.verify.best_policy_loss

    def test_product_modules_hold_no_reference(self):
        for name in ("best_policy_loss", "context_action_sums"):
            assert not hasattr(relaxcb.policies, name)
        assert not hasattr(relaxcb.harness, "theoretical_bound")
        assert "theoretical_bound" not in relaxcb.__all__
