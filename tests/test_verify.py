"""The verification oracles themselves, cross-checked by third routes."""

import math

import numpy as np
import pytest
from scipy.optimize import linprog

from relaxcb import (
    ContextDistribution,
    LearnerConfig,
    OracleScores,
    RelaxationLearner,
    UniformLearner,
    ValueOracle,
    admissibility_check,
    brute_force_minimax,
    inner_sup_value,
    rademacher_bound_check,
    random_policy_class,
    simplex_grid,
    sup_by_vertex_enumeration,
    unbiasedness_check,
    water_fill,
)


def make_scores(minima, scale):
    return OracleScores.from_minima(np.asarray(minima, dtype=float), scale)


class TestSimplexGrid:
    def test_two_actions(self):
        grid = simplex_grid(2, 0.25)
        assert grid.shape == (5, 2)
        np.testing.assert_allclose(grid.sum(axis=1), 1.0)

    def test_three_actions(self):
        grid = simplex_grid(3, 0.1)
        assert grid.shape == (66, 3)  # C(12, 2) compositions of 10 into 3 parts
        np.testing.assert_allclose(grid.sum(axis=1), 1.0)
        assert grid.min() >= 0.0

    def test_rejects_unsupported_size(self):
        with pytest.raises(ValueError, match="2 or 3"):
            simplex_grid(4, 0.1)

    def test_rejects_uneven_mesh(self):
        with pytest.raises(ValueError, match="mesh"):
            simplex_grid(2, 0.3)


class TestVertexEnumeration:
    def test_matches_linear_program(self):
        """The 2^K vertex sweep agrees with an LP over the capped simplex."""
        rng = np.random.default_rng(0)
        for _ in range(100):
            k = int(rng.integers(2, 4))
            scale = float(rng.uniform(k, 4 * k))
            minima = np.concatenate([[rng.normal()], rng.normal(0, scale, size=k)])
            scores = make_scores(minima, scale)
            raw = rng.random(k)
            q = raw / raw.sum()
            z = scale * q - minima[1:]
            z0 = -minima[0]
            # maximize p.z + p0*z0 over the capped simplex via linprog (minimize -obj)
            c = -np.concatenate([[z0], z])
            a_eq = np.ones((1, k + 1))
            bounds = [(0.0, None)] + [(0.0, 1.0 / scale)] * k
            res = linprog(c, A_eq=a_eq, b_eq=[1.0], bounds=bounds, method="highs")
            assert res.success
            enumerated = sup_by_vertex_enumeration(q, scores, scale)
            assert enumerated == pytest.approx(-res.fun, abs=1e-9)


class TestBruteForceMinimax:
    def test_symmetric_scores_value_independent_of_point(self):
        # equal minima: the objective is symmetric, so the grid value matches
        # the value at any permutation of the minimizer
        scores = make_scores([1.0, 2.0, 2.0], scale=4.0)
        q, value = brute_force_minimax(scores, 4.0, 0.01)
        flipped = inner_sup_value(q.probs[::-1].copy(), scores, 4.0)
        assert value == pytest.approx(flipped, abs=1e-12)

    def test_never_below_water_fill(self):
        # the grid can only be worse than (or equal to) the exact minimizer
        rng = np.random.default_rng(1)
        for _ in range(50):
            scale = 4.0
            minima = np.concatenate([[0.0], rng.normal(0, scale, size=2)])
            scores = make_scores(minima, scale)
            achieved = inner_sup_value(water_fill(scores.gaps), scores, scale)
            _, grid_min = brute_force_minimax(scores, scale, 1e-3)
            assert grid_min >= achieved - 1e-12

    def test_rejects_large_action_count(self):
        scores = make_scores(np.zeros(5), scale=8.0)
        with pytest.raises(ValueError, match="2 or 3"):
            brute_force_minimax(scores, 8.0, 0.1)


class TestUnbiasednessCheck:
    def test_passes_at_three_sigma(self):
        rng = np.random.default_rng(2)
        res = unbiasedness_check(num_actions=4, scale=8.0, draws=30_000, rng=rng)
        assert res.passed()

    def test_zero_costs_give_exact_zero(self):
        rng = np.random.default_rng(3)
        res = unbiasedness_check(num_actions=3, scale=6.0, draws=500, rng=rng, costs=np.zeros(3))
        np.testing.assert_allclose(res.means, 0.0)
        assert res.passed()


class TestPerturbationBoundCheck:
    def test_single_policy_is_mean_zero(self):
        rng = np.random.default_rng(4)
        check = rademacher_bound_check(
            horizon=100, moment_bound=8.0, num_policies=1, scale=4.0,
            num_actions=2, num_contexts=3, samples=4_000, rng=rng,
        )
        assert abs(check.empirical) <= 3 * check.stderr

    def test_degenerate_all_zero_magnitudes(self):
        rng = np.random.default_rng(5)
        check = rademacher_bound_check(
            horizon=50, moment_bound=8.0, num_policies=8, scale=4.0,
            num_actions=2, num_contexts=3, samples=200, rng=rng, z_prob=0.0,
        )
        assert check.empirical == 0.0
        assert check.stderr == 0.0

    def test_rejects_moment_violation(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ValueError, match="moment"):
            rademacher_bound_check(
                horizon=50, moment_bound=4.0, num_policies=8, scale=4.0,
                num_actions=2, num_contexts=3, samples=100, rng=rng,
            )

    def test_bound_formula(self):
        rng = np.random.default_rng(7)
        check = rademacher_bound_check(
            horizon=200, moment_bound=8.0, num_policies=16, scale=4.0,
            num_actions=2, num_contexts=4, samples=500, rng=rng,
        )
        assert check.bound == pytest.approx(math.sqrt(2 * 200 * 8 * math.log(16)))


class TestAdmissibilityCheck:
    def test_small_instance_passes(self):
        rng = np.random.default_rng(8)
        pc = random_policy_class(4, 2, 2, rng)
        cfg = LearnerConfig(K=2, T=2, scale=3.0)
        res = admissibility_check(pc, cfg, ContextDistribution.uniform(2), [], 1500, rng)
        assert res.round_index == 1
        assert res.passed()
        assert res.lhs_stderr > 0.0

    def test_with_recorded_history(self):
        rng = np.random.default_rng(9)
        pc = random_policy_class(4, 2, 2, rng)
        cfg = LearnerConfig(K=2, T=2, scale=3.0)
        dist = ContextDistribution.uniform(2)
        oracle = ValueOracle(pc)
        costs = rng.random(2)
        learner = RelaxationLearner(cfg, oracle, dist)
        history = [learner.play_round(dist.sample(rng), lambda a: costs[a - 1], rng)]
        res = admissibility_check(pc, cfg, dist, history, 1500, rng)
        assert res.round_index == 2
        assert res.passed()

    def test_rejects_a_record_without_estimate(self):
        rng = np.random.default_rng(11)
        pc = random_policy_class(4, 2, 2, rng)
        cfg = LearnerConfig(K=2, T=2, scale=3.0)
        history = [UniformLearner(2).play_round(0, lambda a: 0.5, rng)]
        with pytest.raises(ValueError, match="no estimate"):
            admissibility_check(pc, cfg, ContextDistribution.uniform(2), history, 10, rng)

    def test_rejects_exhausted_horizon(self):
        rng = np.random.default_rng(10)
        pc = random_policy_class(4, 2, 2, rng)
        cfg = LearnerConfig(K=2, T=1, scale=3.0)
        dist = ContextDistribution.uniform(2)
        history = [RelaxationLearner(cfg, ValueOracle(pc), dist).play_round(0, lambda a: 0.5, rng)]
        with pytest.raises(ValueError, match="horizon"):
            admissibility_check(pc, cfg, dist, history, 10, rng)
