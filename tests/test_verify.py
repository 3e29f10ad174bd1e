"""The verification oracles themselves, cross-checked by third routes.

That includes the references the run path is checked against: the hindsight
comparator and the real-valued minimax step (scores, water-filling, the
inner supremum, the potential).  Loop helpers come from the test modules of
the code they mirror; neither imports this one.
"""

import math
import re

import numpy as np
import pytest
from scipy.optimize import linprog

from relaxcb import (
    ActionDistribution,
    ContextDistribution,
    LearnerConfig,
    OracleScores,
    PolicyClass,
    RelaxationLearner,
    UniformLearner,
    ValueOracle,
    admissibility_check,
    best_policy_loss,
    brute_force_minimax,
    inner_sup_value,
    inner_sup_values,
    rademacher_bound_check,
    random_policy_class,
    relaxation_value,
    sample_future,
    simplex_grid,
    sup_by_vertex_enumeration,
    unbiasedness_check,
    water_fill,
)
from relaxcb import verify
from relaxcb.learner import past_loss_matrix
from relaxcb.verify import context_action_sums, cost_grid, minimax_check
from test_learner import action_of, make_record, zeros
from test_policies import exactness_instances, loop_per_context, loop_value


def make_scores(minima, scale):
    return OracleScores.from_minima(np.asarray(minima, dtype=float), scale)


def reference_rademacher_bound_check(
    horizon, moment_bound, num_policies, scale, num_actions, num_contexts, samples, rng, z_prob=None
):
    """The perturbation check as a per-policy loop of (b, T) gathers, for the exactness tests."""
    if z_prob is None:
        z_prob = num_actions / scale
    policy_class = random_policy_class(num_policies, num_contexts, num_actions, rng)
    xs = rng.integers(0, num_contexts, size=horizon)
    actions0 = policy_class.table[:, xs] - 1
    cols = np.arange(horizon)
    sups = np.empty(samples)
    block = max(1, min(samples, int(5e6 // (horizon * num_actions)) or 1))
    done = 0
    while done < samples:
        b = min(block, samples - done)
        signs = rng.integers(0, 2, size=(b, horizon, num_actions)) * 2 - 1
        z = np.where(rng.random((b, horizon)) < z_prob, scale, 0.0)
        per_policy = np.empty((b, num_policies))
        for p in range(num_policies):
            per_policy[:, p] = (signs[:, cols, actions0[p]] * z).sum(axis=1)
        sups[done : done + b] = per_policy.max(axis=1)
        done += b
    stderr = float(sups.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return float(sups.mean()), stderr


class TestBestPolicyLoss:
    def test_empty_horizon(self):
        pc = PolicyClass(table=np.array([[1, 2]]), num_actions=2)
        assert best_policy_loss(pc, [], np.zeros((0, 2))) == 0.0

    def test_single_round_covering_class(self):
        pc = PolicyClass(table=np.array([[1], [2]]), num_actions=2)
        assert best_policy_loss(pc, [0], np.array([[0.2, 0.9]])) == pytest.approx(0.2)

    def test_all_zero_costs(self):
        rng = np.random.default_rng(2)
        pc = random_policy_class(6, 3, 3, rng)
        assert best_policy_loss(pc, [0, 1, 2, 0], np.zeros((4, 3))) == 0.0

    def test_length_mismatch(self):
        pc = PolicyClass(table=np.array([[1, 2]]), num_actions=2)
        with pytest.raises(ValueError, match="contexts but"):
            best_policy_loss(pc, [0, 1], np.zeros((3, 2)))

    @pytest.mark.parametrize("context", [-1, 2])
    def test_rejects_out_of_universe_context(self, context):
        pc = PolicyClass(table=np.array([[1, 2]]), num_actions=2)
        with pytest.raises(ValueError, match="universe"):
            best_policy_loss(pc, [0, context], np.zeros((2, 2)))

    def test_matches_loop_enumeration(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n, u, k, t = 7, 4, 3, int(rng.integers(1, 15))
            pc = PolicyClass(table=rng.integers(1, k + 1, size=(n, u)), num_actions=k)
            contexts = rng.integers(0, u, size=t)
            costs = rng.random((t, k))
            expected = min(
                sum(costs[i, action_of(pc, p, contexts[i]) - 1] for i in range(t))
                for p in range(pc.num_policies)
            )
            assert best_policy_loss(pc, contexts, costs) == pytest.approx(expected)


class TestFlatAggregationExactness:
    """The reference comparator's flat ``bincount`` and policy-major gather equal the per-action loop exactly."""

    def test_context_action_sums(self):
        for pc, contexts, losses in exactness_instances(np.random.default_rng(11)):
            got = context_action_sums(contexts, losses, pc.num_contexts)
            assert np.array_equal(got, loop_per_context(contexts, losses, pc.num_contexts))

    def test_best_policy_loss(self):
        for pc, contexts, costs in exactness_instances(np.random.default_rng(14)):
            assert best_policy_loss(pc, contexts, costs) == loop_value(pc, contexts, costs)


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

    @pytest.mark.parametrize("mesh", [-1.0, -0.25, 0.0, 1.5, math.nan])
    def test_rejects_mesh_outside_the_unit_interval(self, mesh):
        # -1 used to give an empty grid, 0 a ZeroDivisionError
        message = re.escape(f"mesh must lie in (0, 1], got {mesh}")
        with pytest.raises(ValueError, match=message):
            simplex_grid(2, mesh)
        with pytest.raises(ValueError, match=message):
            brute_force_minimax(make_scores([0.0, 1.0, 2.0], 4.0), 4.0, mesh)
        with pytest.raises(ValueError, match=message):
            cost_grid(2, mesh)

    def test_cost_grid_corners(self):
        assert cost_grid(2, 1.0).tolist() == [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]
        assert cost_grid(3, 0.25).shape == (125, 3)


class TestOracleScores:
    def test_gap_derivation(self):
        scores = make_scores([1.0, 3.0, 1.0], scale=4.0)
        np.testing.assert_allclose(scores.gaps, [0.5, 0.0])


class TestWaterFill:
    def test_mixed_gaps(self):
        # fill gives (0.5, 0, 0.3); the leftover 0.2 goes to the largest gap
        q = water_fill([0.5, -0.2, 0.3])
        np.testing.assert_allclose(q.probs, [0.7, 0.0, 0.3])

    def test_all_negative_goes_to_lowest_index(self):
        q = water_fill([-1.0, -1.0])
        np.testing.assert_allclose(q.probs, [1.0, 0.0])

    def test_mass_exhausts_in_order(self):
        q = water_fill([0.8, 0.9])
        np.testing.assert_allclose(q.probs, [0.8, 0.2])

    def test_always_a_valid_distribution(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            k = int(rng.integers(2, 7))
            gaps = rng.normal(0.0, 2.0, size=k)
            q = water_fill(gaps)
            assert q.probs.min() >= 0.0
            assert q.probs.sum() == pytest.approx(1.0, abs=1e-12)


class TestInnerSupValue:
    def test_uniform_zero_scores(self):
        # z = (2, 2), z0 = 0: value (2 + 2)/4 = 1
        scores = make_scores([0.0, 0.0, 0.0], scale=4.0)
        value = inner_sup_value(ActionDistribution.uniform(2), scores, 4.0)
        assert value == pytest.approx(1.0)

    def test_constructed_cancellation(self):
        # minima[i] = scale*q_i + minima[0] makes every spike worthless
        rng = np.random.default_rng(4)
        q = rng.random(3)
        q /= q.sum()
        base = 1.7
        minima = np.concatenate([[base], 6.0 * q + base])
        scores = make_scores(minima, scale=6.0)
        assert inner_sup_value(q, scores, 6.0) == pytest.approx(-base)

    def test_scale_below_action_count_rejected(self):
        scores = make_scores([0.0, 1.0, 2.0], scale=4.0)
        with pytest.raises(ValueError, match="scale"):
            inner_sup_value(ActionDistribution.uniform(2), scores, 1.5)

    def test_matches_vertex_enumeration(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            k = int(rng.integers(2, 4))
            scale = float(rng.uniform(k, 4 * k))
            minima = np.concatenate([[rng.normal()], rng.normal(0, scale, size=k)])
            scores = make_scores(minima, scale)
            raw = rng.random(k)
            q = raw / raw.sum()
            closed = inner_sup_value(q, scores, scale)
            vertex = sup_by_vertex_enumeration(q, scores, scale)
            assert closed == pytest.approx(vertex, abs=1e-9)

    def test_objective_affine_in_capped_residuals(self):
        # value(q) = sum_i max(q_i - gap_i, 0) - minima[0]; ranking over q is
        # therefore identical to ranking by the capped-residual sum alone
        rng = np.random.default_rng(6)
        scale = 5.0
        minima = np.concatenate([[rng.normal()], rng.normal(0, scale, size=3)])
        scores = make_scores(minima, scale)
        qs = rng.dirichlet(np.ones(3), size=50)
        values = inner_sup_values(qs, scores, scale)
        residuals = np.maximum(qs - scores.gaps, 0.0).sum(axis=1)
        np.testing.assert_allclose(values, residuals - minima[0], atol=1e-12)
        np.testing.assert_array_equal(np.argsort(values), np.argsort(residuals))


class TestRelaxationValue:
    def test_full_history_zero_estimates(self):
        pc = PolicyClass(table=np.array([[1], [2]]), num_actions=2)
        cfg = LearnerConfig(K=2, T=3, scale=4.0)
        history = [make_record(0, 0, 2)] * 3
        rho = sample_future(3, cfg, ContextDistribution.uniform(1), np.random.default_rng(0))
        past = past_loss_matrix(history, 1, 2)
        assert relaxation_value(past, 3, rho, cfg, ValueOracle(pc)) == pytest.approx(0.0)

    def test_empty_history_all_zero_magnitudes(self):
        # no perturbation hits: value is the full exploration budget T*K/scale
        pc = PolicyClass(table=np.array([[1, 2], [2, 1]]), num_actions=2)
        cfg = LearnerConfig(K=2, T=6, scale=4.0)
        zero_draw = np.zeros((2, 2), dtype=np.int64)
        value = relaxation_value(zeros((2, 2)), 0, zero_draw, cfg, ValueOracle(pc))
        assert value == pytest.approx(6 * 2 / 4.0)

    def test_matches_enumeration_plus_offset(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            k, u, n, horizon = 2, 3, 5, 7
            scale = 4.0
            pc = random_policy_class(n, u, k, rng)
            cfg = LearnerConfig(K=k, T=horizon, scale=scale)
            t = int(rng.integers(0, horizon + 1))
            history = []
            for _ in range(t):
                action = int(rng.integers(1, k + 1))
                coin = int(rng.integers(2))
                est = action if coin else 0
                history.append(make_record(int(rng.integers(u)), est, k, action))
            rho = sample_future(t, cfg, ContextDistribution.uniform(u), rng)
            best = math.inf
            for p in range(n):
                total = 0.0
                for rec in history:
                    if rec.estimate == action_of(pc, p, rec.context):
                        total += scale
                for x in range(u):
                    total += 2.0 * scale * rho[x, action_of(pc, p, x) - 1]
                best = min(best, total)
            expected = -best + (horizon - t) * k / scale
            got = relaxation_value(past_loss_matrix(history, u, k), t, rho, cfg, ValueOracle(pc))
            assert got == pytest.approx(expected, abs=1e-9)

    def test_single_oracle_call(self):
        pc = PolicyClass(table=np.array([[1], [2]]), num_actions=2)
        cfg = LearnerConfig(K=2, T=2, scale=4.0)
        oracle = ValueOracle(pc)
        rho = sample_future(0, cfg, ContextDistribution.uniform(1), np.random.default_rng(3))
        relaxation_value(zeros((1, 2)), 0, rho, cfg, oracle)
        assert oracle.stats.calls == 1


class TestMinimizerAgainstGrid:
    def test_water_fill_attains_grid_minimum(self):
        """The water-filled point is never worse than a fine grid search."""
        rng = np.random.default_rng(9)
        for k in (2, 3):
            mesh = 1e-3
            for mult in (1, 2):
                scale = float(k * mult)
                for _ in range(10):
                    minima = np.concatenate([[0.0], rng.normal(0.0, scale, size=k)])
                    scores = make_scores(minima, scale)
                    achieved = inner_sup_value(water_fill(scores.gaps), scores, scale)
                    _, grid_min = brute_force_minimax(scores, scale, mesh)
                    assert achieved <= grid_min + scale * mesh + 1e-6


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


class TestSpikePayoffs:
    """The closed form and the vertex sweep share their argument checks."""

    @pytest.mark.parametrize("reference", [inner_sup_value, sup_by_vertex_enumeration])
    def test_rejects_mismatched_k_and_small_scale(self, reference):
        scores = make_scores([0.0, 1.0, 2.0], scale=4.0)
        with pytest.raises(ValueError, match="play distributions have 3 actions, the scores 2"):
            reference(np.full(3, 1 / 3), scores, 4.0)
        with pytest.raises(ValueError, match="scale must be >= K, got scale=1.5, K=2"):
            reference(np.full(2, 0.5), scores, 1.5)


class TestMinimaxCheck:
    def test_passes_and_draws_as_documented(self):
        rng = np.random.default_rng(21)
        cases = [(2, 1e-3, 6), (3, 1e-2, 3)]
        ok, worst_gap = minimax_check(cases, rng)
        assert ok and 0.0 <= worst_gap <= 1e-12
        twin = np.random.default_rng(21)
        for k, _, count in cases:
            for _ in range(count):
                twin.integers(1, 3)
                twin.normal(0.0, 1.0, size=k)
        assert rng.random() == twin.random()

    def test_slack_sets_what_a_wrong_minimizer_can_hide(self, monkeypatch):
        # the grid minimum is never below the exact one, so only a wrong
        # minimizer can fail: uniform play fails against a fine grid, while
        # a mesh of 1/2 puts uniform play on the grid and its slack hides it
        monkeypatch.setattr(verify, "water_fill", lambda gaps: ActionDistribution.uniform(len(gaps)))
        ok, worst_gap = minimax_check([(2, 1e-3, 20)], np.random.default_rng(22))
        assert not ok and worst_gap > 2 * 1e-3
        ok, worst_gap = minimax_check([(2, 0.5, 20)], np.random.default_rng(22))
        assert ok and worst_gap <= 1.0  # values differ by at most |q - q'|_1, 1 from uniform to any K=2 grid point


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

    @pytest.mark.parametrize("costs", [[0.5, 0.5], [0.5] * 5, [[0.5, 0.5, 0.5]]], ids=["short", "long", "2-d"])
    def test_rejects_costs_of_another_shape(self, costs):
        with pytest.raises(ValueError, match=re.escape(f"costs has shape {np.shape(costs)}, expected (3,)")):
            unbiasedness_check(3, 6.0, 200, np.random.default_rng(0), costs=costs)

    @pytest.mark.parametrize("bad", [-0.1, 1.5, math.nan])
    def test_rejects_costs_outside_the_unit_interval(self, bad):
        with pytest.raises(ValueError, match=r"costs must lie in \[0, 1\]"):
            unbiasedness_check(3, 6.0, 200, np.random.default_rng(0), costs=[0.5, bad, 0.5])

    def test_rejects_zero_draws(self):
        with pytest.raises(ValueError, match="draws must be >= 1, got 0"):
            unbiasedness_check(3, 6.0, 0, np.random.default_rng(0))

    @pytest.mark.parametrize("scale", [2.0, 3.9, math.nan])
    def test_rejects_scale_below_num_actions_before_any_draw(self, scale):
        # 2.0 and 3.9 used to fail only inside the loop, at the coin's floor
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match=re.escape(f"scale must be >= num_actions, got scale={scale}, num_actions=4")):
            unbiasedness_check(4, scale, 100, rng)
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


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

    @pytest.mark.parametrize("field", ["samples", "horizon"])
    def test_rejects_zero_samples_or_horizon(self, field):
        sizes = {"samples": 100, "horizon": 50, field: 0}
        with pytest.raises(ValueError, match=f"{field} must be >= 1, got 0"):
            rademacher_bound_check(
                moment_bound=8.0, num_policies=8, scale=4.0, num_actions=2, num_contexts=3,
                rng=np.random.default_rng(0), **sizes,
            )

    @pytest.mark.parametrize(
        "horizon, num_policies, scale, moment_bound, num_actions, samples, z_prob",
        [
            (200, 16, 4.0, 8.0, 2, 3000, None),   # the relaxcb verify shape, three chunks
            (200, 16, 3.0, 6.0, 2, 500, None),    # an odd integer scale
            (100, 1, 4.0, 8.0, 2, 700, None),     # one policy
            (50, 8, 4.0, 8.0, 2, 300, 0.0),       # no magnitude ever hits
            (120, 12, 6.0, 18.0, 3, 900, None),   # three actions
            (1000, 3, 4.0, 8.0, 2, 2600, None),   # blocks of 2500: a three-chunk block, then a short one
        ],
        ids=["verify", "scale-3", "one-policy", "z-prob-0", "three-actions", "blocks"],
    )
    def test_equals_the_per_policy_loop(self, horizon, num_policies, scale, moment_bound, num_actions, samples, z_prob):
        args = (horizon, moment_bound, num_policies, scale, num_actions, 4, samples)
        check = rademacher_bound_check(*args, np.random.default_rng(12), z_prob=z_prob)
        empirical, stderr = reference_rademacher_bound_check(*args, np.random.default_rng(12), z_prob=z_prob)
        assert check.empirical == empirical
        assert check.stderr == stderr

    def test_non_dyadic_scale_matches_the_per_policy_loop(self):
        # sums of 4.7 round in the order they are added, so only closeness holds
        args = (200, 10.0, 16, 4.7, 2, 4, 2500)
        check = rademacher_bound_check(*args, np.random.default_rng(13))
        empirical, stderr = reference_rademacher_bound_check(*args, np.random.default_rng(13))
        assert check.empirical == pytest.approx(empirical, rel=1e-12)
        assert check.stderr == pytest.approx(stderr, rel=1e-12)

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

    def test_rejects_zero_draws(self):
        rng = np.random.default_rng(10)
        pc = random_policy_class(4, 2, 2, rng)
        cfg = LearnerConfig(K=2, T=2, scale=3.0)
        with pytest.raises(ValueError, match="draws must be >= 1, got 0"):
            admissibility_check(pc, cfg, ContextDistribution.uniform(2), [], 0, rng)

    @pytest.mark.parametrize("mesh", [-0.25, 0.0])
    def test_rejects_mesh_before_any_draw(self, mesh):
        # -0.25 used to spend every draw and then fail on an empty argmax, 0 raised ZeroDivisionError
        rng = np.random.default_rng(10)
        pc = random_policy_class(4, 2, 2, rng)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="mesh must lie in"):
            admissibility_check(pc, LearnerConfig(K=2, T=2, scale=3.0), ContextDistribution.uniform(2), [], 50, rng, mesh)
        assert rng.bit_generator.state == state

    def test_rejects_exhausted_horizon(self):
        rng = np.random.default_rng(10)
        pc = random_policy_class(4, 2, 2, rng)
        cfg = LearnerConfig(K=2, T=1, scale=3.0)
        dist = ContextDistribution.uniform(2)
        history = [RelaxationLearner(cfg, ValueOracle(pc), dist).play_round(0, lambda a: 0.5, rng)]
        with pytest.raises(ValueError, match="horizon"):
            admissibility_check(pc, cfg, dist, history, 10, rng)


class TestFrozenResults:
    """Seeded results of the Monte Carlo suites, pinned with ``==`` so a faster path cannot move them."""

    def test_admissibility_without_history(self):
        rng = np.random.default_rng(8)
        pc = random_policy_class(4, 2, 2, rng)
        cfg = LearnerConfig(K=2, T=2, scale=3.0)
        res = admissibility_check(pc, cfg, ContextDistribution.uniform(2), [], 300, rng)
        assert (res.lhs, res.rhs, res.lhs_stderr, res.rhs_stderr, res.draws, res.round_index) == (
            3.4283333333333332, 5.213333333333333, 0.25574141166330333, 0.3438207513081494, 300, 1,
        )

    def test_admissibility_with_history(self):
        rng = np.random.default_rng(9)
        pc = random_policy_class(4, 2, 2, rng)
        cfg = LearnerConfig(K=2, T=4, scale=3.0)
        dist = ContextDistribution.uniform(2)
        learner = RelaxationLearner(cfg, ValueOracle(pc), dist)
        costs = rng.random(2)
        history = [learner.play_round(dist.sample(rng), lambda a: costs[a - 1], rng) for _ in range(2)]
        assert [rec.estimate for rec in history] == [1, 2]
        res = admissibility_check(pc, cfg, dist, history, 300, rng)
        assert (res.lhs, res.rhs, res.lhs_stderr, res.rhs_stderr, res.draws, res.round_index) == (
            0.8499999999999996, 1.8733333333333333, 0.24655749489844817, 0.3835601577964393, 300, 3,
        )

    def test_unbiasedness_means(self):
        res = unbiasedness_check(4, 8.0, 3000, np.random.default_rng(2))
        assert res.means.tolist() == [0.5733333333333334, 0.72, 0.176, 0.056]
        assert res.sigmas.tolist() == [0.6957264875490179, 0.2037126994051547, 0.5380198044039984, 0.07061499524460732]

    def test_unbiasedness_means_with_given_costs(self):
        res = unbiasedness_check(3, 6.0, 3000, np.random.default_rng(3), costs=[0.25, 0.9, 0.6])
        assert res.means.tolist() == [0.294, 0.858, 0.602]
        assert res.sigmas.tolist() == [2.010061647334965, 1.0737509843863196, 0.060858061945018506]
