"""Learner operations: tuning, sampling, scoring, vertex plays, stepping, and the oracle-only contract.

The real-valued minimax reference the vertex plays are checked against
(``relaxcb.verify``: scores, water-filling, the inner supremum and the
potential) is exercised here too, through the package exports.
"""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from relaxcb import (
    ActionDistribution,
    ContextDistribution,
    ContextSequence,
    EstimatedCost,
    HistoryRecord,
    LearnerConfig,
    OracleScores,
    PolicyClass,
    RelaxationLearner,
    UniformLearner,
    ValueOracle,
    admissibility_check,
    in_tuning_regime,
    inner_sup_value,
    inner_sup_values,
    oracle_scores,
    play_distribution,
    random_policy_class,
    relaxation_value,
    run_experiment,
    sample_future,
    sup_by_vertex_enumeration,
    tune_scale,
    water_fill,
)
from relaxcb import learner as learner_module
from relaxcb.learner import past_loss_matrix
from relaxcb.verify import brute_force_minimax
from test_verify import make_scores


class TestLearnerConfig:
    def test_validates(self):
        with pytest.raises(ValueError, match="scale"):
            LearnerConfig(K=3, T=10, scale=2.0)
        with pytest.raises(ValueError, match="actions"):
            LearnerConfig(K=1, T=10, scale=4.0)


class TestTuneScale:
    def test_arithmetic_example(self):
        # (8 * 1000 / ln 20) ** (1/3), frozen from the closed form
        assert tune_scale(8, 1000, 20) == pytest.approx(13.8737, abs=1e-3)

    def test_short_horizon_clamps_to_action_count(self):
        # K=2, N=20: the clamp binds exactly when T < 4 * ln 20 ~ 11.98
        assert tune_scale(2, 11, 20) == 2.0
        assert not in_tuning_regime(2, 11, 20)
        assert tune_scale(2, 12, 20) == pytest.approx((2 * 12 / math.log(20)) ** (1 / 3))
        assert in_tuning_regime(2, 12, 20)

    def test_boundary_returns_action_count(self):
        # T chosen so the cube root lands exactly on K
        k, n = 3, 10
        t = k**2 * math.log(n)
        assert tune_scale(k, math.ceil(t), n) >= k

    def test_needs_two_policies(self):
        with pytest.raises(ValueError, match="policies"):
            tune_scale(2, 100, 1)


class TestSampleFuture:
    def config(self, k=2, t=10, scale=4.0):
        return LearnerConfig(K=k, T=t, scale=scale)

    def test_empty_at_horizon(self):
        rng = np.random.default_rng(0)
        draw = sample_future(10, self.config(), ContextDistribution.uniform(3), rng)
        assert draw.shape == (3, 2)
        assert not draw.any()

    def test_beyond_horizon_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="horizon"):
            sample_future(11, self.config(), ContextDistribution.uniform(3), rng)

    def test_scale_equal_actions_makes_all_magnitudes_hit(self):
        # hit probability K/scale = 1: each of the 9 remaining rounds adds a
        # +-1 to every entry of the single context's row, so every entry is odd
        rng = np.random.default_rng(1)
        cfg = self.config(t=9, scale=2.0)
        for _ in range(200):
            draw = sample_future(0, cfg, ContextDistribution.uniform(1), rng)
            assert np.all(draw % 2 == 1) and np.all(np.abs(draw) <= 9)

    def test_magnitude_frequency(self):
        # one remaining round: the draw is nonzero exactly when it hits;
        # hit frequency within 3 sigma of K/scale = 0.5
        rng = np.random.default_rng(2)
        cfg = LearnerConfig(K=2, T=1, scale=4.0)
        dist = ContextDistribution.uniform(2)
        draws = 20_000
        hits = sum(sample_future(0, cfg, dist, rng).any() for _ in range(draws))
        p = 2.0 / 4.0
        assert abs(hits / draws - p) <= 3 * math.sqrt(p * (1 - p) / draws)

    def test_sign_frequency(self):
        # one remaining round that always hits: each row sum is one sign vector
        rng = np.random.default_rng(3)
        cfg = LearnerConfig(K=3, T=1, scale=3.0)
        draws = 20_000
        dist = ContextDistribution.uniform(2)
        signs = np.array([sample_future(0, cfg, dist, rng).sum(axis=0) for _ in range(draws)])
        assert np.all(np.abs(signs) == 1)
        freq = np.mean(signs == 1, axis=0)
        assert np.all(np.abs(freq - 0.5) <= 3 * math.sqrt(0.25 / draws))

    def test_transductive_copies_the_known_future(self):
        # every round hits, so each row holds its context's suffix count of
        # +-1 signs: parity and size follow the known future, and context 3,
        # absent from the suffix, stays zero
        rng = np.random.default_rng(4)
        cfg = self.config(scale=2.0)
        seq = np.array([3, 3, 3, 3, 0, 1, 1, 2, 2, 2])
        counts = np.bincount(seq[4:], minlength=4)
        for _ in range(100):
            draw = sample_future(4, cfg, ContextSequence(seq, 4), rng)
            assert np.all(np.abs(draw) <= counts[:, None])
            assert np.all((draw - counts[:, None]) % 2 == 0)
            assert not draw[3].any()

    def test_transductive_needs_full_sequence(self):
        rng = np.random.default_rng(5)
        cfg = self.config()
        with pytest.raises(ValueError, match="length"):
            sample_future(4, cfg, ContextSequence(np.zeros(7, dtype=int), 1), rng)


class TestContextSourceSize:
    """Every entry point checks the context source's U and the config's K against the class."""

    pc = PolicyClass(table=np.array([[1, 2], [2, 1], [1, 1], [2, 2]]), num_actions=2)
    cfg = LearnerConfig(K=2, T=3, scale=3.0)

    @pytest.mark.parametrize("u", [3, 1])
    def test_distribution_size_mismatch(self, u):
        dist = ContextDistribution.uniform(u)
        rng = np.random.default_rng(0)
        message = f"context distribution has {u} contexts, the policy class has 2"
        with pytest.raises(ValueError, match=message):
            RelaxationLearner(self.cfg, ValueOracle(self.pc), dist)
        # sample_future draws a (u, K) matrix; the scoring rejects it before any call
        oracle = ValueOracle(self.pc)
        with pytest.raises(ValueError, match="shape"):
            oracle_scores(zeros((2, 2)), 0, sample_future(0, self.cfg, dist, rng), self.cfg, oracle)
        assert oracle.stats.calls == 0
        with pytest.raises(ValueError, match=message):
            admissibility_check(self.pc, self.cfg, dist, [], 5, rng)

    @pytest.mark.parametrize("u", [3, 1])
    def test_sequence_size_mismatch(self, u):
        seq = ContextSequence(np.zeros(3, dtype=int), u)
        with pytest.raises(ValueError, match=f"context sequence has {u} contexts, the policy class has 2"):
            RelaxationLearner(self.cfg, ValueOracle(self.pc), seq)

    def test_transductive_needs_a_sequence(self):
        # a bare id array is neither source: the known sequence must come as a ContextSequence
        seq = np.array([0, 1, 1])
        rng = np.random.default_rng(0)
        with pytest.raises(TypeError, match="ContextDistribution or a ContextSequence, got ndarray"):
            RelaxationLearner(self.cfg, ValueOracle(self.pc), seq)
        with pytest.raises(TypeError, match="ContextDistribution or a ContextSequence, got ndarray"):
            sample_future(0, self.cfg, seq, rng)
        # the one-step check averages over the current context, so a known sequence is refused
        with pytest.raises(TypeError, match="needs a ContextDistribution"):
            admissibility_check(self.pc, self.cfg, ContextSequence(seq, 2), [], 5, rng)
        assert rng.random() == np.random.default_rng(0).random()

    @pytest.mark.parametrize("bad", [2, -1])
    def test_transductive_id_out_of_range(self, bad):
        # checked once, when the sequence is built, before a learner or a draw can see it
        with pytest.raises(ValueError, match=f"context id {bad} outside 0..1 of a 2-context class"):
            ContextSequence(np.array([0, bad, 1]), 2)

    def test_action_count_mismatch(self):
        cfg = LearnerConfig(K=3, T=3, scale=3.0)
        oracle = ValueOracle(self.pc)
        message = "config has K=3 actions, the policy class has 2"
        with pytest.raises(ValueError, match=message):
            RelaxationLearner(cfg, oracle, ContextDistribution.uniform(2))
        with pytest.raises(ValueError, match=message):
            admissibility_check(self.pc, cfg, ContextDistribution.uniform(2), [], 5, np.random.default_rng(0))
        # the functional path reads K from the oracle too, and refuses before any call
        with pytest.raises(ValueError, match=message):
            oracle_scores(zeros((2, 2)), 0, zeros((2, 2)), cfg, oracle)
        with pytest.raises(ValueError, match=message):
            relaxation_value(zeros((2, 2)), 0, zeros((2, 2)), cfg, oracle)
        assert oracle.stats.calls == 0


def action_of(policy_class, policy, context):
    """The 1-based action ``policy`` plays on ``context``."""
    return int(policy_class.table[policy, context])


def zeros(shape):
    """An all-zero int64 count matrix."""
    return np.zeros(shape, dtype=np.int64)


def make_record(context, estimate, k, action=1):
    """A recorded round with ``estimate``; only its context and estimate enter the past matrix."""
    action = estimate.coordinate or action
    return HistoryRecord(
        context=context,
        played_dist=ActionDistribution.uniform(k),
        played_action=action,
        observed_cost=0.5,
        estimate=estimate,
    )


class TestOracleScores:
    def test_gap_derivation(self):
        scores = make_scores([1.0, 3.0, 1.0], scale=4.0)
        np.testing.assert_allclose(scores.gaps, [0.5, 0.0])

    def test_two_constant_policies_no_past_no_future(self):
        # both actions covered: charging either action leaves the other
        # policy free, so every minimum is zero
        pc = PolicyClass(table=np.array([[1], [2]]), num_actions=2)
        cfg = LearnerConfig(K=2, T=1, scale=2.0)
        rng = np.random.default_rng(0)
        rho = sample_future(1, cfg, ContextDistribution.uniform(1), rng)
        assert oracle_scores(zeros((1, 2)), 0, rho, cfg, ValueOracle(pc)) == (0, 0, 0)

    def test_singleton_class_charges_its_action(self):
        pc = PolicyClass(table=np.array([[1]]), num_actions=3)
        cfg = LearnerConfig(K=3, T=1, scale=5.0)
        rng = np.random.default_rng(0)
        rho = sample_future(1, cfg, ContextDistribution.uniform(1), rng)
        # one coin on action 1, the only action the class plays
        assert oracle_scores(zeros((1, 3)), 0, rho, cfg, ValueOracle(pc)) == (0, 1, 0, 0)

    def test_exactly_k_plus_one_oracle_calls(self):
        rng = np.random.default_rng(1)
        pc = random_policy_class(6, 3, 4, rng)
        cfg = LearnerConfig(K=4, T=8, scale=6.0)
        oracle = ValueOracle(pc)
        rho = sample_future(1, cfg, ContextDistribution.uniform(3), rng)
        answers = oracle_scores(zeros((3, 4)), 0, rho, cfg, oracle)
        assert oracle.stats.calls == 5
        assert type(answers) is tuple and len(answers) == 5
        assert all(type(answer) is int for answer in answers)  # Python ints, not numpy scalars

    def test_matches_loop_enumeration(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            k, u, n, horizon = 3, 4, 6, 9
            scale = float(rng.uniform(k, 3 * k))
            pc = random_policy_class(n, u, k, rng)
            cfg = LearnerConfig(K=k, T=horizon, scale=scale)
            t = int(rng.integers(1, horizon + 1))
            history = []
            for _ in range(t - 1):
                action = int(rng.integers(1, k + 1))
                coin = int(rng.integers(2))
                history.append(
                    HistoryRecord(
                        context=int(rng.integers(u)),
                        played_dist=ActionDistribution.uniform(k),
                        played_action=action,
                        observed_cost=0.5,
                        estimate=EstimatedCost(action if coin else 0),
                    )
                )
            rho = sample_future(t, cfg, ContextDistribution.uniform(u), rng)
            x_t = int(rng.integers(u))
            answers = oracle_scores(past_loss_matrix(history, u, k), x_t, rho, cfg, ValueOracle(pc))
            # integer answers: every gap is exactly 0 or 1, and at most one is 1
            gaps = [answer - answers[0] for answer in answers[1:]]
            assert set(gaps) <= {0, 1} and sum(gaps) <= 1
            # the loop in coin units: one per recorded coin, one for the charge, 2 per future sign
            for i in range(k + 1):
                best = math.inf
                for p in range(n):
                    total = 0
                    for rec in history:
                        if rec.estimate.coordinate == action_of(pc, p, rec.context):
                            total += 1
                    if i and action_of(pc, p, x_t) == i:
                        total += 1
                    for x in range(u):
                        total += 2 * int(rho[x, action_of(pc, p, x) - 1])
                    best = min(best, total)
                assert answers[i] == best


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


def vertex_answers(k, base=0):
    """Every vertex of ``k`` actions as K+1 integer answers: all gaps zero, then each one-hot gap in order."""
    return [(base,) * (k + 1)] + [(base, *(base + int(a == i) for a in range(k))) for i in range(k)]


class TestVertexPlay:
    """A round plays one of K distributions, built and validated once per config."""

    def test_mixing_arithmetic(self):
        # vertex e_1 mixed at K/scale = 0.5 with uniform: 0.5 * (1, 0) + 0.25
        dist = play_distribution((0, 1, 0), LearnerConfig(K=2, T=5, scale=4.0))
        np.testing.assert_allclose(dist.probs, [0.75, 0.25])

    def test_scale_equal_actions_gives_uniform(self):
        cfg = LearnerConfig(K=2, T=5, scale=2.0)
        for answers in vertex_answers(2):
            dist = play_distribution(answers, cfg)
            np.testing.assert_allclose(dist.probs, 0.5)

    @pytest.mark.parametrize("k,scale", [(2, 2.0), (2, 7.3), (3, 4.5), (5, 5.0), (5, 13.67), (8, 40.0)])
    def test_bit_identical_to_two_validated_distributions(self, k, scale):
        cfg = LearnerConfig(K=k, T=10, scale=scale)
        mix = 1.0 - k / scale
        for answers in vertex_answers(k, base=17):
            got = play_distribution(answers, cfg)
            gaps = np.subtract(answers[1:], answers[0]).astype(float)
            old = ActionDistribution(mix * water_fill(gaps).probs + 1.0 / scale)
            assert np.array_equal(got.probs.view(np.uint64), old.probs.view(np.uint64))
            assert not got.probs.flags.writeable
            assert got.probs.min() >= 1.0 / scale - 1e-12

    @pytest.mark.parametrize(
        "answers",
        [
            (0, 0.6, 0.4, 0),
            (0, 1, 1, 0),
            (0, math.nan, 0, 0),
            (0, -1, 0, 0),
            (0, 0, 1),
            (0.5, 1.5, 0.5, 0.5),
            (math.nan, 0, 0, 0),
        ],
        ids=["fractional", "two-ones", "nan", "negative", "wrong-length", "fractional-base", "nan-base"],
    )
    def test_non_vertex_gaps_rejected(self, answers):
        with pytest.raises(ValueError, match="not a vertex of 3 actions"):
            play_distribution(answers, LearnerConfig(K=3, T=5, scale=4.0))

    def test_every_round_plays_a_vertex(self, monkeypatch):
        original = RelaxationLearner.play_round
        plays = []

        def recording(self, *args):
            record = original(self, *args)
            plays.append(any(record.played_dist is play for play in self.config.vertex_plays))
            return record

        monkeypatch.setattr(RelaxationLearner, "play_round", recording)
        # K=5, N=50, U=10, T=2000, stochastic-gap; one replication
        config = json.loads((Path(__file__).resolve().parent.parent / "docs" / "example_config.json").read_text())
        run_experiment({**config, "reps": 1})
        assert len(plays) == 2000 and all(plays)

    def test_plays_are_not_a_field(self):
        cfg = LearnerConfig(K=3, T=5, scale=4.0)
        plays = cfg.vertex_plays
        assert cfg.vertex_plays is plays  # built once
        twin = LearnerConfig(K=3, T=5, scale=4.0)
        assert twin == cfg and hash(twin) == hash(cfg)
        wider = dataclasses.replace(cfg, scale=6.0)
        assert wider.vertex_plays is not plays
        np.testing.assert_allclose(wider.vertex_plays[0].probs, [0.5 + 1 / 6, 1 / 6, 1 / 6])

    def test_engine_scores_match_from_minima(self):
        rng = np.random.default_rng(41)
        pc = random_policy_class(50, 10, 5, rng)
        cfg = LearnerConfig(K=5, T=40, scale=7.5)
        past = rng.integers(0, 3, size=(10, 5))
        for t in range(1, 41, 7):
            rho = sample_future(t, cfg, ContextDistribution.uniform(10), rng)
            answers = oracle_scores(past, int(rng.integers(10)), rho, cfg, ValueOracle(pc))
            gaps = [answer - answers[0] for answer in answers[1:]]
            assert set(gaps) <= {0, 1}
            # the real-valued engine on scale times the answers prices the same gaps
            scores = OracleScores.from_minima(cfg.scale * np.array(answers), cfg.scale)
            np.testing.assert_allclose(scores.gaps, gaps, rtol=0.0, atol=1e-12)


class TestRelaxationValue:
    def test_full_history_zero_estimates(self):
        pc = PolicyClass(table=np.array([[1], [2]]), num_actions=2)
        cfg = LearnerConfig(K=2, T=3, scale=4.0)
        history = [make_record(0, EstimatedCost(0), 2)] * 3
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
                est = EstimatedCost(action if coin else 0)
                history.append(make_record(int(rng.integers(u)), est, k, action))
            rho = sample_future(t, cfg, ContextDistribution.uniform(u), rng)
            best = math.inf
            for p in range(n):
                total = 0.0
                for rec in history:
                    if rec.estimate.coordinate == action_of(pc, p, rec.context):
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


class TestPastMatrix:
    """The functional path takes the (U, K) sum of the recorded estimates."""

    def test_wrong_shape_rejected(self):
        pc = PolicyClass(table=np.array([[1, 2], [2, 1]]), num_actions=2)
        cfg = LearnerConfig(K=2, T=3, scale=4.0)
        rho = sample_future(1, cfg, ContextDistribution.uniform(2), np.random.default_rng(0))
        oracle = ValueOracle(pc)
        for bad in (zeros((2, 3)), zeros((1, 2)), zeros(4)):
            for past, draw in ((bad, rho), (zeros((2, 2)), bad)):
                with pytest.raises(ValueError, match="shape"):
                    oracle_scores(past, 0, draw, cfg, oracle)
                with pytest.raises(ValueError, match="shape"):
                    relaxation_value(past, 1, draw, cfg, oracle)
        assert oracle.stats.calls == 0

    @pytest.mark.parametrize("dtype", [np.float64, np.int32, np.bool_])
    def test_non_int64_rejected(self, dtype):
        # counts in scale units only: a float past (say, scale times the
        # counts) or draw is refused before any oracle call
        pc = PolicyClass(table=np.array([[1, 2], [2, 1]]), num_actions=2)
        cfg = LearnerConfig(K=2, T=3, scale=4.0)
        oracle = ValueOracle(pc)
        bad = np.zeros((2, 2), dtype=dtype)
        for past, draw in ((bad, zeros((2, 2))), (zeros((2, 2)), bad)):
            with pytest.raises(ValueError, match=f"must be int64 of shape \\(2, 2\\), got {np.dtype(dtype)}"):
                oracle_scores(past, 0, draw, cfg, oracle)
            with pytest.raises(ValueError, match="must be int64"):
                relaxation_value(past, 1, draw, cfg, oracle)
        assert oracle.stats.calls == 0

    def test_record_without_estimate_rejected(self):
        record = UniformLearner(2).play_round(1, lambda a: 0.5, np.random.default_rng(0))
        with pytest.raises(ValueError, match="round at context 1 has no estimate"):
            past_loss_matrix([record], 2, 2)

    def test_draw_longer_than_horizon_rejected(self):
        # a draw for rounds t+1..T with t outside 0..T covers more than the horizon
        pc = PolicyClass(table=np.array([[1], [2]]), num_actions=2)
        cfg = LearnerConfig(K=2, T=3, scale=4.0)
        rho = sample_future(0, cfg, ContextDistribution.uniform(1), np.random.default_rng(0))
        oracle = ValueOracle(pc)
        for t in (-1, 4):
            with pytest.raises(ValueError, match="horizon"):
                relaxation_value(zeros((1, 2)), t, rho, cfg, oracle)
        assert oracle.stats.calls == 0

    def test_charged_copy_equals_extended_history(self):
        # one coin at (x, a) added to a copy of the past gives the answers of
        # the count matrix of the history extended by that record
        rng = np.random.default_rng(12)
        k, u, horizon, scale = 3, 4, 8, 4.37
        pc = random_policy_class(7, u, k, rng)
        cfg = LearnerConfig(K=k, T=horizon, scale=scale)
        dist = ContextDistribution.uniform(u)
        costs = rng.random((horizon, k))
        learner = RelaxationLearner(cfg, ValueOracle(pc), dist)
        records = [
            learner.play_round(dist.sample(rng), lambda a: costs[t - 1, a - 1], rng) for t in range(1, 6)
        ]
        past = past_loss_matrix(records, u, k)
        assert past.any()
        oracle = ValueOracle(pc)
        t = len(records) + 1
        rho = sample_future(t, cfg, dist, rng)
        for x in range(u):
            for a in range(1, k + 1):
                charged = past.copy()
                charged[x, a - 1] += 1
                extended = past_loss_matrix([*records, make_record(x, EstimatedCost(a), k)], u, k)
                assert relaxation_value(charged, t, rho, cfg, oracle) == relaxation_value(
                    extended, t, rho, cfg, oracle
                )
                answers = oracle_scores(charged, x, rho, cfg, oracle)
                assert answers == oracle_scores(extended, x, rho, cfg, oracle)


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


class TestStep:
    def setup_instance(self, seed=0, k=2, u=2, n=4, horizon=3, scale=3.0):
        rng = np.random.default_rng(seed)
        pc = random_policy_class(n, u, k, rng)
        cfg = LearnerConfig(K=k, T=horizon, scale=scale)
        return pc, cfg, ContextDistribution.uniform(u)

    def test_oracle_budget_per_step(self):
        pc, cfg, dist = self.setup_instance()
        oracle = ValueOracle(pc)
        learner = RelaxationLearner(cfg, oracle, dist)
        rng = np.random.default_rng(1)
        costs = np.random.default_rng(2).random((3, 2))
        for t in range(1, 4):
            learner.play_round(dist.sample(rng), lambda a: costs[t - 1, a - 1], rng)
            assert oracle.stats.calls == t * (cfg.K + 1)

    def test_singleton_class_at_minimal_scale_plays_uniform(self):
        pc = PolicyClass(table=np.array([[1, 2]]), num_actions=2)
        cfg = LearnerConfig(K=2, T=4, scale=2.0)
        learner = RelaxationLearner(cfg, ValueOracle(pc), ContextDistribution.uniform(2))
        rng = np.random.default_rng(3)
        for _ in range(4):
            rec = learner.play_round(0, lambda a: 0.3, rng)
            np.testing.assert_allclose(rec.played_dist.probs, 0.5)

    def test_round_beyond_horizon_rejected(self):
        pc, cfg, dist = self.setup_instance(horizon=3)
        costs = np.random.default_rng(2).random((3, 2))
        rng = np.random.default_rng(1)
        learner = RelaxationLearner(cfg, ValueOracle(pc), dist)
        for t in range(1, 4):
            learner.play_round(dist.sample(rng), lambda a: costs[t - 1, a - 1], rng)
        with pytest.raises(ValueError, match="horizon"):
            learner.play_round(0, lambda a: 0.0, rng)

    @pytest.mark.parametrize("x_t", [-1, 3])
    def test_context_outside_the_class_rejected_before_any_call(self, x_t):
        pc, cfg, dist = self.setup_instance(u=3)
        oracle = ValueOracle(pc)
        learner = RelaxationLearner(cfg, oracle, dist)
        with pytest.raises(ValueError, match=f"context id {x_t} outside 0..2 of a 3-context class"):
            learner.play_round(x_t, lambda a: 0.5, np.random.default_rng(0))
        assert oracle.stats.calls == 0
        assert learner.round == 1

    @pytest.mark.parametrize("x_t", [1.0, np.float64(1.0)], ids=["float", "numpy-float"])
    def test_non_integer_context_rejected_before_any_call(self, x_t):
        pc, cfg, dist = self.setup_instance(u=3)
        oracle = ValueOracle(pc)
        learner = RelaxationLearner(cfg, oracle, dist)
        with pytest.raises(TypeError, match="context id 1.0 is not an integer"):
            learner.play_round(x_t, lambda a: 0.5, np.random.default_rng(0))
        assert oracle.stats.calls == 0
        assert learner.round == 1
        # numpy integer ids are integers
        learner.play_round(np.int64(1), lambda a: 0.5, np.random.default_rng(0))
        assert oracle.stats.calls == cfg.K + 1

    @pytest.mark.parametrize(
        "source, x_t, error",
        [
            (ContextDistribution.uniform(3), 3, ValueError),
            (ContextDistribution.uniform(3), 1.0, TypeError),
            (ContextSequence(np.array([1, 2, 0]), 3), 3, ValueError),
            (ContextSequence(np.array([1, 2, 0]), 3), 1.0, TypeError),  # 1.0 == the known id 1
            (ContextDistribution.uniform(3), True, TypeError),  # operator.index(True) is 1
            (ContextSequence(np.array([1, 2, 0]), 3), True, TypeError),  # True == the known id 1
        ],
        ids=[
            "iid-outside", "iid-float", "transductive-outside", "transductive-float", "iid-bool", "transductive-bool"
        ],
    )
    def test_rejected_round_draws_nothing(self, source, x_t, error):
        pc, cfg, _ = self.setup_instance(u=3)
        oracle = ValueOracle(pc)
        learner = RelaxationLearner(cfg, oracle, source)
        rng = np.random.default_rng(0)
        with pytest.raises(error, match="context id"):
            learner.play_round(x_t, lambda a: 0.5, rng)
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state
        assert learner.round == 1
        assert oracle.stats.calls == 0

    def test_transductive_context_must_be_the_known_one(self):
        pc, cfg, _ = self.setup_instance(u=3)
        oracle = ValueOracle(pc)
        learner = RelaxationLearner(cfg, oracle, ContextSequence(np.array([0, 2, 1]), 3))
        with pytest.raises(ValueError, match="round 1 has the known context 0, got 2"):
            learner.play_round(2, lambda a: 0.5, np.random.default_rng(0))
        assert oracle.stats.calls == 0
        assert learner.round == 1
        learner.play_round(0, lambda a: 0.5, np.random.default_rng(0))
        assert learner.round == 2


class TestOracleOnly:
    """The learner reaches the policy class only through the oracle's query shape and answers."""

    @pytest.mark.parametrize("transductive", [False, True], ids=["iid", "transductive"])
    def test_table_free_oracle_drives_a_full_run(self, transductive):
        rng = np.random.default_rng(17)
        k, u, n, horizon, scale = 3, 4, 9, 60, 5.5
        rows = rng.integers(0, k, size=(n, u)).tolist()  # 0-based actions, held by this test only
        contexts = rng.integers(0, u, size=horizon)
        costs = rng.random((horizon, k))

        class TableFreeOracle:
            """The query shape, ``value_arrays`` by enumeration over ``rows``, and a call count; nothing else."""

            __slots__ = ("shape", "calls")

            def __init__(self):
                self.shape = (u, k)
                self.calls = 0

            def value_arrays(self, losses):
                self.calls += 1
                return min(sum(int(losses[x, a]) for x, a in enumerate(row)) for row in rows)

        def run(oracle):
            cfg = LearnerConfig(K=k, T=horizon, scale=scale)
            source = ContextSequence(contexts, u) if transductive else ContextDistribution.uniform(u)
            learner = RelaxationLearner(cfg, oracle, source)
            play_rng = np.random.default_rng(5)
            records = [learner.play_round(int(x), lambda a: costs[t, a - 1], play_rng) for t, x in enumerate(contexts)]
            return [(r.played_action, r.played_dist.probs.tolist(), r.estimate.coordinate) for r in records]

        double = TableFreeOracle()
        real = ValueOracle(PolicyClass(table=np.array(rows) + 1, num_actions=k))
        assert run(double) == run(real)
        assert double.calls == real.stats.calls == horizon * (k + 1)


def reference_replay(table, num_actions, scale, contexts, costs, rng, probs=None):
    """A from-scratch replay of the learner in integer units.

    Consumes ``rng`` exactly as the randomness contract documents (hits,
    per-context counts, heads in row-major (u, k) order, action, coin; with
    ``probs=None`` the contexts are the known sequence, and binomial thinning
    of each context's suffix count replaces hits and counts).  Every policy
    keeps its coin count as a Python int, and each round's K+1 minima come
    from enumerating the table, independently of the library's aggregation,
    oracle and water-fill code.  Returns ``(play, action, coin, gaps)`` per
    round.
    """
    k = num_actions
    num_policies, u = table.shape
    horizon = len(contexts)
    coins = [0] * num_policies
    trace = []
    for t, x_t in enumerate(contexts, start=1):
        if probs is None:
            suffix = list(contexts[t:])
            counts = [rng.binomial(suffix.count(x), k / scale) for x in range(u)]
        else:
            counts = rng.multinomial(rng.binomial(horizon - t, k / scale), probs).tolist()
        # one scalar draw per entry, row by row: the sign sum of action a at context x
        sign_sums = [[2 * rng.binomial(counts[x], 0.5) - counts[x] for _ in range(k)] for x in range(u)]
        base = [
            coins[p] + sum(2 * sign_sums[x][table[p, x] - 1] for x in range(u)) for p in range(num_policies)
        ]
        low = min(base)
        # a charge on action i adds 1 to every policy that plays i at x_t
        gaps = [min(b + int(table[p, x_t] == i) for p, b in enumerate(base)) - low for i in range(1, k + 1)]
        q = np.zeros(k)
        m = 1.0
        for i in range(k):
            q[i] = min(max(gaps[i], 0), m)
            m -= q[i]
        if m > 0:
            q[int(np.argmax(gaps))] += m
        play = (1 - k / scale) * q + 1 / scale
        action = int(np.minimum(np.searchsorted(np.cumsum(play), rng.random(), side="right"), k - 1)) + 1
        cost = costs[t - 1, action - 1]
        coin = int(rng.random() < cost / (scale * play[action - 1]))
        if coin:
            for p in range(num_policies):
                if table[p, x_t] == action:
                    coins[p] += 1
        trace.append((play, action, coin, gaps))
    return trace


class TestGoldenTrace:
    """Rounds replayed against :func:`reference_replay`, a from-scratch reference in integer units."""

    TABLE = np.array([[1, 1], [2, 2], [1, 2], [2, 1]])
    COSTS = np.array([[0.2, 0.7], [0.9, 0.1], [0.4, 0.5]])
    CONTEXTS = [0, 1, 0]
    SCALE = 3.0
    SEED = 2024

    def reference_trace(self, transductive=False, rng=None):
        rng = np.random.default_rng(self.SEED) if rng is None else rng
        probs = None if transductive else np.full(2, 0.5)  # uniform context distribution over U=2
        return [
            (play, action, coin)
            for play, action, coin, _ in reference_replay(
                self.TABLE, 2, self.SCALE, self.CONTEXTS, self.COSTS, rng, probs
            )
        ]

    @pytest.mark.parametrize("setting", ["iid-sampler", "transductive"])
    def test_future_draw_matches_reference(self, setting):
        # steps 1-3 of the contract, one scalar draw at a time, on larger
        # shapes than the trace: same matrix, and the stream is left at the
        # same point
        k, u, horizon, scale = 3, 4, 40, 4.5
        cfg = LearnerConfig(K=k, T=horizon, scale=scale)
        probs = np.array([0.1, 0.2, 0.3, 0.4])
        seq = np.random.default_rng(7).integers(0, u, size=horizon)
        source = ContextSequence(seq, u) if setting == "transductive" else ContextDistribution(probs)
        for t in (0, 1, 17, 39, 40):
            ref = np.random.default_rng(self.SEED + t)
            if setting == "transductive":
                counts = [ref.binomial(int(np.sum(seq[t:] == x)), k / scale) for x in range(u)]
            else:
                counts = ref.multinomial(ref.binomial(horizon - t, k / scale), probs).tolist()
            expected = [[2 * ref.binomial(counts[x], 0.5) - counts[x] for _ in range(k)] for x in range(u)]
            rng = np.random.default_rng(self.SEED + t)
            assert sample_future(t, cfg, source, rng).tolist() == expected
            assert rng.random() == ref.random()

    def test_matches_reference(self):
        pc = PolicyClass(table=self.TABLE, num_actions=2)
        cfg = LearnerConfig(K=2, T=3, scale=self.SCALE)
        dist = ContextDistribution.uniform(2)
        rng = np.random.default_rng(self.SEED)
        learner = RelaxationLearner(cfg, ValueOracle(pc), dist)
        reference = self.reference_trace()
        for t, x_t in enumerate(self.CONTEXTS, start=1):
            rec = learner.play_round(x_t, lambda a: self.COSTS[t - 1, a - 1], rng)
            play, action, coin = reference[t - 1]
            np.testing.assert_allclose(rec.played_dist.probs, play, atol=1e-12)
            assert rec.played_action == action
            assert (rec.estimate.coordinate != 0) == bool(coin)

    def test_transductive_matches_reference(self):
        pc = PolicyClass(table=self.TABLE, num_actions=2)
        cfg = LearnerConfig(K=2, T=3, scale=self.SCALE)
        rng = np.random.default_rng(self.SEED)
        learner = RelaxationLearner(cfg, ValueOracle(pc), ContextSequence(np.array(self.CONTEXTS), 2))
        ref_rng = np.random.default_rng(self.SEED)
        reference = self.reference_trace(transductive=True, rng=ref_rng)
        # frozen from the reference for this seed
        assert [(action, coin) for _, action, coin in reference] == [(2, 1), (1, 0), (1, 1)]
        for t, x_t in enumerate(self.CONTEXTS, start=1):
            rec = learner.play_round(x_t, lambda a: self.COSTS[t - 1, a - 1], rng)
            play, action, coin = reference[t - 1]
            np.testing.assert_allclose(rec.played_dist.probs, play, atol=1e-12)
            assert rec.played_action == action
            assert (rec.estimate.coordinate != 0) == bool(coin)
        assert rng.random() == ref_rng.random()  # the stream is left at the same point

    def test_frozen_first_round(self):
        # froze the reference's round-1 outputs for this seed
        play, action, coin = self.reference_trace()[0]
        assert (action, coin) == (2, 1)
        np.testing.assert_allclose(play, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)

    def test_tie_replay_fills_the_lowest_index(self):
        # 200 seeded rounds at a scale with no short binary expansion, long
        # enough for rounds whose K gaps are all 0: the base minimisers
        # disagree at x_t, and the water-fill gives all its mass to action 1
        k, u, horizon = 3, 4, 200
        pc = random_policy_class(20, u, k, np.random.default_rng(5))
        cfg = LearnerConfig(K=k, T=horizon, scale=tune_scale(k, horizon, 20))
        dist = ContextDistribution.uniform(u)
        setup = np.random.default_rng(6)
        contexts = setup.integers(0, u, size=horizon)
        costs = setup.random((horizon, k))
        reference = reference_replay(
            pc.table, k, cfg.scale, contexts, costs, np.random.default_rng(self.SEED), dist.probs
        )
        ties = [t for t, (_, _, _, gaps) in enumerate(reference, start=1) if not any(gaps)]
        assert ties == [77, 102, 113, 121, 191]  # frozen from the reference for these seeds
        lowest = (1 - k / cfg.scale) * np.eye(k)[0] + 1 / cfg.scale
        learner = RelaxationLearner(cfg, ValueOracle(pc), dist)
        rng = np.random.default_rng(self.SEED)
        for t, x_t in enumerate(contexts.tolist(), start=1):
            rec = learner.play_round(x_t, lambda a: costs[t - 1, a - 1], rng)
            play, action, coin, _ = reference[t - 1]
            if t in ties:
                np.testing.assert_allclose(rec.played_dist.probs, lowest, atol=1e-12)
            np.testing.assert_allclose(rec.played_dist.probs, play, atol=1e-12)
            assert rec.played_action == action
            assert (rec.estimate.coordinate != 0) == bool(coin)


class TestIntegerScores:
    """Answers of a seeded acceptance-size run: Python ints, gaps 0 or 1, K+1 calls a round."""

    def test_every_gap_is_zero_or_one(self, monkeypatch):
        seen = []
        original = learner_module.oracle_scores

        def recording(*args):
            answers = original(*args)
            assert all(type(answer) is int for answer in answers)
            seen.append([answer - answers[0] for answer in answers[1:]])
            return answers

        monkeypatch.setattr(learner_module, "oracle_scores", recording)
        # K=5, N=50, U=10, T=2000, stochastic-gap; one replication
        config = json.loads((Path(__file__).resolve().parent.parent / "docs" / "example_config.json").read_text())
        result = run_experiment({**config, "reps": 1})
        assert len(seen) == 2000
        assert result.oracle_calls_total == 2000 * (5 + 1)
        for gaps in seen:
            assert set(gaps) <= {0, 1} and sum(gaps) <= 1
        ties = sum(not any(gaps) for gaps in seen)
        assert 0 < ties < 2000  # rounds where the base minimisers disagree at x_t
