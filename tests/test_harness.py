"""Experiment runner, bound calculators, config validation, file output."""

import json
import math
import re
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from relaxcb import (
    ConfigError,
    bound_curve,
    emit_outputs,
    run_experiment,
    theoretical_bound,
    validate_config,
)
from relaxcb.policies import REMEMBER_MIN_CELLS

DOCS = Path(__file__).resolve().parent.parent / "docs"


def small_config(**overrides):
    config = {
        "K": 2,
        "T": 40,
        "L": 4.0,
        "learner": "relax",
        "reps": 2,
        "seed": 7,
        "policyClass": {"type": "table", "seed": 3, "N": 6, "U": 3, "K": 2},
        "environment": {
            "context": {"U": 3, "probs": "uniform"},
            "adversary": {"type": "stochastic-gap", "delta": 0.4, "seed": 9},
            "transductive": False,
        },
    }
    config.update(overrides)
    return config


class TestTheoreticalBound:
    def test_linear_term_at_minimal_scale(self):
        # scale = K makes the exploration term exactly T
        k, t, n = 3, 50, 10
        bound = theoretical_bound(k, t, float(k), n)
        assert bound - 2 * math.sqrt(2 * t * k * k * math.log(n)) == pytest.approx(t)

    def test_first_term_scales_as_sqrt_log(self):
        # squaring N doubles log N: the sqrt term grows by exactly sqrt(2)
        k, t, scale, n = 3, 50, 6.0, 12
        first = theoretical_bound(k, t, scale, n) - t * k / scale
        first_sq = theoretical_bound(k, t, scale, n * n) - t * k / scale
        assert first_sq / first == pytest.approx(math.sqrt(2.0))

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="scale"):
            theoretical_bound(3, 50, 2.0, 10)
        with pytest.raises(ValueError, match="policies"):
            theoretical_bound(3, 50, 5.0, 1)

    def test_curve_endpoint_matches_scalar(self):
        curve = bound_curve(3, 50, 6.0, 12)
        assert curve[-1] == pytest.approx(theoretical_bound(3, 50, 6.0, 12))
        assert curve.shape == (50,)


class TestConfigValidation:
    def test_unknown_top_level_field(self):
        with pytest.raises(ConfigError, match="unknown field"):
            validate_config(small_config(bogus=1))

    @pytest.mark.parametrize(
        "adversary",
        [
            {"type": "stochastic-gap", "delta": 0.3},
            {"type": "drifting", "period": 5},
            {"type": "policy-targeted", "delta": 0.3, "period": 5},
        ],
        ids=["stochastic-gap", "drifting", "policy-targeted"],
    )
    def test_adversary_seed_read_by_every_type(self, adversary):
        cfg = small_config()
        cfg["environment"]["adversary"] = {**adversary, "seed": 9}
        assert validate_config(cfg)["environment"]["adversary"]["seed"] == 9

    def test_explicit_table_takes_no_table_fields(self):
        cfg = small_config()
        cfg["policyClass"] = {"type": "explicit", "table": [[1, 2, 1], [2, 1, 2]], "N": 2}
        message = "policyClass.N: unknown field (expected one of ['table', 'type'])"
        with pytest.raises(ConfigError, match=re.escape(message)):
            validate_config(cfg)

    def test_field_paths_in_messages(self):
        cfg = small_config()
        cfg["environment"]["adversary"]["type"] = "nope"
        with pytest.raises(ConfigError, match="environment.adversary.type"):
            validate_config(cfg)
        cfg = small_config()
        del cfg["policyClass"]["seed"]
        with pytest.raises(ConfigError, match="policyClass.seed"):
            validate_config(cfg)

    def test_scale_below_action_count(self):
        with pytest.raises(ConfigError, match="L"):
            validate_config(small_config(L=1.5))

    def test_context_universe_must_match_table(self):
        cfg = small_config()
        cfg["environment"]["context"]["U"] = 4
        with pytest.raises(ConfigError, match="context.U"):
            validate_config(cfg)

    def test_defaults_applied(self):
        cfg = small_config()
        del cfg["L"]
        del cfg["reps"]
        normalized = validate_config(cfg)
        assert normalized["L"] == "auto"
        assert normalized["reps"] == 1
        assert normalized["environment"]["adversary"]["seed"] == 9

    def test_explicit_table(self):
        cfg = small_config()
        cfg["policyClass"] = {"type": "explicit", "table": [[1, 2, 1], [2, 1, 2]]}
        result = run_experiment({**cfg, "T": 10, "reps": 1})
        assert result.horizon == 10

    def test_delta_range(self):
        cfg = small_config()
        cfg["environment"]["adversary"]["delta"] = 1.5
        with pytest.raises(ConfigError, match="delta"):
            validate_config(cfg)


class TestRunExperiment:
    def test_single_round_regret_nonnegative_with_covering_class(self):
        cfg = small_config(T=1, reps=1)
        cfg["policyClass"] = {"type": "explicit", "table": [[1, 1, 1], [2, 2, 2]]}
        result = run_experiment(cfg)
        assert result.mean_regret[0] >= -1e-12

    def test_regret_accounting_identity(self):
        result = run_experiment(small_config())
        for run in result.runs:
            total = run.expected_costs.sum() - run.comparator_loss
            assert run.cumulative_regret[-1] == pytest.approx(total, abs=1e-6)

    def test_oracle_budget(self):
        result = run_experiment(small_config(reps=1))
        assert result.runs[0].oracle_calls == 40 * 3

    def test_exploration_floor_recorded(self):
        result = run_experiment(small_config(reps=1))
        assert result.runs[0].min_play_prob >= 1 / 4.0 - 1e-12
        assert result.runs[0].max_coin_prob <= 1.0

    def test_baselines_run(self):
        for learner in ("exp4", "uniform"):
            result = run_experiment(small_config(learner=learner, reps=1, T=20))
            assert result.oracle_calls_total == 0
            assert np.all(np.isfinite(result.mean_regret))

    def test_auto_scale_and_regime_flag(self):
        result = run_experiment(small_config(L="auto", T=500, reps=1))
        # T=500 >= K^2 ln N = 4 ln 6: tuned scale applies
        assert not result.out_of_regime
        assert result.scale == pytest.approx(max(2.0, (2 * 500 / math.log(6)) ** (1 / 3)))

    def test_transductive_mode(self):
        cfg = small_config(reps=1, T=20)
        cfg["environment"]["transductive"] = True
        result = run_experiment(cfg)
        assert result.runs[0].oracle_calls == 20 * 3

    def test_deterministic_given_seed(self):
        a = run_experiment(small_config())
        b = run_experiment(small_config())
        np.testing.assert_array_equal(a.mean_regret, b.mean_regret)
        np.testing.assert_array_equal(
            np.stack([r.played_actions for r in a.runs]),
            np.stack([r.played_actions for r in b.runs]),
        )

    def test_replications_differ(self):
        result = run_experiment(small_config())
        assert not np.array_equal(result.runs[0].played_actions, result.runs[1].played_actions)

    def test_documented_seed_splitting_and_comparator(self):
        """Replicate the documented stream-splitting to recover each
        replication's context sequence, then check the stored comparator
        against the standalone enumeration helper."""
        from relaxcb import ContextDistribution, best_policy_loss, make_adversary
        from relaxcb.harness import policy_class_from_config

        cfg = small_config()
        result = run_experiment(cfg)
        pc = policy_class_from_config(cfg["policyClass"], cfg["K"])
        dist = ContextDistribution.uniform(3)
        schedule = make_adversary(
            cfg["environment"]["adversary"], pc, cfg["T"],
            np.random.default_rng(np.random.SeedSequence(9)),
        )
        children = np.random.SeedSequence(cfg["seed"]).spawn(cfg["reps"])
        for run, child in zip(result.runs, children):
            ctx_ss, _learner_ss = child.spawn(2)
            contexts = dist.sample(np.random.default_rng(ctx_ss), size=cfg["T"])
            expected = best_policy_loss(pc, contexts, schedule.costs)
            assert run.comparator_loss == pytest.approx(expected, abs=1e-9)



def baseline_config(learner, transductive, num_policies=8):
    """A small K=3, N=8 (by default), U=4, T=30 game; transductive runs face the policy-targeted adversary."""
    adversary = (
        {"type": "policy-targeted", "delta": 0.2, "period": 7, "seed": 2}
        if transductive
        else {"type": "stochastic-gap", "delta": 0.3, "seed": 2}
    )
    return {
        "K": 3,
        "T": 30,
        "L": 6.0,
        "learner": learner,
        "reps": 2,
        "seed": 13,
        "policyClass": {"type": "table", "seed": 4, "N": num_policies, "U": 4, "K": 3},
        "environment": {
            "context": {"U": 4, "probs": "uniform"},
            "adversary": adversary,
            "transductive": transductive,
        },
    }


class TestFrozenBaselines:
    """Exp4, uniform play and the relaxation learner, pinned through
    ``run_experiment`` alone: the played actions of both replications and
    their final regrets, exactly."""

    EXP4_ACTIONS = ("233121233331332231221321213331", "132131233323331211232322322322")
    UNIFORM_ACTIONS = ("232221233221332132131331113221", "131121133313222111132221312322")

    @pytest.mark.parametrize(
        "learner, transductive, actions, final_regrets",
        [
            ("exp4", False, EXP4_ACTIONS, (4.483960961513242, 3.175825715955554)),
            ("uniform", False, UNIFORM_ACTIONS, (5.3302120496036824, 4.790953820131913)),
            ("exp4", True, EXP4_ACTIONS, (3.99349961686948, 2.4694700701837515)),
            ("uniform", True, UNIFORM_ACTIONS, (4.800000000000006, 3.700000000000008)),
        ],
        ids=["exp4-iid", "uniform-iid", "exp4-transductive", "uniform-transductive"],
    )
    def test_pinned_runs(self, learner, transductive, actions, final_regrets):
        result = run_experiment(baseline_config(learner, transductive))
        assert ["".join(map(str, run.played_actions)) for run in result.runs] == list(actions)
        assert tuple(run.final_regret for run in result.runs) == final_regrets
        assert result.oracle_calls_total == 0

    @pytest.mark.parametrize(
        "transductive, num_policies, actions, final_regrets",
        [
            (
                False, 8,
                ("311333233223212333331233213131", "122112323112311211321123133232"),
                (6.252461819919782, 4.7156708105324885),
            ),
            (
                True, 8,
                ("321223123322321311211311131331", "123111321223121213121133121233"),
                (4.9250000000000025, 4.075000000000012),
            ),
            (
                False, 2048,
                ("313333231213211123331233113211", "122112321112111211211121133222"),
                (7.997304965917985, 7.8206111111852135),
            ),
        ],
        ids=["relax-iid", "relax-transductive", "relax-remembered"],
    )
    def test_pinned_relaxation_runs(self, transductive, num_policies, actions, final_regrets):
        # only the remembered row's N*U cells reach the oracle's one-cell memory
        assert (num_policies * 4 >= REMEMBER_MIN_CELLS) == (num_policies > 8)
        config = baseline_config("relax", transductive, num_policies)
        result = run_experiment(config)
        assert ["".join(map(str, run.played_actions)) for run in result.runs] == list(actions)
        assert tuple(run.final_regret for run in result.runs) == final_regrets
        assert result.oracle_calls_total == config["reps"] * config["T"] * (config["K"] + 1)


class TestEmitOutputs:
    def test_files_and_shapes(self, tmp_path):
        result = run_experiment(small_config())
        paths = emit_outputs(result, tmp_path / "out")
        lines = paths["regret_csv"].read_text().splitlines()
        assert lines[0] == "round,mean_regret,stderr_regret,bound"
        assert len(lines) == 40 + 1
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[3]) == pytest.approx(result.bound[0])

    def test_single_rep_stderr_zero(self, tmp_path):
        result = run_experiment(small_config(reps=1))
        paths = emit_outputs(result, tmp_path)
        for line in paths["regret_csv"].read_text().splitlines()[1:]:
            assert line.split(",")[2] == "0"

    def test_nine_significant_digits(self, tmp_path):
        result = run_experiment(small_config())
        paths = emit_outputs(result, tmp_path)
        value = paths["regret_csv"].read_text().splitlines()[5].split(",")[1]
        assert value == format(float(result.mean_regret[4]), ".9g")

    def test_byte_identical_rerun(self, tmp_path):
        first = emit_outputs(run_experiment(small_config()), tmp_path / "a")
        second = emit_outputs(run_experiment(small_config()), tmp_path / "b")
        assert first["regret_csv"].read_bytes() == second["regret_csv"].read_bytes()
        assert first["realized_csv"].read_bytes() == second["realized_csv"].read_bytes()

    def test_summary_validates_against_shipped_schema(self, tmp_path):
        result = run_experiment(small_config())
        paths = emit_outputs(result, tmp_path)
        summary = json.loads(paths["summary_json"].read_text())
        schema = json.loads((DOCS / "run_summary.schema.json").read_text())
        jsonschema.validate(summary, schema)
        assert summary["config"]["seed"] == 7
