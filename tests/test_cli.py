"""Command-line interface: run and verify subcommands."""

import json
import re
from pathlib import Path

import pytest

from relaxcb.cli import main


@pytest.fixture
def config_file(tmp_path):
    config = {
        "K": 2,
        "T": 30,
        "L": 4.0,
        "learner": "relax",
        "reps": 2,
        "seed": 3,
        "policyClass": {"type": "table", "seed": 1, "N": 5, "U": 3, "K": 2},
        "environment": {
            "context": {"U": 3, "probs": "uniform"},
            "adversary": {"type": "drifting", "period": 10, "seed": 2},
            "transductive": False,
        },
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


class TestRunCommand:
    def test_writes_outputs(self, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", "--config", str(config_file), "--out", str(out)])
        assert code == 0
        assert (out / "regret.csv").exists()
        assert (out / "realized_regret.csv").exists()
        assert (out / "summary.json").exists()
        assert "final regret" in capsys.readouterr().out

    def test_overrides(self, config_file, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["run", "--config", str(config_file), "--out", str(out),
             "--reps", "1", "--seed", "9", "--learner", "uniform"]
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["reps"] == 1
        assert summary["config"]["seed"] == 9
        assert summary["learner"] == "uniform"

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert code == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_invalid_config_reports_field(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"K": 2}))
        code = main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["NaN", "Infinity"])
    def test_non_finite_scale(self, config_file, tmp_path, capsys, value):
        # Python's json module accepts these non-standard literals
        text = config_file.read_text().replace('"L": 4.0', f'"L": {value}')
        assert value in text
        config_file.write_text(text)
        code = main(["run", "--config", str(config_file), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "config error: L: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "path",
        ["policyClass.n", "environment.transductiv", "environment.context.prob", "environment.adversary.delt"],
    )
    def test_nested_typo_in_example_config(self, tmp_path, capsys, path):
        config = json.loads((Path(__file__).resolve().parents[1] / "docs" / "example_config.json").read_text())
        *parents, key = path.split(".")
        obj = config
        for parent in parents:
            obj = obj[parent]
        obj[key] = 1
        config_file = tmp_path / "typo.json"
        config_file.write_text(json.dumps(config))
        code = main(["run", "--config", str(config_file), "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"config error: {path}: unknown field" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "path, section, spec",
        [
            ("environment.adversary.delta", "adversary", {"type": "drifting", "period": 10, "delta": 0.3}),
            ("environment.adversary.period", "adversary", {"type": "stochastic-gap", "delta": 0.3, "period": 10}),
            ("environment.context.seed", "context", {"U": 10, "probs": "uniform", "seed": 4}),
        ],
        ids=["delta-on-drifting", "period-on-stochastic-gap", "context-seed-without-random-probs"],
    )
    def test_field_the_variant_never_reads(self, tmp_path, capsys, path, section, spec):
        config = json.loads((Path(__file__).resolve().parents[1] / "docs" / "example_config.json").read_text())
        config["environment"][section] = spec
        config_file = tmp_path / "unread.json"
        config_file.write_text(json.dumps(config))
        code = main(["run", "--config", str(config_file), "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"config error: {path}: " in capsys.readouterr().err

    @pytest.mark.parametrize("entry", [1.5, True, None, 0, 3])
    def test_explicit_table_entries(self, config_file, tmp_path, capsys, entry):
        config = json.loads(config_file.read_text())
        config["policyClass"] = {"type": "explicit", "table": [[1, 2, 1], [2, entry, 2]]}
        config_file.write_text(json.dumps(config))
        code = main(["run", "--config", str(config_file), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "config error: policyClass.table: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "path",
        ["seed", "policyClass.seed", "environment.context.seed", "environment.adversary.seed"],
    )
    def test_negative_seed(self, config_file, tmp_path, capsys, path):
        config = json.loads(config_file.read_text())
        config["environment"]["context"]["probs"] = "random"  # the context seed is read only then
        config["environment"]["context"]["seed"] = 4
        *parents, key = path.split(".")
        obj = config
        for parent in parents:
            obj = obj[parent]
        obj[key] = -1
        config_file.write_text(json.dumps(config))
        code = main(["run", "--config", str(config_file), "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"config error: {path}: must be >= 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "changes, path",
        [
            ({"K": 5, "L": 5.0, "policyClass": {"type": "table", "seed": 1, "N": 1, "U": 3}}, "policyClass"),
            ({"L": "auto", "policyClass": {"type": "table", "seed": 1, "N": 1, "U": 3}}, "L"),
            ({"L": "auto", "policyClass": {"type": "explicit", "table": [[1, 2, 1]]}}, "L"),
        ],
        ids=["table-too-small", "auto-one-table-policy", "auto-one-explicit-policy"],
    )
    def test_unusable_policy_class(self, config_file, tmp_path, capsys, changes, path):
        config = json.loads(config_file.read_text())
        config.update(changes)
        config_file.write_text(json.dumps(config))
        code = main(["run", "--config", str(config_file), "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"config error: {path}: " in capsys.readouterr().err

    def test_uncoverable_random_table(self, config_file, tmp_path, capsys):
        # N*U = K passes validation, but seed 37 draws no covering 1x5 table in 100 tries
        config = json.loads(config_file.read_text())
        config.update({"K": 5, "L": 6, "policyClass": {"type": "table", "seed": 37, "N": 1, "U": 5, "K": 5}})
        config["environment"]["context"]["U"] = 5
        config_file.write_text(json.dumps(config))
        code = main(["run", "--config", str(config_file), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.strip() == (
            "config error: policyClass.seed: no action-covering table found in 100 tries; try another seed"
        )

    def test_negative_context_probability_message(self, config_file, tmp_path, capsys):
        config = json.loads(config_file.read_text())
        config["environment"]["context"]["probs"] = [0.5, 0.6, -0.1]
        config_file.write_text(json.dumps(config))
        code = main(["run", "--config", str(config_file), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.strip() == "config error: environment.context.probs: negative probability entry: -0.1"

    @pytest.mark.parametrize("extra", [[], ["--reps", "2"], ["--seed", "4"], ["--learner", "exp4"]])
    def test_non_object_config_with_overrides(self, tmp_path, capsys, extra):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([1, 2]))
        code = main(["run", "--config", str(bad), "--out", str(tmp_path / "o"), *extra])
        assert code == 2
        assert "config error: <config>: must be a JSON object" in capsys.readouterr().err


class TestVerifyCommand:
    def test_quick_suite_passes(self, capsys):
        code = main(["verify", "--quick", "--seed", "5"])
        out = capsys.readouterr().out
        assert code == 0
        for name in ("minimax", "unbiasedness", "perturbation-bound", "admissibility"):
            assert f"[PASS] {name}" in out

    def test_quick_output_is_pinned(self, capsys):
        """The default seed's four verdict lines, byte for byte apart from the minimax timing."""
        code = main(["verify", "--quick"])
        out = re.sub(r" \(\d+\.\ds\)$", "", capsys.readouterr().out, count=1, flags=re.MULTILINE)
        assert code == 0
        assert out == (
            "[PASS] minimax: worst gap above grid minimum 8.88e-16\n"
            "[PASS] unbiasedness: worst coordinate at 1.13 sigma\n"
            "[PASS] perturbation-bound: empirical 38.21 <= bound 94.19\n"
            "[PASS] admissibility: margins 1.211\n"
        )

    def test_negative_seed_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--quick", "--seed", "-1"])
        assert exc.value.code == 2
        assert "--seed: must be >= 0, got -1" in capsys.readouterr().err
