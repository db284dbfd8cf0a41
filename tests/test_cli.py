"""Command line pipeline: end-to-end artifacts, exit codes, config handling."""

import csv
import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from promolab.cli import main, parse_config
from promolab.datagen import RctDataset
from promolab.errors import ValidationError
from promolab.evaluator import EvalReport, load_curve_csv
from promolab.model import ModelConfig, load_model

CONFIG_YAML = """\
generation:
  n_customers: 600
  coupon_values: [0.0, 1.5, 3.0]
model:
  hidden_dims: [8, 8, 8, 4]
  batch_size: 256
  learning_rate: 0.003
  max_epochs: 2
  patience_epochs: 2
  plateau_epochs: 1
evaluation:
  n_folds: 2
  budget: 300.0
"""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One generate+train run shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "cfg.yaml"
    cfg.write_text(CONFIG_YAML)
    assert main(["generate", "--config", str(cfg), "--seed", "3", "--out", str(root)]) == 0
    assert (
        main(
            [
                "train",
                "--config",
                str(cfg),
                "--seed",
                "3",
                "--data",
                str(root / "dataset.csv"),
                "--out",
                str(root),
            ]
        )
        == 0
    )
    return root, cfg


class TestGenerate:
    def test_artifacts_exist_with_exact_headers(self, workdir):
        root, _ = workdir
        data_header = (root / "dataset.csv").read_text().splitlines()[0]
        assert data_header == "customer_id,recency,freq_long,freq_short,money_long,money_short,arm,s,y"
        truth_header = (root / "ground_truth.csv").read_text().splitlines()[0]
        assert truth_header == "customer_id,arm,p_true,mu_true"

    def test_deterministic_across_runs(self, workdir, tmp_path):
        root, cfg = workdir
        assert main(["generate", "--config", str(cfg), "--seed", "3", "--out", str(tmp_path)]) == 0
        assert (root / "dataset.csv").read_bytes() == (tmp_path / "dataset.csv").read_bytes()
        assert (root / "ground_truth.csv").read_bytes() == (tmp_path / "ground_truth.csv").read_bytes()

    def test_seed_changes_output(self, workdir, tmp_path):
        root, cfg = workdir
        assert main(["generate", "--config", str(cfg), "--seed", "4", "--out", str(tmp_path)]) == 0
        assert (root / "dataset.csv").read_bytes() != (tmp_path / "dataset.csv").read_bytes()


class TestTrain:
    def test_checkpoint_and_history(self, workdir):
        root, _ = workdir
        model = load_model(root / "model.npz")
        assert model.n_arms == 3
        history = json.loads((root / "history.json").read_text())
        assert history["variant"] == "full"
        assert len(history["epochs"]) == history["stopped_epoch"]
        assert {"epoch", "train_loss", "val_loss", "learning_rate"} <= set(history["epochs"][0])

    def test_variant_flag_overrides_config(self, workdir, tmp_path):
        root, cfg = workdir
        code = main(
            [
                "train", "--config", str(cfg), "--seed", "3",
                "--data", str(root / "dataset.csv"),
                "--variant", "direct_only", "--out", str(tmp_path),
            ]
        )
        assert code == 0
        assert load_model(tmp_path / "model.npz").config.variant == "direct_only"


class TestPredict:
    def test_csv_shape_and_header(self, workdir, tmp_path):
        root, _ = workdir
        code = main(
            [
                "predict", "--model", str(root / "model.npz"),
                "--data", str(root / "dataset.csv"), "--out", str(tmp_path),
            ]
        )
        assert code == 0
        with open(tmp_path / "predictions.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["customer_id", "arm", "f_direct", "f_enduring", "f_amount"]
        assert len(rows) == 1 + 600 * 3
        direct = float(rows[1][2])
        assert 0.0 < direct < 1.0


class TestAllocate:
    @pytest.mark.parametrize("solver", ["lagrangian", "dp"])
    def test_plan_respects_budget(self, workdir, tmp_path, solver):
        root, cfg = workdir
        code = main(
            [
                "allocate", "--config", str(cfg), "--model", str(root / "model.npz"),
                "--data", str(root / "dataset.csv"), "--budget", "40",
                "--solver", solver, "--out", str(tmp_path),
            ]
        )
        assert code == 0
        with open(tmp_path / "plan.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["customer_id", "chosen_arm"]
        assert len(rows) == 601
        arms = np.array([int(r[1]) for r in rows[1:]])
        assert set(np.unique(arms)) <= {0, 1, 2}

    def test_budget_flag_required(self, workdir, tmp_path):
        root, cfg = workdir
        code = main(
            [
                "allocate", "--config", str(cfg), "--model", str(root / "model.npz"),
                "--data", str(root / "dataset.csv"), "--out", str(tmp_path),
            ]
        )
        assert code == 1


class TestEvaluateSweepReport:
    def test_full_chain(self, workdir, tmp_path):
        root, cfg = workdir
        code = main(
            [
                "evaluate", "--config", str(cfg), "--seed", "3",
                "--data", str(root / "dataset.csv"), "--out", str(tmp_path),
            ]
        )
        assert code == 0
        report = EvalReport.load(tmp_path / "eval_full.json")
        assert report.variant == "full"
        assert report.n_records == 600
        assert report.budget == 300.0  # from evaluation.budget in the config

        code = main(
            [
                "sweep", "--config", str(cfg), "--seed", "3",
                "--model", str(root / "model.npz"),
                "--data", str(root / "dataset.csv"),
                "--budget-grid", "300,800", "--out", str(tmp_path),
            ]
        )
        assert code == 0
        points = load_curve_csv(tmp_path / "curve.csv")
        assert [p.budget for p in points] == [300.0, 800.0]

        code = main(
            [
                "report", "--out", str(tmp_path),
                "--curve", f"model={tmp_path / 'curve.csv'}",
                str(tmp_path / "eval_full.json"),
            ]
        )
        assert code == 0
        text = (tmp_path / "report.md").read_text()
        assert "| full |" in text
        assert (tmp_path / "lpa_curve.svg").exists()

    def test_sweep_requires_budget_grid(self, workdir, tmp_path):
        root, cfg = workdir
        code = main(
            [
                "sweep", "--config", str(cfg), "--model", str(root / "model.npz"),
                "--data", str(root / "dataset.csv"), "--out", str(tmp_path),
            ]
        )
        assert code == 1

    def test_report_requires_eval_files(self, tmp_path):
        assert main(["report", "--out", str(tmp_path)]) == 1


class TestExitCodes:
    def test_missing_data_file(self, workdir, tmp_path):
        _, cfg = workdir
        code = main(
            [
                "train", "--config", str(cfg),
                "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path),
            ]
        )
        assert code == 1

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("generation:\n  n_custmers: 10\n")
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path)]) == 1

    def test_unknown_flag(self, tmp_path):
        assert main(["generate", "--out", str(tmp_path), "--frobnicate"]) == 1

    def test_bad_budget_grid(self, workdir, tmp_path):
        root, cfg = workdir
        code = main(
            [
                "sweep", "--config", str(cfg), "--model", str(root / "model.npz"),
                "--data", str(root / "dataset.csv"),
                "--budget-grid", "10,abc", "--out", str(tmp_path),
            ]
        )
        assert code == 1

    def test_bad_log_level(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PROMOLAB_LOG_LEVEL", "LOUD")
        assert main(["report", "--out", str(tmp_path), "x.json"]) == 1

    @pytest.mark.parametrize(
        "row, cell, value",
        [
            (1, 8, None),  # short row: the y cell is missing
            (1, 6, "-1"),  # negative arm index
            (2, 0, "0"),  # customer_id 0 appears twice
            (1, 1, "nan"),  # non-finite feature
            (1, 3, "abc"),  # non-numeric cell
        ],
        ids=["short_row", "negative_arm", "duplicate_id", "nan_feature", "non_numeric"],
    )
    @pytest.mark.parametrize("command", ["predict", "allocate"])
    def test_malformed_dataset_rejected(self, workdir, tmp_path, capsys, command, row, cell, value):
        root, cfg = workdir
        lines = (root / "dataset.csv").read_text().splitlines()
        cells = lines[row].split(",")
        if value is None:
            del cells[cell]
        else:
            cells[cell] = value
        lines[row] = ",".join(cells)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        argv = [
            command, "--config", str(cfg), "--model", str(root / "model.npz"),
            "--data", str(bad), "--out", str(tmp_path),
        ]
        if command == "allocate":
            argv += ["--budget", "40"]
        assert main(argv) == 1
        assert f"error: {bad}" in capsys.readouterr().err
        assert not (tmp_path / "predictions.csv").exists()
        assert not (tmp_path / "plan.csv").exists()

    def test_malformed_checkpoint_rejected(self, workdir, tmp_path, capsys, defective_checkpoint):
        root, _ = workdir
        bad = defective_checkpoint(root / "model.npz")
        argv = [
            "predict", "--model", str(bad),
            "--data", str(root / "dataset.csv"), "--out", str(tmp_path),
        ]
        assert main(argv) == 1
        assert f"error: {bad}" in capsys.readouterr().err
        assert not (tmp_path / "predictions.csv").exists()

    def test_single_class_outcome_is_runtime_failure(self, workdir, tmp_path):
        # all-control outcomes break AUC during evaluation: exit 2, not a crash
        root, cfg = workdir
        dataset = RctDataset.from_csv(root / "dataset.csv")
        flat = RctDataset(
            customer_id=dataset.customer_id,
            features=dataset.features,
            arm=dataset.arm,
            s=np.zeros(dataset.n, dtype=np.int64),
            y=dataset.y,
        )
        flat_path = tmp_path / "flat.csv"
        flat.to_csv(flat_path)
        code = main(
            [
                "evaluate", "--config", str(cfg), "--seed", "3",
                "--data", str(flat_path), "--out", str(tmp_path),
            ]
        )
        assert code == 2


class TestParseConfig:
    def test_defaults_without_file(self):
        cfg = parse_config(None, seed=9)
        assert cfg.generation.seed == 9
        assert cfg.model.variant == "full"
        assert cfg.n_folds == 5
        assert cfg.generation.n_arms == 7

    def test_decorrelated_world(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("generation:\n  world: decorrelated\n  coupon_values: [0.0, 3.0]\n")
        cfg = parse_config(path)
        assert cfg.generation.n_arms == 2

    def test_unknown_world_rejected(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("generation:\n  world: exotic\n")
        with pytest.raises(ValidationError):
            parse_config(path)

    def test_weights_subsection(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("model:\n  weights:\n    w_amount: 5.0\n    w_direct: 1.0\n")
        cfg = parse_config(path)
        assert cfg.model.weights.w_amount == 5.0
        assert cfg.model.weights.w_enduring == 1.0

    def test_cli_variant_override(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("model:\n  variant: full\n")
        cfg = parse_config(path, variant="two_model")
        assert cfg.model.variant == "two_model"

    def test_readme_model_block_matches_defaults(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        (block,) = [b for b in re.findall(r"```yaml\n(.*?)```", readme, re.S) if "\nmodel:" in b]
        documented = yaml.safe_load(block)["model"]
        defaults = ModelConfig()
        assert set(documented) == {f.name for f in dataclasses.fields(ModelConfig)}
        for name, value in documented.items():
            default = getattr(defaults, name)
            if name == "weights":
                assert value == dataclasses.asdict(default)
            elif name == "hidden_dims":
                assert tuple(value) == default
            else:
                assert value == default, name

    def test_non_mapping_root_rejected(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("- a\n- b\n")
        with pytest.raises(ValidationError):
            parse_config(path)
