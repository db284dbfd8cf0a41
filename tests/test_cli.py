"""Command line pipeline: end-to-end artifacts, exit codes, config handling."""

import csv
import dataclasses
import json
import logging
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from promolab import evaluator
from promolab import model as model_module
from promolab.cli import PipelineConfig, main, parse_config
from promolab.datagen import FeatureConfig, GenConfig, RctDataset
from promolab.errors import ValidationError
from promolab.evaluator import EvalReport, load_curve_csv
from promolab.losses import LossWeights
from promolab.metrics import MetricReport
from promolab.model import ModelConfig, load_model
from promolab.tables import atomic_write

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

    @pytest.mark.parametrize("solver", ["lagrangian", "dp"])
    def test_info_line_reports_dual_gap(self, workdir, tmp_path, caplog, solver):
        root, cfg = workdir
        caplog.set_level(logging.INFO, logger="promolab.cli")
        code = main(
            [
                "allocate", "--config", str(cfg), "--model", str(root / "model.npz"),
                "--data", str(root / "dataset.csv"), "--budget", "40",
                "--solver", solver, "--out", str(tmp_path),
            ]
        )
        assert code == 0
        (line,) = [r.getMessage() for r in caplog.records if r.getMessage().startswith("allocated")]
        found = re.search(r"value (\S+), cost \S+, dual bound (\S+), gap (\S+)$", line)
        if solver == "dp":
            assert found is None and line.startswith("allocated at budget 40: value ")
            return
        value, bound, gap = (float(x) for x in found.groups())
        assert bound >= value and gap >= 0.0
        assert gap == pytest.approx(bound - value, abs=1e-5 * bound)

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

    def test_sweep_without_model_is_cross_fitted(self, workdir, tmp_path, monkeypatch):
        # `sweep` trains the `evaluate` fold models, so its row at the config budget is `evaluate`'s
        root, cfg = workdir
        calls = []
        train_model = evaluator.train_model
        monkeypatch.setattr(
            evaluator, "train_model", lambda *a, **k: calls.append(1) or train_model(*a, **k)
        )
        common = [
            "--config", str(cfg), "--seed", "3",
            "--data", str(root / "dataset.csv"), "--out", str(tmp_path),
        ]
        assert main(["sweep", *common, "--budget-grid", "300,800"]) == 0
        assert len(calls) == 2  # evaluation.n_folds
        assert main(["evaluate", *common]) == 0
        point = load_curve_csv(tmp_path / "curve.csv")[0]
        report = EvalReport.load(tmp_path / "eval_full.json")
        assert (point.budget, point.value, point.cost, point.lpa) == (
            report.budget, report.estimated_value, report.estimated_cost, report.lpa
        )

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

    @pytest.mark.parametrize("solver", ["lagrangian", "dp"])
    def test_nan_budget_rejected(self, workdir, tmp_path, capsys, solver):
        # NaN passed a `budget < 0` check: the Lagrangian failed after 60
        # doublings and the DP crashed converting NaN to an int (both exit 2)
        root, cfg = workdir
        argv = [
            "allocate", "--config", str(cfg), "--model", str(root / "model.npz"),
            "--data", str(root / "dataset.csv"), "--budget", "nan",
            "--solver", solver, "--out", str(tmp_path),
        ]
        assert main(argv) == 1
        assert "budget must be nonnegative" in capsys.readouterr().err
        assert not (tmp_path / "plan.csv").exists()

    @pytest.mark.parametrize("budget", ["nan", "-5"])
    def test_bad_evaluate_budget_rejected_before_training(
        self, workdir, tmp_path, capsys, monkeypatch, budget
    ):
        # the flag goes through the config check, so no fold model is trained
        root, cfg = workdir
        calls = []
        train_model = evaluator.train_model
        monkeypatch.setattr(
            evaluator, "train_model", lambda *a, **k: calls.append(1) or train_model(*a, **k)
        )
        argv = [
            "evaluate", "--config", str(cfg), "--data", str(root / "dataset.csv"),
            "--budget", budget, "--out", str(tmp_path),
        ]
        assert main(argv) == 1
        assert "budget must be nonnegative" in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "eval_full.json").exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_infinite_budget_grid_rejected_before_training(
        self, workdir, tmp_path, capsys, monkeypatch, source
    ):
        # an infinite grid budget once wrote a curve.csv row that `report --curve` refuses
        root, cfg = workdir
        calls = []
        train_model = evaluator.train_model
        monkeypatch.setattr(
            evaluator, "train_model", lambda *a, **k: calls.append(1) or train_model(*a, **k)
        )
        argv = ["sweep", "--data", str(root / "dataset.csv"), "--out", str(tmp_path)]
        if source == "flag":
            argv += ["--config", str(cfg), "--budget-grid", "100,inf"]
        else:
            raw = yaml.safe_load(cfg.read_text())
            raw["evaluation"]["budget_grid"] = [100.0, float("inf")]
            grid_cfg = tmp_path / "grid.yaml"
            grid_cfg.write_text(yaml.safe_dump(raw))
            argv += ["--config", str(grid_cfg)]
        assert main(argv) == 1
        assert "evaluation.budget_grid must be finite" in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "curve.csv").exists()

    def test_infinite_budget_still_allocates(self, workdir, tmp_path):
        # a budget without a limit stays allowed where no table row holds it
        root, cfg = workdir
        argv = [
            "allocate", "--config", str(cfg), "--model", str(root / "model.npz"),
            "--data", str(root / "dataset.csv"), "--budget", "inf", "--out", str(tmp_path),
        ]
        assert main(argv) == 0
        assert parse_config(cfg, budget=float("inf")).budget == float("inf")

    @pytest.mark.parametrize("key, value", [("budget", ".nan"), ("budget_grid", "[10.0, .nan]")])
    def test_nan_config_budget_rejected(self, tmp_path, key, value):
        cfg = tmp_path / "nan.yaml"
        cfg.write_text(f"evaluation:\n  {key}: {value}\n")
        with pytest.raises(ValidationError, match=f"evaluation.{key}"):
            parse_config(cfg)

    @pytest.mark.parametrize(
        "section, text",
        [
            ("model", "model:\n  hidden_dims: abc\n"),
            ("generation.features", "generation:\n  features: [1, 2]\n"),
            ("model", "model: [1]\n"),
            ("generation", "generation:\n  assignment_probs: 0.5\n"),
            ("evaluation", "evaluation:\n  budget_grid: 5\n"),
            ("model", "model:\n  weights: {w_amount: x}\n"),
            # an integer field names itself: each once raised a TypeError (exit 2)
            # or, for hidden_dims, trained at the truncated width
            ("model.batch_size", "model:\n  batch_size: 2.5\n"),
            ("model.max_epochs", "model:\n  max_epochs: 1.5\n"),
            ("model.patience_epochs", "model:\n  patience_epochs: true\n"),
            ("model.plateau_epochs", "model:\n  plateau_epochs: '5'\n"),
            ("model.direct_head_depth", "model:\n  direct_head_depth: 1.5\n"),
            ("model.enduring_head_depth", "model:\n  enduring_head_depth: 3.0\n"),
            ("model.embedding_dim", "model:\n  embedding_dim: 2.5\n"),
            ("model.hidden_dims", "model:\n  hidden_dims: [8.7, 8, 4, 4]\n"),
            ("evaluation.n_folds", "evaluation:\n  n_folds: 2.5\n"),
        ],
        ids=[
            "hidden_dims", "features", "model", "assignment_probs", "budget_grid", "weights",
            "batch_size", "max_epochs", "patience_epochs", "plateau_epochs", "direct_head_depth",
            "enduring_head_depth", "embedding_dim", "hidden_dims_entry", "n_folds",
        ],
    )
    def test_wrongly_typed_config_value(self, tmp_path, capsys, section, text):
        cfg = tmp_path / "typed.yaml"
        cfg.write_text(text)
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {section}")
        assert not (tmp_path / "dataset.csv").exists()

    def test_trunk_cut_past_hidden_dims_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "deep.yaml"
        cfg.write_text("model:\n  variant: direct_only\n  hidden_dims: [8, 8]\n  direct_head_depth: 5\n")
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: model.direct_head_depth")
        assert not (tmp_path / "dataset.csv").exists()

    @pytest.mark.parametrize(
        "content", ["not json\n", '{"variant": "full"}\n'], ids=["not_json", "missing_key"]
    )
    def test_malformed_eval_json_rejected(self, tmp_path, capsys, content):
        bad = tmp_path / "eval_bad.json"
        bad.write_text(content)
        assert main(["report", "--out", str(tmp_path), str(bad)]) == 1
        assert f"error: {bad}: malformed evaluation report" in capsys.readouterr().err
        assert not (tmp_path / "report.md").exists()

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_curve_rejected(self, tmp_path, capsys, cell):
        report = EvalReport(
            variant="full", n_records=10,
            metrics=MetricReport(auc=0.7, coeff=0.5, corr=0.4, nrmse=1.5, nmae=0.9),
        )
        report.save(tmp_path / "eval_full.json")
        curve = tmp_path / "curve.csv"
        curve.write_text(f"budget,cost,lpa,value\n0.0,0.0,0.0,1.0\n5.0,4.0,{cell},2.0\n")
        argv = ["report", "--out", str(tmp_path), "--curve", f"m={curve}", str(tmp_path / "eval_full.json")]
        assert main(argv) == 1
        assert f"error: {curve}: column lpa holds a non-finite value" in capsys.readouterr().err
        assert not (tmp_path / "report.md").exists()
        assert not (tmp_path / "lpa_curve.svg").exists()

    def test_repeated_curve_label_rejected(self, tmp_path, capsys):
        # the second curve under a label once replaced the first without a word
        report = EvalReport(
            variant="full", n_records=10,
            metrics=MetricReport(auc=0.7, coeff=0.5, corr=0.4, nrmse=1.5, nmae=0.9),
        )
        report.save(tmp_path / "eval_full.json")
        curves = []
        for name in ("a.csv", "b.csv"):
            curves += ["--curve", f"m={tmp_path / name}"]
            (tmp_path / name).write_text("budget,cost,lpa,value\n0.0,0.0,0.0,1.0\n5.0,4.0,3.0,2.0\n")
        argv = ["report", "--out", str(tmp_path), *curves, str(tmp_path / "eval_full.json")]
        assert main(argv) == 1
        assert "error: curve label 'm' is given more than once" in capsys.readouterr().err
        assert not (tmp_path / "report.md").exists()
        assert not (tmp_path / "lpa_curve.svg").exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("generation:\n  features:\n    recency_p: 1.5\n", "features.recency_p must lie in (0, 1]"),
            ("generation:\n  n_customers: 2.5\n", "n_customers must be an integer"),
            (
                "generation:\n  features:\n    money_long_log_sd: -1\n",
                "features.money_long_log_sd must be nonnegative",
            ),
            # a NaN probability once put every customer on arm 0 (exit 0)
            (
                "generation:\n  coupon_values: [0, 1, 2]\n  assignment_probs: [.nan, 0.5, 0.5]\n",
                "generation.assignment_probs must be finite",
            ),
            ("generation:\n  coupon_values: [0, 1, .inf]\n", "generation.coupon_values must be finite"),
            ("generation:\n  coupon_values: [0, 1, .nan]\n", "generation.coupon_values must be finite"),
            ("generation:\n  phi: .nan\n", "generation.phi must be finite"),
            # an infinite phi once generated no post-window spend at all (exit 0)
            ("generation:\n  phi: .inf\n", "generation.phi must be finite"),
            ("generation:\n  promo_gamma_shape: .nan\n", "generation.promo_gamma_shape must be finite"),
            ("generation:\n  promo_gamma_shape: .inf\n", "generation.promo_gamma_shape must be finite"),
        ],
        ids=[
            "recency_p", "n_customers", "money_long_log_sd", "nan_assignment_prob",
            "inf_coupon", "nan_coupon", "nan_phi", "inf_phi", "nan_gamma_shape", "inf_gamma_shape",
        ],
    )
    def test_invalid_generation_value(self, tmp_path, capsys, text, message):
        # each once passed parse_config and failed inside numpy's samplers (exit 2)
        cfg = tmp_path / "gen.yaml"
        cfg.write_text(text)
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "dataset.csv").exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("model:\n  learning_rate: .nan\n", "model.learning_rate must be positive and finite"),
            ("model:\n  learning_rate: .inf\n", "model.learning_rate must be positive and finite"),
            ("model:\n  weights: {w_amount: .nan}\n", "weights.w_amount must be finite"),
            ("model:\n  weights: {w_direct: .inf}\n", "weights.w_direct must be finite"),
        ],
        ids=["nan_learning_rate", "inf_learning_rate", "nan_w_amount", "inf_w_direct"],
    )
    def test_non_finite_model_value(self, workdir, tmp_path, capsys, text, message):
        # each once passed validation, and train blamed the net: "diverged" (exit 2)
        root, _ = workdir
        cfg = tmp_path / "model.yaml"
        cfg.write_text(text)
        argv = ["train", "--config", str(cfg), "--data", str(root / "dataset.csv"), "--out", str(tmp_path)]
        assert main(argv) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "model.npz").exists()

    @pytest.mark.parametrize(
        "where, value",
        [
            (f"{section}.{f.name}", value)
            for cls, section in [
                (FeatureConfig, "generation.features"),
                (GenConfig, "generation"),
                (ModelConfig, "model"),
                (LossWeights, "model.weights"),
                (PipelineConfig, "evaluation"),
            ]
            for f in dataclasses.fields(cls)
            if f.name != "seed"  # a flag, not a config key
            for value in (
                ["true", "'1'", ".nan"] if f.type in ("int", "float", "int | None", "float | None")
                else ["true", "'1'", ".nan", "[true]"] if f.type in ("tuple", "np.ndarray", "np.ndarray | None")
                else []
            )
        ],
    )
    def test_every_numeric_field_names_itself(self, tmp_path, capsys, where, value):
        # a bool once passed as 1 (generation.phi, model.lr_decay, model.learning_rate,
        # model.weights.w_amount) and a string once failed naming only the section
        *path, name = where.split(".")
        text = f"{name}: {value}\n"
        for key in reversed(path):
            text = f"{key}:\n" + "".join(f"  {line}\n" for line in text.splitlines())
        cfg = tmp_path / "field.yaml"
        cfg.write_text(text)
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert where in capsys.readouterr().err
        assert not (tmp_path / "dataset.csv").exists()

    def test_negative_seed(self, tmp_path, capsys):
        # once a numpy ValueError from make_rng: a traceback and exit 2
        assert main(["generate", "--seed", "-1", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: generation.seed must")
        assert not (tmp_path / "dataset.csv").exists()

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

    @staticmethod
    def _single_class_log(root, tmp_path):
        """The workdir log with every direct flag ``s`` set to 0."""
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
        return flat_path

    def test_single_class_outcome_is_runtime_failure(self, workdir, tmp_path, monkeypatch):
        # all-control outcomes break AUC during evaluation: exit 2, not a crash,
        # and as soon as the first fold is scored, before the second model trains
        root, cfg = workdir
        flat_path = self._single_class_log(root, tmp_path)
        calls = []
        train_model = evaluator.train_model
        monkeypatch.setattr(
            evaluator, "train_model", lambda *a, **k: calls.append(1) or train_model(*a, **k)
        )
        code = main(
            [
                "evaluate", "--config", str(cfg), "--seed", "3",
                "--data", str(flat_path), "--out", str(tmp_path),
            ]
        )
        assert code == 2
        assert len(calls) == 1

    def test_diverged_training_is_runtime_failure(self, workdir, tmp_path, monkeypatch):
        # the log is valid, so a trunk that overflows in training exits 2, not 1
        root, cfg = workdir
        build_model = model_module.build_model

        def overflowing(*args, **kwargs):
            model = build_model(*args, **kwargs)
            model.nets["trunk_a"].layers[0].weight[...] = 1e308
            return model

        monkeypatch.setattr(model_module, "build_model", overflowing)
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(
                [
                    "train", "--config", str(cfg), "--seed", "3",
                    "--data", str(root / "dataset.csv"), "--out", str(tmp_path),
                ]
            )
        assert code == 2
        assert not (tmp_path / "model.npz").exists()

    def test_single_class_outcome_still_sweeps(self, workdir, tmp_path):
        # the curve needs no fit metric, so `sweep` without --model writes it
        root, cfg = workdir
        flat_path = self._single_class_log(root, tmp_path)
        code = main(
            [
                "sweep", "--config", str(cfg), "--seed", "3", "--data", str(flat_path),
                "--budget-grid", "300", "--out", str(tmp_path),
            ]
        )
        assert code == 0
        assert [p.budget for p in load_curve_csv(tmp_path / "curve.csv")] == [300.0]


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
        assert cfg.generation.world == "decorrelated"
        assert cfg.generation.n_arms == 2

    @pytest.mark.parametrize("world", ["default", "decorrelated"])
    def test_coupons_without_zero_arm_rejected(self, tmp_path, world):
        path = tmp_path / "cfg.yaml"
        path.write_text(f"generation:\n  world: {world}\n  coupon_values: [0.5, 1.0]\n")
        with pytest.raises(ValidationError, match="zero-incentive arm"):
            parse_config(path)

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

    def test_readme_config_block_marks_its_non_defaults(self, tmp_path):
        # every value in the block is the default unless its line says it is an example
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        (block,) = [b for b in re.findall(r"```yaml\n(.*?)```", readme, re.S) if "\nmodel:" in b]
        path = tmp_path / "cfg.yaml"
        path.write_text(block)
        documented, defaults = parse_config(path), parse_config()
        sections = [
            (documented, defaults),
            (documented.generation, defaults.generation),
            (documented.generation.features, defaults.generation.features),
            (documented.model, defaults.model),
        ]
        differ = {
            f.name
            for got, want in sections
            for f in dataclasses.fields(got)
            if f.name not in ("generation", "features", "model")
            and not np.array_equal(
                np.asarray(getattr(got, f.name), dtype=object),
                np.asarray(getattr(want, f.name), dtype=object),
            )
        }
        assert differ == set(re.findall(r"^\s*(\w+):.*# example;", block, re.M))
        assert differ == {"n_customers", "budget", "budget_grid"}

    def test_non_mapping_root_rejected(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("- a\n- b\n")
        with pytest.raises(ValidationError):
            parse_config(path)


class TestAtomicWrite:
    def test_failed_writer_keeps_earlier_artifact(self, tmp_path):
        target = tmp_path / "model.npz"
        target.write_bytes(b"earlier")

        def interrupted(path):
            Path(path).write_bytes(b"partial")
            raise RuntimeError("interrupted")

        with pytest.raises(RuntimeError, match="interrupted"):
            atomic_write(target, interrupted)
        assert target.read_bytes() == b"earlier"
        assert [p.name for p in tmp_path.iterdir()] == ["model.npz"]
