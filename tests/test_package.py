"""The public surface: ``promolab.__all__`` is pinned, so an API change edits this list on purpose."""

import os
import subprocess
import sys
from pathlib import Path

import promolab

PUBLIC_NAMES = [
    "AllocationPlan",
    "AllocationProblem",
    "CrossValResult",
    "CurvePoint",
    "EpochStats",
    "EstimationError",
    "EvalReport",
    "FeatureConfig",
    "GenConfig",
    "GroundTruth",
    "InfeasiblePlanError",
    "InstanceTooLargeError",
    "LossWeights",
    "MetricReport",
    "MetricUndefinedError",
    "ModelConfig",
    "PredictionMatrix",
    "PromolabError",
    "RctDataset",
    "ResponseModel",
    "ShapeError",
    "TrainResult",
    "TrainingError",
    "VARIANTS",
    "ValidationError",
    "auc",
    "budget_sweep",
    "build_model",
    "build_problem",
    "check_feasible",
    "cross_entropy_loss",
    "cross_validated_eval",
    "error_metrics",
    "estimate_policy_cost",
    "estimate_policy_value",
    "evaluate_variant",
    "generate_rct",
    "lift_purchase_amount",
    "load_model",
    "make_rng",
    "metric_report",
    "normalized_gini",
    "predict",
    "predict_matrix",
    "sample_cpg",
    "save_model",
    "solve_exact_dp",
    "solve_lagrangian",
    "spearman",
    "train_model",
    "tweedie_loss",
]


def test_all_is_pinned():
    assert sorted(promolab.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in PUBLIC_NAMES:
        assert getattr(promolab, name, None) is not None, name


def test_test_oracles_are_not_public():
    # the gradient checks live in tests/oracles.py; hybrid_loss is a reference kept in losses
    for name in ("gradient_check", "model_gradient_check", "hybrid_loss", "TweedieIndex"):
        assert not hasattr(promolab, name), name


# heavy modules the package must not load: xml.sax.saxutils alone pulls in
# about 40 modules and 6 MB of RSS, and the test-only deps are never needed
HEAVY_MODULES = ("xml", "urllib.request", "http", "email", "ssl", "scipy", "hypothesis")


def test_import_loads_no_heavy_module():
    # a fresh interpreter, so that no module an earlier test loaded counts
    code = (
        "import sys\n"
        "import numpy, yaml\n"
        "import promolab, promolab.cli\n"
        f"print([m for m in {HEAVY_MODULES!r} if m in sys.modules])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(promolab.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
