"""The public surface: ``promolab.__all__`` is pinned, so an API change edits this list on purpose."""

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
