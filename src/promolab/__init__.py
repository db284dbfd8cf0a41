"""Promotion response modeling, budgeted incentive allocation, and offline
policy evaluation on randomized-trial logs, with a synthetic world whose
ground truth makes every estimate checkable."""

from .allocator import (
    AllocationPlan,
    AllocationProblem,
    build_problem,
    check_feasible,
    solve_exact_dp,
    solve_lagrangian,
)
from .datagen import (
    FeatureConfig,
    GenConfig,
    GroundTruth,
    RctDataset,
    generate_rct,
    sample_cpg,
)
from .errors import (
    EstimationError,
    InfeasiblePlanError,
    InstanceTooLargeError,
    MetricUndefinedError,
    PromolabError,
    ShapeError,
    TrainingError,
    ValidationError,
)
from .evaluator import (
    CrossValResult,
    CurvePoint,
    EvalReport,
    budget_sweep,
    cross_validated_eval,
    estimate_policy_cost,
    estimate_policy_value,
    evaluate_variant,
    lift_purchase_amount,
)
from .losses import LossWeights, cross_entropy_loss, tweedie_loss
from .metrics import MetricReport, auc, error_metrics, metric_report, normalized_gini, spearman
from .model import (
    VARIANTS,
    EpochStats,
    ModelConfig,
    PredictionMatrix,
    ResponseModel,
    TrainResult,
    build_model,
    load_model,
    predict,
    predict_matrix,
    save_model,
    train_model,
)
from .nncore import make_rng

__version__ = "0.1.0"

__all__ = [
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
