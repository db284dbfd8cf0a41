"""Offline policy evaluation on randomized-trial logs, plus budget sweeps.

The estimator rests on the trial's randomization: a plan is scored using only
the customers whose logged arm matches the plan's choice. For arm j, with
``policy_count_j`` customers assigned j by the plan and ``matched_count_j``
of them logged under j, the arm's expected total is the matched outcome sum
scaled by ``policy_count_j / matched_count_j``; the plan's value is the sum
over arms. Because assignment is independent of features, each matched group
is a uniform subsample of the plan group and the estimate is unbiased
whenever every used arm has at least one match. Substituting realized
incentive cost for the outcome gives the spend. One match of a plan to the
log gives its value and its spend, and so its lift in purchase amount (LPA):
that value less the all-control plan's, which a sweep estimates once.

Evaluation is cross-fitted: each of k fold models scores every arm of the
fold it never saw. Metrics read the logged arm's column of that out-of-fold
matrix, and a budgeted plan is solved on the whole matrix.
"""

from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from .allocator import AllocationPlan, build_problem, solve_lagrangian
from .errors import EstimationError, ValidationError, arm_indices
from .metrics import MetricReport, metric_report
from .model import ModelConfig, PredictionMatrix, predict_matrix, train_model
from .nncore import make_rng
from .tables import read_table, write_table

logger = logging.getLogger("promolab.evaluator")

# arms matched by fewer logged customers than this give noisy scale factors
SMALL_MATCH_WARNING = 30

_STREAM_FOLDS = 100
_STREAM_FOLD_TRAIN = 200

CURVE_HEADER = ("budget", "cost", "lpa", "value")


@dataclass
class ArmEstimate:
    """One arm's contribution to a plan estimate."""

    arm: int
    policy_count: int
    matched_count: int
    matched_total: float
    estimate: float


@dataclass
class PolicyEstimate:
    """Estimated expected total over the whole plan, with per-arm detail."""

    total: float
    arms: list  # list[ArmEstimate]


def _plan_estimates(plan_arms, trial_arms, columns, n_arms: int) -> list:
    """One ``PolicyEstimate`` per column of per-record values, all read off one match of the
    plan to the log; warns once about small matches, raises on a used arm with none."""
    plan_arms = arm_indices(plan_arms, "plan arms")
    trial_arms = arm_indices(trial_arms, "trial arms")
    columns = [np.asarray(values, dtype=np.float64) for values in columns]
    n = len(plan_arms)
    if trial_arms.shape != (n,) or any(values.shape != (n,) for values in columns):
        raise ValidationError("plan, trial arms and values must have equal length")
    if n == 0:
        raise ValidationError("cannot estimate from an empty log")
    if not all(np.all(np.isfinite(values)) for values in columns):
        raise ValidationError("values to estimate from contain non-finite entries")
    for name, arr in (("plan", plan_arms), ("trial", trial_arms)):
        if np.any(arr < 0) or np.any(arr >= n_arms):
            raise ValidationError(f"{name} arm index out of range [0, {n_arms})")
    plan_arms, trial_arms = np.asarray(plan_arms, dtype=np.int64), np.asarray(trial_arms, dtype=np.int64)
    match = plan_arms == trial_arms
    matched_arms = plan_arms[match]
    policy_count = np.bincount(plan_arms, minlength=n_arms).tolist()
    matched_count = np.bincount(matched_arms, minlength=n_arms).tolist()
    used = [j for j in range(n_arms) if policy_count[j] > 0]
    unmatched = [j for j in used if matched_count[j] == 0]
    if unmatched:
        raise EstimationError(
            f"plan uses arms {unmatched} with no matching trial records; the estimate is undefined"
        )
    small = [j for j in used if matched_count[j] < SMALL_MATCH_WARNING]
    if small:
        logger.warning(
            "arms %s matched by fewer than %d trial records; estimates will be noisy",
            small, SMALL_MATCH_WARNING,
        )
    estimates = []
    for values in columns:
        matched_total = np.bincount(matched_arms, weights=values[match], minlength=n_arms).tolist()
        estimate = PolicyEstimate(total=0.0, arms=[])
        for j in used:
            est = matched_total[j] * (policy_count[j] / matched_count[j])
            estimate.arms.append(ArmEstimate(j, policy_count[j], matched_count[j], matched_total[j], est))
            estimate.total += est
        estimates.append(estimate)
    return estimates


def _spend(trial_arms, s, coupon_values) -> np.ndarray:
    """Each record's realized coupon cost: its face value where the record shows a direct purchase."""
    coupon_values = np.asarray(coupon_values, dtype=np.float64)
    trial_arms = arm_indices(trial_arms, "trial arms")
    s = np.asarray(s, dtype=np.float64)
    # checked before the product, which would index past the coupons or warn on 0 * inf
    if np.any(trial_arms < 0) or np.any(trial_arms >= len(coupon_values)):
        raise ValidationError(f"trial arm index out of range [0, {len(coupon_values)})")
    if s.shape != trial_arms.shape:
        raise ValidationError("trial arms and direct flags must have equal length")
    if not np.all(np.isfinite(s)):
        raise ValidationError("direct flags contain non-finite entries")
    if not np.all((s == 0) | (s == 1)):
        raise ValidationError("direct flags must be 0 or 1")
    return coupon_values[np.asarray(trial_arms, dtype=np.int64)] * s


def estimate_policy_value(plan_arms, trial_arms, y, n_arms: int) -> PolicyEstimate:
    """Estimated expected total enduring amount if the plan had been deployed."""
    y = np.asarray(y, dtype=np.float64)
    if np.any(y < 0):
        raise ValidationError("y must be nonnegative")
    return _plan_estimates(plan_arms, trial_arms, [y], n_arms)[0]


def estimate_policy_cost(plan_arms, trial_arms, s, coupon_values) -> PolicyEstimate:
    """Estimated expected incentive spend: a coupon costs its face value when
    the matched record shows a direct purchase."""
    spend = _spend(trial_arms, s, coupon_values)
    return _plan_estimates(plan_arms, trial_arms, [spend], len(coupon_values))[0]


def _control_value(trial_arms, y, n_arms: int, control_arm: int) -> float:
    if not 0 <= control_arm < n_arms:
        raise ValidationError(f"control_arm {control_arm} out of range")
    control = np.full(len(np.asarray(trial_arms)), control_arm, dtype=np.int64)
    return estimate_policy_value(control, trial_arms, y, n_arms).total


def lift_purchase_amount(plan_arms, trial_arms, y, n_arms: int, control_arm: int) -> float:
    """Plan value minus the all-control plan value, both estimated on the log."""
    value = estimate_policy_value(plan_arms, trial_arms, y, n_arms).total
    return value - _control_value(trial_arms, y, n_arms, control_arm)


@dataclass
class CurvePoint:
    """One budget level of a sweep: realized totals under the chosen plan."""

    budget: float
    cost: float
    lpa: float
    value: float


def budget_sweep(
    value_matrix: np.ndarray,
    direct_matrix: np.ndarray,
    coupon_values: np.ndarray,
    budgets,
    trial_arms: np.ndarray,
    s: np.ndarray,
    y: np.ndarray,
    control_arm: int,
):
    """Allocate at each budget and score every plan on the trial log.

    Returns ``(points, plans)`` where each point carries the estimated cost,
    estimated value, and LPA of the plan solved at that budget.
    """
    points: list[CurvePoint] = []
    plans: list[AllocationPlan] = []
    n_arms = len(coupon_values)
    baseline = _control_value(trial_arms, y, n_arms, control_arm)
    # the baseline's estimate has checked y
    columns = [np.asarray(y, dtype=np.float64), _spend(trial_arms, s, coupon_values)]
    for b in budgets:
        problem = build_problem(value_matrix, direct_matrix, coupon_values, float(b))
        plan = solve_lagrangian(problem)
        value, cost = _plan_estimates(plan.arms, trial_arms, columns, n_arms)
        lpa = value.total - baseline
        points.append(CurvePoint(budget=float(b), cost=cost.total, lpa=lpa, value=value.total))
        plans.append(plan)
    return points, plans


def curve_to_csv(points, path):
    columns = [np.array([getattr(pt, name) for pt in points], dtype=np.float64) for name in CURVE_HEADER]
    write_table(path, CURVE_HEADER, columns)


def load_curve_csv(path):
    """The points of a ``curve_to_csv`` file; a NaN or infinite cell raises ``ValidationError``."""
    columns = read_table(path, CURVE_HEADER)
    for name, column in zip(CURVE_HEADER, columns):
        if not np.all(np.isfinite(column)):
            raise ValidationError(f"{path}: column {name} holds a non-finite value")
    return [CurvePoint(*row) for row in zip(*(c.tolist() for c in columns))]


@dataclass
class FoldMetrics:
    fold: int
    n_test: int
    metrics: MetricReport


@dataclass
class CrossValResult:
    """Out-of-fold ``(n, M)`` arm predictions and metrics from a k-fold run."""

    fold_metrics: list
    pooled: MetricReport
    oof: PredictionMatrix


def out_of_fold_predictions(
    features: np.ndarray,
    arms: np.ndarray,
    s: np.ndarray,
    y: np.ndarray,
    n_arms: int,
    config: ModelConfig | None = None,
    seed: int = 0,
    n_folds: int = 5,
    on_fold: Callable[[np.ndarray, PredictionMatrix], None] | None = None,
) -> PredictionMatrix:
    """The ``(n, M)`` arm predictions of k fold models, each row scored by the
    model that never saw it.

    Fold membership and per-fold training both derive from ``seed``. No
    metric is computed, so a log whose outcomes have a single class still
    gets its matrix. ``on_fold(test_idx, oof)`` runs after each fold's rows
    are scored, before the next fold's model trains.
    """
    if n_folds < 2:
        raise ValidationError("n_folds must be at least 2")
    n = len(features)
    if n < n_folds:
        raise ValidationError(f"cannot split {n} records into {n_folds} folds")
    features = np.asarray(features, dtype=np.float64)
    arms = np.asarray(arms, dtype=np.int64)
    s = np.asarray(s, dtype=np.int64)
    y = np.asarray(y, dtype=np.float64)

    perm = make_rng(seed, _STREAM_FOLDS).permutation(n)
    bounds = np.linspace(0, n, n_folds + 1).astype(int)
    oof = PredictionMatrix(np.empty((n, n_arms)), np.empty((n, n_arms)), np.empty((n, n_arms)))
    for k in range(n_folds):
        test_idx = perm[bounds[k] : bounds[k + 1]]
        train_idx = np.concatenate([perm[: bounds[k]], perm[bounds[k + 1] :]])
        result = train_model(
            features[train_idx],
            arms[train_idx],
            s[train_idx],
            y[train_idx],
            n_arms,
            config=config,
            seed=make_rng(seed, _STREAM_FOLD_TRAIN, k).integers(2**31),
        )
        held_out = predict_matrix(result.model, features[test_idx])
        oof.direct[test_idx] = held_out.direct
        oof.enduring_propensity[test_idx] = held_out.enduring_propensity
        oof.amount[test_idx] = held_out.amount
        if on_fold is not None:
            on_fold(test_idx, oof)
    return oof


def cross_validated_eval(
    features: np.ndarray,
    arms: np.ndarray,
    s: np.ndarray,
    y: np.ndarray,
    n_arms: int,
    config: ModelConfig | None = None,
    seed: int = 0,
    n_folds: int = 5,
) -> CrossValResult:
    """``out_of_fold_predictions`` plus fold and pooled metrics.

    The metrics read the logged arm's column of the out-of-fold scores
    against the logged outcomes. Each fold's metrics are computed as soon as
    the fold is scored, so a fold whose metrics are undefined raises before
    the next model trains.
    """
    arms = np.asarray(arms, dtype=np.int64)
    s = np.asarray(s, dtype=np.int64)
    y = np.asarray(y, dtype=np.float64)
    fold_metrics = []

    def score_fold(test_idx, oof):
        logged = (test_idx, arms[test_idx])
        report = metric_report(oof.direct[logged], s[test_idx], oof.amount[logged], y[test_idx])
        fold_metrics.append(FoldMetrics(fold=len(fold_metrics), n_test=len(test_idx), metrics=report))

    oof = out_of_fold_predictions(features, arms, s, y, n_arms, config, seed, n_folds, score_fold)
    logged = (np.arange(len(arms)), arms)
    pooled = metric_report(oof.direct[logged], s, oof.amount[logged], y)
    return CrossValResult(fold_metrics=fold_metrics, pooled=pooled, oof=oof)


@dataclass
class EvalReport:
    """One variant's evaluation summary, serializable to stable JSON."""

    variant: str
    n_records: int
    metrics: MetricReport
    budget: float | None = None
    estimated_value: float | None = None
    estimated_cost: float | None = None
    lpa: float | None = None
    fold_metrics: list = field(default_factory=list)

    def to_json(self) -> str:
        # sort_keys plus repr-style floats keep the bytes identical across runs
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    def save(self, path):
        with open(path, "w") as f:
            f.write(self.to_json())
            f.write("\n")

    @classmethod
    def from_dict(cls, d: dict) -> "EvalReport":
        return cls(
            variant=d["variant"],
            n_records=d["n_records"],
            metrics=MetricReport(**d["metrics"]),
            budget=d.get("budget"),
            estimated_value=d.get("estimated_value"),
            estimated_cost=d.get("estimated_cost"),
            lpa=d.get("lpa"),
            fold_metrics=[
                FoldMetrics(fold=fm["fold"], n_test=fm["n_test"], metrics=MetricReport(**fm["metrics"]))
                for fm in d.get("fold_metrics", [])
            ],
        )

    @classmethod
    def load(cls, path) -> "EvalReport":
        """Read ``save`` output; raises ``ValidationError`` naming ``path`` when it is not such a file."""
        try:
            with open(path) as f:
                return cls.from_dict(json.load(f))
        except KeyError as exc:
            raise ValidationError(f"{path}: malformed evaluation report: missing {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"{path}: malformed evaluation report: {exc}") from exc


def evaluate_variant(
    features: np.ndarray,
    arms: np.ndarray,
    s: np.ndarray,
    y: np.ndarray,
    coupon_values: np.ndarray,
    control_arm: int,
    config: ModelConfig,
    seed: int = 0,
    budget: float | None = None,
    n_folds: int = 5,
) -> EvalReport:
    """Full pipeline for one variant: CV metrics plus one budgeted allocation.

    The k fold models of ``cross_validated_eval`` are the only models trained.
    With a ``budget``, the plan is solved on their out-of-fold ``(n, M)``
    predictions, so each customer's arm is chosen by a model that never saw
    that customer, and the plan is scored on the log with the matched-arm
    estimator. Skipped when ``budget`` is None.
    """
    cv = cross_validated_eval(features, arms, s, y, len(coupon_values), config, seed, n_folds)
    report = EvalReport(
        variant=config.variant,
        n_records=len(features),
        metrics=cv.pooled,
        fold_metrics=cv.fold_metrics,
    )
    if budget is not None:
        points, _ = budget_sweep(
            cv.oof.amount, cv.oof.direct, coupon_values, [budget], arms, s, y, control_arm
        )
        report.budget = float(budget)
        report.estimated_value = points[0].value
        report.estimated_cost = points[0].cost
        report.lpa = points[0].lpa
    return report
