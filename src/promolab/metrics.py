"""Prediction-quality metrics: AUC, Spearman, normalized Gini, NRMSE, NMAE.

All are hand-rolled on ranks/sums so tie handling is explicit and
deterministic: AUC counts ties as 1/2 via average ranks, Spearman uses
average ranks, and the Gini coefficient averages tied-prediction groups over
their orderings (equivalent to replacing each tied group by its mean). Every
metric rejects non-finite scores, predictions and actuals with
``ValidationError``, because NaN has no rank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MetricUndefinedError, ValidationError


@dataclass
class MetricReport:
    auc: float
    coeff: float  # normalized Gini
    corr: float  # Spearman
    nrmse: float
    nmae: float


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned the mean rank of their group.

    A tie group spans sorted positions [left, right), so its mean 1-based
    rank is (left + right + 1) / 2, an exact half-integer.
    """
    order = np.argsort(x, kind="stable")
    sorted_x = x[order]
    left = np.searchsorted(sorted_x, sorted_x, side="left")
    right = np.searchsorted(sorted_x, sorted_x, side="right")
    ranks = np.empty(len(x), dtype=np.float64)
    ranks[order] = 0.5 * (left + right + 1)
    return ranks


def _require_finite(what: str, *arrays: np.ndarray):
    for a in arrays:
        if not np.all(np.isfinite(a)):
            raise ValidationError(f"{what} must be finite")


def auc(scores, labels) -> float:
    """Probability a positive outranks a negative (Mann-Whitney form)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValidationError("scores and labels must be equal-length 1-D arrays")
    if not np.all((labels == 0) | (labels == 1)):
        raise ValidationError("labels must be 0 or 1")
    _require_finite("scores", scores)
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise MetricUndefinedError("AUC needs both classes present")
    ranks = _average_ranks(scores)
    rank_sum = float(np.sum(ranks[labels == 1]))
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def spearman(x, y) -> float:
    """Spearman rank correlation: Pearson correlation of average ranks."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or len(x) < 2:
        raise ValidationError("spearman needs two equal-length 1-D arrays, length >= 2")
    _require_finite("spearman inputs", x, y)
    rx = _average_ranks(x)
    ry = _average_ranks(y)
    sx = rx - rx.mean()
    sy = ry - ry.mean()
    denom = np.sqrt(np.sum(sx * sx) * np.sum(sy * sy))
    if denom == 0.0:
        raise MetricUndefinedError("spearman is undefined for a constant vector")
    return float(np.sum(sx * sy) / denom)


def _gini_sum(actuals_in_order: np.ndarray) -> float:
    """Lorenz-sum Gini statistic for actuals already in presentation order."""
    n = len(actuals_in_order)
    lorenz = np.cumsum(actuals_in_order) / np.sum(actuals_in_order)
    return float(np.sum(lorenz) - (n + 1) / 2.0)


def _tie_averaged_actuals(predictions: np.ndarray, actuals: np.ndarray) -> np.ndarray:
    """Actuals ordered by descending prediction, tied groups replaced by their mean.

    Averaging a tied group's orderings leaves every cumulative sum equal to
    the one obtained from the group-mean sequence, so this is the exact
    expectation over tie orderings.
    """
    order = np.argsort(-predictions, kind="stable")
    pred_sorted = predictions[order]
    act_sorted = actuals[order]
    cuts = np.flatnonzero(pred_sorted[1:] != pred_sorted[:-1]) + 1
    starts = np.concatenate(([0], cuts))
    ends = np.concatenate((cuts, [len(pred_sorted)]))
    tied = ends - starts > 1
    for i, j in zip(starts[tied].tolist(), ends[tied].tolist()):
        act_sorted[i:j] = act_sorted[i:j].mean()
    return act_sorted


def normalized_gini(predictions, actuals) -> float:
    """Gini of actuals ranked by the model, normalized by the perfect ranking."""
    predictions = np.asarray(predictions, dtype=np.float64)
    actuals = np.asarray(actuals, dtype=np.float64)
    if predictions.shape != actuals.shape or predictions.ndim != 1:
        raise ValidationError("predictions and actuals must be equal-length 1-D arrays")
    _require_finite("predictions and actuals", predictions, actuals)
    if np.any(actuals < 0):
        raise ValidationError("actuals must be nonnegative")
    if np.sum(actuals) <= 0:
        raise MetricUndefinedError("normalized Gini needs a positive actuals total")
    model = _gini_sum(_tie_averaged_actuals(predictions, actuals))
    perfect = _gini_sum(np.sort(actuals)[::-1])
    if perfect == 0.0:
        raise MetricUndefinedError("normalized Gini is undefined for constant actuals")
    return model / perfect


def error_metrics(predictions, actuals) -> tuple[float, float]:
    """(NRMSE, NMAE): RMSE and MAE divided by the mean of the actuals."""
    predictions = np.asarray(predictions, dtype=np.float64)
    actuals = np.asarray(actuals, dtype=np.float64)
    if predictions.shape != actuals.shape or predictions.ndim != 1:
        raise ValidationError("predictions and actuals must be equal-length 1-D arrays")
    _require_finite("predictions and actuals", predictions, actuals)
    mean_actual = float(np.mean(actuals))
    if mean_actual <= 0:
        raise MetricUndefinedError("error metrics need a positive mean of actuals")
    err = predictions - actuals
    nrmse = float(np.sqrt(np.mean(err * err))) / mean_actual
    nmae = float(np.mean(np.abs(err))) / mean_actual
    return nrmse, nmae


def metric_report(direct_scores, direct_labels, amount_predictions, amounts) -> MetricReport:
    """All five metrics for one (propensity, amount) prediction pair."""
    nrmse, nmae = error_metrics(amount_predictions, amounts)
    return MetricReport(
        auc=auc(direct_scores, direct_labels),
        coeff=normalized_gini(amount_predictions, amounts),
        corr=spearman(amount_predictions, amounts),
        nrmse=nrmse,
        nmae=nmae,
    )
