"""Metric oracles: hand cases, scipy cross-checks, and an exact
tie-enumeration oracle for the normalized Gini."""

import itertools

import numpy as np
import pytest
from scipy import stats

from promolab.errors import MetricUndefinedError, ValidationError
from promolab.metrics import (
    MetricReport,
    _tie_averaged_actuals,
    auc,
    error_metrics,
    metric_report,
    normalized_gini,
    spearman,
)

from oracles import tie_averaged_actuals_loop


class TestAuc:
    def test_hand_case(self):
        # positives 0.35, 0.8 vs negatives 0.1, 0.4: 3 of 4 pairs won
        scores = np.array([0.1, 0.4, 0.35, 0.8])
        labels = np.array([0, 0, 1, 1])
        assert abs(auc(scores, labels) - 0.75) < 1e-15

    def test_perfect_and_inverted(self):
        scores = np.array([1.0, 2.0, 3.0, 4.0])
        labels = np.array([0, 0, 1, 1])
        assert auc(scores, labels) == 1.0
        assert auc(-scores, labels) == 0.0

    def test_ties_count_half(self):
        scores = np.array([0.5, 0.5])
        labels = np.array([0, 1])
        assert abs(auc(scores, labels) - 0.5) < 1e-15

    def test_matches_mann_whitney(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            scores = rng.integers(0, 8, size=60).astype(float)  # plenty of ties
            labels = rng.integers(0, 2, size=60)
            if labels.min() == labels.max():
                continue
            u = stats.mannwhitneyu(scores[labels == 1], scores[labels == 0]).statistic
            expected = u / ((labels == 1).sum() * (labels == 0).sum())
            assert abs(auc(scores, labels) - expected) < 1e-12

    def test_single_class_undefined(self):
        with pytest.raises(MetricUndefinedError):
            auc(np.array([0.1, 0.2]), np.array([1, 1]))

    def test_bad_labels(self):
        with pytest.raises(ValidationError):
            auc(np.array([0.1, 0.2]), np.array([0, 2]))

    @pytest.mark.parametrize(
        "scores",
        [[np.nan, 1.0, 2.0, np.nan], [np.inf, 1.0, 2.0, 3.0], [0.0, 1.0, -np.inf, 3.0]],
        ids=["nan", "inf", "minus_inf"],
    )
    def test_non_finite_scores_rejected(self, scores):
        # NaN has no rank: two NaN scores used to tie and give 0.375
        with pytest.raises(ValidationError):
            auc(scores, [0, 1, 0, 1])


class TestSpearman:
    def test_hand_case(self):
        assert abs(spearman([1.0, 2.0, 3.0], [3.0, 1.0, 2.0]) - (-0.5)) < 1e-12

    def test_monotone_transform_invariant(self):
        x = np.array([0.3, 1.2, 5.0, 2.2, 0.1])
        y = np.exp(x)
        assert abs(spearman(x, y) - 1.0) < 1e-12

    def test_matches_scipy_with_ties(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.integers(0, 6, size=50).astype(float)
            y = rng.integers(0, 6, size=50).astype(float)
            if np.ptp(x) == 0 or np.ptp(y) == 0:
                continue
            expected = stats.spearmanr(x, y).statistic
            assert abs(spearman(x, y) - expected) < 1e-12

    def test_constant_vector_undefined(self):
        with pytest.raises(MetricUndefinedError):
            spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("side", ["x", "y"])
    def test_non_finite_input_rejected(self, side):
        good = np.array([1.0, 2.0, 3.0, 4.0])
        bad = np.array([1.0, np.nan, 3.0, np.inf])
        x, y = (bad, good) if side == "x" else (good, bad)
        with pytest.raises(ValidationError):
            spearman(x, y)


def _gini_of_order(actuals_in_order):
    lorenz = np.cumsum(actuals_in_order) / np.sum(actuals_in_order)
    return float(np.sum(lorenz) - (len(actuals_in_order) + 1) / 2.0)


def _gini_by_tie_enumeration(predictions, actuals):
    """Exact expectation of the Gini statistic over orderings of tied
    predictions, by brute-force enumeration. Oracle for small inputs."""
    predictions = np.asarray(predictions, dtype=float)
    actuals = np.asarray(actuals, dtype=float)
    n = len(predictions)
    totals = []
    for perm in itertools.permutations(range(n)):
        seq = predictions[list(perm)]
        if np.any(np.diff(seq) > 0):  # must be non-increasing predictions
            continue
        totals.append(_gini_of_order(actuals[list(perm)]))
    model = float(np.mean(totals))
    perfect = _gini_of_order(np.sort(actuals)[::-1])
    return model / perfect


class TestNormalizedGini:
    def test_perfect_ranking_scores_one(self):
        actuals = np.array([5.0, 1.0, 3.0, 0.0, 2.0])
        assert abs(normalized_gini(actuals, actuals) - 1.0) < 1e-12

    def test_reversed_ranking_scores_minus_one(self):
        actuals = np.array([4.0, 1.0, 3.0, 0.0])
        assert abs(normalized_gini(-actuals, actuals) + 1.0) < 1e-12

    def test_tie_handling_matches_enumeration_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(3, 8))
            predictions = rng.integers(0, 3, size=n).astype(float)
            actuals = rng.integers(0, 5, size=n).astype(float)
            if actuals.sum() == 0 or np.ptp(actuals) == 0:
                continue
            expected = _gini_by_tie_enumeration(predictions, actuals)
            assert abs(normalized_gini(predictions, actuals) - expected) < 1e-10

    def test_tie_groups_match_the_loop_bytes(self):
        rng = np.random.default_rng(11)
        cases = [
            (np.array([0.5]), np.array([2.0])),
            (np.full(9, 0.5), rng.uniform(0.0, 5.0, 9)),  # one group
            (np.arange(9.0), rng.uniform(0.0, 5.0, 9)),  # no group
            (np.array([0.0, -0.0, 1.0, -0.0, 1.0]), np.array([0.1, 0.2, 0.3, 0.7, 1.1])),
        ]
        for _ in range(40):
            n = int(rng.integers(2, 400))
            levels = int(rng.integers(1, 12))
            predictions = np.round(rng.integers(0, levels, size=n) * 0.1, 1)
            cases.append((predictions, rng.uniform(0.0, 10.0, n) * (rng.random(n) < 0.7)))
        for predictions, actuals in cases:
            expected = tie_averaged_actuals_loop(predictions, actuals)
            assert _tie_averaged_actuals(predictions, actuals).tobytes() == expected.tobytes()

    def test_all_tied_predictions_score_zero(self):
        actuals = np.array([1.0, 2.0, 3.0])
        assert abs(normalized_gini(np.full(3, 0.5), actuals)) < 1e-12

    def test_negative_actuals_rejected(self):
        with pytest.raises(ValidationError):
            normalized_gini(np.array([1.0, 2.0]), np.array([-1.0, 2.0]))

    def test_zero_total_undefined(self):
        with pytest.raises(MetricUndefinedError):
            normalized_gini(np.array([1.0, 2.0]), np.array([0.0, 0.0]))

    def test_constant_positive_actuals_undefined(self):
        with pytest.raises(MetricUndefinedError):
            normalized_gini(np.array([1.0, 2.0]), np.array([3.0, 3.0]))

    @pytest.mark.parametrize("side", ["predictions", "actuals"])
    def test_non_finite_input_rejected(self, side):
        good = np.array([1.0, 2.0, 3.0, 4.0])
        bad = np.array([1.0, np.nan, 3.0, 4.0])
        preds, actuals = (bad, good) if side == "predictions" else (good, bad)
        with pytest.raises(ValidationError):
            normalized_gini(preds, actuals)


class TestErrorMetrics:
    def test_hand_case(self):
        nrmse, nmae = error_metrics(np.array([5.0, 5.0]), np.array([0.0, 10.0]))
        assert abs(nrmse - 1.0) < 1e-15
        assert abs(nmae - 1.0) < 1e-15

    def test_perfect_predictions(self):
        actuals = np.array([1.0, 2.0, 3.0])
        assert error_metrics(actuals, actuals) == (0.0, 0.0)

    def test_rmse_dominates_mae(self):
        rng = np.random.default_rng(3)
        actuals = rng.gamma(2.0, 2.0, size=200)
        preds = actuals + rng.normal(0, 1.0, size=200)
        nrmse, nmae = error_metrics(preds, actuals)
        assert nrmse >= nmae > 0

    def test_zero_mean_actuals_undefined(self):
        with pytest.raises(MetricUndefinedError):
            error_metrics(np.array([1.0]), np.array([0.0]))

    @pytest.mark.parametrize("side", ["predictions", "actuals"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, side, bad):
        good = np.array([1.0, 2.0, 3.0, 4.0])
        poisoned = np.array([1.0, bad, 3.0, 4.0])
        preds, actuals = (poisoned, good) if side == "predictions" else (good, poisoned)
        with pytest.raises(ValidationError):
            error_metrics(preds, actuals)


class TestMetricReport:
    def test_all_five_fields_populated(self):
        rng = np.random.default_rng(11)
        n = 300
        labels = rng.integers(0, 2, size=n)
        scores = labels * 0.3 + rng.random(n) * 0.7
        amounts = rng.gamma(2.0, 2.0, size=n) * (1 + labels)
        preds = amounts + rng.normal(0, 2.0, size=n)
        preds = np.maximum(preds, 0.01)
        report = metric_report(scores, labels, preds, amounts)
        assert isinstance(report, MetricReport)
        for field in ("auc", "coeff", "corr", "nrmse", "nmae"):
            assert np.isfinite(getattr(report, field))
        assert report.auc > 0.5
        assert report.corr > 0.3
