"""Matched-arm estimator oracles, budget sweeps, cross-validation plumbing."""

import hashlib
import logging
from dataclasses import astuple

import numpy as np
import pytest

from promolab import evaluator
from promolab.datagen import redraw_outcomes
from promolab.errors import EstimationError, ValidationError
from promolab.evaluator import (
    CurvePoint,
    EvalReport,
    FoldMetrics,
    budget_sweep,
    cross_validated_eval,
    curve_to_csv,
    estimate_policy_cost,
    estimate_policy_value,
    evaluate_variant,
    lift_purchase_amount,
    load_curve_csv,
)
from promolab.metrics import MetricReport
from promolab.nncore import make_rng


class TestHandEstimates:
    def test_two_arm_worked_example(self):
        # arm 0: 2 planned, 1 matched with y=1 -> scaled to 2
        # arm 1: 2 planned, 2 matched with y=3+4 -> stays 7
        plan = np.array([0, 0, 1, 1])
        trial = np.array([0, 1, 1, 1])
        y = np.array([1.0, 2.0, 3.0, 4.0])
        est = estimate_policy_value(plan, trial, y, n_arms=2)
        assert est.total == 9.0
        by_arm = {a.arm: a for a in est.arms}
        assert by_arm[0].estimate == 2.0
        assert by_arm[1].estimate == 7.0
        assert by_arm[0].policy_count == 2 and by_arm[0].matched_count == 1

    def test_full_match_identity_is_exact(self, small_world):
        _, dataset, _ = small_world
        n_arms = int(dataset.arm.max()) + 1
        est = estimate_policy_value(dataset.arm, dataset.arm, dataset.y, n_arms)
        # every scale factor is exactly 1, so the estimate is the grouped sum
        grouped = float(np.bincount(dataset.arm, weights=dataset.y, minlength=n_arms).sum())
        assert est.total == grouped
        assert est.total == pytest.approx(dataset.y.sum(), rel=1e-12)
        for a in est.arms:
            assert a.policy_count == a.matched_count
            assert a.estimate == a.matched_total

    def test_unmatched_arm_raises(self):
        with pytest.raises(EstimationError):
            estimate_policy_value(np.array([1, 1]), np.array([0, 0]), np.array([1.0, 2.0]), 2)

    def test_unused_arm_does_not_raise(self):
        est = estimate_policy_value(np.array([0, 0]), np.array([0, 1]), np.array([1.0, 5.0]), 2)
        assert est.total == 2.0
        assert [a.arm for a in est.arms] == [0]

    def test_small_match_warns(self, caplog):
        plan = np.zeros(100, dtype=np.int64)
        trial = np.concatenate([np.zeros(5, dtype=np.int64), np.ones(95, dtype=np.int64)])
        y = np.ones(100)
        with caplog.at_level(logging.WARNING, logger="promolab.evaluator"):
            est = estimate_policy_value(plan, trial, y, 2)
        assert est.total == pytest.approx(100.0)
        assert any("fewer than" in r.message for r in caplog.records)

    def test_cost_uses_realized_coupons(self):
        # matched arm-1 record has s=1, so the coupon was redeemed
        plan = np.array([1, 1])
        trial = np.array([1, 0])
        s = np.array([1.0, 1.0])
        est = estimate_policy_cost(plan, trial, s, coupon_values=np.array([0.0, 2.0]))
        assert est.total == 4.0

    def test_cost_zero_when_no_direct_purchases(self):
        plan = np.array([1, 1])
        trial = np.array([1, 1])
        s = np.array([0.0, 0.0])
        est = estimate_policy_cost(plan, trial, s, coupon_values=np.array([0.0, 2.0]))
        assert est.total == 0.0

    def test_lift_is_plan_minus_control(self):
        plan = np.array([0, 0, 1, 1])
        trial = np.array([0, 1, 1, 1])
        y = np.array([1.0, 2.0, 3.0, 4.0])
        lpa = lift_purchase_amount(plan, trial, y, 2, control_arm=0)
        control_est = estimate_policy_value(np.zeros(4, dtype=np.int64), trial, y, 2)
        assert lpa == pytest.approx(9.0 - control_est.total)

    def test_validation_errors(self):
        with pytest.raises(ValidationError):
            estimate_policy_value(np.array([0]), np.array([0]), np.array([-1.0]), 1)
        with pytest.raises(ValidationError):
            estimate_policy_value(np.array([2]), np.array([0]), np.array([1.0]), 2)
        with pytest.raises(ValidationError):
            estimate_policy_value(np.array([], dtype=np.int64), np.array([], dtype=np.int64), np.array([]), 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_amount_rejected(self, bad):
        # a NaN amount once gave a NaN total
        y = np.array([1.0, bad, 3.0])
        with pytest.raises(ValidationError, match="non-finite"):
            estimate_policy_value(np.array([0, 1, 1]), np.array([0, 1, 0]), y, 2)

    def test_non_finite_direct_flag_rejected(self):
        # a NaN flag once gave a NaN total, even on the free control arm
        s = np.array([1.0, np.nan, 0.0])
        with pytest.raises(ValidationError, match="non-finite"):
            estimate_policy_cost(np.array([0, 0, 1]), np.array([1, 0, 1]), s, np.array([0.0, 2.0]))

    @pytest.mark.parametrize(
        "trial, s, message",
        [
            ([1, 2], [1.0, 1.0], "trial arm index out of range"),
            ([0, 1], [np.inf, 1.0], "non-finite"),
            ([1, 1], [0.5, 1.0], "0 or 1"),
            ([1, 1], [1.0], "equal length"),
        ],
        ids=[
            "arm_past_the_last_coupon", "infinite_flag_on_the_free_arm", "fractional_flag",
            "one_flag_for_two_records",
        ],
    )
    def test_cost_inputs_checked_before_the_product(self, trial, s, message):
        # these once raised a bare IndexError, warned on 0 * inf before the
        # ValidationError, scored half a coupon, and spread one flag over every
        # record; the suite's config turns a warning into an error, so none may
        # come first
        with pytest.raises(ValidationError, match=message):
            estimate_policy_cost(np.array([1, 1]), np.array(trial), np.array(s), np.array([0.0, 2.0]))


class TestUnbiasedness:
    def test_estimator_mean_tracks_exact_policy_value(self, small_world):
        cfg, _, truth = small_world
        # a fixed plan that uses every arm widely, so matches are guaranteed
        plan = (np.arange(truth.n) % truth.p_direct.shape[1]).astype(np.int64)
        exact = truth.policy_value(plan)
        n_arms = truth.p_direct.shape[1]
        estimates = []
        for r in range(300):
            trial, _, y = redraw_outcomes(truth, cfg.assignment_probs, make_rng(55, r))
            estimates.append(estimate_policy_value(plan, trial, y, n_arms).total)
        estimates = np.asarray(estimates)
        se = estimates.std(ddof=1) / np.sqrt(len(estimates))
        assert abs(estimates.mean() - exact) < 4 * se


class TestBudgetSweep:
    def test_points_cover_budgets_and_costs_fit(self, small_world):
        cfg, dataset, truth = small_world
        budgets = [0.0, 200.0, 800.0]
        points, plans = budget_sweep(
            truth.mean_enduring,
            truth.p_direct,
            cfg.coupon_values,
            budgets,
            dataset.arm,
            dataset.s,
            dataset.y,
            cfg.control_arm,
        )
        assert [p.budget for p in points] == budgets
        assert len(plans) == 3
        for b, plan in zip(budgets, plans):
            assert plan.total_cost <= b + 1e-9
        # zero budget means the all-control plan, whose lift is identically 0
        assert np.all(plans[0].arms == cfg.control_arm)
        assert points[0].lpa == 0.0

    def test_planned_value_rises_with_budget(self):
        # synthetic matrices with broad arm usage keep every plan estimable
        rng = make_rng(88)
        n, coupons = 400, np.array([0.0, 1.0, 2.0])
        value = rng.uniform(0.5, 3.0, size=(n, 3))
        direct = rng.uniform(0.2, 0.8, size=(n, 3))
        trial = rng.integers(0, 3, size=n)
        s = rng.integers(0, 2, size=n).astype(np.float64)
        y = rng.gamma(2.0, 1.0, size=n)
        budgets = [0.0, 30.0, 120.0, 1e6]
        points, plans = budget_sweep(value, direct, coupons, budgets, trial, s, y, 0)
        values = [p.total_value for p in plans]
        assert np.all(np.diff(values) >= -1e-9)
        # the loose-budget plan takes the per-customer best arm
        assert plans[-1].total_value == pytest.approx(value.max(axis=1).sum())

    def test_lpa_matches_lift_purchase_amount(self, small_world):
        # the sweep estimates the all-control baseline once; the lift must be
        # the same float that `lift_purchase_amount` computes per plan
        cfg, dataset, truth = small_world
        points, plans = budget_sweep(
            truth.mean_enduring, truth.p_direct, cfg.coupon_values, [0.0, 300.0, 900.0],
            dataset.arm, dataset.s, dataset.y, cfg.control_arm,
        )
        for point, plan in zip(points, plans):
            lpa = lift_purchase_amount(plan.arms, dataset.arm, dataset.y, cfg.n_arms, cfg.control_arm)
            assert point.lpa == lpa

    def test_bad_control_arm_rejected(self, small_world):
        cfg, dataset, truth = small_world
        with pytest.raises(ValidationError, match="control_arm"):
            budget_sweep(
                truth.mean_enduring, truth.p_direct, cfg.coupon_values, [100.0],
                dataset.arm, dataset.s, dataset.y, cfg.n_arms,
            )

    def test_curve_csv_round_trip(self, tmp_path):
        points = [
            CurvePoint(budget=0.0, cost=0.0, lpa=0.0, value=10.0),
            CurvePoint(budget=1.5, cost=1.2345678901234567, lpa=0.5, value=11.0),
        ]
        path = tmp_path / "curve.csv"
        curve_to_csv(points, path)
        loaded = load_curve_csv(path)
        assert loaded == points
        again = tmp_path / "curve2.csv"
        curve_to_csv(loaded, again)
        assert path.read_bytes() == again.read_bytes()

    def test_curve_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValidationError):
            load_curve_csv(path)


@pytest.fixture(scope="module")
def cv_result(small_world, fast_model_config):
    cfg, dataset, _ = small_world
    return cross_validated_eval(
        dataset.features,
        dataset.arm,
        dataset.s,
        dataset.y,
        cfg.n_arms,
        config=fast_model_config,
        seed=5,
        n_folds=3,
    )


class TestCrossValidation:
    def test_every_record_scored(self, cv_result, small_world):
        cfg, dataset, _ = small_world
        for scores in (cv_result.oof.direct, cv_result.oof.enduring_propensity, cv_result.oof.amount):
            assert scores.shape == (dataset.n, cfg.n_arms)
        assert np.all(np.isfinite(cv_result.oof.direct))
        assert np.all(np.isfinite(cv_result.oof.amount))
        assert np.all((cv_result.oof.direct > 0) & (cv_result.oof.direct < 1))

    def test_fold_sizes_partition(self, cv_result, small_world):
        _, dataset, _ = small_world
        sizes = [fm.n_test for fm in cv_result.fold_metrics]
        assert sum(sizes) == dataset.n
        assert max(sizes) - min(sizes) <= 1

    def test_deterministic(self, small_world, fast_model_config):
        cfg, dataset, _ = small_world
        sub = dataset.subset(np.arange(900))
        kwargs = dict(config=fast_model_config, seed=5, n_folds=3)
        a = cross_validated_eval(sub.features, sub.arm, sub.s, sub.y, cfg.n_arms, **kwargs)
        b = cross_validated_eval(sub.features, sub.arm, sub.s, sub.y, cfg.n_arms, **kwargs)
        np.testing.assert_array_equal(a.oof.amount, b.oof.amount)
        assert a.pooled == b.pooled

    def test_metrics_pinned(self, cv_result):
        # computed when the folds were scored with `predict` on the logged arm
        # only: the logged-arm column of the out-of-fold matrix gives the same bytes
        reports = [cv_result.pooled] + [fm.metrics for fm in cv_result.fold_metrics]
        data = np.array([astuple(r) for r in reports], dtype=np.float64).tobytes()
        assert hashlib.sha256(data).hexdigest() == (
            "ce96b7ae66c76a6cef235232353af8acb3e923d1e69bf17e8a7129c5e6af5de8"
        )

    def test_fold_count_validation(self, small_world, fast_model_config):
        cfg, dataset, _ = small_world
        with pytest.raises(ValidationError):
            cross_validated_eval(
                dataset.features, dataset.arm, dataset.s, dataset.y, cfg.n_arms,
                config=fast_model_config, n_folds=1,
            )


class TestEvalReport:
    def sample_report(self):
        metrics = MetricReport(auc=0.75, coeff=0.5, corr=0.4, nrmse=1.2, nmae=0.9)
        return EvalReport(
            variant="full",
            n_records=1000,
            metrics=metrics,
            budget=50.0,
            estimated_value=123.4,
            estimated_cost=49.0,
            lpa=7.5,
            fold_metrics=[FoldMetrics(fold=0, n_test=500, metrics=metrics)],
        )

    def test_json_round_trip(self, tmp_path):
        report = self.sample_report()
        path = tmp_path / "eval.json"
        report.save(path)
        loaded = EvalReport.load(path)
        assert loaded == report

    def test_json_bytes_deterministic(self, tmp_path):
        report = self.sample_report()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        report.save(a)
        report.save(b)
        assert a.read_bytes() == b.read_bytes()

    def test_optional_fields_survive_none(self, tmp_path):
        report = EvalReport(
            variant="direct_only",
            n_records=10,
            metrics=MetricReport(auc=0.6, coeff=0.1, corr=0.2, nrmse=2.0, nmae=1.0),
        )
        path = tmp_path / "eval.json"
        report.save(path)
        loaded = EvalReport.load(path)
        assert loaded.budget is None and loaded.lpa is None


class TestEvaluateVariant:
    def test_full_pipeline_populates_allocation_fields(self, small_world, fast_model_config):
        cfg, dataset, _ = small_world
        sub = dataset.subset(np.arange(1200))
        report = evaluate_variant(
            sub.features,
            sub.arm,
            sub.s,
            sub.y,
            cfg.coupon_values,
            cfg.control_arm,
            fast_model_config,
            seed=3,
            budget=150.0,
            n_folds=2,
        )
        assert report.variant == "full"
        assert report.n_records == 1200
        assert report.budget == 150.0
        assert report.estimated_value is not None and report.estimated_value > 0
        assert report.estimated_cost is not None
        assert report.lpa is not None
        assert len(report.fold_metrics) == 2

    def test_budget_none_skips_allocation(self, small_world, fast_model_config):
        cfg, dataset, _ = small_world
        sub = dataset.subset(np.arange(800))
        report = evaluate_variant(
            sub.features, sub.arm, sub.s, sub.y, cfg.coupon_values, cfg.control_arm,
            fast_model_config, seed=3, budget=None, n_folds=2,
        )
        assert report.budget is None
        assert report.lpa is None


@pytest.fixture(scope="module")
def budgeted_eval(small_world, fast_model_config):
    """A 2-fold budgeted evaluation, with every `train_model` call counted."""
    cfg, dataset, _ = small_world
    sub = dataset.subset(np.arange(1200))
    calls = []
    train_model = evaluator.train_model

    def counting(*args, **kwargs):
        calls.append(kwargs.get("seed"))
        return train_model(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluator, "train_model", counting)
        report = evaluate_variant(
            sub.features, sub.arm, sub.s, sub.y, cfg.coupon_values, cfg.control_arm,
            fast_model_config, seed=3, budget=150.0, n_folds=2,
        )
    return sub, report, calls


class TestCrossFittedPlan:
    def test_trains_only_fold_models(self, budgeted_eval):
        _, _, calls = budgeted_eval
        assert len(calls) == 2

    def test_report_json_pinned(self, budgeted_eval):
        # computed when `to_json` serialized a hand-built dict in place of
        # `asdict`, and re-derived when the Lagrangian solver took its hull
        # steps in place of bisecting: the plan moved, and its estimated value
        # with it (4972.98 to 4975.56); the fold metrics did not
        _, report, _ = budgeted_eval
        assert hashlib.sha256(report.to_json().encode()).hexdigest() == (
            "b90c1f9d20f94027d4ebb11f9f33ff3f5786bef3f8586987f7c7662b8fdaa5df"
        )

    def test_plan_solved_on_out_of_fold_matrix(self, budgeted_eval, small_world, fast_model_config):
        cfg, _, _ = small_world
        sub, report, _ = budgeted_eval
        cv = cross_validated_eval(
            sub.features, sub.arm, sub.s, sub.y, cfg.n_arms,
            config=fast_model_config, seed=3, n_folds=2,
        )
        points, _ = budget_sweep(
            cv.oof.amount, cv.oof.direct, cfg.coupon_values, [150.0],
            sub.arm, sub.s, sub.y, cfg.control_arm,
        )
        assert report.metrics == cv.pooled
        assert report.estimated_value == points[0].value
        assert report.estimated_cost == points[0].cost
        assert report.lpa == points[0].lpa
