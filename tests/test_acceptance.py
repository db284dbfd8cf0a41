"""Acceptance suite: nine end-to-end checks with pinned tolerances.

Each test exercises one claim the package stands on, from gradient
correctness through full-pipeline determinism, and records a single
pass/fail line in the terminal summary. Runtime budgets are asserted where
a check is only useful if it is also affordable.
"""

import json
import time

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from promolab.allocator import (
    AllocationProblem,
    build_problem,
    check_feasible,
    solve_exact_dp,
    solve_lagrangian,
)
from promolab.datagen import (
    GenConfig,
    cpg_parameters,
    generate_rct,
    redraw_outcomes,
    sample_cpg,
)
from promolab.evaluator import EvalReport, cross_validated_eval, estimate_policy_value
from promolab.losses import tweedie_loss
from promolab.metrics import metric_report
from promolab.model import (
    ModelConfig,
    VARIANTS,
    build_model,
    predict_matrix,
    train_model,
)
from promolab.nncore import make_rng
from promolab.report import render_report

from oracles import brute_force, model_gradient_check


def _record(log, number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    log.append(f"criterion {number} ({name}): {status} [{detail}]")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def _grad_check_batch(n=64, n_arms=3, seed=17):
    rng = make_rng(seed)
    features = np.abs(rng.normal(2.0, 1.5, size=(n, 5))) + 0.1
    arms = rng.integers(0, n_arms, size=n)
    s = rng.integers(0, 2, size=n).astype(np.float64)
    y = np.where(rng.random(n) < 0.4, 0.0, rng.gamma(2.0, 2.0, size=n))
    y = np.where(s == 1, y + 0.5, y)
    return features, arms, s, y


def test_criterion_1_gradients_match_finite_differences(acceptance_log):
    """Analytic gradients of every variant agree with central differences."""
    t0 = time.monotonic()
    features, arms, s, y = _grad_check_batch()
    mean, sd = features.mean(axis=0), features.std(axis=0)
    worst = 0.0
    for variant in sorted(VARIANTS):
        config = ModelConfig(hidden_dims=(64, 64, 32, 16), dropout_rate=0.1, variant=variant)
        model = build_model(config, 3, mean, sd, make_rng(23))
        err = model_gradient_check(model, features, arms, s, y, eps=1e-5, rng=make_rng(29))
        worst = max(worst, err)
    elapsed = time.monotonic() - t0
    ok = worst < 1e-4 and elapsed < 60.0
    _record(acceptance_log, 1, "gradient check", ok, f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_amount_loss_minimized_at_observation(acceptance_log):
    """The deviance-style amount loss is minimized by predicting the target."""
    hand_zero = tweedie_loss(np.array([0.0]), np.array([1.0]), 1.5)[0][0]
    hand_min = tweedie_loss(np.array([4.0]), np.array([4.0]), 1.5)[0][0]
    hand_ok = abs(hand_zero - 2.0) < 1e-12 and abs(hand_min - 8.0) < 1e-12

    worst = 0.0
    for y in (0.5, 4.0, 100.0):
        for rho in (1.1, 1.5, 1.9):
            res = minimize_scalar(
                lambda f: tweedie_loss(np.array([y]), np.array([f]), rho)[0][0],
                bounds=(1e-6, 1e4),
                method="bounded",
                options={"xatol": 1e-10},
            )
            worst = max(worst, abs(res.x - y) / y)
    ok = hand_ok and worst < 1e-6
    _record(
        acceptance_log, 2, "amount loss minimizer", ok,
        f"hand values {'ok' if hand_ok else 'off'}, worst recovery err {worst:.2e}",
    )


def test_criterion_3_compound_distribution_moments(acceptance_log):
    """A million draws reproduce the exact zero mass and mean."""
    t0 = time.monotonic()
    mu, phi, rho, n = 2.0, 1.0, 1.5, 1_000_000
    draws = sample_cpg(np.full(n, mu), phi, rho, make_rng(1234))
    lam, _, _ = cpg_parameters(mu, phi, rho)
    p0 = np.exp(-lam)
    zero_err = abs(np.mean(draws == 0.0) - p0)
    zero_band = 3 * np.sqrt(p0 * (1 - p0) / n)
    mean_err = abs(draws.mean() - mu)
    mean_band = 3 * np.sqrt(phi * mu**rho / n)
    elapsed = time.monotonic() - t0
    ok = zero_err < zero_band and mean_err < mean_band and elapsed < 30.0
    _record(
        acceptance_log, 3, "compound sampler moments", ok,
        f"zero {zero_err:.1e}<{zero_band:.1e}, mean {mean_err:.1e}<{mean_band:.1e}, {elapsed:.1f}s",
    )


def test_criterion_4_allocators_agree_with_enumeration(acceptance_log):
    """DP equals brute force on 200 random instances; Lagrangian is certified."""
    t0 = time.monotonic()
    rng = make_rng(271)
    dp_exact = True
    lagr_ok = True
    for _ in range(200):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(2, 5))
        value = rng.uniform(-1.0, 5.0, size=(n, m))
        cost = np.round(rng.uniform(0.05, 2.0, size=(n, m)), 2)
        cost[:, 0] = 0.0
        budget = round(float(rng.uniform(0.0, 0.6 * cost.sum())), 2)
        problem = AllocationProblem(value=value, cost=cost, budget=budget)
        exact = brute_force(problem)
        dp = solve_exact_dp(problem, cost_resolution=0.01)
        if dp.total_value != exact.total_value:
            dp_exact = False
        plan = solve_lagrangian(problem)
        check_feasible(problem, plan.arms)
        spread = float((value.max(axis=1) - value.min(axis=1)).max()) if n else 0.0
        if not (
            plan.total_value <= plan.dual_bound + 1e-9
            and exact.total_value <= plan.dual_bound + 1e-9
            and exact.total_value - plan.total_value <= spread + 1e-9
        ):
            lagr_ok = False
    elapsed = time.monotonic() - t0
    ok = dp_exact and lagr_ok and elapsed < 60.0
    _record(
        acceptance_log, 4, "allocator exactness", ok,
        f"dp exact {dp_exact}, dual/gap certified {lagr_ok}, {elapsed:.1f}s",
    )


def test_criterion_5_estimator_unbiased_on_fresh_outcomes(acceptance_log):
    """Matched-arm estimates average to the exact policy value over 1000 worlds."""
    cfg = GenConfig(n_customers=3000, coupon_values=np.array([0.0, 1.5, 3.0]), seed=427)
    _, truth = generate_rct(cfg)
    plan = (np.arange(truth.n) % 3).astype(np.int64)
    exact = truth.policy_value(plan)
    ests = np.empty(1000)
    for r in range(1000):
        trial, _, y = redraw_outcomes(truth, cfg.assignment_probs, make_rng(4242, r))
        ests[r] = estimate_policy_value(plan, trial, y, 3).total
    se = ests.std(ddof=1) / np.sqrt(len(ests))
    z = (ests.mean() - exact) / se
    unbiased = abs(ests.mean() - exact) <= 2 * se

    # deploying the logged assignment itself reproduces the logged total exactly
    trial, _, y = redraw_outcomes(truth, cfg.assignment_probs, make_rng(9999))
    est = estimate_policy_value(trial, trial, y, 3)
    grouped = float(np.bincount(trial, weights=y, minlength=3).sum())
    identity = est.total == grouped and all(a.policy_count == a.matched_count for a in est.arms)

    ok = unbiased and identity
    _record(
        acceptance_log, 5, "off-policy estimator", ok,
        f"z {z:+.2f} within 2 SE: {unbiased}, full-match identity exact: {identity}",
    )


def test_criterion_6_predictions_approach_ground_truth(acceptance_log):
    """Cross-validated metrics on 50k customers come close to the noise ceiling."""
    t0 = time.monotonic()
    cfg = GenConfig(n_customers=50_000, seed=20260823)
    ds, truth = generate_rct(cfg)
    rows = np.arange(ds.n)
    bayes = metric_report(
        truth.p_direct[rows, ds.arm], ds.s, truth.mean_enduring[rows, ds.arm], ds.y
    )
    config = ModelConfig(
        hidden_dims=(128, 128, 64, 16),
        batch_size=1024,
        learning_rate=1e-3,
        max_epochs=40,
        patience_epochs=6,
        plateau_epochs=3,
    )
    cv = cross_validated_eval(ds.features, ds.arm, ds.s, ds.y, cfg.n_arms, config, seed=1, n_folds=5)
    elapsed = time.monotonic() - t0
    auc_ok = cv.pooled.auc >= 0.70
    gap_ok = bayes.auc - cv.pooled.auc <= 0.03
    corr_ok = cv.pooled.corr >= 0.40
    ok = auc_ok and gap_ok and corr_ok and elapsed < 900.0
    _record(
        acceptance_log, 6, "model close to noise ceiling", ok,
        f"auc {cv.pooled.auc:.4f} (ceiling {bayes.auc:.4f}), corr {cv.pooled.corr:.3f}, "
        f"{elapsed:.0f}s",
    )


def test_criterion_7_targeting_beats_random_spend(acceptance_log):
    """Model-driven plans beat mix-matched random plans; the propensity-only
    variant cannot exploit enduring-amount structure."""
    t0 = time.monotonic()
    coupons = np.array([0.0, 1.5, 3.0])
    budget = 1500.0

    def make_config(variant):
        return ModelConfig(
            hidden_dims=(64, 64, 32, 16),
            batch_size=512,
            learning_rate=1.5e-3,
            max_epochs=25,
            patience_epochs=5,
            plateau_epochs=3,
            variant=variant,
        )

    wins = 0
    full_lpas, direct_lpas = [], []
    for k in range(10):
        cfg = GenConfig(
            n_customers=8000,
            coupon_values=coupons,
            world="decorrelated",
            seed=1000 + k,
        )
        ds, truth = generate_rct(cfg)
        control_value = truth.policy_value(np.zeros(ds.n, dtype=np.int64))

        def plan_lpa(variant):
            result = train_model(
                ds.features, ds.arm, ds.s, ds.y, 3, config=make_config(variant), seed=k
            )
            pm = predict_matrix(result.model, ds.features)
            plan = solve_lagrangian(build_problem(pm.amount, pm.direct, coupons, budget))
            return plan.arms, truth.policy_value(plan.arms) - control_value

        arms_full, lpa_full = plan_lpa("full")
        _, lpa_direct = plan_lpa("direct_only")
        rng = make_rng(40, k)
        random_lpa = float(
            np.mean(
                [
                    truth.policy_value(rng.permutation(arms_full)) - control_value
                    for _ in range(20)
                ]
            )
        )
        wins += lpa_full > random_lpa
        full_lpas.append(lpa_full)
        direct_lpas.append(lpa_direct)

    elapsed = time.monotonic() - t0
    ordering_ok = np.mean(direct_lpas) <= np.mean(full_lpas)
    ok = wins >= 8 and ordering_ok
    _record(
        acceptance_log, 7, "targeting beats random", ok,
        f"{wins}/10 wins, mean lift full {np.mean(full_lpas):.0f} vs "
        f"propensity-only {np.mean(direct_lpas):.0f}, {elapsed:.0f}s",
    )


def test_criterion_8_lift_grows_with_budget(acceptance_log):
    """Optimal true lift is non-decreasing (within 2%) along a budget grid."""
    cfg = GenConfig(n_customers=20_000, seed=314)
    ds, truth = generate_rct(cfg)
    control = truth.policy_value(np.zeros(ds.n, dtype=np.int64))
    lpas = []
    for b in (0.0, 500.0, 1500.0, 4000.0, 10000.0):
        plan = solve_lagrangian(
            build_problem(truth.mean_enduring, truth.p_direct, cfg.coupon_values, b)
        )
        lpas.append(truth.policy_value(plan.arms) - control)
    slack = 0.02 * max(abs(v) for v in lpas)
    ok = all(b2 >= b1 - slack for b1, b2 in zip(lpas, lpas[1:]))
    _record(
        acceptance_log, 8, "lift monotone in budget", ok,
        "lpas " + ", ".join(f"{v:.0f}" for v in lpas),
    )


def test_criterion_9_report_covers_variants_deterministically(acceptance_log):
    """All five variants produce all five metrics; reruns are byte-identical."""
    t0 = time.monotonic()
    cfg = GenConfig(n_customers=1500, coupon_values=np.array([0.0, 1.5, 3.0]), seed=99)
    ds, _ = generate_rct(cfg)

    def run_once():
        reports = []
        for variant in sorted(VARIANTS):
            config = ModelConfig(
                hidden_dims=(16, 16, 8, 4),
                batch_size=256,
                learning_rate=3e-3,
                max_epochs=6,
                patience_epochs=3,
                plateau_epochs=2,
                variant=variant,
            )
            cv = cross_validated_eval(
                ds.features, ds.arm, ds.s, ds.y, 3, config, seed=5, n_folds=2
            )
            reports.append(
                EvalReport(variant=variant, n_records=ds.n, metrics=cv.pooled)
            )
        return render_report(reports), [r.to_json() for r in reports]

    text_a, jsons_a = run_once()
    text_b, jsons_b = run_once()
    identical = text_a == text_b and jsons_a == jsons_b
    has_rows = all(f"| {v} |" in text_a for v in sorted(VARIANTS))
    has_cols = all(h in text_a for h in ("AUC", "COEFF", "CORR", "NRMSE", "NMAE"))
    finite = all(
        np.isfinite(v) for j in jsons_a for v in json.loads(j)["metrics"].values()
    )
    elapsed = time.monotonic() - t0
    ok = identical and has_rows and has_cols and finite
    _record(
        acceptance_log, 9, "variant report determinism", ok,
        f"5 variants x 5 metrics, reruns identical: {identical}, {elapsed:.0f}s",
    )
