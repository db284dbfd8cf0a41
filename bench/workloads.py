"""The benchmark's two workloads and the checks on their outputs.

Both workloads run the promolab loop: generate a trial world, fit the ``full``
model, score every (customer, arm) pair, allocate under a budget, evaluate,
score the plan against the ground truth, check the Lagrangian against the
exact DP on a truth slice, and render a report. They differ in where the time
goes:

* ``train-wide``: default widths (1024, 1024, 512, 16), 7 arms, exactly two
  epochs. BLAS-bound: ``nncore`` forward, backward and Adam dominate.
* ``cli-population``: a narrow net driven through ``promolab.cli.main``, which
  re-reads the CSV log in each subcommand. Bound by Python loops and CSV I/O.

A pass calls the package only through module attributes (``model.train_model``)
so that the tracer's wrappers see every call. Checks run after the timed pass,
with recording paused.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from promolab import allocator, cli, datagen, metrics, model
from promolab.evaluator import EvalReport
from tracing import COUNTS, ORACLE_CURVE

COUPONS_7 = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0)


@dataclass(frozen=True)
class Sizes:
    customers: int
    budget_shares: tuple  # budget per customer of each model plan; the first is the reference


# oracle curve budgets, per customer; all of them bind on every world
ORACLE_SHARES = (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4)
# truth slice the exact DP solves, and its budget per customer (sets the DP table width)
DP_CUSTOMERS = 100
DP_BUDGET_SHARE = 0.05

SIZES = {
    "train-wide": Sizes(2000, (0.1, 0.05, 0.2, 0.4)),
    "cli-population": Sizes(6000, (0.1,)),
}

# toy sizes for the smoke test of the benchmark itself
TOY_SIZES = {name: replace(sizes, customers=1000) for name, sizes in SIZES.items()}


def model_config(workload: str, toy: bool = False) -> model.ModelConfig:
    if workload == "train-wide":
        # patience above the epoch cap, so exactly max_epochs epochs run
        cfg = dict(max_epochs=2, patience_epochs=3, plateau_epochs=3)
        if toy:
            cfg["hidden_dims"] = (64, 64, 32, 16)
    else:
        cfg = dict(hidden_dims=(64, 64, 32, 16), max_epochs=1)
    return model.ModelConfig(variant="full", **cfg)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_digest(path) -> str:
    return sha256(Path(path).read_bytes())


def params_digest(m) -> str:
    h = hashlib.sha256()
    for p in m.parameters():
        h.update(np.ascontiguousarray(p).tobytes())
    return h.hexdigest()


@dataclass
class PassState:
    """What a pass leaves for the checks: problems, plans, predictions, digests."""

    plans: list  # (label, AllocationProblem, AllocationPlan)
    dp: tuple  # (slice problem, DP plan, Lagrangian plan)
    predictions: object  # PredictionMatrix of the full model over all customers
    digests: dict
    true_mean: np.ndarray  # ground-truth mean amount, (N, M)
    model_arms: np.ndarray  # the model's plan at the reference budget
    oracle_arms: np.ndarray
    best_val_loss: float
    extra_checks: list  # (label, ok) found while running


def _score_against_truth(tracer, true_mean, p_direct, coupons, reference: float):
    """Oracle plans (Lagrangian on the true means) and DP vs Lagrangian on a truth slice.

    The oracle curve's budgets bind on every world, so its solves always run
    the full bisection; ``alloc_customers_per_s`` is measured on them.
    ``reference`` is the budget share, one of ``ORACLE_SHARES``, of the oracle
    plan returned for ``plan_true_lift_frac``.
    """
    n = true_mean.shape[0]

    def oracle(share):
        problem = allocator.build_problem(true_mean, p_direct, coupons, share * n)
        return (f"oracle@{share:g}", problem, allocator.solve_lagrangian(problem))

    with tracer.span(ORACLE_CURVE):
        curve = {share: oracle(share) for share in ORACLE_SHARES}
    k = DP_CUSTOMERS
    slice_problem = allocator.build_problem(
        true_mean[:k], p_direct[:k], coupons, DP_BUDGET_SHARE * k
    )
    dp = allocator.solve_exact_dp(slice_problem)
    lagrangian = allocator.solve_lagrangian(slice_problem)
    return list(curve.values()), curve[reference][2], (slice_problem, dp, lagrangian)


def _snapshot(directory: Path) -> dict:
    return {
        p: (p.stat().st_size, p.stat().st_mtime_ns) for p in directory.rglob("*") if p.is_file()
    }


def run_cli(tracer, argv: list[str], out_dir: Path):
    """``promolab <argv>`` in-process; counts the bytes it leaves in ``out_dir``."""
    before = _snapshot(out_dir) if out_dir.exists() else {}
    with tracer.span("cli.main") as span:
        code = cli.main(argv)
    after = _snapshot(out_dir)
    span[COUNTS] = {"bytes": sum(st[0] for p, st in after.items() if before.get(p) != st)}
    if code != 0:
        raise RuntimeError(f"promolab {argv[0]} exited with code {code}")


class TrainWide:
    """The Python API loop with the default widths: BLAS-bound training and scoring.

    A fit report on the log stands in for plan-value estimates: the matched-arm
    estimator refuses a plan that puts even one customer on an arm no trial
    record matches, and on 7-arm worlds the Lagrangian's greedy completion
    leaves 1-3 customers on intermediate arms at most budgets.
    """

    name = "train-wide"
    coupons = COUPONS_7

    def __init__(self, seed: int, sizes: Sizes, toy: bool = False):
        self.seed, self.sizes = seed, sizes
        self.gen = datagen.GenConfig(
            n_customers=sizes.customers, coupon_values=np.array(self.coupons), seed=seed
        )
        self.cfg = model_config(self.name, toy)

    def run(self, tracer, work: Path) -> "PassState":
        """generate -> log CSV round trip -> fit -> score -> allocate -> fit report -> report."""
        dataset, truth = datagen.generate_rct(self.gen)
        log = work / "dataset.csv"
        dataset.to_csv(log)
        logged = datagen.RctDataset.from_csv(log)
        round_trip = all(
            np.array_equal(getattr(dataset, f), getattr(logged, f))
            for f in ("customer_id", "features", "arm", "s", "y")
        )
        result = model.train_model(
            logged.features, logged.arm, logged.s, logged.y, self.gen.n_arms, self.cfg, self.seed
        )
        pm = model.predict_matrix(result.model, logged.features)
        problems = [
            allocator.build_problem(pm.amount, pm.direct, self.gen.coupon_values, share * logged.n)
            for share in self.sizes.budget_shares
        ]
        plans = [allocator.solve_lagrangian(p) for p in problems]
        rows = np.arange(logged.n)
        fit = metrics.metric_report(
            pm.direct[rows, logged.arm], logged.s, pm.amount[rows, logged.arm], logged.y
        )
        fit_report = EvalReport(variant="full", n_records=logged.n, metrics=fit)
        oracles, oracle, dp = _score_against_truth(
            tracer, truth.mean_enduring, truth.p_direct, self.gen.coupon_values,
            self.sizes.budget_shares[0],
        )
        eval_json = work / "eval_full.json"
        fit_report.save(eval_json)
        run_cli(tracer, ["report", "--out", str(work / "report"), str(eval_json)], work / "report")

        labelled = [(f"model@{p.budget:g}", p, plan) for p, plan in zip(problems, plans)]
        digests = {label: sha256(plan.arms.tobytes()) for label, _, plan in labelled}
        digests["params"] = params_digest(result.model)
        digests["eval/full"] = sha256(fit_report.to_json().encode())
        digests.update(
            {f"report/{p.name}": file_digest(p) for p in sorted((work / "report").iterdir())}
        )
        return PassState(
            plans=labelled + oracles,
            dp=dp,
            predictions=pm,
            digests=digests,
            true_mean=truth.mean_enduring,
            model_arms=plans[0].arms,
            oracle_arms=oracle.arms,
            best_val_loss=result.best_val_loss,
            extra_checks=[("log CSV round trip is exact", round_trip)],
        )

    def finish(self, state: "PassState", work: Path):
        """Nothing to read back: a library pass keeps its outputs in memory."""


def _read_predictions(path, n: int, m: int) -> model.PredictionMatrix:
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    expected = np.stack([np.repeat(np.arange(n), m), np.tile(np.arange(m), n)], axis=1)
    if table.shape != (n * m, 5) or not np.array_equal(table[:, :2], expected):
        raise ValueError(f"{path} does not list every (customer, arm) pair in order")
    return model.PredictionMatrix(
        direct=table[:, 2].reshape(n, m),
        enduring_propensity=table[:, 3].reshape(n, m),
        amount=table[:, 4].reshape(n, m),
    )


class CliPopulation:
    """The README's command-line session, in-process, in a fresh directory per pass.

    ``sweep`` and ``evaluate --budget`` are left out: both estimate plan values,
    which the matched-arm estimator refuses on most 7-arm Lagrangian plans.
    """

    name = "cli-population"
    coupons = COUPONS_7

    def __init__(self, seed: int, sizes: Sizes, toy: bool = False):
        self.seed, self.sizes = seed, sizes
        self.cfg = model_config(self.name, toy)
        self.budget = sizes.budget_shares[0] * sizes.customers
        generation = {"n_customers": sizes.customers, "coupon_values": list(self.coupons)}
        net = {"hidden_dims": list(self.cfg.hidden_dims), "max_epochs": self.cfg.max_epochs}
        self.config_text = json.dumps(
            {"generation": generation, "model": net, "evaluation": {"n_folds": 5}}
        )

    def run(self, tracer, work: Path) -> PassState:
        """generate -> train -> predict -> allocate -> evaluate -> report, then score the plan."""
        out = work / "run"
        config = work / "config.yaml"  # JSON is valid YAML
        config.write_text(self.config_text)
        common = ["--config", str(config), "--seed", str(self.seed), "--out", str(out)]
        data = ["--data", str(out / "dataset.csv")]
        ckpt = ["--model", str(out / "model.npz")]
        for argv in (
            ["generate", *common],
            ["train", *common, *data],
            ["predict", *common, *data, *ckpt],
            ["allocate", *common, *data, *ckpt, "--budget", repr(self.budget)],
            ["evaluate", *common, *data],
            ["report", "--out", str(out / "report"), str(out / "eval_full.json")],
        ):
            run_cli(tracer, argv, out)
        _, p_direct, true_mean = datagen.load_ground_truth_csv(out / "ground_truth.csv")
        _, arms = allocator.load_plan_csv(out / "plan.csv")
        oracles, oracle, dp = _score_against_truth(
            tracer, true_mean, p_direct, np.array(self.coupons), self.sizes.budget_shares[0]
        )
        return PassState(
            plans=oracles,
            dp=dp,
            predictions=None,
            digests={},
            true_mean=true_mean,
            model_arms=arms,
            oracle_arms=oracle.arms,
            best_val_loss=float("nan"),
            extra_checks=[],
        )

    def finish(self, state: PassState, work: Path):
        """Read the CLI's artifacts back (untimed): predictions, plan and digests."""
        out = work / "run"
        n, m = self.sizes.customers, len(self.coupons)
        pm = _read_predictions(out / "predictions.csv", n, m)
        problem = allocator.build_problem(pm.amount, pm.direct, self.coupons, self.budget)
        resolved = allocator.solve_lagrangian(problem)
        state.predictions = pm
        state.plans.insert(0, ("model-cli", problem, resolved))
        same_plan = np.array_equal(resolved.arms, state.model_arms)
        state.extra_checks.append(("plan.csv equals a re-solve of predictions.csv", same_plan))
        history = json.loads((out / "history.json").read_text())
        state.best_val_loss = history["best_val_loss"]
        state.digests = {
            str(p.relative_to(out)): file_digest(p)
            for p in sorted(out.rglob("*"))
            if p.is_file() and p.name != "model.npz"
        }
        # npz members carry write timestamps, so compare the parameters instead
        state.digests["params"] = params_digest(model.load_model(out / "model.npz"))


WORKLOADS = {w.name: w for w in (TrainWide, CliPopulation)}


def _fits(problem, plan) -> bool:
    try:
        allocator.check_feasible(problem, plan.arms)
    except allocator.InfeasiblePlanError:
        return False
    return True


def check_pass(state: PassState) -> list[tuple[str, bool]]:
    """Output checks of one pass; each is (label, passed)."""
    checks = list(state.extra_checks)
    for label, problem, plan in state.plans:
        tol = 1e-9 * max(1.0, abs(plan.total_value))
        checks.append((f"{label} plan fits its budget", _fits(problem, plan)))
        checks.append((f"{label} dual bound >= value", plan.dual_bound >= plan.total_value - tol))
    problem, dp, lagrangian = state.dp
    # DP costs are rounded to its resolution; one customer's value spread bounds the slack
    slack = float((problem.value.max(axis=1) - problem.value.min(axis=1)).max())
    tol = 1e-9 * max(1.0, abs(lagrangian.dual_bound))
    checks.append(("DP slice plan fits its budget", _fits(problem, dp)))
    checks.append(("DP >= Lagrangian - slack", dp.total_value >= lagrangian.total_value - slack))
    checks.append(("DP <= Lagrangian dual bound", dp.total_value <= lagrangian.dual_bound + tol))
    pm = state.predictions
    finite = all(np.all(np.isfinite(a)) for a in (pm.direct, pm.enduring_propensity, pm.amount))
    checks.append(("predictions are finite", bool(finite)))
    in_unit = all(np.all((a >= 0.0) & (a <= 1.0)) for a in (pm.direct, pm.enduring_propensity))
    checks.append(("propensities lie in [0, 1]", bool(in_unit)))
    return checks


def plan_true_lift_frac(state: PassState) -> float:
    """True lift of the model's plan over all-control, as a share of the oracle's.

    Arm 0 is the control arm: every coupon grid here starts at 0.
    """
    mu = state.true_mean
    rows = np.arange(mu.shape[0])
    control = mu[:, 0].sum()
    lift = mu[rows, state.model_arms].sum() - control
    return float(lift / (mu[rows, state.oracle_arms].sum() - control))


def describe(workload) -> dict:
    """Workload sizes and model shape, for the run's environment record."""
    cfg = workload.cfg
    return {
        **asdict(workload.sizes),
        "arms": len(workload.coupons),
        "hidden_dims": list(cfg.hidden_dims),
        "max_epochs": cfg.max_epochs,
        "batch_size": cfg.batch_size,
    }
