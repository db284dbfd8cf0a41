"""Command line entry points for the promotion modeling pipeline.

Subcommands cover the batch workflow end to end::

    promolab generate --config cfg.yaml --seed 7 --out run/
    promolab train    --data run/dataset.csv --out run/ --variant full
    promolab predict  --model run/model.npz --data run/dataset.csv --out run/
    promolab allocate --model run/model.npz --data run/dataset.csv --budget 500 --out run/
    promolab evaluate --data run/dataset.csv --out run/ --variant full
    promolab sweep    --model run/model.npz --data run/dataset.csv --budget-grid 100,200,400 --out run/
    promolab report   --out run/ run/eval_full.json --curve full=run/curve.csv

Configuration is one YAML file with ``generation``, ``model`` and
``evaluation`` sections; every omitted value falls back to the package
default and unknown keys are rejected. ``PROMOLAB_LOG_LEVEL`` sets log
verbosity (DEBUG/INFO/WARNING/ERROR). Exit codes: 0 on success, 1 for
validation problems (bad flags, config, or input files), 2 for runtime
failures.

Outputs are written through a temp file and renamed, so an interrupted run
never leaves a truncated artifact behind.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path

import yaml

from .allocator import build_problem, solve_exact_dp, solve_lagrangian
from .datagen import FeatureConfig, GenConfig, RctDataset, generate_rct
from .errors import NONNEGATIVE, PromolabError, ValidationError, at_least, check_fields, rule
from .evaluator import (
    EvalReport,
    budget_sweep,
    curve_to_csv,
    evaluate_variant,
    load_curve_csv,
    out_of_fold_predictions,
)
from .losses import LossWeights
from .model import (
    VARIANTS,
    ModelConfig,
    load_model,
    predict_matrix,
    save_model,
    train_model,
)
from .report import write_report
from .tables import atomic_write, pair_columns, write_table

ENV_LOG_LEVEL = "PROMOLAB_LOG_LEVEL"

logger = logging.getLogger("promolab.cli")


@dataclasses.dataclass
class PipelineConfig:
    generation: GenConfig
    model: ModelConfig
    n_folds: int = rule("integer", 5, at_least(2))
    budget: float | None = rule("real", None, at_least(0))  # inf: no spending limit
    budget_grid: tuple = rule("reals", (), NONNEGATIVE)  # finite: each is a curve.csv row

    def __post_init__(self):
        check_fields(self, "evaluation")
        self.budget_grid = tuple(float(b) for b in self.budget_grid)


def _section(value, allowed, where: str) -> dict:
    """A copy of one config section, checked to be a mapping of ``allowed`` keys.

    An empty or omitted section is an empty mapping.
    """
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ValidationError(f"{where} must be a mapping, got {type(value).__name__}")
    unknown = sorted(set(value) - set(allowed))
    if unknown:
        raise ValidationError(f"unknown key(s) {unknown} in {where}")
    return dict(value)


def _fields(cls, *excluded) -> list[str]:
    return [f.name for f in dataclasses.fields(cls) if f.name not in excluded]


def parse_config(
    path=None,
    seed: int = 0,
    variant: str | None = None,
    budget: float | None = None,
    budget_grid=None,
) -> PipelineConfig:
    """Load the YAML config; CLI flags override the file's values."""
    raw = {}
    if path is not None:
        with open(path) as f:
            raw = _section(yaml.safe_load(f), ("generation", "model", "evaluation"), "config")

    gen_raw = _section(raw.get("generation"), _fields(GenConfig, "seed"), "generation")
    feat_raw = _section(gen_raw.pop("features", None), _fields(FeatureConfig), "generation.features")
    features = FeatureConfig(**feat_raw)
    generation = GenConfig(seed=seed, features=features, **gen_raw)

    model_raw = _section(raw.get("model"), _fields(ModelConfig), "model")
    if "weights" in model_raw:
        model_raw["weights"] = _section(model_raw["weights"], _fields(LossWeights), "model.weights")
    if variant is not None:
        model_raw["variant"] = variant
    model = ModelConfig(**model_raw)

    eval_keys = _fields(PipelineConfig, "generation", "model")
    eval_raw = _section(raw.get("evaluation"), eval_keys, "evaluation")
    if budget is not None:
        eval_raw["budget"] = budget
    if budget_grid is not None:
        eval_raw["budget_grid"] = budget_grid
    return PipelineConfig(generation=generation, model=model, **eval_raw)


def _parse_budget_grid(text: str | None):
    if text is None:
        return None
    try:
        grid = tuple(float(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError as exc:
        raise ValidationError(f"could not parse budget grid {text!r}: {exc}") from exc
    if not grid:
        raise ValidationError("budget grid is empty")
    return grid


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_dataset(path, n_arms: int) -> RctDataset:
    dataset = RctDataset.from_csv(path)
    if dataset.n == 0:
        raise ValidationError(f"dataset {path} is empty")
    if int(dataset.arm.max()) >= n_arms:
        raise ValidationError(
            f"dataset {path} references arm {int(dataset.arm.max())} but the config "
            f"defines only {n_arms} arms"
        )
    return dataset


def _load_model_for(path, n_arms: int):
    """Load a checkpoint whose arm count must match the config's."""
    model = load_model(path)
    if model.n_arms != n_arms:
        raise ValidationError(f"model has {model.n_arms} arms but the config defines {n_arms}")
    return model


def _cmd_generate(args) -> int:
    cfg = parse_config(args.config, seed=args.seed)
    out = _out_dir(args)
    dataset, truth = generate_rct(cfg.generation)
    atomic_write(out / "dataset.csv", dataset.to_csv)
    atomic_write(out / "ground_truth.csv", lambda p: truth.to_csv(p, dataset.customer_id))
    logger.info(
        "generated %d customers x %d arms into %s", dataset.n, truth.n_arms, out
    )
    return 0


def _cmd_train(args) -> int:
    cfg = parse_config(args.config, seed=args.seed, variant=args.variant)
    out = _out_dir(args)
    n_arms = cfg.generation.n_arms
    dataset = _load_dataset(args.data, n_arms)
    result = train_model(
        dataset.features, dataset.arm, dataset.s, dataset.y, n_arms,
        config=cfg.model, seed=args.seed,
    )
    atomic_write(out / "model.npz", lambda p: save_model(result.model, p))
    history = {
        "variant": cfg.model.variant,
        "best_epoch": result.best_epoch,
        "best_val_loss": result.best_val_loss,
        "stopped_epoch": result.stopped_epoch,
        "epochs": [h.to_dict() for h in result.history],
    }
    atomic_write(
        out / "history.json",
        lambda p: Path(p).write_text(json.dumps(history, sort_keys=True, indent=2) + "\n"),
    )
    logger.info(
        "trained %s for %d epochs (best validation loss %.6g at epoch %d)",
        cfg.model.variant, result.stopped_epoch, result.best_val_loss, result.best_epoch,
    )
    return 0


def _write_predictions_csv(path, customer_id, pm):
    scores = (pm.direct, pm.enduring_propensity, pm.amount)
    columns = [*pair_columns(customer_id, pm.direct.shape[1]), *(a.ravel() for a in scores)]
    write_table(path, ("customer_id", "arm", "f_direct", "f_enduring", "f_amount"), columns)


def _cmd_predict(args) -> int:
    out = _out_dir(args)
    model = load_model(args.model)
    dataset = _load_dataset(args.data, model.n_arms)
    pm = predict_matrix(model, dataset.features)
    atomic_write(out / "predictions.csv", lambda p: _write_predictions_csv(p, dataset.customer_id, pm))
    logger.info("wrote %d x %d predictions to %s", pm.direct.shape[0], pm.direct.shape[1], out)
    return 0


def _cmd_allocate(args) -> int:
    cfg = parse_config(args.config, seed=args.seed)
    out = _out_dir(args)
    model = _load_model_for(args.model, cfg.generation.n_arms)
    dataset = _load_dataset(args.data, model.n_arms)
    pm = predict_matrix(model, dataset.features)
    problem = build_problem(pm.amount, pm.direct, cfg.generation.coupon_values, args.budget)
    if args.solver == "dp":
        plan = solve_exact_dp(problem, cost_resolution=None)
    else:
        plan = solve_lagrangian(problem)
    atomic_write(out / "plan.csv", lambda p: plan.to_csv(p, dataset.customer_id))
    line = "allocated at budget %.6g: value %.6g, cost %.6g"
    values = [args.budget, plan.total_value, plan.total_cost]
    if plan.dual_bound is not None:  # the Lagrangian certifies its gap; the DP is exact
        line += ", dual bound %.6g, gap %.6g"
        values += [plan.dual_bound, plan.dual_bound - plan.total_value]
    logger.info(line, *values)
    return 0


def _cmd_evaluate(args) -> int:
    cfg = parse_config(args.config, seed=args.seed, variant=args.variant, budget=args.budget)
    out = _out_dir(args)
    gen = cfg.generation
    dataset = _load_dataset(args.data, gen.n_arms)
    report = evaluate_variant(
        dataset.features, dataset.arm, dataset.s, dataset.y,
        gen.coupon_values, gen.control_arm, cfg.model,
        seed=args.seed, budget=cfg.budget, n_folds=cfg.n_folds,
    )
    path = out / f"eval_{cfg.model.variant}.json"
    atomic_write(path, lambda p: report.save(p))
    logger.info("evaluation for %s written to %s", cfg.model.variant, path)
    return 0


def _cmd_sweep(args) -> int:
    cfg = parse_config(
        args.config, seed=args.seed, variant=args.variant,
        budget_grid=_parse_budget_grid(args.budget_grid),
    )
    out = _out_dir(args)
    gen = cfg.generation
    dataset = _load_dataset(args.data, gen.n_arms)
    if not cfg.budget_grid:
        raise ValidationError("a budget grid is required (flag --budget-grid or evaluation.budget_grid)")
    if args.model is not None:
        model = _load_model_for(args.model, gen.n_arms)
        pm = predict_matrix(model, dataset.features)
    else:
        # cross-fitted, as in `evaluate`: no plan is scored on the log its model was fit on;
        # no fit metric is computed, so a single-class log still gets its curve
        pm = out_of_fold_predictions(
            dataset.features, dataset.arm, dataset.s, dataset.y, gen.n_arms,
            cfg.model, args.seed, cfg.n_folds,
        )
    points, _ = budget_sweep(
        pm.amount, pm.direct, gen.coupon_values, cfg.budget_grid,
        dataset.arm, dataset.s, dataset.y, gen.control_arm,
    )
    atomic_write(out / "curve.csv", lambda p: curve_to_csv(points, p))
    logger.info("swept %d budgets into %s", len(points), out / "curve.csv")
    return 0


def _cmd_report(args) -> int:
    out = _out_dir(args)
    if not args.evals:
        raise ValidationError("at least one evaluation JSON is required")
    reports = [EvalReport.load(p) for p in args.evals]
    curves = {}
    for spec in args.curve or []:
        if "=" not in spec:
            raise ValidationError(f"curve spec {spec!r} must look like LABEL=PATH")
        label, path = spec.split("=", 1)
        if label in curves:
            raise ValidationError(f"curve label {label!r} is given more than once")
        curves[label] = load_curve_csv(path)
    paths = write_report(out, reports, curves or None)
    logger.info("report written: %s", ", ".join(str(p) for p in paths))
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as validation errors (exit 1)."""

    def error(self, message):
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="promolab", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, data=False, model=False):
        p.add_argument("--config", default=None, help="YAML configuration file")
        p.add_argument("--seed", type=int, default=0, help="master random seed")
        p.add_argument("--out", required=True, help="output directory")
        if data:
            p.add_argument("--data", required=True, help="trial dataset CSV")
        if model:
            p.add_argument("--model", required=True, help="model checkpoint (.npz)")

    p = sub.add_parser("generate", help="sample a synthetic trial with ground truth")
    common(p)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("train", help="fit one model variant on a trial log")
    common(p, data=True)
    p.add_argument("--variant", choices=VARIANTS, default=None)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="score every (customer, arm) pair")
    common(p, data=True, model=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("allocate", help="solve the budgeted incentive assignment")
    common(p, data=True, model=True)
    p.add_argument("--budget", type=float, required=True)
    p.add_argument("--solver", choices=("lagrangian", "dp"), default="lagrangian")
    p.set_defaults(func=_cmd_allocate)

    p = sub.add_parser("evaluate", help="cross-validated metrics plus a budgeted plan estimate")
    common(p, data=True)
    p.add_argument("--variant", choices=VARIANTS, default=None)
    p.add_argument("--budget", type=float, default=None)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("sweep", help="trace estimated lift across a budget grid")
    common(p, data=True)
    p.add_argument(
        "--model", default=None, help="checkpoint to reuse (else cross-fits evaluation.n_folds models)"
    )
    p.add_argument("--variant", choices=VARIANTS, default=None)
    p.add_argument("--budget-grid", default=None, help="comma-separated budgets")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("report", help="render markdown + SVG from evaluation artifacts")
    p.add_argument("--out", required=True)
    p.add_argument("--curve", action="append", metavar="LABEL=PATH")
    p.add_argument("evals", nargs="*", help="evaluation JSON files")
    p.set_defaults(func=_cmd_report)
    return parser


def _setup_logging():
    name = os.environ.get(ENV_LOG_LEVEL, "INFO").upper()
    level = getattr(logging, name, None)
    if not isinstance(level, int):
        raise ValidationError(f"{ENV_LOG_LEVEL}={name!r} is not a valid log level")
    logging.basicConfig(
        level=level, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s"
    )


def main(argv=None) -> int:
    try:
        _setup_logging()
        parser = build_parser()
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValidationError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except PromolabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - last-resort CLI guard
        logger.exception("unhandled failure: %s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
