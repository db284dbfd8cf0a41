"""Spans around the calls into promolab's layers, recorded from outside the package.

Package modules bind their callees by name (``from .nncore import forward_pass``
in ``model.py``), so a wrapper must replace a function in every promolab
namespace that holds it, not only in the module that defines it. ``Tracer.install``
does that for a list of ``Target`` entries and ``Tracer.uninstall`` puts the
originals back. Spans live in memory as plain lists; ``dump`` writes them out.

A span is ``[name, start, end, parent, pass_id, counts]``: ``name`` is
``<layer>.<operation>``, times come from ``time.perf_counter``, ``parent`` is
the index of the enclosing span (-1 at top level) and ``counts`` holds the
exact work counts the target's hook computed from its arguments and result.
"""

from __future__ import annotations

import functools
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import promolab
from promolab import allocator, cli, datagen, evaluator, losses, metrics, model, nncore, report

NAME, START, END, PARENT, PASS, COUNTS = range(6)

_NAMESPACES = (promolab, datagen, nncore, losses, model, allocator, evaluator, metrics, report, cli)

# harness span around the oracle budget curve, whose solves time the allocator
ORACLE_CURVE = "bench.oracle_curve"

# the parts of the ``full`` variant, which every workload trains
FULL_PARTS = ("trunk_a", "direct_head", "trunk_b", "enduring_head", "trunk_c", "amount_head")


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``owner.attr`` becomes a span named ``span``.

    ``count(tracer, args, kwargs, result)`` returns the span's work counts;
    ``span=None`` runs only the hook (used to learn part names).
    """

    owner: object
    attr: str
    span: str | None
    count: Callable | None = None


class Tracer:
    """In-memory span recorder; records only while ``pass_id`` is set."""

    def __init__(self):
        self.spans: list[list] = []
        self.pass_id: int | None = None
        self.part_names: dict[int, str] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def call(self, name, fn, args, kwargs, count):
        if self.pass_id is None:
            return fn(*args, **kwargs)
        if name is None:
            result = fn(*args, **kwargs)
            count(self, args, kwargs, result)
            return result
        with self.span(name) as span:
            result = fn(*args, **kwargs)
        if count is not None:
            span[COUNTS] = count(self, args, kwargs, result)
        return result

    @contextmanager
    def span(self, name: str):
        """Record one span around the ``with`` body (a no-op while paused)."""
        if self.pass_id is None:
            yield [name, 0.0, 0.0, -1, None, None]
            return
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.pass_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        try:
            yield span
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def recording(self, pass_id: int):
        self.pass_id = pass_id
        try:
            yield
        finally:
            self.pass_id = None

    def install(self, targets):
        for t in targets:
            raw = t.owner.__dict__[t.attr]
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            wrapper = self._wrap(t, fn)
            if isinstance(raw, classmethod):
                self._patch(t.owner, t.attr, raw, classmethod(wrapper))
                continue
            for ns in _NAMESPACES:
                if ns.__dict__.get(t.attr) is raw:
                    self._patch(ns, t.attr, raw, wrapper)
            if isinstance(t.owner, type):
                self._patch(t.owner, t.attr, raw, wrapper)

    def uninstall(self):
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    def _wrap(self, t: Target, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(t.span, fn, args, kwargs, t.count)

        return wrapper

    def _patch(self, owner, attr, raw, new):
        self._restore.append((owner, attr, raw))
        setattr(owner, attr, new)

    def dump(self, path):
        """Write every span as one JSON line, in recording order."""
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s, separators=(",", ":")) + "\n")


# ---------------------------------------------------------------------------
# Count hooks: exact work counts computed from shapes, never from timings.
# ---------------------------------------------------------------------------


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _register_parts(tracer, args, kwargs, result):
    for name, net in result.parts():
        tracer.part_names[id(net)] = name


def _net_flops(net, rows: int) -> int:
    """Matmul flops of one forward pass: 2 * rows * fan_in * fan_out per layer."""
    return sum(2 * rows * layer.weight.shape[0] * layer.weight.shape[1] for layer in net.layers)


def _forward_counts(tracer, args, kwargs, result):
    net = _arg(args, kwargs, 0, "net")
    rows = result.inputs.shape[0]
    return {"part": tracer.part_names.get(id(net), "?"), "flops": _net_flops(net, rows)}


def _backward_counts(tracer, args, kwargs, result):
    net = _arg(args, kwargs, 0, "net")
    rows = _arg(args, kwargs, 1, "trace").inputs.shape[0]
    # weight gradient plus input gradient: two matmuls per layer
    return {"part": tracer.part_names.get(id(net), "?"), "flops": 2 * _net_flops(net, rows)}


def _train_counts(tracer, args, kwargs, result):
    rows = len(_arg(args, kwargs, 0, "features"))
    epochs = len(result.history)
    return {"rows": rows * epochs, "epochs": epochs}


def _predict_pairs(tracer, args, kwargs, result):
    return {"pairs": result.direct.size}


def _written_bytes(tracer, args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


def _lagrangian_counts(tracer, args, kwargs, result):
    problem = _arg(args, kwargs, 0, "problem")
    return {
        "customers": problem.n,
        "gap": result.dual_bound - result.total_value,
        "dual": abs(result.dual_bound),
    }


def _dp_customers(tracer, args, kwargs, result):
    return {"customers": _arg(args, kwargs, 0, "problem").n}


def _ranked_rows(tracer, args, kwargs, result):
    return {"rows": len(_arg(args, kwargs, 0, "direct_scores"))}


def _report_bytes(tracer, args, kwargs, result):
    return {"bytes": sum(os.path.getsize(p) for p in result)}


# The three stage timers behind the end-to-end throughputs. They are the only
# wrappers in an untraced run: a handful of calls per pass.
STAGE_TARGETS = (
    Target(model, "train_model", "model.train", _train_counts),
    Target(model, "predict_matrix", "model.predict_matrix", _predict_pairs),
    Target(allocator, "solve_lagrangian", "allocator.lagrangian", _lagrangian_counts),
)

TRACE_TARGETS = STAGE_TARGETS + (
    Target(datagen, "generate_rct", "datagen.generate"),
    Target(model, "build_model", None, _register_parts),
    Target(model, "load_model", None, _register_parts),
    Target(nncore, "forward_pass", "nncore.forward", _forward_counts),
    Target(nncore, "backward_pass", "nncore.backward", _backward_counts),
    Target(nncore, "adam_update", "nncore.adam"),
    Target(losses, "hybrid_loss", "losses.loss"),
    Target(losses, "cross_entropy_loss", "losses.loss"),
    Target(losses, "tweedie_loss", "losses.loss"),
    Target(losses, "l2_loss", "losses.loss"),
    Target(model, "predict", "model.predict", _predict_pairs),
    Target(datagen.RctDataset, "to_csv", "datagen.csv_write", _written_bytes),
    Target(datagen.GroundTruth, "to_csv", "datagen.csv_write", _written_bytes),
    Target(datagen.RctDataset, "from_csv", "datagen.csv_read"),
    Target(datagen, "load_ground_truth_csv", "datagen.csv_read"),
    Target(allocator, "solve_exact_dp", "allocator.dp", _dp_customers),
    Target(evaluator, "evaluate_variant", "evaluator.evaluate_variant"),
    Target(evaluator, "cross_validated_eval", "evaluator.crossval"),
    Target(metrics, "metric_report", "metrics.report", _ranked_rows),
    Target(report, "write_report", "report.write", _report_bytes),
)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class PassSpans:
    """The spans of one pass as a tree, with the queries the metrics need."""

    def __init__(self, spans: list[list], parent: list[int]):
        self.spans = spans
        self.parent = parent
        self.children: list[list[int]] = [[] for _ in spans]
        for i, p in enumerate(parent):
            if p != -1:
                self.children[p].append(i)

    @classmethod
    def of_pass(cls, tracer: Tracer, pass_id: int) -> "PassSpans":
        picked = [i for i, s in enumerate(tracer.spans) if s[PASS] == pass_id]
        local = {g: k for k, g in enumerate(picked)}
        spans = [tracer.spans[g] for g in picked]
        return cls(spans, [local.get(s[PARENT], -1) for s in spans])

    def dur(self, i: int) -> float:
        return self.spans[i][END] - self.spans[i][START]

    def outermost(self, *names: str) -> list[int]:
        """Spans named in ``names`` with no ancestor named in ``names``."""
        out = []
        for i, s in enumerate(self.spans):
            if s[NAME] not in names:
                continue
            p = self.parent[i]
            while p != -1 and self.spans[p][NAME] not in names:
                p = self.parent[p]
            if p == -1:
                out.append(i)
        return out

    def total(self, *names: str) -> float:
        return sum(self.dur(i) for i in self.outermost(*names))

    def count(self, key: str, *names: str) -> float:
        return sum(self.spans[i][COUNTS][key] for i in self.outermost(*names))

    def calls(self, *names: str) -> int:
        return len(self.outermost(*names))

    def foreign_time(self, i: int, layers=None) -> float:
        """Time inside span ``i`` covered by the nearest spans of other layers.

        With ``layers`` given, only those layers' spans count.
        """
        own = _layer(self.spans[i][NAME])
        covered = 0.0
        stack = list(self.children[i])
        while stack:
            c = stack.pop()
            layer = _layer(self.spans[c][NAME])
            if layer == own:
                stack.extend(self.children[c])
            elif layers is None or layer in layers:
                covered += self.dur(c)
        return covered

    def self_time(self, *names: str) -> float:
        """Time in the outermost spans of ``names`` not covered by another layer."""
        return sum(self.dur(i) - self.foreign_time(i) for i in self.outermost(*names))

    def nesting_ok(self) -> bool:
        """Children lie inside their parent, in order, without overlapping."""
        for i, kids in enumerate(self.children):
            start, end = self.spans[i][START], self.spans[i][END]
            for c in kids:
                cs, ce = self.spans[c][START], self.spans[c][END]
                if cs < start or ce > end or ce < cs:
                    return False
                start = ce
        return True


# end-to-end throughput -> (work key, seconds key) in ``stage_totals``
THROUGHPUTS = {
    "train_rows_per_s": ("train_rows", "train_s"),
    "score_pairs_per_s": ("score_pairs", "score_s"),
    "alloc_customers_per_s": ("alloc_customers", "alloc_s"),
}


def stage_totals(ps: PassSpans) -> dict:
    """Work done and seconds spent in each stage behind the end-to-end throughputs."""
    curve = [
        i for i in ps.outermost("allocator.lagrangian")
        if ps.parent[i] != -1 and ps.spans[ps.parent[i]][NAME] == ORACLE_CURVE
    ]
    return {
        "train_rows": ps.count("rows", "model.train"),
        "train_s": ps.total("model.train"),
        "score_pairs": ps.count("pairs", "model.predict_matrix"),
        "score_s": ps.total("model.predict_matrix"),
        "alloc_customers": sum(ps.spans[i][COUNTS]["customers"] for i in curve),
        "alloc_s": sum(ps.dur(i) for i in curve),
    }


def layer_metrics(ps: PassSpans) -> dict:
    """Per-layer metrics of one traced pass; ``*_calls``, bytes and flops are exact counts."""
    out = {}
    for op in ("forward", "backward", "adam"):
        name = f"nncore.{op}"
        out[f"{name}_s"] = ps.total(name)
        out[f"{name}_calls"] = ps.calls(name)
    for op in ("forward", "backward"):
        by_part = dict.fromkeys(FULL_PARTS, 0.0)
        for i in ps.outermost(f"nncore.{op}"):
            part = ps.spans[i][COUNTS]["part"]
            if part in by_part:
                by_part[part] += ps.dur(i)
        for part, t in by_part.items():
            out[f"nncore.{op}_s.{part}"] = t
    flops = ps.count("flops", "nncore.forward") + ps.count("flops", "nncore.backward")
    out["nncore.matmul_flops"] = flops
    out["nncore.gflops"] = flops / (out["nncore.forward_s"] + out["nncore.backward_s"]) / 1e9

    out["losses.s"] = ps.total("losses.loss")
    out["losses.calls"] = ps.calls("losses.loss")

    train = ps.outermost("model.train")
    train_s = sum(ps.dur(i) for i in train)
    out["model.train_s"] = train_s
    out["model.train_self_s"] = ps.self_time("model.train")
    out["model.train_nncore_frac"] = sum(ps.foreign_time(i, ("nncore",)) for i in train) / train_s
    predict = ("model.predict_matrix", "model.predict")
    out["model.predict_s"] = ps.total(*predict)
    out["model.predict_self_s"] = ps.self_time(*predict)
    out["model.epochs"] = ps.count("epochs", "model.train")
    out["model.predict_pairs"] = ps.count("pairs", *predict)

    out["datagen.generate_s"] = ps.total("datagen.generate")
    out["datagen.csv_write_s"] = ps.total("datagen.csv_write")
    out["datagen.csv_write_bytes"] = ps.count("bytes", "datagen.csv_write")
    out["datagen.csv_read_s"] = ps.total("datagen.csv_read")

    out["allocator.lagrangian_s"] = ps.total("allocator.lagrangian")
    out["allocator.lagrangian_calls"] = ps.calls("allocator.lagrangian")
    out["allocator.dual_gap_frac"] = ps.count("gap", "allocator.lagrangian") / ps.count(
        "dual", "allocator.lagrangian"
    )
    out["allocator.dp_s"] = ps.total("allocator.dp")
    out["allocator.dp_customers"] = ps.count("customers", "allocator.dp")

    out["evaluator.crossval_s"] = ps.total("evaluator.crossval")

    out["metrics.report_s"] = ps.total("metrics.report")
    out["metrics.report_calls"] = ps.calls("metrics.report")
    out["metrics.rows_ranked"] = ps.count("rows", "metrics.report")

    out["report.write_s"] = ps.total("report.write")
    out["report.bytes"] = ps.count("bytes", "report.write")

    out["cli.self_s"] = ps.self_time("cli.main")
    out["cli.bytes_written"] = ps.count("bytes", "cli.main")
    return out
