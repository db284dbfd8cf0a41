"""Multi-head feed-forward response model over customer features and incentive arms.

One trunk of relu layers reads the standardized features concatenated with a
learned per-arm embedding. Three heads tap the trunk at increasing depth:

* direct purchase propensity (sigmoid) after the second trunk layer,
* enduring purchase propensity (sigmoid) after the third,
* enduring purchase amount (exp link) after the last.

The layered hybrid loss trains all heads at once: Tweedie deviance on the
amount, cross-entropy on 1{y > 0} for the enduring propensity, cross-entropy
on the direct flag. Earlier heads act as deep supervision for the shared
trunk, which is the point of the architecture.

Ablation variants share this file so comparisons change exactly one thing:

* ``full`` - the model above;
* ``no_enduring_ce`` - same wiring, enduring-propensity loss weight zero;
* ``l2_amount`` - amount head through an identity link trained with squared
  error (predictions clamped to a small positive floor afterwards);
* ``direct_only`` - trunk truncated at the direct head, no amount model; its
  amount prediction is defined as the direct propensity so downstream code
  can rank and allocate with it;
* ``two_model`` - no shared trunk: one full-depth tower for the direct flag
  and an independent one for the amount, each with its own embedding table.

Variants without an enduring-propensity head report the direct propensity in
that slot.

Each variant is data: ``_VARIANTS`` lists its parts (embedding tables, trunk
slices, heads) and its loss terms, and one forward and one backward walker
interpret that list for building, training, prediction and checkpoints. The
forward walker checks the model input once and runs ``nncore.forward_pass``
on each part. Training and the gradient checks keep every part's trace for
the backward walker; scoring (``predict`` and the validation loss) drops each
part's trace as soon as the part returns. Every pass allocates its own
arrays. The backward walker spends the traces as it walks them: every input
gradient but the model input's goes over the trunk output it differentiates,
and each trace is released once it is spent. It yields each part's gradients
as soon as it reads that part's weights no more, and training hands them to
that part's own Adam state right away, so a step never holds the whole
gradient list (see ``_part_gradients``; Lv et al. 2023, arXiv:2306.09782,
apply updates the same way). A non-finite gradient stops only its own part's
update, after the parts walked before it in the step, and the fit fails.
"""

from __future__ import annotations

import json
import zipfile
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .errors import (
    POSITIVE, UNIT, Bound, ShapeError, TrainingError, ValidationError, arm_indices, at_least, check_fields, rule,
)
from .losses import TWEEDIE_RHO, LossWeights, cross_entropy_loss, l2_loss, tweedie_loss
from .nncore import (
    DenseNet,
    adam_update,
    add_input_gradient,
    backward_pass,
    flatten_gradients,
    forward_pass,
    init_adam,
    init_dense_net,
    make_rng,
    net_parameters,
)

_AMOUNT_FLOOR = 1e-6  # positive floor for identity-link amount predictions

# rng stream keys, so every consumer of the training seed is independent
_STREAM_SPLIT = 0
_STREAM_INIT = 1
_STREAM_BATCH = 2
_STREAM_DROPOUT = 3

_PREDICT_CHUNK = 8192

# A variant is a graph of parts, each held under its name in ResponseModel.tables
# (embeddings) or ResponseModel.nets (trunks and heads).
# An embedding is an arm table; its output is the standardized features next
# to each record's arm row. A trunk is the relu layers of ``hidden_dims``
# between two cuts and reads an earlier part. A head is one unit over an
# earlier part and fills a prediction slot.
class _Part(NamedTuple):
    kind: str  # "embedding", "trunk" or "head"
    name: str
    source: str | None = None
    cuts: tuple[str, str] | None = None
    slot: str | None = None


_LAYERED = (
    _Part("embedding", "embedding"),
    _Part("trunk", "trunk_a", "embedding", cuts=("in", "direct_head_depth")),
    _Part("head", "direct_head", "trunk_a", slot="direct"),
    _Part("trunk", "trunk_b", "trunk_a", cuts=("direct_head_depth", "enduring_head_depth")),
    _Part("head", "enduring_head", "trunk_b", slot="enduring"),
    _Part("trunk", "trunk_c", "trunk_b", cuts=("enduring_head_depth", "out")),
    _Part("head", "amount_head", "trunk_c", slot="amount"),
)
_TWO_TOWERS = (
    _Part("embedding", "embedding"),
    _Part("trunk", "trunk_a", "embedding", cuts=("in", "out")),
    _Part("head", "direct_head", "trunk_a", slot="direct"),
    _Part("embedding", "amount_embedding"),
    _Part("trunk", "amount_trunk", "amount_embedding", cuts=("in", "out")),
    _Part("head", "amount_head", "amount_trunk", slot="amount"),
)

# A loss term (slot, loss, weight) adds weight * loss(slot label, slot
# prediction); ``weight`` names a LossWeights field or is a fixed number. The
# loss also fixes the link of the head in that slot (see ``_LINKS``).
_DIRECT = ("direct", "ce", "w_direct")
_ENDURING = ("enduring", "ce", "w_enduring")
_AMOUNT = ("amount", "tweedie", "w_amount")
_SLOTS = ("direct", "enduring", "amount")  # in PredictionMatrix field order


class _Spec(NamedTuple):
    parts: tuple  # in build order: also the rng draw and forward order, reversed for backward
    terms: tuple  # in summation order, which fixes the loss bytes


_VARIANTS = {
    "full": _Spec(_LAYERED, (_AMOUNT, _ENDURING, _DIRECT)),
    "no_enduring_ce": _Spec(_LAYERED, (_AMOUNT, ("enduring", "ce", 0.0), _DIRECT)),
    "l2_amount": _Spec(_LAYERED, (_DIRECT, _ENDURING, ("amount", "l2", "w_amount"))),
    "direct_only": _Spec(_LAYERED[:3], (_DIRECT,)),
    "two_model": _Spec(_TWO_TOWERS, (_DIRECT, _AMOUNT)),
}
VARIANTS = tuple(_VARIANTS)
_SLOT_LOSSES = {v: {slot: loss for slot, loss, _ in spec.terms} for v, spec in _VARIANTS.items()}


def _logit(p: float) -> float:
    p = min(max(p, 1e-3), 1.0 - 1e-3)
    return float(np.log(p / (1.0 - p)))


# loss -> (activation of the head it trains, that link's inverse, which sets
# the head's starting bias from the label mean)
_LINKS = {
    "ce": ("sigmoid", _logit),
    "tweedie": ("exp", lambda mean: float(np.log(max(mean, _AMOUNT_FLOOR)))),
    "l2": ("identity", float),
}


def default_embedding_dim(n_arms: int) -> int:
    """floor(n_arms ** 0.25) + 1, the usual fourth-root sizing rule."""
    if n_arms < 1:
        raise ValidationError("n_arms must be at least 1")
    return int(np.floor(n_arms**0.25)) + 1


@dataclass
class ModelConfig:
    """Architecture and training hyperparameters.

    Defaults are the production-scale settings; tests shrink ``hidden_dims``
    and ``max_epochs`` to stay fast. ``direct_head_depth`` and
    ``enduring_head_depth`` count trunk layers before each auxiliary head.
    """

    hidden_dims: tuple = rule("integers", (1024, 1024, 512, 16), at_least(1), min_len=2)
    direct_head_depth: int = rule("integer", 2)
    enduring_head_depth: int = rule("integer", 3)
    dropout_rate: float = rule("real", 0.2, Bound(0.0, 1.0, lo_open=False))
    learning_rate: float = rule("real", 2e-4, POSITIVE)
    batch_size: int = rule("integer", 1024, at_least(1))
    max_epochs: int = rule("integer", 200, at_least(1))
    patience_epochs: int = rule("integer", 10, at_least(1))
    plateau_epochs: int = rule("integer", 5, at_least(1))
    lr_decay: float = rule("real", 0.1, UNIT)
    validation_fraction: float = rule("real", 0.1, Bound(0.0, 0.5, hi_open=False))
    rho: float = rule("real", 1.5, TWEEDIE_RHO)
    weights: LossWeights = field(default_factory=LossWeights)
    embedding_dim: int | None = rule("integer", None, at_least(1))  # None: default_embedding_dim
    variant: str = rule("name", "full", VARIANTS)

    def __post_init__(self):
        check_fields(self, "model")
        self.hidden_dims = tuple(int(d) for d in self.hidden_dims)
        used = {c for p in _VARIANTS[self.variant].parts if p.cuts for c in p.cuts}
        cuts = {c: d for c, d in self._cut_depths().items() if c in used}
        at = list(cuts.values())
        if any(lo >= hi for lo, hi in zip(at, at[1:])):
            raise ValidationError(
                f"the {self.variant} trunk cuts must strictly increase, got {cuts}"
            )
        deepest = list(cuts)[-1]  # the cuts increase, so only the last can lie past the trunk
        if cuts[deepest] > len(self.hidden_dims):
            raise ValidationError(
                f"model.{deepest} must be at most len(hidden_dims) = {len(self.hidden_dims)}, "
                f"got {cuts[deepest]}"
            )
        if isinstance(self.weights, dict):
            self.weights = LossWeights(**self.weights)

    def _cut_depths(self) -> dict:
        """Trunk layers below each cut a trunk slice may start or end at, in depth order."""
        return {
            "in": 0,
            "direct_head_depth": self.direct_head_depth,
            "enduring_head_depth": self.enduring_head_depth,
            "out": len(self.hidden_dims),
        }

    def to_dict(self) -> dict:
        d = asdict(self)
        d["hidden_dims"] = list(self.hidden_dims)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**d)


@dataclass
class PredictionMatrix:
    """Head outputs: (N,) per record from ``predict``, (N, M) per arm from ``predict_matrix``."""

    direct: np.ndarray
    enduring_propensity: np.ndarray
    amount: np.ndarray


@dataclass
class ResponseModel:
    """A built (possibly trained) model: parameters plus input normalization."""

    config: ModelConfig
    n_arms: int
    feature_mean: np.ndarray
    feature_sd: np.ndarray
    tables: dict  # embedding name -> (M, E) arm table, in part order
    nets: dict  # trunk or head name -> DenseNet, in part order

    @property
    def n_features(self) -> int:
        return len(self.feature_mean)

    @property
    def embedding_dim(self) -> int:
        return self.tables["embedding"].shape[1]

    def parts(self) -> list[tuple[str, DenseNet]]:
        """Named sub-networks in build order (parameter layout depends on it)."""
        return list(self.nets.items())

    def part_parameters(self) -> dict[str, list[np.ndarray]]:
        """Each part's parameters under its name: an embedding's table, a net's weights and biases."""
        return {**{name: [table] for name, table in self.tables.items()},
                **{name: net_parameters(net) for name, net in self.nets.items()}}

    def parameters(self) -> list[np.ndarray]:
        """Embedding tables, then each part's weights and biases."""
        return [p for params in self.part_parameters().values() for p in params]

    def standardize(self, features: np.ndarray) -> np.ndarray:
        """Features scaled by the training mean and sd, in ``result_type(features, float64)``."""
        features = np.asarray(features)
        if features.ndim != 2 or features.shape[1] != self.n_features:
            raise ShapeError(
                f"features must be (n, {self.n_features}), got {features.shape}"
            )
        return (features - self.feature_mean) / self.feature_sd


def build_model(
    config: ModelConfig,
    n_arms: int,
    feature_mean: np.ndarray,
    feature_sd: np.ndarray,
    rng: np.random.Generator,
) -> ResponseModel:
    """Initialize all parts for the configured variant.

    Draws from ``rng`` in the variant's part order, so a seed fully pins the
    starting point.
    """
    feature_mean = np.asarray(feature_mean, dtype=np.float64)
    feature_sd = np.asarray(feature_sd, dtype=np.float64)
    if feature_mean.shape != feature_sd.shape or feature_mean.ndim != 1:
        raise ShapeError("feature_mean and feature_sd must be matching 1-D arrays")
    if np.any(feature_sd <= 0):
        raise ValidationError("feature_sd entries must be positive")
    if n_arms < 2:
        raise ValidationError("need at least two arms (control plus one incentive)")

    emb_dim = config.embedding_dim or default_embedding_dim(n_arms)
    depth = config._cut_depths()
    losses = _SLOT_LOSSES[config.variant]
    width: dict[str, int] = {}
    tables: dict[str, np.ndarray] = {}
    nets: dict[str, DenseNet] = {}
    for part in _VARIANTS[config.variant].parts:
        if part.kind == "embedding":
            tables[part.name] = rng.uniform(-0.05, 0.05, size=(n_arms, emb_dim))
            width[part.name] = len(feature_mean) + emb_dim
        elif part.kind == "trunk":
            dims = config.hidden_dims[depth[part.cuts[0]] : depth[part.cuts[1]]]
            nets[part.name] = init_dense_net(
                (width[part.source],) + dims, ["relu"] * len(dims), rng,
                dropout_rate=config.dropout_rate,
            )
            width[part.name] = dims[-1]
        else:
            activation = _LINKS[losses[part.slot]][0]
            nets[part.name] = init_dense_net([width[part.source], 1], [activation], rng)
    return ResponseModel(config, n_arms, feature_mean, feature_sd, tables, nets)


@dataclass
class _ModelTrace:
    """Everything the backward pass needs from one forward pass."""

    arms: np.ndarray
    traces: dict  # part name -> ForwardTrace
    slots: dict  # slot -> (N,) head output; a missing head reports the direct one


def _require_finite(what: str, x: np.ndarray):
    if not np.all(np.isfinite(x)):
        raise ValidationError(f"{what} contains non-finite values")


def _walk_parts(model: ResponseModel, features, arms, run):
    """Walk the variant's parts forward and return ``(arms, slots)``.

    An embedding's output is the standardized features next to each record's
    arm row; it is the model input, and the only place finiteness is checked
    on the way in. ``run(part, x)`` maps a trunk's or a head's input to its
    output. The walk runs in the dtype ``standardize`` gives the features.
    """
    arms = arm_indices(arms, "arms")
    z = model.standardize(features)
    if arms.shape != (z.shape[0],):
        raise ShapeError(f"arms must have shape ({z.shape[0]},), got {arms.shape}")
    if np.any(arms < 0) or np.any(arms >= model.n_arms):
        raise ValidationError("arm index out of range")
    arms = arms.astype(np.int64, copy=False)
    outputs: dict = {}
    slots: dict = {}
    for part in _VARIANTS[model.config.variant].parts:
        if part.kind == "embedding":
            out = np.hstack([z, model.tables[part.name][arms]])
            _require_finite("model input", out)
        else:
            out = run(part, outputs[part.source])
        outputs[part.name] = out
        if part.slot is not None:
            slots[part.slot] = out[:, 0]
    return arms, {s: slots.get(s, slots["direct"]) for s in _SLOTS}


def _model_forward(
    model: ResponseModel,
    features: np.ndarray,
    arms: np.ndarray,
    rng: np.random.Generator | None = None,
) -> _ModelTrace:
    """The recorded forward pass that training and the gradient checks backpropagate through.

    Dropout runs when ``rng`` is given (training); the gradient checks pass none.
    """
    traces: dict = {}

    def run(part, x):
        # looked up at call time, so wrappers patched onto this module see every call
        traces[part.name] = forward_pass(model.nets[part.name], x, rng)
        return traces[part.name].output

    arms, slots = _walk_parts(model, features, arms, run)
    return _ModelTrace(arms, traces, slots)


def _eval_slots(model: ResponseModel, features: np.ndarray, arms: np.ndarray) -> dict:
    """Head outputs of a pass without dropout that drops each part's trace when the part returns.

    Each trunk's output is checked for finiteness too, so a trunk that
    overflows raises before a sigmoid head can saturate it to 0 or 1.
    """

    def run(part, x):
        # looked up at call time, so wrappers patched onto this module see every call
        out = forward_pass(model.nets[part.name], x).output
        if part.kind == "trunk":
            _require_finite(f"{part.name} output", out)
        return out

    return _walk_parts(model, features, arms, run)[1]


def _part_gradients(model: ResponseModel, mtrace: _ModelTrace, slot_grads: dict):
    """Yield ``(part name, gradients)`` for every part, spending and releasing the forward's traces.

    Each part's backward spends its trace (see ``nncore.backward_pass``). A
    head whose trunk another trunk reads goes first, while that trunk's
    output is intact, and defers its input gradient. Then the trunks and
    embeddings are walked in reverse, so each is walked before the part it
    reads. A trunk's input gradient goes over the output of the trunk it
    reads, and that trunk's deferred head adds its own into it a block of
    rows at a time: the trunk's term, then the head's. The head of a trunk no
    trunk reads runs just before that trunk and writes its input gradient
    over the trunk's output the same way. So every input gradient but the
    model input's lands over the activation it differentiates, and by the
    walk order no trace is read after it is spent.

    A part's gradients are yielded as soon as the walk reads its weights no
    more: a deferred head's once ``add_input_gradient`` has used its weight,
    any other part's right after its own backward (an embedding's after
    ``np.add.at``). The walk holds no yielded gradient once it resumes, and
    it takes each trace out of ``mtrace.traces`` for the backward that spends
    it, so a trunk's spent record is freed with the records of the parts
    that read it.
    """
    parts = _VARIANTS[model.config.variant].parts
    traces = mtrace.traces
    read_by_trunk = {part.source for part in parts if part.kind == "trunk"}
    heads = {part.source: part for part in parts if part.kind == "head"}  # trunk -> its head

    def head_backward(head, **where):
        return backward_pass(
            model.nets[head.name], traces.pop(head.name), slot_grads[head.slot].reshape(-1, 1),
            **where,
        )

    deferred = {trunk: head_backward(head, defer_input=True)
                for trunk, head in heads.items() if trunk in read_by_trunk}
    pending: dict = {}
    for part in reversed(parts):
        if part.kind == "head":
            continue
        head = heads.get(part.name)
        if part.name in deferred:
            back = deferred.pop(part.name)
            g = add_input_gradient(model.nets[head.name], back, pending.pop(part.name))
        elif head is not None:
            back = head_backward(head, onto=traces[part.name])
            g = back.input_gradient
        else:
            back, g = None, pending.pop(part.name)
        if back is not None:
            yield head.name, flatten_gradients(back)
        if part.kind == "embedding":
            grad = np.zeros_like(model.tables[part.name])
            np.add.at(grad, mtrace.arms, g[:, model.n_features :])
            yield part.name, [grad]
            continue
        back = backward_pass(model.nets[part.name], traces.pop(part.name), g, onto=traces.get(part.source))
        del g  # this trunk's spent output goes with its trace
        pending[part.source] = back.input_gradient
        yield part.name, flatten_gradients(back)
        del back  # so the yielded gradients outlive no update


def _model_backward(model: ResponseModel, mtrace: _ModelTrace, slot_grads: dict) -> list[np.ndarray]:
    """Every part's gradients at once, aligned with ``model.parameters()``, for the gradient checks.

    The walk spends and releases ``mtrace``'s traces as in training (see
    ``_part_gradients``), but this list holds every gradient until the
    caller drops it; ``_train_step`` instead updates each part as its
    gradients are yielded.
    """
    grads = dict(_part_gradients(model, mtrace, slot_grads))
    return [grad for name in model.part_parameters() for grad in grads[name]]


def _slot_labels(s, y) -> dict:
    return {"direct": s, "enduring": (np.asarray(y) > 0).astype(np.float64), "amount": y}


def _loss_terms(model: ResponseModel, s, y, slots: dict):
    """Per-sample loss of the variant and the weight-scaled gradient of each slot it trains."""
    cfg = model.config
    labels = _slot_labels(s, y)
    values = []
    grads = {}
    for slot, loss, weight in _VARIANTS[cfg.variant].terms:
        w = getattr(cfg.weights, weight) if isinstance(weight, str) else weight
        # looked up at call time, so wrappers patched onto this module see every call
        if loss == "tweedie":
            value, grad = tweedie_loss(labels[slot], slots[slot], cfg.rho)
        elif loss == "ce":
            value, grad = cross_entropy_loss(labels[slot], slots[slot])
        else:
            value, grad = l2_loss(labels[slot], slots[slot])
        values.append(w * value)
        grads[slot] = w * grad
    return sum(values[1:], values[0]), grads


def _predict_into(model: ResponseModel, features, arms, out: list):
    """Write each slot's head outputs into ``out``'s (N,) views in ``_SLOTS`` order, chunk by chunk."""
    for lo in range(0, len(features), _PREDICT_CHUNK):
        hi = lo + _PREDICT_CHUNK
        slots = _eval_slots(model, features[lo:hi], arms[lo:hi])
        for column, slot in zip(out, _SLOTS):
            column[lo:hi] = slots[slot]
    amount_loss = _SLOT_LOSSES[model.config.variant].get("amount")
    if amount_loss is not None and _LINKS[amount_loss][0] == "identity":
        np.maximum(out[-1], _AMOUNT_FLOOR, out=out[-1])


def predict(model: ResponseModel, features: np.ndarray, arms: np.ndarray) -> PredictionMatrix:
    """Head outputs for each record under its given arm (no dropout, chunked)."""
    features = np.asarray(features, dtype=np.float64)
    arms = arm_indices(arms, "arms")  # range-checked and cast chunk by chunk
    out = PredictionMatrix(*(np.empty(len(features)) for _ in _SLOTS))
    columns = [getattr(out, f.name) for f in fields(out)]
    _predict_into(model, features, arms, columns)
    return out


def predict_matrix(model: ResponseModel, features: np.ndarray) -> PredictionMatrix:
    """Head outputs for every arm, one forward sweep per arm."""
    features = np.asarray(features, dtype=np.float64)
    n = len(features)
    out = PredictionMatrix(*(np.empty((n, model.n_arms)) for _ in _SLOTS))
    for j in range(model.n_arms):
        columns = [getattr(out, f.name)[:, j] for f in fields(out)]
        _predict_into(model, features, np.full(n, j, dtype=np.int64), columns)
    return out


def _mean_loss(model: ResponseModel, features, arms, s, y) -> float:
    total = 0.0
    n = len(features)
    for lo in range(0, n, _PREDICT_CHUNK):
        hi = lo + _PREDICT_CHUNK
        slots = _eval_slots(model, features[lo:hi], arms[lo:hi])
        value, _ = _loss_terms(model, s[lo:hi], y[lo:hi], slots)
        total += float(np.sum(value))
    return total / n


def _warm_start_heads(model: ResponseModel, s_train: np.ndarray, y_train: np.ndarray):
    """Set each head's bias to its link's inverse at the mean of its label.

    The exp-link amount head in particular starts at the mean amount instead
    of exp(0) = 1, which saves many epochs of bias-only drift at small
    learning rates.
    """
    labels = _slot_labels(s_train, y_train)
    losses = _SLOT_LOSSES[model.config.variant]
    for part in _VARIANTS[model.config.variant].parts:
        if part.kind == "head":
            mean = float(np.mean(labels[part.slot]))
            model.nets[part.name].layers[-1].bias[0] = _LINKS[losses[part.slot]][1](mean)


@dataclass
class EpochStats:
    """One training epoch: mean losses and the learning rate in effect."""

    epoch: int
    train_loss: float
    val_loss: float
    learning_rate: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class TrainResult:
    model: ResponseModel
    history: list[EpochStats]
    best_epoch: int
    best_val_loss: float
    stopped_epoch: int


@contextmanager
def _diverged(epoch: int):
    """Re-raise a ``ValidationError`` from the body as a ``TrainingError``.

    ``train_model`` checks its inputs before the first step, so a value a
    check refuses after that (a prediction outside a loss's domain, a
    non-finite gradient or trunk output) comes from the net, not the input.
    """
    try:
        yield
    except ValidationError as exc:
        raise TrainingError(f"diverged at epoch {epoch}: {exc}") from exc


def _train_step(model, params, adam, features, arms, s, y, rng, epoch: int) -> float:
    """One minibatch: forward, loss, and a backward that updates each part; returns the summed loss.

    ``params`` and ``adam`` map each part to its parameters and its Adam
    state. Each part's gradients go to ``adam_update`` as soon as the
    backward walk yields them and are dropped before it resumes, so a step
    never holds the whole gradient list (see ``_part_gradients``). A
    non-finite gradient stops its own part's update with a
    ``TrainingError``; the parts walked before it in the step are already
    updated, and ``train_model`` returns no model. The trace is a local, so
    what is left of it is freed when the step returns, before the next
    step's forward pass. A default-width step over 1 024 rows peaks at about
    25.2 MiB of traced memory, against 33.4 MiB when it held every gradient
    for one update (``TestTrainingMemory.STEP_PEAK``).
    """
    mt = _model_forward(model, features, arms, rng)
    with _diverged(epoch):
        value, slot_grads = _loss_terms(model, s, y, mt.slots)
    batch_loss = float(np.sum(value))
    if not np.isfinite(batch_loss):
        raise TrainingError(f"non-finite training loss at epoch {epoch}")
    nb = len(features)
    for name, grads in _part_gradients(model, mt, {k: g / nb for k, g in slot_grads.items()}):
        with _diverged(epoch):
            adam_update(params[name], grads, adam[name])
        del grads  # freed before the walk resumes
    return batch_loss


def train_model(
    features: np.ndarray,
    arms: np.ndarray,
    s: np.ndarray,
    y: np.ndarray,
    n_arms: int,
    config: ModelConfig | None = None,
    seed: int = 0,
) -> TrainResult:
    """Fit the configured variant with Adam, early stopping, and lr decay.

    A validation slice is split off first (seeded shuffle). The learning rate
    is multiplied by ``lr_decay`` after ``plateau_epochs`` epochs without
    validation improvement; training stops after ``patience_epochs`` of them
    and the best-validation parameters are restored. All randomness (split,
    init, batch order, dropout) runs on streams derived from ``seed``.

    Each part keeps its own Adam state. Every state is stepped once per
    training step, so all share the step count, and all take the one
    learning rate and its decays: the bytes of one state over every
    parameter. Each step updates a part as soon as its gradients exist (see
    ``_train_step``) and frees its arrays when it returns, so validation
    chunks of up to ``_PREDICT_CHUNK`` rows never sit beside a step's. A
    non-finite gradient raises ``TrainingError`` and no model is returned,
    though the parts walked before it in that step were already updated.
    """
    if config is None:
        config = ModelConfig()
    features = np.asarray(features, dtype=np.float64)
    arms = arm_indices(arms, "arms")
    s = np.asarray(s, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = len(features)
    if features.ndim != 2:
        raise ShapeError("features must be 2-D")
    for name, arr in (("arms", arms), ("s", s), ("y", y)):
        if arr.shape != (n,):
            raise ShapeError(f"{name} must have length {n}")
    if n < 10:
        raise ValidationError(f"need at least 10 records to fit, got {n}")
    if not np.all(np.isfinite(features)):
        raise ValidationError("features must be finite")
    if not np.all(np.isfinite(y)) or np.any(y < 0):
        raise ValidationError("amounts must be finite and nonnegative")
    if not np.all((s == 0) | (s == 1)):
        raise ValidationError("direct flags must be 0 or 1")
    if np.any(arms < 0) or np.any(arms >= n_arms):
        raise ValidationError(f"arm indices must lie in [0, {n_arms})")
    arms = arms.astype(np.int64, copy=False)

    perm = make_rng(seed, _STREAM_SPLIT).permutation(n)
    n_val = max(1, int(round(config.validation_fraction * n)))
    if n - n_val < 1:
        raise ValidationError("validation split leaves no training data")
    val_idx, train_idx = perm[:n_val], perm[n_val:]

    f_tr, f_val = features[train_idx], features[val_idx]
    a_tr, a_val = arms[train_idx], arms[val_idx]
    s_tr, s_val = s[train_idx], s[val_idx]
    y_tr, y_val = y[train_idx], y[val_idx]

    feature_mean = f_tr.mean(axis=0)
    feature_sd = np.maximum(f_tr.std(axis=0), 1e-12)
    model = build_model(config, n_arms, feature_mean, feature_sd, make_rng(seed, _STREAM_INIT))
    _warm_start_heads(model, s_tr, y_tr)

    params = model.part_parameters()
    learning_rate = config.learning_rate
    adam = {name: init_adam(p, learning_rate=learning_rate) for name, p in params.items()}
    batch_rng = make_rng(seed, _STREAM_BATCH)
    dropout_rng = make_rng(seed, _STREAM_DROPOUT)

    n_train = len(train_idx)
    best_val = np.inf
    flat = model.parameters()
    best_params = [p.copy() for p in flat]
    best_epoch = -1
    since_improve = 0
    history = []
    epoch = -1

    for epoch in range(1, config.max_epochs + 1):
        order = batch_rng.permutation(n_train)
        train_total = 0.0
        for lo in range(0, n_train, config.batch_size):
            sel = order[lo : lo + config.batch_size]
            train_total += _train_step(
                model, params, adam, f_tr[sel], a_tr[sel], s_tr[sel], y_tr[sel], dropout_rng, epoch
            )

        with _diverged(epoch):
            val_loss = _mean_loss(model, f_val, a_val, s_val, y_val)
        if not np.isfinite(val_loss):
            raise TrainingError(f"non-finite validation loss at epoch {epoch}")
        history.append(
            EpochStats(
                epoch=epoch,
                train_loss=train_total / n_train,
                val_loss=val_loss,
                learning_rate=learning_rate,
            )
        )
        if val_loss < best_val - 1e-12:
            best_val = val_loss
            best_epoch = epoch
            since_improve = 0
            for bp, p in zip(best_params, flat):
                bp[...] = p
        else:
            since_improve += 1
            if since_improve >= config.patience_epochs:
                break
            if since_improve % config.plateau_epochs == 0:
                learning_rate *= config.lr_decay
                for state in adam.values():
                    state.learning_rate = learning_rate

    for p, bp in zip(flat, best_params):
        p[...] = bp
    return TrainResult(
        model=model,
        history=history,
        best_epoch=best_epoch,
        best_val_loss=float(best_val),
        stopped_epoch=epoch,
    )


# ---------------------------------------------------------------------------
# Checkpointing
# ---------------------------------------------------------------------------

_CHECKPOINT_FORMAT = 1


def _array_names(model: ResponseModel) -> list[str]:
    """Checkpoint array names, aligned with ``model.parameters()``."""
    names = list(model.tables)
    for name, net in model.parts():
        names += [f"{name}__{kind}{i}" for i in range(len(net.layers)) for kind in "wb"]
    return names


def save_model(model: ResponseModel, path):
    """Write a self-describing checkpoint (npz, no pickling).

    Stores every parameter array bit-exactly plus a JSON header with the
    format, the config and the arm count. The config and the arm count fix
    the layout, so ``load_model`` needs nothing but the file.
    """
    meta = {"format": _CHECKPOINT_FORMAT, "config": model.config.to_dict(), "n_arms": model.n_arms}
    arrays = {"feature_mean": model.feature_mean, "feature_sd": model.feature_sd}
    arrays.update(zip(_array_names(model), model.parameters()))
    header = np.frombuffer(json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8)
    np.savez(path, __header__=header, **arrays)


def load_model(path) -> ResponseModel:
    """Rebuild a model from ``save_model`` output, byte-for-byte.

    Builds the layout the header's config describes and copies the stored
    arrays into it; other header keys are ignored. Raises ``ValidationError``
    naming ``path`` when the file is not such a checkpoint: unreadable,
    missing a header key or an array, an unknown config key, or an array
    whose shape is not the layout's.
    """
    # np.load leaves a handle it opened unclosed when the zip will not open,
    # so the file is opened and closed here
    try:
        with open(path, "rb") as f, np.load(f, allow_pickle=False) as data:
            if "__header__" not in data.files:
                raise ValidationError("no __header__ array")
            meta = json.loads(bytes(data["__header__"]).decode("utf-8"))
            if not isinstance(meta, dict) or meta.get("format") != _CHECKPOINT_FORMAT:
                raise ValidationError(f"the header is not a format {_CHECKPOINT_FORMAT} header")
            config = ModelConfig.from_dict(meta["config"])
            # every random weight of this template is overwritten below
            model = build_model(
                config, int(meta["n_arms"]), data["feature_mean"], data["feature_sd"], make_rng(0)
            )
            for name, param in zip(_array_names(model), model.parameters()):
                stored = data[name]
                if stored.shape != param.shape:
                    raise ValidationError(f"{name} has shape {stored.shape}, not {param.shape}")
                param[...] = stored
            return model
    except KeyError as exc:
        raise ValidationError(f"{path}: malformed model checkpoint: missing {exc}") from exc
    except (IndexError, TypeError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise ValidationError(f"{path}: malformed model checkpoint: {exc}") from exc
