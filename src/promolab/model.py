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
interpret that list for building, training, prediction and checkpoints.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import asdict, dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .errors import ShapeError, TrainingError, ValidationError
from .losses import LossWeights, cross_entropy_loss, l2_loss, tweedie_loss
from .nncore import (
    _EXP_CLIP,
    DenseNet,
    adam_update,
    backward_pass,
    flatten_gradients,
    forward_pass,
    init_adam,
    init_dense_net,
    make_rng,
    max_relative_gradient_error,
    net_parameters,
)

_AMOUNT_FLOOR = 1e-6  # positive floor for identity-link amount predictions

# rng stream keys, so every consumer of the training seed is independent
_STREAM_SPLIT = 0
_STREAM_INIT = 1
_STREAM_BATCH = 2
_STREAM_DROPOUT = 3

_PREDICT_CHUNK = 8192

# A variant is a graph of parts, each held in the ResponseModel field it names.
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
_NETS = {v: [p for p in spec.parts if p.kind != "embedding"] for v, spec in _VARIANTS.items()}
_TABLES = {v: [p for p in spec.parts if p.kind == "embedding"] for v, spec in _VARIANTS.items()}
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

    hidden_dims: tuple = (1024, 1024, 512, 16)
    direct_head_depth: int = 2
    enduring_head_depth: int = 3
    dropout_rate: float = 0.2
    learning_rate: float = 2e-4
    batch_size: int = 1024
    max_epochs: int = 200
    patience_epochs: int = 10
    plateau_epochs: int = 5
    lr_decay: float = 0.1
    validation_fraction: float = 0.1
    rho: float = 1.5
    weights: LossWeights = field(default_factory=LossWeights)
    embedding_dim: int | None = None
    variant: str = "full"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValidationError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        self.hidden_dims = tuple(int(d) for d in self.hidden_dims)
        if len(self.hidden_dims) < 2:
            raise ValidationError("need at least two trunk layers")
        if any(d < 1 for d in self.hidden_dims):
            raise ValidationError(f"hidden_dims must be positive, got {self.hidden_dims}")
        used = {c for p in _VARIANTS[self.variant].parts if p.cuts for c in p.cuts}
        cuts = {c: d for c, d in self._cut_depths().items() if c in used}
        at = list(cuts.values())
        if any(lo >= hi for lo, hi in zip(at, at[1:])):
            raise ValidationError(
                f"the {self.variant} trunk cuts must strictly increase, got {cuts}"
            )
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValidationError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.learning_rate <= 0:
            raise ValidationError("learning_rate must be positive")
        if self.batch_size < 1 or self.max_epochs < 1 or self.patience_epochs < 1:
            raise ValidationError("batch_size, max_epochs and patience_epochs must be >= 1")
        if self.plateau_epochs < 1:
            raise ValidationError("plateau_epochs must be >= 1")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ValidationError(f"lr_decay must be in (0, 1], got {self.lr_decay}")
        if not 0.0 < self.validation_fraction <= 0.5:
            raise ValidationError("validation_fraction must be in (0, 0.5]")
        if not 1.0 < self.rho < 2.0:
            raise ValidationError(f"rho must lie strictly between 1 and 2, got {self.rho}")
        if isinstance(self.weights, dict):
            self.weights = LossWeights(**self.weights)
        if self.embedding_dim is not None and self.embedding_dim < 1:
            raise ValidationError("embedding_dim must be positive when given")

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


PredictionTriple = PredictionMatrix  # deprecated alias


@dataclass
class ResponseModel:
    """A built (possibly trained) model: parameters plus input normalization."""

    config: ModelConfig
    n_arms: int
    feature_mean: np.ndarray
    feature_sd: np.ndarray
    embedding: np.ndarray  # (M, E)
    trunk_a: DenseNet
    direct_head: DenseNet
    trunk_b: DenseNet | None = None
    enduring_head: DenseNet | None = None
    trunk_c: DenseNet | None = None
    amount_head: DenseNet | None = None
    amount_trunk: DenseNet | None = None  # two_model only
    amount_embedding: np.ndarray | None = None  # two_model only

    @property
    def n_features(self) -> int:
        return len(self.feature_mean)

    @property
    def embedding_dim(self) -> int:
        return self.embedding.shape[1]

    def parts(self) -> list[tuple[str, DenseNet]]:
        """Named sub-networks in build order (parameter layout depends on it)."""
        return [(p.name, getattr(self, p.name)) for p in _NETS[self.config.variant]]

    def parameters(self) -> list[np.ndarray]:
        """Embedding tables, then each part's weights and biases."""
        params = [getattr(self, p.name) for p in _TABLES[self.config.variant]]
        for _, net in self.parts():
            params.extend(net_parameters(net))
        return params

    def standardize(self, features: np.ndarray, dtype=np.float64) -> np.ndarray:
        features = np.asarray(features, dtype=dtype)
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
    members: dict[str, object] = {}
    for part in _VARIANTS[config.variant].parts:
        if part.kind == "embedding":
            members[part.name] = rng.uniform(-0.05, 0.05, size=(n_arms, emb_dim))
            width[part.name] = len(feature_mean) + emb_dim
        elif part.kind == "trunk":
            dims = config.hidden_dims[depth[part.cuts[0]] : depth[part.cuts[1]]]
            members[part.name] = init_dense_net(
                (width[part.source],) + dims, ["relu"] * len(dims), rng,
                dropout_rate=config.dropout_rate,
            )
            width[part.name] = dims[-1]
        else:
            activation = _LINKS[losses[part.slot]][0]
            members[part.name] = init_dense_net([width[part.source], 1], [activation], rng)
    return ResponseModel(
        config=config, n_arms=n_arms, feature_mean=feature_mean, feature_sd=feature_sd, **members
    )


@dataclass
class _ModelTrace:
    """Everything the backward pass needs from one forward pass."""

    arms: np.ndarray
    traces: dict  # part name -> ForwardTrace
    slots: dict  # slot -> (N,) head output; a missing head reports the direct one


def _model_forward(
    model: ResponseModel,
    features: np.ndarray,
    arms: np.ndarray,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
    dtype=np.float64,
) -> _ModelTrace:
    arms = np.asarray(arms, dtype=np.int64)
    z = model.standardize(features, dtype=dtype)
    if arms.shape != (z.shape[0],):
        raise ShapeError(f"arms must have shape ({z.shape[0]},), got {arms.shape}")
    if np.any(arms < 0) or np.any(arms >= model.n_arms):
        raise ValidationError("arm index out of range")
    outputs: dict = {}
    traces: dict = {}
    slots: dict = {}
    for part in _VARIANTS[model.config.variant].parts:
        if part.kind == "embedding":
            outputs[part.name] = np.hstack([z, getattr(model, part.name)[arms].astype(dtype)])
            continue
        net = getattr(model, part.name)
        trace = forward_pass(net, outputs[part.source], mode, rng, dtype=dtype)
        traces[part.name] = trace
        outputs[part.name] = trace.output
        if part.slot is not None:
            slots[part.slot] = trace.output[:, 0]
    return _ModelTrace(arms, traces, {s: slots.get(s, slots["direct"]) for s in _SLOTS})


def _model_backward(
    model: ResponseModel, mtrace: _ModelTrace, slot_grads: dict
) -> list[np.ndarray]:
    """Gradients aligned with ``model.parameters()``.

    Walks the parts in reverse, adding each part's input gradient into the
    gradient of the part it reads.
    """
    upstream: dict = {}
    grads: dict = {}
    for part in reversed(_VARIANTS[model.config.variant].parts):
        if part.kind == "head":
            g = slot_grads[part.slot].reshape(-1, 1)
        else:
            g = upstream[part.name]
        if part.kind == "embedding":
            table = np.zeros_like(getattr(model, part.name))
            np.add.at(table, mtrace.arms, g[:, model.n_features :])
            grads[part.name] = [table]
            continue
        back = backward_pass(getattr(model, part.name), mtrace.traces[part.name], g)
        grads[part.name] = flatten_gradients(back)
        into = back.input_gradient
        upstream[part.source] = upstream[part.source] + into if part.source in upstream else into
    order = _TABLES[model.config.variant] + _NETS[model.config.variant]
    return [grad for part in order for grad in grads[part.name]]


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


def predict(model: ResponseModel, features: np.ndarray, arms: np.ndarray) -> PredictionMatrix:
    """Head outputs for each record under its given arm (eval mode, chunked)."""
    features = np.asarray(features, dtype=np.float64)
    arms = np.asarray(arms, dtype=np.int64)
    spans = [slice(lo, lo + _PREDICT_CHUNK) for lo in range(0, len(features), _PREDICT_CHUNK)]
    chunks = [_model_forward(model, features[c], arms[c]).slots for c in spans]
    out = {s: np.concatenate([c[s] for c in chunks]) if chunks else np.empty(0) for s in _SLOTS}
    amount_loss = _SLOT_LOSSES[model.config.variant].get("amount")
    if amount_loss is not None and _LINKS[amount_loss][0] == "identity":
        out["amount"] = np.maximum(out["amount"], _AMOUNT_FLOOR)
    return PredictionMatrix(*(out[s] for s in _SLOTS))


def predict_matrix(model: ResponseModel, features: np.ndarray) -> PredictionMatrix:
    """Head outputs for every arm, one forward sweep per arm."""
    features = np.asarray(features, dtype=np.float64)
    n = len(features)
    out = PredictionMatrix(*(np.empty((n, model.n_arms)) for _ in fields(PredictionMatrix)))
    for j in range(model.n_arms):
        column = predict(model, features, np.full(n, j, dtype=np.int64))
        for f in fields(PredictionMatrix):
            getattr(out, f.name)[:, j] = getattr(column, f.name)
    return out


def _mean_loss(model: ResponseModel, features, arms, s, y, chunk: int = _PREDICT_CHUNK) -> float:
    total = 0.0
    n = len(features)
    for lo in range(0, n, chunk):
        hi = lo + chunk
        mt = _model_forward(model, features[lo:hi], arms[lo:hi], mode="eval")
        value, _ = _loss_terms(model, s[lo:hi], y[lo:hi], mt.slots)
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
    for part in _NETS[model.config.variant]:
        if part.kind == "head":
            mean = float(np.mean(labels[part.slot]))
            getattr(model, part.name).layers[-1].bias[0] = _LINKS[losses[part.slot]][1](mean)


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
    """
    if config is None:
        config = ModelConfig()
    features = np.asarray(features, dtype=np.float64)
    arms = np.asarray(arms, dtype=np.int64)
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

    params = model.parameters()
    adam = init_adam(params, learning_rate=config.learning_rate)
    batch_rng = make_rng(seed, _STREAM_BATCH)
    dropout_rng = make_rng(seed, _STREAM_DROPOUT)

    n_train = len(train_idx)
    best_val = np.inf
    best_params = [p.copy() for p in params]
    best_epoch = -1
    since_improve = 0
    history = []
    epoch = -1

    for epoch in range(1, config.max_epochs + 1):
        order = batch_rng.permutation(n_train)
        train_total = 0.0
        for lo in range(0, n_train, config.batch_size):
            sel = order[lo : lo + config.batch_size]
            nb = len(sel)
            mt = _model_forward(model, f_tr[sel], a_tr[sel], mode="train", rng=dropout_rng)
            value, slot_grads = _loss_terms(model, s_tr[sel], y_tr[sel], mt.slots)
            batch_loss = float(np.sum(value))
            if not np.isfinite(batch_loss):
                raise TrainingError(f"non-finite training loss at epoch {epoch}")
            train_total += batch_loss
            grads = _model_backward(model, mt, {k: g / nb for k, g in slot_grads.items()})
            try:
                adam_update(params, grads, adam)
            except ValidationError as exc:
                raise TrainingError(f"diverged at epoch {epoch}: {exc}") from exc

        val_loss = _mean_loss(model, f_val, a_val, s_val, y_val)
        if not np.isfinite(val_loss):
            raise TrainingError(f"non-finite validation loss at epoch {epoch}")
        history.append(
            EpochStats(
                epoch=epoch,
                train_loss=train_total / n_train,
                val_loss=val_loss,
                learning_rate=adam.learning_rate,
            )
        )
        if val_loss < best_val - 1e-12:
            best_val = val_loss
            best_epoch = epoch
            since_improve = 0
            for bp, p in zip(best_params, params):
                bp[...] = p
        else:
            since_improve += 1
            if since_improve >= config.patience_epochs:
                break
            if since_improve % config.plateau_epochs == 0:
                adam.learning_rate *= config.lr_decay

    for p, bp in zip(params, best_params):
        p[...] = bp
    return TrainResult(
        model=model,
        history=history,
        best_epoch=best_epoch,
        best_val_loss=float(best_val),
        stopped_epoch=epoch,
    )


def model_gradient_check(
    model: ResponseModel,
    features: np.ndarray,
    arms: np.ndarray,
    s: np.ndarray,
    y: np.ndarray,
    eps: float = 1e-5,
    rng: np.random.Generator | None = None,
    samples_per_tensor: int = 8,
    fd_dtype=np.longdouble,
) -> float:
    """Finite-difference check of the whole model's gradients on one batch.

    Covers every parameter tensor including the embedding tables, using the
    variant's own composite loss (eval mode, mean over the batch). Returns
    the worst sampled relative error. The differenced loss runs in
    ``fd_dtype`` (extended precision by default) so eval round-off does not
    masquerade as gradient error on small entries, and the relu and exp-clamp
    active sets guard the differencing: an entry whose perturbation flips a
    unit across its kink is remeasured with a smaller step instead of
    averaging over the kink.
    """
    features = np.asarray(features, dtype=np.float64)
    arms = np.asarray(arms, dtype=np.int64)
    s = np.asarray(s, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = len(features)

    def loss_value() -> float:
        mt = _model_forward(model, features, arms, mode="eval", dtype=fd_dtype)
        value, _ = _loss_terms(model, s.astype(fd_dtype), y.astype(fd_dtype), mt.slots)
        return np.sum(value) / n

    def region_signature() -> np.ndarray:
        mt = _model_forward(model, features, arms, mode="eval")
        sigs = []
        for part_name, net in model.parts():
            trace = mt.traces[part_name]
            for layer, lt in zip(net.layers, trace.layers):
                if layer.activation == "relu":
                    sigs.append(lt.pre.ravel() > 0)
                elif layer.activation == "exp":
                    sigs.append(lt.pre.ravel() < _EXP_CLIP)
        if not sigs:
            return np.zeros(0, dtype=bool)
        return np.concatenate(sigs)

    def analytic() -> list[np.ndarray]:
        mt = _model_forward(model, features, arms, mode="eval")
        _, slot_grads = _loss_terms(model, s, y, mt.slots)
        return _model_backward(model, mt, {k: g / n for k, g in slot_grads.items()})

    return max_relative_gradient_error(
        model.parameters(), loss_value, analytic, eps, rng=rng,
        samples_per_tensor=samples_per_tensor, region_signature=region_signature,
    )


# ---------------------------------------------------------------------------
# Checkpointing
# ---------------------------------------------------------------------------

_CHECKPOINT_FORMAT = 1


def _part_headers(model: ResponseModel) -> list[dict]:
    """The checkpoint header's entry for each part, in part order."""
    return [
        {
            "name": name,
            "activations": [layer.activation for layer in net.layers],
            "dropout_rate": net.dropout_rate,
            "n_layers": len(net.layers),
        }
        for name, net in model.parts()
    ]


def _array_names(model: ResponseModel) -> list[str]:
    """Checkpoint array names, aligned with ``model.parameters()``."""
    names = [p.name for p in _TABLES[model.config.variant]]
    for name, net in model.parts():
        names += [f"{name}__{kind}{i}" for i in range(len(net.layers)) for kind in "wb"]
    return names


def save_model(model: ResponseModel, path):
    """Write a self-describing checkpoint (npz, no pickling).

    Stores every parameter array bit-exactly plus a JSON header with the
    config, variant, and per-part activations, so ``load_model`` needs
    nothing but the file.
    """
    meta = {
        "format": _CHECKPOINT_FORMAT,
        "config": model.config.to_dict(),
        "n_arms": model.n_arms,
        "parts": _part_headers(model),
        "has_amount_embedding": model.amount_embedding is not None,
    }
    arrays = {"feature_mean": model.feature_mean, "feature_sd": model.feature_sd}
    arrays.update(zip(_array_names(model), model.parameters()))
    header = np.frombuffer(json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8)
    np.savez(path, __header__=header, **arrays)


def load_model(path) -> ResponseModel:
    """Rebuild a model from ``save_model`` output, byte-for-byte.

    Builds the layout the header's config describes and copies the stored
    arrays into it. Raises ``ValidationError`` naming ``path`` when the file
    is not such a checkpoint: unreadable, missing a header key or an array,
    an unknown config key, parts other than the layout's, or an array whose
    shape is not the layout's.
    """
    try:
        with np.load(path, allow_pickle=False) as data:
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
            if meta["parts"] != _part_headers(model):
                raise ValidationError(
                    f"the header's parts are not those of its {config.variant} config"
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
