"""Minimal dense feed-forward network engine with hand-derived gradients.

Everything runs in float64. A network is a plain stack of affine layers with
one of four activations (relu, sigmoid, exp, identity); dropout is the
inverted kind, applied after each layer's activation only when the forward
pass is given an rng, so a pass without one needs no rescaling.
Backpropagation is written out explicitly for this fixed topology; the tests
check it against central finite differences.

One forward pass, ``forward_pass``, serves training, scoring and the
gradient checks. It records a ``ForwardTrace`` for ``backward_pass``; a
caller that only scores keeps the output and drops the trace.

The trace keeps what backward needs and no more. A relu layer keeps only its
output and its dropout scale: relu runs in place, dropout multiplies the
output in place by the keep mask and the scale, and backward reads relu'
times the mask back from the output (a unit's output is positive exactly when
its pre-activation was and it was kept). So a wide relu trunk holds one array
per layer instead of four. The other activations, used by the one-unit heads,
keep their pre-activation, activation and float dropout mask.

Randomness is always drawn from a :class:`numpy.random.Generator` backed by
PCG64; ``make_rng`` builds one from a seed plus an optional stream key so
identical seeds give identical streams everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ShapeError, ValidationError

ACTIVATIONS = ("relu", "sigmoid", "exp", "identity")

# exp() pre-activations are clamped here so forward outputs stay finite even
# if training wanders; the derivative is zeroed past the clamp to stay
# consistent with the clamped forward value.
_EXP_CLIP = 500.0

# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults)
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPSILON = 1e-8


def make_rng(seed: int, *stream: int) -> np.random.Generator:
    """Deterministic PCG64 generator for ``seed`` and an optional stream key."""
    entropy = (int(seed),) + tuple(int(s) for s in stream)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function, stable for large |x|: the exp argument is always <= 0."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _activate(name: str, pre: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(pre, 0.0)
    if name == "sigmoid":
        return sigmoid(pre)
    if name == "exp":
        return np.exp(np.minimum(pre, _EXP_CLIP))
    if name == "identity":
        return pre
    raise ValidationError(f"unknown activation {name!r}; expected one of {ACTIVATIONS}")


def _activation_derivative(name: str, pre: np.ndarray, activated: np.ndarray) -> np.ndarray:
    # relu's derivative is read off the layer output in ``backward_pass``
    if name == "sigmoid":
        return activated * (1.0 - activated)
    if name == "exp":
        return np.where(pre < _EXP_CLIP, activated, 0.0)
    if name == "identity":
        return np.ones_like(pre)
    raise ValidationError(f"unknown activation {name!r}; expected one of {ACTIVATIONS}")


@dataclass
class DenseLayer:
    """One affine layer: ``activation(x @ weight + bias)``."""

    weight: np.ndarray  # (fan_in, fan_out)
    bias: np.ndarray  # (fan_out,)
    activation: str = "identity"

    def __post_init__(self):
        self.weight = np.asarray(self.weight, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weight.ndim != 2:
            raise ShapeError(f"weight must be 2-D, got shape {self.weight.shape}")
        if self.bias.shape != (self.weight.shape[1],):
            raise ShapeError(
                f"bias shape {self.bias.shape} does not match fan_out {self.weight.shape[1]}"
            )
        if self.activation not in ACTIVATIONS:
            raise ValidationError(
                f"unknown activation {self.activation!r}; expected one of {ACTIVATIONS}"
            )

    @property
    def fan_in(self) -> int:
        return self.weight.shape[0]

    @property
    def fan_out(self) -> int:
        return self.weight.shape[1]


@dataclass
class DenseNet:
    """A stack of dense layers with a shared inverted-dropout rate."""

    layers: list[DenseLayer]
    dropout_rate: float = 0.0

    def __post_init__(self):
        if not self.layers:
            raise ValidationError("a DenseNet needs at least one layer")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValidationError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        for a, b in zip(self.layers, self.layers[1:]):
            if a.fan_out != b.fan_in:
                raise ShapeError(
                    f"layer dims incompatible: fan_out {a.fan_out} feeds fan_in {b.fan_in}"
                )

    @property
    def input_dim(self) -> int:
        return self.layers[0].fan_in


def init_dense_net(
    dims: Sequence[int],
    activations: Sequence[str],
    rng: np.random.Generator,
    dropout_rate: float = 0.0,
) -> DenseNet:
    """Build a net with fan-in variance-scaled uniform weights and zero biases.

    ``dims`` is ``[input, h1, ..., out]``; weights for a layer with fan-in f
    are drawn from U(-sqrt(6/f), sqrt(6/f)).
    """
    if len(activations) != len(dims) - 1:
        raise ValidationError(
            f"need {len(dims) - 1} activations for {len(dims)} dims, got {len(activations)}"
        )
    layers = []
    for fan_in, fan_out, act in zip(dims, dims[1:], activations):
        limit = np.sqrt(6.0 / fan_in)
        w = rng.uniform(-limit, limit, size=(fan_in, fan_out))
        layers.append(DenseLayer(weight=w, bias=np.zeros(fan_out), activation=act))
    return DenseNet(layers=layers, dropout_rate=dropout_rate)


@dataclass
class LayerTrace:
    """What ``backward_pass`` needs from one layer of a recorded forward pass.

    A relu layer keeps only ``output`` (after dropout) and ``scale``, the
    inverted-dropout factor 1/(1 - rate), or 1 without dropout. Since
    ``scale >= 1``, ``output > 0`` holds exactly where the pre-activation was
    positive and the unit was kept, so backward forms relu' times the mask as
    ``(g * [output > 0]) * scale``. That gives the bytes of the four-array
    form ``(g * mask) * [pre > 0]``, signed zeros, inf and NaN included, with
    one exception: where a finite ``g * scale`` overflows at a kept unit whose
    pre-activation is not positive, that form gives ``inf * 0 = NaN`` and this
    one a zero. Other activations also keep ``pre``, ``activated`` and the
    scaled float ``dropout_mask`` (None without dropout) that their
    derivatives read.
    """

    output: np.ndarray  # after activation and dropout
    scale: float = 1.0  # relu: dropout scale that backward multiplies in
    pre: np.ndarray | None = None  # pre-activation; None for relu
    activated: np.ndarray | None = None  # before dropout; None for relu
    dropout_mask: np.ndarray | None = None  # scaled keep mask; None for relu and without dropout


@dataclass
class ForwardTrace:
    """Per-layer activations of one forward pass, inputs included."""

    inputs: np.ndarray
    layers: list[LayerTrace] = field(default_factory=list)

    @property
    def output(self) -> np.ndarray:
        return self.layers[-1].output


def forward_pass(
    net: DenseNet,
    batch: np.ndarray,
    rng: np.random.Generator | None = None,
    dtype=np.float64,
) -> ForwardTrace:
    """Run the net over a (batch, features) matrix and record what backward needs.

    Each layer is ``activation(x @ weight + bias)``, with the bias added in
    place on the matmul result and a relu run in place too. Shapes are
    checked; finiteness is not, so the caller checks its inputs (the model
    checks its input once per pass).

    Dropout runs exactly when ``rng`` is given and the net's rate is above 0.
    Its masks are drawn from ``rng`` and scaled by 1/(1 - rate), so the output
    without dropout is the expectation of the output with it wherever the
    dropped activations feed a linear map. A relu layer applies its mask in
    place and keeps no mask (see ``LayerTrace``).

    ``dtype`` upgrades the arithmetic (e.g. to ``np.longdouble``) without
    touching the stored float64 parameters; finite-difference checks use that
    to push evaluation round-off below the differencing scale.
    """
    batch = np.asarray(batch, dtype=dtype)
    if batch.ndim != 2:
        raise ShapeError(f"batch must be 2-D (batch, features), got shape {batch.shape}")
    if batch.shape[1] != net.input_dim:
        raise ShapeError(
            f"batch has {batch.shape[1]} columns but the net expects {net.input_dim}"
        )
    use_dropout = rng is not None and net.dropout_rate > 0.0

    trace = ForwardTrace(inputs=batch)
    x = batch
    for layer in net.layers:
        pre = x @ layer.weight
        pre += layer.bias
        keep = rng.random(pre.shape) >= net.dropout_rate if use_dropout else None
        if layer.activation == "relu":
            lt = LayerTrace(output=np.maximum(pre, 0.0, out=pre))
            if use_dropout:
                lt.scale = 1.0 / (1.0 - net.dropout_rate)
                lt.output *= keep
                lt.output *= lt.scale
        else:
            activated = _activate(layer.activation, pre)
            if use_dropout:
                mask = keep / (1.0 - net.dropout_rate)
                lt = LayerTrace(output=activated * mask, pre=pre, activated=activated, dropout_mask=mask)
            else:
                lt = LayerTrace(output=activated, pre=pre, activated=activated)
        trace.layers.append(lt)
        x = lt.output
    return trace


@dataclass
class BackwardResult:
    """Gradients from one backward pass, aligned with ``net.layers``."""

    weight_grads: list[np.ndarray]
    bias_grads: list[np.ndarray]
    input_gradient: np.ndarray


def backward_pass(net: DenseNet, trace: ForwardTrace, output_gradient: np.ndarray) -> BackwardResult:
    """Backpropagate d(loss)/d(output) through a recorded forward pass.

    Returns the gradient of the scalar loss with respect to every weight and
    bias, plus the gradient with respect to the input batch (needed when nets
    are chained). Deterministic given the trace (dropout masks are replayed,
    not redrawn; a relu layer's mask is read back from its output).
    """
    if len(trace.layers) != len(net.layers):
        raise ShapeError(
            f"trace has {len(trace.layers)} layers but the net has {len(net.layers)}"
        )
    output_gradient = np.asarray(output_gradient, dtype=np.float64)
    if output_gradient.shape != trace.output.shape:
        raise ShapeError(
            f"output_gradient shape {output_gradient.shape} does not match "
            f"net output shape {trace.output.shape}"
        )

    weight_grads: list[np.ndarray] = [None] * len(net.layers)  # type: ignore[list-item]
    bias_grads: list[np.ndarray] = [None] * len(net.layers)  # type: ignore[list-item]
    g = output_gradient
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        ltrace = trace.layers[i]
        if ltrace.output.shape != (g.shape[0], layer.fan_out):
            raise ShapeError(f"trace layer {i} does not match the net (stale trace?)")
        if layer.activation == "relu":
            dpre = g * (ltrace.output > 0.0)
            dpre *= ltrace.scale
        else:
            if ltrace.dropout_mask is not None:
                g = g * ltrace.dropout_mask
            dpre = g * _activation_derivative(layer.activation, ltrace.pre, ltrace.activated)
        below = trace.layers[i - 1].output if i > 0 else trace.inputs
        weight_grads[i] = below.T @ dpre
        bias_grads[i] = dpre.sum(axis=0)
        g = dpre @ layer.weight.T
    return BackwardResult(weight_grads=weight_grads, bias_grads=bias_grads, input_gradient=g)


def net_parameters(net: DenseNet) -> list[np.ndarray]:
    """Flat parameter list [W0, b0, W1, b1, ...] (views, not copies)."""
    params: list[np.ndarray] = []
    for layer in net.layers:
        params.append(layer.weight)
        params.append(layer.bias)
    return params


def flatten_gradients(back: BackwardResult) -> list[np.ndarray]:
    """Gradients in the same order as ``net_parameters``."""
    grads: list[np.ndarray] = []
    for dw, db in zip(back.weight_grads, back.bias_grads):
        grads.append(dw)
        grads.append(db)
    return grads


@dataclass
class AdamState:
    """Adam moments and learning rate for one flat parameter list."""

    first_moment: list[np.ndarray]
    second_moment: list[np.ndarray]
    step_count: int = 0
    learning_rate: float = 2e-4


def init_adam(params: Sequence[np.ndarray], learning_rate: float = 2e-4) -> AdamState:
    return AdamState(
        first_moment=[np.zeros_like(p) for p in params],
        second_moment=[np.zeros_like(p) for p in params],
        step_count=0,
        learning_rate=learning_rate,
    )


def adam_update(
    params: Sequence[np.ndarray],
    grads: Sequence[np.ndarray],
    state: AdamState,
) -> tuple[Sequence[np.ndarray], AdamState]:
    """One bias-corrected Adam step, in place on ``params`` and ``state``.

    Rejects non-finite gradients before touching anything, so a rejected
    update leaves parameters and moments unchanged.
    """
    if len(params) != len(grads) or len(params) != len(state.first_moment):
        raise ShapeError(
            f"got {len(params)} params, {len(grads)} grads, "
            f"{len(state.first_moment)} moment slots"
        )
    for p, g, m in zip(params, grads, state.first_moment):
        if p.shape != g.shape or p.shape != m.shape:
            raise ShapeError(f"param shape {p.shape} vs grad {g.shape} vs moment {m.shape}")
    for g in grads:
        if not np.all(np.isfinite(g)):
            raise ValidationError("non-finite gradient; update rejected")

    state.step_count += 1
    t = state.step_count
    b1, b2 = _ADAM_BETA1, _ADAM_BETA2
    bias1 = 1.0 - b1**t
    bias2 = 1.0 - b2**t
    for p, g, m, v in zip(params, grads, state.first_moment, state.second_moment):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * np.square(g)
        m_hat = m / bias1
        v_hat = v / bias2
        p -= state.learning_rate * m_hat / (np.sqrt(v_hat) + _ADAM_EPSILON)
    return params, state
