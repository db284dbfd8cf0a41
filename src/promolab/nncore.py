"""Minimal dense feed-forward network engine with hand-derived gradients.

A network is a plain stack of affine layers with one of four activations:
relu for trunk layers, and sigmoid, exp or identity as the link of a
one-unit head. Dropout is the inverted kind; only relu layers drop units,
and only when the forward pass is given an rng, so a pass without one needs
no rescaling. Backpropagation is written out explicitly for this fixed
topology; the tests check it against central finite differences.

A pass runs in ``np.result_type(batch, np.float64)`` against the stored
float64 parameters: float64 for every package caller, extended precision
when the finite-difference checks pass a longdouble batch.

One forward pass, ``forward_pass``, serves training, scoring and the
gradient checks. It records a ``ForwardTrace`` for ``backward_pass``; a
caller that only scores keeps the output and drops the trace. The trace
keeps what backward needs and no more: a relu layer its output and dropout
scale (backward reads relu' times the mask back from the output, see
``LayerTrace``), a link layer its output and pre-activation.

Every pass allocates its own arrays, so its results share no memory with
another pass's; nothing is cached at module level. The backward spends the
trace it reads (Chen et al. 2016, *Training Deep Nets with Sublinear Memory
Cost*, arXiv:1604.06174, in-place backpropagation): a relu layer's output is
dead once the layer above has read it for its weight gradient and its mask
is saved, so the gradient at that output is written over it, and then the
layer's pre-activation gradient over that. The input gradient of a net whose
input is another trace's relu output (``backward_pass``'s ``onto``) goes
over that output the same way. Each relu mask is dropped once it has been
read, so a backward holds one at a time. A trace is so good for one
backward. ``adam_update`` works in place, block by block, with scratch of
its own.

Randomness is always drawn from a :class:`numpy.random.Generator` backed by
PCG64; ``make_rng`` builds one from a seed plus an optional stream key so
identical seeds give identical streams everywhere.
"""

from __future__ import annotations

import math
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

# elements per block of the blocked loops (dropout masks, Adam): 256 KB of
# float64, so a block's operands stay in cache between the loop's ufuncs
_BLOCK = 32768


def make_rng(seed: int, *stream: int) -> np.random.Generator:
    """Deterministic PCG64 generator for ``seed`` and an optional stream key."""
    entropy = (int(seed),) + tuple(int(s) for s in stream)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function, stable for large |x|: the exp argument is always <= 0."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _link(name: str, pre: np.ndarray) -> np.ndarray:
    if name == "sigmoid":
        return sigmoid(pre)
    if name == "exp":
        return np.exp(np.minimum(pre, _EXP_CLIP))
    if name == "identity":
        return pre
    raise ValidationError(f"unknown activation {name!r}; expected one of {ACTIVATIONS}")


def _link_derivative(name: str, pre: np.ndarray, output: np.ndarray) -> np.ndarray:
    # relu's derivative is read off the layer output in ``backward_pass``
    if name == "sigmoid":
        return output * (1.0 - output)
    if name == "exp":
        return np.where(pre < _EXP_CLIP, output, 0.0)
    return np.ones_like(pre)  # identity


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
    """A stack of dense layers whose relu layers share one inverted-dropout rate.

    Only relu layers drop units; a layer with a link activation (sigmoid,
    exp, identity) keeps every unit whatever the rate.
    """

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
    one a zero. A link layer never drops a unit, so its ``scale`` is 1, and it
    also keeps ``pre``, which its derivative reads with ``output``.
    """

    output: np.ndarray  # after activation and, for relu, dropout
    scale: float = 1.0  # dropout scale that backward multiplies in; 1 for a link layer
    pre: np.ndarray | None = None  # pre-activation of a link layer; None for relu


@dataclass
class ForwardTrace:
    """Per-layer activations of one forward pass, inputs included.

    The layer arrays belong to the trace. The ``backward_pass`` through it
    spends them: it writes the gradient at each relu layer's output over that
    output, then the layer's pre-activation gradient over it.

    ``top_mask`` is set when the backward of a net reading this trace's relu
    output spent it (see ``backward_pass``'s ``onto``): ``output`` then holds
    that net's input gradient, and ``top_mask`` the top layer's relu mask,
    saved before the write. This trace's own backward reads it and clears it.
    """

    inputs: np.ndarray
    layers: list[LayerTrace] = field(default_factory=list)
    top_mask: np.ndarray | None = None

    @property
    def output(self) -> np.ndarray:
        return self.layers[-1].output


def forward_pass(
    net: DenseNet,
    batch: np.ndarray,
    rng: np.random.Generator | None = None,
) -> ForwardTrace:
    """Run the net over a (batch, features) matrix and record what backward needs.

    Every layer runs one step: the matmul into a new array, then the bias
    added in place. A relu layer then applies relu in place and, when dropout
    runs, its keep mask; a link layer applies its link. Shapes are checked;
    finiteness is not, so the caller checks its inputs (the model checks its
    input once per pass).

    Dropout runs on the relu layers exactly when ``rng`` is given and the
    net's rate is above 0; a link layer never drops a unit. The masks are
    drawn from ``rng`` in row-major order, a block at a time, and scaled by
    1/(1 - rate), so the output without dropout is the expectation of the
    output with it wherever the dropped activations feed a linear map. No
    mask is kept (see ``LayerTrace``).

    The pass runs in ``np.result_type(batch, np.float64)``: an int or float32
    batch runs in float64, a longdouble batch in longdouble, against the
    stored float64 parameters. The trace's arrays stay valid until the
    backward spends them (see ``ForwardTrace``).
    """
    batch = np.asarray(batch)
    batch = batch.astype(np.result_type(batch, np.float64), copy=False)
    if batch.ndim != 2:
        raise ShapeError(f"batch must be 2-D (batch, features), got shape {batch.shape}")
    if batch.shape[1] != net.input_dim:
        raise ShapeError(
            f"batch has {batch.shape[1]} columns but the net expects {net.input_dim}"
        )
    rate = net.dropout_rate
    use_dropout = rng is not None and rate > 0.0

    trace = ForwardTrace(inputs=batch)
    x = batch
    for layer in net.layers:
        out = np.matmul(x, layer.weight)
        out += layer.bias
        if layer.activation != "relu":
            lt = LayerTrace(output=_link(layer.activation, out), pre=out)
        else:
            lt = LayerTrace(output=np.maximum(out, 0.0, out=out))
            if use_dropout:
                lt.scale = 1.0 / (1.0 - rate)
                blocks = _blocks(out)
                draw = np.empty(blocks[0][0].shape)
                keep = np.empty(blocks[0][0].shape, bool)
                for (block,) in blocks:
                    rows = len(block)
                    rng.random(out=draw[:rows])
                    block *= np.greater_equal(draw[:rows], rate, out=keep[:rows])
                    block *= lt.scale
        trace.layers.append(lt)
        x = lt.output
    return trace


@dataclass
class BackwardResult:
    """Gradients from one backward pass, aligned with ``net.layers``.

    ``input_gradient`` is None when the pass deferred it; ``pre_gradient``,
    the gradient at the first layer's pre-activation, then forms it (see
    ``add_input_gradient``).
    """

    weight_grads: list[np.ndarray]
    bias_grads: list[np.ndarray]
    input_gradient: np.ndarray | None
    pre_gradient: np.ndarray | None = None


def backward_pass(
    net: DenseNet,
    trace: ForwardTrace,
    output_gradient: np.ndarray,
    *,
    onto: ForwardTrace | None = None,
    defer_input: bool = False,
) -> BackwardResult:
    """Backpropagate d(loss)/d(output) through a recorded forward pass, spending it.

    Returns the gradient of the scalar loss with respect to every weight and
    bias, plus the gradient with respect to the input batch (needed when nets
    are chained). Deterministic given the trace: a relu layer's dropout mask is
    read back from its output, not redrawn.

    Each layer's weight and bias gradients, and the gradients at each link
    layer's pre-activation and at any link output below the top, are new
    arrays. ``output_gradient`` is only read, cast to the trace's dtype, so
    backward runs in the arithmetic of its forward pass.

    The trace is good for one backward only. Once the layer above a relu
    layer has read that layer's output for its weight gradient, the output's
    mask is saved and the layer above's input gradient is written over the
    output; the relu layer's pre-activation gradient then goes over that in
    place, and the mask is dropped. A relu top layer's mask is
    ``trace.top_mask`` if a reader has spent its output, and is read from the
    output otherwise; the pass clears ``trace.top_mask`` as it reads it.
    Given ``onto``, the trace whose output the net read (``trace.inputs``),
    with a relu top, the net's input gradient goes over ``onto.output`` the
    same way, with the mask kept in ``onto.top_mask``. Otherwise the input
    gradient is a new array.

    Given ``defer_input``, the input gradient is not formed: the result's
    ``input_gradient`` is None and its ``pre_gradient`` holds the first
    layer's pre-activation gradient, for ``add_input_gradient``.
    """
    if len(trace.layers) != len(net.layers):
        raise ShapeError(
            f"trace has {len(trace.layers)} layers but the net has {len(net.layers)}"
        )
    output_gradient = np.asarray(output_gradient, dtype=trace.output.dtype)
    if output_gradient.shape != trace.output.shape:
        raise ShapeError(
            f"output_gradient shape {output_gradient.shape} does not match "
            f"net output shape {trace.output.shape}"
        )
    if onto is not None and onto.output is not trace.inputs:
        raise ShapeError("onto must be the trace whose output the net read")

    weight_grads: list[np.ndarray] = [None] * len(net.layers)  # type: ignore[list-item]
    bias_grads: list[np.ndarray] = [None] * len(net.layers)  # type: ignore[list-item]
    g = output_gradient
    # the saved mask of the relu layer whose output g is at
    mask, trace.top_mask = trace.top_mask, None
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        ltrace = trace.layers[i]
        if ltrace.output.shape != (g.shape[0], layer.fan_out):
            raise ShapeError(f"trace layer {i} does not match the net (stale trace?)")
        if layer.activation == "relu":
            derivative = ltrace.output > 0.0 if mask is None else mask
            target = ltrace.output  # its mask is saved; g may already be here
        else:
            derivative = _link_derivative(layer.activation, ltrace.pre, ltrace.output)
            target = None
        dpre = np.multiply(g, derivative, out=target)
        derivative = mask = None  # read: dropped before the next mask is formed
        dpre *= ltrace.scale
        below = trace.layers[i - 1] if i > 0 else onto.layers[-1] if onto is not None else None
        below_output = trace.inputs if i == 0 else below.output
        weight_grads[i] = np.matmul(below_output.T, dpre)
        bias_grads[i] = np.sum(dpre, axis=0)
        if defer_input and i == 0:
            return BackwardResult(weight_grads, bias_grads, None, pre_gradient=dpre)
        out = None
        # a relu output below is dead once its mask is saved
        if below is not None and below.pre is None:
            mask = below.output > 0.0
            if i == 0:
                onto.top_mask = mask
            out = below.output
        g = np.matmul(dpre, layer.weight.T, out=out)
    return BackwardResult(weight_grads=weight_grads, bias_grads=bias_grads, input_gradient=g)


def add_input_gradient(net: DenseNet, back: BackwardResult, into: np.ndarray) -> np.ndarray:
    """Add the input gradient a deferred ``backward_pass`` of a one-unit net left unformed into
    ``into``, in place.

    Forms ``back.pre_gradient @ W.T`` for the net's (K, 1) weight W a block
    of rows at a time in scratch of its own, so the product is never held
    whole, and adds each block into ``into``'s rows. Each entry is one
    product, taken as an outer product (``np.multiply``) rather than a
    one-term matmul. The two differ only in a zero's sign (the matmul's sum
    starts at +0), which an addition keeps only where ``into`` holds -0, and
    a matmul, which writes ``into`` in the model, never leaves -0. So this
    gives the bytes of ``into += input_gradient``.
    """
    weight_t = net.layers[0].weight.T
    if weight_t.shape[0] != 1:
        raise ShapeError(f"add_input_gradient needs a one-unit first layer, got {weight_t.shape[0]} units")
    blocks = _blocks(into, back.pre_gradient)
    scratch = np.empty(blocks[0][0].shape, np.result_type(back.pre_gradient, weight_t))
    for block, pre in blocks:
        rows = len(block)
        block += np.multiply(pre, weight_t, out=scratch[:rows])
    return into


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


def _blocks(*arrays: np.ndarray) -> list:
    """Equally shaped arrays cut into blocks of about ``_BLOCK`` elements each.

    Returns one list of views per block, cut along the leading axis, at least
    one entry per block. Arrays that fit one block are their own block, and
    0-d arrays are viewed as one entry.
    """
    arrays = [a.reshape(1) if a.ndim == 0 else a for a in map(np.asarray, arrays)]
    k = max(1, _BLOCK // max(1, math.prod(arrays[0].shape[1:])))
    if len(arrays[0]) <= k:
        return [arrays]
    return [[a[lo : lo + k] for a in arrays] for lo in range(0, len(arrays[0]), k)]


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

    The step runs block by block through each tensor with two blocks of
    scratch, in the operation order of the array form
    ``m = b1 m + (1 - b1) g``, ``v = b2 v + (1 - b2) g^2``,
    ``p -= lr (m / c1) / (sqrt(v / c2) + eps)``, so it writes the same bytes
    without allocating a tensor-sized temporary.
    """
    if len(params) != len(grads) or len(params) != len(state.first_moment):
        raise ShapeError(
            f"got {len(params)} params, {len(grads)} grads, "
            f"{len(state.first_moment)} moment slots"
        )
    for p, g, m in zip(params, grads, state.first_moment):
        if p.shape != g.shape or p.shape != m.shape:
            raise ShapeError(f"param shape {p.shape} vs grad {g.shape} vs moment {m.shape}")
    blocks = [b for four in zip(params, grads, state.first_moment, state.second_moment)
              for b in _blocks(*four)]
    size = max((p.size for p, _, _, _ in blocks), default=0)
    scratch, denominator = np.empty(size), np.empty(size)
    finite = np.empty(size, dtype=bool)
    for _, g, _, _ in blocks:
        if not np.isfinite(g, out=finite[: g.size].reshape(g.shape)).all():
            raise ValidationError("non-finite gradient; update rejected")

    state.step_count += 1
    t = state.step_count
    b1, b2 = _ADAM_BETA1, _ADAM_BETA2
    bias1 = 1.0 - b1**t
    bias2 = 1.0 - b2**t
    lr = state.learning_rate
    for pb, gb, mb, vb in blocks:
        s = scratch[: pb.size].reshape(pb.shape)
        d = denominator[: pb.size].reshape(pb.shape)
        mb *= b1
        mb += np.multiply(1.0 - b1, gb, out=s)
        vb *= b2
        np.square(gb, out=s)
        vb += np.multiply(1.0 - b2, s, out=s)
        np.divide(mb, bias1, out=s)
        np.multiply(lr, s, out=s)
        np.divide(vb, bias2, out=d)
        np.sqrt(d, out=d)
        d += _ADAM_EPSILON
        pb -= np.divide(s, d, out=s)
    return params, state
