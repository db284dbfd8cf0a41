"""Engine-level checks: forward math, backward math, dropout, Adam, rngs."""

from dataclasses import fields

import numpy as np
import pytest

from promolab import nncore
from promolab.errors import ShapeError, ValidationError
from promolab.nncore import (
    AdamState,
    DenseLayer,
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

from oracles import (
    gradient_check,
    max_relative_gradient_error,
    reference_adam_update,
    reference_backward,
    reference_forward,
)


def _single_layer(weight, bias, activation):
    return DenseNet(layers=[DenseLayer(weight=np.array(weight, dtype=float),
                                       bias=np.array(bias, dtype=float),
                                       activation=activation)])


class TestForward:
    def test_identity_layer_is_affine(self):
        net = _single_layer([[1.0, 2.0], [3.0, 4.0]], [0.5, -0.5], "identity")
        out = forward_pass(net, np.array([[1.0, 1.0]])).output
        np.testing.assert_allclose(out, [[4.5, 5.5]], rtol=0, atol=0)

    def test_relu_clamps_negatives(self):
        net = _single_layer([[1.0], [1.0]], [0.0], "relu")
        out = forward_pass(net, np.array([[1.0, -3.0], [2.0, 1.0]])).output
        np.testing.assert_array_equal(out, [[0.0], [3.0]])

    def test_sigmoid_known_values(self):
        net = _single_layer([[1.0]], [0.0], "sigmoid")
        out = forward_pass(net, np.array([[0.0], [np.log(3.0)]])).output
        np.testing.assert_allclose(out[:, 0], [0.5, 0.75], atol=1e-15)

    def test_sigmoid_saturation_is_finite(self):
        net = _single_layer([[1.0]], [0.0], "sigmoid")
        out = forward_pass(net, np.array([[800.0], [-800.0]])).output
        assert np.all(np.isfinite(out))
        assert out[0, 0] == 1.0 and out[1, 0] == 0.0

    def test_exp_is_clamped(self):
        net = _single_layer([[1.0]], [0.0], "exp")
        out = forward_pass(net, np.array([[1000.0]])).output
        assert np.isfinite(out[0, 0])

    def test_wrong_input_width_raises(self):
        net = _single_layer([[1.0], [1.0]], [0.0], "identity")
        with pytest.raises(ShapeError):
            forward_pass(net, np.zeros((4, 3)))

    @pytest.mark.parametrize(
        "dtype, runs_in",
        [(np.int64, np.float64), (np.float32, np.float64), (np.float64, np.float64),
         (np.longdouble, np.longdouble)],
    )
    def test_batch_dtype_sets_the_arithmetic(self, dtype, runs_in):
        # int and float32 batches are promoted to float64, a longdouble batch stays
        # wide, backward too: under a relu top the output gradient is the first factor
        batch = make_rng(13).integers(-3, 4, size=(5, 3)).astype(dtype)
        for widths, activations in (([3, 6, 1], ["relu", "sigmoid"]), ([3, 6, 2], ["relu", "relu"])):
            net = init_dense_net(widths, activations, make_rng(12))
            trace = forward_pass(net, batch)
            assert trace.inputs.dtype == runs_in
            assert all(lt.output.dtype == runs_in for lt in trace.layers)
            out = trace.output.copy()  # before backward spends a relu top
            back = backward_pass(net, trace, np.ones((5, widths[-1])))
            assert all(g.dtype == runs_in for g in flatten_gradients(back) + [back.input_gradient])
            wide = forward_pass(net, batch.astype(np.float64)).output
            if runs_in == np.float64:
                assert out.tobytes() == wide.tobytes()
            else:
                np.testing.assert_allclose(out.astype(np.float64), wide, rtol=1e-14)

    def test_chained_dims_validated(self):
        a = DenseLayer(weight=np.zeros((2, 3)), bias=np.zeros(3))
        b = DenseLayer(weight=np.zeros((4, 1)), bias=np.zeros(1))
        with pytest.raises(ShapeError):
            DenseNet(layers=[a, b])


class TestBackward:
    def test_linear_least_squares_gradient_by_hand(self):
        # loss = 0.5 * sum(out^2) with out = x @ w; dL/dw = x^T out
        x = np.array([[1.0, 2.0], [3.0, -1.0]])
        w = np.array([[0.5], [-0.25]])
        net = _single_layer(w, [0.0], "identity")
        trace = forward_pass(net, x)
        out = trace.output
        back = backward_pass(net, trace, out)
        np.testing.assert_allclose(back.weight_grads[0], x.T @ out, atol=1e-15)
        np.testing.assert_allclose(back.bias_grads[0], out.sum(axis=0), atol=1e-15)
        np.testing.assert_allclose(back.input_gradient, out @ w.T, atol=1e-15)

    def test_relu_blocks_gradient_on_dead_units(self):
        net = _single_layer([[1.0]], [0.0], "relu")
        x = np.array([[-2.0]])
        trace = forward_pass(net, x)
        back = backward_pass(net, trace, np.array([[1.0]]))
        assert back.weight_grads[0][0, 0] == 0.0
        assert back.input_gradient[0, 0] == 0.0

    def test_two_layer_check_against_finite_differences(self):
        rng = make_rng(5)
        net = init_dense_net([4, 8, 3], ["relu", "identity"], rng)
        batch = rng.normal(size=(10, 4))
        target = rng.normal(size=(10, 3))

        def loss_fn(out):
            diff = out - target
            return 0.5 * np.sum(diff * diff), diff

        err = gradient_check(net, loss_fn, batch, rng=make_rng(6))
        assert err < 1e-7

    def test_sigmoid_and_exp_heads_check(self):
        rng = make_rng(7)
        net = init_dense_net([3, 6, 1], ["relu", "exp"], rng)
        batch = rng.normal(size=(5, 3))

        def loss_fn(out):
            return np.sum(out), np.ones_like(out)

        assert gradient_check(net, loss_fn, batch, rng=make_rng(8)) < 1e-7

    def test_stale_trace_rejected(self):
        rng = make_rng(9)
        net = init_dense_net([2, 3], ["identity"], rng)
        other = init_dense_net([2, 4], ["identity"], rng)
        trace = forward_pass(other, np.zeros((1, 2)))
        with pytest.raises(ShapeError):
            backward_pass(net, trace, np.zeros((1, 4)))


class TestGradientCheckRefinement:
    """The checker shrinks its step when the perturbation straddles a kink."""

    @staticmethod
    def _kinked(delta):
        # loss(p) = relu(p + delta) around p = 0; true derivative is 1 while
        # p + delta > 0, but any step wider than delta crosses the kink
        p = np.array([0.0])

        def loss_value():
            return max(p[0] + delta, 0.0)

        def signature():
            return np.array([p[0] + delta > 0.0])

        return p, loss_value, signature

    def test_straddled_kink_distorts_naive_measurement(self):
        p, loss_value, _ = self._kinked(3e-6)
        err = max_relative_gradient_error([p], loss_value, lambda: [np.array([1.0])], 1e-5)
        assert 0.3 < err < 0.4
        assert p[0] == 0.0

    def test_region_guard_refines_to_a_valid_step(self):
        p, loss_value, signature = self._kinked(3e-6)
        err = max_relative_gradient_error(
            [p], loss_value, lambda: [np.array([1.0])], 1e-5, region_signature=signature
        )
        assert err < 1e-9
        assert p[0] == 0.0

    def test_guard_does_not_mask_wrong_gradient_at_a_kink(self):
        p, loss_value, signature = self._kinked(3e-6)
        err = max_relative_gradient_error(
            [p], loss_value, lambda: [np.array([2.0])], 1e-5, region_signature=signature
        )
        assert err > 0.4

    def test_guard_does_not_mask_wrong_gradient_on_smooth_loss(self):
        p = np.array([3.0])

        def loss_value():
            return p[0] ** 2

        err = max_relative_gradient_error(
            [p], loss_value, lambda: [np.array([5.0])], 1e-5,
            region_signature=lambda: np.array([True]),
        )
        assert abs(err - 1.0 / 6.0) < 1e-3

    def test_kink_deeper_than_refinement_budget_still_fails(self):
        p, loss_value, signature = self._kinked(3e-10)
        err = max_relative_gradient_error(
            [p], loss_value, lambda: [np.array([1.0])], 1e-5, region_signature=signature
        )
        assert err > 0.4


class TestDropout:
    def test_eval_mode_has_no_masks(self):
        rng = make_rng(1)
        net = init_dense_net([3, 5, 2], ["relu", "identity"], rng, dropout_rate=0.5)
        trace = forward_pass(net, np.ones((4, 3)))
        _, ref = reference_forward(net, np.ones((4, 3)))
        for lt, (_, activated, _, mask) in zip(trace.layers, ref):
            assert mask is None and lt.scale == 1.0
            # the output is the undropped activation
            np.testing.assert_array_equal(lt.output, activated)
        # a relu keeps nothing but its output; the identity link keeps its pre-activation
        assert trace.layers[0].pre is None
        np.testing.assert_array_equal(trace.layers[1].pre, ref[1][0])

    def test_rng_without_dropout_changes_nothing(self):
        net = init_dense_net([3, 5, 2], ["relu", "sigmoid"], make_rng(1))
        batch = make_rng(2).normal(size=(4, 3))
        rng = make_rng(3)
        plain = forward_pass(net, batch)
        given = forward_pass(net, batch, rng)
        for a, b in zip(plain.layers, given.layers):
            assert b.scale == 1.0
            assert a.output.tobytes() == b.output.tobytes()
        # and no draw was taken from the rng
        assert rng.random() == make_rng(3).random()

    @pytest.mark.parametrize("link", ["identity", "sigmoid", "exp"])
    def test_link_layer_keeps_every_unit(self, link):
        # with rate > 0 and an rng only the relu layer drops units, so the rng
        # advances by exactly its 8 * 40 draws
        rate = 0.3
        net = init_dense_net([3, 40, 50], ["relu", link], make_rng(2), dropout_rate=rate)
        rng = make_rng(3)
        trace = forward_pass(net, make_rng(38).normal(size=(8, 3)), rng)
        relu, head = trace.layers
        assert relu.scale == 1.0 / (1.0 - rate) and head.scale == 1.0
        pre = relu.output @ net.layers[1].weight + net.layers[1].bias
        np.testing.assert_array_equal(head.pre, pre)
        np.testing.assert_array_equal(head.output, nncore._link(link, pre))
        assert np.all(head.output != 0.0)
        skipped = make_rng(3)
        skipped.random(8 * 40)
        assert rng.random() == skipped.random()

    def test_expected_train_output_matches_eval_through_linear_map(self):
        # dropout feeds a linear output layer, so averaging many masked
        # passes must converge on the output without dropout
        rng = make_rng(4)
        net = init_dense_net([3, 20, 2], ["relu", "identity"], rng, dropout_rate=0.4)
        net.layers[1] = DenseLayer(
            weight=net.layers[1].weight, bias=net.layers[1].bias, activation="identity"
        )
        batch = rng.normal(size=(6, 3))
        eval_out = forward_pass(net, batch).output
        drop_rng = make_rng(5)
        acc = np.zeros_like(eval_out)
        n = 3000
        for _ in range(n):
            acc += forward_pass(net, batch, drop_rng).output
        np.testing.assert_allclose(acc / n, eval_out, atol=0.12)

    def test_backward_replays_recorded_mask(self):
        net = init_dense_net([3, 8, 1], ["relu", "identity"], make_rng(6), dropout_rate=0.5)
        batch = make_rng(7).normal(size=(4, 3))
        trace = forward_pass(net, batch, make_rng(8))
        output = trace.layers[0].output.copy()  # before backward spends it
        g = np.ones((4, 1))
        first = backward_pass(net, trace, g)
        # a trace is good for one backward; the same rng records the same masks
        second = backward_pass(net, forward_pass(net, batch, make_rng(8)), g)
        for a, b in zip(first.weight_grads, second.weight_grads):
            np.testing.assert_array_equal(a, b)
        # units dropped in the forward pass get no weight gradient; a relu
        # keeps no mask, so read it from the four-array reference on the same rng
        _, ref = reference_forward(net, batch, make_rng(8))
        mask = ref[0][3]
        assert np.all(output[mask == 0.0] == 0.0)
        dropped_cols = np.all(mask == 0.0, axis=0)
        assert dropped_cols.any()
        assert np.all(first.weight_grads[0][:, dropped_cols] == 0.0)


def _trace_nbytes(trace) -> int:
    """Bytes of the distinct arrays a trace holds, its inputs included."""
    arrays = {id(trace.inputs): trace.inputs}
    for lt in trace.layers:
        for a in (lt.pre, lt.output):
            if a is not None:
                arrays[id(a)] = a
    return sum(a.nbytes for a in arrays.values())


def _bits(a: np.ndarray) -> bytes:
    """The bytes that hold ``a``'s values; x87 extended precision pads each to 16 bytes."""
    a = np.ascontiguousarray(a)
    used = 10 if np.finfo(a.dtype).nmant == 63 else a.itemsize
    return a.view(np.uint8).reshape(-1, a.itemsize)[:, :used].tobytes()


def _assert_same_bytes(net, batch, mode, dropout_seed, dtype, output_gradient):
    """The compact trace and the four-array reference agree byte for byte.

    ``mode`` "train" passes both an rng seeded ``dropout_seed``, "eval" passes none.
    """

    def rng():
        return make_rng(dropout_seed) if mode == "train" else None

    batch = np.asarray(batch, dtype=dtype)
    trace = forward_pass(net, batch, rng())
    inputs, ref = reference_forward(net, batch, rng())
    for i, (lt, (_, _, out, _)) in enumerate(zip(trace.layers, ref)):
        assert lt.output.dtype == out.dtype
        assert _bits(lt.output) == _bits(out), f"layer {i} output"
    back = backward_pass(net, trace, output_gradient)
    weight_grads, bias_grads, input_gradient = reference_backward(net, inputs, ref, output_gradient)
    for i in range(len(net.layers)):
        assert _bits(back.weight_grads[i]) == _bits(weight_grads[i]), f"weight {i}"
        assert _bits(back.bias_grads[i]) == _bits(bias_grads[i]), f"bias {i}"
    assert _bits(back.input_gradient) == _bits(input_gradient)
    return ref


class TestCompactTrace:
    """Relu layers keep only their output; the bytes match the four-array passes."""

    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("rate", [0.0, 0.2, 0.35, 0.5])
    @pytest.mark.parametrize("head", ["identity", "sigmoid", "exp"])
    def test_matches_reference_bytes(self, head, rate, mode, dtype):
        rng = make_rng(31)
        net = init_dense_net([4, 12, 9, 1], ["relu", "relu", head], rng, dropout_rate=rate)
        # a zero weight column and zero bias: exactly-zero pre-activations
        net.layers[0].weight[:, 3] = 0.0
        net.layers[1].weight[:, 5] = 0.0
        net.layers[1].bias[:] = rng.normal(size=9) * 0.1
        net.layers[1].bias[5] = 0.0
        batch = rng.normal(size=(16, 4))
        batch[0] = -0.0
        batch[1, :2] = -0.0
        g = rng.normal(size=(16, 1))
        g[2, 0], g[3, 0] = 0.0, -0.0
        ref = _assert_same_bytes(net, batch, mode, 32, dtype, g)
        for pre, _, _, _ in ref[:2]:
            assert np.any(pre < 0) and np.any(pre > 0) and np.any(pre == 0)

    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("rate", [0.0, 0.2, 0.5])
    def test_special_values_match_reference_bytes(self, rate, mode, dtype):
        # float64 pre-activations -inf, negative, 0, positive, +inf (layer 0)
        # and NaN (layer 1, inf - inf); gradients with signed zeros, inf and
        # NaN. Matmul plus bias never yields a -0.0 pre-activation, so -0.0
        # enters through the batch and the gradient. In longdouble the same
        # products stay finite.
        w0 = np.array([
            [1.0, -1.0, 0.0, 1e308, -1e308, 1e308, 0.5, -0.25],
            [1.0, -1.0, 0.0, 1e308, -1e308, 1e308, -0.5, 2.0],
        ])
        w1 = make_rng(39).normal(size=(8, 4)) * 0.1
        w1[3:6] = [[1.0, 1.0, -1.0, 0.0], [0.0, 0.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0]]
        net = DenseNet(
            layers=[
                DenseLayer(weight=w0, bias=np.zeros(8), activation="relu"),
                DenseLayer(weight=w1, bias=np.zeros(4), activation="relu"),
            ],
            dropout_rate=rate,
        )
        batch = np.array([[2.0, 3.0], [-0.0, 4.0], [5.0, 5.0], [-1.0, 0.0], [3.0, -0.0], [7.0, 1.0]])
        g = make_rng(33).normal(size=(6, 4))
        g[0] = [0.0, -0.0, np.inf, -np.inf]
        g[1, 1:] = [np.nan, -0.0, 0.0]
        with np.errstate(over="ignore", invalid="ignore"):
            ref = _assert_same_bytes(net, batch, mode, 34, dtype, g)
        if dtype == np.float64:
            pre0, pre1 = ref[0][0], ref[1][0]
            assert np.isposinf(pre0).any() and np.isneginf(pre0).any() and np.isnan(pre1).any()
            finite = pre0[np.isfinite(pre0)]
            assert np.any(finite < 0) and np.any(finite == 0) and np.any(finite > 0)

    @pytest.mark.parametrize("block", [7, 24, 1000])
    def test_blocked_masks_match_one_draw(self, monkeypatch, block):
        # masks drawn a block of rows at a time use the reference's one draw per
        # layer: a row wider than a block, several rows per block, one block
        monkeypatch.setattr(nncore, "_BLOCK", block)
        net = init_dense_net([4, 12, 9, 1], ["relu", "relu", "sigmoid"], make_rng(41),
                             dropout_rate=0.35)
        batch = make_rng(42).normal(size=(16, 4))
        _assert_same_bytes(net, batch, "train", 43, np.float64, make_rng(44).normal(size=(16, 1)))

    def test_relu_trace_holds_one_output_per_layer(self):
        rate = 0.2
        net = init_dense_net([5, 64, 32, 16], ["relu"] * 3, make_rng(35), dropout_rate=rate)
        batch = make_rng(36).normal(size=(100, 5))
        trace = forward_pass(net, batch, make_rng(37))
        assert _trace_nbytes(trace) == 8 * 100 * (5 + 64 + 32 + 16)
        assert [f.name for f in fields(nncore.LayerTrace)] == ["output", "scale", "pre"]
        for lt in trace.layers:
            assert lt.pre is None
            assert lt.scale == 1.0 / (1.0 - rate)

    def test_relu_output_is_zero_or_scaled(self):
        rate = 0.3
        net = init_dense_net([3, 50], ["relu"], make_rng(2), dropout_rate=rate)
        batch = make_rng(38).normal(size=(8, 3))
        kept = forward_pass(net, batch).output * (1.0 / (1.0 - rate))
        out = forward_pass(net, batch, make_rng(3)).output
        assert np.all((out == 0.0) | (out == kept))
        assert np.any((out == 0.0) & (kept > 0.0)) and np.any((out == kept) & (kept > 0.0))


class TestSpentTrace:
    """What a backward spends in place, and what passes never share: values or their arguments."""

    @pytest.mark.parametrize("head", ["identity", "sigmoid", "relu"])
    def test_backward_leaves_output_gradient_unchanged(self, head):
        net = init_dense_net([5, 24, 3], ["relu", head], make_rng(51), dropout_rate=0.3)
        trace = forward_pass(net, make_rng(52).normal(size=(40, 5)), make_rng(53))
        g = make_rng(54).normal(size=(40, 3))
        g[0] = [0.0, -0.0, np.nan]
        kept = g.copy()
        with np.errstate(invalid="ignore"):
            backward_pass(net, trace, g)
        assert g.tobytes() == kept.tobytes()

    def test_later_pass_never_shares_memory_with_an_earlier_trace(self):
        net = init_dense_net([3, 8, 2], ["relu", "identity"], make_rng(59), dropout_rate=0.3)
        first = forward_pass(net, np.ones((4, 3)), make_rng(1))
        kept = [_bits(lt.output) for lt in first.layers]
        second = forward_pass(net, -np.ones((4, 3)), make_rng(2))
        for a, b in zip(first.layers, second.layers):
            assert not np.shares_memory(a.output, b.output)
        assert [_bits(lt.output) for lt in first.layers] == kept

    @staticmethod
    def _stack(top, rate):
        # relu layers with exactly-zero pre-activations, under a relu or a link top
        rng = make_rng(61)
        net = init_dense_net([4, 12, 9, 3], ["relu", "relu", top], rng, dropout_rate=rate)
        net.layers[0].weight[:, 3] = 0.0
        net.layers[1].weight[:, 5] = 0.0
        batch = rng.normal(size=(16, 4))
        batch[0] = -0.0
        g = rng.normal(size=(16, 3))
        g[2], g[3] = 0.0, -0.0
        return net, batch, g

    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    @pytest.mark.parametrize("rate", [0.0, 0.35])
    @pytest.mark.parametrize("top", ["relu", "sigmoid"])
    def test_backward_spends_the_trace(self, top, rate, dtype):
        net, batch, g = self._stack(top, rate)
        batch = batch.astype(dtype)

        def rng():
            return make_rng(62)

        trace = forward_pass(net, batch, rng())
        kept = [lt.output.copy() for lt in trace.layers]
        back = backward_pass(net, trace, g)
        # the bytes of the reference backprop through fresh arrays
        inputs, ref = reference_forward(net, batch, rng())
        weight_grads, bias_grads, input_gradient = reference_backward(net, inputs, ref, g)
        for i in range(len(net.layers)):
            assert _bits(back.weight_grads[i]) == _bits(weight_grads[i]), f"weight {i}"
            assert _bits(back.bias_grads[i]) == _bits(bias_grads[i]), f"bias {i}"
        assert _bits(back.input_gradient) == _bits(input_gradient)
        # the relu layers now hold their pre-activation gradients; the output
        # gradient is cast to the trace's dtype, so a longdouble relu top is spent too
        for i, layer in enumerate(net.layers):
            changed = _bits(trace.layers[i].output) != _bits(kept[i])
            assert changed == (layer.activation == "relu"), f"layer {i}"

    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    @pytest.mark.parametrize("link", ["identity", "sigmoid", "exp"])
    def test_link_layer_below_the_top(self, link, dtype):
        # the gradient at a link layer's output below the top goes into an
        # array of its own, not over the output its derivative still reads
        rng = make_rng(68)
        net = init_dense_net([4, 12, 6, 3], ["relu", link, "relu"], rng, dropout_rate=0.35)
        batch = rng.normal(size=(16, 4)).astype(dtype)
        g = rng.normal(size=(16, 3))
        trace = forward_pass(net, batch, make_rng(69))
        link_output = _bits(trace.layers[1].output)
        back = backward_pass(net, trace, g)
        assert _bits(trace.layers[1].output) == link_output
        inputs, ref = reference_forward(net, batch, make_rng(69))
        weight_grads, bias_grads, input_gradient = reference_backward(net, inputs, ref, g)
        for i in range(len(net.layers)):
            assert _bits(back.weight_grads[i]) == _bits(weight_grads[i]), f"weight {i}"
            assert _bits(back.bias_grads[i]) == _bits(bias_grads[i]), f"bias {i}"
        assert _bits(back.input_gradient) == _bits(input_gradient)

    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    @pytest.mark.parametrize("rate", [0.0, 0.35])
    def test_input_gradient_onto_the_trace_it_read(self, rate, dtype, monkeypatch):
        # net b and a one-unit head both read net a's relu output. b's input
        # gradient goes over a's output, the head's is added into it a few
        # rows at a time, and a's backward reads the mask b saved: the bytes
        # of the reference backprop through fresh arrays, with the head's
        # input gradient formed whole and added
        monkeypatch.setattr(nncore, "_BLOCK", 50)  # 5 rows of 9 per block
        rng = make_rng(64)
        a = init_dense_net([4, 12, 9], ["relu", "relu"], rng, dropout_rate=rate)
        b = init_dense_net([9, 7, 3], ["relu", "sigmoid"], rng, dropout_rate=rate)
        head = init_dense_net([9, 1], ["sigmoid"], rng)
        a.layers[1].weight[:, 4] = 0.0  # a unit of a's output that never fires
        batch = rng.normal(size=(40, 4)).astype(dtype)
        g_b, g_head = rng.normal(size=(40, 3)), rng.normal(size=(40, 1))

        dropout = make_rng(65)
        ta = forward_pass(a, batch, dropout)
        tb = forward_pass(b, ta.output, dropout)
        th = forward_pass(head, ta.output)
        back_head = backward_pass(head, th, g_head, defer_input=True)
        assert back_head.input_gradient is None
        back_b = backward_pass(b, tb, g_b, onto=ta)
        assert back_b.input_gradient is ta.output
        assert ta.top_mask is not None
        g_a = add_input_gradient(head, back_head, back_b.input_gradient)
        back_a = backward_pass(a, ta, g_a)
        assert ta.top_mask is None  # read, then released
        spent = [_bits(x) for back in (back_head, back_b, back_a) for x in flatten_gradients(back)]

        dropout = make_rng(65)
        inputs, ra = reference_forward(a, batch, dropout)
        _, rb = reference_forward(b, ra[-1][2], dropout)
        _, rh = reference_forward(head, ra[-1][2])
        wh, bh, din_head = reference_backward(head, ra[-1][2], rh, g_head)
        wb, bb, din_b = reference_backward(b, ra[-1][2], rb, g_b)
        wa, ba, din_a = reference_backward(a, inputs, ra, din_b + din_head)
        reference = [_bits(x) for w, bias in ((wh, bh), (wb, bb), (wa, ba))
                     for pair in zip(w, bias) for x in pair]
        assert spent == reference
        assert _bits(back_a.input_gradient) == _bits(din_a)

    def test_onto_must_be_the_trace_the_net_read(self):
        rng = make_rng(66)
        a = init_dense_net([3, 5], ["relu"], rng)
        b = init_dense_net([5, 2], ["relu"], rng)
        ta = forward_pass(a, rng.normal(size=(6, 3)))
        tb = forward_pass(b, ta.output.copy())
        with pytest.raises(ShapeError, match="onto"):
            backward_pass(b, tb, np.ones((6, 2)), onto=ta)

    def test_added_input_gradient_matches_the_matmul_bytes(self, monkeypatch):
        # each entry of a one-unit net's input gradient is a single product,
        # so the outer product adds the bytes of the (rows, 1) @ (1, K) matmul
        # into a matmul's output, over magnitudes from 1e-300 to 1e300
        monkeypatch.setattr(nncore, "_BLOCK", 64)  # 4 rows of 16 per block
        rng = make_rng(67)
        head = init_dense_net([16, 1], ["sigmoid"], rng)
        head.layers[0].weight[:, 0] = rng.normal(size=16) * 10.0 ** rng.integers(-150, 151, size=16)
        pre = rng.normal(size=(30, 1)) * 10.0 ** rng.integers(-150, 151, size=(30, 1))
        pre[3] = 0.0
        into = rng.normal(size=(30, 5)) @ rng.normal(size=(5, 16))
        back = nncore.BackwardResult([], [], None, pre_gradient=pre)
        expected = into + pre @ head.layers[0].weight.T
        assert _bits(add_input_gradient(head, back, into)) == _bits(expected)

    def test_added_input_gradient_needs_a_one_unit_net(self):
        rng = make_rng(68)
        net = init_dense_net([4, 2], ["sigmoid"], rng)
        back = nncore.BackwardResult([], [], None, pre_gradient=np.ones((3, 2)))
        with pytest.raises(ShapeError, match="one-unit"):
            add_input_gradient(net, back, np.zeros((3, 4)))


class TestInit:
    def test_bounds_scale_with_fan_in(self):
        net = init_dense_net([100, 50], ["relu"], make_rng(0))
        limit = np.sqrt(6.0 / 100)
        w = net.layers[0].weight
        assert np.all(np.abs(w) <= limit)
        assert np.max(np.abs(w)) > 0.8 * limit  # actually fills the range
        np.testing.assert_array_equal(net.layers[0].bias, 0.0)

    def test_dims_and_activations_must_match(self):
        with pytest.raises(ValidationError):
            init_dense_net([3, 4, 5], ["relu"], make_rng(0))


class TestAdam:
    def test_first_step_matches_hand_formula(self):
        # constant gradient 1: bias correction makes the first step exactly
        # lr / (1 + eps)
        p = [np.array([0.0])]
        state = init_adam(p, learning_rate=0.1)
        adam_update(p, [np.array([1.0])], state)
        expected = -0.1 / (1.0 + 1e-8)
        assert abs(p[0][0] - expected) < 1e-15

    def test_second_step_with_constant_gradient(self):
        p = [np.array([0.0])]
        state = init_adam(p, learning_rate=0.1)
        for _ in range(2):
            adam_update(p, [np.array([1.0])], state)
        b1, b2 = 0.9, 0.999
        m = (1 - b1) * (b1 + 1)  # after two steps with g = 1
        v = (1 - b2) * (b2 + 1)
        m_hat = m / (1 - b1**2)
        v_hat = v / (1 - b2**2)
        expected = -0.1 / (1.0 + 1e-8) - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert abs(p[0][0] - expected) < 1e-14

    def test_non_finite_gradient_rejected_without_mutation(self):
        p = [np.array([1.0, 2.0])]
        state = init_adam(p)
        adam_update(p, [np.array([0.5, 0.5])], state)
        snapshot = p[0].copy()
        moments = (state.first_moment[0].copy(), state.second_moment[0].copy())
        with pytest.raises(ValidationError):
            adam_update(p, [np.array([np.nan, 0.0])], state)
        np.testing.assert_array_equal(p[0], snapshot)
        np.testing.assert_array_equal(state.first_moment[0], moments[0])
        np.testing.assert_array_equal(state.second_moment[0], moments[1])
        assert state.step_count == 1

    def test_shape_mismatch_raises(self):
        p = [np.zeros(3)]
        state = init_adam(p)
        with pytest.raises(ShapeError):
            adam_update(p, [np.zeros(4)], state)

    @staticmethod
    def _block_crossing_tensors(seed):
        # one block and one entry past it, a 1-element bias, and a matrix of
        # many row blocks; gradients span several orders of magnitude
        rng = make_rng(seed)
        shapes = [(nncore._BLOCK + 1,), (1,), (1024, 1024)]
        params = [rng.normal(size=shape) for shape in shapes]
        grads = [[rng.normal(size=shape) * 10.0 ** rng.integers(-6, 3) for shape in shapes]
                 for _ in range(4)]
        return params, grads

    def test_blocked_update_matches_array_form_bytes(self):
        params, steps = self._block_crossing_tensors(40)
        reference = [p.copy() for p in params]
        state = init_adam(params, learning_rate=3e-3)
        ref_state = init_adam(reference, learning_rate=3e-3)
        for grads in steps:
            adam_update(params, grads, state)
            reference_adam_update(reference, grads, ref_state)
            for a, b in zip(
                params + state.first_moment + state.second_moment,
                reference + ref_state.first_moment + ref_state.second_moment,
            ):
                assert a.tobytes() == b.tobytes()
            # the learning rate decays between steps, as on a plateau
            state.learning_rate *= 0.1
            ref_state.learning_rate *= 0.1
        assert state.step_count == ref_state.step_count == len(steps)

    def test_non_finite_gradient_in_a_late_block_touches_nothing(self):
        params, steps = self._block_crossing_tensors(41)
        state = init_adam(params)
        adam_update(params, steps[0], state)
        before = [a.copy() for a in params + state.first_moment + state.second_moment]
        grads = steps[1]
        grads[2][-1, -1] = np.inf  # the last entry of the last block of the last tensor
        with pytest.raises(ValidationError):
            adam_update(params, grads, state)
        after = params + state.first_moment + state.second_moment
        assert all(a.tobytes() == b.tobytes() for a, b in zip(after, before))
        assert state.step_count == 1

    def test_descends_a_quadratic(self):
        p = [np.array([5.0])]
        state = init_adam(p, learning_rate=0.3)
        for _ in range(400):
            adam_update(p, [2.0 * p[0]], state)
        assert abs(p[0][0]) < 0.05


class TestRng:
    def test_same_seed_same_stream(self):
        a = make_rng(123, 4).random(10)
        b = make_rng(123, 4).random(10)
        np.testing.assert_array_equal(a, b)

    def test_streams_are_distinct(self):
        a = make_rng(123, 4).random(10)
        b = make_rng(123, 5).random(10)
        c = make_rng(124, 4).random(10)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestParameterPlumbing:
    def test_parameters_are_views(self):
        net = init_dense_net([2, 3], ["relu"], make_rng(0))
        params = net_parameters(net)
        params[0][0, 0] = 42.0
        assert net.layers[0].weight[0, 0] == 42.0

    def test_flatten_matches_parameter_order(self):
        net = init_dense_net([2, 3, 1], ["relu", "identity"], make_rng(0))
        trace = forward_pass(net, np.ones((2, 2)))
        back = backward_pass(net, trace, np.ones((2, 1)))
        grads = flatten_gradients(back)
        params = net_parameters(net)
        assert len(grads) == len(params)
        for g, p in zip(grads, params):
            assert g.shape == p.shape

    def test_adam_state_roundtrips_with_params(self):
        net = init_dense_net([2, 4, 1], ["relu", "identity"], make_rng(1))
        params = net_parameters(net)
        state = init_adam(params)
        assert isinstance(state, AdamState)
        assert len(state.first_moment) == len(params)
