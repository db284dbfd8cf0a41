"""Loss oracles: frozen hand values, gradient identities, domain validation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promolab.errors import ValidationError
from promolab.losses import (
    PROB_CLIP,
    LossWeights,
    cross_entropy_loss,
    hybrid_loss,
    l2_loss,
    tweedie_loss,
)
from promolab.model import ModelConfig, _loss_terms, build_model
from promolab.nncore import make_rng

# Frozen by hand before implementation:
#   value(y=0, y_hat=1, rho=1.5) = 1^(0.5) / 0.5            = 2
#   value(y=4, y_hat=4, rho=1.5) = -4*4^(-.5)/(-.5) + 4^.5/.5 = 4 + 4 = 8
#   hybrid(s=1, y=4, f=0.5/0.5/4, w=(10,1,2), rho=1.5)       = 80 + 3 ln 2
TWEEDIE_AT_ZERO = 2.0
TWEEDIE_AT_MINIMUM = 8.0
HYBRID_EXAMPLE = 80.0 + 3.0 * math.log(2.0)


class TestTweedie:
    def test_frozen_value_at_zero_response(self):
        value, grad = tweedie_loss(0.0, 1.0, 1.5)
        assert abs(value - TWEEDIE_AT_ZERO) < 1e-12
        assert abs(grad - 1.0) < 1e-12  # y_hat^(-1.5) * (1 - 0)

    def test_frozen_value_at_its_minimum(self):
        value, grad = tweedie_loss(4.0, 4.0, 1.5)
        assert abs(value - TWEEDIE_AT_MINIMUM) < 1e-12
        assert abs(grad) < 1e-12

    @pytest.mark.parametrize("y", [0.5, 4.0, 100.0])
    @pytest.mark.parametrize("rho", [1.1, 1.5, 1.9])
    def test_minimized_exactly_at_y(self, y, rho):
        from scipy.optimize import minimize_scalar

        res = minimize_scalar(
            lambda m: tweedie_loss(y, m, rho)[0],
            bounds=(y * 1e-3, y * 1e3),
            method="bounded",
            options={"xatol": 1e-10},
        )
        assert abs(res.x - y) / y < 1e-6

    @given(
        y=st.floats(0.0, 50.0),
        y_hat=st.floats(0.05, 50.0),
        rho=st.floats(1.05, 1.95),
    )
    @settings(max_examples=60, deadline=None)
    def test_gradient_matches_finite_difference(self, y, y_hat, rho):
        eps = 1e-6 * max(y_hat, 1.0)
        _, grad = tweedie_loss(y, y_hat, rho)
        up, _ = tweedie_loss(y, y_hat + eps, rho)
        down, _ = tweedie_loss(y, y_hat - eps, rho)
        numeric = (up - down) / (2 * eps)
        assert abs(grad - numeric) < 1e-4 * max(1.0, abs(grad))

    def test_negative_y_rejected(self):
        with pytest.raises(ValidationError):
            tweedie_loss(-1.0, 1.0, 1.5)

    def test_nonpositive_prediction_rejected(self):
        with pytest.raises(ValidationError):
            tweedie_loss(1.0, 0.0, 1.5)

    def test_rho_domain(self):
        with pytest.raises(ValidationError):
            tweedie_loss(1.0, 1.0, 2.0)
        with pytest.raises(ValidationError):
            tweedie_loss(1.0, 1.0, 1.0)

    def test_longdouble_inputs_stay_longdouble(self):
        value, _ = tweedie_loss(
            np.longdouble(2.0), np.array([1.5], dtype=np.longdouble), 1.5
        )
        assert value.dtype == np.longdouble


class TestCrossEntropy:
    def test_half_probability_value(self):
        value, grad = cross_entropy_loss(1.0, 0.5)
        assert abs(value - math.log(2.0)) < 1e-15
        assert abs(grad - (-2.0)) < 1e-12

    def test_symmetric_labels(self):
        v1, _ = cross_entropy_loss(1.0, 0.8)
        v0, _ = cross_entropy_loss(0.0, 0.2)
        assert abs(v1 - v0) < 1e-15

    def test_clipping_keeps_loss_finite(self):
        value, grad = cross_entropy_loss(1.0, 0.0)
        assert np.isfinite(value) and np.isfinite(grad)
        assert abs(value + math.log(PROB_CLIP)) < 1e-9

    def test_fractional_label_rejected(self):
        with pytest.raises(ValidationError):
            cross_entropy_loss(0.5, 0.5)

    @given(p=st.floats(0.01, 0.99), label=st.sampled_from([0.0, 1.0]))
    @settings(max_examples=40, deadline=None)
    def test_gradient_matches_finite_difference(self, p, label):
        eps = 1e-7
        _, grad = cross_entropy_loss(label, p)
        up, _ = cross_entropy_loss(label, p + eps)
        down, _ = cross_entropy_loss(label, p - eps)
        assert abs(grad - (up - down) / (2 * eps)) < 1e-4 * max(1.0, abs(grad))


class TestL2:
    def test_value_and_gradient(self):
        value, grad = l2_loss(3.0, 5.0)
        assert value == 4.0
        assert grad == 4.0


class TestHybrid:
    def test_frozen_worked_example(self):
        value, gd, ge, gm = hybrid_loss(
            s=1.0, y=4.0, f_direct=0.5, f_enduring_prop=0.5, f_amount=4.0
        )
        assert abs(value - HYBRID_EXAMPLE) < 1e-12
        # amount sits at its optimum; both propensity gradients are -2 scaled
        assert abs(gm) < 1e-12
        assert abs(gd - 2.0 * (-2.0)) < 1e-12
        assert abs(ge - 1.0 * (-2.0)) < 1e-12

    def test_component_weights_scale_gradients(self):
        w = LossWeights(w_amount=3.0, w_enduring=5.0, w_direct=7.0)
        _, gd, ge, gm = hybrid_loss(0.0, 2.0, 0.4, 0.6, 1.0, weights=w)
        _, gd1, ge1, gm1 = hybrid_loss(0.0, 2.0, 0.4, 0.6, 1.0)
        assert abs(gd / gd1 - 7.0 / 2.0) < 1e-12
        assert abs(ge / ge1 - 5.0 / 1.0) < 1e-12
        assert abs(gm / gm1 - 3.0 / 10.0) < 1e-12

    def test_broadcasts_over_batches(self):
        s = np.array([0.0, 1.0, 1.0])
        y = np.array([0.0, 2.0, 5.0])
        value, gd, ge, gm = hybrid_loss(s, y, np.full(3, 0.5), np.full(3, 0.5), np.full(3, 2.0))
        assert value.shape == gd.shape == ge.shape == gm.shape == (3,)
        one, _, _, _ = hybrid_loss(0.0, 0.0, 0.5, 0.5, 2.0)
        assert abs(value[0] - one) < 1e-12

    def test_enduring_label_is_nonzero_indicator(self):
        # y = 0 must push the enduring propensity down, y > 0 up
        _, _, ge_zero, _ = hybrid_loss(0.0, 0.0, 0.5, 0.5, 1.0)
        _, _, ge_pos, _ = hybrid_loss(0.0, 3.0, 0.5, 0.5, 1.0)
        assert ge_zero > 0 > ge_pos

    @pytest.mark.parametrize(
        "weights", [LossWeights(), LossWeights(w_amount=3.0, w_enduring=5.0, w_direct=7.0)]
    )
    def test_full_model_loss_is_hybrid_loss(self, weights):
        # hybrid_loss is the written-out reference for the `full` variant's loss terms
        config = ModelConfig(hidden_dims=(4, 4, 4, 4), weights=weights)
        model = build_model(config, 3, np.zeros(5), np.ones(5), make_rng(0))
        rng = make_rng(1)
        s = rng.integers(0, 2, size=50).astype(np.float64)
        y = np.where(rng.random(50) < 0.4, 0.0, rng.gamma(2.0, 2.0, size=50))
        slots = {"direct": rng.random(50), "enduring": rng.random(50), "amount": rng.gamma(2.0, 1.0, 50)}
        value, grads = _loss_terms(model, s, y, slots)
        ref_value, *ref_grads = hybrid_loss(
            s, y, slots["direct"], slots["enduring"], slots["amount"], weights, config.rho
        )
        assert np.array_equal(value, ref_value)
        for slot, ref in zip(("direct", "enduring", "amount"), ref_grads):
            assert np.array_equal(grads[slot], ref), slot

    def test_weight_validation(self):
        with pytest.raises(ValidationError):
            LossWeights(w_amount=-1.0)
        with pytest.raises(ValidationError):
            LossWeights(w_amount=0.0, w_enduring=0.0, w_direct=0.0)
        # a single zero weight is a legitimate ablation
        LossWeights(w_amount=10.0, w_enduring=0.0, w_direct=2.0)
