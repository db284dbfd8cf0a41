"""Model construction, gradients per variant, training loop, checkpoints."""

import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from promolab import model as model_module
from promolab.datagen import GenConfig, generate_rct
from promolab.errors import TrainingError, ValidationError
from promolab.losses import LossWeights
from promolab.model import (
    ModelConfig,
    VARIANTS,
    build_model,
    default_embedding_dim,
    load_model,
    predict,
    predict_matrix,
    save_model,
    train_model,
)
from promolab.nncore import init_adam, make_rng

from oracles import BAD_ARMS, model_gradient_check, reference_model_gradients

NARROW = dict(hidden_dims=(16, 16, 8, 4), dropout_rate=0.1)


def tiny_batch(n=64, n_arms=3, seed=5):
    rng = make_rng(seed)
    features = np.abs(rng.normal(2.0, 1.5, size=(n, 5))) + 0.1
    arms = rng.integers(0, n_arms, size=n)
    s = rng.integers(0, 2, size=n).astype(np.float64)
    y = np.where(rng.random(n) < 0.4, 0.0, rng.gamma(2.0, 2.0, size=n))
    y = np.where(s == 1, y + 0.5, y)
    return features, arms, s, y


def narrow_model(variant, n_arms=3, seed=0, **overrides):
    config = ModelConfig(variant=variant, **{**NARROW, **overrides})
    f, _, _, _ = tiny_batch(n_arms=n_arms)
    mean = f.mean(axis=0)
    sd = f.std(axis=0)
    return build_model(config, n_arms, mean, sd, make_rng(seed)), config


class TestConfig:
    def test_defaults_round_trip_through_dict(self):
        config = ModelConfig()
        again = ModelConfig.from_dict(config.to_dict())
        assert again == config

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValidationError):
            ModelConfig(variant="boosted")

    def test_head_depths_must_be_ordered(self):
        with pytest.raises(ValidationError):
            ModelConfig(direct_head_depth=3, enduring_head_depth=2)

    def test_head_depth_within_trunk(self):
        with pytest.raises(ValidationError):
            ModelConfig(hidden_dims=(8, 8), direct_head_depth=2, enduring_head_depth=3)

    def test_direct_only_cut_within_trunk(self):
        # direct_only's one cut once passed the trunk's end, and trunk_a was
        # silently built with every layer there is
        with pytest.raises(ValidationError, match="model.direct_head_depth must be at most"):
            ModelConfig(variant="direct_only", hidden_dims=(8, 8), direct_head_depth=5)
        ModelConfig(variant="direct_only", hidden_dims=(8, 8), direct_head_depth=2)

    @pytest.mark.parametrize(
        "variant,accepted", [("full", False), ("direct_only", True), ("two_model", True)]
    )
    def test_only_the_cuts_a_variant_uses_are_checked(self, variant, accepted):
        # direct_only never cuts at enduring_head_depth; two_model cuts at neither depth
        kwargs = dict(hidden_dims=(8, 8, 8), direct_head_depth=2, enduring_head_depth=9)
        if accepted:
            ModelConfig(variant=variant, **kwargs)
        else:
            with pytest.raises(ValidationError):
                ModelConfig(variant=variant, **kwargs)

    def test_rho_domain(self):
        with pytest.raises(ValidationError):
            ModelConfig(rho=2.0)

    @pytest.mark.parametrize("n_arms,expected", [(7, 2), (16, 3), (81, 4)])
    def test_default_embedding_dim(self, n_arms, expected):
        assert default_embedding_dim(n_arms) == expected


class TestBuild:
    def test_full_variant_shapes(self):
        model, config = narrow_model("full")
        in_dim = 5 + model.tables["embedding"].shape[1]
        assert model.tables["embedding"].shape == (3, default_embedding_dim(3))
        assert model.nets["trunk_a"].layers[0].weight.shape == (in_dim, 16)
        assert model.nets["direct_head"].layers[0].weight.shape == (16, 1)
        assert model.nets["enduring_head"].layers[0].weight.shape == (8, 1)
        assert model.nets["amount_head"].layers[0].weight.shape == (4, 1)
        assert "amount_trunk" not in model.nets

    def test_direct_only_has_no_amount_parts(self):
        model, _ = narrow_model("direct_only")
        assert "trunk_b" not in model.nets
        assert "enduring_head" not in model.nets
        assert "amount_head" not in model.nets

    def test_two_model_has_disjoint_towers(self):
        model, _ = narrow_model("two_model")
        assert "amount_trunk" in model.nets
        assert "amount_embedding" in model.tables
        assert "trunk_b" not in model.nets
        # both towers run the full hidden stack independently
        assert len(model.nets["trunk_a"].layers) == len(NARROW["hidden_dims"])
        assert len(model.nets["amount_trunk"].layers) == len(NARROW["hidden_dims"])

    def test_build_deterministic(self):
        a, _ = narrow_model("full", seed=3)
        b, _ = narrow_model("full", seed=3)
        for pa, pb in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(pa, pb)

    def test_seed_changes_weights(self):
        a, _ = narrow_model("full", seed=3)
        b, _ = narrow_model("full", seed=4)
        assert not np.array_equal(
            a.nets["trunk_a"].layers[0].weight, b.nets["trunk_a"].layers[0].weight
        )


class TestGradients:
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_analytic_matches_finite_differences(self, variant):
        model, _ = narrow_model(variant)
        features, arms, s, y = tiny_batch()
        err = model_gradient_check(model, features, arms, s, y, rng=make_rng(9))
        assert err < 1e-6, f"{variant}: {err:.3e}"


class TestPredict:
    def test_probabilities_in_unit_interval(self):
        model, _ = narrow_model("full")
        features, arms, _, _ = tiny_batch(n=256)
        pm = predict(model, features, arms)
        assert np.all((pm.direct > 0) & (pm.direct < 1))
        assert np.all((pm.enduring_propensity > 0) & (pm.enduring_propensity < 1))
        assert np.all(pm.amount > 0)

    def test_matrix_matches_columnwise_predict(self):
        model, _ = narrow_model("full")
        features, _, _, _ = tiny_batch(n=50)
        matrix = predict_matrix(model, features)
        for j in range(3):
            pm = predict(model, features, np.full(50, j))
            np.testing.assert_allclose(matrix.amount[:, j], pm.amount, atol=1e-12)
            np.testing.assert_allclose(matrix.direct[:, j], pm.direct, atol=1e-12)

    def test_direct_only_reports_direct_as_amount(self):
        model, _ = narrow_model("direct_only")
        features, arms, _, _ = tiny_batch()
        pm = predict(model, features, arms)
        np.testing.assert_array_equal(pm.amount, pm.direct)
        np.testing.assert_array_equal(pm.enduring_propensity, pm.direct)

    def test_l2_amount_clamped_positive(self):
        model, _ = narrow_model("l2_amount")
        features, arms, _, _ = tiny_batch(n=512)
        pm = predict(model, features, arms)
        assert np.all(pm.amount >= 1e-6)

    def test_chunking_invariant(self):
        model, _ = narrow_model("full")
        features, arms, _, _ = tiny_batch(n=300)
        full = predict(model, features, arms)
        parts = [predict(model, features[i : i + 77], arms[i : i + 77]) for i in range(0, 300, 77)]
        np.testing.assert_allclose(full.amount, np.concatenate([p.amount for p in parts]), atol=0)


class TestSharedBuffers:
    """Chunked scoring, and a backward that writes over its traces, give the bytes of fresh arrays."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_small_chunks_give_one_chunk_bytes(self, variant, monkeypatch):
        # l2_amount's identity head hands back its pre-activation buffer,
        # which the next chunk rewrites. Chunks of 16 rows (the last has 2)
        # keep each row at its place modulo the row groups of BLAS's
        # matrix-vector kernel, whose rounding depends on that place (ROADMAP
        # item 5): 7-row chunks move the head bytes even with fresh arrays.
        model, _ = narrow_model(variant)
        features, arms, _, _ = tiny_batch(n=50)
        whole = (predict(model, features, arms), predict_matrix(model, features))
        monkeypatch.setattr(model_module, "_PREDICT_CHUNK", 16)
        chunked = (predict(model, features, arms), predict_matrix(model, features))
        for a, b in zip(whole, chunked):
            for name in ("direct", "enduring_propensity", "amount"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_backward_spending_its_traces_gives_fresh_bytes(self, variant):
        # the backward spends each part's trace as it walks it; no part may
        # read a trace a later part's backward has already spent, so the
        # bytes are those of the reference backprop through fresh arrays
        model, _ = narrow_model(variant, dropout_rate=0.3)
        features, arms, s, y = tiny_batch(n=64)
        mt = model_module._model_forward(model, features, arms, make_rng(3))
        trunk = mt.traces["trunk_a"].layers[0].output
        kept = trunk.copy()
        _, slot_grads = model_module._loss_terms(model, s, y, mt.slots)
        grads = model_module._model_backward(model, mt, slot_grads)
        assert not np.array_equal(trunk, kept)
        reference = reference_model_gradients(model, features, arms, s, y, make_rng(3))
        assert [g.tobytes() for g in grads] == [g.tobytes() for g in reference]


class TestEvalWalk:
    """Scoring and training walk the parts through the same forward pass; scoring keeps no trace."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_slots_match_traced_forward_bytes(self, variant):
        model, _ = narrow_model(variant)
        features, arms, _, _ = tiny_batch(n=200)
        traced = model_module._model_forward(model, features, arms).slots
        slots = model_module._eval_slots(model, features, arms)
        assert list(slots) == list(traced)
        for name in traced:
            assert slots[name].tobytes() == traced[name].tobytes(), name

    def test_scoring_never_drops_units(self):
        # scoring passes no rng, so a dropout-0.5 model scores the same bytes
        # on every call, and those of the recorded pass without an rng
        model, _ = narrow_model("full", dropout_rate=0.5)
        features, arms, _, _ = tiny_batch(n=50)
        first = predict(model, features, arms)
        again = predict(model, features, arms)
        recorded = model_module._model_forward(model, features, arms).slots
        for slot, field_name in zip(recorded, ("direct", "enduring_propensity", "amount")):
            assert getattr(first, field_name).tobytes() == getattr(again, field_name).tobytes()
            assert getattr(first, field_name).tobytes() == recorded[slot].tobytes(), slot

    @pytest.mark.parametrize(
        "dtype, runs_in",
        [(np.int64, np.float64), (np.float32, np.float64), (np.longdouble, np.longdouble)],
    )
    def test_feature_dtype_sets_the_arithmetic(self, dtype, runs_in):
        model, _ = narrow_model("full")
        features, arms, _, _ = tiny_batch(n=40)
        features = np.round(features).astype(dtype)
        mt = model_module._model_forward(model, features, arms)
        assert all(t.inputs.dtype == runs_in for t in mt.traces.values())
        assert all(slot.dtype == runs_in for slot in mt.slots.values())
        if runs_in == np.float64:
            wide = model_module._model_forward(model, features.astype(np.float64), arms).slots
            assert all(mt.slots[k].tobytes() == wide[k].tobytes() for k in wide)

    def test_recorded_pass_rejects_non_finite_input(self):
        model, _ = narrow_model("full")
        features, arms, _, _ = tiny_batch(n=50)
        features[7, 2] = np.nan
        with pytest.raises(ValidationError, match="model input"):
            model_module._model_forward(model, features, arms, make_rng(1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("scorer", ["predict", "predict_matrix"])
    def test_non_finite_feature_rejected(self, scorer, bad):
        model, _ = narrow_model("full")
        features, arms, _, _ = tiny_batch(n=50)
        features[7, 2] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            if scorer == "predict":
                predict(model, features, arms)
            else:
                predict_matrix(model, features)

    @pytest.mark.parametrize("variant", ["full", "two_model"])
    def test_overflowing_trunk_raises_before_heads_saturate(self, variant):
        # a sigmoid head would map the overflowed trunk to exact 0s and 1s
        model, _ = narrow_model(variant)
        model.nets["trunk_a"].layers[0].weight[...] = 1e308
        features, arms, _, _ = tiny_batch(n=64)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValidationError, match="trunk_a output"):
                predict(model, features, arms)


class TestArmIndices:
    """Each entry point refuses an arm array that is not 1-D whole-number indices before any cast."""

    CALLS = {
        "train_model": lambda model, f, arms, s, y: train_model(f, arms, s, y, 3, config=model.config),
        "predict": lambda model, f, arms, s, y: predict(model, f, arms),
        "_walk_parts": lambda model, f, arms, s, y: model_module._model_forward(model, f, arms),
    }

    @pytest.mark.parametrize("bad", sorted(BAD_ARMS))
    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_refused_before_any_cast(self, call, bad):
        # train_model once fitted on arms + 0.3; the suite turns any warning
        # into an error, so none may come before the refusal
        model, _ = narrow_model("full")
        features, arms, s, y = tiny_batch(n=64)
        with pytest.raises(ValidationError, match="^arms must be 1-D whole-number"):
            self.CALLS[call](model, features, BAD_ARMS[bad](arms), s, y)

    @pytest.mark.parametrize("bad", [-1, 3], ids=["negative", "past_the_last"])
    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_out_of_range_refused(self, call, bad):
        # train_model once said "arm indices must lie in [0, 3)", the others named no range
        model, _ = narrow_model("full")
        features, arms, s, y = tiny_batch(n=64)
        arms[5] = bad
        with pytest.raises(ValidationError, match=r"^arm index out of range \[0, 3\)$"):
            self.CALLS[call](model, features, arms, s, y)

    def test_whole_float_arms_give_the_integer_bytes(self):
        model, _ = narrow_model("full")
        features, arms, s, y = tiny_batch(n=64)
        config = ModelConfig(variant="full", batch_size=32, max_epochs=1, **NARROW)
        runs = [
            (predict(model, features, a), train_model(features, a, s, y, 3, config=config).model)
            for a in (arms, arms.astype(np.float64))
        ]
        (pm, fit), (pm_float, fit_float) = runs
        assert pm.amount.tobytes() == pm_float.amount.tobytes()
        assert [p.tobytes() for p in fit.parameters()] == [p.tobytes() for p in fit_float.parameters()]


@pytest.fixture(scope="module")
def trained(small_world, fast_model_config):
    cfg, dataset, _ = small_world
    return train_model(
        dataset.features,
        dataset.arm,
        dataset.s,
        dataset.y,
        cfg.n_arms,
        config=fast_model_config,
        seed=7,
    )


class TestTraining:
    def test_validation_loss_improves(self, trained):
        losses = [h.val_loss for h in trained.history]
        assert min(losses) < losses[0]
        assert trained.best_val_loss == pytest.approx(min(losses))

    def test_history_records_epochs(self, trained):
        epochs = [h.epoch for h in trained.history]
        assert epochs == list(range(1, len(epochs) + 1))
        assert all(np.isfinite(h.train_loss) and np.isfinite(h.val_loss) for h in trained.history)

    def test_best_epoch_consistent(self, trained):
        assert trained.history[trained.best_epoch - 1].val_loss == trained.best_val_loss

    def test_deterministic_given_seed(self, small_world, fast_model_config):
        cfg, dataset, _ = small_world
        sub = dataset.subset(np.arange(600))
        kwargs = dict(config=fast_model_config, seed=11)
        a = train_model(sub.features, sub.arm, sub.s, sub.y, cfg.n_arms, **kwargs)
        b = train_model(sub.features, sub.arm, sub.s, sub.y, cfg.n_arms, **kwargs)
        for pa, pb in zip(a.model.parameters(), b.model.parameters()):
            np.testing.assert_array_equal(pa, pb)

    def test_predictions_beat_constant_baseline(self, small_world, trained):
        cfg, dataset, _ = small_world
        pm = predict(trained.model, dataset.features, dataset.arm)
        base_rate = dataset.s.mean()
        from promolab.metrics import auc

        assert auc(pm.direct, dataset.s) > 0.6
        # amount predictions correlate with outcomes better than chance
        from promolab.metrics import spearman

        assert spearman(pm.amount, dataset.y) > 0.1
        assert abs(pm.direct.mean() - base_rate) < 0.1

    def test_early_stopping_bounds_epochs(self, small_world):
        cfg, dataset, _ = small_world
        sub = dataset.subset(np.arange(800))
        config = ModelConfig(
            hidden_dims=(8, 8, 8, 4),
            batch_size=256,
            learning_rate=5e-3,
            max_epochs=60,
            patience_epochs=3,
            plateau_epochs=2,
        )
        result = train_model(sub.features, sub.arm, sub.s, sub.y, cfg.n_arms, config=config, seed=3)
        assert result.stopped_epoch <= 60
        if result.stopped_epoch < 60:
            assert result.stopped_epoch - result.best_epoch >= 3

    def test_nan_targets_rejected(self, small_world, fast_model_config):
        cfg, dataset, _ = small_world
        y = dataset.y.copy()
        y[0] = np.nan
        with pytest.raises(ValidationError):
            train_model(dataset.features, dataset.arm, dataset.s, y, cfg.n_arms, config=fast_model_config)

    @pytest.mark.parametrize(
        "part,field,value",
        [("trunk_a", "weight", 1e308), ("amount_head", "bias", -1e4)],
        ids=["trunk_overflow", "amount_underflow"],
    )
    def test_divergence_is_a_training_error(self, part, field, value):
        # the batch is valid input: an overflowed trunk, or an exp-link amount
        # that underflows to 0 outside the Tweedie loss's domain, is divergence
        model, _ = narrow_model("full")
        getattr(model.nets[part].layers[0], field)[...] = value
        params = model.part_parameters()
        adam = {name: init_adam(p) for name, p in params.items()}
        features, arms, s, y = tiny_batch(n=64)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingError):
                model_module._train_step(model, params, adam, features, arms, s, y, make_rng(1), 1)

    def test_divergence_in_validation_is_a_training_error(self, monkeypatch):
        # an update that overflows the trunk first shows in the validation pass
        step = model_module._train_step

        def overflowing_step(model, *args):
            loss = step(model, *args)
            model.nets["trunk_a"].layers[0].weight[...] = 1e308
            return loss

        monkeypatch.setattr(model_module, "_train_step", overflowing_step)
        features, arms, s, y = tiny_batch(n=200)
        config = ModelConfig(batch_size=512, max_epochs=1, **NARROW)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingError, match="trunk_a output"):
                train_model(features, arms, s, y, 3, config=config, seed=0)

    def test_callees_looked_up_at_call_time(self, monkeypatch):
        # tracers wrap these module attributes, so the walkers must not hold on
        # to the functions they found at import
        names = ("forward_pass", "backward_pass", "cross_entropy_loss", "tweedie_loss")
        calls = dict.fromkeys(names, 0)
        for name in calls:
            original = getattr(model_module, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(model_module, name, counting)
        features, arms, s, y = tiny_batch(n=200)
        config = ModelConfig(batch_size=64, max_epochs=1, **NARROW)
        train_model(features, arms, s, y, 3, config=config, seed=0)
        assert all(count > 0 for count in calls.values()), calls

    def test_weight_override_changes_result(self, small_world):
        cfg, dataset, _ = small_world
        sub = dataset.subset(np.arange(600))
        base = ModelConfig(hidden_dims=(8, 8, 8, 4), batch_size=256, max_epochs=3)
        heavy = ModelConfig(
            hidden_dims=(8, 8, 8, 4),
            batch_size=256,
            max_epochs=3,
            weights=LossWeights(w_amount=1.0, w_enduring=1.0, w_direct=20.0),
        )
        a = train_model(sub.features, sub.arm, sub.s, sub.y, cfg.n_arms, config=base, seed=2)
        b = train_model(sub.features, sub.arm, sub.s, sub.y, cfg.n_arms, config=heavy, seed=2)
        assert not np.array_equal(
            a.model.nets["trunk_a"].layers[0].weight, b.model.nets["trunk_a"].layers[0].weight
        )


class TestTrainingMemory:
    """What a training step holds, counted in bytes and object lifetimes, not RSS."""

    def test_train_trace_holds_relu_outputs_and_head_fields(self):
        model, config = narrow_model("full")
        features, arms, _, _ = tiny_batch(n=64)
        mt = model_module._model_forward(model, features, arms, make_rng(1))
        arrays = {}
        for trace in mt.traces.values():
            arrays[id(trace.inputs)] = trace.inputs
            for lt in trace.layers:
                for a in (lt.pre, lt.output):
                    if a is not None:
                        arrays[id(a)] = a
        # the model input, one output per relu layer, and pre + activation of
        # each of the three one-unit heads (no dropout on heads)
        widths = model.n_features + model.embedding_dim + sum(config.hidden_dims) + 3 * 2
        assert sum(a.nbytes for a in arrays.values()) == 8 * 64 * widths

    def test_steps_never_overlap(self, monkeypatch):
        # a step's trace and gradients must be gone when the next forward
        # starts; every part takes one update per step, each with its own state
        live: list = []
        overlaps: list = []
        states: list = []
        forward, adam = model_module._model_forward, model_module.adam_update

        def watched_forward(*args, **kwargs):
            overlaps.append(sum(ref() is not None for ref in live))
            live.clear()
            mt = forward(*args, **kwargs)
            live.extend(weakref.ref(lt.output) for t in mt.traces.values() for lt in t.layers)
            return mt

        def watched_adam(params, grads, state):
            live.extend(weakref.ref(g) for g in grads)
            states.append(state)
            return adam(params, grads, state)

        monkeypatch.setattr(model_module, "_model_forward", watched_forward)
        monkeypatch.setattr(model_module, "adam_update", watched_adam)
        features, arms, s, y = tiny_batch(n=200)
        config = ModelConfig(batch_size=32, max_epochs=2, patience_epochs=3, **NARROW)
        result = train_model(features, arms, s, y, 3, config=config, seed=0)
        steps = 2 * 6  # 180 training rows in batches of 32, two epochs
        assert len(overlaps) == steps
        assert overlaps == [0] * len(overlaps)
        n_parts = len(result.model.part_parameters())
        assert len(states) == steps * n_parts
        assert len({id(state) for state in states}) == n_parts
        assert all(state.step_count == steps for state in states)

    def test_walked_parts_are_gone_when_trunk_a_starts(self, monkeypatch):
        # trunk_b and trunk_c are updated before trunk_a's backward starts, so
        # by then neither their weight gradients nor their traces are alive
        live: dict = {}  # part name -> weak references to its trace and gradients
        checks: list = []
        forward, backward = model_module.forward_pass, model_module.backward_pass
        names: dict = {}

        def watched_forward(net, *args, **kwargs):
            trace = forward(net, *args, **kwargs)
            live[names[id(net)]] = [weakref.ref(trace), *(weakref.ref(lt.output) for lt in trace.layers)]
            return trace

        def watched_backward(net, *args, **kwargs):
            name = names[id(net)]
            if name == "trunk_a":
                checks.append([ref() is None for part in ("trunk_b", "trunk_c") for ref in live[part]])
            back = backward(net, *args, **kwargs)
            live[name].extend(weakref.ref(g) for g in back.weight_grads)
            return back

        monkeypatch.setattr(model_module, "forward_pass", watched_forward)
        monkeypatch.setattr(model_module, "backward_pass", watched_backward)
        features, arms, s, y = tiny_batch(n=200)
        config = ModelConfig(batch_size=64, max_epochs=1, **NARROW)
        model = build_model(config, 3, features.mean(axis=0), features.std(axis=0), make_rng(0))
        names.update((id(net), name) for name, net in model.nets.items())
        params = model.part_parameters()
        adam = {name: init_adam(p) for name, p in params.items()}
        for lo in range(0, 192, 64):
            rows = slice(lo, lo + 64)
            model_module._train_step(
                model, params, adam, features[rows], arms[rows], s[rows], y[rows], make_rng(lo), 1
            )
        # per part: its trace, each layer's output and each weight gradient
        watched = sum(1 + 2 * len(model.nets[part].layers) for part in ("trunk_b", "trunk_c"))
        assert checks == [[True] * watched] * 3

    # tracemalloc peaks of these default-width, one-epoch train_model calls
    # once each part is updated as soon as its gradients exist and each spent
    # trace is released (numpy 2.4), rounded up to the next 0.1 MB. At 1 100
    # customers the validation set is smaller than a step's arrays; at 20 000
    # its 2 000 rows are not. Steps that allocated every array afresh peaked
    # at 130.2 and 134.1 MB, steps that only spent their traces at 106.8 and
    # 109.9, and steps that wrote each input gradient over the activation it
    # differentiates but updated every part at once at 85.5 and 87.9.
    IN_PLACE_GRADIENT_PEAK = {1100: 77_000_000, 20_000: 85_800_000}

    @pytest.mark.parametrize("n_customers", sorted(IN_PLACE_GRADIENT_PEAK))
    def test_peak_with_in_place_input_gradients(self, n_customers):
        dataset, _ = generate_rct(GenConfig(n_customers=n_customers, seed=2))
        config = ModelConfig(max_epochs=1)
        tracemalloc.start()
        try:
            train_model(dataset.features, dataset.arm, dataset.s, dataset.y, 7, config=config, seed=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= self.IN_PLACE_GRADIENT_PEAK[n_customers], peak

    @staticmethod
    def _default_width_step(variant, monkeypatch):
        """The model, where each part's input gradient landed, and the traced
        peak of one default-width training step over 1 024 rows.

        An input gradient lands nowhere (None: deferred), ``"onto"`` the
        output of the trace the part read, or in an array of its own (its shape).
        """
        dataset, _ = generate_rct(GenConfig(n_customers=1100, seed=2))
        features, arms, s, y = (a[:1024] for a in (dataset.features, dataset.arm, dataset.s, dataset.y))
        config = ModelConfig(variant=variant)
        model = build_model(config, 7, features.mean(axis=0), features.std(axis=0), make_rng(2))
        params = model.part_parameters()
        adam = {name: init_adam(p) for name, p in params.items()}
        names = {id(net): name for name, net in model.nets.items()}
        landed = {}
        backward = model_module.backward_pass

        def recorded_backward(net, *args, onto=None, **kwargs):
            back = backward(net, *args, onto=onto, **kwargs)
            din = back.input_gradient
            if din is not None:
                din = "onto" if onto is not None and np.shares_memory(din, onto.output) else din.shape
            landed[names[id(net)]] = din
            return back

        monkeypatch.setattr(model_module, "backward_pass", recorded_backward)
        tracemalloc.start()
        try:
            model_module._train_step(model, params, adam, features, arms, s, y, make_rng(3), 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return model, landed, peak

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_step_keeps_no_input_gradient_wider_than_the_model_input(self, variant, monkeypatch):
        # in one default-width step of 1 024 rows, the gradient at each trunk
        # output goes over that output, not into an array of its own; only
        # the model input's gradient has storage of its own
        model, landed, _ = self._default_width_step(variant, monkeypatch)
        input_width = model.n_features + model.embedding_dim
        for part in model_module._VARIANTS[variant].parts:
            if part.kind == "trunk":
                expected = "onto" if part.source in model.nets else (1024, input_width)
                assert landed[part.name] == expected, part.name

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_step_keeps_no_head_input_gradient(self, variant, monkeypatch):
        # every head's input gradient lands over, or is added into, the
        # gradient at its trunk's output
        model, landed, _ = self._default_width_step(variant, monkeypatch)
        for part in model_module._VARIANTS[variant].parts:
            if part.kind == "head":
                assert landed[part.name] in (None, "onto"), part.name

    # traced peaks of one such training step (forward, loss, and a backward
    # that updates each part as it goes) with each part's Adam state made
    # beforehand, rounded up to the next 0.1 MiB (numpy 2.4). A forward and
    # a backward that held every gradient at once peaked at 33.4 MiB (25.2
    # MiB for direct_only), and the deeper trunks no longer add to the peak.
    STEP_PEAK = {"full": 25.3 * 2**20, "no_enduring_ce": 25.3 * 2**20,
                 "l2_amount": 25.3 * 2**20, "direct_only": 25.2 * 2**20}

    @pytest.mark.parametrize("variant", sorted(STEP_PEAK))
    def test_step_peak(self, variant, monkeypatch):
        *_, peak = self._default_width_step(variant, monkeypatch)
        assert peak <= self.STEP_PEAK[variant], peak / 2**20


class TestCheckpoint:
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_round_trip_bit_exact(self, variant, tmp_path):
        model, _ = narrow_model(variant, seed=13)
        path = tmp_path / "model.npz"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.config == model.config
        assert loaded.n_arms == model.n_arms
        for pa, pb in zip(model.parameters(), loaded.parameters()):
            np.testing.assert_array_equal(pa, pb)
        features, arms, _, _ = tiny_batch()
        before = predict(model, features, arms)
        after = predict(loaded, features, arms)
        np.testing.assert_array_equal(before.amount, after.amount)
        np.testing.assert_array_equal(before.direct, after.direct)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, a=np.zeros(3))
        with pytest.raises(ValidationError):
            load_model(path)

    def test_rejects_malformed_checkpoint(self, tmp_path, defective_checkpoint):
        model, _ = narrow_model("full")
        save_model(model, tmp_path / "model.npz")
        bad = defective_checkpoint(tmp_path / "model.npz")
        with pytest.raises(ValidationError, match=re.escape(str(bad))):
            load_model(bad)

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_loads_checkpoint_with_earlier_header_keys(self, variant, tmp_path):
        # checkpoints written before the header shrank to format, config and
        # n_arms also list every part and whether a second arm table exists
        model, _ = narrow_model(variant, seed=13)
        path = tmp_path / "model.npz"
        save_model(model, path)
        with np.load(path, allow_pickle=False) as payload:
            arrays = {name: payload[name] for name in payload.files}
        meta = json.loads(arrays.pop("__header__").tobytes())
        meta["parts"] = [
            {
                "name": name,
                "activations": [layer.activation for layer in net.layers],
                "dropout_rate": net.dropout_rate,
                "n_layers": len(net.layers),
            }
            for name, net in model.parts()
        ]
        meta["has_amount_embedding"] = "amount_embedding" in model.tables
        header = json.dumps(meta, sort_keys=True).encode("utf-8")
        np.savez(path, __header__=np.frombuffer(header, dtype=np.uint8), **arrays)
        loaded = load_model(path)
        assert [p.tobytes() for p in loaded.parameters()] == [p.tobytes() for p in model.parameters()]

    def test_readme_documents_header_keys_and_parts(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        (sentence,) = re.findall(r"JSON\s+object\s+with\s+the\s+keys\s(.*?)\.\s", readme, re.S)
        documented_keys = re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", sentence))
        model, _ = narrow_model("full")
        save_model(model, tmp_path / "model.npz")
        with np.load(tmp_path / "model.npz", allow_pickle=False) as payload:
            meta = json.loads(payload["__header__"].tobytes())
        assert sorted(documented_keys) == sorted(meta)
        table = readme.split("| variant | parts |\n| --- | --- |\n")[1].split("\n\n")[0]
        documented_parts = {}
        for row in table.splitlines():
            variants, parts = row.strip("|").split("|")
            for variant in re.findall(r"`(\w+)`", variants):
                documented_parts[variant] = re.findall(r"`(\w+)`", parts)
        assert sorted(documented_parts) == sorted(VARIANTS)
        for variant, parts in documented_parts.items():
            assert parts == [name for name, _ in narrow_model(variant)[0].parts()], variant

    def test_file_is_pickle_free(self, tmp_path):
        model, _ = narrow_model("full")
        path = tmp_path / "model.npz"
        save_model(model, path)
        with np.load(path, allow_pickle=False) as payload:
            assert "__header__" in payload.files


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestVariantBytes:
    """Trained bytes of every variant at one seed, pinned by SHA-256.

    The digests were computed before the variants became a table walked by
    one generic forward and backward pass; that rewrite had to leave every
    parameter, history float, prediction and checkpoint header unchanged.
    The header digests alone were derived again when the header dropped its
    ``parts`` and ``has_amount_embedding`` keys, which the config and the arm
    count already determine; the other three digests did not move.
    """

    PINNED = {
        "full": {
            "parameters": "e6ef9c677ca75053238915fcc6195b2a03a6322658ca5e1a7066547791e017fd",
            "history": "8f279141cc05a67a76aea281ce068ea7db8c2a9941802237e9425efca20d4eed",
            "predict_matrix": "2b0d3e51494c42194a40e634011d58733063c0ae2b83c6a8786e1f4dc4d3e7b7",
            "header": "9da612222bc0bec52c8afb1ab4b7368b2abc94471830f552bf2ed630ab99a658",
        },
        "no_enduring_ce": {
            "parameters": "9225b5b06ba5344a620c291e5600bae4bdeb78381986869ed5d1bd21a7649405",
            "history": "da294e1917d7bc66ec2640c4c26900f755eb957e4945af543b96a677da6f2df4",
            "predict_matrix": "a287b85fac2711a41288a148f3bca6b537e083a47f9763a35e481c7f1549d1ab",
            "header": "ef9925748e31a53b59629de12b513d365f2f2d832882fd3bc3b340ba4bc63503",
        },
        "l2_amount": {
            "parameters": "1313cac7c55b1a06677a8063b9e4fd2709daf85eccc226ec30751ba33de1649f",
            "history": "daf5e2eca168d254bc7c2289b363759430a2250ba52615e30efd56e999d07e50",
            "predict_matrix": "2ee9c257ab3d90cb646bced1172ecaa1fc33730ab99c9842fbef8ea37420b0d5",
            "header": "bb336e7b43e3a156e0fa7a125ed76adcfd9b894a69da5fac2a5bc67bed99fc7a",
        },
        "direct_only": {
            "parameters": "da965213c14bd666d010978a2439789d876db6caf991960ddb8632762ef14f51",
            "history": "6284f74105d338f055738fe7bbd488586a80568254d1434b27968dfeb1d8711f",
            "predict_matrix": "0a8dbdfa17fc6b92a3e4da0577fa929947661ceb92c01e3909dad5d3c0e163c8",
            "header": "53b26cf471252d834909faa75c8dd0a3544035ca460264c41feb2c827bf94998",
        },
        "two_model": {
            "parameters": "6a118690094df304a6ee922cd13ba8c3d10955770a00d0908e5e948b3ec1fce1",
            "history": "9810c60cc09cec25153e0615ca6c558e737180284aaf131eb41109341249dbcb",
            "predict_matrix": "ce74985ab05dae5025ed4bcc3af696a0929b77fa997bea0bad4b9a989dd9b577",
            "header": "2eb2c392d23da3c2caa62aef3652f5fe8c7336a98ad743a1bd1f9d1d9fbfd0e8",
        },
    }

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_trained_bytes_pinned(self, variant, tmp_path):
        features, arms, s, y = tiny_batch(n=400, seed=8)
        config = ModelConfig(
            variant=variant, batch_size=64, learning_rate=3e-3, max_epochs=3, **NARROW
        )
        result = train_model(features, arms, s, y, 3, config=config, seed=21)
        history = np.array([[h.train_loss, h.val_loss, h.learning_rate] for h in result.history])
        pm = predict_matrix(result.model, features[:50])
        path = tmp_path / "model.npz"
        save_model(result.model, path)
        with np.load(path, allow_pickle=False) as payload:
            header = payload["__header__"].tobytes()
        digests = {
            "parameters": _sha256(b"".join(p.tobytes() for p in result.model.parameters())),
            "history": _sha256(history.tobytes()),
            "predict_matrix": _sha256(
                pm.direct.tobytes() + pm.enduring_propensity.tobytes() + pm.amount.tobytes()
            ),
            "header": _sha256(header),
        }
        assert digests == self.PINNED[variant]



class TestDecayBytes:
    """Trained bytes of a run whose learning rate decays, pinned by SHA-256.

    ``TestVariantBytes`` stops before any plateau. Here every epoch without a
    validation gain halves the rate (``plateau_epochs=1``), and the restored
    best epoch trained after at least two such cuts, so its parameters pin
    the decayed steps of every part. The digests were computed while one
    ``AdamState`` still stepped every part.
    """

    # variant -> (learning rate, seed, digests of parameters, history, predict_matrix)
    PINNED = {
        "full": (0.03, 26, {
            "parameters": "95e119e2ea9a581b962b4d896a5dab81b53027b4b78243d848965e325d4f2e9b",
            "history": "34646fdb29a497dd4784f7e5c4efbaed84c0d88d1f85827ed5096948055bc531",
            "predict_matrix": "65418f6f2399c8f85758fb8001f43d543b42a90f4c54e37fb97f06dc77a54677",
        }),
        "two_model": (0.01, 23, {
            "parameters": "9d1167377b2ce97348af02184fbc404dca545d88e49306caf74f69478c45e759",
            "history": "7211b85ef6f9eadd1d5b4a200a02b205fe95ca2589bf851983b645e38941a8eb",
            "predict_matrix": "8b615d6b2e90cdecfe69c4eec24cfb08b6cecad5c07093a6dd55a4e584b6ac9a",
        }),
    }

    @pytest.mark.parametrize("variant", sorted(PINNED))
    def test_decayed_bytes_pinned(self, variant):
        learning_rate, seed, pinned = self.PINNED[variant]
        features, arms, s, y = tiny_batch(n=400, seed=8)
        config = ModelConfig(
            variant=variant, batch_size=64, learning_rate=learning_rate, max_epochs=10,
            patience_epochs=10, plateau_epochs=1, lr_decay=0.5, **NARROW,
        )
        result = train_model(features, arms, s, y, 3, config=config, seed=seed)
        rates = [h.learning_rate for h in result.history]
        assert rates[result.best_epoch - 1] <= learning_rate * 0.5**2
        history = np.array([[h.train_loss, h.val_loss, h.learning_rate] for h in result.history])
        pm = predict_matrix(result.model, features[:50])
        digests = {
            "parameters": _sha256(b"".join(p.tobytes() for p in result.model.parameters())),
            "history": _sha256(history.tobytes()),
            "predict_matrix": _sha256(
                pm.direct.tobytes() + pm.enduring_propensity.tobytes() + pm.amount.tobytes()
            ),
        }
        assert digests == pinned

_BLAS_DIGEST_SCRIPT = """
import hashlib
from promolab.datagen import GenConfig, generate_rct
from promolab.model import ModelConfig, predict_matrix, train_model

dataset, _ = generate_rct(GenConfig(n_customers=1500, seed=31))
config = ModelConfig(max_epochs=1)
result = train_model(dataset.features, dataset.arm, dataset.s, dataset.y, 7, config=config, seed=4)
pm = predict_matrix(result.model, dataset.features)
print(hashlib.sha256(b"".join(p.tobytes() for p in result.model.parameters())).hexdigest())
print(hashlib.sha256(pm.direct.tobytes() + pm.enduring_propensity.tobytes() + pm.amount.tobytes()).hexdigest())
"""


def _numpy_uses_openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    return "openblas" in str(blas.get("name", "")).lower()


@pytest.fixture(scope="module")
def blas_thread_digests():
    """Parameter and ``predict_matrix`` digests of one run per OpenBLAS thread count."""
    src = str(Path(model_module.__file__).resolve().parents[1])
    digests = {}
    for threads in (1, 2):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", _BLAS_DIGEST_SCRIPT],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        digests[threads] = dict(zip(("parameters", "predict_matrix"), proc.stdout.split()))
    return digests


@pytest.mark.skipif(not _numpy_uses_openblas(), reason="numpy is not built against OpenBLAS")
class TestBlasThreads:
    """One default-width epoch on 1 500 customers, under 1 and 2 OpenBLAS threads."""

    def test_parameters_equal(self, blas_thread_digests):
        assert blas_thread_digests[1]["parameters"] == blas_thread_digests[2]["parameters"]

    # not strict: whether the bytes differ depends on the kernel OpenBLAS picks for the CPU
    @pytest.mark.xfail(
        reason="the direct and enduring heads map a 1024- and a 512-wide trunk to one "
        "output, and OpenBLAS rounds such (rows, K) @ (K, 1) products differently on 1 "
        "and 2 threads for many row counts, 1 500 among them",
    )
    def test_scores_equal(self, blas_thread_digests):
        assert blas_thread_digests[1]["predict_matrix"] == blas_thread_digests[2]["predict_matrix"]
