"""Model construction, gradients per variant, training loop, checkpoints."""

import hashlib
import re

import numpy as np
import pytest

from promolab import model as model_module
from promolab.datagen import generate_rct
from promolab.errors import ValidationError
from promolab.losses import LossWeights
from promolab.model import (
    ModelConfig,
    VARIANTS,
    build_model,
    default_embedding_dim,
    load_model,
    model_gradient_check,
    predict,
    predict_matrix,
    save_model,
    train_model,
)
from promolab.nncore import make_rng

NARROW = dict(hidden_dims=(16, 16, 8, 4), dropout_rate=0.1)


def tiny_batch(n=64, n_arms=3, seed=5):
    rng = make_rng(seed)
    features = np.abs(rng.normal(2.0, 1.5, size=(n, 5))) + 0.1
    arms = rng.integers(0, n_arms, size=n)
    s = rng.integers(0, 2, size=n).astype(np.float64)
    y = np.where(rng.random(n) < 0.4, 0.0, rng.gamma(2.0, 2.0, size=n))
    y = np.where(s == 1, y + 0.5, y)
    return features, arms, s, y


def narrow_model(variant, n_arms=3, seed=0):
    config = ModelConfig(variant=variant, **NARROW)
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
        in_dim = 5 + model.embedding.shape[1]
        assert model.embedding.shape == (3, default_embedding_dim(3))
        assert model.trunk_a.layers[0].weight.shape == (in_dim, 16)
        assert model.direct_head.layers[0].weight.shape == (16, 1)
        assert model.enduring_head.layers[0].weight.shape == (8, 1)
        assert model.amount_head.layers[0].weight.shape == (4, 1)
        assert model.amount_trunk is None

    def test_direct_only_has_no_amount_parts(self):
        model, _ = narrow_model("direct_only")
        assert model.trunk_b is None
        assert model.enduring_head is None
        assert model.amount_head is None

    def test_two_model_has_disjoint_towers(self):
        model, _ = narrow_model("two_model")
        assert model.amount_trunk is not None
        assert model.amount_embedding is not None
        assert model.trunk_b is None
        # both towers run the full hidden stack independently
        assert len(model.trunk_a.layers) == len(NARROW["hidden_dims"])
        assert len(model.amount_trunk.layers) == len(NARROW["hidden_dims"])

    def test_build_deterministic(self):
        a, _ = narrow_model("full", seed=3)
        b, _ = narrow_model("full", seed=3)
        for pa, pb in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(pa, pb)

    def test_seed_changes_weights(self):
        a, _ = narrow_model("full", seed=3)
        b, _ = narrow_model("full", seed=4)
        assert not np.array_equal(a.trunk_a.layers[0].weight, b.trunk_a.layers[0].weight)


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
        assert not np.array_equal(a.model.trunk_a.layers[0].weight, b.model.trunk_a.layers[0].weight)


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
    """

    PINNED = {
        "full": {
            "parameters": "e6ef9c677ca75053238915fcc6195b2a03a6322658ca5e1a7066547791e017fd",
            "history": "8f279141cc05a67a76aea281ce068ea7db8c2a9941802237e9425efca20d4eed",
            "predict_matrix": "2b0d3e51494c42194a40e634011d58733063c0ae2b83c6a8786e1f4dc4d3e7b7",
            "header": "e73dc1692d5119450457f1f47eecff552e212a1ccfe312392e39975e48bcf2ef",
        },
        "no_enduring_ce": {
            "parameters": "9225b5b06ba5344a620c291e5600bae4bdeb78381986869ed5d1bd21a7649405",
            "history": "da294e1917d7bc66ec2640c4c26900f755eb957e4945af543b96a677da6f2df4",
            "predict_matrix": "a287b85fac2711a41288a148f3bca6b537e083a47f9763a35e481c7f1549d1ab",
            "header": "5ae9e5b4240b9ce6508362f610c2c6cc7aed053f7a6755e22fc8167e10ac665f",
        },
        "l2_amount": {
            "parameters": "1313cac7c55b1a06677a8063b9e4fd2709daf85eccc226ec30751ba33de1649f",
            "history": "daf5e2eca168d254bc7c2289b363759430a2250ba52615e30efd56e999d07e50",
            "predict_matrix": "2ee9c257ab3d90cb646bced1172ecaa1fc33730ab99c9842fbef8ea37420b0d5",
            "header": "4e4def8bea932e42ef26299558ef47b19ec415a941af8b3c14a79895b3bf15f0",
        },
        "direct_only": {
            "parameters": "da965213c14bd666d010978a2439789d876db6caf991960ddb8632762ef14f51",
            "history": "6284f74105d338f055738fe7bbd488586a80568254d1434b27968dfeb1d8711f",
            "predict_matrix": "0a8dbdfa17fc6b92a3e4da0577fa929947661ceb92c01e3909dad5d3c0e163c8",
            "header": "8dc6277cafd6a04d5bb763b2cef08d3652671090890d9f3f126c3e081769cb69",
        },
        "two_model": {
            "parameters": "6a118690094df304a6ee922cd13ba8c3d10955770a00d0908e5e948b3ec1fce1",
            "history": "9810c60cc09cec25153e0615ca6c558e737180284aaf131eb41109341249dbcb",
            "predict_matrix": "ce74985ab05dae5025ed4bcc3af696a0929b77fa997bea0bad4b9a989dd9b577",
            "header": "78ee0181168553b5ae3f176de2ecd8212f5ac147287eb13bb6dfd60e9d03fc81",
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
