import json

import numpy as np
import pytest

from uqcurate.data import SplitSpec, split, undersample_balance
from uqcurate.errors import ConfigError, DataFormatError, ModelStateError
from uqcurate.models import (
    Ensemble,
    MlpModel,
    ModelConfig,
    hetero_raw_outputs,
    load_checkpoint,
    predict_ensemble,
    predict_mc_dropout,
    predict_samples,
    predict_vanilla,
    save_checkpoint,
    train_ensemble,
    train_model,
)
from uqcurate.nncore import make_rng, softmax


def small_config(head="homo", **overrides):
    defaults = dict(
        input_dim=10, hidden_layers=2, hidden_width=16, head=head,
        max_epochs=40,
    )
    defaults.update(overrides)
    return ModelConfig(**defaults)


def fit_small(head="homo", seed=11, splits=None, **overrides):
    balanced, val, _ = splits
    cfg = small_config(head, **overrides)
    model = MlpModel(cfg, seed=seed)
    return train_model(model, balanced.X, balanced.y, val.X, val.y)


def layer_arrays(model, *names):
    """The named arrays (w, b, dw or db) of every layer, in layer order."""
    return [getattr(layer, name) for layer in model.hidden + model._head_layers()
            for name in names]


class TestConfig:
    def test_defaults_match_protocol(self):
        cfg = ModelConfig(input_dim=20)
        assert (cfg.hidden_layers, cfg.hidden_width, cfg.dropout) == (3, 300, 0.1)
        assert cfg.patience == 5

    def test_head_aliases(self):
        # one spelling per head, so a run has one spec digest
        assert ModelConfig(input_dim=2, head="hetero").head == "hetero"
        for head in ("bogus", "HETERO", "Homo"):
            with pytest.raises(ConfigError):
                ModelConfig(input_dim=2, head=head)

    def test_invalid_values(self):
        with pytest.raises(ConfigError):
            ModelConfig(input_dim=2, dropout=1.0)
        with pytest.raises(ConfigError):
            ModelConfig(input_dim=2, patience=0)


class TestTraining:
    def test_separable_blobs_reach_high_accuracy(self, separable_pool):
        train, val, test = split(separable_pool, SplitSpec(seed=3))
        balanced = undersample_balance(train, make_rng(5))
        model = MlpModel(small_config("homo", max_epochs=60), seed=11)
        train_model(model, balanced.X, balanced.y, val.X, val.y)
        probs = predict_vanilla(model, balanced.X)
        accuracy = np.mean((probs[:, 1] > probs[:, 0]).astype(int) == balanced.y)
        assert accuracy >= 0.99

    def test_empty_split_rejected(self, small_splits):
        balanced, val, _ = small_splits
        model = MlpModel(small_config(), seed=1)
        with pytest.raises(ConfigError):
            train_model(model, balanced.X[:0], balanced.y[:0], val.X, val.y)

    def test_runs_to_max_epochs_when_val_keeps_improving(self, separable_pool):
        # on cleanly separable data the validation loss improves every epoch,
        # so patience never triggers
        train, val, _ = split(separable_pool, SplitSpec(seed=3))
        balanced = undersample_balance(train, make_rng(5))
        model = MlpModel(small_config("homo", max_epochs=8, patience=5), seed=11)
        train_model(model, balanced.X, balanced.y, val.X, val.y)
        losses = [r.val_loss for r in model.history]
        assert losses == sorted(losses, reverse=True) and len(set(losses)) == len(losses)
        assert len(model.history) == 8

    def test_same_seed_twice_identical(self, small_splits):
        m1 = fit_small("hetero", splits=small_splits, max_epochs=12)
        m2 = fit_small("hetero", splits=small_splits, max_epochs=12)
        assert m1.history == m2.history
        for a, b in zip(layer_arrays(m1, "w", "b"), layer_arrays(m2, "w", "b")):
            np.testing.assert_array_equal(a, b)

    def test_checkpoint_has_minimal_val_loss(self, small_splits):
        model = fit_small("homo", splits=small_splits)
        balanced, val, _ = small_splits
        recorded = [r.val_loss for r in model.history]
        assert model.best_val_loss == min(recorded)
        # restored weights reproduce the recorded best loss
        eval_now = model.evaluate_loss(val.X, val.y)
        assert eval_now == pytest.approx(model.best_val_loss, rel=1e-9)

    def test_early_stopping_bounds_epochs(self, small_splits):
        model = fit_small("homo", splits=small_splits, max_epochs=200, patience=3)
        # stopped well before max_epochs on this noisy pool
        assert len(model.history) < 200
        best_epoch = int(np.argmin([r.val_loss for r in model.history]))
        assert len(model.history) - 1 - best_epoch >= 3


class TestPrediction:
    def test_untrained_model_rejected(self, small_splits):
        model = MlpModel(small_config(), seed=0)
        with pytest.raises(ModelStateError):
            predict_vanilla(model, small_splits[0].X)

    def test_zeroed_head_gives_uniform(self, small_splits):
        model = fit_small("homo", splits=small_splits)
        model.head.w[...] = 0.0
        model.head.b[...] = 0.0
        probs = predict_vanilla(model, small_splits[2].X)
        np.testing.assert_allclose(probs, 0.5, atol=1e-15)

    def test_outputs_are_distributions(self, small_splits):
        for head in ("homo", "hetero"):
            model = fit_small(head, splits=small_splits, max_epochs=10)
            probs = predict_vanilla(model, small_splits[2].X)
            assert np.all(probs >= 0)
            np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_degenerate_sigma_matches_softmax_mu(self, small_splits):
        model = fit_small("hetero", splits=small_splits, max_epochs=10)
        model.head_sigma.w[...] = 0.0
        model.head_sigma.b[...] = -40.0  # softplus(-40) ~ 4e-18
        X = small_splits[2].X[:20]
        mu, _ = model.raw_outputs(X)
        probs = predict_vanilla(model, X)
        np.testing.assert_allclose(probs, softmax(mu), atol=1e-6)


class TestMcDropout:
    def test_zero_dropout_warns_and_repeats(self, small_splits):
        model = fit_small("homo", splits=small_splits, dropout=0.0, max_epochs=10)
        with pytest.warns(UserWarning):
            samples = predict_mc_dropout(model, small_splits[2].X[:5], 4, make_rng(0))
        for t in range(1, samples.shape[1]):
            np.testing.assert_array_equal(samples[:, 0], samples[:, t])

    def test_samples_are_distributions(self, small_splits):
        model = fit_small("homo", splits=small_splits, max_epochs=10)
        samples = predict_mc_dropout(model, small_splits[2].X[:10], 30, make_rng(0))
        assert samples.shape == (10, 30, 2)
        np.testing.assert_allclose(samples.sum(axis=2), 1.0, atol=1e-9)

    def test_passes_disagree_with_active_dropout(self, small_splits):
        model = fit_small("homo", splits=small_splits, max_epochs=10)
        samples = predict_mc_dropout(model, small_splits[2].X[:10], 30, make_rng(0))
        assert samples[:, :, 1].var(axis=1).max() > 0

    def test_zero_passes_rejected(self, small_splits):
        model = fit_small("homo", splits=small_splits, max_epochs=5)
        with pytest.raises(ConfigError):
            predict_mc_dropout(model, small_splits[2].X, 0, make_rng(0))

    def test_deterministic_given_seed(self, small_splits):
        model = fit_small("homo", splits=small_splits, max_epochs=5)
        s1 = predict_mc_dropout(model, small_splits[2].X[:5], 7, make_rng(3))
        s2 = predict_mc_dropout(model, small_splits[2].X[:5], 7, make_rng(3))
        np.testing.assert_array_equal(s1, s2)


class TestEnsemble:
    def test_single_member_matches_vanilla(self, small_splits):
        balanced, val, test = small_splits
        ens = train_ensemble(small_config("homo", max_epochs=10), 1,
                             balanced.X, balanced.y, val.X, val.y, seed=5)
        np.testing.assert_array_equal(
            predict_ensemble(ens, test.X)[:, 0, :],
            predict_vanilla(ens.members[0], test.X),
        )
        # dual head: the members' logit noise comes from one shared stream,
        # drawn in member order
        ens = train_ensemble(small_config("hetero", max_epochs=5), 3,
                             balanced.X, balanced.y, val.X, val.y, seed=5)
        shared = make_rng(11)
        expected = np.stack([predict_vanilla(m, test.X, rng=shared) for m in ens.members],
                            axis=1)
        np.testing.assert_array_equal(predict_ensemble(ens, test.X, rng=make_rng(11)),
                                      expected)

    def test_identical_seeds_give_identical_samples(self, small_splits):
        balanced, val, test = small_splits
        ens = Ensemble([train_model(MlpModel(small_config("homo", max_epochs=10), seed=9),
                                    balanced.X, balanced.y, val.X, val.y)
                        for _ in range(3)])
        samples = predict_ensemble(ens, test.X)
        np.testing.assert_array_equal(samples[:, 0], samples[:, 1])
        np.testing.assert_array_equal(samples[:, 0], samples[:, 2])

    def test_different_seeds_disagree(self, small_splits):
        balanced, val, test = small_splits
        ens = train_ensemble(small_config("homo", max_epochs=10), 5,
                             balanced.X, balanced.y, val.X, val.y, seed=5)
        samples = predict_ensemble(ens, test.X)
        disagreement = samples[:, :, 1].var(axis=1).mean()
        assert disagreement > 0

    def test_untrained_member_rejected(self, small_splits):
        with pytest.raises(ModelStateError):
            predict_ensemble(
                Ensemble(members=[MlpModel(small_config(), seed=0)]),
                small_splits[2].X,
            )

    def test_mixed_configs_rejected(self, small_splits):
        with pytest.raises(ConfigError):
            Ensemble(members=[
                MlpModel(small_config(), seed=0),
                MlpModel(small_config(hidden_width=8), seed=1),
            ])


class TestHeteroRawOutputs:
    def test_single_pass_matches_eval_forward(self, small_splits):
        model = fit_small("hetero", splits=small_splits, max_epochs=10)
        X = small_splits[2].X[:6]
        mu, sigma = hetero_raw_outputs(model, X, n_passes=None)
        mu_direct, sigma_direct = model.raw_outputs(X)
        np.testing.assert_array_equal(mu[:, 0], mu_direct)
        np.testing.assert_array_equal(sigma[:, 0], sigma_direct)

    def test_one_pass_is_one_dropout_pass_as_in_predict_samples(self, small_splits):
        # n_passes means the same in both functions: 1 is one stochastic pass
        model = fit_small("hetero", splits=small_splits, max_epochs=5, dropout=0.1)
        X = small_splits[2].X[:20]
        mu, sigma = hetero_raw_outputs(model, X, 1, make_rng(8))
        (mu_s, sigma_s), _ = predict_samples(model, X, 1, make_rng(8))
        np.testing.assert_array_equal(mu, mu_s)
        np.testing.assert_array_equal(sigma, sigma_s)
        assert not np.array_equal(mu[:, 0], model.raw_outputs(X)[0])

    def test_sigma_positive(self, small_splits):
        model = fit_small("hetero", splits=small_splits, max_epochs=10)
        _, sigma = hetero_raw_outputs(model, small_splits[2].X, n_passes=5, rng=make_rng(0))
        assert np.all(sigma > 0)

    def test_identically_seeded_ensemble_zero_mu_variance(self, small_splits):
        balanced, val, test = small_splits
        ens = Ensemble([train_model(MlpModel(small_config("hetero", max_epochs=8), seed=4),
                                    balanced.X, balanced.y, val.X, val.y)
                        for _ in range(3)])
        mu, _ = hetero_raw_outputs(ens, test.X)
        np.testing.assert_array_equal(mu[:, 0], mu[:, 1])
        np.testing.assert_array_equal(mu[:, 0], mu[:, 2])
        assert float(mu.var(axis=1).max()) < 1e-30

    def test_single_head_model_rejected(self, small_splits):
        model = fit_small("homo", splits=small_splits, max_epochs=5)
        with pytest.raises(ConfigError):
            hetero_raw_outputs(model, small_splits[2].X)

    def test_ensemble_outputs_draw_nothing(self, small_splits):
        balanced, val, test = small_splits
        ens = train_ensemble(small_config("hetero", max_epochs=3), 2,
                             balanced.X, balanced.y, val.X, val.y, seed=1)
        r = make_rng(2)
        before = r.bit_generator.state
        hetero_raw_outputs(ens, test.X, rng=r)
        assert r.bit_generator.state == before

    def test_prediction_draws_only_dropout_masks(self, small_splits):
        # the dual head's distributions are integrated, not sampled: an
        # ensemble's prediction draws nothing, and mc-dropout draws exactly
        # the masks of hetero_raw_outputs
        balanced, val, test = small_splits
        X = test.X[:20]
        ens = train_ensemble(small_config("hetero", max_epochs=3), 2,
                             balanced.X, balanced.y, val.X, val.y, seed=1)
        r = make_rng(2)
        before = r.bit_generator.state
        _, probs = predict_samples(ens, X, rng=r)
        assert r.bit_generator.state == before and probs.shape == (20, 2, 2)

        model = fit_small("hetero", splits=small_splits, max_epochs=5)
        r_pred, r_raw = make_rng(6), make_rng(6)
        (mu, sigma), probs = predict_samples(model, X, 4, r_pred)
        mu_raw, sigma_raw = hetero_raw_outputs(model, X, n_passes=4, rng=r_raw)
        np.testing.assert_array_equal(mu, mu_raw)
        np.testing.assert_array_equal(sigma, sigma_raw)
        assert r_pred.bit_generator.state == r_raw.bit_generator.state
        assert probs.shape == (20, 4, 2)


def assert_same_weights(a, b):
    members_a = a.members if isinstance(a, Ensemble) else [a]
    members_b = b.members if isinstance(b, Ensemble) else [b]
    assert len(members_a) == len(members_b)
    for m1, m2 in zip(members_a, members_b):
        for x, y in zip(layer_arrays(m1, "w", "b"), layer_arrays(m2, "w", "b")):
            np.testing.assert_array_equal(x, y)
        assert m2.config == m1.config and m2.seed == m1.seed
        assert m2.history == m1.history and m2.trained


class TestSerialization:
    @pytest.fixture(scope="class")
    def fitted(self, small_splits):
        balanced, val, _ = small_splits
        return {
            "vanilla": fit_small("homo", splits=small_splits, max_epochs=6),
            "mc-dropout-hetero": fit_small("hetero", splits=small_splits, max_epochs=6,
                                           dropout=0.2),
            "ensemble": train_ensemble(small_config("homo", max_epochs=6), 3,
                                       balanced.X, balanced.y, val.X, val.y, seed=5),
        }

    @staticmethod
    def _assert_round_trip(fitted, tmp_path):
        path = tmp_path / "ckpt.npz"
        save_checkpoint(fitted, path)
        loaded = load_checkpoint(path)
        assert type(loaded) is type(fitted)
        assert_same_weights(fitted, loaded)

    def test_vanilla_round_trip_bit_exact(self, fitted, tmp_path):
        self._assert_round_trip(fitted["vanilla"], tmp_path)

    def test_model_round_trip_bit_exact(self, fitted, tmp_path):
        # a dual-head model with dropout, as mc-dropout predicts with
        self._assert_round_trip(fitted["mc-dropout-hetero"], tmp_path)

    def test_ensemble_round_trip_bit_exact(self, fitted, tmp_path):
        self._assert_round_trip(fitted["ensemble"], tmp_path)

    @pytest.mark.parametrize("name", ["mc-dropout-hetero", "ensemble"])
    def test_save_load_save_gives_the_same_arrays(self, fitted, name, tmp_path):
        first, second = tmp_path / "a.npz", tmp_path / "b.npz"
        save_checkpoint(fitted[name], first)
        save_checkpoint(load_checkpoint(first), second)
        with np.load(first) as a, np.load(second) as b:
            assert a.files == b.files
            for key in a.files:
                np.testing.assert_array_equal(a[key], b[key])

    def test_weights_and_gradients_share_one_buffer_each(self, fitted, tmp_path):
        model = fitted["mc-dropout-hetero"]
        for names, buffer in ((("w", "b"), model.flat_params),
                              (("dw", "db"), model.flat_grads)):
            arrays = layer_arrays(model, *names)
            assert sum(a.size for a in arrays) == buffer.size
            for a in arrays:
                assert a.base is buffer
        path = tmp_path / "a.npz"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        for a in layer_arrays(loaded, "w", "b"):
            assert a.base is loaded.flat_params

    @staticmethod
    def _rewrite(src, dst, **changes):
        with np.load(src) as npz:
            arrays = {key: npz[key] for key in npz.files}
        arrays.update(changes)
        np.savez(dst, **arrays)

    def test_wrong_array_shape_rejected(self, fitted, tmp_path):
        good, bad = tmp_path / "good.npz", tmp_path / "bad.npz"
        save_checkpoint(fitted["vanilla"], good)
        self._rewrite(good, bad, m0_layer0_w=np.zeros((7, 7)))
        with pytest.raises(DataFormatError, match="m0_layer0_w"):
            load_checkpoint(bad)

    def test_missing_array_rejected(self, fitted, tmp_path):
        good, bad = tmp_path / "good.npz", tmp_path / "bad.npz"
        save_checkpoint(fitted["ensemble"], good)
        with np.load(good) as npz:
            arrays = {key: npz[key] for key in npz.files if key != "m2_layer1_b"}
        np.savez(bad, **arrays)
        with pytest.raises(DataFormatError, match="m2_layer1_b"):
            load_checkpoint(bad)

    def test_format_1_file_rejected(self, fitted, tmp_path):
        # the format-1 single-model layout: unprefixed arrays, bare meta
        model = fitted["vanilla"]
        arrays = {f"layer{i}_{name}": getattr(layer, name)
                  for i, layer in enumerate(model.hidden + model._head_layers())
                  for name in ("w", "b")}
        path = tmp_path / "old.npz"
        np.savez(path, format_version=np.int64(1),
                 meta=json.dumps({"config": {}, "seed": model.seed}), **arrays)
        with pytest.raises(ConfigError, match="unsupported checkpoint version"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit", [
        lambda meta: meta.pop("members"),
        lambda meta: meta.pop("ensemble"),
        lambda meta: meta.update(members=[]),
        lambda meta: meta.update(ensemble="yes"),
        lambda meta: meta.update(members={}),
        lambda meta: meta.update(ensemble=False),  # three members, one model
    ], ids=["no-members", "no-ensemble", "empty-members", "ensemble-not-bool",
            "members-not-list", "single-with-three-members"])
    def test_bad_meta_rejected(self, fitted, tmp_path, edit):
        good, bad = tmp_path / "good.npz", tmp_path / "bad.npz"
        save_checkpoint(fitted["ensemble"], good)
        with np.load(good) as npz:
            meta = json.loads(str(npz["meta"]))
        edit(meta)
        self._rewrite(good, bad, meta=json.dumps(meta))
        with pytest.raises(DataFormatError):
            load_checkpoint(bad)

    @pytest.mark.parametrize("edit, key", [
        (lambda member: member["config"].update(bogus=1), "bogus"),
        (lambda member: member.pop("config"), "config"),
        (lambda member: member.pop("seed"), "seed"),
    ], ids=["unknown-config-key", "no-config", "no-seed"])
    def test_bad_member_meta_rejected(self, fitted, tmp_path, edit, key):
        good, bad = tmp_path / "good.npz", tmp_path / "bad.npz"
        save_checkpoint(fitted["ensemble"], good)
        with np.load(good) as npz:
            meta = json.loads(str(npz["meta"]))
        edit(meta["members"][1])
        self._rewrite(good, bad, meta=json.dumps(meta))
        with pytest.raises(DataFormatError, match=f"'{key}'"):
            load_checkpoint(bad)
