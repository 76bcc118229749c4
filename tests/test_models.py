import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helpers import fit_oracle, train_oracle
from uqcurate.data import SplitSpec, split, undersample_balance
from uqcurate.errors import (ConfigError, DataFormatError, DivergenceError, DomainError,
                             ModelStateError)
from uqcurate import kernels
from uqcurate.kernels import ROW_BLOCK
from uqcurate.models import (
    HEADS,
    HETEROSCEDASTIC,
    SIGMA_FLOOR,
    UQ_METHODS,
    Ensemble,
    MlpModel,
    ModelConfig,
    fit_method,
    hetero_raw_outputs,
    load_checkpoint,
    method_report,
    predict_ensemble,
    predict_mc_dropout,
    predict_samples,
    predict_vanilla,
    save_checkpoint,
    train_ensemble,
    train_model,
)
from uqcurate.kernels import gaussian_logit_nll, softmax, softmax_xent
from uqcurate.metrics import classification_report
from uqcurate.nncore import make_rng, relu, sigmoid, softplus
from uqcurate.uq import hetero_decompose


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
    return [getattr(layer, name) for layer in model.hidden + model.heads
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

    @pytest.mark.parametrize("rate", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_learning_rate_rejected(self, rate):
        # accepted, such a rate fails only after an epoch, as a DivergenceError
        with pytest.raises(ConfigError, match="learning_rate"):
            ModelConfig(input_dim=2, learning_rate=rate)


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

    def test_fractional_labels_rejected(self, small_splits):
        # the labels were cast to int64 before any check, so 0.5 trained as 0
        balanced, val, _ = small_splits
        model = MlpModel(small_config(), seed=1)
        with pytest.raises(DomainError, match="labels must be 0 or 1"):
            train_model(model, balanced.X, balanced.y + 0.5, val.X, val.y)
        assert not model.trained

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
        # the best validation loss is the history's minimum, not a second
        # record of it, and the restored weights reproduce it
        model = fit_small("homo", splits=small_splits)
        balanced, val, _ = small_splits
        assert not hasattr(model, "best_val_loss")
        eval_now = model.evaluate_loss(val.X, val.y)
        assert eval_now == pytest.approx(min(r.val_loss for r in model.history), rel=1e-9)

    def test_divergence_leaves_the_model_untrained(self, small_splits, monkeypatch):
        # the history is set only when training returns, so a fit that
        # raises at epoch 2 leaves no record and a model that cannot predict
        balanced, val, _ = small_splits
        model = MlpModel(small_config("homo", max_epochs=10), seed=11)
        losses = iter([0.7, 0.6, math.nan])
        monkeypatch.setattr(model, "evaluate_loss", lambda X, y: next(losses))
        with pytest.raises(DivergenceError, match="epoch 2"):
            train_model(model, balanced.X, balanced.y, val.X, val.y)
        assert not model.trained and model.history == []
        with pytest.raises(ModelStateError):
            predict_samples(model, val.X)

    @pytest.mark.parametrize("head", HEADS)
    def test_overflowed_optimizer_state_raises(self, small_splits, head):
        # on features near 1e300 every loss stays finite, but grad * grad
        # overflows Adam's second moment, and a weight whose moment is
        # infinite never moves again; the fit raises no overflow warning on
        # its way there
        balanced, val, _ = small_splits
        model = MlpModel(small_config(head, max_epochs=3), seed=1)
        with pytest.raises(DivergenceError, match="optimizer state at epoch 0"):
            train_model(model, balanced.X * 1e300, balanced.y, val.X * 1e300, val.y)
        assert not model.trained

    def test_trained_cannot_be_assigned(self, small_splits):
        # it reads the history, the one record of a fit
        model = MlpModel(small_config(), seed=1)
        with pytest.raises(AttributeError):
            model.trained = True
        assert not model.trained
        fitted = fit_small("homo", splits=small_splits, max_epochs=2)
        assert fitted.trained and len(fitted.history) == 2

    def test_patience_stop_restores_the_best_epoch(self, small_splits):
        # the best epoch is not the last, so the restored weights must be a
        # snapshot taken at that epoch, and training stops exactly
        # ``patience`` epochs after it
        balanced, val, _ = small_splits
        model = MlpModel(small_config("homo", max_epochs=200, patience=3), seed=11)
        snapshots = []

        def evaluate_loss(X, y):  # runs once per epoch, after its last step
            snapshots.append(model.flat_params.copy())
            return MlpModel.evaluate_loss(model, X, y)

        model.evaluate_loss = evaluate_loss
        train_model(model, balanced.X, balanced.y, val.X, val.y)
        best = int(np.argmin([r.val_loss for r in model.history]))
        assert len(model.history) == len(snapshots) == best + 1 + 3 < 200
        np.testing.assert_array_equal(model.flat_params, snapshots[best])
        assert not np.array_equal(model.flat_params, snapshots[-1])

    def test_early_stopping_bounds_epochs(self, small_splits):
        model = fit_small("homo", splits=small_splits, max_epochs=200, patience=3)
        # stopped well before max_epochs on this noisy pool
        assert len(model.history) < 200
        best_epoch = int(np.argmin([r.val_loss for r in model.history]))
        assert len(model.history) - 1 - best_epoch >= 3


class TestTrainingOracle:
    """``train_model`` against ``helpers.train_oracle``, which is written from
    the documented protocol: the same history and the same restored
    parameters, bit for bit."""

    # the 168 balanced rows are three batches of 56, or two of 64 and a tail
    # of 40; each case asserts the stop it is meant to cover
    CASES = {
        "patience-stop": dict(max_epochs=200, patience=2, batch_size=56),
        "max-epochs-after-the-best": dict(max_epochs=13, patience=5, batch_size=56),
        "tail-batch": dict(max_epochs=4, patience=2, batch_size=64),
    }

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("head", HEADS)
    def test_matches_the_oracle(self, small_splits, head, case):
        balanced, val, _ = small_splits
        cfg = small_config(head, learning_rate=1e-2, **self.CASES[case])
        fit = lambda train: train(MlpModel(cfg, seed=11), balanced.X, balanced.y, val.X, val.y)
        model = fit(train_model)
        history, params = fit(train_oracle)
        assert [(r.epoch, r.train_loss, r.val_loss) for r in model.history] == history
        assert model.flat_params.tobytes() == params.tobytes()
        last = len(history) - 1
        best = int(np.argmin([val_loss for _, _, val_loss in history]))
        if case == "patience-stop":
            assert last == best + cfg.patience < cfg.max_epochs - 1
        elif case == "max-epochs-after-the-best":
            assert best < last == cfg.max_epochs - 1 < best + cfg.patience
        else:
            assert len(balanced.y) % cfg.batch_size > 0


def _full_backward_step(model, X, y, rng):
    """``MlpModel._train_batch`` with every layer's input gradient computed
    and the relu gate applied out of place; returns the loss and the
    gradient w.r.t. the input batch."""
    tape = []
    outs = model._forward(X, rng, tape)
    h = tape.pop()
    if model.config.head == "homo":
        loss, dlogits, _ = softmax_xent(outs[0], y)
        dh = model.heads[0].backward(dlogits, h)
    else:
        mu_pre, sigma_pre = outs
        loss, dmu, dsigma = gaussian_logit_nll(relu(mu_pre), softplus(sigma_pre) + SIGMA_FLOOR, y)
        dh = (model.heads[0].backward(dmu * (mu_pre > 0.0), h)
              + model.heads[1].backward(dsigma * sigmoid(sigma_pre), h))
    for lin, (x, z, mask) in zip(reversed(model.hidden), reversed(tape)):
        dh = lin.backward((dh if mask is None else dh * mask) * (z > 0.0), x)
    return float(loss), dh


class TestFitOracle:
    """``fit_method`` against ``helpers.fit_oracle``, which is written from
    its docstring: the same models, each with the same history and the same
    parameters, bit for bit."""

    @pytest.mark.parametrize("method", UQ_METHODS)
    @pytest.mark.parametrize("head", HEADS)
    def test_matches_the_oracle(self, small_pool, head, method):
        train, val, _ = split(small_pool, SplitSpec(seed=3))
        cfg = small_config(head, max_epochs=4, learning_rate=1e-2)
        fitted = fit_method(method, cfg, 3, train, val, 5, 11)
        models = fitted.members if method == "ensemble" else [fitted]
        expected = fit_oracle(method, cfg, 3, train, val, 5, 11)
        assert len(models) == len(expected)
        for model, (history, params) in zip(models, expected):
            assert [(r.epoch, r.train_loss, r.val_loss) for r in model.history] == history
            assert model.flat_params.tobytes() == params.tobytes()


class TestFitMethod:
    @pytest.mark.parametrize("method", ["vanilla", "ensemble"])
    def test_balances_with_the_balance_seed_then_fits(self, small_pool, method):
        train, val, _ = split(small_pool, SplitSpec(seed=3))
        cfg = small_config("homo", max_epochs=3)
        fitted = fit_method(method, cfg, 2, train, val, 5, 11)
        balanced = undersample_balance(train, make_rng(5))
        X, y = balanced.X, balanced.y
        if method == "ensemble":
            ref = [m.flat_params for m in train_ensemble(cfg, 2, X, y, val.X, val.y, 11).members]
            got = [m.flat_params for m in fitted.members]
        else:
            ref = [train_model(MlpModel(cfg, seed=11), X, y, val.X, val.y).flat_params]
            got = [fitted.flat_params]
        assert len(got) == len(ref)
        for a, b in zip(got, ref):
            np.testing.assert_array_equal(a, b)

    def test_unknown_method_rejected(self, small_pool):
        train, val, _ = split(small_pool, SplitSpec(seed=3))
        with pytest.raises(ConfigError):
            fit_method("bagging", small_config(), 2, train, val, 5, 11)

    @pytest.mark.parametrize("method, passes", [("vanilla", None), ("mc-dropout", 4)])
    def test_method_report_scores_the_mean_predictive(self, small_splits, method, passes):
        model = fit_small("homo", splits=small_splits, max_epochs=3)
        test = small_splits[2]
        report = method_report(method, model, test, 4, seed=8)
        probs = predict_samples(model, test.X, passes, make_rng(8))[1].mean(axis=1)
        assert report == classification_report(probs, test.y)


class TestTrainBatch:
    @pytest.mark.parametrize("head", ["homo", "hetero"])
    @pytest.mark.parametrize("dropout", [0.0, 0.1])
    def test_gradients_equal_the_full_backward_bit_for_bit(self, small_splits, head, dropout):
        # the step skips the first layer's input gradient and gates the relu
        # in place; every gradient, the first layer's dw and db included,
        # keeps the bytes of the full backward
        balanced, _, _ = small_splits
        X, y = balanced.X[:37], balanced.y[:37]
        step, full = (MlpModel(small_config(head, dropout=dropout), seed=4) for _ in range(2))
        loss = step._train_batch(X, y, make_rng(9))
        ref_loss, dx = _full_backward_step(full, X, y, make_rng(9))
        assert loss == ref_loss and dx.shape == X.shape
        assert step.flat_grads.tobytes() == full.flat_grads.tobytes()
        first = step.hidden[0]
        assert first.dw.tobytes() == full.hidden[0].dw.tobytes()
        assert first.db.tobytes() == full.hidden[0].db.tobytes()

    def test_tape_masks_are_the_layer_by_layer_draws(self, small_splits):
        # the pass draws every layer's mask at once; on a batch shorter than
        # batch_size they are still the per-layer draws, in layer order
        balanced, _, _ = small_splits
        X = balanced.X[:37]
        model = MlpModel(small_config(hidden_layers=3, dropout=0.3), seed=4)
        tape = []
        model._forward(X, make_rng(9), tape)
        draws, keep = make_rng(9), 1.0 - model.config.dropout
        masks = [mask for _, _, mask in tape[:-1]]
        assert len(masks) == 3
        for mask in masks:
            u = draws.random((37, model.config.hidden_width))
            assert mask.tobytes() == ((u < keep) * (1.0 / keep)).tobytes()


class TestPrediction:
    def test_untrained_model_rejected(self, small_splits):
        model = MlpModel(small_config(), seed=0)
        with pytest.raises(ModelStateError):
            predict_vanilla(model, small_splits[0].X)

    def test_zeroed_head_gives_uniform(self, small_splits):
        model = fit_small("homo", splits=small_splits)
        model.heads[0].w[...] = 0.0
        model.heads[0].b[...] = 0.0
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
        model.heads[1].w[...] = 0.0
        model.heads[1].b[...] = -40.0  # softplus(-40) ~ 4e-18
        X = small_splits[2].X[:20]
        mu, _ = model.raw_outputs(X)
        probs = predict_vanilla(model, X)
        np.testing.assert_allclose(probs, softmax(mu), atol=1e-6)


    @pytest.mark.parametrize("head", ["homo", "hetero"])
    def test_eval_forward_matches_plain_expressions_and_keeps_input(self, small_splits, head):
        # the eval forward writes its bias and relu in place; its outputs
        # stay the bytes of the plain expressions, and prediction leaves the
        # caller's X and the weights as they were
        model = fit_small(head, splits=small_splits, max_epochs=3)
        X = small_splits[2].X
        X_before, params_before = X.copy(), model.flat_params.copy()
        h = X
        for lin in model.hidden:
            h = relu(h @ lin.w.T + lin.b)
        outs = [h @ layer.w.T + layer.b for layer in model.heads]
        if head == "homo":
            assert np.array_equal(model.raw_outputs(X), outs[0])
        else:
            mu, sigma = model.raw_outputs(X)
            assert np.array_equal(mu, relu(outs[0]))
            assert np.array_equal(sigma, softplus(outs[1]) + SIGMA_FLOOR)
        predict_samples(model, X, 2, make_rng(0))
        assert np.array_equal(X, X_before)
        assert np.array_equal(model.flat_params, params_before)


class TestMcDropout:
    def test_zero_dropout_passes_raise(self, small_splits, monkeypatch):
        # at p = 0 every dropout pass is the same eval-mode pass, so their
        # spread would be a vanilla model's; the error comes before any pass
        model = fit_small("hetero", splits=small_splits, dropout=0.0, max_epochs=2)
        X = small_splits[2].X[:5]
        assert predict_samples(model, X)[1].shape == (5, 1, 2)  # eval mode needs no dropout

        def no_pass(*args, **kwargs):
            raise AssertionError("forward pass ran")

        monkeypatch.setattr(model, "raw_outputs", no_pass)
        for call in (lambda: predict_samples(model, X, 4, make_rng(0)),
                     lambda: hetero_raw_outputs(model, X, 4, make_rng(0)),
                     lambda: predict_mc_dropout(model, X, 4, make_rng(0))):
            with pytest.raises(ConfigError, match="dropout > 0"):
                call()

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

    def test_dropout_passes_need_an_rng(self, small_splits, monkeypatch):
        # there is no default mask seed, and the error comes before any pass
        model = fit_small("hetero", splits=small_splits, max_epochs=2)
        X = small_splits[2].X[:5]

        def no_pass(*args, **kwargs):
            raise AssertionError("forward pass ran")

        monkeypatch.setattr(model, "raw_outputs", no_pass)
        for call in (lambda: predict_samples(model, X, 3),
                     lambda: hetero_raw_outputs(model, X, 3),
                     lambda: predict_mc_dropout(model, X)):
            with pytest.raises(ConfigError, match="rng"):
                call()


class TestEnsemble:
    def test_single_member_matches_vanilla(self, small_splits):
        balanced, val, test = small_splits
        ens = train_ensemble(small_config("homo", max_epochs=10), 1,
                             balanced.X, balanced.y, val.X, val.y, seed=5)
        np.testing.assert_array_equal(
            predict_ensemble(ens, test.X)[:, 0, :],
            predict_vanilla(ens.members[0], test.X),
        )
        # dual head: the members' eval-mode passes draw nothing, so the
        # samples are the same with and without an rng
        ens = train_ensemble(small_config("hetero", max_epochs=5), 3,
                             balanced.X, balanced.y, val.X, val.y, seed=5)
        shared = make_rng(11)
        expected = np.stack([predict_vanilla(m, test.X, rng=shared) for m in ens.members],
                            axis=1)
        np.testing.assert_array_equal(predict_ensemble(ens, test.X, rng=make_rng(11)),
                                      expected)
        (mu, sigma), probs = predict_samples(ens, test.X)
        (mu_r, sigma_r), probs_r = predict_samples(ens, test.X, rng=make_rng(11))
        for a, b in ((mu, mu_r), (sigma, sigma_r), (probs, probs_r)):
            np.testing.assert_array_equal(a, b)

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

    def test_configs_compared_by_value(self):
        # two config objects with equal fields are one config
        ens = Ensemble(members=[MlpModel(small_config(dropout=0.5), seed=0),
                                MlpModel(small_config(dropout=0.5), seed=1)])
        assert len(ens) == 2


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


class TestRowBlocks:
    """An eval-mode pass over more than ``ROW_BLOCK`` rows runs in row
    blocks; its results equal one block over every row bit for bit."""

    @pytest.fixture(scope="class")
    def ensembles(self, small_splits):
        # the profiles' 64-unit hidden layers, whose products the blocks split
        balanced, val, _ = small_splits
        return {head: train_ensemble(small_config(head, hidden_layers=3, hidden_width=64,
                                                  max_epochs=3),
                                     2, balanced.X, balanced.y, val.X, val.y, seed=2)
                for head in HEADS}

    @staticmethod
    def _predictions(ens, X):
        """Every array the eval-mode prediction paths return for ``X``."""
        arrays = []
        for fitted in (ens, ens.members[0]):
            raw, probs = predict_samples(fitted, X)
            arrays += [*(raw if isinstance(raw, tuple) else (raw,)), probs]
        if ens.config.head == HETEROSCEDASTIC:
            mu, sigma = hetero_raw_outputs(ens, X)
            dec = hetero_decompose(mu, sigma)
            arrays += [mu, sigma, dec.entropy_aleatoric, dec.entropy_epistemic]
        return arrays

    @pytest.mark.parametrize("n", [ROW_BLOCK + 1, 2 * ROW_BLOCK + 65, 20_000])
    @pytest.mark.parametrize("head", HEADS)
    def test_blocks_equal_one_pass(self, ensembles, head, n, monkeypatch):
        # with 1, 2, 4 or 8 BLAS threads, the one pass's gemv over 20 000
        # rows splits them into multiples of 4, which round as one thread does
        X = make_rng(n).standard_normal((n, 10)) * 3
        assert len(kernels.row_blocks(n)) > 1
        blocked = self._predictions(ensembles[head], X)
        monkeypatch.setattr(kernels, "ROW_BLOCK", n)
        assert kernels.row_blocks(n) == [slice(0, n)]
        one_pass = self._predictions(ensembles[head], X)
        assert len(blocked) == len(one_pass)
        for a, b in zip(blocked, one_pass):
            assert np.array_equal(a, b)

    def test_dropout_passes_draw_each_layer_mask_over_all_rows(self, ensembles):
        # blocks would draw the masks in another order, and so change every
        # mc-dropout result: a dropout pass stays one block
        model = ensembles[HETEROSCEDASTIC].members[0]
        n = ROW_BLOCK + 1
        X = make_rng(3).standard_normal((n, 10))
        masks = make_rng(4)
        keep = 1.0 - model.config.dropout
        h = X
        for lin in model.hidden:
            h = relu(h @ lin.w.T + lin.b) * ((masks.random((n, lin.out_dim)) < keep) * (1.0 / keep))
        mu, _ = model.raw_outputs(X, make_rng(4))
        assert np.array_equal(mu, relu(h @ model.heads[0].w.T + model.heads[0].b))


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

    def test_each_member_is_one_parameter_vector(self, fitted, tmp_path):
        # m{t}_params is member t's flat_params: every layer's w row-major,
        # then its b, in layer order
        path = tmp_path / "a.npz"
        save_checkpoint(fitted["ensemble"], path)
        with np.load(path) as npz:
            assert sorted(npz.files) == ["format_version", "m0_params", "m1_params",
                                         "m2_params", "meta"]
            assert int(npz["format_version"]) == 5
            meta = json.loads(str(npz["meta"]))
            for t, member in enumerate(fitted["ensemble"].members):
                layers = np.concatenate([a.reshape(-1) for a in layer_arrays(member, "w", "b")])
                assert npz[f"m{t}_params"].tobytes() == layers.tobytes()
                assert sorted(meta["members"][t]) == ["config", "history", "seed"]

    def test_parameter_vector_offsets_by_hand(self):
        # input 3, two hidden layers of 4 and a dual head: every layer's w
        # row-major, then its b; the hidden layers, then mu, then sigma
        model = MlpModel(small_config("hetero", input_dim=3, hidden_width=4), seed=0)
        assert model.flat_params.size == model.flat_grads.size == 56
        model.flat_params[...] = np.arange(56.0)
        model.flat_grads[...] = -np.arange(56.0)
        offsets = ((0, 4, 3), (16, 4, 4), (36, 2, 4), (46, 2, 4))
        for layer, (start, out_dim, in_dim) in zip(model.hidden + model.heads, offsets,
                                                   strict=True):
            b_start = start + out_dim * in_dim
            w = np.arange(start, b_start, dtype=float).reshape(out_dim, in_dim)
            b = np.arange(b_start, b_start + out_dim, dtype=float)
            for got, want in ((layer.w, w), (layer.b, b), (layer.dw, -w), (layer.db, -b)):
                assert np.array_equal(got, want)

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
        self._rewrite(good, bad, m0_params=np.zeros((7, 7)))
        with pytest.raises(DataFormatError, match="m0_params"):
            load_checkpoint(bad)

    @pytest.mark.parametrize("make", [
        lambda w: np.full(w.shape, "x"),
        lambda w: w > 0.0,
        lambda w: np.ones(w.shape, dtype=np.int64),
        lambda w: w + 1j,  # loaded as is, the imaginary part would be dropped
        lambda w: np.full(w.shape, np.nan),
        lambda w: w.astype(object),  # np.load reads it only with pickle, which it refuses
    ], ids=["str", "bool", "int64", "complex", "nan", "object"])
    def test_weights_that_are_no_finite_real_floats_rejected(self, fitted, tmp_path, make):
        good, bad = tmp_path / "good.npz", tmp_path / "bad.npz"
        save_checkpoint(fitted["vanilla"], good)
        with np.load(good) as npz:
            value = make(npz["m0_params"])
        self._rewrite(good, bad, m0_params=value)
        with pytest.raises(DataFormatError, match="m0_params"):
            load_checkpoint(bad)

    def test_missing_array_rejected(self, fitted, tmp_path):
        good, bad = tmp_path / "good.npz", tmp_path / "bad.npz"
        save_checkpoint(fitted["ensemble"], good)
        with np.load(good) as npz:
            arrays = {key: npz[key] for key in npz.files if key != "m2_params"}
        np.savez(bad, **arrays)
        with pytest.raises(DataFormatError, match="m2_params"):
            load_checkpoint(bad)

    def test_format_1_file_rejected(self, fitted, tmp_path):
        # the format-1 single-model layout: unprefixed arrays, bare meta
        model = fitted["vanilla"]
        arrays = {f"layer{i}_{name}": getattr(layer, name)
                  for i, layer in enumerate(model.hidden + model.heads)
                  for name in ("w", "b")}
        path = tmp_path / "old.npz"
        np.savez(path, format_version=np.int64(1),
                 meta=json.dumps({"config": {}, "seed": model.seed}), **arrays)
        with pytest.raises(ConfigError, match="unsupported checkpoint version"):
            load_checkpoint(path)

    def test_format_4_file_rejected(self, fitted, tmp_path):
        # the format-4 layout: per-layer arrays, and members that stored
        # 'trained' and 'best_val_loss' beside their history
        model = fitted["vanilla"]
        arrays = {f"m0_layer{i}_{name}": getattr(layer, name)
                  for i, layer in enumerate(model.hidden + model.heads)
                  for name in ("w", "b")}
        member = {"config": dataclasses.asdict(model.config), "seed": model.seed,
                  "trained": True, "best_val_loss": 0.5,
                  "history": [[r.epoch, r.train_loss, r.val_loss] for r in model.history]}
        path = tmp_path / "old.npz"
        np.savez(path, format_version=np.int64(4),
                 meta=json.dumps({"ensemble": False, "members": [member]}), **arrays)
        with pytest.raises(ConfigError, match="unsupported checkpoint version"):
            load_checkpoint(path)

    @staticmethod
    def _drop(src, dst, key):
        with np.load(src) as npz:
            arrays = {k: npz[k] for k in npz.files if k != key}
        np.savez(dst, **arrays)

    @staticmethod
    def _one_npy_array(dst):
        with open(dst, "wb") as fh:
            np.save(fh, np.zeros(3))

    @pytest.mark.parametrize("make_bad", [
        lambda cls, good, bad: cls._drop(good, bad, "format_version"),
        lambda cls, good, bad: cls._drop(good, bad, "meta"),
        lambda cls, good, bad: cls._rewrite(good, bad, meta="{not json"),
        lambda cls, good, bad: bad.write_text("id,f0,label\na,1.0,0\n", encoding="utf-8"),
        lambda cls, good, bad: cls._rewrite(good, bad, format_version="four"),
        lambda cls, good, bad: bad.write_bytes(b""),
        lambda cls, good, bad: bad.write_bytes(good.read_bytes()[:100]),
        lambda cls, good, bad: cls._one_npy_array(bad),
    ], ids=["no-format-version", "no-meta", "meta-not-json", "text-file",
            "format-version-not-int", "empty-file", "truncated-zip", "one-npy-array"])
    def test_file_that_is_no_checkpoint_rejected(self, fitted, tmp_path, make_bad):
        good, bad = tmp_path / "good.npz", tmp_path / "bad.npz"
        save_checkpoint(fitted["vanilla"], good)
        make_bad(type(self), good, bad)
        with pytest.raises(DataFormatError, match=re.escape(str(bad))):
            load_checkpoint(bad)

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

    @pytest.mark.parametrize("rate", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_learning_rate_in_meta_rejected(self, fitted, tmp_path, rate):
        # json reads NaN and Infinity, so the config check must turn them away
        good, bad = tmp_path / "good.npz", tmp_path / "bad.npz"
        save_checkpoint(fitted["vanilla"], good)
        with np.load(good) as npz:
            meta = json.loads(str(npz["meta"]))
        meta["members"][0]["config"]["learning_rate"] = rate
        self._rewrite(good, bad, meta=json.dumps(meta))
        with pytest.raises(DataFormatError, match="learning_rate"):
            load_checkpoint(bad)

    @pytest.mark.parametrize("key, value", [
        ("hidden_width", 2**40), ("hidden_layers", 10**12), ("input_dim", 10**400),
    ], ids=["hidden-width", "hidden-layers", "input-dim-past-float-range"])
    def test_config_that_sizes_another_vector_rejected_before_the_build(
            self, fitted, tmp_path, key, value):
        # the array is checked against the config's vector length first, so a
        # config of a huge model allocates nothing
        good, bad = tmp_path / "good.npz", tmp_path / "bad.npz"
        save_checkpoint(fitted["vanilla"], good)
        with np.load(good) as npz:
            meta = json.loads(str(npz["meta"]))
        meta["members"][0]["config"][key] = value
        self._rewrite(good, bad, meta=json.dumps(meta))
        with pytest.raises(DataFormatError, match="m0_params"):
            load_checkpoint(bad)

    @pytest.mark.parametrize("edit, key", [
        (lambda member: member["config"].update(bogus=1), "bogus"),
        (lambda member: member.pop("config"), "config"),
        (lambda member: member.pop("seed"), "seed"),
        (lambda member: member.update(seed="abc"), "seed"),
        (lambda member: member.update(history=[[1, 2]]), "history"),
        (lambda member: member["history"][0].__setitem__(2, math.nan), "history"),
        (lambda member: member["history"][-1].__setitem__(1, math.inf), "history"),
        (lambda member: member["config"].update(input_dim=3.0), "input_dim"),
        (lambda member: member["config"].update(hidden_width=4.0), "hidden_width"),
        (lambda member: member["config"].update(head=1), "head"),
        (lambda member: member["config"].update(batch_size=2.5), "batch_size"),
    ], ids=["unknown-config-key", "no-config", "no-seed", "seed-not-int",
            "history-row-too-short", "history-nan-val-loss", "history-inf-train-loss",
            "input-dim-float", "hidden-width-float", "head-not-str", "batch-size-float"])
    def test_bad_member_meta_rejected(self, fitted, tmp_path, edit, key):
        good, bad = tmp_path / "good.npz", tmp_path / "bad.npz"
        save_checkpoint(fitted["ensemble"], good)
        with np.load(good) as npz:
            meta = json.loads(str(npz["meta"]))
        edit(meta["members"][1])
        self._rewrite(good, bad, meta=json.dumps(meta))
        with pytest.raises(DataFormatError, match=f"'{key}'"):
            load_checkpoint(bad)


# ---------------------------------------------------------------------------
# the checkpoint error contract, over generated member metas and arrays
# ---------------------------------------------------------------------------

# every kind of JSON value, nested a little, and as often one of the values
# a loader is most likely to mishandle: ints of sizes no model could have or
# past the float range, and floats that are not finite
_JSON_VALUES = st.one_of(
    st.sampled_from([None, True, -1, 0, 2**40, 10**400, math.nan, -math.inf, "x", [], {}]),
    st.recursive(
        st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4)),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4),
                                                                     inner, max_size=3),
        max_leaves=6))
_MEMBER_KEYS = ("config", "seed", "history")
_CONFIG_KEYS = tuple(f.name for f in dataclasses.fields(ModelConfig))
_ARRAY_DTYPES = (np.bool_, np.int8, np.int64, np.uint8, np.float16, np.float32, np.float64,
                 np.complex128, np.dtype("U3"), np.dtype("S3"))
# what a drawn edit rewrites: the member's params array, one of its meta keys
# (dropped, or set), an unknown meta key, or one config field
_TARGETS = ("array", "drop", "unknown-key", *_MEMBER_KEYS, *(f"config.{k}" for k in _CONFIG_KEYS))


def _draw_edit(data, target: str, meta: dict, arrays: dict, n_params: int) -> None:
    """Rewrite member t's meta (in place) or ``m{t}_params`` (in ``arrays``)."""
    t = data.draw(st.integers(0, len(meta["members"]) - 1))
    member = meta["members"][t]
    if target == "array":
        shape = data.draw(st.one_of(
            st.just((n_params,)), hnp.array_shapes(min_dims=0, max_dims=3, max_side=n_params + 1)))
        arrays[f"m{t}_params"] = data.draw(hnp.arrays(st.sampled_from(_ARRAY_DTYPES), shape))
    elif target == "drop":
        member.pop(data.draw(st.sampled_from(_MEMBER_KEYS)))
    elif target == "unknown-key":
        member[data.draw(st.text(min_size=1, max_size=6).filter(
            lambda k: k not in _MEMBER_KEYS))] = data.draw(_JSON_VALUES)
    elif target.startswith("config."):
        member["config"][target[len("config."):]] = data.draw(_JSON_VALUES)
    else:
        member[target] = data.draw(_JSON_VALUES)


class TestCheckpointProperty:
    """A rewritten member meta or array either loads or raises one of the two
    documented errors; nothing else escapes ``load_checkpoint``."""

    @pytest.fixture(scope="class")
    def good(self, small_splits, tmp_path_factory):
        balanced, val, _ = small_splits
        cfg = small_config("hetero", input_dim=10, hidden_layers=1, hidden_width=4, max_epochs=2)
        ensemble = train_ensemble(cfg, 2, balanced.X, balanced.y, val.X, val.y, 3)
        path = tmp_path_factory.mktemp("ckpt") / "good.npz"
        save_checkpoint(ensemble, path)
        with np.load(path) as npz:
            arrays = {key: npz[key] for key in npz.files}
        return path.parent, arrays, ensemble.members[0].flat_params.size

    @pytest.mark.parametrize("target", _TARGETS)
    def test_load_returns_or_raises_a_documented_error(self, good, target):
        workdir, arrays, n_params = good

        @given(st.data())
        @settings(max_examples=40, deadline=None, derandomize=True)
        def check(data):
            meta, changed = json.loads(str(arrays["meta"])), dict(arrays)
            _draw_edit(data, target, meta, changed, n_params)
            path = workdir / "edited.npz"
            np.savez(path, **dict(changed, meta=json.dumps(meta)))
            try:
                loaded = load_checkpoint(path)
            except (DataFormatError, ConfigError):
                return
            for model in loaded.members:
                assert model.trained == bool(model.history)
                if not model.history:
                    with pytest.raises(ModelStateError):
                        predict_samples(model, np.zeros((1, model.config.input_dim)))

        check()
