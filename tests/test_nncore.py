import math

import numpy as np
import pytest

from helpers import naive_matmul_bias
from uqcurate.errors import DimensionError, DomainError, ModelStateError
from uqcurate.nncore import (
    AdamState,
    DropoutLayer,
    LinearLayer,
    cross_entropy,
    make_rng,
    relu,
    softmax,
    softmax_cross_entropy,
    softplus,
    stochastic_nll_from_draws,
)


class TestLinearLayer:
    def test_identity_weights(self, rng):
        layer = LinearLayer(2, 2, rng)
        layer.w = np.eye(2)
        layer.b = np.zeros(2)
        out = layer.forward(np.array([[3.0, 4.0]]))
        np.testing.assert_array_equal(out, [[3.0, 4.0]])

    def test_scalar_affine(self, rng):
        layer = LinearLayer(1, 1, rng)
        layer.w = np.array([[2.0]])
        layer.b = np.array([1.0])
        assert layer.forward(np.array([[3.0]]))[0, 0] == 7.0

    def test_matches_triple_loop_oracle(self, rng):
        layer = LinearLayer(5, 3, rng)
        x = rng.standard_normal((4, 5))
        expected = naive_matmul_bias(x, layer.w, layer.b)
        np.testing.assert_allclose(layer.forward(x), expected, atol=1e-12, rtol=0)

    def test_shape_mismatch_raises(self, rng):
        layer = LinearLayer(5, 3, rng)
        with pytest.raises(DimensionError):
            layer.forward(rng.standard_normal((4, 6)))

    def test_backward_without_cache_raises(self, rng):
        layer = LinearLayer(2, 2, rng)
        layer.forward(np.zeros((1, 2)), train=False)
        with pytest.raises(ModelStateError):
            layer.backward(np.zeros((1, 2)))


class TestActivations:
    def test_softmax_symmetry(self):
        np.testing.assert_allclose(softmax(np.array([0.0, 0.0])), [0.5, 0.5])

    def test_relu(self):
        np.testing.assert_array_equal(relu(np.array([-1.0, 2.0])), [0.0, 2.0])

    def test_softplus_at_zero(self):
        assert softplus(np.array(0.0)) == pytest.approx(math.log(2), abs=1e-12)

    def test_softplus_overflow_safe(self):
        assert softplus(np.array(800.0)) == pytest.approx(800.0)
        assert softplus(np.array(-800.0)) >= 0.0

    def test_softmax_rows_sum_to_one(self, rng):
        z = rng.standard_normal((50, 2)) * 100
        p = softmax(z)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12, rtol=0)
        assert np.all(p >= 0)

    def test_softmax_shift_invariance(self, rng):
        z = rng.standard_normal((10, 2))
        np.testing.assert_allclose(softmax(z), softmax(z + 123.456), atol=1e-12, rtol=0)


class TestDropout:
    def test_zero_probability_is_identity(self, rng):
        layer = DropoutLayer(0.0)
        x = rng.standard_normal((3, 4))
        assert layer.forward(x, train=True, rng=rng) is x

    def test_eval_mode_is_identity(self, rng):
        layer = DropoutLayer(0.5)
        x = rng.standard_normal((3, 4))
        assert layer.forward(x, train=False) is x

    def test_inverted_dropout_is_unbiased(self):
        # law of large numbers: mean of 1e5 unit activations stays near 1
        layer = DropoutLayer(0.1)
        x = np.ones((1, 100_000))
        out = layer.forward(x, train=True, rng=make_rng(7))
        assert 0.99 <= out.mean() <= 1.01

    def test_survivors_scaled(self, rng):
        layer = DropoutLayer(0.25)
        x = np.ones((1, 1000))
        out = layer.forward(x, train=True, rng=rng)
        kept = out[out > 0]
        np.testing.assert_allclose(kept, 1.0 / 0.75)

    def test_invalid_probability(self):
        with pytest.raises(DomainError):
            DropoutLayer(1.0)


class TestCrossEntropy:
    def test_perfect_prediction(self):
        loss = cross_entropy(np.array([[1.0, 0.0]]), np.array([0]))
        assert loss <= 1e-12 * 10

    def test_uniform_prediction(self):
        loss = cross_entropy(np.array([[0.5, 0.5]]), np.array([1]))
        assert loss == pytest.approx(math.log(2), rel=1e-12)

    def test_gradient_matches_finite_differences(self, rng):
        logits = rng.standard_normal((6, 2))
        labels = rng.integers(0, 2, 6)
        _, dlogits, _ = softmax_cross_entropy(logits, labels)
        h = 1e-5
        for i in range(6):
            for c in range(2):
                pert = logits.copy()
                pert[i, c] += h
                lp, _, _ = softmax_cross_entropy(pert, labels)
                pert[i, c] -= 2 * h
                lm, _, _ = softmax_cross_entropy(pert, labels)
                fd = (lp - lm) / (2 * h)
                rel = abs(fd - dlogits[i, c]) / max(abs(fd), abs(dlogits[i, c]), 1e-6)
                assert rel < 1e-4


class TestStochasticNll:
    def test_degenerate_sigma_equals_cross_entropy(self, rng):
        mu = np.abs(rng.standard_normal((5, 2)))
        sigma = np.full((5, 2), 1e-9)
        labels = rng.integers(0, 2, 5)
        eps = make_rng(3).standard_normal((5, 20, 2))
        loss, _, _ = stochastic_nll_from_draws(mu, sigma, labels, eps)
        expected = cross_entropy(softmax(mu), labels)
        assert loss == pytest.approx(expected, abs=1e-6)

    def test_symmetric_mu_gives_log2(self):
        mu = np.zeros((200, 2))
        sigma = np.full((200, 2), 0.7)
        labels = np.zeros(200, dtype=np.int64)
        eps = make_rng(5).standard_normal((200, 400, 2))
        loss, _, _ = stochastic_nll_from_draws(mu, sigma, labels, eps)
        # equal-coordinate noise keeps the two classes exchangeable on average
        assert loss == pytest.approx(math.log(2), abs=0.01)

    def test_gradients_match_finite_differences(self, rng):
        mu = np.abs(rng.standard_normal((4, 2)))
        sigma = rng.uniform(0.2, 1.5, (4, 2))
        labels = rng.integers(0, 2, 4)
        eps = rng.standard_normal((4, 9, 2))
        _, dmu, dsigma = stochastic_nll_from_draws(mu, sigma, labels, eps)
        h = 1e-5
        for arr, grad in ((mu, dmu), (sigma, dsigma)):
            for i in range(4):
                for c in range(2):
                    orig = arr[i, c]
                    arr[i, c] = orig + h
                    lp, _, _ = stochastic_nll_from_draws(mu, sigma, labels, eps)
                    arr[i, c] = orig - h
                    lm, _, _ = stochastic_nll_from_draws(mu, sigma, labels, eps)
                    arr[i, c] = orig
                    fd = (lp - lm) / (2 * h)
                    rel = abs(fd - grad[i, c]) / max(abs(fd), abs(grad[i, c]), 1e-6)
                    assert rel < 1e-4

    def test_nonpositive_sigma_rejected(self, rng):
        mu = np.zeros((2, 2))
        sigma = np.array([[1.0, 0.0], [1.0, 1.0]])
        with pytest.raises(DomainError):
            stochastic_nll_from_draws(mu, sigma, np.zeros(2), rng.standard_normal((2, 3, 2)))


class TestAdam:
    def test_first_step_hand_evaluated(self):
        # t=1, grad=1: m_hat=1, v_hat=1, step = lr / sqrt(1 + eps)
        param = np.zeros(1)
        opt = AdamState(lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8)
        opt.step(param, np.ones(1))
        assert param[0] == pytest.approx(-0.000999999995, abs=1e-15)

    def test_zero_gradient_keeps_parameters(self):
        param = np.full(4, 1.5)
        opt = AdamState()
        for _ in range(10):
            opt.step(param, np.zeros(4))
        np.testing.assert_array_equal(param, np.full(4, 1.5))

    def test_two_runs_are_bit_identical(self, rng):
        grads = [rng.standard_normal(8) for _ in range(5)]

        def run():
            p = np.linspace(-1, 1, 8)
            opt = AdamState()
            for g in grads:
                opt.step(p, g)
            return p

        np.testing.assert_array_equal(run(), run())

    def test_shape_mismatch(self):
        opt = AdamState()
        with pytest.raises(DimensionError):
            opt.step(np.zeros(3), np.zeros(4))

    def test_two_dimensional_vector_rejected(self):
        opt = AdamState()
        with pytest.raises(DimensionError):
            opt.step(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_state_bound_to_first_vector(self):
        opt = AdamState()
        opt.step(np.zeros(3), np.ones(3))
        with pytest.raises(DimensionError):
            opt.step(np.zeros(4), np.ones(4))
