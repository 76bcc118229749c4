import math

import numpy as np
import pytest

from helpers import naive_matmul_bias
from uqcurate.errors import DimensionError, DomainError
from uqcurate.kernels import gaussian_logit_nll, softmax_xent
from uqcurate.nncore import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    DropoutLayer,
    LinearLayer,
    child_seed,
    make_rng,
    relu,
    softmax,
    softplus,
    spawn_seeds,
)


def linear(in_dim, out_dim, rng, params=None):
    """A layer with random weights and zero biases, on its own arrays, or on
    views of the flat vector ``params`` (w row-major, then b) and of a
    gradient vector like it, as a model places its layers."""
    if params is None:
        w = rng.uniform(-1.0, 1.0, (out_dim, in_dim))
        return LinearLayer(w, np.zeros(out_dim), np.zeros_like(w), np.zeros(out_dim))
    k, grads = out_dim * in_dim, np.zeros_like(params)
    layer = LinearLayer(params[:k].reshape(out_dim, in_dim), params[k:],
                        grads[:k].reshape(out_dim, in_dim), grads[k:])
    layer.w[...] = rng.uniform(-1.0, 1.0, (out_dim, in_dim))
    layer.b[...] = 0.0
    return layer


class TestLinearLayer:
    def test_identity_weights(self, rng):
        layer = linear(2, 2, rng)
        layer.w = np.eye(2)
        layer.b = np.zeros(2)
        out = layer.forward(np.array([[3.0, 4.0]]))
        np.testing.assert_array_equal(out, [[3.0, 4.0]])

    def test_scalar_affine(self, rng):
        layer = linear(1, 1, rng)
        layer.w = np.array([[2.0]])
        layer.b = np.array([1.0])
        assert layer.forward(np.array([[3.0]]))[0, 0] == 7.0

    def test_matches_triple_loop_oracle(self, rng):
        layer = linear(5, 3, rng)
        x = rng.standard_normal((4, 5))
        expected = naive_matmul_bias(x, layer.w, layer.b)
        np.testing.assert_allclose(layer.forward(x), expected, atol=1e-12, rtol=0)

    @pytest.mark.parametrize("bound", [False, True])
    def test_equals_matmul_plus_bias_bit_for_bit(self, rng, bound):
        # the bias is added in place on the product; the bytes stay those of
        # the plain expression, and the input is left as it was, whether the
        # layer owns its arrays or holds views of a flat vector
        layer = linear(64, 32, rng, np.empty(32 * 65) if bound else None)
        layer.b[:] = rng.standard_normal(32)
        x = rng.standard_normal((300, 64))
        x_before = x.copy()
        out = layer.forward(x)
        assert np.array_equal(out, x @ layer.w.T + layer.b)
        assert np.array_equal(x, x_before)

    def test_shape_mismatch_raises(self, rng):
        layer = linear(5, 3, rng)
        with pytest.raises(DimensionError):
            layer.forward(rng.standard_normal((4, 6)))

    def test_backward_without_input_grad_fills_the_same_gradients(self, rng):
        full, first = linear(6, 4, make_rng(1)), linear(6, 4, make_rng(1))
        x, dout = rng.standard_normal((9, 6)), rng.standard_normal((9, 4))
        dx = full.backward(dout, x)
        assert first.backward(dout, x, input_grad=False) is None
        assert np.array_equal(dx, dout @ full.w)
        assert np.array_equal(first.dw, full.dw) and np.array_equal(first.db, full.db)


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
        state = rng.bit_generator.state
        out, mask = layer.forward(x, rng)
        assert out is x and mask is None
        assert rng.bit_generator.state == state  # p = 0 draws nothing

    def test_eval_mode_is_identity(self, rng):
        # no rng, no mask
        layer = DropoutLayer(0.5)
        x = rng.standard_normal((3, 4))
        out, mask = layer.forward(x)
        assert out is x and mask is None

    def test_inverted_dropout_is_unbiased(self):
        # law of large numbers: mean of 1e5 unit activations stays near 1
        layer = DropoutLayer(0.1)
        x = np.ones((1, 100_000))
        out, _ = layer.forward(x, make_rng(7))
        assert 0.99 <= out.mean() <= 1.01

    def test_survivors_scaled(self, rng):
        layer = DropoutLayer(0.25)
        x = np.ones((1, 1000))
        out, _ = layer.forward(x, rng)
        kept = out[out > 0]
        np.testing.assert_allclose(kept, 1.0 / 0.75)

    def test_invalid_probability(self):
        with pytest.raises(DomainError):
            DropoutLayer(1.0)

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_mask_is_kept_draws_over_keep(self, p):
        # the mask multiplies by 1/keep; it must equal dividing by keep
        layer, keep = DropoutLayer(p), 1.0 - p
        x = np.ones((64, 300))
        out, mask = layer.forward(x, make_rng(5))
        u = make_rng(5).random(x.shape)
        assert mask.tobytes() == ((u < keep) / keep).tobytes()
        assert out.tobytes() == (x * mask).tobytes()


# the two training losses, from ``uqcurate.kernels``


class TestCrossEntropy:
    def test_perfect_prediction(self):
        loss, _, _ = softmax_xent(np.array([[40.0, 0.0]]), np.array([0]))
        assert loss <= 1e-11

    def test_uniform_prediction(self):
        loss, _, _ = softmax_xent(np.array([[0.3, 0.3]]), np.array([1]))
        assert loss == pytest.approx(math.log(2), rel=1e-12)

    def test_gradient_matches_finite_differences(self, rng):
        logits = rng.standard_normal((6, 2))
        labels = rng.integers(0, 2, 6)
        _, dlogits, _ = softmax_xent(logits, labels)
        h = 1e-5
        for i in range(6):
            for c in range(2):
                pert = logits.copy()
                pert[i, c] += h
                lp, _, _ = softmax_xent(pert, labels)
                pert[i, c] -= 2 * h
                lm, _, _ = softmax_xent(pert, labels)
                fd = (lp - lm) / (2 * h)
                rel = abs(fd - dlogits[i, c]) / max(abs(fd), abs(dlogits[i, c]), 1e-6)
                assert rel < 1e-4


class TestStochasticNll:
    def test_degenerate_sigma_equals_cross_entropy(self, rng):
        mu = np.abs(rng.standard_normal((5, 2)))
        sigma = np.full((5, 2), 1e-9)
        labels = rng.integers(0, 2, 5)
        loss, _, _ = gaussian_logit_nll(mu, sigma, labels)
        expected = softmax_xent(mu, labels)[0]
        assert loss == pytest.approx(expected, abs=1e-6)

    def test_symmetric_mu_gives_log2(self):
        mu = np.zeros((200, 2))
        sigma = np.full((200, 2), 0.7)
        labels = np.zeros(200, dtype=np.int64)
        loss, _, _ = gaussian_logit_nll(mu, sigma, labels)
        # equal means keep the two classes exchangeable; the nodes are
        # symmetric, so the rule keeps it too
        assert loss == pytest.approx(math.log(2), abs=1e-12)

    def test_gradients_match_finite_differences(self, rng):
        mu = np.abs(rng.standard_normal((4, 2)))
        sigma = rng.uniform(0.2, 1.5, (4, 2))
        labels = rng.integers(0, 2, 4)
        _, dmu, dsigma = gaussian_logit_nll(mu, sigma, labels)
        h = 1e-5
        for arr, grad in ((mu, dmu), (sigma, dsigma)):
            for i in range(4):
                for c in range(2):
                    orig = arr[i, c]
                    arr[i, c] = orig + h
                    lp, _, _ = gaussian_logit_nll(mu, sigma, labels)
                    arr[i, c] = orig - h
                    lm, _, _ = gaussian_logit_nll(mu, sigma, labels)
                    arr[i, c] = orig
                    fd = (lp - lm) / (2 * h)
                    rel = abs(fd - grad[i, c]) / max(abs(fd), abs(grad[i, c]), 1e-6)
                    assert rel < 1e-4

    def test_nonpositive_sigma_rejected(self, rng):
        mu = np.zeros((2, 2))
        sigma = np.array([[1.0, 0.0], [1.0, 1.0]])
        with pytest.raises(DomainError):
            gaussian_logit_nll(mu, sigma, np.zeros(2))


class TestAdam:
    def test_first_step_hand_evaluated(self):
        # t=1, grad=1: m_hat=1, v_hat=1, step = lr / sqrt(1 + eps)
        assert (ADAM_BETA1, ADAM_BETA2, ADAM_EPS) == (0.9, 0.999, 1e-8)
        param = np.zeros(1)
        opt = AdamState(lr=1e-3)
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


class TestSeeds:
    @pytest.mark.parametrize("seed", [0, 7, 12345, 2**63 - 1])
    def test_child_seed_equals_spawned_child(self, seed):
        # the spawn-then-slice derivation the studies' per-repetition seeds
        # were first defined by
        spawned = [int(c.generate_state(1, dtype=np.uint64)[0])
                   for c in np.random.SeedSequence(seed).spawn(60)]
        assert [child_seed(seed, i) for i in range(60)] == spawned
        assert spawn_seeds(seed, 60) == spawned
