"""Kernels must match hand math, the loop and Monte Carlo oracles, and
adaptive quadrature."""

import math
import subprocess
import sys

import numpy as np
import pytest

from helpers import gaussian_logit_nll_loop, margin_probability_quad, sampled_gaussian_logit_nll
from uqcurate import kernels
from uqcurate.errors import DimensionError, DomainError


def _random_case(seed, n=32, n_draws=12, n_classes=2):
    rng = np.random.default_rng(seed)
    return {
        "logits": rng.standard_normal((n, n_classes)) * 3,
        "mu": np.abs(rng.standard_normal((n, n_classes))),
        "sigma": rng.uniform(0.05, 2.0, (n, n_classes)),
        "eps": rng.standard_normal((n, n_draws, n_classes)),
        "labels": rng.integers(0, n_classes, n).astype(np.int64),
    }


def test_softmax_xent_matches_naive():
    case = _random_case(11)
    loss, dlogits, probs = kernels.softmax_xent(case["logits"], case["labels"])
    # naive per-row softmax and mean -log p[y]
    total = 0.0
    for i, row in enumerate(case["logits"]):
        e = np.exp(row - row.max())
        p = e / e.sum()
        np.testing.assert_allclose(probs[i], p, rtol=1e-12)
        total -= np.log(max(p[case["labels"][i]], 1e-12))
    assert loss == pytest.approx(total / len(case["logits"]), rel=1e-12)


def test_softmax_xent_gradient_is_probs_minus_onehot():
    case = _random_case(12)
    _, dlogits, probs = kernels.softmax_xent(case["logits"], case["labels"])
    n = case["logits"].shape[0]
    onehot = np.zeros_like(probs)
    onehot[np.arange(n), case["labels"]] = 1.0
    np.testing.assert_allclose(dlogits, (probs - onehot) / n, rtol=1e-12, atol=1e-16)


def test_backend_name_matches_flag():
    assert kernels.backend() == "numpy"


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("sigma_scale", [1e-6, 1.0, 25.0])
def test_gaussian_nll_matches_loop_oracle(seed, sigma_scale):
    # the Monte Carlo oracle the kernel is checked against below matches the
    # general-class loop form draw for draw
    case = _random_case(seed)
    args = (case["mu"], case["sigma"] * sigma_scale, case["eps"], case["labels"])
    for g, w in zip(sampled_gaussian_logit_nll(*args), gaussian_logit_nll_loop(*args)):
        np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-15)


def _quad_loss(mu, sigma, labels) -> float:
    """Batch-mean -log p_y with p_y from adaptive quadrature."""
    total = 0.0
    for (mu0, mu1), (s0, s1), y in zip(mu, sigma, labels):
        sign = 1.0 if y == 1 else -1.0
        total -= math.log(margin_probability_quad(sign * (mu1 - mu0), math.hypot(s0, s1)))
    return total / len(labels)


@pytest.mark.parametrize("label", [0, 1])
def test_gaussian_nll_single_instance(label):
    # loss against adaptive quadrature, gradients against central differences
    # of the quadrature loss
    rng = np.random.default_rng(40 + label)
    mu = np.abs(rng.standard_normal((1, 2)))
    sigma = rng.uniform(0.1, 1.0, (1, 2))
    labels = np.array([label])
    loss, dmu, dsigma = kernels.gaussian_logit_nll(mu, sigma, labels)
    assert loss == pytest.approx(_quad_loss(mu, sigma, labels), rel=1e-10)
    h = 1e-5
    for arr, grad in ((mu, dmu), (sigma, dsigma)):
        for c in range(2):
            orig = arr[0, c]
            arr[0, c] = orig + h
            lp = _quad_loss(mu, sigma, labels)
            arr[0, c] = orig - h
            lm = _quad_loss(mu, sigma, labels)
            arr[0, c] = orig
            assert grad[0, c] == pytest.approx((lp - lm) / (2 * h), rel=1e-6, abs=1e-9)


def test_gaussian_nll_large_margins():
    # |z1 - z0| > 40, both right and wrong for each label: finite, and equal
    # to adaptive quadrature
    mu = np.array([[0.0, 45.0], [45.0, 0.0], [0.0, 60.0], [70.0, 0.0]])
    sigma = np.full((4, 2), 1e-3)
    for labels in ([1, 0, 0, 1], [0, 1, 1, 0]):
        labels = np.array(labels)
        loss, dmu, dsigma = kernels.gaussian_logit_nll(mu, sigma, labels)
        assert np.isfinite([loss, *dmu.ravel(), *dsigma.ravel()]).all()
        assert loss == pytest.approx(_quad_loss(mu, sigma, labels), rel=1e-9)


def _ratio_se(a, p):
    """Delta-method standard error of mean(a)/mean(p) over the draw axis."""
    ratio = a.mean(axis=1) / p.mean(axis=1)
    return (a - ratio[:, None] * p).std(axis=1) / (math.sqrt(a.shape[1]) * p.mean(axis=1))


def test_gaussian_nll_matches_monte_carlo():
    # the sampled loss and gradients converge to the quadrature values: every
    # quantity lies within 5 standard errors at 2e5 draws
    rng = np.random.default_rng(3)
    n, n_draws = 4, 200_000
    mu = np.abs(rng.standard_normal((n, 2))) * 2
    sigma = rng.uniform(0.2, 2.0, (n, 2))
    labels = np.array([0, 1, 1, 0])
    eps = rng.standard_normal((n, n_draws, 2))
    got = kernels.gaussian_logit_nll(mu, sigma, labels)
    want = sampled_gaussian_logit_nll(mu, sigma, eps, labels)

    sign = (2 * labels - 1.0)[:, None]
    p = 1.0 / (1.0 + np.exp(-sign * ((mu[:, 1] - mu[:, 0])[:, None]
                                     + sigma[:, 1:2] * eps[:, :, 1]
                                     - sigma[:, 0:1] * eps[:, :, 0])))
    loss_se = math.sqrt(np.sum(p.var(axis=1) / (n_draws * p.mean(axis=1) ** 2))) / n
    assert abs(got[0] - want[0]) < 5 * loss_se
    # each gradient is (sign/B) * mean(p (p - 1) * factor) / mean(p)
    for grad_got, grad_want, c, factor in (
            (got[1], want[1], 1, 1.0), (got[2], want[2], 1, eps[:, :, 1]),
            (got[2], want[2], 0, -eps[:, :, 0])):
        bound = 5 * _ratio_se(p * (p - 1.0) * factor, p) / n + 1e-12
        assert np.all(np.abs(grad_got[:, c] - grad_want[:, c]) < bound)
    np.testing.assert_array_equal(got[1][:, 0], -got[1][:, 1])


# adaptive-quadrature check of the node count: log p within 1e-6 up to S = 2,
# p within 0.07 (a 50-draw estimate's standard deviation) up to S = 50
_MARGINS = np.linspace(-20.0, 20.0, 41)


@pytest.mark.parametrize("scale", [1e-6, 0.1, 1.0, 2.0, 5.0, 20.0, 50.0, 100.0])
def test_quadrature_matches_adaptive_quadrature(scale):
    mu = np.stack((np.zeros_like(_MARGINS), _MARGINS), axis=1)
    sigma = np.full(mu.shape, scale / math.sqrt(2.0))
    want = np.array([[margin_probability_quad(-m, scale), margin_probability_quad(m, scale)]
                     for m in _MARGINS])
    probs = kernels.gaussian_logit_probs(mu, sigma)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-14)
    if scale <= 2.0:
        np.testing.assert_allclose(np.log(probs), np.log(want), rtol=0, atol=1e-6)
        for label in (0, 1):
            labels = np.full(len(_MARGINS), label)
            loss = kernels.gaussian_logit_nll(mu, sigma, labels)[0]
            assert loss == pytest.approx(-np.mean(np.log(want[:, label])), abs=1e-6)
    bound = 0.07 if scale <= 50.0 else 0.075
    assert np.max(np.abs(probs - want)) < bound


@pytest.mark.parametrize("scale", [1e-12, 1.0, 68.0, 1e6, 1e200])
def test_extreme_margins_stay_finite(scale):
    # no overflow warning (an error under the test settings) and finite values
    mu = np.array([[0.0, 800.0], [800.0, 0.0], [0.0, 0.0], [-3.0, 700.0]])
    sigma = np.full((4, 2), scale)
    labels = np.array([0, 0, 1, 0])
    loss, dmu, dsigma = kernels.gaussian_logit_nll(mu, sigma, labels)
    probs = kernels.gaussian_logit_probs(mu, sigma)
    assert np.isfinite([loss, *dmu.ravel(), *dsigma.ravel(), *probs.ravel()]).all()
    assert np.all((probs >= 0.0) & (probs <= 1.0))


def test_probs_agree_with_nll():
    case = _random_case(5)
    mu, sigma, labels = case["mu"], case["sigma"] * 3.0, case["labels"]
    probs = kernels.gaussian_logit_probs(mu, sigma)
    loss = kernels.gaussian_logit_nll(mu, sigma, labels)[0]
    rows = np.arange(len(labels))
    assert loss == pytest.approx(-np.mean(np.log(probs[rows, labels])), rel=1e-12)
    # vanishing or zero noise leaves the softmax of the means
    e = np.exp(mu - mu.max(axis=1, keepdims=True))
    for scale in (1e-12, 0.0):
        sharp = kernels.gaussian_logit_probs(mu, np.full(mu.shape, scale))
        np.testing.assert_allclose(sharp, e / e.sum(axis=1, keepdims=True), rtol=1e-12)


def test_node_table_built_on_first_use():
    code = ("import uqcurate, uqcurate.cli; from uqcurate import kernels; "
            "assert kernels._gauss_hermite.cache_info().currsize == 0")
    subprocess.run([sys.executable, "-c", code], check=True)


_MU, _LABELS = np.ones((4, 2)), np.array([0, 1, 0, 1])


@pytest.mark.parametrize("kernel, args, error", [
    (kernels.softmax_xent, (_MU, _LABELS[:3]), DimensionError),
    (kernels.gaussian_logit_nll, (_MU, _MU[:3], _LABELS), DimensionError),
    (kernels.gaussian_logit_nll, (np.ones((4, 3)), np.ones((4, 3)), _LABELS), DimensionError),
    (kernels.gaussian_logit_nll, (_MU, _MU, _LABELS[:3]), DimensionError),
    (kernels.gaussian_logit_nll, (_MU, np.array([[1.0, 0.0]] * 4), _LABELS), DomainError),
    (kernels.gaussian_logit_nll, (_MU, -_MU, _LABELS), DomainError),
    (kernels.gaussian_logit_probs, (_MU, _MU[:3]), DimensionError),
    (kernels.gaussian_logit_probs, (np.ones((4, 3)), np.ones((4, 3))), DimensionError),
    (kernels.gaussian_logit_probs, (_MU, -_MU), DomainError),
], ids=["xent-labels", "mu-sigma-differ", "mu-not-b2", "nll-labels", "sigma-zero",
        "sigma-negative", "probs-mu-sigma-differ", "probs-mu-not-b2", "probs-sigma-negative"])
def test_bad_inputs_rejected(kernel, args, error):
    with pytest.raises(error):
        kernel(*args)
