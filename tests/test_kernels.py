"""Kernels must match hand math and the general-class loop oracles."""

import numpy as np
import pytest

from helpers import gaussian_logit_nll_loop
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


def _assert_nll_matches_loop(mu, sigma, eps, labels):
    got = kernels.gaussian_logit_nll(mu, sigma, eps, labels)
    want = gaussian_logit_nll_loop(mu, sigma, eps, labels)
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("sigma_scale", [1e-6, 1.0, 25.0])
def test_gaussian_nll_matches_loop_oracle(seed, sigma_scale):
    case = _random_case(seed)
    _assert_nll_matches_loop(case["mu"], case["sigma"] * sigma_scale, case["eps"],
                             case["labels"])


@pytest.mark.parametrize("label", [0, 1])
def test_gaussian_nll_single_instance(label):
    rng = np.random.default_rng(40 + label)
    mu = np.abs(rng.standard_normal((1, 2)))
    sigma = rng.uniform(0.1, 1.0, (1, 2))
    _assert_nll_matches_loop(mu, sigma, rng.standard_normal((1, 9, 2)),
                             np.array([label]))


def test_gaussian_nll_large_margins():
    # |z1 - z0| > 40 on every draw, both right and wrong for each label
    rng = np.random.default_rng(7)
    mu = np.array([[0.0, 45.0], [45.0, 0.0], [0.0, 60.0], [70.0, 0.0]])
    sigma = np.full((4, 2), 1e-3)
    eps = rng.standard_normal((4, 20, 2))
    for labels in ([1, 0, 0, 1], [0, 1, 1, 0]):
        _assert_nll_matches_loop(mu, sigma, eps, np.array(labels))


_MU, _EPS, _LABELS = np.ones((4, 2)), np.zeros((4, 3, 2)), np.array([0, 1, 0, 1])


@pytest.mark.parametrize("kernel, args, error", [
    (kernels.softmax_xent, (_MU, _LABELS[:3]), DimensionError),
    (kernels.gaussian_logit_nll, (_MU, _MU[:3], _EPS, _LABELS), DimensionError),
    (kernels.gaussian_logit_nll,
     (np.ones((4, 3)), np.ones((4, 3)), np.zeros((4, 3, 3)), _LABELS), DimensionError),
    (kernels.gaussian_logit_nll, (_MU, _MU, _EPS[:3], _LABELS), DimensionError),
    (kernels.gaussian_logit_nll, (_MU, _MU, np.zeros((4, 3, 3)), _LABELS), DimensionError),
    (kernels.gaussian_logit_nll, (_MU, _MU, _EPS, _LABELS[:3]), DimensionError),
    (kernels.gaussian_logit_nll, (_MU, np.array([[1.0, 0.0]] * 4), _EPS, _LABELS),
     DomainError),
    (kernels.gaussian_logit_nll, (_MU, -_MU, _EPS, _LABELS), DomainError),
], ids=["xent-labels", "mu-sigma-differ", "mu-not-b2", "eps-batch", "eps-classes",
        "nll-labels", "sigma-zero", "sigma-negative"])
def test_bad_inputs_rejected(kernel, args, error):
    with pytest.raises(error):
        kernel(*args)
