"""Kernels must match hand math, the loop and Monte Carlo oracles, and
adaptive quadrature."""

import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (gaussian_logit_nll_loop, margin_probability_quad, sampled_gaussian_logit_nll,
                     softmax)
from uqcurate import kernels
from uqcurate.data import Dataset
from uqcurate.errors import DataFormatError, DimensionError, DomainError
from uqcurate.metrics import brier, classification_report
from uqcurate.models import SIGMA_FLOOR


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


def _softmax_xent_plain(logits, labels):
    """The general-class expressions of the two-class kernel: a row softmax,
    p[rows, labels], ``np.mean``, and a copy of probs with 1 subtracted at
    each label."""
    probs = softmax(logits)
    rows = np.arange(len(labels))
    loss = -np.mean(np.log(np.maximum(probs[rows, labels], kernels.LOG_FLOOR)))
    dlogits = probs.copy()
    dlogits[rows, labels] -= 1.0
    dlogits /= len(labels)
    return loss, dlogits, probs


@pytest.mark.parametrize("scale", [3.0, 1e3])
@pytest.mark.parametrize("n", [1, 37, 64, 200])
def test_softmax_xent_keeps_the_bits_of_the_plain_expressions(n, scale):
    rng = np.random.default_rng(n)
    logits = rng.standard_normal((n, 2)) * scale
    labels = rng.integers(0, 2, n)
    got = kernels.softmax_xent(logits, labels)
    want = _softmax_xent_plain(logits, labels)
    for a, b in zip(got, want):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


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


def _probs_reference(mu, sigma):
    """``gaussian_logit_probs`` as plain expressions, one fresh array each."""
    x, w, _ = kernels._gauss_hermite()
    margin = (mu[:, 1] - mu[:, 0])[:, None] + np.hypot(sigma[:, 0], sigma[:, 1])[:, None] * x
    e = np.exp(-np.abs(margin))
    near = 1.0 / (1.0 + e)
    far = e * near
    pos = margin >= 0.0
    return np.stack((np.where(pos, far, near) @ w, np.where(pos, near, far) @ w), axis=1)


# one block, and more than one: row_blocks' smallest split, a tail past the
# 64-row grid, and the benchmark's pool.  The one-pass oracle's gemv over
# 20 000 rows is split among BLAS threads; with 1, 2, 4 or 8 of them each
# share is a multiple of 4 rows, so it rounds as a single thread does.
BLOCK_SIZES = (500, kernels.ROW_BLOCK + 1, 2 * kernels.ROW_BLOCK + 65, 20_000)


@pytest.mark.parametrize("case, n", [
    pytest.param(case, n, id=case if n == 500 else f"{case}-{n}")
    for n in BLOCK_SIZES for case in ("random", "zero-sigma", "margins-40")
])
def test_probs_bit_identical_to_plain_expressions(case, n):
    rng = np.random.default_rng(17)
    mu = rng.standard_normal((n, 2)) * 4
    sigma = rng.uniform(0.0, 3.0, (n, 2))
    if case == "zero-sigma":
        sigma[:] = 0.0
    if case == "margins-40":
        mu[:, 1] = mu[:, 0] + rng.choice([-40.0, 40.0], n)
    mu_before, sigma_before = mu.copy(), sigma.copy()
    tables_before = [a.copy() for a in kernels._gauss_hermite()]
    assert np.array_equal(kernels.gaussian_logit_probs(mu, sigma), _probs_reference(mu, sigma))
    assert np.array_equal(mu, mu_before) and np.array_equal(sigma, sigma_before)
    assert all(np.array_equal(a, b) for a, b in zip(kernels._gauss_hermite(), tables_before))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(st.integers(0, 5 * kernels.ROW_BLOCK), st.integers(0, 10**6)))
def test_row_blocks_tile_the_rows(n):
    # consecutive slices from 0 to n: each row once, in order
    blocks = kernels.row_blocks(n)
    assert all(b.step is None for b in blocks)
    assert [b.start for b in blocks] == [0] + [b.stop for b in blocks[:-1]]
    assert blocks[-1].stop == n
    sizes = [b.stop - b.start for b in blocks]
    assert max(sizes) <= kernels.ROW_BLOCK
    assert all(size % 64 == 0 for size in sizes[:-1])
    if n <= kernels.ROW_BLOCK:
        assert blocks == [slice(0, n)]
    else:
        assert min(sizes) >= kernels.ROW_BLOCK // 2
        assert len(blocks) == -(-n // kernels.ROW_BLOCK)


def _nll_reference(mu, sigma, labels):
    """``gaussian_logit_nll`` as plain expressions, one fresh array each."""
    x, _, log_w = kernels._gauss_hermite()
    n = mu.shape[0]
    sign = (2 * labels - 1).astype(np.float64)[:, None]
    scale = np.hypot(sigma[:, 0], sigma[:, 1])[:, None]
    margin = scale * x
    margin += (mu[:, 1] - mu[:, 0])[:, None]
    t = -sign * margin
    logp = -(np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t))))
    a = logp + log_w
    amax = a.max(axis=1, keepdims=True)
    e = np.exp(a - amax)
    total = e.sum(axis=1, keepdims=True)
    loss = float(-np.mean(amax + np.log(total)))
    g = (sign / n) * (e / total) * np.expm1(logp)
    dm = g.sum(axis=1)
    dsigma = sigma * ((g @ x) / scale[:, 0])[:, None]
    return loss, np.stack((-dm, dm), axis=1), dsigma


@pytest.mark.parametrize("case", ["random", "margins-over-745", "sigma-near-floor", "one-row"])
def test_nll_bit_identical_to_plain_expressions(case):
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = 1 if case == "one-row" else int(rng.integers(2, 200))
        mu = rng.standard_normal((n, 2)) * 4
        sigma = rng.uniform(0.01, 3.0, (n, 2))
        if case == "margins-over-745":
            mu[:, 1] = mu[:, 0] + rng.choice([-1.0, 1.0], n) * rng.uniform(746.0, 2000.0, n)
        if case == "sigma-near-floor":
            sigma = SIGMA_FLOOR * rng.uniform(1.0, 2.0, (n, 2))
        labels = rng.integers(0, 2, n)
        before = [a.copy() for a in (mu, sigma, labels, *kernels._gauss_hermite())]
        loss, dmu, dsigma = kernels.gaussian_logit_nll(mu, sigma, labels)
        ref_loss, ref_dmu, ref_dsigma = _nll_reference(mu, sigma, labels)
        assert loss == ref_loss
        assert dmu.tobytes() == ref_dmu.tobytes() and dsigma.tobytes() == ref_dsigma.tobytes()
        after = (mu, sigma, labels, *kernels._gauss_hermite())
        assert all(np.array_equal(a, b) for a, b in zip(after, before))


def test_node_table_built_on_first_use():
    code = ("import uqcurate, uqcurate.cli; from uqcurate import kernels; "
            "assert kernels._gauss_hermite.cache_info().currsize == 0")
    subprocess.run([sys.executable, "-c", code], check=True)


_MU, _LABELS = np.ones((4, 2)), np.array([0, 1, 0, 1])


@pytest.mark.parametrize("kernel, args, error", [
    (kernels.softmax_xent, (_MU, _LABELS[:3]), DimensionError),
    (kernels.softmax_xent, (np.ones((4, 3)), _LABELS), DimensionError),
    (kernels.gaussian_logit_nll, (_MU, _MU[:3], _LABELS), DimensionError),
    (kernels.gaussian_logit_nll, (np.ones((4, 3)), np.ones((4, 3)), _LABELS), DimensionError),
    (kernels.gaussian_logit_nll, (_MU, _MU, _LABELS[:3]), DimensionError),
    (kernels.gaussian_logit_nll, (_MU, np.array([[1.0, 0.0]] * 4), _LABELS), DomainError),
    (kernels.gaussian_logit_nll, (_MU, -_MU, _LABELS), DomainError),
    (kernels.gaussian_logit_probs, (_MU, _MU[:3]), DimensionError),
    (kernels.gaussian_logit_probs, (np.ones((4, 3)), np.ones((4, 3))), DimensionError),
    (kernels.gaussian_logit_probs, (_MU, -_MU), DomainError),
], ids=["xent-labels", "xent-not-b2", "mu-sigma-differ", "mu-not-b2", "nll-labels", "sigma-zero",
        "sigma-negative", "probs-mu-sigma-differ", "probs-mu-not-b2", "probs-sigma-negative"])
def test_bad_inputs_rejected(kernel, args, error):
    with pytest.raises(error):
        kernel(*args)


_Z = np.zeros((2, 2))


@pytest.mark.parametrize("kernel, args", [
    (kernels.gaussian_logit_nll, (_Z, np.ones((2, 2)), [2, -1])),
    (kernels.softmax_xent, (_Z, [0.5, 1])),
    (kernels.softmax_xent, (_Z, [2, -1])),
    (kernels.softmax_xent, (_Z, np.array([1, 2], dtype=np.int32))),
    (kernels.gaussian_logit_nll, (_Z, np.ones((2, 2)), [np.nan, 1.0])),
], ids=["nll-int64", "xent-fraction", "xent-int64", "xent-int32", "nll-nan"])
def test_labels_outside_zero_one_rejected(kernel, args):
    # the sign 2y - 1 of a label 2 or -1 gave a finite loss, a label 0.5 was
    # truncated to 0, and softmax_xent indexed out of range
    with pytest.raises(DomainError, match="labels must be 0 or 1"):
        kernel(*args)


@pytest.mark.parametrize("labels", [
    [0, 1], [0.0, 1.0], [False, True], np.array([0, 1], dtype=np.uint8),
], ids=["int64", "float", "bool", "uint8"])
def test_zero_one_labels_of_any_dtype_accepted(labels):
    assert kernels.softmax_xent(_Z, labels)[0] == pytest.approx(math.log(2.0))
    assert kernels.gaussian_logit_nll(_Z, np.ones((2, 2)), labels)[0] == pytest.approx(
        math.log(2.0))


_LABEL_DTYPES = (np.bool_, np.int8, np.int32, np.int64, np.uint8, np.uint64, np.float32,
                 np.float64)
# labels of these dtypes are rejected whatever their values: a cast reads the
# text "1" or the complex 1+0j as a class
_NON_LABEL_DTYPES = (np.complex128, object, np.str_)
_LABEL_VALUES = (-1, 0, 1, 2, 0.5, math.nan)


def _stored_exactly(value, dtype) -> bool:
    """Whether an array of ``dtype`` holds ``value`` as it is, so that no
    cast turns a bad label into 0 or 1 before the kernel sees it."""
    kind = np.dtype(dtype).kind
    if kind in "fcOU":
        return True
    if value != value or value != int(value):  # nan or a fraction
        return False
    return value in (0, 1) if kind == "b" else not (kind == "u" and value < 0)


@st.composite
def _label_arrays(draw):
    dtype = draw(st.sampled_from(_LABEL_DTYPES + _NON_LABEL_DTYPES))
    values = [v for v in _LABEL_VALUES if _stored_exactly(v, dtype)]
    return np.array(draw(st.lists(st.sampled_from(values), min_size=1, max_size=6)), dtype=dtype)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_label_arrays())
def test_labels_of_any_dtype_are_checked_by_value(labels):
    # every caller of the one label rule: a label that is not 0 or 1, or a
    # dtype other than bool, int, uint or float, raises the caller's error;
    # any other label array gives the result of the same labels as int64
    n = labels.shape[0]
    rng = np.random.default_rng(n)
    mu, sigma = rng.standard_normal((n, 2)) * 3, rng.uniform(0.1, 2.0, (n, 2))
    probs = softmax(mu)
    callers = (
        (lambda y: kernels.softmax_xent(mu, y), DomainError),
        (lambda y: kernels.gaussian_logit_nll(mu, sigma, y), DomainError),
        (lambda y: Dataset(ids=[f"i{k}" for k in range(n)], X=mu, y=y).y, DataFormatError),
        # noise tags keep the labels' rule, and come back as bool
        (lambda y: Dataset(ids=[f"i{k}" for k in range(n)], X=mu, y=np.zeros(n, np.int64),
                           noise_tags=y).noise_tags, DataFormatError),
        (lambda y: brier(probs, y), DomainError),
        (lambda y: classification_report(probs, y), DomainError),
    )

    def bits(result):
        parts = result if isinstance(result, tuple) else (result,)
        return [np.asarray(a).tobytes() if isinstance(a, (float, np.ndarray)) else a
                for a in parts]

    bad = labels.dtype.kind not in "biuf" or not all(v in (0, 1) for v in labels.tolist())
    for call, error in callers:
        if bad:
            with pytest.raises(error, match="(labels|noise tags) must be 0 or 1"):
                call(labels)
        else:
            assert bits(call(labels)) == bits(call(labels.astype(np.int64)))
