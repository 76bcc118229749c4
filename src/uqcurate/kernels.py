"""The two training losses, fused forward and backward, and the dual head's
predictive distribution.

Matrix products stay on numpy/BLAS; the kernels here cover the elementwise
loss passes.  Each kernel checks its inputs (float64 contiguous arrays, one
label per row, matching shapes, sigma >= 0, and sigma > 0 for the loss,
which divides by it) and is what the models call.

Models have exactly two classes, so the Gaussian logits z ~ N(mu, sigma^2)
of the dual head enter only through the margin d = z1 - z0 ~ N(m, S^2), with
m = mu1 - mu0 and S^2 = sigma0^2 + sigma1^2.  Every expectation over the
logits is then a 1-D integral over d, which a ``GH_NODES``-point
Gauss-Hermite rule computes without random draws.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import DimensionError, DomainError

__all__ = [
    "GH_NODES",
    "backend",
    "softmax_xent",
    "gaussian_logit_nll",
    "gaussian_logit_probs",
]

LOG_FLOOR = 1e-12  # probabilities are clamped here before any log

# Gauss-Hermite nodes per margin integral.  Against adaptive quadrature,
# 48 nodes keep log p within 1e-6 for S <= 2 and p within 0.06 up to S = 50,
# below the 0.07 standard deviation of a 50-draw Monte Carlo estimate;
# CHANGES.md holds the error table by node count.
GH_NODES = 48


def backend() -> str:
    """Name of the kernel backend."""
    return "numpy"


def _check_labels(labels, n: int) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise DimensionError(f"expected {n} labels, got shape {labels.shape}")
    return labels.astype(np.int64)


def softmax_xent(logits, labels):
    """Fused softmax + cross-entropy over a batch.

    Returns ``(loss, dlogits, probs)`` where loss is the batch mean of
    -log p[label] (p clamped at LOG_FLOOR) and dlogits = (probs - onehot)/B.
    """
    logits = np.ascontiguousarray(logits, dtype=np.float64)
    labels = _check_labels(labels, logits.shape[0])
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    s = e.sum(axis=1, keepdims=True)
    probs = e / s
    n = logits.shape[0]
    rows = np.arange(n)
    py = probs[rows, labels]
    loss = -np.mean(np.log(np.maximum(py, LOG_FLOOR)))
    dlogits = probs.copy()
    dlogits[rows, labels] -= 1.0
    dlogits /= n
    return loss, dlogits, probs




@lru_cache(maxsize=1)
def _gauss_hermite() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes x and weights of E[f(X)] ~ sum_k w_k f(x_k) for X ~ N(0, 1):
    ``(x, w, log w)``, the weights normalized to sum to 1, read-only because
    every caller shares them.  Built on first use, so importing the package
    does not pay for it."""
    from numpy.polynomial.hermite import hermgauss

    t, w = hermgauss(GH_NODES)
    w = w / w.sum()
    table = (np.sqrt(2.0) * t, w, np.log(w))
    for a in table:
        a.flags.writeable = False
    return table


def _check_gaussian(mu, sigma):
    mu = np.ascontiguousarray(mu, dtype=np.float64)
    sigma = np.ascontiguousarray(sigma, dtype=np.float64)
    if mu.shape != sigma.shape:
        raise DimensionError(f"mu {mu.shape} and sigma {sigma.shape} differ")
    if mu.ndim != 2 or mu.shape[1] != 2:
        raise DimensionError(f"expected (batch, 2) logits, got {mu.shape}")
    return mu, sigma


def _margin_nodes(mu, sigma, x):
    """The margin d = m + S*x_k at every node x_k, (B, K), and S, (B, 1)."""
    scale = np.hypot(sigma[:, 0], sigma[:, 1])[:, None]
    return (mu[:, 1] - mu[:, 0])[:, None] + scale * x, scale


def gaussian_logit_nll(mu, sigma, labels):
    """Negative log likelihood of two-class Gaussian logits.

    For each instance the logits are z ~ N(mu, diag(sigma^2)); the loss is
    -log E[softmax(z)[label]] = -log E[sigmoid(s*d)] with label sign
    s = +-1 and margin d = z1 - z0, and the result is the batch mean.  The
    expectation is a Gauss-Hermite sum over the nodes d_k = m + S*x_k.
    Returns ``(loss, dmu, dsigma)``.

    Each node has log p_k = -logaddexp(0, -s*d_k) and its share
    r_k = w_k p_k / sum_j w_j p_j of the likelihood.  The gradient on the
    margin at node k is s*(p_k - 1)*r_k/B; dm sums it over k and dS weights
    it by x_k, and dsigma_c = dS * sigma_c / S.
    """
    mu, sigma = _check_gaussian(mu, sigma)
    if np.any(sigma <= 0.0):  # dsigma divides by S
        raise DomainError("sigma entries must be strictly positive")
    labels = _check_labels(labels, mu.shape[0])
    x, _, log_w = _gauss_hermite()
    n = mu.shape[0]
    sign = (2 * labels - 1).astype(np.float64)[:, None]
    margin, scale = _margin_nodes(mu, sigma, x)
    # log p_k = -logaddexp(0, t) with t = -s*d, spelled out as numpy's ufunc
    # does it, which runs several times faster than the ufunc itself
    t = -sign * margin
    logp = -(np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t))))
    a = logp + log_w
    amax = a.max(axis=1, keepdims=True)
    e = np.exp(a - amax)
    total = e.sum(axis=1, keepdims=True)
    loss = float(-np.mean(amax + np.log(total)))
    # expm1(log p_k) = p_k - 1 keeps its precision when p_k is near 1
    g = (sign / n) * (e / total) * np.expm1(logp)
    dm = g.sum(axis=1)
    dscale = g @ x
    dmu = np.stack((-dm, dm), axis=1)
    dsigma = sigma * (dscale / scale[:, 0])[:, None]
    return loss, dmu, dsigma


def gaussian_logit_probs(mu, sigma):
    """(B, 2) predictive distribution of two-class Gaussian logits:
    ``[E sigmoid(-d), E sigmoid(d)]`` for the margin d ~ N(m, S^2), by the
    same Gauss-Hermite rule as ``gaussian_logit_nll``.  Each class is summed
    on its own, so a probability near 0 keeps its relative precision.  sigma
    may be 0: every node then falls on m, which gives softmax(mu)."""
    mu, sigma = _check_gaussian(mu, sigma)
    if np.any(sigma < 0.0):
        raise DomainError("sigma entries must be >= 0")
    x, w, _ = _gauss_hermite()
    margin, _ = _margin_nodes(mu, sigma, x)
    e = np.exp(-np.abs(margin))
    near = 1.0 / (1.0 + e)   # sigmoid(|d|)
    far = e * near           # sigmoid(-|d|)
    pos = margin >= 0.0
    return np.stack((np.where(pos, far, near) @ w, np.where(pos, near, far) @ w), axis=1)
