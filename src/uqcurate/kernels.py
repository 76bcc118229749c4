"""The two training losses, fused forward and backward.

Matrix products stay on numpy/BLAS; the kernels here cover the elementwise
loss passes.  Each kernel checks its inputs (float64 contiguous arrays, one
label per row, matching shapes, sigma > 0) and is what the models call.
Models have exactly two classes, so the sampled Gaussian-logit NLL is
written in margin form on ``z1 - z0`` instead of a softmax over the class
axis.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, DomainError

__all__ = [
    "backend",
    "softmax_xent",
    "gaussian_logit_nll",
]

LOG_FLOOR = 1e-12  # probabilities are clamped here before any log


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


def gaussian_logit_nll(mu, sigma, eps, labels):
    """Sampled negative log likelihood for two-class Gaussian logits.

    For each instance the logit pair is drawn as z_s = mu + sigma*eps_s for
    the given draws eps (shape (B, S, 2)); the per-instance loss is
    -log(mean_s softmax(z_s)[label]), and the result is the batch mean.
    Returns ``(loss, dmu, dsigma)`` with gradients flowing through the fixed
    draws.

    With label sign s = +-1 and margin d = z1 - z0 each draw has
    log p_y = -logaddexp(0, -s*d).  The draws are weighted by their share
    w = p_y / sum_s p_y of the likelihood, and the gradient on z1 is
    -s*(1 - p_y)*w/B, the negative of the one on z0.
    """
    mu = np.ascontiguousarray(mu, dtype=np.float64)
    sigma = np.ascontiguousarray(sigma, dtype=np.float64)
    eps = np.ascontiguousarray(eps, dtype=np.float64)
    if mu.shape != sigma.shape:
        raise DimensionError(f"mu {mu.shape} and sigma {sigma.shape} differ")
    if mu.ndim != 2 or mu.shape[1] != 2:
        raise DimensionError(f"expected (batch, 2) logits, got {mu.shape}")
    if eps.ndim != 3 or eps.shape[0] != mu.shape[0] or eps.shape[2] != mu.shape[1]:
        raise DimensionError(
            f"eps shape {eps.shape} incompatible with mu shape {mu.shape}"
        )
    if np.any(sigma <= 0.0):
        raise DomainError("sigma entries must be strictly positive")
    labels = _check_labels(labels, mu.shape[0])
    n, n_draws, _ = eps.shape
    sign = (2 * labels - 1).astype(np.float64)[:, None]
    eps0 = eps[:, :, 0]
    eps1 = eps[:, :, 1]
    margin = (mu[:, 1] - mu[:, 0])[:, None] + sigma[:, 1:2] * eps1 - sigma[:, 0:1] * eps0
    # log p_y = -logaddexp(0, t) with t = -s*d, spelled out as numpy's ufunc
    # does it, which runs several times faster than the ufunc itself
    t = -sign * margin
    logp = -(np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t))))
    amax = logp.max(axis=1, keepdims=True)
    lse = amax + np.log(np.exp(logp - amax).sum(axis=1, keepdims=True))
    loss = float(np.mean(np.log(n_draws) - lse))
    # expm1(log p_y) = p_y - 1 keeps its precision when p_y is near 1
    g1 = (sign / n) * np.exp(logp - lse) * np.expm1(logp)
    dmu1 = g1.sum(axis=1)
    dmu = np.stack((-dmu1, dmu1), axis=1)
    dsigma = np.stack((-(g1 * eps0).sum(axis=1), (g1 * eps1).sum(axis=1)), axis=1)
    return loss, dmu, dsigma
