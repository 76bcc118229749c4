"""The two training losses, fused forward and backward, and the dual head's
predictive distribution.

Matrix products stay on numpy/BLAS; the kernels here cover the elementwise
loss passes.  Each kernel checks its inputs (float64 contiguous arrays, one
label, 0 or 1, per row, matching shapes, sigma >= 0, and sigma > 0 for the
loss, which divides by it) and is what the models call.

Models have exactly two classes, so the Gaussian logits z ~ N(mu, sigma^2)
of the dual head enter only through the margin d = z1 - z0 ~ N(m, S^2), with
m = mu1 - mu0 and S^2 = sigma0^2 + sigma1^2.  Every expectation over the
logits is then a 1-D integral over d, which a ``GH_NODES``-point
Gauss-Hermite rule computes without random draws.

A pool of more than ``ROW_BLOCK`` rows is scored in the row blocks of
``row_blocks``, so ``gaussian_logit_probs`` holds its (rows, ``GH_NODES``)
temporaries for one block at a time; the probabilities are the same to the
bit as one pass over every row.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import DimensionError, DomainError

__all__ = [
    "GH_NODES",
    "ROW_BLOCK",
    "backend",
    "row_blocks",
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

# The most rows that an eval-mode prediction pass or a quadrature works on at
# once: a (ROW_BLOCK, 64) hidden activation takes 1 MB and a
# (ROW_BLOCK, GH_NODES) quadrature buffer 0.8 MB, however large the pool.
ROW_BLOCK = 2048
# Every block but the last starts and ends on a multiple of this many rows.
_BLOCK_ALIGN = 64


def row_blocks(n: int) -> list[slice]:
    """``range(n)`` as balanced, consecutive slices of at most ``ROW_BLOCK``
    rows; a single slice when ``n <= ROW_BLOCK``.

    The blocks reproduce a single-threaded pass over all ``n`` rows bit for
    bit because of two rules that the BLAS row kernels need.  Every slice
    but the last is a multiple of 64 rows, so every row keeps its position
    within a kernel's row group (gemv, for one, sums the rows past the last
    multiple of 4 another way).  And no slice is shorter than
    ``ROW_BLOCK // 2`` rows: on a few hundred rows or fewer, dgemm takes
    another kernel, whose sums round differently.  A block is too small for
    OpenBLAS to split among threads, so blocked results do not depend on the
    BLAS thread count; one gemv over more than about 9000 rows is split, and
    the rows at the end of each thread's share can round differently.
    """
    if n <= ROW_BLOCK:
        return [slice(0, n)]
    # the n // 64 whole units of 64 rows, shared out as evenly as they go;
    # the last block also takes the n % 64 rows past them
    n_blocks = -(-n // ROW_BLOCK)
    units = n // _BLOCK_ALIGN
    bounds = [-(-units * k // n_blocks) * _BLOCK_ALIGN for k in range(n_blocks)] + [n]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def backend() -> str:
    """Name of the kernel backend."""
    return "numpy"


def _check_labels(labels, n: int) -> np.ndarray:
    """``labels`` as int64, each 0 or 1.  Training steps pass int64 labels,
    whose check is the max of their unsigned view (a negative label is huge
    there); other dtypes are compared with 0 and 1."""
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise DimensionError(f"expected {n} labels, got shape {labels.shape}")
    if labels.dtype == np.int64:
        bad = n > 0 and labels.view(np.uint64).max() > 1
    else:
        bad = np.any((labels != 0) & (labels != 1))
    if bad:
        raise DomainError("labels must be 0 or 1")
    return labels.astype(np.int64, copy=False)


def softmax_xent(logits, labels):
    """Fused softmax + cross-entropy over a batch of (B, 2) logits.

    Returns ``(loss, dlogits, probs)`` where loss is the batch mean of
    -log p[label] (p clamped at LOG_FLOOR) and dlogits = (probs - onehot)/B.
    With two classes the row max and row sum are one ``maximum`` and one
    ``add`` of the columns, and p[label] is a ``where``; each gives the bits
    of the axis reductions and the row indexing it replaces.
    """
    logits = np.ascontiguousarray(logits, dtype=np.float64)
    if logits.ndim != 2 or logits.shape[1] != 2:
        raise DimensionError(f"expected (batch, 2) logits, got {logits.shape}")
    n = logits.shape[0]
    hot = _check_labels(labels, n) == 1
    e = np.exp(logits - np.maximum(logits[:, 0], logits[:, 1])[:, None])
    probs = e / (e[:, 0] + e[:, 1])[:, None]
    py = np.where(hot, probs[:, 1], probs[:, 0])
    loss = -(np.add.reduce(np.log(np.maximum(py, LOG_FLOOR))) / n)  # as np.mean sums
    dlogits = probs.copy()
    dlogits[:, 0] -= ~hot
    dlogits[:, 1] -= hot
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


def _margin_scale(sigma):
    """The margin's standard deviation S, (B, 1)."""
    return np.hypot(sigma[:, 0], sigma[:, 1])[:, None]


def _margin_nodes(mu, sigma, x):
    """The margin d = m + S*x_k at every node x_k, (B, K)."""
    margin = _margin_scale(sigma) * x
    margin += (mu[:, 1] - mu[:, 0])[:, None]
    return margin


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
    scale = _margin_scale(sigma)
    # t = -s*d_k = (-s*S)*x_k + (-s*m): the sign folds into the (B, 1)
    # columns exactly, because negation is exact and rounding is symmetric
    neg_sign = -sign
    t = np.multiply(neg_sign * scale, x)
    t += neg_sign * (mu[:, 1] - mu[:, 0])[:, None]
    # two (B, K) buffers, t's and b's; every ufunc below writes into one.
    # log p_k = -logaddexp(0, t), spelled out as numpy's ufunc does it,
    # which runs several times faster than the ufunc itself
    b = np.abs(t)
    np.log1p(np.exp(np.negative(b, out=b), out=b), out=b)
    logp = np.negative(np.add(np.maximum(t, 0.0, out=t), b, out=t), out=t)
    a = np.add(logp, log_w, out=b)
    amax = a.max(axis=1, keepdims=True)
    e = np.exp(np.subtract(a, amax, out=a), out=a)
    total = e.sum(axis=1, keepdims=True)
    loss = float(-np.mean(amax + np.log(total)))
    # g = (s/B) * r_k * (p_k - 1); expm1(log p_k) = p_k - 1 keeps its
    # precision when p_k is near 1
    g = np.multiply(np.divide(e, total, out=e), sign / n, out=e)
    g *= np.expm1(logp, out=logp)
    dm = g.sum(axis=1)
    dmu = np.empty_like(mu)
    dmu[:, 1] = dm
    np.negative(dm, out=dmu[:, 0])
    dscale = g @ x
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
    out = np.empty_like(mu)
    for rows in row_blocks(mu.shape[0]):
        # three (block, K) buffers: the margin's, and two more; every ufunc
        # writes into one of them
        d = _margin_nodes(mu[rows], sigma[rows], x)
        pos = d >= 0.0
        e = np.exp(np.negative(np.abs(d, out=d), out=d), out=d)  # exp(-|d|)
        near = np.add(1.0, e)
        np.divide(1.0, near, out=near)      # sigmoid(|d|)
        far = np.multiply(e, near, out=e)   # sigmoid(-|d|)
        out[rows, 1] = np.where(pos, near, far) @ w
        np.copyto(near, far, where=pos)     # p0 = where(pos, far, near)
        out[rows, 0] = near @ w
    return out
