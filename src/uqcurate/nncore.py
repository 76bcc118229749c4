"""Dense neural-network primitives: layers, activations, losses, Adam.

Everything operates on float64 numpy arrays.  Batches are row-major: an
input matrix has one instance per row.  All randomness flows through
explicitly passed ``numpy.random.Generator`` streams so a fixed seed
reproduces a run bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DimensionError, DomainError, ModelStateError

Array = np.ndarray

LOG_FLOOR = kernels.LOG_FLOOR


# ---------------------------------------------------------------------------
# RNG plumbing
# ---------------------------------------------------------------------------


def make_rng(seed) -> np.random.Generator:
    """Deterministic generator for a 64-bit seed (or another Generator)."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_seeds(seed: int, n: int) -> list[int]:
    """n independent child seeds derived from one parent seed."""
    ss = np.random.SeedSequence(seed)
    return [int(child.generate_state(1, dtype=np.uint64)[0]) for child in ss.spawn(n)]


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------


def relu(x: Array) -> Array:
    return np.maximum(x, 0.0)


def softplus(x: Array) -> Array:
    """log(1 + e^x), overflow-safe for large |x|."""
    return np.logaddexp(0.0, x)


def sigmoid(x: Array) -> Array:
    return np.exp(-np.logaddexp(0.0, -x))


def softmax(z: Array) -> Array:
    """Row-wise softmax with max subtraction; rows sum to 1 within 1e-12."""
    z = np.asarray(z, dtype=np.float64)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def mc_softmax(mu: Array, scale: Array, n_draws: int, rng: np.random.Generator) -> Array:
    """Monte Carlo mean of softmax(mu + scale*eps) over n_draws standard-normal
    draws of eps, drawn as one (n_draws, *mu.shape) block."""
    eps = rng.standard_normal((n_draws,) + mu.shape)
    return softmax(mu[None, ...] + scale[None, ...] * eps).mean(axis=0)


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------


def glorot_uniform(rng: np.random.Generator, out_dim: int, in_dim: int) -> Array:
    limit = np.sqrt(6.0 / (in_dim + out_dim))
    return rng.uniform(-limit, limit, size=(out_dim, in_dim))


class LinearLayer:
    """Affine map y = x W^T + b with gradient accumulation.

    ``forward(..., train=True)`` caches the input; ``backward`` consumes the
    cache, fills ``dw``/``db`` in place and returns the gradient w.r.t. the
    input.  ``bind`` moves the four arrays into views of caller-owned flat
    buffers, so a model can keep all its layers in one parameter vector.
    """

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        self.w = glorot_uniform(rng, out_dim, in_dim)
        self.b = np.zeros(out_dim)
        self.dw = np.zeros_like(self.w)
        self.db = np.zeros_like(self.b)
        self._x: Array | None = None

    @property
    def in_dim(self) -> int:
        return self.w.shape[1]

    @property
    def out_dim(self) -> int:
        return self.w.shape[0]

    @property
    def size(self) -> int:
        """Number of parameters, weights and biases together."""
        return self.w.size + self.b.size

    def bind(self, params: Array, grads: Array) -> None:
        """Copy the weights into the flat slice ``params`` (w row-major, then
        b) and make w, b, dw and db views of ``params`` and ``grads``."""
        k = self.w.size
        params[:k] = self.w.reshape(-1)
        params[k:] = self.b
        shape = self.w.shape
        self.w, self.b = params[:k].reshape(shape), params[k:]
        self.dw, self.db = grads[:k].reshape(shape), grads[k:]

    def forward(self, x: Array, train: bool = False) -> Array:
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise DimensionError(
                f"linear layer expects (*, {self.in_dim}) input, got {x.shape}"
            )
        if train:
            self._x = x
        return x @ self.w.T + self.b

    def backward(self, dout: Array) -> Array:
        if self._x is None:
            raise ModelStateError("backward called without a cached training forward")
        if dout.shape != (self._x.shape[0], self.out_dim):
            raise DimensionError(
                f"gradient shape {dout.shape} does not match output "
                f"({self._x.shape[0]}, {self.out_dim})"
            )
        np.matmul(dout.T, self._x, out=self.dw)
        np.sum(dout, axis=0, out=self.db)
        dx = dout @ self.w
        self._x = None
        return dx


class DropoutLayer:
    """Inverted dropout: kept activations are scaled by 1/(1-p) at train time
    so eval mode is the exact identity."""

    def __init__(self, p: float):
        if not 0.0 <= p < 1.0:
            raise DomainError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self._mask: Array | None = None

    def forward(self, x: Array, train: bool = False, rng: np.random.Generator | None = None) -> Array:
        if not train or self.p == 0.0:
            self._mask = None
            return x
        if rng is None:
            raise ModelStateError("dropout in train mode needs an rng")
        keep = 1.0 - self.p
        self._mask = (rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, dout: Array) -> Array:
        if self._mask is None:
            return dout
        return dout * self._mask


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def _check_labels(labels: Array, n: int) -> Array:
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise DimensionError(f"expected {n} labels, got shape {labels.shape}")
    return labels.astype(np.int64)


def cross_entropy(probs: Array, labels: Array) -> float:
    """Mean -log p[label] over the batch, p clamped below at 1e-12."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = _check_labels(labels, probs.shape[0])
    py = probs[np.arange(probs.shape[0]), labels]
    return float(-np.mean(np.log(np.maximum(py, LOG_FLOOR))))


def softmax_cross_entropy(logits: Array, labels: Array):
    """Fused softmax + cross-entropy.

    Returns ``(loss, dlogits, probs)``; dlogits = (softmax(z) - onehot)/batch.
    """
    logits = np.ascontiguousarray(logits, dtype=np.float64)
    labels = _check_labels(labels, logits.shape[0])
    return kernels.softmax_xent(logits, labels)


def stochastic_nll_from_draws(mu: Array, sigma: Array, labels: Array, eps: Array):
    """Sampled Gaussian-logit NLL for fixed noise draws.

    ``eps`` has shape (batch, n_draws, 2); keeping it fixed makes the
    returned gradients exact for finite-difference checks.
    Returns ``(loss, dmu, dsigma)``.
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
    return kernels.gaussian_logit_nll(mu, sigma, eps, labels)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    """Adam with bias correction over one flat parameter vector; eps is added
    under the square root."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: Array | None = None
    v: Array | None = None

    def step(self, param: Array, grad: Array) -> None:
        """Update the 1-D float64 vector ``param`` in place from ``grad``."""
        if param.ndim != 1 or grad.shape != param.shape:
            raise DimensionError(
                f"adam steps one flat vector: param {param.shape}, grad {grad.shape}"
            )
        if self.m is None:
            self.m = np.zeros_like(param)
            self.v = np.zeros_like(param)
        if self.m.shape != param.shape:
            raise DimensionError("optimizer state does not match the parameter vector")
        self.t += 1
        kernels.adam_update(param, grad, self.m, self.v,
                            self.t, self.lr, self.beta1, self.beta2, self.eps)
