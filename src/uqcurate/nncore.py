"""Dense neural-network primitives: rng plumbing, activations, layers, Adam.

Everything operates on float64 numpy arrays.  Batches are row-major: an
input matrix has one instance per row.  All randomness flows through
explicitly passed ``numpy.random.Generator`` streams so a fixed seed
reproduces a run bit for bit.  The two training losses live in ``kernels``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, ModelStateError

Array = np.ndarray


# ---------------------------------------------------------------------------
# RNG plumbing
# ---------------------------------------------------------------------------


def make_rng(seed) -> np.random.Generator:
    """Deterministic generator for a 64-bit seed (or another Generator)."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def child_seed(seed: int, i: int) -> int:
    """The i-th child seed of one parent seed, built directly: equal to
    ``spawn_seeds(seed, n)[i]`` for every n > i."""
    child = np.random.SeedSequence(seed, spawn_key=(i,))
    return int(child.generate_state(1, dtype=np.uint64)[0])


def spawn_seeds(seed: int, n: int) -> list[int]:
    """n independent child seeds derived from one parent seed."""
    return [child_seed(seed, i) for i in range(n)]


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
        m, v, beta1, beta2 = self.m, self.v, self.beta1, self.beta2
        m *= beta1
        m += (1.0 - beta1) * grad
        v *= beta2
        v += (1.0 - beta2) * grad * grad
        c1 = 1.0 - beta1**self.t
        c2 = 1.0 - beta2**self.t
        param -= self.lr * ((m / c1) / np.sqrt(v / c2 + self.eps))
