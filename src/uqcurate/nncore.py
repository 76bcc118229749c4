"""Dense neural-network primitives: rng plumbing, activations, layers, Adam.

Everything operates on float64 numpy arrays.  Batches are row-major: an
input matrix has one instance per row.  All randomness flows through
explicitly passed ``numpy.random.Generator`` streams so a fixed seed
reproduces a run bit for bit.  The two training losses live in ``kernels``.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, DomainError

Array = np.ndarray


# ---------------------------------------------------------------------------
# RNG plumbing
# ---------------------------------------------------------------------------


def make_rng(seed) -> np.random.Generator:
    """Deterministic generator for a 64-bit seed (a Generator comes back
    unaltered)."""
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


class LinearLayer:
    """Affine map y = x W^T + b with gradient accumulation.

    The layer is its four arrays: the (out_dim, in_dim) weights ``w`` and
    the biases ``b``, and their gradients ``dw`` and ``db``, views that the
    caller places (``models.param_layout`` places a model's in its two flat
    vectors).  It keeps no per-batch state: ``backward`` takes the input of
    the forward pass from its caller, fills ``dw``/``db`` in place and
    returns the gradient w.r.t. the input unless told it is not needed.
    """

    def __init__(self, w: Array, b: Array, dw: Array, db: Array):
        self.w, self.b, self.dw, self.db = w, b, dw, db

    @property
    def in_dim(self) -> int:
        return self.w.shape[1]

    @property
    def out_dim(self) -> int:
        return self.w.shape[0]

    def forward(self, x: Array) -> Array:
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise DimensionError(
                f"linear layer expects (*, {self.in_dim}) input, got {x.shape}"
            )
        out = x @ self.w.T
        out += self.b  # in place on the fresh product: one (B, out) array, not two
        return out

    def backward(self, dout: Array, x: Array, input_grad: bool = True) -> Array | None:
        """Fill dw and db from ``dout`` and the forward pass's input ``x``,
        and return the gradient w.r.t. ``x``, or None without ``input_grad``
        (a first layer's input is the data, which nothing differentiates)."""
        if dout.shape != (x.shape[0], self.out_dim):
            raise DimensionError(
                f"gradient shape {dout.shape} does not match output "
                f"({x.shape[0]}, {self.out_dim})"
            )
        np.matmul(dout.T, x, out=self.dw)
        np.add.reduce(dout, axis=0, out=self.db)
        return dout @ self.w if input_grad else None


class DropoutLayer:
    """Inverted dropout: kept activations are scaled by 1/(1-p), so a pass
    without masks is the exact identity."""

    def __init__(self, p: float):
        if not 0.0 <= p < 1.0:
            raise DomainError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p

    def masks(self, rng: np.random.Generator | None, shape) -> Array | None:
        """Masks of ``shape`` from one ``rng.random(shape)`` draw, or None
        without an rng or at p = 0, drawing nothing.  A generator gives the
        same doubles in the same order to one (L, B, W) draw as to L draws of
        (B, W), so slice k of one draw is the k-th of L layer-by-layer masks."""
        if rng is None or self.p == 0.0:
            return None
        keep = 1.0 - self.p
        # exactly 0 or the rounded 1/keep, as dividing by keep gives
        mask = rng.random(shape)
        np.less(mask, keep, out=mask)
        mask *= 1.0 / keep
        return mask

    def forward(self, x: Array,
                rng: np.random.Generator | None = None) -> tuple[Array, Array | None]:
        """One layer's view of ``masks``: ``(x * mask, mask)`` with a fresh
        mask of x's shape, or ``(x, None)``, drawing nothing."""
        mask = self.masks(rng, x.shape)
        return (x, None) if mask is None else (x * mask, mask)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8  # added under the square root


class AdamState:
    """Adam with bias correction over one flat parameter vector: the step
    count ``t`` and the moment vectors ``m`` and ``v``, allocated on the
    first step."""

    def __init__(self, lr: float = 1e-3):
        self.lr = lr
        self.t = 0
        self.m: Array | None = None
        self.v: Array | None = None

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
        m, v = self.m, self.v
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * grad
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * grad * grad
        c1 = 1.0 - ADAM_BETA1**self.t
        c2 = 1.0 - ADAM_BETA2**self.t
        param -= self.lr * ((m / c1) / np.sqrt(v / c2 + ADAM_EPS))
