"""Shared test utilities: independent oracles and gradient-check machinery.

Oracles here must stay independent of the implementation paths they check:
matrix products use explicit loops, gradients come from central finite
differences, and selection traces re-implement the published loop with plain
python data structures.
"""

from __future__ import annotations

import math

import numpy as np

from uqcurate.models import HOMOSCEDASTIC, MlpModel
from uqcurate.nncore import (
    make_rng,
    sigmoid,
    softmax_cross_entropy,
    stochastic_nll_from_draws,
)


def naive_matmul_bias(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Triple-loop x @ w.T + b."""
    n, d = x.shape
    out_dim = w.shape[0]
    out = np.zeros((n, out_dim))
    for i in range(n):
        for o in range(out_dim):
            acc = 0.0
            for k in range(d):
                acc += x[i, k] * w[o, k]
            out[i, o] = acc + b[o]
    return out


def gaussian_logit_nll_loop(mu, sigma, eps, labels):
    """Sampled Gaussian-logit NLL for any class count, written as plain loops.

    Per instance and draw it forms z = mu + sigma*eps, takes the softmax over
    the classes and log p[label]; the loss is mean_i(log S - logsumexp_s),
    and the gradients weight each draw's (p - onehot) by its likelihood
    share.  Returns ``(loss, dmu, dsigma)`` like ``kernels.gaussian_logit_nll``.
    """
    n, n_draws, n_classes = eps.shape
    dmu = np.zeros((n, n_classes))
    dsigma = np.zeros((n, n_classes))
    p = np.empty((n_draws, n_classes))
    a = np.empty(n_draws)
    loss = 0.0
    for i in range(n):
        y = labels[i]
        for s in range(n_draws):
            for c in range(n_classes):
                p[s, c] = mu[i, c] + sigma[i, c] * eps[i, s, c]
            zmax = p[s].max()
            tot = 0.0
            for c in range(n_classes):
                p[s, c] = np.exp(p[s, c] - zmax)
                tot += p[s, c]
            for c in range(n_classes):
                p[s, c] /= tot
            a[s] = np.log(p[s, y])
        amax = a.max()
        acc = 0.0
        for s in range(n_draws):
            acc += np.exp(a[s] - amax)
        lse = amax + np.log(acc)
        loss += np.log(float(n_draws)) - lse
        for s in range(n_draws):
            w = np.exp(a[s] - lse)
            for c in range(n_classes):
                d = p[s, c] - (1.0 if c == y else 0.0)
                dmu[i, c] += w * d
                dsigma[i, c] += w * d * eps[i, s, c]
    return loss / n, dmu / n, dsigma / n


# ---------------------------------------------------------------------------
# model-level gradient checking
# ---------------------------------------------------------------------------


def model_loss(model: MlpModel, X, y, eps=None, mask_seed: int = 123) -> float:
    """Training-mode loss with dropout masks frozen by reseeding, so repeated
    evaluations at perturbed parameters see identical stochasticity."""
    rng = make_rng(mask_seed)
    if model.config.head == HOMOSCEDASTIC:
        logits = model.raw_outputs(X, stochastic=True, cache=True, rng=rng)
        loss, _, _ = softmax_cross_entropy(logits, y)
    else:
        mu, sigma = model.raw_outputs(X, stochastic=True, cache=True, rng=rng)
        loss, _, _ = stochastic_nll_from_draws(mu, sigma, y, eps)
    model._cache = None
    return float(loss)


def model_loss_and_grads(model: MlpModel, X, y, eps=None, mask_seed: int = 123):
    rng = make_rng(mask_seed)
    if model.config.head == HOMOSCEDASTIC:
        logits = model.raw_outputs(X, stochastic=True, cache=True, rng=rng)
        loss, dlogits, _ = softmax_cross_entropy(logits, y)
        pre_acts, _, _ = model._cache
        dh = model.head.backward(dlogits)
    else:
        mu, sigma = model.raw_outputs(X, stochastic=True, cache=True, rng=rng)
        loss, dmu, dsigma = stochastic_nll_from_draws(mu, sigma, y, eps)
        pre_acts, mu_pre, sigma_pre = model._cache
        dh = model.head_mu.backward(dmu * (mu_pre > 0.0))
        dh = dh + model.head_sigma.backward(dsigma * sigmoid(sigma_pre))
    model._backward_hidden(dh, pre_acts)
    model._cache = None
    return float(loss), model.flat_grads.copy()


def kink_margin(model: MlpModel, X, eps=None, mask_seed: int = 123) -> float:
    """Smallest |pre-activation| at any relu in the frozen-mask forward pass.

    Central differences are invalid when a perturbation crosses a relu kink,
    so gradient checks require this margin to exceed the step size.
    """
    rng = make_rng(mask_seed)
    model.raw_outputs(X, stochastic=True, cache=True, rng=rng)
    pre_acts, mu_pre, _ = model._cache
    margin = min(float(np.abs(z).min()) for z in pre_acts)
    if mu_pre is not None:
        margin = min(margin, float(np.abs(mu_pre).min()))
    model._cache = None
    return margin


def max_relative_gradient_error(model: MlpModel, X, y, eps=None, step: float = 1e-5,
                                mask_seed: int = 123) -> float:
    """Worst relative disagreement between analytic and central-difference
    gradients over every parameter of the model."""
    _, flat_g = model_loss_and_grads(model, X, y, eps=eps, mask_seed=mask_seed)
    flat_p = model.flat_params  # every layer's w and b are views of it
    worst = 0.0
    for i in range(flat_p.shape[0]):
        orig = flat_p[i]
        flat_p[i] = orig + step
        lp = model_loss(model, X, y, eps=eps, mask_seed=mask_seed)
        flat_p[i] = orig - step
        lm = model_loss(model, X, y, eps=eps, mask_seed=mask_seed)
        flat_p[i] = orig
        fd = (lp - lm) / (2.0 * step)
        denom = max(abs(fd), abs(flat_g[i]), 1e-6)
        worst = max(worst, abs(fd - flat_g[i]) / denom)
    return worst


def gradcheck_model(head: str, seed: int, *, dropout: float = 0.1, step: float = 1e-5,
                    n_instances: int = 4, input_dim: int = 5, hidden_layers: int = 3,
                    hidden_width: int = 8, logit_samples: int = 7) -> float:
    """Build a small random model/batch in general position and return the
    worst relative gradient error.  Seeds that land a pre-activation within
    50 steps of a relu kink are skipped deterministically."""
    from uqcurate.models import ModelConfig

    for candidate in range(seed, seed + 50):
        rng = np.random.default_rng(candidate)
        cfg = ModelConfig(
            input_dim=input_dim,
            hidden_layers=hidden_layers,
            hidden_width=hidden_width,
            dropout=dropout,
            head=head,
            logit_samples=logit_samples,
        )
        model = MlpModel(cfg, seed=candidate)
        X = rng.standard_normal((n_instances, input_dim))
        y = rng.integers(0, 2, n_instances)
        eps = (
            rng.standard_normal((n_instances, logit_samples, 2))
            if cfg.head != HOMOSCEDASTIC
            else None
        )
        if kink_margin(model, X, eps=eps) > 50 * step:
            return max_relative_gradient_error(model, X, y, eps=eps, step=step)
    raise AssertionError("no kink-safe configuration found in 50 candidate seeds")


# ---------------------------------------------------------------------------
# selection-trace oracle
# ---------------------------------------------------------------------------


def trace_select_one(pool: dict[str, tuple[float, float]], n_ale: int,
                     high_epistemic: bool = True) -> str:
    """Literal re-implementation of the published select-and-reject loop with
    plain dicts and sorts, including the documented exhaustion fallback."""

    def top_epi(view):
        items = sorted(view.items(), key=lambda kv: (-kv[1][0] if high_epistemic else kv[1][0], kv[0]))
        return items[0][0]

    def ale_set(view):
        items = sorted(view.items(), key=lambda kv: (-kv[1][1] if high_epistemic else kv[1][1], kv[0]))
        return {k for k, _ in items[: min(n_ale, len(items))]}

    candidates = dict(pool)
    while candidates:
        d = top_epi(candidates)
        if d not in ale_set(candidates):
            return d
        del candidates[d]
    return top_epi(dict(pool))


def trace_curate(pool: dict[str, tuple[float, float]], n: int, n_ale: int | None,
                 high_epistemic: bool = True, n_ale_fraction: float | None = None) -> list[str]:
    """Pick n times with ``trace_select_one``, removing each pick.  With
    ``n_ale`` None the rejection-set size is ceil(n_ale_fraction * remaining),
    at least 1, recomputed before every pick."""
    remaining = dict(pool)
    picked = []
    while remaining and len(picked) < n:
        k = n_ale if n_ale is not None else max(1, math.ceil(n_ale_fraction * len(remaining)))
        d = trace_select_one(remaining, k, high_epistemic)
        del remaining[d]
        picked.append(d)
    return picked
