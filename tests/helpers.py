"""Shared test utilities: independent oracles and gradient-check machinery.

Oracles here must stay independent of the implementation paths they check:
matrix products use explicit loops, gradients come from central finite
differences, the Gaussian-logit expectations come from Monte Carlo draws and
from adaptive quadrature (scipy), the selector's ranking oracles sort each
view from scratch, and selection traces re-implement the published loop with
plain python data structures.
"""

from __future__ import annotations

import math

import numpy as np

from uqcurate.curation import _record_arrays
from uqcurate.errors import DomainError
from uqcurate.kernels import gaussian_logit_nll, softmax_xent
from uqcurate.models import HOMOSCEDASTIC, MlpModel
from uqcurate.nncore import make_rng, sigmoid, softmax


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


def sampled_gaussian_logit_nll(mu, sigma, eps, labels):
    """Monte Carlo oracle of ``kernels.gaussian_logit_nll`` over the given
    draws eps, (B, S, 2): the logit pair of draw s is z_s = mu + sigma*eps_s,
    the per-instance loss is -log(mean_s softmax(z_s)[label]) and the result
    is the batch mean.  Returns ``(loss, dmu, dsigma)``, the gradients
    flowing through the fixed draws.

    With label sign s = +-1 and margin d = z1 - z0 each draw has
    log p_y = -logaddexp(0, -s*d).  The draws are weighted by their share
    w = p_y / sum_s p_y of the likelihood, and the gradient on z1 is
    -s*(1 - p_y)*w/B, the negative of the one on z0.
    """
    n, n_draws, _ = eps.shape
    sign = (2 * np.asarray(labels) - 1).astype(np.float64)[:, None]
    eps0 = eps[:, :, 0]
    eps1 = eps[:, :, 1]
    margin = (mu[:, 1] - mu[:, 0])[:, None] + sigma[:, 1:2] * eps1 - sigma[:, 0:1] * eps0
    logp = -np.logaddexp(0.0, -sign * margin)
    amax = logp.max(axis=1, keepdims=True)
    lse = amax + np.log(np.exp(logp - amax).sum(axis=1, keepdims=True))
    loss = float(np.mean(np.log(n_draws) - lse))
    g1 = (sign / n) * np.exp(logp - lse) * np.expm1(logp)
    dmu1 = g1.sum(axis=1)
    dmu = np.stack((-dmu1, dmu1), axis=1)
    dsigma = np.stack((-(g1 * eps0).sum(axis=1), (g1 * eps1).sum(axis=1)), axis=1)
    return loss, dmu, dsigma


def margin_probability_quad(m: float, scale: float) -> float:
    """E[sigmoid(d)] for d ~ N(m, scale^2) by adaptive quadrature (scipy),
    with a breakpoint where the sigmoid steps; relative tolerance 1e-13."""
    from scipy.integrate import quad

    def integrand(x):
        d = m + scale * x
        sig = 1.0 / (1.0 + math.exp(-d)) if d >= 0 else math.exp(d) / (1.0 + math.exp(d))
        return sig * math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)

    step = min(max(-m / scale, -38.0), 38.0)
    value, _ = quad(integrand, -38.0, 38.0, points=[step], epsabs=0.0, epsrel=1e-13,
                    limit=500)
    return value


def mc_softmax(mu, scale, n_draws: int, rng: np.random.Generator):
    """Monte Carlo oracle of a Gaussian-logit predictive distribution: the
    mean of softmax(mu + scale*eps) over n_draws standard-normal draws of
    eps, independent per class, drawn as one (n_draws, *mu.shape) block.
    Returns ``(mean, standard error)``, each shaped like mu."""
    eps = rng.standard_normal((n_draws,) + mu.shape)
    p = softmax(mu[None, ...] + scale[None, ...] * eps)
    return p.mean(axis=0), p.std(axis=0) / math.sqrt(n_draws)


def _binary_entropy_quad(m: float, scale: float) -> float:
    """Entropy in nats of [E sigmoid(-d), E sigmoid(d)], d ~ N(m, scale^2),
    each class integrated on its own by adaptive quadrature; scale 0 gives
    the sigmoid at m."""
    if scale == 0.0:
        p = [1.0 / (1.0 + math.exp(m)), 1.0 / (1.0 + math.exp(-m))]
    else:
        p = [margin_probability_quad(-m, scale), margin_probability_quad(m, scale)]
    return -sum(q * math.log(q) for q in p if q > 0.0)


def hetero_entropies_quad(mu, sigma):
    """Oracle of ``uq.hetero_decompose`` for (N, T, 2) head outputs, one
    instance at a time in plain python: the (aleatoric, epistemic) entropies
    of the Gaussian logits around mean(mu_t) with per-class scales
    sqrt(mean(sigma_t^2)) and the population std of mu_t."""
    h_ale, h_epi = [], []
    for mu_i, sigma_i in zip(np.asarray(mu).tolist(), np.asarray(sigma).tolist()):
        t = len(mu_i)
        mean = [sum(row[c] for row in mu_i) / t for c in (0, 1)]
        ale = [math.sqrt(sum(row[c] ** 2 for row in sigma_i) / t) for c in (0, 1)]
        epi = [math.sqrt(sum((row[c] - mean[c]) ** 2 for row in mu_i) / t) for c in (0, 1)]
        h_ale.append(_binary_entropy_quad(mean[1] - mean[0], math.hypot(*ale)))
        h_epi.append(_binary_entropy_quad(mean[1] - mean[0], math.hypot(*epi)))
    return np.array(h_ale), np.array(h_epi)


def gaussian_logit_nll_loop(mu, sigma, eps, labels):
    """Sampled Gaussian-logit NLL for any class count, written as plain loops.

    Per instance and draw it forms z = mu + sigma*eps, takes the softmax over
    the classes and log p[label]; the loss is mean_i(log S - logsumexp_s),
    and the gradients weight each draw's (p - onehot) by its likelihood
    share.  Returns ``(loss, dmu, dsigma)`` like
    ``sampled_gaussian_logit_nll``.
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


def model_loss(model: MlpModel, X, y, mask_seed: int = 123) -> float:
    """Training-mode loss with dropout masks frozen by reseeding, so repeated
    evaluations at perturbed parameters see identical stochasticity."""
    rng = make_rng(mask_seed)
    if model.config.head == HOMOSCEDASTIC:
        logits = model.raw_outputs(X, stochastic=True, cache=True, rng=rng)
        loss, _, _ = softmax_xent(logits, y)
    else:
        mu, sigma = model.raw_outputs(X, stochastic=True, cache=True, rng=rng)
        loss, _, _ = gaussian_logit_nll(mu, sigma, y)
    model._cache = None
    return float(loss)


def model_loss_and_grads(model: MlpModel, X, y, mask_seed: int = 123):
    rng = make_rng(mask_seed)
    if model.config.head == HOMOSCEDASTIC:
        logits = model.raw_outputs(X, stochastic=True, cache=True, rng=rng)
        loss, dlogits, _ = softmax_xent(logits, y)
        pre_acts, _, _ = model._cache
        dh = model.head.backward(dlogits)
    else:
        mu, sigma = model.raw_outputs(X, stochastic=True, cache=True, rng=rng)
        loss, dmu, dsigma = gaussian_logit_nll(mu, sigma, y)
        pre_acts, mu_pre, sigma_pre = model._cache
        dh = model.head_mu.backward(dmu * (mu_pre > 0.0))
        dh = dh + model.head_sigma.backward(dsigma * sigmoid(sigma_pre))
    model._backward_hidden(dh, pre_acts)
    model._cache = None
    return float(loss), model.flat_grads.copy()


def kink_margin(model: MlpModel, X, mask_seed: int = 123) -> float:
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


def max_relative_gradient_error(model: MlpModel, X, y, step: float = 1e-5,
                                mask_seed: int = 123) -> float:
    """Worst relative disagreement between analytic and central-difference
    gradients over every parameter of the model."""
    _, flat_g = model_loss_and_grads(model, X, y, mask_seed=mask_seed)
    flat_p = model.flat_params  # every layer's w and b are views of it
    worst = 0.0
    for i in range(flat_p.shape[0]):
        orig = flat_p[i]
        flat_p[i] = orig + step
        lp = model_loss(model, X, y, mask_seed=mask_seed)
        flat_p[i] = orig - step
        lm = model_loss(model, X, y, mask_seed=mask_seed)
        flat_p[i] = orig
        fd = (lp - lm) / (2.0 * step)
        denom = max(abs(fd), abs(flat_g[i]), 1e-6)
        worst = max(worst, abs(fd - flat_g[i]) / denom)
    return worst


def gradcheck_model(head: str, seed: int, *, dropout: float = 0.1, step: float = 1e-5,
                    n_instances: int = 4, input_dim: int = 5, hidden_layers: int = 3,
                    hidden_width: int = 8) -> float:
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
        )
        model = MlpModel(cfg, seed=candidate)
        X = rng.standard_normal((n_instances, input_dim))
        y = rng.integers(0, 2, n_instances)
        if kink_margin(model, X) > 50 * step:
            return max_relative_gradient_error(model, X, y, step=step)
    raise AssertionError("no kink-safe configuration found in 50 candidate seeds")


# ---------------------------------------------------------------------------
# selection oracles: array ranking and the selection-trace loop
# ---------------------------------------------------------------------------


def _extreme_index(ids: np.ndarray, values: np.ndarray, alive: np.ndarray, largest: bool) -> int:
    """Index of the max (or min) value among alive entries, id-tie-broken."""
    cand = np.flatnonzero(alive)
    v = values[cand]
    target = v.max() if largest else v.min()
    tied = cand[v == target]
    if tied.shape[0] == 1:
        return int(tied[0])
    return int(tied[np.argsort(ids[tied].astype(str), kind="stable")[0]])


def _rejection_set(ids: np.ndarray, ale: np.ndarray, alive: np.ndarray, n_ale: int,
                   largest: bool) -> np.ndarray:
    """Alive indices of the n_ale largest (or smallest) aleatoric values,
    id-tie-broken like the sequential scan."""
    cand = np.flatnonzero(alive)
    k = min(n_ale, cand.shape[0])
    key = -ale[cand] if largest else ale[cand]
    order = np.lexsort((ids[cand].astype(str), key))
    return cand[order[:k]]


def top_one_by_epistemic(records) -> str:
    """Id with the largest epistemic value (lexicographic id on ties)."""
    ids, epi, _ = _record_arrays(records)
    return str(ids[_extreme_index(ids, epi, np.ones(len(ids), dtype=bool), largest=True)])


def top_n_by_aleatoric(records, n_ale: int) -> set[str]:
    """Ids of the min(n_ale, pool) largest aleatoric values (same tie rule)."""
    if n_ale < 1:
        raise DomainError(f"n_ale must be >= 1, got {n_ale}")
    ids, _, ale = _record_arrays(records)
    idx = _rejection_set(ids, ale, np.ones(len(ids), dtype=bool), n_ale, largest=True)
    return {str(i) for i in ids[idx]}


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
