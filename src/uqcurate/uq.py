"""Uncertainty measures over sampled predictive distributions.

A "predictive sample" is one softmax distribution produced by one weight
sample (one stochastic pass or one ensemble member).  Functions accept a
stack of samples shaped ``(T, C)`` for a single instance or ``(N, T, C)``
for a batch and reduce over the T axis; every estimator is symmetric in the
samples.  The measures return numpy arrays with one entry per instance (0-d
for a single instance).  ``models.predict_samples`` returns such a stack
together with the raw head outputs it came from, so the sample-based measures
and the dual-head (mu, sigma) decomposition below can be taken from one set of
weight samples.

Two decomposition routes are provided:

* entropy route -- total entropy of the mean distribution, expected entropy
  of the samples (aleatoric), and their gap (mutual information, epistemic);
* variance route -- law-of-total-variance split of the positive-class
  probability into mean Bernoulli variance (aleatoric) plus the population
  variance of the per-sample probabilities (epistemic).

For dual-head (mu, sigma) models an additional pair of entropies is derived
from two synthetic distributions: the aleatoric one pushes the mean logits
through softmax with the pooled sigma, and the epistemic one does the same
with the spread of mu across weight samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError
from .nncore import make_rng, mc_softmax

Array = np.ndarray

_MI_TOL = 1e-9


def _as_samples(samples) -> Array:
    a = np.asarray(samples, dtype=np.float64)
    if a.ndim < 2:
        raise DimensionError(f"expected (..., T, C) samples, got shape {a.shape}")
    if a.shape[-2] < 1:
        raise DomainError("need at least one predictive sample")
    return a


def mean_predictive(samples) -> Array:
    """Arithmetic mean of the predictive samples."""
    return _as_samples(samples).mean(axis=-2)


def predictive_entropy(p) -> Array:
    """Shannon entropy in nats, with 0*log(0) taken as 0."""
    p = np.asarray(p, dtype=np.float64)
    terms = np.where(p > 0.0, p * np.log(np.where(p > 0.0, p, 1.0)), 0.0)
    return -terms.sum(axis=-1)


def expected_entropy(samples) -> Array:
    """Mean entropy of the individual samples (aleatoric measure)."""
    return predictive_entropy(_as_samples(samples)).mean(axis=-1)


def mutual_information(samples) -> Array:
    """Entropy of the mean minus mean entropy (epistemic measure).

    Tiny negative values from floating point are clamped to 0; anything
    below -1e-9 indicates invalid inputs and raises.
    """
    a = _as_samples(samples)
    mi = predictive_entropy(mean_predictive(a)) - expected_entropy(a)
    if np.any(mi < -_MI_TOL):
        raise DomainError("mutual information below numerical tolerance; inputs are not distributions")
    return np.maximum(mi, 0.0)


def total_variance_decompose(samples):
    """Law-of-total-variance split of the positive-class probability.

    With p_t = P(y=1) under weight sample t:
      aleatoric  = mean_t p_t (1 - p_t)      (mean Bernoulli variance)
      epistemic  = population variance of p_t
      total      = aleatoric + epistemic
    Returns ``(var_total, var_epistemic, var_aleatoric)``.
    """
    a = _as_samples(samples)
    if a.shape[-1] != 2:
        raise DimensionError("variance decomposition is defined for 2 classes")
    p = a[..., 1]
    var_ale = np.mean(p * (1.0 - p), axis=-1)
    var_epi = np.var(p, axis=-1)
    return var_ale + var_epi, var_epi, var_ale


# ---------------------------------------------------------------------------
# dual-head decomposition
# ---------------------------------------------------------------------------


@dataclass
class HeteroDecomposition:
    entropy_aleatoric: Array
    entropy_epistemic: Array


def hetero_decompose(mu_samples, sigma_samples, n_draws: int = 50,
                     rng: np.random.Generator | None = None) -> HeteroDecomposition:
    """Aleatoric/epistemic entropies from sampled (mu, sigma) head outputs.

    Inputs are shaped ``(T, C)`` or ``(N, T, C)`` over T weight samples.
    ``p_ale`` = MC mean of softmax(mu_bar + sigma_bar*eps) with
    sigma_bar^2 the mean of sigma_t^2; ``p_epi`` = MC mean of
    softmax(mu_bar + s_epi*eps) with s_epi the population std of mu_t.
    Entropies of these two distributions are returned in nats.  The
    epistemic branch needs at least two weight samples.
    """
    mu = _as_samples(mu_samples)
    sigma = _as_samples(sigma_samples)
    if mu.shape != sigma.shape:
        raise DimensionError(f"mu {mu.shape} and sigma {sigma.shape} differ")
    if mu.shape[-2] < 2:
        raise DomainError("epistemic spread needs at least 2 weight samples")
    if np.any(sigma <= 0.0):
        raise DomainError("sigma entries must be strictly positive")
    if n_draws < 1:
        raise DomainError(f"n_draws must be >= 1, got {n_draws}")
    rng = make_rng(0) if rng is None else rng

    mu_bar = mu.mean(axis=-2)
    sigma_bar = np.sqrt(np.mean(sigma**2, axis=-2))
    s_epi = mu.std(axis=-2)

    p_ale = mc_softmax(mu_bar, sigma_bar, n_draws, rng)
    p_epi = mc_softmax(mu_bar, s_epi, n_draws, rng)
    return HeteroDecomposition(
        entropy_aleatoric=predictive_entropy(p_ale),
        entropy_epistemic=predictive_entropy(p_epi),
    )


# ---------------------------------------------------------------------------
# per-instance summaries
# ---------------------------------------------------------------------------


@dataclass
class UqSummary:
    """Per-instance uncertainty scalars (entropies in nats)."""

    entropy_total: float
    entropy_expected: float
    mutual_information: float
    var_total: float
    var_epistemic: float
    var_aleatoric: float
    entropy_aleatoric: float | None = None
    entropy_epistemic: float | None = None


def summarize(samples) -> list[UqSummary]:
    """Entropy- and variance-route summaries for a batch of sample stacks."""
    a = _as_samples(samples)
    if a.ndim == 2:
        a = a[None, ...]
    p_bar = mean_predictive(a)
    h_total = predictive_entropy(p_bar)
    h_exp = expected_entropy(a)
    mi = mutual_information(a)
    vt, ve, va = total_variance_decompose(a)
    return [
        UqSummary(
            entropy_total=float(h_total[i]),
            entropy_expected=float(h_exp[i]),
            mutual_information=float(mi[i]),
            var_total=float(vt[i]),
            var_epistemic=float(ve[i]),
            var_aleatoric=float(va[i]),
        )
        for i in range(a.shape[0])
    ]


def summarize_hetero(mu_samples, sigma_samples, member_probs, n_draws: int = 50,
                     rng: np.random.Generator | None = None) -> list[UqSummary]:
    """Summaries for dual-head models: sample-based measures from the member
    predictive distributions plus the (mu, sigma)-derived entropy pair."""
    out = summarize(member_probs)
    dec = hetero_decompose(mu_samples, sigma_samples, n_draws=n_draws, rng=rng)
    h_ale = np.atleast_1d(dec.entropy_aleatoric)
    h_epi = np.atleast_1d(dec.entropy_epistemic)
    if len(out) != h_ale.shape[0]:
        raise DimensionError("member_probs and mu/sigma samples disagree on instance count")
    for i, s in enumerate(out):
        s.entropy_aleatoric = float(h_ale[i])
        s.entropy_epistemic = float(h_epi[i])
    return out
