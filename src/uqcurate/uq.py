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
from two Gaussian-logit distributions around the mean logits: the aleatoric
one has the pooled sigma as its noise scale, the epistemic one the spread of
mu across weight samples.  With two classes each is an expectation over the
margin d = z1 - z0 ~ N(m, S^2), which ``kernels.gaussian_logit_probs``
integrates by Gauss-Hermite quadrature, so the decomposition draws nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError
from .kernels import gaussian_logit_probs

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


def hetero_decompose(mu_samples, sigma_samples) -> HeteroDecomposition:
    """Aleatoric/epistemic entropies from sampled (mu, sigma) head outputs.

    Inputs are shaped ``(T, 2)`` or ``(N, T, 2)`` over T weight samples.
    Both distributions have the mean logits mu_bar and independent Gaussian
    noise per class: ``p_ale`` with scale sigma_bar, where sigma_bar^2 is the
    mean of sigma_t^2, and ``p_epi`` with scale s_epi, the population std of
    mu_t.  Each is the exact margin integral of ``gaussian_logit_probs``
    (margin scale hypot of the two class scales); s_epi = 0, where every
    weight sample agrees, gives softmax(mu_bar).  Entropies of the two
    distributions are returned in nats.  The epistemic branch needs at least
    two weight samples.
    """
    mu = _as_samples(mu_samples)
    sigma = _as_samples(sigma_samples)
    if mu.shape != sigma.shape:
        raise DimensionError(f"mu {mu.shape} and sigma {sigma.shape} differ")
    if mu.shape[-2] < 2:
        raise DomainError("epistemic spread needs at least 2 weight samples")
    if np.any(sigma <= 0.0):
        raise DomainError("sigma entries must be strictly positive")

    mu_bar = mu.mean(axis=-2)
    sigma_bar = np.sqrt(np.mean(sigma**2, axis=-2))
    s_epi = mu.std(axis=-2)

    rows = mu_bar.reshape(-1, mu_bar.shape[-1])
    p_ale = gaussian_logit_probs(rows, sigma_bar.reshape(rows.shape)).reshape(mu_bar.shape)
    p_epi = gaussian_logit_probs(rows, s_epi.reshape(rows.shape)).reshape(mu_bar.shape)
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
    # one list of Python floats per measure, in UqSummary's field order
    columns = [v.tolist() for v in (h_total, h_exp, mi, vt, ve, va)]
    return [UqSummary(*row) for row in zip(*columns)]


def summarize_hetero(mu_samples, sigma_samples, member_probs, n_draws=None,
                     rng=None) -> list[UqSummary]:
    """Summaries for dual-head models: sample-based measures from the member
    predictive distributions plus the (mu, sigma)-derived entropy pair."""
    # n_draws and rng have no effect; the benchmark's select workload still
    # passes them, and ROADMAP item 2's rewrite of that workload deletes them
    out = summarize(member_probs)
    dec = hetero_decompose(mu_samples, sigma_samples)
    h_ale = np.atleast_1d(dec.entropy_aleatoric)
    h_epi = np.atleast_1d(dec.entropy_epistemic)
    if len(out) != h_ale.shape[0]:
        raise DimensionError("member_probs and mu/sigma samples disagree on instance count")
    for s, ale, epi in zip(out, h_ale.tolist(), h_epi.tolist()):
        s.entropy_aleatoric = ale
        s.entropy_epistemic = epi
    return out
