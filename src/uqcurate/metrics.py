"""Prediction scoring: Brier score, classification report, rank statistics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError
from .kernels import N_CLASSES, _check_labels

Array = np.ndarray


@dataclass
class EvalReport:
    brier: float
    f1: float
    precision: float
    recall: float
    n_tp: int
    n_fp: int
    n_fn: int
    n_tn: int


def _check_probs_labels(probs, labels):
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2 or probs.shape[1] != N_CLASSES:
        raise DimensionError(f"expected (N, {N_CLASSES}) probabilities, got {probs.shape}")
    labels = _check_labels(labels, probs.shape[0])
    if probs.shape[0] == 0:
        raise DomainError("need at least one instance")
    if not ((probs >= 0.0) & (probs <= 1.0)).all():
        raise DomainError("probabilities must lie in [0, 1]")
    return probs, labels


def brier(probs, labels) -> float:
    """Mean squared distance between predicted distribution and one-hot label."""
    probs, labels = _check_probs_labels(probs, labels)
    hot = labels == 1
    return float(np.mean((probs[:, 0] - ~hot) ** 2 + (probs[:, 1] - hot) ** 2))


def classification_report(probs, labels) -> EvalReport:
    """Argmax classification scores with class 1 as the positive class.

    Exact ties (p = [0.5, 0.5]) break toward class 0.  F1, precision and
    recall are defined as 0 when their denominator is 0.
    """
    probs, labels = _check_probs_labels(probs, labels)
    pred = (probs[:, 1] > probs[:, 0]).astype(np.int64)
    n_tp = int(np.sum((pred == 1) & (labels == 1)))
    n_fp = int(np.sum((pred == 1) & (labels == 0)))
    n_fn = int(np.sum((pred == 0) & (labels == 1)))
    n_tn = int(np.sum((pred == 0) & (labels == 0)))
    precision = n_tp / (n_tp + n_fp) if n_tp + n_fp > 0 else 0.0
    recall = n_tp / (n_tp + n_fn) if n_tp + n_fn > 0 else 0.0
    denom = 2 * n_tp + n_fp + n_fn
    f1 = 2 * n_tp / denom if denom > 0 else 0.0
    return EvalReport(
        brier=brier(probs, labels),
        f1=f1,
        precision=precision,
        recall=recall,
        n_tp=n_tp,
        n_fp=n_fp,
        n_fn=n_fn,
        n_tn=n_tn,
    )


# ---------------------------------------------------------------------------
# rank statistics
# ---------------------------------------------------------------------------


def _ranks_and_ties(values) -> tuple[Array, Array]:
    """Fractional ranks of ``values`` and the size of each group of tied
    values, in ascending order of value."""
    v = np.asarray(values, dtype=np.float64)
    if not np.isfinite(v).all():
        raise DomainError("rank statistics need finite values")
    _, inverse, counts = np.unique(v, return_inverse=True, return_counts=True)
    # the `count` ties from sorted position `start` share the mean of ranks
    # start + 1 ... start + count
    start = np.cumsum(counts) - counts
    return (start + (counts + 1) / 2.0)[inverse], counts


def rankdata(values) -> Array:
    """Fractional ranks (ties get the mean of their rank positions)."""
    return _ranks_and_ties(values)[0]


def mann_whitney_u(a, b):
    """Mann-Whitney U test via the tie-corrected normal approximation.

    Returns ``(u_a, p)`` where ``u_a`` is the U statistic of the first group
    and ``p`` the one-sided p-value for the alternative that ``a`` is
    stochastically greater than ``b``.  No continuity correction is applied,
    so identical groups give p = 0.5 exactly.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n1, n2 = a.shape[0], b.shape[0]
    if n1 < 2 or n2 < 2:
        raise DomainError("each group needs at least 2 samples")
    ranked, counts = _ranks_and_ties(np.concatenate([a, b]))
    r1 = ranked[:n1].sum()
    u_a = r1 - n1 * (n1 + 1) / 2.0
    n = n1 + n2
    tie_term = float(np.sum(counts.astype(np.float64) ** 3 - counts))
    var_u = n1 * n2 / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if var_u <= 0.0:
        return float(u_a), 0.5  # all values identical: no evidence either way
    mean_u = n1 * n2 / 2.0
    z = (u_a - mean_u) / math.sqrt(var_u)
    p = 0.5 * math.erfc(z / math.sqrt(2.0))
    return float(u_a), float(p)


def spearman_rho(x, y) -> float:
    """Spearman rank correlation (Pearson correlation of fractional ranks)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise DimensionError("spearman_rho expects two equal-length 1-D arrays")
    if x.shape[0] < 2:
        raise DomainError("need at least 2 points")
    rx = rankdata(x)
    ry = rankdata(y)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = math.sqrt(float(np.sum(rx**2) * np.sum(ry**2)))
    if denom == 0.0:
        raise DomainError("constant input has no rank correlation")
    return float(np.sum(rx * ry) / denom)
