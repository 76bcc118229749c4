"""Uncertainty-guided pool curation.

Selectors over per-instance (epistemic, aleatoric) uncertainty records:

* ``ehal``   -- take the highest-epistemic candidate unless it sits in the
  current top-n_ale aleatoric (noisiest) set; on rejection the candidate is
  dropped from the view and both rankings are recomputed.
* ``elah``   -- the exact mirror: lowest epistemic, rejected while inside the
  bottom-n_ale aleatoric set.
* ``random`` -- uniform sampling without replacement from a given rng.

If rejection ever empties the candidate view (always the case once the view
is no larger than n_ale), the globally extreme-epistemic instance of the
original view is returned, so selection is total and never loops.

Ties anywhere break toward the lexicographically smallest id, which keeps
runs reproducible across platforms.

``curation_loop`` drives the iterative retrain-and-select study: train an
uncertainty model on a seed partition, score the candidate pool, move one
tranche into the training set, retrain from scratch, and record the test F1
after every round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .data import Dataset, undersample_balance
from .errors import ConfigError, DomainError
from .metrics import classification_report
from .models import (HETEROSCEDASTIC, ModelConfig, fit_method, hetero_raw_outputs,
                     method_passes, predict_samples)
from .nncore import child_seed, make_rng, spawn_seeds
from .uq import expected_entropy, hetero_decompose, mean_predictive, mutual_information

if TYPE_CHECKING:  # experiments imports this module
    from .experiments import ExperimentSpec

Array = np.ndarray

SELECTORS = ("ehal", "elah", "random")


@dataclass(frozen=True)
class UncertaintyRecord:
    id: str
    epistemic: float
    aleatoric: float

    def __post_init__(self):
        if not (math.isfinite(self.epistemic) and math.isfinite(self.aleatoric)):
            raise DomainError(f"uncertainties for {self.id!r} must be finite")
        if self.epistemic < 0.0 or self.aleatoric < 0.0:
            raise DomainError(f"uncertainties for {self.id!r} must be >= 0")


@dataclass
class CurationConfig:
    n_to_select: int
    n_ale: int | None = None            # absolute rejection-set size
    n_ale_fraction: float = 0.1         # used when n_ale is None: ceil(frac * pool)
    selector: str = "ehal"

    def __post_init__(self):
        if self.selector not in SELECTORS:
            raise ConfigError(f"selector must be one of {SELECTORS}, got {self.selector!r}")
        if self.n_to_select < 1:
            raise ConfigError("n_to_select must be >= 1")
        if self.n_ale is not None and self.n_ale < 1:
            raise ConfigError("n_ale must be >= 1")
        if self.n_ale is None and not 0.0 < self.n_ale_fraction <= 1.0:
            raise ConfigError("n_ale_fraction must be in (0, 1]")

    def resolve_n_ale(self, pool_size: int) -> int:
        if self.n_ale is not None:
            return self.n_ale
        return max(1, math.ceil(self.n_ale_fraction * pool_size))


def _record_arrays(records) -> tuple[Array, Array, Array]:
    if len(records) == 0:
        raise DomainError("record pool is empty")
    ids = np.array([r.id for r in records], dtype=object)
    epi = np.array([r.epistemic for r in records], dtype=np.float64)
    ale = np.array([r.aleatoric for r in records], dtype=np.float64)
    return ids, epi, ale


def _selection_orders(ids: Array, epi: Array, ale: Array, high_epistemic: bool):
    """Walk order (extreme epistemic first) and rejection-set order (extreme
    aleatoric first) over the whole pool; ties by id."""
    str_ids = ids.astype(str)
    epi_key = -epi if high_epistemic else epi
    ale_key = -ale if high_epistemic else ale
    return np.lexsort((str_ids, epi_key)), np.lexsort((str_ids, ale_key))


def _walk_select(epi_order: Array, ale_order: Array, alive: Array, n_ale: int) -> int:
    """One select-and-reject pass over the alive view; returns a global index.

    Walks candidates in extreme-epistemic order; a candidate inside the
    current top-n_ale aleatoric set of the (shrinking) view is dropped from
    the view and the walk continues.  If every candidate is rejected, the
    extreme-epistemic instance of the original view is returned.

    The walk is one rank test.  Let rank be each candidate's aleatoric rank
    in the view at the start of the pass (0 = extreme).  Every rejected
    candidate sat inside the rejection set when it was dropped, so after k
    rejections the dropped candidates all hold ranks below n_ale + k, and
    the view's rejection set is exactly ranks [0, n_ale + k) minus those k.
    The k-th candidate (0-based) is therefore rejected iff its rank is below
    n_ale + k, and the pick is the first candidate whose rank is not.
    """
    rank = np.empty(alive.shape[0], dtype=np.int64)
    rank[ale_order] = np.cumsum(alive[ale_order]) - 1  # valid for alive entries
    walk = epi_order[alive[epi_order]]  # alive candidates, extreme epistemic first
    kept = np.flatnonzero(rank[walk] >= n_ale + np.arange(walk.shape[0]))
    return int(walk[kept[0]] if kept.shape[0] else walk[0])


def curate(records, config: CurationConfig,
           rng: np.random.Generator | None = None) -> list[str]:
    """Repeatedly apply the selector, removing each pick, until
    ``n_to_select`` instances are chosen or the pool is exhausted.

    This is the one selection path: a single ehal pick with a fixed
    rejection-set size k is ``curate(records, CurationConfig(n_to_select=1,
    n_ale=k))``.
    """
    ids, epi, ale = _record_arrays(records)
    n = len(ids)
    if config.selector == "random":
        if rng is None:
            raise ConfigError("the random selector needs an rng")
        order = rng.permutation(n)[: min(config.n_to_select, n)]
        return [str(i) for i in ids[order]]
    alive = np.ones(n, dtype=bool)
    picked: list[str] = []
    high = config.selector == "ehal"
    epi_order, ale_order = _selection_orders(ids, epi, ale, high_epistemic=high)
    while alive.any() and len(picked) < config.n_to_select:
        n_ale = config.resolve_n_ale(int(alive.sum()))
        idx = _walk_select(epi_order, ale_order, alive, n_ale)
        alive[idx] = False
        picked.append(str(ids[idx]))
    return picked


# ---------------------------------------------------------------------------
# iterative curation loop
# ---------------------------------------------------------------------------


UNCERTAINTY_SOURCES = ("entropy", "sample")


@dataclass
class CurveRow:
    round: int
    fraction_added: float
    f1: float
    mean_epi: float
    mean_ale: float
    selected_noisy_fraction: float   # of the picks so far; NaN without picks or tags


@dataclass
class CurationResult:
    selected_ids: list[str]
    rows: list[CurveRow]


def _fit_uq_model(spec: ExperimentSpec, model: ModelConfig, train_ds: Dataset, seed: int):
    """Standard protocol: carve validation, balance the train share, fit;
    each step draws from its own child of ``seed``."""
    carve_seed, balance_seed, fit_seed = spawn_seeds(seed, 3)
    n = len(train_ds)
    perm = make_rng(carve_seed).permutation(n)
    n_val = max(1, int(round(spec.val_fraction * n)))
    if n - n_val < 2:
        raise ConfigError("training partition too small for a validation carve")
    val_ds = train_ds.subset(perm[:n_val])
    fit_ds = undersample_balance(train_ds.subset(perm[n_val:]), make_rng(balance_seed))
    return fit_method(spec.uq_methods[0], model, spec.ensemble_size,
                      fit_ds.X, fit_ds.y, val_ds.X, val_ds.y, fit_seed)


def pool_uncertainty_records(fitted, pool: Dataset, spec: ExperimentSpec,
                             seed: int) -> list[UncertaintyRecord]:
    """Score every pool instance with the spec's uncertainty split.

    ``uncertainty_source`` picks the (epistemic, aleatoric) pair:

    * ``entropy`` -- dual-head models use the (mu, sigma)-derived entropy
      pair; single-head models use (mutual information, expected entropy).
    * ``sample``  -- (mutual information, expected entropy) from the member
      predictive distributions, for either head.

    Both halves of the pair come from one set of weight samples, so each
    member's forward pass runs once.  The weight samples (dropout masks) draw
    from child 0 of ``seed``; the decomposition draws nothing.
    """
    n_passes = method_passes(spec.uq_methods[0], spec.mc_passes)
    rng = make_rng(child_seed(seed, 0))
    if fitted.config.head == HETEROSCEDASTIC and spec.uncertainty_source == "entropy":
        mu, sigma = hetero_raw_outputs(fitted, pool.X, n_passes, rng)
        dec = hetero_decompose(mu, sigma)
        epi, ale = dec.entropy_epistemic, dec.entropy_aleatoric
    else:
        samples = predict_samples(fitted, pool.X, n_passes, rng)[1]
        epi, ale = mutual_information(samples), expected_entropy(samples)
    return [
        UncertaintyRecord(
            id=str(pool.ids[i]),
            epistemic=float(epi[i]),
            aleatoric=float(ale[i]),
        )
        for i in range(len(pool))
    ]


def curation_loop(dataset: Dataset, selector: str, spec: ExperimentSpec,
                  seed: int) -> CurationResult:
    """Iterative selection study on one dataset shuffle, under the fractions,
    uq method and model fields of ``spec``.

    Split into seed/pool/test partitions, then alternate: fit the uncertainty
    model on the current training set, score the remaining pool, select one
    tranche (10% of the original pool by default) with the selector, and
    repeat until the pool is exhausted.  Each round retrains from scratch and
    appends a learning-curve row; row 0 is the seed-only baseline.
    """
    if selector not in SELECTORS:
        raise ConfigError(f"selector must be one of {SELECTORS}, got {selector!r}")
    split_seed, selector_seed, eval_seed, round_seed = spawn_seeds(seed, 4)
    selector_rng = make_rng(selector_seed)
    round_seed_rng = make_rng(round_seed)

    n = len(dataset)
    perm = make_rng(split_seed).permutation(n)
    n_seed = int(round(spec.seed_fraction * n))
    n_pool = int(round(spec.pool_fraction * n))
    if n_seed < 4 or n_pool < 1 or n - n_seed - n_pool < 1:
        raise ConfigError(f"dataset of {n} instances does not support the loop split")
    train_idx = list(perm[:n_seed])
    pool_idx = list(perm[n_seed : n_seed + n_pool])
    test_ds = dataset.subset(perm[n_seed + n_pool :])
    if len(set(dataset.y[train_idx].tolist())) < 2:
        raise ConfigError("seed partition is single-class; reshuffle or enlarge it")

    pool0 = len(pool_idx)
    tranche = max(1, int(round(spec.tranche_fraction * pool0)))
    id_to_index = {str(dataset.ids[i]): i for i in pool_idx}
    model = spec.model_config(dataset.feature_dim)
    n_passes = method_passes(spec.uq_methods[0], spec.mc_passes)

    selected: list[str] = []
    rows: list[CurveRow] = []
    rounds = 0
    while True:
        fit_seed = int(round_seed_rng.integers(0, 2**63))
        test_seed, score_seed = spawn_seeds(child_seed(eval_seed, rounds), 2)
        fitted = _fit_uq_model(spec, model, dataset.subset(train_idx), fit_seed)
        probs = mean_predictive(
            predict_samples(fitted, test_ds.X, n_passes, make_rng(test_seed))[1])
        f1 = classification_report(probs, test_ds.y).f1

        if pool_idx:
            records = pool_uncertainty_records(fitted, dataset.subset(pool_idx), spec, score_seed)
            mean_epi = float(np.mean([r.epistemic for r in records]))
            mean_ale = float(np.mean([r.aleatoric for r in records]))
        else:
            records = []
            mean_epi = float("nan")
            mean_ale = float("nan")

        # the picks were appended to the training indices in selection order
        picks = train_idx[n_seed:]
        noisy = (float(np.mean(dataset.noise_tags[picks]))
                 if picks and dataset.noise_tags is not None else float("nan"))
        rows.append(CurveRow(rounds, len(selected) / pool0, f1, mean_epi, mean_ale, noisy))
        if not pool_idx:
            break

        pick_cfg = CurationConfig(
            n_to_select=min(tranche, len(pool_idx)),
            n_ale_fraction=spec.n_ale_fraction,
            selector=selector,
        )
        picked = curate(records, pick_cfg, rng=selector_rng)
        selected.extend(picked)
        for pid in picked:
            idx = id_to_index[pid]
            train_idx.append(idx)
            pool_idx.remove(idx)
        rounds += 1
    return CurationResult(selected_ids=selected, rows=rows)
