"""Uncertainty-guided pool curation.

A scored pool is two float arrays, its per-instance epistemic and aleatoric
uncertainties (``pool_uncertainty_records``), and the selectors walk them:

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
runs reproducible across platforms.  ``curate`` is the public entry: it
takes a list of ``UncertaintyRecord`` and returns the picked ids.

``curation_loop`` drives the iterative retrain-and-select study: train an
uncertainty model on a seed partition, score the candidate pool, move one
tranche into the training set, retrain from scratch, and record the test F1
after every round.  ``curation_loops`` runs it for several selectors.  Round
r fits its set in dataset order, and each distinct (round, set) fit runs
once, so the selectors share round 0 and the full-pool round.  The loop
keeps the pool's scores as arrays and maps the picked positions through its
alive mask; it builds no records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .data import Dataset
from .errors import ConfigError, DomainError
from .models import (HETEROSCEDASTIC, ModelConfig, fit_method, hetero_raw_outputs,
                     method_passes, method_report, predict_samples)
from .nncore import child_seed, make_rng, spawn_seeds
from .uq import expected_entropy, hetero_decompose, mutual_information

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


def _pick(ids: Array, epi: Array, ale: Array, config: CurationConfig,
          rng: np.random.Generator | None) -> Array:
    """``curate`` on arrays: the pool positions of the picks, in pick order."""
    n = len(ids)
    if config.selector == "random":
        if rng is None:
            raise ConfigError("the random selector needs an rng")
        return rng.permutation(n)[: min(config.n_to_select, n)]
    alive = np.ones(n, dtype=bool)
    picked: list[int] = []
    high = config.selector == "ehal"
    epi_order, ale_order = _selection_orders(ids, epi, ale, high_epistemic=high)
    while alive.any() and len(picked) < config.n_to_select:
        n_ale = config.resolve_n_ale(int(alive.sum()))
        idx = _walk_select(epi_order, ale_order, alive, n_ale)
        alive[idx] = False
        picked.append(idx)
    return np.array(picked, dtype=np.int64)


def curate(records, config: CurationConfig,
           rng: np.random.Generator | None = None) -> list[str]:
    """Repeatedly apply the selector, removing each pick, until
    ``n_to_select`` instances are chosen or the pool is exhausted.

    This is the one selection path: a single ehal pick with a fixed
    rejection-set size k is ``curate(records, CurationConfig(n_to_select=1,
    n_ale=k))``.
    """
    ids, epi, ale = _record_arrays(records)
    return [str(i) for i in ids[_pick(ids, epi, ale, config, rng)]]


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
    """Carve validation, then balance the rest and fit (``fit_method``);
    each step draws from its own child of ``seed``."""
    carve_seed, balance_seed, fit_seed = spawn_seeds(seed, 3)
    n = len(train_ds)
    perm = make_rng(carve_seed).permutation(n)
    n_val = max(1, int(round(spec.val_fraction * n)))
    if n - n_val < 2:
        raise ConfigError("training partition too small for a validation carve")
    return fit_method(spec.uq_methods[0], model, spec.ensemble_size,
                      train_ds.subset(perm[n_val:]), train_ds.subset(perm[:n_val]),
                      balance_seed, fit_seed)


def pool_uncertainty_records(fitted, X: Array, n_passes: int | None,
                             rng: np.random.Generator | None,
                             source: str) -> tuple[Array, Array]:
    """The ``(epistemic, aleatoric)`` uncertainty arrays of the rows of ``X``.

    ``source`` picks the pair:

    * ``entropy`` -- dual-head models use the (mu, sigma)-derived entropy
      pair; single-head models use (mutual information, expected entropy).
    * ``sample``  -- (mutual information, expected entropy) from the member
      predictive distributions, for either head.

    Both halves of the pair come from one set of weight samples, so each
    member's forward pass runs once.  ``n_passes`` and ``rng`` are
    ``predict_samples``'s: ``rng`` drives the dropout masks only, and the
    decomposition draws nothing.  The curation loop scores round r's pool
    with ``make_rng(child_seed(score_seed, 0))``, where ``score_seed`` is the
    second of the two seeds spawned from child r of its eval seed.  Raises
    ``DomainError`` unless every value is finite and >= 0.
    """
    if fitted.config.head == HETEROSCEDASTIC and source == "entropy":
        mu, sigma = hetero_raw_outputs(fitted, X, n_passes, rng)
        dec = hetero_decompose(mu, sigma)
        epi, ale = dec.entropy_epistemic, dec.entropy_aleatoric
    else:
        samples = predict_samples(fitted, X, n_passes, rng)[1]
        epi, ale = mutual_information(samples), expected_entropy(samples)
    if not (np.isfinite(epi).all() and np.isfinite(ale).all()):
        raise DomainError("pool uncertainties must be finite")
    if (epi < 0.0).any() or (ale < 0.0).any():
        raise DomainError("pool uncertainties must be >= 0")
    return epi, ale


def curation_loop(dataset: Dataset, selector: str, spec: ExperimentSpec,
                  seed: int) -> CurationResult:
    """Iterative selection study on one dataset shuffle, under the fractions,
    uq method and model fields of ``spec``.

    Split into seed/pool/test partitions, then alternate: fit the uncertainty
    model on the current training set, score the remaining pool, select one
    tranche (10% of the original pool by default) with the selector, and
    repeat until the pool is exhausted.  Each round retrains from scratch and
    appends a learning-curve row; row 0 is the seed-only baseline.  This is
    ``curation_loops`` with one selector.
    """
    return curation_loops(dataset, (selector,), spec, seed)[0]


def curation_loops(dataset: Dataset, selectors, spec: ExperimentSpec,
                   seed: int) -> list[CurationResult]:
    """``curation_loop`` for each of ``selectors`` under one ``seed``, in
    selector order.

    Every round moves min(tranche, pool left) instances, so each selector
    fits the same rounds, and round r fits with the r-th draw of the round
    stream.  Round r fits its set in dataset order: the seed partition plus
    the selector's picks so far, sorted, so the order of the picks moves no
    row.  Each distinct (round, set) fit runs once, and every selector with
    that set reads its test F1 and pool scores; round 0 and the full-pool
    round are such sets.  Every result equals ``curation_loop`` run alone.
    """
    split_seed, selector_seed, eval_seed, round_seed = spawn_seeds(seed, 4)

    n = len(dataset)
    perm = make_rng(split_seed).permutation(n)
    n_seed = int(round(spec.seed_fraction * n))
    n_pool = int(round(spec.pool_fraction * n))
    if n_seed < 4 or n_pool < 1 or n - n_seed - n_pool < 1:
        raise ConfigError(f"dataset of {n} instances does not support the loop split")
    seed_idx = perm[:n_seed]
    pool0_idx = perm[n_seed : n_seed + n_pool]
    test_ds = dataset.subset(perm[n_seed + n_pool :])
    if len(set(dataset.y[seed_idx].tolist())) < 2:
        raise ConfigError("seed partition is single-class; reshuffle or enlarge it")

    pool0 = len(pool0_idx)
    tranche = max(1, int(round(spec.tranche_fraction * pool0)))
    configs = [CurationConfig(n_to_select=tranche, n_ale_fraction=spec.n_ale_fraction,
                              selector=selector) for selector in selectors]
    round_rng = make_rng(round_seed)
    fit_seeds = [int(round_rng.integers(0, 2**63))
                 for _ in range(1 + math.ceil(pool0 / tranche))]
    model = spec.model_config(dataset.feature_dim)
    method = spec.uq_methods[0]
    n_passes = method_passes(method, spec.mc_passes)

    memo = {}  # (round, training set) -> (f1, epi, ale)

    def fit_and_score(rounds, alive):
        """Round ``rounds`` with the pool rows ``alive`` left: fit on the seed
        partition plus the moved rows, in dataset order, then its test F1 and
        the (epistemic, aleatoric) arrays of the pool left."""
        train_idx = np.sort(np.concatenate((seed_idx, pool0_idx[~alive])))
        key = (rounds, train_idx.tobytes())
        if key in memo:
            return memo[key]
        test_seed, score_seed = spawn_seeds(child_seed(eval_seed, rounds), 2)
        fitted = _fit_uq_model(spec, model, dataset.subset(train_idx), fit_seeds[rounds])
        f1 = method_report(method, fitted, test_ds, spec.mc_passes, test_seed).f1
        epi, ale = np.empty(0), np.empty(0)
        if alive.any():
            epi, ale = pool_uncertainty_records(fitted, dataset.X[pool0_idx[alive]], n_passes,
                                                make_rng(child_seed(score_seed, 0)),
                                                spec.uncertainty_source)
        memo[key] = f1, epi, ale
        return memo[key]

    def mean(values):
        return float(np.mean(values)) if len(values) else float("nan")

    results = []
    for config in configs:
        selector_rng = make_rng(selector_seed)
        alive = np.ones(pool0, dtype=bool)  # pool membership, in pool0_idx order
        picks: list = []  # dataset indices, in selection order
        rows: list[CurveRow] = []
        for rounds in range(len(fit_seeds)):
            if rounds:  # move one tranche from the pool
                live = np.flatnonzero(alive)  # the positions epi and ale score
                pos = live[_pick(dataset.ids[pool0_idx[live]], epi, ale, config, selector_rng)]
                alive[pos] = False
                picks.extend(pool0_idx[pos])
            f1, epi, ale = fit_and_score(rounds, alive)
            noisy = (mean(dataset.noise_tags[picks])
                     if dataset.noise_tags is not None else float("nan"))
            rows.append(CurveRow(rounds, len(picks) / pool0, f1, mean(epi), mean(ale), noisy))
        selected = [str(i) for i in dataset.ids[picks]]
        results.append(CurationResult(selected_ids=selected, rows=rows))
    return results
