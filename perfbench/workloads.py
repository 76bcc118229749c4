"""The benchmark's workloads: set-up, one timed pass, and the checks.

Each workload is a ``Workload`` with three functions:

* ``setup(seed, size)`` builds the inputs from the seed (everything a user
  pays once before the first pass);
* ``run(state)`` is one timed pass through the library's public API;
* ``evaluate(state, out)`` returns ``(rows, quality, problems)``: the result
  rows that must repeat byte for byte, the quality metrics, and a list of
  failed checks (empty when the pass is correct).

Library functions are looked up through their module at call time
(``models.train_ensemble``, not a name bound at import), so the tracer's
wrappers see every call the benchmark makes.

Why these workloads:

* ``compare`` -- the selector-compare study (ehal, elah, random), the
  repository's headline; dominated by dual-head training (sampled NLL, Adam,
  linear and dropout layers), with the selector walk as a small share.
* ``shift-homo`` -- the quality-shift study with the single-logit head and
  all three weight-sampling methods: softmax cross-entropy instead of the
  sampled NLL and dropout passes instead of members, and no selector, so an
  NLL or selector change must leave it flat.
* ``select`` -- the README quick-tour path at library scale: no training in
  a pass, which scores a pool much larger than the profile's and runs the
  ehal and elah walks, so prediction, ``uq`` and ``curation`` do most of the
  work.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, NamedTuple

import numpy as np

from uqcurate import curation, data, experiments, metrics, models, uq
from uqcurate.nncore import make_rng, spawn_seeds

import reference

PROFILE = {"standard": "standard-synthetic", "smoke": "smoke"}

# Shapes per size.  Keys of "compare", "shift-homo" and "select" override
# the profile.
SHAPES = {
    "standard": {
        # The profile's data distribution and models.  Every fit runs the
        # same number of epochs (patience = max_epochs), so the work of a
        # pass does not depend on where early stopping lands for a seed;
        # compare and shift-homo fits run 6 epochs, the fewest any fit of
        # the profile runs (patience 5 after the first epoch).  compare:
        # half the candidate pool and a coarser tranche keep one pass of
        # all three selectors to about five seconds, so a run times several
        # passes.  shift-homo: three repetitions average out the
        # seed-to-seed spread of the balanced training size.
        "compare": {"tranche_fraction": "0.25", "pool_fraction": "0.3",
                    "max_epochs": "6", "patience": "6"},
        "shift-homo": {"repetitions": "3", "max_epochs": "6", "patience": "6"},
        "select": {"max_epochs": "10", "patience": "10"},
        "select_pool": 20000,
        "select_picks": 20,
        "reference_picks": 3,
        "setup_repeats": {"compare": 5, "shift-homo": 5, "select": 3},
    },
    "smoke": {
        "compare": {},
        "shift-homo": {},
        "select": {},
        "select_pool": 400,
        "select_picks": 5,
        "reference_picks": 5,
        "setup_repeats": {"compare": 2, "shift-homo": 2, "select": 2},
    },
}


class Workload(NamedTuple):
    setup: Callable
    run: Callable
    evaluate: Callable


def _spec(kind: str, seed: int, size: str, overrides: dict) -> experiments.ExperimentSpec:
    mapping = experiments.load_profile(PROFILE[size])
    mapping.update(overrides)
    mapping["seed"] = str(seed)
    return experiments.spec_from_mapping(kind, mapping)


def _finite_nonneg(values) -> bool:
    a = np.asarray(values, dtype=np.float64)
    return bool(np.all(np.isfinite(a)) and np.all(a >= 0.0))


def _f1_problems(f1s) -> list[str]:
    bad = [f for f in f1s if not 0.0 <= f <= 1.0]
    return [f"F1 outside [0, 1]: {bad[:3]}"] if bad else []


# ---------------------------------------------------------------------------
# compare: one repetition of the selector-compare study
# ---------------------------------------------------------------------------


def compare_setup(seed: int, size: str):
    overrides = {"repetitions": "1", **SHAPES[size]["compare"]}
    return _spec(experiments.COMPARE, seed, size, overrides)


def compare_run(spec):
    return experiments.run_selector_comparison(spec)


def compare_evaluate(spec, result):
    rows = result.run_rows
    problems = _f1_problems([r["f1"] for r in rows])
    last_round = {}
    for r in rows:
        last_round[r["selector"]] = max(last_round.get(r["selector"], 0), r["round"])
    # the final round of a selector scores an empty pool (NaN by design)
    scored = [r for r in rows if r["round"] < last_round[r["selector"]]]
    if not _finite_nonneg([[r["mean_epi"], r["mean_ale"]] for r in scored]):
        problems.append("pool uncertainties not finite and >= 0")
    ehal_final = [r for r in rows if r["selector"] == "ehal"
                  and r["round"] == last_round["ehal"]]
    quality = {
        "f1_mean": float(np.mean([r["f1"] for r in rows])),
        "noisy_pick_frac": ehal_final[0]["selected_noisy_fraction"],
    }
    return rows, quality, problems


# ---------------------------------------------------------------------------
# shift-homo: the quality-shift study, single-logit head, all uq methods
# ---------------------------------------------------------------------------


def shift_setup(seed: int, size: str):
    overrides = {"head": "homo", "uq": "vanilla,mc-dropout,ensemble",
                 **SHAPES[size]["shift-homo"]}
    return _spec(experiments.SHIFT, seed, size, overrides)


def shift_run(spec):
    return experiments.run_shift_experiment(spec)


def shift_evaluate(spec, result):
    rows = result.run_rows
    problems = _f1_problems([r["f1"] for r in rows])
    briers = [r["brier"] for r in rows]
    if not (_finite_nonneg(briers) and max(briers) <= 2.0):
        problems.append("Brier score outside [0, 2]")
    quality = {
        "f1_mean": float(np.mean([r["f1"] for r in rows])),
        "brier_mean": float(np.mean(briers)),
    }
    return rows, quality, problems


# ---------------------------------------------------------------------------
# select: score a large pool with a trained ensemble and run the selectors
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class SelectState:
    spec: experiments.ExperimentSpec
    ensemble: models.Ensemble
    pool: data.Dataset
    eval_seed: int
    picks: int
    reference_picks: int


def select_setup(seed: int, size: str) -> SelectState:
    shapes = SHAPES[size]
    spec = _spec(experiments.COMPARE, seed, size, {"head": "hetero", **shapes["select"]})
    data_seed, split_seed, balance_seed, fit_seed, eval_seed = spawn_seeds(seed, 5)
    # one draw from the generator, so the pool shares the training
    # distribution (each call draws its own class direction)
    n_train = spec.synthetic.n_instances
    full = data.generate_synthetic(
        dataclasses.replace(spec.synthetic, n_instances=n_train + shapes["select_pool"]),
        make_rng(data_seed))
    base = full.subset(np.arange(n_train))
    pool = full.subset(np.arange(n_train, len(full)))
    train, val, _ = data.split(base, data.SplitSpec(
        spec.train_fraction, spec.val_fraction, seed=split_seed))
    fit = data.undersample_balance(train, make_rng(balance_seed))
    ensemble = models.train_ensemble(
        spec.model_config(base.feature_dim), spec.ensemble_size,
        fit.X, fit.y, val.X, val.y, seed=fit_seed)
    return SelectState(spec, ensemble, pool, eval_seed,
                       shapes["select_picks"], shapes["reference_picks"])


def select_run(st: SelectState):
    rng = make_rng(st.eval_seed)
    X = st.pool.X
    mu, sigma = models.hetero_raw_outputs(st.ensemble, X, rng=rng)
    member_probs = models.predict_ensemble(st.ensemble, X, rng=rng)
    summaries = uq.summarize_hetero(mu, sigma, member_probs,
                                    n_draws=st.spec.decompose_draws, rng=rng)
    records = [
        curation.UncertaintyRecord(id=str(st.pool.ids[i]), epistemic=s.entropy_epistemic,
                                   aleatoric=s.entropy_aleatoric)
        for i, s in enumerate(summaries)
    ]
    picks = {
        selector: curation.curate(records, curation.CurationConfig(
            n_to_select=st.picks, n_ale_fraction=st.spec.n_ale_fraction, selector=selector))
        for selector in ("ehal", "elah")
    }
    report = metrics.classification_report(uq.mean_predictive(member_probs), st.pool.y)
    return records, picks, report


def select_evaluate(st: SelectState, out):
    records, picks, report = out
    problems = _f1_problems([report.f1])
    epi = [r.epistemic for r in records]
    ale = [r.aleatoric for r in records]
    if not _finite_nonneg([epi, ale]):
        problems.append("pool uncertainties not finite and >= 0")
    for selector, high in (("ehal", True), ("elah", False)):
        want = reference.first_picks(records, st.reference_picks,
                                     st.spec.n_ale_fraction, high)
        if picks[selector][: len(want)] != want:
            problems.append(f"{selector} picks {picks[selector][:len(want)]} "
                            f"differ from the reference walk {want}")
    noisy = dict(zip(st.pool.ids.tolist(), st.pool.noise_tags.tolist()))
    rows = {
        "picks": picks,
        "f1": report.f1,
        "brier": report.brier,
        "epistemic_sum": math.fsum(epi),
        "aleatoric_sum": math.fsum(ale),
    }
    quality = {
        "f1_mean": report.f1,
        "brier_mean": report.brier,
        "noisy_pick_frac": float(np.mean([noisy[i] for i in picks["ehal"]])),
    }
    return rows, quality, problems


WORKLOADS = {
    "compare": Workload(compare_setup, compare_run, compare_evaluate),
    "shift-homo": Workload(shift_setup, shift_run, shift_evaluate),
    "select": Workload(select_setup, select_run, select_evaluate),
}
