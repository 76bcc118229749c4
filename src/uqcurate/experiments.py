"""Reproducible experiment drivers.

Three studies, each emitting tidy CSV plus a JSON run manifest:

* quality shift    -- predictive performance and calibration versus additive
  feature-noise intensity, per weight-sampling method;
* data growth      -- epistemic/aleatoric uncertainty on a held-out test set
  as nested training subsets grow;
* selector compare -- learning curves of the curation loop for the ehal,
  elah and random selectors under shared seeds.

Result CSVs carry no timestamps, so a rerun with the same spec produces
byte-identical files; the timestamp lives only in the manifest.  File names
embed a hash of the resolved spec.  Set ``UQCURATE_JOBS`` to run repetitions
in parallel worker processes, at most one per repetition and per usable CPU
(results are assembled in index order either way, so the output does not
depend on the degree of parallelism).
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import itertools
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__ as _version
from .curation import (UNCERTAINTY_SOURCES, CurationConfig, curation_loops,
                       pool_uncertainty_records)
from .data import (
    Dataset,
    SplitSpec,
    SyntheticSpec,
    generate_synthetic,
    inject_shift,
    load_csv,
    split,
)
from .errors import ConfigError
from .models import (
    HETEROSCEDASTIC,
    UQ_METHODS,
    ModelConfig,
    fit_method,
    method_report,
    save_checkpoint,
)
from .nncore import child_seed, make_rng, spawn_seeds

SHIFT = "shift"
GROWTH = "data-growth"
COMPARE = "selector-compare"
TRAIN = "train"
KINDS = (SHIFT, GROWTH, COMPARE, TRAIN)


@dataclass
class ExperimentSpec:
    kind: str
    data_csv: str | None = None
    synthetic: SyntheticSpec | None = None
    head: str = "hetero"
    uq_methods: tuple[str, ...] = ("ensemble",)
    ensemble_size: int = 5
    mc_passes: int = 30
    hidden_layers: int = 3
    hidden_width: int = 300
    dropout: float = 0.1
    learning_rate: float = 1e-3
    max_epochs: int = 200
    patience: int = 5
    batch_size: int = 64
    train_fraction: float = 0.8
    val_fraction: float = 0.1
    intensities: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3, 0.4)
    growth_fractions: tuple[float, ...] = (0.6, 0.8, 1.0)
    selectors: tuple[str, ...] = ("ehal", "elah", "random")
    tranche_fraction: float = 0.1
    n_ale_fraction: float = 0.1
    seed_fraction: float = 0.2
    pool_fraction: float = 0.6
    # sizes nothing; the benchmark's select workload still reads it, and
    # ROADMAP item 2's rewrite of that workload deletes it
    decompose_draws: int = 200
    uncertainty_source: str = "entropy"
    repetitions: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"experiment kind must be one of {KINDS}, got {self.kind!r}")
        if (self.data_csv is None) == (self.synthetic is None):
            raise ConfigError("exactly one of data_csv / synthetic must be set")
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not all(math.isfinite(i) and i >= 0 for i in self.intensities):
            raise ConfigError("shift intensities must be finite and >= 0")
        unknown = set(self.uq_methods) - set(UQ_METHODS)
        if unknown:
            raise ConfigError(f"unknown uq methods {sorted(unknown)}; valid: {UQ_METHODS}")
        fractions = self.growth_fractions
        if not fractions or any(a >= b for a, b in zip(fractions, fractions[1:])):
            raise ConfigError("growth_fractions must be strictly ascending")
        if any(not 0.0 < f <= 1.0 for f in fractions):
            raise ConfigError("growth_fractions must lie in (0, 1]")
        if not (self.uq_methods and self.intensities and self.selectors):
            raise ConfigError("uq, intensities and selectors must each list at least one value")
        # a repeated entry would pool copies of one run as independent repetitions
        for key, values in (("uq", self.uq_methods), ("intensities", self.intensities),
                            ("selectors", self.selectors)):
            if len(set(values)) != len(values):
                raise ConfigError(f"{key} lists a value more than once: {list(values)}")
        if self.mc_passes < 1 or self.ensemble_size < 1:
            raise ConfigError("mc_passes and ensemble_size must be >= 1")
        if self.decompose_draws < 1:
            raise ConfigError("decompose_draws must be >= 1")
        if not 0.0 < self.tranche_fraction <= 1.0:
            raise ConfigError("tranche_fraction must be in (0, 1]")
        if self.uncertainty_source not in UNCERTAINTY_SOURCES:
            raise ConfigError(
                f"uncertainty_source must be one of {UNCERTAINTY_SOURCES}, "
                f"got {self.uncertainty_source!r}"
            )
        total = self.seed_fraction + self.pool_fraction
        if not (0.0 < self.seed_fraction and 0.0 < self.pool_fraction and total < 1.0):
            raise ConfigError("seed and pool fractions must be positive and sum below 1")
        # every key enters the digest, so every kind checks every key: the
        # model, split and selector configs check their own fields, built once
        # here so a bad value fails before any data is generated
        self.model_config(1)
        SplitSpec(self.train_fraction, self.val_fraction)
        for selector in self.selectors:
            CurationConfig(n_to_select=1, n_ale_fraction=self.n_ale_fraction,
                           selector=selector)
        if self.kind in (TRAIN, COMPARE) and len(self.uq_methods) != 1:
            raise ConfigError(f"{self.kind} fits one uq method, got {list(self.uq_methods)}")
        if self.kind == GROWTH:
            if self.head != HETEROSCEDASTIC:
                raise ConfigError("data-growth study requires head = hetero")
            if self.ensemble_size < 2:
                raise ConfigError("data-growth study needs ensemble_size >= 2")
            if self.uq_methods != ("ensemble",):
                raise ConfigError(f"data-growth study fits ensembles only, got uq "
                                  f"{list(self.uq_methods)}")
        if self.kind == COMPARE:
            uq = self.uq_methods[0]
            if uq not in ("ensemble", "mc-dropout"):
                raise ConfigError(
                    "curation needs multiple weight samples: uq_method must be "
                    f"'ensemble' or 'mc-dropout', got {uq!r}"
                )
            if uq == "ensemble" and self.ensemble_size < 2:
                raise ConfigError("ensemble_size must be >= 2 for uncertainty splits")
            if uq == "mc-dropout" and self.mc_passes < 2:
                raise ConfigError("mc_passes must be >= 2 for uncertainty splits")

    def model_config(self, input_dim: int) -> ModelConfig:
        """The model fields of this spec, which share their names with
        ``ModelConfig``'s."""
        own = {f.name for f in dataclasses.fields(self)}
        return ModelConfig(input_dim=input_dim, **{
            f.name: getattr(self, f.name)
            for f in dataclasses.fields(ModelConfig) if f.name in own})

    def resolved(self) -> dict:
        return dataclasses.asdict(self)  # recurses into ``synthetic``

    def digest(self) -> str:
        payload = json.dumps(self.resolved(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:10]


def _jobs() -> int:
    raw = os.environ.get("UQCURATE_JOBS", "1")
    try:
        jobs = int(raw)
    except ValueError:
        raise ConfigError(f"UQCURATE_JOBS must be an integer, got {raw!r}") from None
    if jobs < 1:
        raise ConfigError(f"UQCURATE_JOBS must be >= 1, got {raw!r}")
    return jobs


def _workers(n_tasks: int) -> int:
    """Worker processes for ``n_tasks`` repetitions: ``UQCURATE_JOBS``, capped
    at the task count and at the CPUs this process may run on (its affinity
    set where the platform has one, since a pinned process may use fewer than
    the machine has), so the cap bounds the processes any setting can start."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return min(_jobs(), n_tasks, cpus)


# BLAS threads in each repetition worker.  A BLAS library sizes its thread
# pool for the whole machine when numpy loads, so workers x BLAS threads would
# oversubscribe the cores; workers are spawned (not forked from a process whose
# BLAS is loaded) with these variables set, so the pin holds from the start.
WORKER_BLAS_THREADS = 1
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@contextlib.contextmanager
def _worker_blas_env():
    """Set the BLAS thread variables that spawned workers inherit, and restore
    this process's values afterwards."""
    saved = {var: os.environ.get(var) for var in _BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, str(WORKER_BLAS_THREADS)))
    try:
        yield
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value


def _map_reps(fn, args_list):
    """Run per-repetition work, optionally in spawned worker processes with
    BLAS pinned to ``WORKER_BLAS_THREADS``; order preserved."""
    workers = _workers(len(args_list))
    if workers <= 1:
        return [fn(a) for a in args_list]
    # imported here, so a run in this process never loads them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # the pool spawns its workers inside map, so the environment is set until
    # the pool has shut down
    with _worker_blas_env(), ProcessPoolExecutor(
            max_workers=workers, mp_context=multiprocessing.get_context("spawn")) as pool:
        return list(pool.map(fn, args_list))


def _rep_seeds(spec: ExperimentSpec, rep: int, k: int) -> list[int]:
    """The k seeds of repetition ``rep``: children [k*rep, k*rep + k) of the
    spec seed, built directly so no repetition spawns the others' seeds."""
    return [child_seed(spec.seed, k * rep + j) for j in range(k)]


def _csv_dataset(spec: ExperimentSpec) -> Dataset | None:
    """The spec's feature CSV, parsed and checked once before any repetition
    starts (so a bad file fails before compute); None for synthetic data."""
    return None if spec.data_csv is None else load_csv(spec.data_csv)


def _base_dataset(spec: ExperimentSpec, csv_data: Dataset | None, data_seed: int) -> Dataset:
    if csv_data is not None:
        return csv_data
    return generate_synthetic(spec.synthetic, make_rng(data_seed))


def _partitions(spec: ExperimentSpec, csv_data: Dataset | None, data_seed: int,
                split_seed: int) -> tuple[Dataset, Dataset, Dataset]:
    """The (train, val, test) split of the dataset drawn from ``data_seed``."""
    return split(_base_dataset(spec, csv_data, data_seed),
                 SplitSpec(spec.train_fraction, spec.val_fraction, seed=split_seed))


@dataclass
class ExperimentResult:
    spec: ExperimentSpec
    rows: list[dict]                      # aggregated rows
    run_rows: list[dict] = field(default_factory=list)   # per-repetition rows
    outputs: dict = field(default_factory=dict)


def _run_study(spec: ExperimentSpec, kind: str, one_rep, summarize, name: str,
               out_dir) -> ExperimentResult:
    """Run ``one_rep`` for every repetition, flatten its run rows in
    repetition order, aggregate them with ``summarize`` and, with ``out_dir``
    set, write the ``name``-prefixed result files."""
    if spec.kind != kind:
        raise ConfigError(f"spec kind is {spec.kind!r}, expected {kind!r}")
    csv_data = _csv_dataset(spec)
    per_rep = _map_reps(one_rep, [(spec, r, csv_data) for r in range(spec.repetitions)])
    run_rows = [row for rows in per_rep for row in rows]
    result = ExperimentResult(spec, summarize(spec, run_rows), run_rows)
    if out_dir is not None:
        _write_outputs(result, out_dir, name)
    return result


def _aggregate(run_rows: list[dict], levels, columns) -> list[dict]:
    """One summary row per combination of the ``levels`` values, first level
    outermost, skipping a combination no run row has.  ``levels`` holds
    (key, values) pairs and ``columns`` (summary column, run column,
    reducer) triples; a row holds the key values, each reducer over the
    group's run column as a float, then ``n_reps``, the group's size."""
    keys = [key for key, _ in levels]
    rows = []
    for combo in itertools.product(*(values for _, values in levels)):
        group = [r for r in run_rows if all(r[k] == v for k, v in zip(keys, combo))]
        if group:
            rows.append({**dict(zip(keys, combo)),
                         **{name: float(reduce([r[col] for r in group]))
                            for name, col, reduce in columns},
                         "n_reps": len(group)})
    return rows


# ---------------------------------------------------------------------------
# quality-shift study
# ---------------------------------------------------------------------------


def _shift_one_rep(args):
    spec, rep, csv_data = args
    data_seed, split_seed, balance_seed, shift_seed, fit_seed, eval_seed = _rep_seeds(spec, rep, 6)
    train_ds, val_ds, test_ds = _partitions(spec, csv_data, data_seed, split_seed)
    cfg = spec.model_config(train_ds.feature_dim)

    # one ensemble per intensity: ``train_ensemble`` seeds member i with
    # child i of ``fit_seed``, so its first member is bit for bit the one
    # model that a one-member ensemble holds, and vanilla and mc-dropout
    # (which differ only at prediction time) score that member
    size = spec.ensemble_size if "ensemble" in spec.uq_methods else 1
    cells = []
    intensity_seeds = spawn_seeds(shift_seed, len(spec.intensities))
    for intensity, iseed in zip(spec.intensities, intensity_seeds):
        irng = make_rng(iseed)
        tr = inject_shift(train_ds, intensity, irng)
        va = inject_shift(val_ds, intensity, irng)
        te = inject_shift(test_ds, intensity, irng)
        fitted = fit_method("ensemble", cfg, size, tr, va, balance_seed, fit_seed)
        for method in spec.uq_methods:
            scored = fitted if method == "ensemble" else fitted.members[0]
            report = method_report(method, scored, te, spec.mc_passes, eval_seed)
            cells.append({
                "method": method,
                "intensity": intensity,
                "rep": rep,
                "f1": report.f1,
                "brier": report.brier,
            })
    return cells


def _shift_summary(spec: ExperimentSpec, run_rows: list[dict]) -> list[dict]:
    return _aggregate(run_rows, (("method", spec.uq_methods), ("intensity", spec.intensities)),
                      (("mean_f1", "f1", np.mean), ("std_f1", "f1", np.std),
                       ("mean_brier", "brier", np.mean), ("std_brier", "brier", np.std)))


def run_shift_experiment(spec: ExperimentSpec, out_dir=None) -> ExperimentResult:
    """Mean +- std F1 and Brier per (method, intensity) over repetitions."""
    return _run_study(spec, SHIFT, _shift_one_rep, _shift_summary, "shift", out_dir)


# ---------------------------------------------------------------------------
# data-growth study
# ---------------------------------------------------------------------------


def nested_fractions(n: int, fractions, rng) -> list[np.ndarray]:
    """Nested index subsets: one permutation, ascending prefixes."""
    perm = rng.permutation(n)
    return [perm[: max(2, int(round(f * n)))] for f in fractions]


def _growth_one_rep(args):
    spec, rep, csv_data = args
    # six slots with the last unused, so every other seed keeps its value
    data_seed, split_seed, subset_seed, balance_seed, fit_seed, _ = _rep_seeds(spec, rep, 6)
    train_ds, val_ds, test_ds = _partitions(spec, csv_data, data_seed, split_seed)
    cfg = spec.model_config(train_ds.feature_dim)

    subsets = nested_fractions(len(train_ds), spec.growth_fractions, make_rng(subset_seed))
    cells = []
    for fraction, idx in zip(spec.growth_fractions, subsets):
        ensemble = fit_method("ensemble", cfg, spec.ensemble_size, train_ds.subset(idx),
                              val_ds, balance_seed, fit_seed)
        epi, ale = pool_uncertainty_records(ensemble, test_ds.X, None, None, "entropy")
        cells.append({
            "fraction": fraction,
            "rep": rep,
            "mean_epi": float(np.mean(epi)),
            "mean_ale": float(np.mean(ale)),
        })
    return cells


def _growth_summary(spec: ExperimentSpec, run_rows: list[dict]) -> list[dict]:
    rows = _aggregate(run_rows, (("fraction", spec.growth_fractions),),
                      (("mean_epi", "mean_epi", np.mean), ("std_epi", "mean_epi", np.std),
                       ("mean_ale", "mean_ale", np.mean), ("std_ale", "mean_ale", np.std)))
    # each mean's percent drop from the previous fraction (0 at the first)
    # follows the mean in the CSV
    for prev, row in zip([None, *rows], rows):
        for u in ("epi", "ale"):
            row[f"delta_{u}_pct"] = 0.0 if prev is None else (
                100.0 * (prev[f"mean_{u}"] - row[f"mean_{u}"]) / prev[f"mean_{u}"])
    return [{k: row[k] for k in ("fraction", "mean_epi", "delta_epi_pct", "std_epi",
                                 "mean_ale", "delta_ale_pct", "std_ale", "n_reps")}
            for row in rows]


def run_data_growth_experiment(spec: ExperimentSpec, out_dir=None) -> ExperimentResult:
    """Test-set mean uncertainties as nested training subsets grow, with
    relative deltas against the previous fraction."""
    return _run_study(spec, GROWTH, _growth_one_rep, _growth_summary, "growth", out_dir)


# ---------------------------------------------------------------------------
# selector comparison
# ---------------------------------------------------------------------------


def _compare_one_rep(args):
    spec, rep, csv_data = args
    data_seed, loop_seed = _rep_seeds(spec, rep, 2)
    base = _base_dataset(spec, csv_data, data_seed)
    # the selectors share one round 0 (the seed-only fit and pool scores)
    results = curation_loops(base, spec.selectors, spec, seed=loop_seed)
    return [{"selector": selector, "rep": rep, **dataclasses.asdict(row)}
            for selector, result in zip(spec.selectors, results)
            for row in result.rows]


def _compare_summary(spec: ExperimentSpec, run_rows: list[dict]) -> list[dict]:
    rounds = sorted({r["round"] for r in run_rows})
    return _aggregate(run_rows, (("selector", spec.selectors), ("round", rounds)),
                      (("fraction_added", "fraction_added", np.mean), ("mean_f1", "f1", np.mean),
                       ("std_f1", "f1", np.std), ("var_f1", "f1", np.var),
                       ("mean_selected_noisy_fraction", "selected_noisy_fraction", np.mean)))


def run_selector_comparison(spec: ExperimentSpec, out_dir=None) -> ExperimentResult:
    """Curation-loop learning curves per selector under shared seeds."""
    return _run_study(spec, COMPARE, _compare_one_rep, _compare_summary, "compare", out_dir)


def _write_wide_f1(result: ExperimentResult, out_dir) -> None:
    """Per-rep F1 with one column per selector, for rank-test reporting."""
    spec = result.spec
    path = os.path.join(out_dir, f"compare_f1_by_selector_{spec.digest()}.csv")
    keyed = {}
    for r in result.run_rows:
        keyed.setdefault((r["round"], r["fraction_added"], r["rep"]), {})[r["selector"]] = r["f1"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["round", "fraction_added", "rep", *spec.selectors])
        for (rnd, frac, rep), cols in sorted(keyed.items()):
            writer.writerow([rnd, repr(frac), rep] + [repr(cols[s]) for s in spec.selectors])
    result.outputs["wide_f1_csv"] = path


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------


def _format_cell(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_rows_csv(rows: list[dict], fields: list[str], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        for row in rows:
            writer.writerow([_format_cell(row[f]) for f in fields])


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_outputs(result: ExperimentResult, out_dir, name: str) -> None:
    """Summary and runs CSVs (columns in row-dict order), compare's wide F1
    CSV, then a manifest that lists them all."""
    os.makedirs(out_dir, exist_ok=True)
    spec = result.spec
    tag = spec.digest()
    jobs = _workers(spec.repetitions)
    for key, rows in (("summary", result.rows), ("runs", result.run_rows)):
        path = os.path.join(out_dir, f"{name}_{key}_{tag}.csv")
        write_rows_csv(rows, list(rows[0].keys()), path)
        result.outputs[f"{key}_csv"] = path
    if spec.kind == COMPARE:
        _write_wide_f1(result, out_dir)
    manifest = {
        "kind": spec.kind,
        "spec": spec.resolved(),
        "spec_digest": tag,
        "tool_version": _version,
        "timestamp_unix": time.time(),
        "input_digests": (
            {spec.data_csv: _sha256(spec.data_csv)} if spec.data_csv else {}
        ),
        "outputs": dict(result.outputs),
        "jobs": jobs,
        # null when the repetitions ran in this process
        "worker_blas_threads": WORKER_BLAS_THREADS if jobs > 1 else None,
    }
    manifest_path = os.path.join(out_dir, f"{name}_manifest_{tag}.json")
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    result.outputs["manifest_json"] = manifest_path


# ---------------------------------------------------------------------------
# config mapping (key=value files and CLI overrides)
# ---------------------------------------------------------------------------


def _float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(raw)
    return value


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(_float(v) for v in raw.split(",") if v.strip() != "")


def _strs(raw: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in raw.split(",") if v.strip() != "")


# one coercer per field annotation: every SyntheticSpec field is a config
# key, as is every ExperimentSpec field except the kind and the data source,
# and ``uq`` sets ``uq_methods``
_COERCER_BY_TYPE = {
    "str": str, "int": int, "float": _float,
    "tuple[str, ...]": _strs, "tuple[float, ...]": _floats,
}
_SYNTHETIC_KEYS = {f.name for f in dataclasses.fields(SyntheticSpec)}
_COERCERS = {
    ("uq" if f.name == "uq_methods" else f.name): _COERCER_BY_TYPE[f.type]
    for f in dataclasses.fields(SyntheticSpec) + dataclasses.fields(ExperimentSpec)
    if f.name not in ("kind", "data_csv", "synthetic")
}

VALID_CONFIG_KEYS = sorted({"data", *_COERCERS})


def _coerce(key: str, raw: str):
    try:
        return _COERCERS[key](raw)
    except ValueError:
        raise ConfigError(
            f"config key {key}={raw!r} has the wrong type or is not finite") from None


def spec_from_mapping(kind: str, mapping: dict[str, str]) -> ExperimentSpec:
    """Build an ExperimentSpec from string key=value pairs.

    Unknown keys are rejected with the full list of valid keys.  ``data``
    is either the literal ``synthetic`` (the synthetic generator keys then
    apply) or a path to a feature CSV.
    """
    unknown = set(mapping) - set(VALID_CONFIG_KEYS)
    if unknown:
        raise ConfigError(
            f"unknown config keys {sorted(unknown)}; valid keys: {VALID_CONFIG_KEYS}"
        )
    data = mapping.get("data", "synthetic")
    synthetic = _SYNTHETIC_KEYS & set(mapping)
    if data != "synthetic" and synthetic:
        raise ConfigError(f"synthetic keys {sorted(synthetic)} set but data is a CSV path")
    kwargs = {("uq_methods" if key == "uq" else key): _coerce(key, raw)
              for key, raw in mapping.items() if key != "data"}
    if data == "synthetic":
        kwargs["synthetic"] = SyntheticSpec(**{k: kwargs.pop(k) for k in synthetic})
    else:
        kwargs["data_csv"] = data
    return ExperimentSpec(kind=kind, **kwargs)


def load_profile(name: str) -> dict[str, str]:
    """Key=value mapping for a profile shipped inside the package."""
    from importlib import resources

    from .data import parse_kv_file

    ref = resources.files("uqcurate") / "profiles" / f"{name}.cfg"
    if not ref.is_file():
        available = sorted(
            p.name[: -len(".cfg")]
            for p in (resources.files("uqcurate") / "profiles").iterdir()
            if p.name.endswith(".cfg")
        )
        raise ConfigError(f"unknown profile {name!r}; available: {available}")
    with resources.as_file(ref) as path:
        return parse_kv_file(path)


# ---------------------------------------------------------------------------
# single training run (checkpoint + evaluation report)
# ---------------------------------------------------------------------------


def run_training(spec: ExperimentSpec, out_dir=None):
    """Standard protocol on one dataset: split, balance, fit the configured
    method, evaluate on the test partition.  Returns (fitted, report, paths);
    with ``out_dir`` set, writes the checkpoint and an EvalReport JSON."""
    if spec.kind != TRAIN:
        raise ConfigError(f"spec kind is {spec.kind!r}, expected {TRAIN!r}")
    method = spec.uq_methods[0]
    data_seed, split_seed, balance_seed, fit_seed, eval_seed = _rep_seeds(spec, 0, 5)
    train_ds, val_ds, test_ds = _partitions(spec, _csv_dataset(spec), data_seed, split_seed)
    fitted = fit_method(method, spec.model_config(train_ds.feature_dim), spec.ensemble_size,
                        train_ds, val_ds, balance_seed, fit_seed)
    report = method_report(method, fitted, test_ds, spec.mc_passes, eval_seed)
    outputs: dict = {}
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        tag = spec.digest()
        ckpt = os.path.join(out_dir, f"model_{tag}.npz")
        save_checkpoint(fitted, ckpt)
        report_path = os.path.join(out_dir, f"model_report_{tag}.json")
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump({"spec": spec.resolved(), "method": method,
                       "report": dataclasses.asdict(report)}, fh, indent=2, sort_keys=True)
        outputs = {"checkpoint": ckpt, "report_json": report_path}
    return fitted, report, outputs
