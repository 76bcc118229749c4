import concurrent.futures
import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from helpers import patch_fit_method, read_result_csv, summary_oracle
from uqcurate import experiments
from uqcurate.curation import curation_loop
from uqcurate.data import SplitSpec, SyntheticSpec, inject_shift, load_csv, split
from uqcurate.errors import ConfigError
from uqcurate.experiments import (
    COMPARE,
    GROWTH,
    SHIFT,
    TRAIN,
    ExperimentSpec,
    _base_dataset,
    _rep_seeds,
    load_profile,
    nested_fractions,
    run_data_growth_experiment,
    run_selector_comparison,
    run_shift_experiment,
    run_training,
    spec_from_mapping,
)
from uqcurate.models import MlpModel, method_report
from uqcurate.nncore import make_rng, spawn_seeds

SMOKE_DATA = dict(n_instances=160, feature_dim=6, noisy_fraction=0.25)
SMOKE_MODEL = dict(
    hidden_layers=1, hidden_width=8, max_epochs=4, batch_size=16,
    ensemble_size=2, mc_passes=4, decompose_draws=50,
)


def smoke_spec(kind, **overrides):
    kwargs = dict(
        kind=kind,
        synthetic=SyntheticSpec(**SMOKE_DATA),
        repetitions=1,
        seed=3,
        **SMOKE_MODEL,
    )
    kwargs.update(overrides)
    return ExperimentSpec(**kwargs)


class TestShift:
    def test_single_cell(self):
        spec = smoke_spec(SHIFT, intensities=(0.0,), uq_methods=("ensemble",))
        result = run_shift_experiment(spec)
        assert len(result.rows) == 1
        row = result.rows[0]
        assert row["n_reps"] == 1 and 0.0 <= row["mean_f1"] <= 1.0

    def test_row_count_is_methods_times_intensities(self):
        spec = smoke_spec(SHIFT, intensities=(0.0, 0.3), uq_methods=("vanilla", "ensemble"))
        result = run_shift_experiment(spec)
        assert len(result.rows) == 4
        assert len(result.run_rows) == 4  # x 1 repetition

    def test_vanilla_and_mc_dropout_share_one_fit(self, monkeypatch):
        from uqcurate.models import fit_method

        methods = ("vanilla", "mc-dropout", "ensemble")
        fits = []

        def recording_fit(method, cfg, size, *args):
            fits.append((method, size))
            return fit_method(method, cfg, size, *args)

        patch_fit_method(monkeypatch, recording_fit)
        shift = lambda uq: run_shift_experiment(smoke_spec(
            SHIFT, intensities=(0.0, 0.3), uq_methods=uq, ensemble_size=5)).run_rows
        combined = shift(methods)
        assert fits == [("ensemble", 5)] * 2
        # each method's rows are those it gives when it runs alone, which
        # for vanilla or mc-dropout is a one-member ensemble's
        for method in methods:
            fits.clear()
            alone = shift((method,))
            assert fits == [("ensemble", 5 if method == "ensemble" else 1)] * 2
            assert [r for r in combined if r["method"] == method] == alone

    def test_vanilla_scores_the_first_ensemble_member(self, monkeypatch):
        scored = {}

        def recording_report(method, fitted, *args):
            scored[method] = fitted
            return method_report(method, fitted, *args)

        monkeypatch.setattr(experiments, "method_report", recording_report)
        run_shift_experiment(smoke_spec(SHIFT, intensities=(0.3,),
                                        uq_methods=("vanilla", "ensemble"), ensemble_size=3))
        members = scored["ensemble"].members
        assert len(members) == 3
        assert np.array_equal(scored["vanilla"].flat_params, members[0].flat_params)
        assert not np.array_equal(members[0].flat_params, members[-1].flat_params)

    def test_scored_test_rows_carry_the_shift_noise(self, monkeypatch):
        # at a nonzero intensity the model is scored on the shifted test
        # partition, whose noise the intensity stream draws after the train
        # and validation noise; the clean test rows are never predicted
        spec = smoke_spec(SHIFT, intensities=(0.3,), uq_methods=("vanilla",))
        data_seed, split_seed, _, shift_seed, _, _ = _rep_seeds(spec, 0, 6)
        train, val, test = split(_base_dataset(spec, None, data_seed), SplitSpec(
            spec.train_fraction, spec.val_fraction, seed=split_seed))
        irng = make_rng(spawn_seeds(shift_seed, 1)[0])
        inject_shift(train, 0.3, irng)
        inject_shift(val, 0.3, irng)
        shifted = inject_shift(test, 0.3, irng)
        inputs = []
        raw_outputs = MlpModel.raw_outputs

        def recording(self, X, **kwargs):
            inputs.append(np.array(X, copy=True))
            return raw_outputs(self, X, **kwargs)

        monkeypatch.setattr(MlpModel, "raw_outputs", recording)
        run_shift_experiment(spec)
        assert not np.array_equal(shifted.X, test.X)
        assert any(np.array_equal(X, shifted.X) for X in inputs)
        assert not any(np.array_equal(X, test.X) for X in inputs)

    def test_outputs_and_determinism(self, tmp_path):
        spec = smoke_spec(SHIFT, intensities=(0.0,), uq_methods=("vanilla",))
        r1 = run_shift_experiment(spec, out_dir=tmp_path / "a")
        r2 = run_shift_experiment(spec, out_dir=tmp_path / "b")
        csv1 = open(r1.outputs["summary_csv"], "rb").read()
        csv2 = open(r2.outputs["summary_csv"], "rb").read()
        assert csv1 == csv2
        runs1 = open(r1.outputs["runs_csv"], "rb").read()
        runs2 = open(r2.outputs["runs_csv"], "rb").read()
        assert runs1 == runs2

    def test_manifest_contents(self, tmp_path):
        spec = smoke_spec(SHIFT, intensities=(0.0,), uq_methods=("vanilla",))
        result = run_shift_experiment(spec, out_dir=tmp_path)
        manifest = json.load(open(result.outputs["manifest_json"]))
        assert manifest["kind"] == SHIFT
        assert manifest["spec"]["seed"] == 3
        assert manifest["spec_digest"] == spec.digest()
        assert "timestamp_unix" in manifest
        for path in (result.outputs["summary_csv"], result.outputs["runs_csv"]):
            assert os.path.exists(path)

    def test_wrong_kind_rejected(self):
        with pytest.raises(ConfigError):
            run_shift_experiment(smoke_spec(GROWTH))


class TestGrowth:
    def test_single_fraction_zero_delta(self):
        spec = smoke_spec(GROWTH, growth_fractions=(1.0,))
        result = run_data_growth_experiment(spec)
        assert len(result.rows) == 1
        assert result.rows[0]["delta_epi_pct"] == 0.0

    def test_nested_subsets_property(self):
        subsets = nested_fractions(100, (0.6, 0.8, 1.0), make_rng(0))
        s60, s80, s100 = (set(s.tolist()) for s in subsets)
        assert s60 < s80 < s100
        assert len(s100) == 100

    def test_requires_dual_head(self):
        with pytest.raises(ConfigError):
            run_data_growth_experiment(smoke_spec(GROWTH, head="homo"))

    def test_deltas_match_means(self):
        spec = smoke_spec(GROWTH, growth_fractions=(0.6, 1.0))
        result = run_data_growth_experiment(spec)
        r0, r1 = result.rows
        expected = 100.0 * (r0["mean_epi"] - r1["mean_epi"]) / r0["mean_epi"]
        assert r1["delta_epi_pct"] == pytest.approx(expected)

    def test_needs_no_predictive_distributions(self, monkeypatch):
        # the decomposition takes the raw (mu, sigma) stacks only
        from uqcurate import curation, models

        def unused(*args, **kwargs):
            raise AssertionError("growth computed predictive distributions")

        monkeypatch.setattr(models, "predict_samples", unused)
        monkeypatch.setattr(curation, "predict_samples", unused)
        result = run_data_growth_experiment(smoke_spec(GROWTH, growth_fractions=(1.0,)))
        assert len(result.run_rows) == 1


class TestCompare:
    def test_single_selector_single_rep(self, tmp_path):
        spec = smoke_spec(COMPARE, selectors=("random",), tranche_fraction=0.5)
        result = run_selector_comparison(spec, out_dir=tmp_path)
        rounds = {r["round"] for r in result.rows}
        assert rounds == {0, 1, 2}
        assert all(r["selector"] == "random" for r in result.rows)

    def test_shared_seed_identical_baseline(self):
        spec = smoke_spec(COMPARE, selectors=("ehal", "elah", "random"),
                          tranche_fraction=0.5)
        result = run_selector_comparison(spec)
        baselines = {
            r["selector"]: r["f1"]
            for r in result.run_rows if r["round"] == 0
        }
        assert len(set(baselines.values())) == 1

    def test_wide_f1_csv_written(self, tmp_path):
        spec = smoke_spec(COMPARE, selectors=("ehal", "random"), tranche_fraction=0.5)
        result = run_selector_comparison(spec, out_dir=tmp_path)
        wide = open(result.outputs["wide_f1_csv"]).read().splitlines()
        assert wide[0] == "round,fraction_added,rep,ehal,random"
        assert len(wide) == 1 + 3  # header + 3 rounds x 1 rep

    def test_round_zero_fit_once_per_repetition(self, monkeypatch):
        # the seed-only and the full-pool fits are the same for every
        # selector, so a repetition fits 2 + S*(R-2) times for S selectors
        # and R rounds, not S*R
        import uqcurate.curation as curation

        fits = []
        fit = curation._fit_uq_model

        def recording_fit(*args):
            fits.append(args)
            return fit(*args)

        monkeypatch.setattr(curation, "_fit_uq_model", recording_fit)
        monkeypatch.setenv("UQCURATE_JOBS", "1")
        spec = smoke_spec(COMPARE, selectors=("ehal", "elah", "random"),
                          tranche_fraction=0.5, repetitions=2)
        result = run_selector_comparison(spec)
        n_rounds = len({r["round"] for r in result.run_rows})
        assert n_rounds == 3
        assert len(fits) == spec.repetitions * (2 + 3 * (n_rounds - 2))

    def test_every_round_fits_in_dataset_order_and_full_pool_once(self, monkeypatch):
        # every round trains on its set in ascending dataset order; the last
        # round of every selector trains on the seed partition plus the whole
        # pool: one fit per repetition, with the last draw of the round stream
        import uqcurate.curation as curation

        fits = []
        fit = curation._fit_uq_model

        def recording_fit(spec, model, train_ds, seed):
            fits.append((train_ds.ids.tolist(), seed))
            return fit(spec, model, train_ds, seed)

        monkeypatch.setattr(curation, "_fit_uq_model", recording_fit)
        monkeypatch.setenv("UQCURATE_JOBS", "1")
        spec = smoke_spec(COMPARE, selectors=("ehal", "elah", "random"),
                          tranche_fraction=0.5, repetitions=2)
        result = run_selector_comparison(spec)
        last = max(r["round"] for r in result.run_rows)
        per_rep = len(fits) // spec.repetitions  # UQCURATE_JOBS=1 runs them in order
        for rep in range(spec.repetitions):
            data_seed, loop_seed = _rep_seeds(spec, rep, 2)
            base = _base_dataset(spec, None, data_seed)
            position = {i: k for k, i in enumerate(base.ids.tolist())}
            for ids, _ in fits[rep * per_rep : (rep + 1) * per_rep]:
                rows = [position[i] for i in ids]
                assert rows == sorted(rows)
            split_seed, _, _, round_seed = spawn_seeds(loop_seed, 4)
            perm = make_rng(split_seed).permutation(len(base))
            n_in = round(spec.seed_fraction * len(base)) + round(spec.pool_fraction * len(base))
            full = base.ids[np.sort(perm[:n_in])].tolist()
            round_rng = make_rng(round_seed)
            fit_seed = [int(round_rng.integers(0, 2**63)) for _ in range(last + 1)][-1]
            assert [seed for ids, seed in fits if sorted(ids) == sorted(full)] == [fit_seed]
            assert [ids for ids, seed in fits if seed == fit_seed] == [full]
            last_f1 = {r["selector"]: r["f1"] for r in result.run_rows
                       if r["rep"] == rep and r["round"] == last}
            assert len(last_f1) == 3 and len(set(last_f1.values())) == 1

    def test_rerun_byte_identical(self, tmp_path):
        spec = smoke_spec(COMPARE, selectors=("ehal",), tranche_fraction=0.5)
        r1 = run_selector_comparison(spec, out_dir=tmp_path / "x")
        r2 = run_selector_comparison(spec, out_dir=tmp_path / "y")
        for key in ("summary_csv", "runs_csv", "wide_f1_csv"):
            assert open(r1.outputs[key], "rb").read() == open(r2.outputs[key], "rb").read()


class TestSummaryOracle:
    # every column of every summary row against a recomputation from the runs
    # CSV that uses no numpy; three repetitions and three growth fractions, so
    # a sample std or a delta against the first fraction would show
    KEYS = {"method", "intensity", "fraction", "selector", "round", "n_reps"}

    @pytest.mark.parametrize("kind, runner, overrides", [
        (SHIFT, run_shift_experiment, {"uq": "vanilla,ensemble"}),
        (GROWTH, run_data_growth_experiment, {"growth_fractions": "0.4,0.7,1.0"}),
        (COMPARE, run_selector_comparison, {}),
    ], ids=["shift", "growth", "compare"])
    def test_every_summary_column(self, tmp_path, kind, runner, overrides):
        spec = spec_from_mapping(kind, {**load_profile("smoke"), "repetitions": "3",
                                        **overrides})
        result = runner(spec, out_dir=tmp_path)
        header, summary = read_result_csv(result.outputs["summary_csv"])
        _, runs = read_result_csv(result.outputs["runs_csv"])
        expected = summary_oracle(spec, runs)
        assert header == list(expected[0])
        assert len(summary) == len(expected) and len(runs) == 3 * len(expected)
        for got, want in zip(summary, expected):
            for column, value in want.items():
                if column in self.KEYS:
                    assert got[column] == value, column
                else:
                    assert got[column] == pytest.approx(value, rel=1e-12, nan_ok=True), column


class TestParallelism:
    @pytest.mark.parametrize("kind, runner, overrides", [
        (SHIFT, run_shift_experiment, dict(intensities=(0.0,), uq_methods=("vanilla",))),
        (GROWTH, run_data_growth_experiment, dict(growth_fractions=(0.6, 1.0))),
        (COMPARE, run_selector_comparison,
         dict(selectors=("ehal", "random"), tranche_fraction=0.5)),
    ], ids=["shift", "growth", "compare"])
    def test_jobs_env_does_not_change_results(self, tmp_path, monkeypatch, kind, runner,
                                              overrides):
        spec = smoke_spec(kind, repetitions=2, **overrides)
        monkeypatch.setenv("UQCURATE_JOBS", "1")
        seq = runner(spec, out_dir=tmp_path / "seq")
        monkeypatch.setenv("UQCURATE_JOBS", "2")
        par = runner(spec, out_dir=tmp_path / "par")
        csvs = [key for key in seq.outputs if key.endswith("_csv")]
        assert "runs_csv" in csvs
        for key in csvs:
            assert open(seq.outputs[key], "rb").read() == open(par.outputs[key], "rb").read()


    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_compare_rows_equal_each_selector_run_alone(self, monkeypatch, jobs):
        # every selector continues from the shared round 0; its rows must be
        # those of its own curation loop, in this process or in a worker
        spec = smoke_spec(COMPARE, selectors=("ehal", "elah", "random"),
                          tranche_fraction=0.5, repetitions=2)
        monkeypatch.setenv("UQCURATE_JOBS", jobs)
        shared = run_selector_comparison(spec).run_rows
        alone = []
        for rep in range(spec.repetitions):
            data_seed, loop_seed = _rep_seeds(spec, rep, 2)
            base = _base_dataset(spec, None, data_seed)
            alone += [{"selector": selector, "rep": rep, **dataclasses.asdict(row)}
                      for selector in spec.selectors
                      for row in curation_loop(base, selector, spec, seed=loop_seed).rows]
        assert len(shared) == len(alone) == 2 * 3 * 3

        def cells(rows):  # repr, so that NaN cells compare equal
            return [[(k, repr(v)) for k, v in row.items()] for row in rows]

        assert cells(shared) == cells(alone)


class TestManifest:
    @pytest.mark.parametrize("kind, runner, overrides", [
        (SHIFT, run_shift_experiment, dict(intensities=(0.0,), uq_methods=("vanilla",))),
        (GROWTH, run_data_growth_experiment, dict(growth_fractions=(1.0,))),
        (COMPARE, run_selector_comparison, dict(selectors=("ehal",), tranche_fraction=0.5)),
    ], ids=["shift", "growth", "compare"])
    def test_lists_every_csv_written(self, tmp_path, kind, runner, overrides):
        result = runner(smoke_spec(kind, **overrides), out_dir=tmp_path)
        manifest = json.load(open(result.outputs["manifest_json"]))
        csvs = {k: v for k, v in result.outputs.items() if v.endswith(".csv")}
        assert "runs_csv" in csvs
        assert {k: manifest["outputs"].get(k) for k in csvs} == csvs


class _RecordingExecutor:
    """Stands in for ProcessPoolExecutor: records max_workers, the start
    method of the context and the BLAS thread variables that workers would
    inherit, and runs the work in this process, so no worker is ever
    started."""

    created: list = []
    contexts: list = []
    environments: list = []

    def __init__(self, max_workers, mp_context=None):
        self.created.append(max_workers)
        self.contexts.append(mp_context and mp_context.get_start_method())
        self.environments.append({var: os.environ.get(var) for var in _BLAS_VARS})

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, args):
        return map(fn, args)


_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class TestWorkerCap:
    @pytest.fixture
    def executor(self, monkeypatch):
        _RecordingExecutor.created = []
        _RecordingExecutor.contexts = []
        _RecordingExecutor.environments = []
        # _map_reps imports the pool class only when it starts workers
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingExecutor)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
        monkeypatch.setenv("UQCURATE_JOBS", "100000")
        return _RecordingExecutor

    @pytest.mark.parametrize("n_tasks, expected", [(3, 3), (10, 4)])
    def test_workers_capped_by_tasks_and_cpus(self, executor, n_tasks, expected):
        from uqcurate.experiments import _map_reps

        assert _map_reps(abs, list(range(-n_tasks, 0))) == list(range(n_tasks, 0, -1))
        assert executor.created == [expected]

    def test_workers_are_spawned_with_blas_on_one_thread(self, executor, monkeypatch):
        from uqcurate.experiments import _map_reps

        monkeypatch.setenv("OMP_NUM_THREADS", "4")
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        assert _map_reps(abs, [-1, -2]) == [1, 2]
        assert executor.contexts == ["spawn"]
        assert executor.environments == [dict.fromkeys(_BLAS_VARS, "1")]
        # this process's own values come back once the pool is done
        assert os.environ["OMP_NUM_THREADS"] == "4"
        assert "OPENBLAS_NUM_THREADS" not in os.environ

    def test_single_task_starts_no_pool(self, executor):
        from uqcurate.experiments import _map_reps

        assert _map_reps(abs, [-1]) == [1]
        assert executor.created == []

    def test_one_cpu_affinity_starts_no_pool(self, executor, monkeypatch):
        # a process pinned to one CPU of a larger machine runs in-process
        from uqcurate.experiments import _map_reps

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert _map_reps(abs, [-1, -2, -3]) == [1, 2, 3]
        assert executor.created == []

    def test_import_loads_no_process_pool(self):
        code = ("import sys, uqcurate.experiments; "
                "assert 'multiprocessing' not in sys.modules, 'multiprocessing'; "
                "assert 'concurrent.futures.process' not in sys.modules, 'process'")
        subprocess.run([sys.executable, "-c", code], check=True)

    def test_manifest_records_workers_used(self, executor, tmp_path):
        spec = smoke_spec(SHIFT, intensities=(0.0,), uq_methods=("vanilla",),
                          repetitions=2)
        result = run_shift_experiment(spec, out_dir=tmp_path)
        assert executor.created == [2]
        manifest = json.load(open(result.outputs["manifest_json"]))
        assert manifest["jobs"] == 2 and manifest["worker_blas_threads"] == 1


class TestTraining:
    def test_report_and_checkpoint(self, tmp_path):
        spec = smoke_spec(TRAIN, uq_methods=("ensemble",))
        fitted, report, outputs = run_training(spec, out_dir=tmp_path)
        assert 0.0 <= report.f1 <= 1.0
        assert os.path.exists(outputs["checkpoint"])
        payload = json.load(open(outputs["report_json"]))
        assert payload["report"]["f1"] == report.f1

    def test_no_files_without_out_dir(self):
        spec = smoke_spec(TRAIN, uq_methods=("vanilla",))
        _, report, outputs = run_training(spec)
        assert outputs == {}


class TestSpecMapping:
    def test_round_trip_from_mapping(self):
        mapping = {
            "data": "synthetic",
            "n_instances": "300",
            "feature_dim": "5",
            "uq": "vanilla,ensemble",
            "intensities": "0,0.2",
            "decompose_draws": "40",
            "repetitions": "2",
            "seed": "11",
        }
        spec = spec_from_mapping(SHIFT, mapping)
        assert spec.synthetic.n_instances == 300
        assert spec.uq_methods == ("vanilla", "ensemble")
        assert spec.intensities == (0.0, 0.2)
        assert spec.decompose_draws == 40 and spec.repetitions == 2

    def test_valid_config_keys(self):
        from uqcurate.experiments import VALID_CONFIG_KEYS

        assert VALID_CONFIG_KEYS == [
            "batch_size", "cluster_std", "data", "decompose_draws", "dropout",
            "ensemble_size", "feature_dim", "growth_fractions", "head",
            "hidden_layers", "hidden_width", "imbalance", "intensities",
            "label_flip_probability", "learning_rate", "max_epochs",
            "mc_passes", "n_ale_fraction", "n_instances", "noise_scale",
            "noisy_fraction", "patience", "pool_fraction", "repetitions", "seed",
            "seed_fraction", "selectors", "separation", "train_fraction",
            "tranche_fraction", "uncertainty_source", "uq", "val_fraction",
        ]
        assert len(VALID_CONFIG_KEYS) == 33

    def test_unknown_key_lists_valid_keys(self):
        with pytest.raises(ConfigError, match="valid keys"):
            spec_from_mapping(SHIFT, {"bogus_key": "1"})

    def test_csv_data_source(self, tmp_path):
        spec = spec_from_mapping(SHIFT, {"data": "some/file.csv"})
        assert spec.data_csv == "some/file.csv" and spec.synthetic is None

    def test_synthetic_keys_with_csv_rejected(self):
        with pytest.raises(ConfigError):
            spec_from_mapping(SHIFT, {"data": "x.csv", "n_instances": "10"})

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_intensity_rejected(self, value):
        # rejected before any data is generated or model fitted
        with pytest.raises(ConfigError, match="intensities"):
            smoke_spec(SHIFT, intensities=(0.0, value))

    def test_bad_type_rejected(self):
        with pytest.raises(ConfigError, match="wrong type"):
            spec_from_mapping(SHIFT, {"repetitions": "many"})

    def test_profiles_load(self):
        std = load_profile("standard-synthetic")
        assert std["n_instances"] == "2000" and std["noisy_fraction"] == "0.3"
        smoke = load_profile("smoke")
        assert smoke["repetitions"] == "1"
        spec = spec_from_mapping(COMPARE, smoke)
        assert spec.synthetic.n_instances == 200

    def test_unknown_profile(self):
        with pytest.raises(ConfigError, match="available"):
            load_profile("nope")


class TestCsvHook:
    def test_pipeline_runs_on_user_csv(self):
        # checked-in fixture mimicking an externally produced feature file
        path = os.path.join(os.path.dirname(__file__), "fixtures", "real_features_200.csv")
        spec = ExperimentSpec(
            kind=SHIFT, data_csv=path, intensities=(0.0,),
            uq_methods=("ensemble",), repetitions=1, seed=1, **SMOKE_MODEL,
        )
        result = run_shift_experiment(spec)
        assert len(result.rows) == 1
        assert 0.0 <= result.rows[0]["mean_f1"] <= 1.0

    def test_csv_parsed_once_per_study(self, monkeypatch):
        calls = []

        def counting_load_csv(path):
            calls.append(path)
            return load_csv(path)

        monkeypatch.setattr(experiments, "load_csv", counting_load_csv)
        path = os.path.join(os.path.dirname(__file__), "fixtures", "real_features_200.csv")
        spec = ExperimentSpec(
            kind=SHIFT, data_csv=path, intensities=(0.0,),
            uq_methods=("vanilla",), repetitions=3, seed=1, **SMOKE_MODEL,
        )
        result = run_shift_experiment(spec)
        assert calls == [path]
        assert [r["rep"] for r in result.run_rows] == [0, 1, 2]
