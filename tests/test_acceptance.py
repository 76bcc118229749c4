"""Acceptance suite: one test per criterion, one PASS line each (run with -s).

The trend criteria (4-7) run the shipped standard-synthetic profile at 10
repetitions, exactly as the CLI would.  Heavy experiment results are shared
between criteria through module-scoped fixtures.  Repetitions use up to two
worker processes (UQCURATE_JOBS, defaulted here), which does not change any
output byte.
"""

import itertools
import json
import math
import os
import time

import numpy as np
import pytest

from helpers import gradcheck_model, load_tool, trace_select_one
from uqcurate.cli import main as cli_main
from uqcurate.curation import CurationConfig, UncertaintyRecord, curate
from uqcurate.data import load_csv
from uqcurate.experiments import (
    COMPARE,
    GROWTH,
    SHIFT,
    load_profile,
    run_data_growth_experiment,
    run_selector_comparison,
    run_shift_experiment,
    spec_from_mapping,
)
from uqcurate.metrics import brier, classification_report
from uqcurate.uq import (
    expected_entropy,
    mean_predictive,
    mutual_information,
    predictive_entropy,
    total_variance_decompose,
)

os.environ.setdefault("UQCURATE_JOBS", "2")

FIXTURE_CSV = os.path.join(os.path.dirname(__file__), "fixtures", "real_features_200.csv")

LN2 = math.log(2)

# the trend criteria's study specs and conditions, which the seed sweep of
# tools/criteria_seeds.py applies at other seeds
criteria = load_tool("criteria_seeds")


def report(criterion: int, name: str, detail: str = ""):
    suffix = f"  [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {criterion:2d} {name}: PASS{suffix}")


# ---------------------------------------------------------------------------
# shared experiment fixtures (standard synthetic profile, 10 repetitions)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def shift_result():
    t0 = time.time()
    result = run_shift_experiment(criteria.study_spec(SHIFT))
    return result, time.time() - t0


@pytest.fixture(scope="module")
def growth_result():
    t0 = time.time()
    result = run_data_growth_experiment(criteria.study_spec(GROWTH))
    return result, time.time() - t0


@pytest.fixture(scope="module")
def compare_result(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("compare")
    t0 = time.time()
    result = run_selector_comparison(criteria.study_spec(COMPARE), out_dir=str(out_dir))
    return result, time.time() - t0


# ---------------------------------------------------------------------------
# 1. gradient correctness
# ---------------------------------------------------------------------------


def test_criterion_1_gradient_correctness():
    t0 = time.time()
    worst = 0.0
    for head, seed in (("homo", 101), ("hetero", 202)):
        err = gradcheck_model(head, seed, hidden_layers=3, hidden_width=8)
        assert err < 1e-4, f"{head} gradient error {err}"
        worst = max(worst, err)
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report(1, "gradient correctness", f"max rel err {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. uncertainty identity suite
# ---------------------------------------------------------------------------


def test_criterion_2_uncertainty_identities():
    t0 = time.time()
    rng = np.random.default_rng(7)
    n_sets = 0
    for t_samples in (1, 2, 3, 5, 10, 30):
        n = 1000 // 6 + 1
        p1 = rng.random((n, t_samples))
        samples = np.stack([1 - p1, p1], axis=-1)
        n_sets += n

        p_bar = mean_predictive(samples)
        h_total = np.asarray(predictive_entropy(p_bar))
        h_exp = np.asarray(expected_entropy(samples))
        mi = np.asarray(mutual_information(samples))
        vt, ve, va = total_variance_decompose(samples)

        assert np.all(h_exp >= -1e-12) and np.all(h_exp <= h_total + 1e-9)
        assert np.all(h_total <= LN2 + 1e-9)
        assert np.all(np.abs(mi - np.maximum(h_total - h_exp, 0.0)) <= 1e-12)
        assert np.all(mi >= 0)
        # law-of-total-variance identity against the mixture Bernoulli variance
        mixture_var = p_bar[:, 1] * (1.0 - p_bar[:, 1])
        assert np.all(np.abs((va + ve) - mixture_var) <= 1e-12)
        assert np.all(np.abs(vt - (va + ve)) <= 1e-12)

        # permutation invariance of every estimator
        perm = rng.permutation(t_samples)
        shuffled = samples[:, perm, :]
        assert np.all(np.abs(mi - np.asarray(mutual_information(shuffled))) <= 1e-12)
        assert np.all(np.abs(h_exp - np.asarray(expected_entropy(shuffled))) <= 1e-12)
        vt2, ve2, va2 = total_variance_decompose(shuffled)
        assert np.all(np.abs(vt - vt2) <= 1e-12)
    elapsed = time.time() - t0
    assert n_sets >= 1000 and elapsed < 5.0
    report(2, "uncertainty identity suite", f"{n_sets} sample sets, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 3. selection-loop oracle equivalence
# ---------------------------------------------------------------------------


def test_criterion_3_selection_matches_trace_oracle():
    t0 = time.time()
    rng = np.random.default_rng(13)
    levels = np.array([0.0, 0.2, 0.4, 0.6, 0.8, 1.0])
    cases = 0
    for pool_no in itertools.count():
        n = int(rng.integers(1, 9))
        epi = rng.choice(levels, n)
        ale = rng.choice(levels, n)
        records = [
            UncertaintyRecord(f"p{i}", float(epi[i]), float(ale[i])) for i in range(n)
        ]
        pool = {r.id: (r.epistemic, r.aleatoric) for r in records}
        for n_ale in range(1, n + 1):
            [got] = curate(records, CurationConfig(n_to_select=1, n_ale=n_ale, selector="ehal"))
            want = trace_select_one(pool, n_ale, high_epistemic=True)
            assert got == want, (
                f"pool {pool} n_ale={n_ale}: implementation {got} vs trace {want}"
            )
            cases += 1
        if cases >= 10_000:
            break
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(3, "selection oracle equivalence",
           f"{cases} cases over {pool_no + 1} pools, zero mismatches, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. quality-shift trend
# ---------------------------------------------------------------------------


def test_criterion_4_shift_trend(shift_result):
    result, elapsed = shift_result
    check = criteria.shift_trend(result.rows)
    assert check.holds, check.line
    assert elapsed < 300.0
    report(4, "quality-shift trend", f"{check.line}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 5. ensemble superiority
# ---------------------------------------------------------------------------


def test_criterion_5_ensemble_superiority(shift_result):
    result, _ = shift_result
    check = criteria.ensemble_superiority(result.rows)
    assert check.holds, check.line
    report(5, "ensemble superiority", check.line)


# ---------------------------------------------------------------------------
# 6. data-growth trend
# ---------------------------------------------------------------------------


def test_criterion_6_data_growth_trend(growth_result):
    result, elapsed = growth_result
    check = criteria.growth_trend(result.rows)
    assert check.holds, check.line
    report(6, "data-growth trend", f"{check.line}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 7. selector ordering
# ---------------------------------------------------------------------------


def test_criterion_7_selector_ordering(compare_result, capsys):
    result, elapsed = compare_result
    at_checkpoint = [r for r in result.rows if r["round"] == criteria.CHECKPOINT_ROUND]
    assert all(r["fraction_added"] == pytest.approx(0.4) for r in at_checkpoint)

    code = cli_main([
        "report", result.outputs["wide_f1_csv"], "--col-a", "ehal", "--col-b", "elah",
        "--filter", f"round={criteria.CHECKPOINT_ROUND}",
    ])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["n_a"] == 10
    p = summary["p_one_sided_a_greater"]
    # the rank test the sweep runs on the runs rows gives the CLI's p
    assert criteria.selector_p(result.run_rows) == p
    check = criteria.selector_ordering(result.rows, p)
    assert check.holds, check.line
    assert elapsed < 900.0
    report(7, "selector ordering", f"{check.line}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 8. metric exactness
# ---------------------------------------------------------------------------


def test_criterion_8_metric_exactness():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 65))
        p1 = rng.random(n)
        probs = np.stack([1 - p1, p1], axis=1)
        labels = rng.integers(0, 2, n)
        naive = math.fsum(
            (probs[t][i] - (1.0 if labels[t] == i else 0.0)) ** 2
            for t in range(n) for i in range(2)
        ) / n
        worst = max(worst, abs(brier(probs, labels) - naive))
        assert worst <= 1e-14

        rep = classification_report(probs, labels)
        tp = sum(1 for t in range(n) if p1[t] > 0.5 and labels[t] == 1)
        fp = sum(1 for t in range(n) if p1[t] > 0.5 and labels[t] == 0)
        fn = sum(1 for t in range(n) if p1[t] <= 0.5 and labels[t] == 1)
        naive_f1 = 2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0
        assert rep.f1 == naive_f1

    # strict propriety: closed-form expected score is minimized at p = q
    grid = [0.05 * k for k in range(21)]
    for q in (0.1, 0.3, 0.5, 0.75, 0.9):
        scores = [q * 2 * (1 - p) ** 2 + (1 - q) * 2 * p**2 for p in grid]
        assert grid[int(np.argmin(scores))] == pytest.approx(q)
    report(8, "metric exactness", f"1000 batches, worst brier diff {worst:.1e}")


# ---------------------------------------------------------------------------
# 9. rerun determinism
# ---------------------------------------------------------------------------


def test_criterion_9_rerun_determinism(tmp_path):
    mapping = load_profile("smoke")
    spec = spec_from_mapping(COMPARE, mapping)
    r1 = run_selector_comparison(spec, out_dir=tmp_path / "run1")
    r2 = run_selector_comparison(spec, out_dir=tmp_path / "run2")
    checked = 0
    for key in ("summary_csv", "runs_csv", "wide_f1_csv"):
        b1 = open(r1.outputs[key], "rb").read()
        b2 = open(r2.outputs[key], "rb").read()
        assert b1 == b2, f"{key} differs between reruns"
        checked += 1
    report(9, "rerun determinism", f"{checked} result CSVs byte-identical")


# ---------------------------------------------------------------------------
# 10. user-supplied dataset hook
# ---------------------------------------------------------------------------


def test_criterion_10_real_csv_hook(tmp_path, capsys):
    ds = load_csv(FIXTURE_CSV)
    assert len(ds) == 200

    out_dir = tmp_path / "results"
    code = cli_main([
        "train", "--data", FIXTURE_CSV, "--out", str(out_dir),
        "--uq", "ensemble", "--head", "hetero", "--seed", "5",
    ])
    assert code == 0
    capsys.readouterr()

    mapping = {
        "data": FIXTURE_CSV, "intensities": "0,0.2", "repetitions": "2",
        "hidden_layers": "2", "hidden_width": "32", "max_epochs": "20",
        "ensemble_size": "2", "seed": "5",
    }
    spec = spec_from_mapping(SHIFT, mapping)
    result = run_shift_experiment(spec, out_dir=str(tmp_path / "shift"))
    assert len(result.rows) == 2
    assert all(0.0 <= r["mean_f1"] <= 1.0 for r in result.rows)
    report(10, "user dataset hook", "200-row fixture through train + shift pipeline")
