import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import load_tool

TOOL = Path(__file__).resolve().parent.parent / "tools" / "smoke_digests.py"


def test_smoke_digests_runs_every_command():
    # each of the tool's commands must still run on the packaged smoke profile
    proc = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""  # a command writing to stderr fails the tool
    lines = proc.stdout.splitlines()
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines), lines
    paths = [line.split("  ", 1)[1] for line in lines]
    assert len(lines) == 43 and len(set(paths)) == 43


def test_smoke_digests_names_a_command_that_writes_to_stderr(tmp_path, monkeypatch):
    smoke_digests = load_tool("smoke_digests")
    monkeypatch.setattr(smoke_digests, "COMMANDS",
                        [("train/no-config", ["train", "--config", "none.cfg"])])
    with pytest.raises(SystemExit) as exc:
        smoke_digests.digests(smoke_digests.REPO / "src", tmp_path)
    assert str(exc.value).startswith("error: train/no-config (uqcurate train --config")
    assert "exited 2, stderr:\nerror:" in str(exc.value)


def test_bench_pairs_summary_counts_wins_and_quartiles():
    bench_pairs = load_tool("bench_pairs")

    def run(value):
        return {"correct": True, "metrics": {"pass_cpu_s": {"value": value, "unit": "s"}}}

    pairs = [{"parent": run(p), "change": run(c)}
             for p, c in ((2.0, 1.0), (3.0, 1.5), (4.0, 4.5), (5.0, 2.0))]
    summary = bench_pairs.summarize(pairs, {"pass_cpu_s": "lower"})["pass_cpu_s"]
    assert summary["change_wins"] == 3
    assert summary["parent"] == {"median": 3.5, "q1": 2.75, "q3": 4.25, "iqr": 1.5, "n": 4}
    assert summary["change"]["median"] == 1.75


def test_bench_pairs_headline_summary_checks_digests_per_job_count():
    bench_pairs = load_tool("bench_pairs")

    def run(side, jobs, wall, digests, exit_code=0):
        return {"side": side, "jobs": jobs, "wall_s": wall, "cpu_s": 2 * wall,
                "exit_code": exit_code, "digests": digests}

    same, other = {"compare_runs.csv": "a", "compare_summary.csv": "b"}, {"compare_runs.csv": "c"}
    runs = [run("parent", 1, 10.0, same), run("change", 1, 9.0, same),
            run("change", 1, 11.0, same), run("parent", 1, 12.0, same),
            # at 2 jobs the change writes other CSVs once, and one parent run fails
            run("parent", 2, 5.0, same), run("change", 2, 4.0, same),
            run("change", 2, 6.0, other), run("parent", 2, 7.0, {}, exit_code=1)]
    summary = bench_pairs.summarize_headline(runs)
    assert sorted(summary) == ["1", "2"]
    one, two = summary["1"], summary["2"]
    assert one["parent"]["wall_s"] == {"median": 11.0, "q1": 10.5, "q3": 11.5, "iqr": 1.0, "n": 2}
    assert one["change"]["cpu_s"]["median"] == 20.0
    assert one["csvs_identical"] and one["parent"]["repeats_digests"]
    assert one["parent"]["failed"] == one["change"]["failed"] == 0
    assert not two["csvs_identical"]
    assert not two["change"]["repeats_digests"] and not two["parent"]["repeats_digests"]
    assert two["parent"]["failed"] == 1 and two["change"]["failed"] == 0
    # one run of a side cannot show that the side repeats itself
    assert not bench_pairs.summarize_headline(runs[:2])["1"]["parent"]["repeats_digests"]


def test_bench_pairs_rejects_a_parent_without_the_benchmark(tmp_path):
    proc = subprocess.run([sys.executable, str(TOOL.parent / "bench_pairs.py"),
                           "--parent", str(tmp_path), "--label", "x"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and "perfbench/run.py" in proc.stderr
    assert not (TOOL.parent.parent / "BENCH_x.json").exists()
    # the headline runs the library, so its parent needs only the sources
    proc = subprocess.run([sys.executable, str(TOOL.parent / "bench_pairs.py"), "--headline",
                           "--parent", str(tmp_path), "--label", "x"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and "src/uqcurate/__main__.py" in proc.stderr
    assert not (TOOL.parent.parent / "BENCH_headline_x.json").exists()


def test_source_digest_names_the_tree(tmp_path):
    # the digest a BENCH file records for this checkout is the one
    # criteria_seeds records for the package the tests import, and an edit
    # to any source changes it
    bench_pairs, criteria = load_tool("bench_pairs"), load_tool("criteria_seeds")
    digest = bench_pairs.source_digest(bench_pairs.REPO)
    assert criteria.source_digest(criteria.imported_checkout()) == digest
    copy = tmp_path / "src" / "uqcurate"
    shutil.copytree(bench_pairs.REPO / "src" / "uqcurate", copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    assert bench_pairs.source_digest(tmp_path) == digest
    with open(copy / "kernels.py", "a", encoding="utf-8") as fh:
        fh.write("\n")
    assert bench_pairs.source_digest(tmp_path) != digest


def test_mutant_catalogue_is_sound_without_running_it():
    # every old text occurs once and every target names an existing unit
    # test; the training step's backward pass has its four mutants
    mutants = load_tool("mutants")
    assert mutants.check_catalogue() == []
    step = [m for m in mutants.CATALOGUE if m.path == "src/uqcurate/models.py"
            and any(t.startswith("tests/test_gradients.py") for t in m.tests)]
    assert {m.name for m in step} == {
        "sigma-chain-rule", "mu-relu-gate", "relu-gate", "dropout-mask-in-backward"}
    # and the training loop has its four, each against the loop's oracle
    training = [m for m in mutants.CATALOGUE
                if m.tests == ("tests/test_models.py::TestTrainingOracle",)]
    assert {m.name for m in training} == {
        "no-epoch-shuffle", "tail-batch-dropped", "train-loss-per-full-batch",
        "restore-only-on-patience"}
    # and the study summaries have theirs, each against the summary oracle
    summary = [m for m in mutants.CATALOGUE
               if all("::TestSummaryOracle::" in t for t in m.tests)]
    assert {m.name for m in summary} == {
        "growth-delta-from-first", "growth-delta-sign", "growth-sample-std",
        "compare-sample-std"}
    # and the curation loop's rounds and rows have theirs
    loop = [m for m in mutants.CATALOGUE if m.path == "src/uqcurate/curation.py"
            and all("::TestCurationLoop::" in t or "::TestCompare::" in t for t in m.tests)]
    assert {m.name for m in loop} == {
        "round-set-unsorted", "tranche-rounded-down", "noisy-fraction-of-first-rows"}
    # and the selector's trace oracle, the uncertainty split, the growth
    # subsets, the loop's carve and eval stream, the shift study's noise and
    # scoring, Adam, balancing, the report's tie rule, early stopping, the
    # dropout masks' draw order, the cross-entropy's label column and the
    # history set only when training returns
    assert {m.name for m in mutants.CATALOGUE} >= {
        "n-ale-rounded-down", "n-ale-from-first-pool", "ties-not-by-id", "mi-unclamped",
        "sigma-bar-mean-of-sigma", "hetero-epi-sample-std", "growth-permutation-per-fraction",
        "carve-unshuffled", "one-eval-seed-for-every-round", "shift-one-noise-seed",
        "shift-vanilla-not-first-member", "adam-no-bias-correction",
        "balance-with-replacement", "argmax-tie-to-class-1", "stop-on-train-loss",
        "masks-drawn-row-major", "xent-label-column-swapped", "history-bound-before-training"}


def test_mutant_catalogue_reports_stale_old_texts(tmp_path):
    mutants = load_tool("mutants")
    problems = mutants.check_catalogue(tmp_path)
    for m in mutants.CATALOGUE:
        assert f"{m.name}: old text occurs 0 times in {m.path}" in problems


def test_mutant_verdict_needs_a_failure_under_every_target():
    mutants = load_tool("mutants")
    output = "\n".join([
        "FAILED tests/test_gradients.py::test_dual_head_full_stack[10] - AssertionError: x",
        "ERROR tests/test_kernels.py::TestQuad::test_a",
        "1 failed, 3 passed in 1.0s",
    ])
    failed = mutants._failed_tests(output)
    assert failed == ["tests/test_gradients.py::test_dual_head_full_stack[10]",
                      "tests/test_kernels.py::TestQuad::test_a"]
    assert mutants._covers("tests/test_gradients.py::test_dual_head_full_stack", failed[0])
    assert mutants._covers("tests/test_kernels.py", failed[1])
    assert not mutants._covers("tests/test_gradients.py::test_dual_head", failed[0])


def test_criteria_seeds_parses_seed_lists():
    criteria = load_tool("criteria_seeds")
    assert criteria.parse_seeds("1-12") == list(range(1, 13))
    assert criteria.parse_seeds("9, 1-3,2") == [1, 2, 3, 9]
    with pytest.raises(ValueError):
        criteria.parse_seeds("-1")


def _criteria_file(path, held_at: dict, seeds) -> Path:
    """A CRITERIA file: each criterion holds at the seeds ``held_at`` lists."""
    path.write_text(json.dumps({
        "seeds": list(seeds),
        "held": {c: len(ok) for c, ok in held_at.items()},
        "by_seed": {str(s): {c: {"holds": s in ok} for c, ok in held_at.items()}
                    for s in seeds}}), encoding="utf-8")
    return path


def test_criteria_diff_prints_the_flipped_seeds(tmp_path, capsys):
    # criterion 6 is in one file only, so it has no line; a seed that only
    # one file ran is not a flip
    criteria = load_tool("criteria_seeds")
    old = _criteria_file(tmp_path / "old.json", {"4": {1, 2, 3}, "7": {1, 2}, "6": {1}}, (1, 2, 3))
    new = _criteria_file(tmp_path / "new.json", {"4": {1, 2, 3}, "7": {1, 3, 4}}, (1, 2, 3, 4))
    assert criteria.main(["--diff", str(old), str(new)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "criterion 4: held 3/3 -> 3/4; failed -> held at seeds none; "
        "held -> failed at seeds none",
        "criterion 7: held 2/3 -> 3/4; failed -> held at seeds 3; held -> failed at seeds 2"]
    # the two committed tables of the round-order change: criterion 7's
    # failing seeds moved from {2, 9} to {6, 11}
    repo = criteria.REPO
    assert criteria.diff_lines(*(json.loads((repo / f"CRITERIA_{label}.json").read_text())
                                 for label in ("one_shift_fit", "sorted_rounds"))) == [
        "criterion 7: held 10/12 -> 10/12; failed -> held at seeds 2, 9; "
        "held -> failed at seeds 6, 11"]


def _shift_rows(ensemble, vanilla):
    """Shift summary rows: (mean_f1, mean_brier) per intensity and method."""
    return [{"method": method, "intensity": 0.1 * i, "mean_f1": f1, "mean_brier": b}
            for method, cells in (("vanilla", vanilla), ("ensemble", ensemble))
            for i, (f1, b) in enumerate(cells)]


def test_criteria_conditions_hold_at_their_bounds_and_fail_past_them():
    criteria = load_tool("criteria_seeds")
    falling = [(0.7, 0.2), (0.6, 0.3), (0.5, 0.4)]
    assert criteria.shift_trend(_shift_rows(falling, falling)).holds
    assert not criteria.shift_trend(_shift_rows(falling[::-1], falling)).holds
    # criterion 5 holds on a tie and fails on any shortfall
    tie = criteria.ensemble_superiority(_shift_rows(falling, falling))
    assert tie.holds and tie.margins == {"f1": 0.0, "brier": 0.0}
    worse = [(f1 - 0.01, b) for f1, b in falling]
    assert not criteria.ensemble_superiority(_shift_rows(worse, falling)).holds
    # criterion 6 needs every epistemic step down and the larger relative drop
    growth = lambda epi, ale: [{"mean_epi": e, "mean_ale": a} for e, a in zip(epi, ale)]
    assert criteria.growth_trend(growth([0.6, 0.5, 0.4], [0.5, 0.49, 0.48])).holds
    assert not criteria.growth_trend(growth([0.6, 0.6, 0.4], [0.5, 0.49, 0.48])).holds
    assert not criteria.growth_trend(growth([0.6, 0.5, 0.4], [0.5, 0.3, 0.2])).holds
    # criterion 7 reads the checkpoint round, the p bound and the noisy bound
    at = lambda ehal, random, elah, noisy: [
        {"selector": s, "round": criteria.CHECKPOINT_ROUND, "mean_f1": f1,
         "mean_selected_noisy_fraction": noisy}
        for s, f1 in (("ehal", ehal), ("random", random), ("elah", elah))]
    assert criteria.selector_ordering(at(0.6, 0.6, 0.5, 0.29), 0.049).holds
    assert not criteria.selector_ordering(at(0.6, 0.6, 0.6, 0.1), 0.01).holds
    assert not criteria.selector_ordering(at(0.6, 0.55, 0.5, 0.1), 0.05).holds
    assert not criteria.selector_ordering(at(0.6, 0.55, 0.5, 0.3), 0.01).holds
    run_rows = [{"selector": s, "round": criteria.CHECKPOINT_ROUND, "rep": r, "f1": f1}
                for s, f1s in (("ehal", (0.7, 0.8, 0.9)), ("elah", (0.1, 0.2, 0.3)))
                for r, f1 in enumerate(f1s)]
    assert criteria.selector_p(run_rows) < 0.05
