import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "smoke_digests.py"


def test_smoke_digests_runs_every_command():
    # each of the tool's commands must still run on the packaged smoke profile
    proc = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines), lines
    paths = [line.split("  ", 1)[1] for line in lines]
    assert len(lines) == 40 and len(set(paths)) == 40


def _load_tool(name):
    import importlib.util

    path = TOOL.parent / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_bench_pairs():
    return _load_tool("bench_pairs")


def test_bench_pairs_summary_counts_wins_and_quartiles():
    bench_pairs = _load_bench_pairs()

    def run(value):
        return {"correct": True, "metrics": {"pass_cpu_s": {"value": value, "unit": "s"}}}

    pairs = [{"parent": run(p), "change": run(c)}
             for p, c in ((2.0, 1.0), (3.0, 1.5), (4.0, 4.5), (5.0, 2.0))]
    summary = bench_pairs.summarize(pairs, {"pass_cpu_s": "lower"})["pass_cpu_s"]
    assert summary["change_wins"] == 3
    assert summary["parent"] == {"median": 3.5, "q1": 2.75, "q3": 4.25, "iqr": 1.5, "n": 4}
    assert summary["change"]["median"] == 1.75


def test_bench_pairs_rejects_a_parent_without_the_benchmark(tmp_path):
    proc = subprocess.run([sys.executable, str(TOOL.parent / "bench_pairs.py"),
                           "--parent", str(tmp_path), "--label", "x"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and "perfbench/run.py" in proc.stderr
    assert not (TOOL.parent.parent / "BENCH_x.json").exists()


def test_mutant_catalogue_is_sound_without_running_it():
    # every old text occurs once and every target names an existing unit
    # test; the training step's backward pass has its four mutants
    mutants = _load_tool("mutants")
    assert mutants.check_catalogue() == []
    step = [m for m in mutants.CATALOGUE if m.path == "src/uqcurate/models.py"
            and any(t.startswith("tests/test_gradients.py") for t in m.tests)]
    assert {m.name for m in step} == {
        "sigma-chain-rule", "mu-relu-gate", "relu-gate", "dropout-mask-in-backward"}
    # and the study summaries have theirs, each against the summary oracle
    summary = [m for m in mutants.CATALOGUE
               if all("::TestSummaryOracle::" in t for t in m.tests)]
    assert {m.name for m in summary} == {
        "growth-delta-from-first", "growth-delta-sign", "growth-sample-std",
        "compare-sample-std"}
    # and the curation loop's rounds and rows have theirs
    loop = [m for m in mutants.CATALOGUE if m.path == "src/uqcurate/curation.py"
            and m.name != "walk-select-strict"]
    assert {m.name for m in loop} == {
        "full-pool-in-pick-order", "tranche-rounded-down", "noisy-fraction-of-first-rows"}


def test_mutant_catalogue_reports_stale_old_texts(tmp_path):
    mutants = _load_tool("mutants")
    problems = mutants.check_catalogue(tmp_path)
    for m in mutants.CATALOGUE:
        assert f"{m.name}: old text occurs 0 times in {m.path}" in problems


def test_mutant_verdict_needs_a_failure_under_every_target():
    mutants = _load_tool("mutants")
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
