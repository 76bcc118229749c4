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


def _load_bench_pairs():
    import importlib.util

    path = TOOL.parent / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
