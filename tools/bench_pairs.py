"""Run the benchmark on this checkout and on a parent checkout in
interleaved pairs, and write ``BENCH_<label>.json`` at the repository root.

Each pair runs ``perfbench/run.py`` once in each checkout, with the same
seed, one after the other; the side that runs first alternates from pair to
pair, so a drift in host load falls on both sides alike.  The last line a
run prints is its JSON verdict; the file keeps every run's verdict and, per
workload and end-to-end metric, each side's median and quartiles and the
number of pairs the change won.  Each side's env also holds the sha256 of
the library sources it ran, ``source_digest``, so the file names both trees
it measured::

    python3 tools/bench_pairs.py --parent ../parent-checkout --label quadrature \\
        --workload compare --pairs 10 --seconds 30

The end-to-end metrics and their directions come from ``BENCHMARK.json``.

``--headline`` runs the headline study instead, ``python -m uqcurate compare
--config profile:standard-synthetic``, in interleaved pairs at
``UQCURATE_JOBS`` 1 and 2, each run into a fresh output directory.  Per run
it records the wall time, the CPU time of the child (the delta of
``resource.getrusage(RUSAGE_CHILDREN)``) and the sha256 of each result CSV;
per job count it records each side's spread, whether every run of a side
repeats its first run's digests and whether the two sides wrote the same
CSVs.  It writes ``BENCH_headline_<label>.json``; a file whose two sides
have one ``source_digest`` pairs a tree with itself, a baseline::

    python3 tools/bench_pairs.py --headline --parent ../parent-checkout \\
        --label one_layout --pairs 3

Stdlib only; ``perfbench/`` is run, never changed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
HEADLINE = ("compare", "--config", "profile:standard-synthetic")
HEADLINE_JOBS = (1, 2)


def source_digest(root: Path) -> str:
    """sha256 over the Python sources of ``root/src/uqcurate``, in name
    order: the library a checkout at ``root`` runs."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "uqcurate").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_once(root: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One ``perfbench/run.py`` run in ``root``: (env line, JSON verdict)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    try:
        verdict = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        verdict = {"correct": False, "metrics": {}, "stderr": proc.stderr[-2000:]}
    verdict["exit_code"] = proc.returncode
    return env, verdict


def spread(values: list[float]) -> dict:
    """Median and quartiles (the inclusive method, so two values suffice)."""
    if not values:
        return {}
    q1, q2, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                  if len(values) > 1 else values * 3)
    return {"median": q2, "q1": q1, "q3": q3, "iqr": q3 - q1, "n": len(values)}


def summarize(pairs: list[dict], metrics: dict[str, str]) -> dict:
    out = {}
    for name, better in metrics.items():
        sides = {side: [p[side]["metrics"][name]["value"] for p in pairs
                        if name in p[side].get("metrics", {})]
                 for side in ("parent", "change")}
        wins = sum(
            1 for p in pairs
            if name in p["parent"].get("metrics", {}) and name in p["change"].get("metrics", {})
            and (p["change"]["metrics"][name]["value"] < p["parent"]["metrics"][name]["value"])
            == (better == "lower"))
        out[name] = {"better": better, "parent": spread(sides["parent"]),
                     "change": spread(sides["change"]), "change_wins": wins}
    return out


def run_headline(root: Path, jobs: int) -> dict:
    """One headline run of the library under ``root`` at ``jobs`` workers:
    its exit code, wall and child CPU seconds, and the sha256 of each result
    CSV it wrote, by file name."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), UQCURATE_JOBS=str(jobs))
    with tempfile.TemporaryDirectory() as out:
        before, start = resource.getrusage(resource.RUSAGE_CHILDREN), time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "uqcurate", *HEADLINE, "--out", out],
                              cwd=root, env=env, capture_output=True, text=True)
        wall, after = time.perf_counter() - start, resource.getrusage(resource.RUSAGE_CHILDREN)
        digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in sorted(Path(out).glob("*.csv"))}
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return {"jobs": jobs, "exit_code": proc.returncode, "wall_s": wall, "cpu_s": cpu,
            "digests": digests, "stderr": proc.stderr[-2000:] if proc.returncode else ""}


def summarize_headline(runs: list[dict]) -> dict:
    """Per job count: each side's wall and CPU spread, its failed runs and
    whether every run repeats its first run's digests, and whether every
    change run wrote the parent's CSVs."""
    out = {}
    for jobs in sorted({r["jobs"] for r in runs}):
        sides = {side: [r for r in runs if r["jobs"] == jobs and r["side"] == side]
                 for side in ("parent", "change")}
        entry = {side: {"wall_s": spread([r["wall_s"] for r in rs]),
                        "cpu_s": spread([r["cpu_s"] for r in rs]),
                        "failed": sum(r["exit_code"] != 0 for r in rs),
                        "repeats_digests": len(rs) > 1 and all(
                            r["digests"] == rs[0]["digests"] for r in rs)}
                 for side, rs in sides.items()}
        reference = sides["parent"][0]["digests"] if sides["parent"] else None
        entry["csvs_identical"] = bool(reference) and bool(sides["change"]) and all(
            r["digests"] == reference for r in sides["change"])
        out[str(jobs)] = entry
    return out


def headline(parent: Path, label: str, pairs: int) -> Path:
    roots = {"parent": parent, "change": REPO}
    digests = {side: source_digest(root) for side, root in roots.items()}
    runs = []
    for jobs in HEADLINE_JOBS:
        for i in range(pairs):
            for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                runs.append(dict(run_headline(roots[side], jobs), side=side, pair=i))
                print(f"headline jobs {jobs} pair {i + 1}/{pairs} {side}: "
                      f"{runs[-1]['wall_s']:.1f} s wall, exit {runs[-1]['exit_code']}",
                      file=sys.stderr)
    result = {"label": label, "command": ["python", "-m", "uqcurate", *HEADLINE],
              "env": {side: {"source_digest": d} for side, d in digests.items()},
              "self_pair": digests["parent"] == digests["change"],
              "runs": runs, "summary": summarize_headline(runs)}
    path = REPO / f"BENCH_headline_{label}.json"
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="root of a checkout of the parent commit")
    parser.add_argument("--label", required=True, help="the file is BENCH_<label>.json")
    parser.add_argument("--workload", action="append", choices=("compare", "shift-homo", "select"),
                        help="workload to run (repeatable; default: all three)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=901, help="seed of the first pair")
    parser.add_argument("--headline", action="store_true",
                        help="run the headline compare study at 1 and 2 jobs instead")
    args = parser.parse_args(argv)
    parent = args.parent.resolve()
    needed = Path("src/uqcurate/__main__.py") if args.headline else Path("perfbench/run.py")
    if not (parent / needed).is_file():
        parser.error(f"no {needed} under {parent}")
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    if args.headline:
        print(headline(parent, args.label, args.pairs))
        return 0
    bench = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}

    roots = {"parent": parent, "change": REPO}
    digests = {side: source_digest(root) for side, root in roots.items()}
    result = {"label": args.label, "seconds": args.seconds, "env": {}, "workloads": {}}
    for workload in args.workload or ["compare", "shift-homo", "select"]:
        pairs = []
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                env, pair[side] = run_once(roots[side], workload, seed, args.seconds)
                result["env"].setdefault(side, dict(env, source_digest=digests[side]))
            pairs.append(pair)
            print(f"{workload} pair {i + 1}/{args.pairs} seed {seed}: " + ", ".join(
                f"{side} {pair[side]['metrics'].get('pass_cpu_s', {}).get('value')}"
                for side in ("parent", "change")), file=sys.stderr)
        result["workloads"][workload] = {"pairs": pairs, "summary": summarize(pairs, metrics)}

    path = REPO / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
