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
Stdlib only; ``perfbench/`` is run, never changed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


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
    args = parser.parse_args(argv)
    parent = args.parent.resolve()
    if not (parent / "perfbench" / "run.py").is_file():
        parser.error(f"no perfbench/run.py under {parent}")
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
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
