"""uqcurate benchmark: one workload per process, timed end to end.

Usage (from the repository root):

    python3 perfbench/run.py --workload {compare,shift-homo,select} \
        --seed N --seconds S --trace {0,1} [--size {standard,smoke}]

The process pins UQCURATE_JOBS and the BLAS thread count to 1 before numpy
is imported and imports ``uqcurate`` from ``src/`` beside this directory.
The run then repeats identical passes for ``--seconds`` seconds: one
warm-up pass, then timed passes while the next one is expected to end in
time.  Every pass is checked (see ``workloads.py``) and must reproduce the
first pass's result rows byte for byte.

The end-to-end times are CPU seconds scaled to a reference host speed
(``hostspeed.py``), because on a shared host the wall time, and even the CPU
time, of the same pass moves by tens of percent with what other tenants run.
``pass_cpu_s`` is the median over the timed passes, sampled by the probe
while they run.  ``setup_s`` is the median import time in a fresh
interpreter (five samples) plus the median of several set-ups of the
workload from the seed, the set-ups sampled like passes and each import
scaled by the host's speed measured just after it.  Raw wall and CPU
medians are printed as ``info`` lines.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half the
time on untraced passes and the rest on passes with the layer tracer
installed, and reports the per-layer metrics (medians over traced passes,
wall-clock spans) together with the tracing overhead; the spans are written
to ``.perfbench_out/``.

Stdout holds an environment line, one line per metric, and as its last line
a JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 when every pass succeeded and passed its
checks, 1 when one did not, and 2 when the sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

PINS = {
    "UQCURATE_JOBS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

WORKLOAD_NAMES = ("compare", "shift-homo", "select")

# End-to-end metrics: name -> (unit, better).  The quality metrics (F1,
# Brier, noisy-pick share) are exact for a seed but spread too widely across
# seeds to carry a bound; they are printed as "quality" lines instead.
END_TO_END = {
    "pass_cpu_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

BENCH_DIR = Path(__file__).resolve().parent
ROOT_DIR = BENCH_DIR.parent
SRC_DIR = ROOT_DIR / "src"
OUT_DIR = ROOT_DIR / ".perfbench_out"

IMPORT_REPEATS = 5
MIN_TIMED_PASSES = 3
# The import is too short to sample while it runs, and the probe needs
# numpy; it is scaled by the host's speed measured just after it.
_IMPORT_PROBE = """
import time
t = time.process_time()
import numpy, uqcurate, uqcurate.experiments
cpu = time.process_time() - t
import hostspeed
print(cpu / hostspeed.slowdown_now())
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("standard", "smoke"), default="standard",
                   help="'smoke' runs tiny shapes for the harness self-test")
    return p.parse_args(argv)


def import_seconds() -> float:
    """Median scaled CPU time to import numpy and uqcurate in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC_DIR), str(BENCH_DIR), os.environ.get("PYTHONPATH")) if p))
    times = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env, cwd=ROOT_DIR,
                              capture_output=True, text=True, check=True, timeout=60)
        times.append(float(proc.stdout))
    return statistics.median(times)


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes

    import numpy as np

    libdirs = [Path(np.__file__).parent / ".libs", Path(np.__file__).parent.parent / "numpy.libs"]
    for libdir in libdirs:
        for lib in sorted(libdir.glob("*openblas*")) if libdir.is_dir() else ():
            handle = ctypes.CDLL(str(lib))
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    return int(fn())
    return None


def _git_commit():
    head = ROOT_DIR / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT_DIR / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT_DIR / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy as np

    from uqcurate import kernels

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "kernel_backend": kernels.backend(),
        "UQCURATE_JOBS": os.environ.get("UQCURATE_JOBS"),
        "git_commit": _git_commit(),
    }


class Runner:
    """Runs and checks passes of one workload; keeps pass times and layer metrics.

    With a ``probe`` (a running ``hostspeed.SpeedProbe``) each untraced pass
    also records its raw and scaled CPU time.
    """

    def __init__(self, workload, state, probe=None):
        self.workload = workload
        self.state = state
        self.probe = probe
        self.attempted = 0
        self.failed = 0
        self.first_rows = None
        self.quality = None
        self.last_wall = 0.0
        self.walls = {False: [], True: []}
        self.spans = []
        self.layers: list[dict] = []

    def one_pass(self, tracer=None, timed=True) -> bool:
        self.attempted += 1
        span = None
        try:
            if tracer is not None:
                tracer.begin_pass()
            if self.probe is not None:
                span = self.probe.start_span()
            t0 = time.perf_counter()
            try:
                out = self.workload.run(self.state)
            finally:
                wall = time.perf_counter() - t0
                if span is not None:
                    span.end()
                if tracer is not None:
                    tracer.exit()
            rows, quality, problems = self.workload.evaluate(self.state, out)
        except Exception:  # a failing pass is counted and reported, never hidden
            self.failed += 1
            traceback.print_exc()
            return False
        blob = json.dumps(rows, sort_keys=True).encode()
        if self.first_rows is None:
            self.first_rows, self.quality = blob, quality
        elif blob != self.first_rows:
            problems.append("result rows differ from the first pass with this seed")
        if problems:
            self.failed += 1
            for p in problems:
                print(f"check failed: {p}", file=sys.stderr)
            return False
        self.last_wall = wall
        if not timed:
            return True
        self.walls[tracer is not None].append(wall)
        if span is not None:
            self.spans.append(span)
        if tracer is not None:
            self.layers.append(tracer.pass_metrics(wall))
        return True

    def repeat(self, until: float, min_passes: int, tracer=None) -> bool:
        """Run passes until ``until``, stopping where the next would overrun it."""
        done = 0
        while done < min_passes or time.perf_counter() + self.last_wall <= until:
            if not self.one_pass(tracer):
                return False
            done += 1
        return True


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC_DIR / "uqcurate" / "__init__.py").is_file():
        print(f"error: uqcurate sources not found under {SRC_DIR}", file=sys.stderr)
        return 2
    os.environ.update(PINS)
    sys.path.insert(0, str(SRC_DIR))
    import uqcurate
    if Path(uqcurate.__file__).resolve().parent != SRC_DIR / "uqcurate":
        print(f"error: imported uqcurate from {uqcurate.__file__}, not {SRC_DIR}",
              file=sys.stderr)
        return 2

    import hostspeed
    import tracer as tracer_mod
    import workloads

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    if env["blas_threads"] not in (None, 1):
        print(f"warning: BLAS runs {env['blas_threads']} threads despite the pin",
              file=sys.stderr)

    import_s = import_seconds()
    workload = workloads.WORKLOADS[args.workload]
    setup_times = []
    with hostspeed.SpeedProbe() as probe:
        for _ in range(workloads.SHAPES[args.size]["setup_repeats"][args.workload]):
            # while the probe runs the process clock moves in scheduler ticks
            # (4 ms), so the few ms of compare's and shift-homo's set-ups
            # mostly read 0; select's ensemble fit is sampled like a pass
            span = probe.start_span()
            state = workload.setup(args.seed, args.size)
            setup_times.append(span.end().scaled_s)
    setup_s = import_s + statistics.median(setup_times)

    start = time.perf_counter()
    if not args.trace:
        with hostspeed.SpeedProbe() as probe:
            runner = Runner(workload, state, probe)
            if runner.one_pass(timed=False):
                runner.repeat(start + args.seconds, min_passes=MIN_TIMED_PASSES)
    else:
        runner = Runner(workload, state)
        if runner.one_pass(timed=False) and runner.repeat(start + args.seconds / 2,
                                                          min_passes=1):
            tr = tracer_mod.Tracer()
            tr.install()
            try:
                runner.repeat(start + args.seconds, min_passes=1, tracer=tr)
            finally:
                tr.uninstall()
            OUT_DIR.mkdir(exist_ok=True)
            tr.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz")

    correct = runner.failed == 0
    metrics = {}
    untraced = runner.walls[False]
    if correct and not args.trace:
        values = {
            "pass_cpu_s": statistics.median(s.scaled_s for s in runner.spans),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": values[k], "unit": END_TO_END[k][0]} for k in END_TO_END}
    elif correct:
        values = {k: statistics.median(m[k] for m in runner.layers)
                  for k in runner.layers[0]}
        values["trace.overhead_frac"] = (
            statistics.median(runner.walls[True]) / statistics.median(untraced) - 1.0)
        metrics = {k: {"value": values[k], "unit": unit}
                   for k, (unit, _) in tracer_mod.PER_LAYER.items()}

    walls = untraced + runner.walls[True]
    print(f"workload {args.workload} seed {args.seed} size {args.size} "
          f"passes {len(untraced)} untraced, {len(runner.walls[True])} traced; "
          f"pass walls {[round(w, 4) for w in walls]}")
    print(f"import_s = {import_s:.4f} s; setup repeats {[round(t, 4) for t in setup_times]}")
    if runner.spans:
        print(f"info wall_s = {statistics.median(untraced)!r} s (median raw pass wall)")
        print(f"info cpu_s = {statistics.median(s.cpu_s for s in runner.spans)!r} s "
              f"(median raw pass CPU)")
        slow = [s.slowdown for s in runner.spans]
        print(f"info host slowdown median {statistics.median(slow):.3f} min {min(slow):.3f} "
              f"max {max(slow):.3f} (reference kernel vs {hostspeed.NOMINAL_S} s)")
    for name, q in sorted((runner.quality or {}).items()):
        print(f"quality {name} = {q!r}")
    error_rate = runner.failed / runner.attempted if runner.attempted else 1.0
    print(f"metric error_rate = {error_rate} ratio")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
