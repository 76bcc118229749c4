"""Print the sha256 of every result file the smoke-profile commands write.

Runs a fixed set of ``uqcurate`` commands on the packaged ``smoke`` profile,
each in a fresh interpreter with ``UQCURATE_JOBS`` set to ``--jobs`` (default
1) and a temporary work directory as its cwd, and prints one ``sha256  path``
line per result CSV, checkpoint and report JSON, sorted by path.  Run
manifests are left out because they hold a timestamp.  Every path a command
names is relative to the work directory: the spec digest, and with it every
file name, embeds the ``data`` path.

The set is gen-data (the profile, and ``--seed 3``), shift (default,
``--uq mc-dropout``, ``--head homo --uq mc-dropout``, and ``--head homo`` with
``uq = vanilla,mc-dropout,ensemble``, whose first two methods score the first
member of the one ensemble fit per intensity),
growth, compare (``--selector`` ehal, elah and random; ``--uq mc-dropout``;
``--uq mc-dropout --head homo``; ``uncertainty_source = sample``;
``repetitions = 2``, so that ``--jobs 2`` runs its repetitions in two worker
processes; ``--selector ehal`` on 8000 instances, whose 4800-row pool and
2800-row test partition are scored in row blocks; and ``--data`` on the
profile's generated CSV, whose ``noise_tag`` column gives the selected noisy
fraction) and train (default and ``--uq mc-dropout``): 18 commands and 43
files.  The profile has one repetition, so only the two-repetition compare
starts workers.  A command that fails or writes anything to stderr (a stray
warning included) stops the run with exit code 1 and one message naming it.

To check which result files a change moves, run it on the change and on a
checkout of the parent commit, then diff the two outputs::

    python3 tools/smoke_digests.py > change.txt
    python3 tools/smoke_digests.py --src PARENT_CHECKOUT/src > parent.txt
    diff parent.txt change.txt

The same diff of ``--jobs 1`` against ``--jobs 2`` shows whether any result
depends on the number of worker processes; none may.

A change to the resolved spec (a config key added or removed) renames every
file, because file names embed the spec digest.  Strip the digest before the
diff to compare contents::

    sed -E 's/_[0-9a-f]{10}\\././' parent.txt > parent-untagged.txt
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

PROFILE = ["--config", "profile:smoke"]

# (output name, command line), run in this order from the work directory;
# the output name is the --out path
COMMANDS = [
    ("gen-data/profile.csv", ["gen-data", *PROFILE]),
    ("gen-data/seed3.csv", ["gen-data", *PROFILE, "--seed", "3"]),
    ("shift/default", ["shift", *PROFILE]),
    ("shift/mc-dropout", ["shift", *PROFILE, "--uq", "mc-dropout"]),
    ("shift/homo-mc-dropout", ["shift", *PROFILE, "--head", "homo", "--uq", "mc-dropout"]),
    ("shift/homo-all-uq", ["shift", "--config", "smoke-all-uq.cfg", "--head", "homo"]),
    ("growth/default", ["growth", *PROFILE]),
    ("compare/ehal", ["compare", *PROFILE, "--selector", "ehal"]),
    ("compare/elah", ["compare", *PROFILE, "--selector", "elah"]),
    ("compare/random", ["compare", *PROFILE, "--selector", "random"]),
    ("compare/mc-dropout", ["compare", *PROFILE, "--uq", "mc-dropout"]),
    ("compare/homo-mc-dropout", ["compare", *PROFILE, "--uq", "mc-dropout", "--head", "homo"]),
    ("compare/source-sample", ["compare", "--config", "smoke-sample.cfg"]),
    ("compare/two-reps", ["compare", "--config", "smoke-two-reps.cfg"]),
    ("compare/large-pool", ["compare", "--config", "smoke-large-pool.cfg", "--selector", "ehal"]),
    ("compare/csv-data", ["compare", *PROFILE, "--data", "gen-data/profile.csv"]),
    ("train/default", ["train", *PROFILE]),
    ("train/mc-dropout", ["train", *PROFILE, "--uq", "mc-dropout"]),
]


def _write_profiles(src: Path, work: Path) -> None:
    """The smoke profile with ``uncertainty_source = sample`` (it scores with
    the default ``entropy`` source), with all three uq methods (``--uq``
    takes one), with two repetitions, and with a 4800-row pool and a
    2800-row test partition, which are scored in row blocks of at most
    ``kernels.ROW_BLOCK`` = 2048 rows; a later key overrides an earlier
    one."""
    smoke = (src / "uqcurate" / "profiles" / "smoke.cfg").read_text(encoding="utf-8")
    for name, extra in (("smoke-sample.cfg", "uncertainty_source = sample"),
                        ("smoke-all-uq.cfg", "uq = vanilla,mc-dropout,ensemble"),
                        ("smoke-two-reps.cfg", "repetitions = 2"),
                        ("smoke-large-pool.cfg", "n_instances = 8000\nseed_fraction = 0.05\n"
                                                 "pool_fraction = 0.6\ntranche_fraction = 0.5")):
        (work / name).write_text(f"{smoke}\n{extra}\n", encoding="utf-8")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digests(src: Path, work: Path, jobs: int = 1) -> list[str]:
    _write_profiles(src, work)
    env = dict(os.environ, PYTHONPATH=str(src), UQCURATE_JOBS=str(jobs))
    for out, args in COMMANDS:
        (work / out).parent.mkdir(parents=True, exist_ok=True)
        proc = subprocess.run([sys.executable, "-m", "uqcurate", *args, "--out", out], cwd=work,
                              env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True)
        if proc.returncode or proc.stderr:
            sys.exit(f"error: {out} (uqcurate {' '.join(args)}) exited {proc.returncode}, "
                     f"stderr:\n{proc.stderr}")
    lines = []
    for path in sorted(work.rglob("*")):
        if path.is_file() and path.suffix != ".cfg" and "_manifest_" not in path.name:
            lines.append(f"{_sha256(path)}  {path.relative_to(work).as_posix()}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=REPO / "src",
                        help="the src/ directory whose uqcurate to run (default: this checkout's)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="UQCURATE_JOBS for every command (default: 1)")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    if not (src / "uqcurate" / "__init__.py").is_file():
        parser.error(f"no uqcurate package under {src}")
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    with tempfile.TemporaryDirectory(prefix="smoke-digests-") as work:
        print("\n".join(digests(src, Path(work), args.jobs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
