"""Command-line entry point.

Subcommands
    gen-data   write a synthetic pool as CSV
    train      fit one model/ensemble, write checkpoint + evaluation report
    shift      quality-shift study
    growth     data-growth uncertainty study
    compare    selector-comparison study (learning curves)
    report     one-sided rank test between two score columns of a results CSV

Every command is a pure function of its flags, config file, input files and
seed, so reruns reproduce output files byte for byte (timestamps appear only
in run manifests).  Exit codes: 0 success, 1 internal failure, 2 usage or
configuration error.

Environment: UQCURATE_JOBS sets the worker-process count for experiment
repetitions, capped at the repetition count and the CPU count.  A value that
is not an integer >= 1 is a configuration error (exit 2), raised before any
compute starts.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from . import __version__
from .curation import SELECTORS
from .data import generate_synthetic, parse_kv_file, save_csv, utf8_lines
from .errors import ConfigError, DataFormatError, DomainError, UqCurateError
from .experiments import (
    COMPARE,
    GROWTH,
    SHIFT,
    TRAIN,
    _jobs,
    load_profile,
    run_data_growth_experiment,
    run_selector_comparison,
    run_shift_experiment,
    run_training,
    spec_from_mapping,
)
from .metrics import mann_whitney_u
from .models import HEADS, UQ_METHODS
from .nncore import make_rng

PROFILE_PREFIX = "profile:"


def _load_config(path: str | None) -> dict[str, str]:
    if path is None:
        return {}
    if path.startswith(PROFILE_PREFIX):
        return load_profile(path[len(PROFILE_PREFIX):])
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    return parse_kv_file(path)


def _check_out_dir(out: str) -> str:
    parent = os.path.dirname(os.path.abspath(out))
    if not os.path.isdir(parent):
        raise ConfigError(f"output location {out} has no parent directory")
    return out


def _check_results_dir(out: str) -> str:
    """Reject an --out that names something other than a directory, before
    any compute starts."""
    if os.path.exists(out) and not os.path.isdir(out):
        raise ConfigError(f"output location {out} exists and is not a directory")
    return out


def _apply_overrides(mapping: dict[str, str], args) -> dict[str, str]:
    if getattr(args, "data", None) is not None:
        mapping["data"] = args.data
    if getattr(args, "seed", None) is not None:
        mapping["seed"] = str(args.seed)
    if getattr(args, "uq", None) is not None:
        mapping["uq"] = args.uq
    if getattr(args, "head", None) is not None:
        mapping["head"] = args.head
    if getattr(args, "selector", None) is not None:
        mapping["selectors"] = args.selector
    return mapping


def _cmd_gen_data(args) -> int:
    spec = spec_from_mapping(TRAIN, _apply_overrides(_load_config(args.config), args))
    if spec.synthetic is None:
        raise ConfigError(f"gen-data needs data = synthetic, got {spec.data_csv!r}")
    out = _check_out_dir(args.out)
    ds = generate_synthetic(spec.synthetic, make_rng(spec.seed))
    save_csv(ds, out)
    print(f"wrote {len(ds)} instances ({ds.feature_dim} features) to {out}")
    return 0


def _cmd_train(args) -> int:
    mapping = _apply_overrides(_load_config(args.config), args)
    spec = spec_from_mapping(TRAIN, mapping)
    if args.print_config:
        print(json.dumps(spec.resolved(), indent=2, sort_keys=True))
        return 0
    if args.out is None:
        raise ConfigError("train needs --out (or --print-config)")
    _jobs()  # a single fit uses no workers, but a bad value fails as in the studies
    _, report, outputs = run_training(spec, out_dir=_check_results_dir(args.out))
    print(f"f1={report.f1:.4f} precision={report.precision:.4f} "
          f"recall={report.recall:.4f} brier={report.brier:.4f}")
    for name, path in outputs.items():
        print(f"{name}: {path}")
    return 0


def _run_experiment(args, kind: str, runner) -> int:
    mapping = _apply_overrides(_load_config(args.config), args)
    spec = spec_from_mapping(kind, mapping)
    if args.out is None:
        raise ConfigError(f"{kind} needs --out")
    result = runner(spec, out_dir=_check_results_dir(args.out))
    for name, path in result.outputs.items():
        print(f"{name}: {path}")
    return 0


def _cmd_shift(args) -> int:
    return _run_experiment(args, SHIFT, run_shift_experiment)


def _cmd_growth(args) -> int:
    return _run_experiment(args, GROWTH, run_data_growth_experiment)


def _cmd_compare(args) -> int:
    return _run_experiment(args, COMPARE, run_selector_comparison)


def _parse_filters(pairs: list[str]) -> list[tuple[str, str]]:
    out = []
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--filter expects column=value, got {pair!r}")
        key, _, value = pair.partition("=")
        out.append((key.strip(), value.strip()))
    return out


def _cell_matches(cell: str, wanted: str) -> bool:
    if cell == wanted:
        return True
    try:
        return float(cell) == float(wanted)
    except ValueError:
        return False


def _cmd_report(args) -> int:
    filters = _parse_filters(args.filter or [])
    group_a: list[float] = []
    group_b: list[float] = []
    for path in args.results_csv:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(utf8_lines(fh, DataFormatError))
            header = reader.fieldnames or []
            for col in (args.col_a, args.col_b):
                if col not in header:
                    raise ConfigError(f"{path}: no column {col!r}; columns: {header}")
            for key, _ in filters:
                if key not in header:
                    raise ConfigError(f"{path}: no filter column {key!r}; columns: {header}")
            for row in reader:
                if all(_cell_matches(row[key], value) for key, value in filters):
                    try:
                        group_a.append(float(row[args.col_a]))
                        group_b.append(float(row[args.col_b]))
                    except ValueError:
                        raise DataFormatError(
                            f"{path}: non-numeric score in columns "
                            f"{args.col_a!r}/{args.col_b!r}"
                        ) from None
    u, p = mann_whitney_u(group_a, group_b, alternative="greater")
    summary = {
        "n_a": len(group_a),
        "n_b": len(group_b),
        "col_a": args.col_a,
        "col_b": args.col_b,
        "mean_a": sum(group_a) / len(group_a),
        "mean_b": sum(group_b) / len(group_b),
        "u_statistic": u,
        "p_one_sided_a_greater": p,
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uqcurate",
        description="Uncertainty-driven curation of labeled instance pools.",
        epilog=(
            "Config files are plain key=value text; `--config profile:NAME` loads a "
            "packaged profile (standard-synthetic, smoke). Flags override config keys. "
            "Environment: UQCURATE_JOBS (parallel repetitions, an integer >= 1; at most "
            "one worker per repetition and per CPU)."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_selector=False):
        p.add_argument("--config", help="key=value config file or profile:NAME")
        p.add_argument("--data", help="feature CSV path, or 'synthetic'")
        p.add_argument("--out", help="output directory (or file for gen-data)")
        p.add_argument("--seed", type=int, help="base seed override")
        p.add_argument("--uq", choices=UQ_METHODS,
                       help="weight-sampling method override")
        p.add_argument("--head", choices=HEADS, help="model head override")
        if with_selector:
            p.add_argument("--selector", choices=SELECTORS,
                           help="restrict comparison to one selector")

    p = sub.add_parser("gen-data", help="write a synthetic pool as CSV")
    p.add_argument("--config", help="key=value config file or profile:NAME")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--seed", type=int, help="generator seed (default: config seed or 0)")
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train", help="fit one model/ensemble and evaluate it")
    add_common(p)
    p.add_argument("--print-config", action="store_true",
                   help="print the resolved config and exit without writing files")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("shift", help="quality-shift study")
    add_common(p)
    p.set_defaults(func=_cmd_shift)

    p = sub.add_parser("growth", help="data-growth uncertainty study")
    add_common(p)
    p.set_defaults(func=_cmd_growth)

    p = sub.add_parser("compare", help="selector-comparison study")
    add_common(p, with_selector=True)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("report", help="one-sided rank test between two score columns")
    p.add_argument("results_csv", nargs="+", help="results CSV file(s)")
    p.add_argument("--col-a", required=True, help="column of the first group")
    p.add_argument("--col-b", required=True, help="column of the second group")
    p.add_argument("--filter", action="append", metavar="COL=VALUE",
                   help="keep only rows where COL equals VALUE (repeatable)")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DataFormatError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UqCurateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
