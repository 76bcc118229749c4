"""Run the trend criteria's studies at a list of spec seeds, and write
``CRITERIA_<label>.json`` at the repository root.

Acceptance criteria 4-7 (shift trend, ensemble superiority, growth trend,
selector ordering) each run one study on the shipped ``standard-synthetic``
profile at its one seed.  This tool runs the same studies at other seeds and
applies the same conditions, so a reader can see how often each holds by
chance before a change moves results on purpose.  The conditions and the
study specs are defined here once; ``tests/test_acceptance.py`` imports
them.

    python3 tools/criteria_seeds.py --label NAME --seeds 1-12
    python3 tools/criteria_seeds.py --label NAME --seeds 1-12 --criteria 4,5

The file holds, per seed and criterion, whether the condition held, its
signed margins (positive or zero when it held) and the acceptance line,
and per criterion the number of seeds it held at.  ``UQCURATE_JOBS`` sets
the worker processes of each study, as for the CLI.  To measure another
checkout's library, put its ``src/`` first on ``PYTHONPATH``; the file
records a digest of the package's source.  Shift costs about 20 s a seed
at two jobs, growth 9 s and compare 75 s.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

REPO = Path(__file__).resolve().parent.parent
# after any PYTHONPATH entry, so a checkout named there wins over this one
sys.path.append(str(REPO / "src"))
sys.path.append(str(REPO / "tools"))

import uqcurate  # noqa: E402
from uqcurate.experiments import (  # noqa: E402
    COMPARE,
    GROWTH,
    SHIFT,
    load_profile,
    run_data_growth_experiment,
    run_selector_comparison,
    run_shift_experiment,
    spec_from_mapping,
)
from uqcurate.metrics import mann_whitney_u, spearman_rho  # noqa: E402
from bench_pairs import source_digest  # noqa: E402

PROFILE = "standard-synthetic"
# criterion 7 reads the selectors at round 4, 40% of the pool picked
CHECKPOINT_ROUND = 4
P_MAX = 0.05            # ehal's one-sided rank test against elah
NOISY_MAX = 0.3         # ehal's share of noisy picks


class Check(NamedTuple):
    holds: bool
    margins: dict       # each >= 0 (> 0 where the condition is strict) when it holds
    line: str           # the acceptance line's detail


def study_spec(kind: str, seed: int | None = None):
    """The spec of a criterion's study: the profile at ``seed`` (its own seed
    when None), with vanilla beside the ensemble for shift."""
    mapping = load_profile(PROFILE)
    if kind == SHIFT:
        mapping["uq"] = "vanilla,ensemble"
    if seed is not None:
        mapping["seed"] = str(seed)
    return spec_from_mapping(kind, mapping)


def shift_trend(rows: list[dict]) -> Check:
    """Criterion 4: the ensemble's F1 falls and its Brier score rises with the
    shift intensity (Spearman rho over the summary rows)."""
    ens = [r for r in rows if r["method"] == "ensemble"]
    x = [r["intensity"] for r in ens]
    rho_f1 = spearman_rho(x, [r["mean_f1"] for r in ens])
    rho_brier = spearman_rho(x, [r["mean_brier"] for r in ens])
    return Check(rho_f1 < 0 and rho_brier > 0,
                 {"f1_falls": -rho_f1, "brier_rises": rho_brier},
                 f"rho_f1 {rho_f1:+.2f}, rho_brier {rho_brier:+.2f}")


def ensemble_superiority(rows: list[dict]) -> Check:
    """Criterion 5: averaged over the intensities, the ensemble's F1 is at
    least vanilla's and its Brier score at most vanilla's."""
    def mean_of(method, key):
        return float(np.mean([r[key] for r in rows if r["method"] == method]))

    ens_f1, van_f1 = mean_of("ensemble", "mean_f1"), mean_of("vanilla", "mean_f1")
    ens_brier, van_brier = mean_of("ensemble", "mean_brier"), mean_of("vanilla", "mean_brier")
    return Check(ens_brier <= van_brier and ens_f1 >= van_f1,
                 {"f1": ens_f1 - van_f1, "brier": van_brier - ens_brier},
                 f"F1 {ens_f1:.3f}>={van_f1:.3f}, Brier {ens_brier:.3f}<={van_brier:.3f}")


def growth_trend(rows: list[dict]) -> Check:
    """Criterion 6: the test-set epistemic entropy falls at every growth step,
    and by a larger share from first to last fraction than the aleatoric."""
    epis = [r["mean_epi"] for r in rows]
    ales = [r["mean_ale"] for r in rows]
    rel_epi = (epis[0] - epis[-1]) / epis[0]
    rel_ale = (ales[0] - ales[-1]) / ales[0]
    step = min(a - b for a, b in zip(epis, epis[1:]))
    return Check(step > 0 and rel_epi > rel_ale,
                 {"epi_step": step, "epi_over_ale_drop": rel_epi - rel_ale},
                 f"H_epi {' > '.join(f'{e:.3f}' for e in epis)}, "
                 f"rel drop epi {rel_epi*100:.1f}% > ale {rel_ale*100:.1f}%")


def selector_ordering(rows: list[dict], p: float) -> Check:
    """Criterion 7: at the checkpoint round, mean F1 orders ehal >= random >=
    elah with ehal above elah, ehal beats elah in the one-sided rank test
    ``p`` over repetitions, and few of ehal's picks are noisy."""
    at = {r["selector"]: r for r in rows if r["round"] == CHECKPOINT_ROUND}
    f1 = {s: at[s]["mean_f1"] for s in ("ehal", "random", "elah")}
    noisy = at["ehal"]["mean_selected_noisy_fraction"]
    margins = {"ehal_over_random": f1["ehal"] - f1["random"],
               "random_over_elah": f1["random"] - f1["elah"],
               "p": P_MAX - p, "noisy": NOISY_MAX - noisy}
    holds = (f1["ehal"] >= f1["random"] >= f1["elah"] and f1["ehal"] - f1["elah"] > 0
             and p < P_MAX and noisy < NOISY_MAX)
    return Check(holds, margins,
                 f"F1@40% ehal {f1['ehal']:.3f} >= random {f1['random']:.3f} >= "
                 f"elah {f1['elah']:.3f}, p {p:.2g}, noisy {noisy:.2f}")


def selector_p(run_rows: list[dict]) -> float:
    """The one-sided p that ehal's checkpoint-round F1 over repetitions
    exceeds elah's: the test ``uqcurate report`` runs on the wide F1 CSV."""
    f1 = lambda s: [r["f1"] for r in run_rows
                    if r["selector"] == s and r["round"] == CHECKPOINT_ROUND]
    return mann_whitney_u(f1("ehal"), f1("elah"))[1]


def run_seed(seed: int, criteria: list[int]) -> dict:
    """Each criterion's ``Check`` at one spec seed, as a dict, running each
    study the criteria need once."""
    out = {}
    if {4, 5} & set(criteria):
        rows = run_shift_experiment(study_spec(SHIFT, seed)).rows
        out.update({4: shift_trend(rows), 5: ensemble_superiority(rows)})
    if 6 in criteria:
        out[6] = growth_trend(run_data_growth_experiment(study_spec(GROWTH, seed)).rows)
    if 7 in criteria:
        result = run_selector_comparison(study_spec(COMPARE, seed))
        out[7] = selector_ordering(result.rows, selector_p(result.run_rows))
    return {str(c): out[c]._asdict() for c in criteria}


def imported_checkout() -> Path:
    """Root of the checkout whose ``src/`` the package was imported from."""
    return Path(uqcurate.__file__).resolve().parents[2]


def parse_seeds(raw: str) -> list[int]:
    """``9,1-4`` -> [1, 2, 3, 4, 9]: ascending, each seed once."""
    seeds = set()
    for part in raw.split(","):
        lo, _, hi = part.strip().partition("-")
        seeds.update(range(int(lo), int(hi or lo) + 1))
    return sorted(seeds)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="the file is CRITERIA_<label>.json")
    parser.add_argument("--seeds", default="1-12", help="spec seeds, e.g. 1-12 or 3,7 (default 1-12)")
    parser.add_argument("--criteria", default="4,5,6,7",
                        help="a subset of 4,5,6,7 (default: all four)")
    args = parser.parse_args(argv)
    try:
        seeds = parse_seeds(args.seeds)
        criteria = sorted({int(c) for c in args.criteria.split(",")})
    except ValueError as exc:
        parser.error(str(exc))
    if not seeds or min(seeds) < 0:
        parser.error(f"--seeds must list seeds >= 0, got {args.seeds!r}")
    if not set(criteria) <= {4, 5, 6, 7}:
        parser.error(f"--criteria must be a subset of 4,5,6,7, got {args.criteria!r}")

    by_seed = {}
    for seed in seeds:
        by_seed[str(seed)] = run_seed(seed, criteria)
        print(f"seed {seed}: " + ", ".join(
            f"c{c} {'held' if v['holds'] else 'FAILED'} [{v['line']}]"
            for c, v in by_seed[str(seed)].items()), file=sys.stderr, flush=True)
    result = {
        "label": args.label,
        "profile": PROFILE,
        "source_digest": source_digest(imported_checkout()),
        "jobs": os.environ.get("UQCURATE_JOBS", "1"),
        "seeds": seeds,
        "held": {str(c): sum(by_seed[str(s)][str(c)]["holds"] for s in seeds)
                 for c in criteria},
        "by_seed": by_seed,
    }
    path = REPO / f"CRITERIA_{args.label}.json"
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(path)
    return 0


# spawned repetition workers import this file again; only a run starts main
if __name__ == "__main__":
    sys.exit(main())
