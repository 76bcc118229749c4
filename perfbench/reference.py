"""Naive reference for the ehal/elah select-and-reject walk.

Written from the published loop with plain dicts, sorts and sets, like the
trace oracle of the test suite, and sharing no code with
``uqcurate.curation``: take the extreme-epistemic candidate of the view,
reject it while it sits in the view's top-``n_ale`` aleatoric set (the set is
recomputed after each rejection), and fall back to the extreme-epistemic
instance of the original view when every candidate is rejected.  Ties break
toward the smallest id.  ``n_ale`` is re-resolved from the remaining pool
before every pick, as ``max(1, ceil(fraction * remaining))``.

Sorting once per pick and keeping the rejection set as a set plus a pointer
into the aleatoric order gives the same answer as re-sorting after every
rejection, at a cost that suits a 20 000-record pool.
"""

from __future__ import annotations

import math


def select_one(pool: dict[str, tuple[float, float]], n_ale: int, high: bool) -> str:
    sign = -1.0 if high else 1.0
    by_epi = sorted(pool, key=lambda k: (sign * pool[k][0], k))
    by_ale = sorted(pool, key=lambda k: (sign * pool[k][1], k))
    inside = set(by_ale[:n_ale])
    nxt = min(n_ale, len(by_ale))
    for cand in by_epi:
        if cand not in inside:
            return cand
        # reject: drop from the view; the next noisiest survivor enters
        inside.discard(cand)
        if nxt < len(by_ale):
            inside.add(by_ale[nxt])
            nxt += 1
    return by_epi[0]


def first_picks(records, n_picks: int, n_ale_fraction: float, high: bool) -> list[str]:
    """The first ``n_picks`` picks of the walk over ``records``."""
    remaining = {r.id: (r.epistemic, r.aleatoric) for r in records}
    picks = []
    while remaining and len(picks) < n_picks:
        n_ale = max(1, math.ceil(n_ale_fraction * len(remaining)))
        pick = select_one(remaining, n_ale, high)
        del remaining[pick]
        picks.append(pick)
    return picks
