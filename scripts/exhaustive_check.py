#!/usr/bin/env python3
"""Check the pruned search against solving every candidate on its own.

For every admissible Springer set of every m from 3 to max_m (default 14),
with the family filter on and off, `search` must give the same accepted
and nonconforming systems (datum, P, Lambda and the non-polynomial Y
entries), the same candidate count and the same singular count as taking
each datum of `enumerate_candidate_data` through `greensolver.solve` and
the five conditions.  The singular count of the search is a lower bound by
construction (a candidate under a cut is not solved further); this is
where it is shown equal.  Prints one row per m and exits 1 on any
difference.

    python3 scripts/exhaustive_check.py 14
"""
import sys
import time

from lsgreen.errors import SingularBlock
from lsgreen.fakedegree import omega
from lsgreen.greensolver import solve
from lsgreen.springer import (
    SearchConfig, all_springer_sets, check_conditions, enumerate_candidate_data,
    matches_predicted_partition, search, support_vector,
)


def entries(systems):
    """The compared fields of solved systems, in the given order."""
    return [(sy.datum, sy.P, sy.Lambda, sy.nonpolynomial_y) for sy in systems]


def exhaustive(springer, family_filter: bool, bounds: SearchConfig | None = None):
    """The reference the pruned search must match: every datum
    enumerate_candidate_data yields, solved and judged on its own.
    Returns (hits, nonconforming, tried, singular), the systems sorted by
    support vector as search lists them."""
    s, _ = springer.normalized()
    om = omega(s.m, method="closed")
    hits, stray, tried, singular = [], [], 0, 0
    for datum in enumerate_candidate_data(s, family_filter=family_filter, bounds=bounds):
        tried += 1
        try:
            system = solve(om, datum)
        except SingularBlock:
            singular += 1
            continue
        if check_conditions(system, s).accepted:
            (hits if matches_predicted_partition(datum, s) else stray).append(system)
    hits.sort(key=lambda sy: support_vector(sy.datum))
    stray.sort(key=lambda sy: support_vector(sy.datum))
    return hits, stray, tried, singular


def check_m(m: int, bounds: SearchConfig) -> dict:
    """Compare both routes on every Springer set of m, both filters."""
    t0 = time.perf_counter()
    row = {"m": m, "sets": len(all_springer_sets(m)), "candidates": 0,
           "unfiltered": 0, "singular": 0, "differences": []}
    for family_filter in (True, False):
        for s in all_springer_sets(m):
            out = search(s, family_filter=family_filter, bounds=bounds)
            hits, stray, tried, singular = exhaustive(s, family_filter, bounds)
            got = (entries(h.system for h in out.hits),
                   entries(h.system for h in out.nonconforming),
                   out.tried, out.rejected_singular)
            if got != (entries(hits), entries(stray), tried, singular):
                row["differences"].append(f"S={s.describe()} family_filter={family_filter}")
            row["candidates" if family_filter else "unfiltered"] += tried
            row["singular"] += singular
    row["seconds"] = round(time.perf_counter() - t0, 1)
    return row


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    max_m = int(argv[0]) if argv else 14
    bounds = SearchConfig(max_m=max_m)
    header = ("m", "sets", "candidates", "unfiltered", "singular", "differences", "seconds")
    print("\t".join(header))
    failed = False
    for m in range(3, max_m + 1):
        row = check_m(m, bounds)
        failed = failed or bool(row["differences"])
        print("\t".join(str(len(row[h]) if h == "differences" else row[h]) for h in header),
              flush=True)
        for diff in row["differences"]:
            print(f"  differs: {diff}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
