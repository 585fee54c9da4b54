#!/usr/bin/env python3
"""Search every admissible Springer set in a range of m and tabulate the
outcome: candidate counts, accepted correspondences, separately reported
nonconforming data, and wall time.

    python3 scripts/sweep.py --max-m 14
    python3 scripts/sweep.py --min-m 10 --max-m 12 --json sweep.json
"""
import argparse
import json
import sys
import time

from lsgreen.checks import search_outcome_check
from lsgreen.springer import SearchConfig, all_springer_sets, search


def run_sweep(min_m: int, max_m: int):
    bounds = SearchConfig(max_m=max_m)
    rows = []
    for m in range(min_m, max_m + 1):
        t0 = time.perf_counter()
        sets = all_springer_sets(m)
        tried = hits = stray = singular = 0
        for s in sets:
            out = search(s, bounds=bounds)
            tried += out.tried
            hits += len(out.hits)
            stray += len(out.nonconforming)
            singular += out.rejected_singular
            check = search_outcome_check(out)
            if not check.passed:
                raise AssertionError(f"m={m}, S={s.describe()}: {check}")
        rows.append({
            "m": m,
            "sets": len(sets),
            "candidates": tried,
            "accepted": hits,
            "nonconforming": stray,
            "singular": singular,
            "seconds": round(time.perf_counter() - t0, 2),
        })
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--min-m", type=int, default=3)
    ap.add_argument("--max-m", type=int, default=14)
    ap.add_argument("--json", metavar="FILE", default=None,
                    help="also dump the table as JSON")
    args = ap.parse_args(argv)

    rows = run_sweep(args.min_m, args.max_m)
    header = ("m", "sets", "candidates", "accepted", "nonconforming",
              "singular", "seconds")
    print("\t".join(header))
    for row in rows:
        print("\t".join(str(row[h]) for h in header))
    totals = {h: sum(r[h] for r in rows) for h in header[1:]}
    print("\t".join(["all"] + [str(totals[h]) for h in header[1:]]))

    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=2)
        print(f"wrote {args.json}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
