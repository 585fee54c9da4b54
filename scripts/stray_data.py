#!/usr/bin/env python3
# Catalog the condition-passing data that fall outside the two-run family.
#
# For a handful of Springer sets the five acceptance conditions are not
# enough: a datum that parks both floating characters in the a=1 class
# while a skipped index keeps its own singleton class still factors with
# nonnegative integral blocks and passes row divisibility.  search() keeps
# these out of its hits and reports them separately; this script prints
# each one with the f-sequence read off its supports, the reason that
# sequence is inadmissible, and the characters it places differently from
# the dominant correspondence.
#
# usage: python3 scripts/stray_data.py [max_m]

import sys

from lsgreen.errors import InvalidFSequence
from lsgreen.springer import (
    SearchConfig, all_springer_sets, dominates, maximal, search,
    support_f_sequence, validate_f_sequence,
)

max_m = int(sys.argv[1]) if len(sys.argv) > 1 else 14
bounds = SearchConfig(max_m=max_m)

total = 0
for m in range(3, max_m + 1):
    for s in all_springer_sets(m):
        out = search(s, bounds=bounds)
        for hit in out.nonconforming:
            total += 1
            d = hit.datum
            top = maximal(s)
            print(f"m={m}  S={s.describe()}")
            print(f"  datum: {d.describe()}")
            f = support_f_sequence(d, s)
            try:
                validate_f_sequence(s, f)
                reason = "admissible?!"  # never reached so far
            except InvalidFSequence as exc:
                reason = str(exc)
            print(f"  support reading f={f}: {reason}")
            print(f"  dominated by maximal: {dominates(top, d)}")
            moved = sorted(
                (lab for cls in d.classes for lab in cls
                 if d.a_of(lab) != top.a_of(lab)),
                key=str,
            )
            print("  characters at a different level than maximal: "
                  + ", ".join(str(x) for x in moved))
            print()

print(f"{total} nonconforming data for m <= {max_m}")
