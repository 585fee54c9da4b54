#!/usr/bin/env python3
# Catalog the condition-passing data that fall outside the two-run family.
#
# For some Springer sets the five acceptance conditions are not enough: a
# datum can factor with nonnegative integral blocks and pass row
# divisibility while its classes are not the two-run partition of any
# admissible f-sequence.  search() keeps these out of its hits and reports
# them separately; this script prints each one with the f-sequence read
# off its supports, the reason that sequence is inadmissible, whether the
# maximal datum dominates it, and the characters it places differently
# from the maximal datum.  It ends with a tally by reason and by
# dominance.
#
# usage: python3 scripts/stray_data.py [max_m]

import re
import sys
from collections import Counter

from lsgreen.errors import InvalidFSequence
from lsgreen.springer import (
    SearchConfig, all_springer_sets, dominates, maximal, search,
    support_f_sequence, validate_f_sequence,
)

max_m = int(sys.argv[1]) if len(sys.argv) > 1 else 14
bounds = SearchConfig(max_m=max_m)

reasons: Counter = Counter()
dominated: Counter = Counter()
for m in range(3, max_m + 1):
    for s in all_springer_sets(m):
        out = search(s, bounds=bounds)
        if not out.nonconforming:
            continue
        top = maximal(s)
        for hit in out.nonconforming:
            d = hit.datum
            print(f"m={m}  S={s.describe()}")
            print(f"  datum: {d.describe()}")
            f = support_f_sequence(d, s)
            try:
                validate_f_sequence(s, f)
                reason = "admissible?!"  # never reached so far
            except InvalidFSequence as exc:
                reason = str(exc)
            reasons[re.sub(r"\d+", "k", reason)] += 1
            print(f"  support reading f={f}: {reason}")
            below = dominates(top, d)
            dominated[below] += 1
            print(f"  dominated by maximal: {below}")
            moved = sorted(
                (lab for cls in d.classes for lab in cls
                 if d.a_of(lab) != top.a_of(lab)),
                key=str,
            )
            print("  characters at a different level than maximal: "
                  + ", ".join(str(x) for x in moved))
            print()

total = sum(reasons.values())
print(f"{total} nonconforming data for m <= {max_m}")
for reason, n in reasons.most_common():
    print(f"  {n}  {reason}")
print(f"  {dominated[True]} dominated by the maximal datum, "
      f"{dominated[False]} not")
