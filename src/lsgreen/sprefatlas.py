"""The preferred Springer set, truncated induction from reflection
subgroups, and the fixture atlas of known rank-2 correspondences.

The preferred set is built from the prime-power divisors of m: the
two-dimensional character of each such index d < m/2 joins the three
special characters (for even m the index-r characters contribute the
primed one instead).  Its claim to preference is that truncated induction
of special characters from the dihedral reflection subgroups lands exactly
on this set; :func:`verify_spref_via_induction` recomputes that from
scratch with ordinary inner products in Q(zeta_m).

The atlas holds, as versioned JSON fixtures, the handful of rank-2
correspondences whose class partitions and closure diagrams are known from
the classical literature (Sp4, G2, the characteristic-2 and -3 variants,
and two disconnected-group tables).  ``atlas_check`` replays the pipeline
against each fixture.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .dihedral import (
    CharLabel,
    Chi,
    ChiR,
    ChiRPrime,
    Eps,
    GroupElement,
    Ref,
    Rot,
    all_labels,
    b_invariant,
    char_value,
    elements,
    format_label,
    label_sort_key,
    parse_label,
    specials,
)
from .errors import BadSubgroup, InvalidM, NotUnique
from .exactalg import CycloNum, _factorize
from .fakedegree import omega
from .greensolver import closure_order, solve
from .springer import SpringerSet, d_sequence, maximal, search

__all__ = [
    "s_pref",
    "s_pref_report",
    "SprefReport",
    "d_sequence_formula_check",
    "d_sequence_formula_report",
    "DSequenceFormulaReport",
    "ReflSubgroup",
    "restriction_multiplicity",
    "j_induction",
    "verify_spref_via_induction",
    "AtlasFixture",
    "AtlasResult",
    "load_fixtures",
    "get_fixture",
    "atlas_check",
]


# ---------------------------------------------------------------------------
# arithmetic helpers
# ---------------------------------------------------------------------------

def _is_prime_power(n: int) -> bool:
    return n >= 2 and len(_factorize(n)) == 1


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


# ---------------------------------------------------------------------------
# the preferred Springer set
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SprefReport:
    m: int
    springer: SpringerSet
    dropped_divisors: tuple[int, ...]
    notes: tuple[str, ...]


def s_pref_report(m: int) -> SprefReport:
    """The preferred Springer set together with the prime-power divisors
    that had to be dropped because no character of their index exists."""
    if m < 2:
        raise InvalidM(f"need m >= 2, got {m}")
    if m == 2:
        return SprefReport(
            2, SpringerSet(2, frozenset(all_labels(2))), (),
            ("every character of the order-4 group is preferred",),
        )
    labels = {Chi(0), Chi(1), Eps}
    dropped = []
    r = m // 2 if m % 2 == 0 else None
    for d in _divisors(m):
        if not _is_prime_power(d):
            continue
        if r is not None and d == r:
            continue  # contributes the primed character instead, below
        if 2 * d < m:
            labels.add(Chi(d))
        else:
            dropped.append(d)
    notes = tuple(
        f"prime-power divisor {d} is at least m/2; no two-dimensional "
        "character has that index, so it is omitted"
        for d in dropped
    )
    if m % 2 == 0:
        labels.add(ChiRPrime)
    return SprefReport(m, SpringerSet(m, frozenset(labels)), tuple(dropped), notes)


def s_pref(m: int) -> SpringerSet:
    return s_pref_report(m).springer


# ---------------------------------------------------------------------------
# the closed formula for the d-sequence of the preferred set
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DSequenceFormulaReport:
    """Comparison of the actual d-sequence of the preferred set against its
    closed description in terms of the prime factorisation of m.

    The closed description is exact when m is a prime power (N = n and
    d_N = p^(n-1) for odd p^n; N = n-1 and d_N = 2^(n-2) for 2^n).  With
    several primes involved it can miss divisors (already at m = 12 it
    skips 3), so there the mismatches are recorded as discrepancies rather
    than failures, and the divisor-set definition is authoritative."""

    m: int
    sequence: tuple[int, ...]        # the actual d-sequence
    n_value: int                     # its N
    d_n: int                         # its d_N
    formula_n: int
    formula_d_n: int
    single_prime: bool
    passed: bool
    discrepancies: tuple[str, ...]


def d_sequence_formula_report(m: int) -> DSequenceFormulaReport:
    if m < 3:
        raise InvalidM(f"need m >= 3, got {m}")
    actual = d_sequence(s_pref(m))
    n_value = len(actual) - 1
    d_n = actual[-1]
    fac = list(_factorize(m).items())
    single = len(fac) == 1
    if single and fac[0][0] == 2:
        n = fac[0][1]
        formula_n, formula_d_n = n - 1, 2 ** (n - 2)
        formula_seq = (0,) + tuple(2 ** (l - 1) for l in range(1, n))
    elif single:
        p, n = fac[0]
        formula_n, formula_d_n = n, p ** (n - 1)
        formula_seq = (0,) + tuple(p ** (l - 1) for l in range(1, n + 1))
    else:
        formula_n = sum(e for _, e in fac)
        formula_d_n = m // fac[-1][0]
        formula_seq = None

    # structural self-consistency of the divisor-set definition
    kept = sorted(
        d for d in _divisors(m) if _is_prime_power(d) and 2 * d < m
    )
    consistent = actual == (0, 1) + tuple(kept)

    discrepancies = []
    if formula_n != n_value:
        discrepancies.append(
            f"closed form names N = {formula_n}, divisor set gives N = {n_value}"
        )
    if formula_d_n != d_n:
        discrepancies.append(
            f"closed form names d_N = {formula_d_n}, divisor set gives d_N = {d_n}"
        )
    if formula_seq is not None and formula_seq != actual:
        discrepancies.append(
            f"closed-form sequence {formula_seq} differs from actual {actual}"
        )
    passed = consistent and (not single or not discrepancies)
    return DSequenceFormulaReport(
        m, actual, n_value, d_n, formula_n, formula_d_n, single,
        passed, tuple(discrepancies),
    )


def d_sequence_formula_check(m: int) -> bool:
    return d_sequence_formula_report(m).passed


# ---------------------------------------------------------------------------
# reflection subgroups and truncated induction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReflSubgroup:
    """The standard dihedral reflection subgroup of order 2d inside the
    group of order 2m: generated by the reflections through 0 and m/d
    (through 1 and m/d + 1 for the primed variant, which exists only when
    m/d is even and is not conjugate to the unprimed one)."""

    m: int
    d: int
    primed: bool = False

    def __post_init__(self):
        if self.m < 2:
            raise InvalidM(f"need m >= 2, got {self.m}")
        if self.d < 2 or self.m % self.d != 0:
            raise BadSubgroup(
                f"no dihedral subgroup of index parameter d={self.d} in m={self.m}"
            )
        if self.primed and (self.m // self.d) % 2 != 0:
            raise BadSubgroup(
                f"the primed subgroup needs m/d even; m/d = {self.m // self.d}"
            )

    @property
    def order(self) -> int:
        return 2 * self.d

    @property
    def base(self) -> int:
        return 1 if self.primed else 0

    def elements(self) -> tuple[GroupElement, ...]:
        """Abstract elements, as members of the order-2d dihedral group."""
        return elements(self.d)

    def embed(self, h: GroupElement) -> GroupElement:
        """Image of an abstract element in the ambient group."""
        step = self.m // self.d
        if h.is_reflection:
            return Ref(step * h.k + self.base, self.m)
        return Rot(step * h.k, self.m)

    def describe(self) -> str:
        tick = "'" if self.primed else ""
        return f"I2{tick}({self.d}) < I2({self.m})"


def _embed_cyclo(v: CycloNum, m: int) -> CycloNum:
    """Image of a cyclotomic number under the field map sending the d-th
    root to the (m/d)-th power of the m-th root."""
    if m % v.m != 0:
        raise ValueError(f"Q(zeta_{v.m}) does not embed in Q(zeta_{m}) this way")
    step = m // v.m
    out = CycloNum.rational(m, 0)
    for j, a in enumerate(v.co):
        if a:
            out = out + CycloNum.root_power(m, step * j) * CycloNum.rational(m, a)
    return out


def restriction_multiplicity(sub: ReflSubgroup, sub_label: CharLabel,
                             ambient_label: CharLabel) -> int:
    """<phi, Res chi> over the subgroup, by the plain averaged inner
    product in Q(zeta_m); the result is checked to be a genuine
    nonnegative integer."""
    m, d = sub.m, sub.d
    total = CycloNum.rational(m, 0)
    for h in sub.elements():
        phi_v = _embed_cyclo(char_value(d, sub_label, h), m)
        chi_v = char_value(m, ambient_label, sub.embed(h))
        total = total + phi_v * chi_v.conj()
    val = total.rational_part() / Fraction(2 * d)
    if val.denominator != 1 or val < 0:
        raise AssertionError(
            f"inner product <{format_label(sub_label)}, Res {format_label(ambient_label)}> "
            f"over {sub.describe()} came out {val}"
        )
    return int(val)


def j_induction(sub: ReflSubgroup, sub_label: CharLabel) -> CharLabel:
    """Truncated induction: the constituent of the induced character whose
    b-invariant equals that of the inducing one.  Raises NotUnique when no
    or several constituents qualify."""
    b_phi = b_invariant(sub.d, sub_label)
    hits = []
    for lab in all_labels(sub.m):
        if b_invariant(sub.m, lab) != b_phi:
            continue
        if restriction_multiplicity(sub, sub_label, lab) > 0:
            hits.append(lab)
    if len(hits) != 1:
        raise NotUnique(
            f"truncated induction of {format_label(sub_label)} from "
            f"{sub.describe()} has {len(hits)} constituents at b = {b_phi}: "
            f"{[format_label(x) for x in hits]}"
        )
    return hits[0]


def verify_spref_via_induction(m: int) -> bool:
    """Recompute the preferred set as the j-images of the special
    characters of the standard reflection subgroups (those of prime-power
    parameter, plus the index-two subgroup for even m) together with the
    ambient specials, and compare."""
    if m < 3:
        raise InvalidM(f"need m >= 3, got {m}")
    produced: set[CharLabel] = set(specials(m))
    params = sorted(
        d for d in range(2, m)
        if m % d == 0 and (_is_prime_power(d) or (m % 2 == 0 and 2 * d == m))
    )
    for d in params:
        sub = ReflSubgroup(m, d)
        produced.add(j_induction(sub, Chi(0)))
        if d >= 3:
            produced.add(j_induction(sub, Chi(1)))
        produced.add(j_induction(sub, Eps))
    return produced == set(s_pref(m).labels)


# ---------------------------------------------------------------------------
# the atlas
# ---------------------------------------------------------------------------

_DATA_DIR = Path(__file__).resolve().parent / "atlas_data"
_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class AtlasFixture:
    """One known correspondence: the Springer set, the expected class
    partition (stored top-first, the order the tables print), the expected
    closure-diagram kind, and where the table comes from."""

    name: str
    m: int
    springer_set: SpringerSet
    expected_classes: tuple[frozenset[CharLabel], ...]
    expected_closure: str
    provenance: str

    def __post_init__(self):
        flat = [l for cls in self.expected_classes for l in cls]
        if sorted(flat, key=label_sort_key) != list(all_labels(self.m)) or \
                len(flat) != len(set(flat)):
            raise ValueError(
                f"fixture {self.name}: expected_classes is not a partition "
                f"of the characters for m={self.m}"
            )

    @staticmethod
    def from_jsonable(obj: dict) -> "AtlasFixture":
        if obj.get("schema_version") != _SCHEMA_VERSION:
            raise ValueError(
                f"unsupported fixture schema {obj.get('schema_version')!r}"
            )
        if obj.get("class_order", "top_first") != "top_first":
            raise ValueError("fixtures store classes top-first")
        m = obj["m"]
        return AtlasFixture(
            name=obj["name"],
            m=m,
            springer_set=SpringerSet.from_strings(m, obj["springer_set"]),
            expected_classes=tuple(
                frozenset(parse_label(s, m) for s in cls)
                for cls in obj["expected_classes"]
            ),
            expected_closure=obj["expected_closure"],
            provenance=obj["provenance"],
        )


@dataclass(frozen=True)
class AtlasResult:
    name: str
    passed: bool
    diff: tuple[str, ...]


def load_fixtures(data_dir: Path | None = None) -> tuple[AtlasFixture, ...]:
    base = data_dir if data_dir is not None else _DATA_DIR
    out = []
    for path in sorted(base.glob("*.json")):
        with open(path, encoding="utf-8") as fh:
            out.append(AtlasFixture.from_jsonable(json.load(fh)))
    if not out:
        raise FileNotFoundError(f"no atlas fixtures under {base}")
    return tuple(out)


def get_fixture(name: str, data_dir: Path | None = None) -> AtlasFixture:
    for fx in load_fixtures(data_dir):
        if fx.name == name:
            return fx
    raise KeyError(f"no atlas fixture named {name!r}")


def _format_classes(classes) -> str:
    return " | ".join(
        "{" + ",".join(format_label(l) for l in sorted(cls, key=label_sort_key)) + "}"
        for cls in classes
    )


def atlas_check(fixture: AtlasFixture) -> AtlasResult:
    """Replay the pipeline for one fixture: the maximal correspondence must
    reproduce the expected classes, appear among the search results, and
    carry the expected closure diagram."""
    diff: list[str] = []
    s = fixture.springer_set
    datum = maximal(s)
    got = datum.display_classes()
    if got != fixture.expected_classes:
        diff.append(
            f"classes: expected {_format_classes(fixture.expected_classes)}, "
            f"got {_format_classes(got)}"
        )
    om = omega(fixture.m, method="closed")
    system = solve(om, datum)
    kind = closure_order(system).diagram_kind()
    if kind != fixture.expected_closure:
        diff.append(
            f"closure: expected {fixture.expected_closure}, got {kind}"
        )
    outcome = search(s)
    if datum not in outcome.data():
        diff.append("maximal correspondence not among accepted search results")
    elif outcome.data()[0] != datum:
        diff.append("maximal correspondence is not the dominant search result")
    return AtlasResult(fixture.name, not diff, tuple(diff))
