"""Abstract Springer correspondences for dihedral groups: enumeration,
acceptance conditions, closed-form systems, and maximality.

A *Springer set* S picks which irreducible characters are Springer
representations; it always contains the three special characters.  A
candidate correspondence is a datum (ordered partition of all characters
into classes, one Springer character each, a-value = that character's
b-invariant).  A candidate is *accepted* when its solved system passes the
five conditions:

  (1) in every class the b-invariant is minimised uniquely, at the class's
      a-value, by its Springer character -- and the Springer characters are
      exactly S;
  (2) every special character is a Springer character;
  (3) within each family, nonspecial characters are supported weakly below
      the special one;
  (4) Lambda has integer polynomial entries and P nonnegative integer
      polynomial entries;
  (5) each P-row is divisible by q^a of the row character's own class.

Accepted data are classified by a "d-sequence" (0 = d_0 < d_1 = 1 < ... <
d_N, the numeric Springer indices) together with a weakly decreasing
"f-sequence" bounding the upper runs of the classes; see
:func:`predicted_partition`.  The closed forms for the accepted P, Lambda
and Y are built in :func:`closed_form_system`, entirely independently of
the solver, so the two routes can be compared in anger.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import fakedegree
from .dihedral import (
    CharLabel,
    Chi,
    ChiR,
    ChiRPrime,
    Eps,
    all_labels,
    b_invariant,
    families as dihedral_families,
    format_label,
    label_sort_key,
    parse_label,
    specials,
)
from .errors import InvalidFSequence, InvalidM, SearchBoundExceeded, SingularBlock
from .exactalg import IntPoly, PolyMatrix, RatFunc
# search peels IntegralState itself and never calls solve; the benchmark's
# self-test reads springer.solve
from .greensolver import GreenSystem, IntegralState, LSDatum, solve  # noqa: F401

__all__ = [
    "SpringerSet",
    "SearchConfig",
    "iota",
    "d_sequence",
    "enumerate_f_sequences",
    "validate_f_sequence",
    "maximal_f",
    "predicted_partition",
    "maximal",
    "closed_form_system",
    "check_conditions",
    "ConditionReport",
    "enumerate_candidate_data",
    "search",
    "SearchOutcome",
    "SearchHit",
    "support_vector",
    "dominates",
    "support_f_sequence",
    "matches_predicted_partition",
    "special_pieces",
    "rational_smoothness",
    "all_springer_sets",
]


# ---------------------------------------------------------------------------
# Springer sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpringerSet:
    """A set of character labels marked as Springer representations.

    Must contain the special characters (for m = 2, where Chi(1) does not
    exist, the whole character set is required instead)."""

    m: int
    labels: frozenset[CharLabel]

    def __post_init__(self):
        object.__setattr__(self, "labels", frozenset(self.labels))
        valid = set(all_labels(self.m))
        if not self.labels <= valid:
            raise ValueError(
                f"labels {sorted(map(str, self.labels - valid))} do not exist for m={self.m}"
            )
        if self.m == 2:
            if self.labels != valid:
                raise ValueError("for m=2 the only Springer set is the full character set")
        else:
            missing = {Chi(0), Chi(1), Eps} - self.labels
            if missing:
                raise ValueError(
                    f"Springer set must contain the special characters; "
                    f"missing {sorted(map(str, missing))}"
                )

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_strings(m: int, items) -> "SpringerSet":
        """Build from label strings; the single string "all" (or the item
        "all") selects every character."""
        if isinstance(items, str):
            items = [s for s in items.split(",") if s.strip()]
        items = [s.strip() for s in items]
        if items == ["all"]:
            return SpringerSet(m, frozenset(all_labels(m)))
        return SpringerSet(m, frozenset(parse_label(s, m) for s in items))

    # -- queries -----------------------------------------------------------

    def numeric_indices(self) -> tuple[int, ...]:
        """Indices i >= 1 with Chi(i) in the set, ascending."""
        return tuple(sorted(
            l.index for l in self.labels if l.kind == "chi" and l.index >= 1
        ))

    def non_springer(self) -> tuple[CharLabel, ...]:
        return tuple(sorted(set(all_labels(self.m)) - self.labels, key=label_sort_key))

    def normalized(self) -> tuple["SpringerSet", bool]:
        """Canonical form under the diagram symmetry swapping the two extra
        even-m linear characters: a set containing ChiR but not ChiRPrime is
        replaced by its mirror.  Returns (set, swapped)."""
        if ChiR in self.labels and ChiRPrime not in self.labels:
            swapped = (self.labels - {ChiR}) | {ChiRPrime}
            return SpringerSet(self.m, frozenset(swapped)), True
        return self, False

    def describe(self) -> str:
        return "{" + ",".join(
            format_label(l) for l in sorted(self.labels, key=label_sort_key)
        ) + "}"


def iota(springer: SpringerSet) -> int:
    """Case selector: +1 for odd m or neither extra linear character
    Springer, 0 when exactly one of them is (ChiRPrime after
    normalisation), -1 when both are."""
    s, _ = springer.normalized()
    if s.m % 2:
        return 1
    has_r = ChiR in s.labels
    has_rp = ChiRPrime in s.labels
    if has_r and has_rp:
        return -1
    if has_rp:
        return 0
    return 1


def d_sequence(springer: SpringerSet) -> tuple[int, ...]:
    """(0 = d_0, 1 = d_1, ..., d_N): zero followed by the numeric Springer
    indices in increasing order."""
    if springer.m < 3:
        raise InvalidM("d-sequences need m >= 3")
    return (0,) + springer.numeric_indices()


def all_springer_sets(m: int) -> tuple[SpringerSet, ...]:
    """Every normalized Springer set for m: all choices of extra numeric
    indices, combined (for even m) with the three normalized states of the
    pair (ChiR, ChiRPrime): neither, ChiRPrime only, or both."""
    base = {Chi(0), Chi(1), Eps}
    extra = list(range(2, (m + 1) // 2))
    r_states: list[frozenset[CharLabel]] = [frozenset()]
    if m % 2 == 0:
        r_states += [frozenset({ChiRPrime}), frozenset({ChiR, ChiRPrime})]
    out = []
    for size in range(len(extra) + 1):
        for chosen in itertools.combinations(extra, size):
            for rs in r_states:
                labels = frozenset(base) | {Chi(i) for i in chosen} | rs
                out.append(SpringerSet(m, labels))
    return tuple(out)


# ---------------------------------------------------------------------------
# f-sequences
# ---------------------------------------------------------------------------

def _forced_f(m: int, n: int) -> tuple[int, ...]:
    return tuple([(m - 1) // 2] * n)


def validate_f_sequence(springer: SpringerSet, f) -> tuple[int, ...]:
    """Check admissibility of an f-sequence against the d-sequence; returns
    the sequence as a tuple or raises InvalidFSequence."""
    s, _ = springer.normalized()
    m = s.m
    d = d_sequence(s)
    n = len(d) - 1
    f = tuple(int(x) for x in f)
    if len(f) != n:
        raise InvalidFSequence(f"need {n} values, got {len(f)}")
    if iota(s) != 0:
        if f != _forced_f(m, n):
            raise InvalidFSequence(
                f"for this Springer set the sequence is forced to "
                f"{_forced_f(m, n)}, got {f}"
            )
        return f
    if f[0] != m // 2:
        raise InvalidFSequence(f"f_1 must be m/2 = {m // 2}, got {f[0]}")
    for k in range(n - 1):
        if f[k + 1] > f[k]:
            raise InvalidFSequence(f"not weakly decreasing at position {k + 1}")
        if f[k] - f[k + 1] > d[k + 2] - d[k + 1]:
            raise InvalidFSequence(
                f"drop f_{k + 1}-f_{k + 2} = {f[k] - f[k + 1]} exceeds "
                f"d-gap {d[k + 2] - d[k + 1]}"
            )
    if f[-1] < d[-1]:
        raise InvalidFSequence(f"f_N = {f[-1]} below d_N = {d[-1]}")
    return f


def enumerate_f_sequences(springer: SpringerSet) -> tuple[tuple[int, ...], ...]:
    """All admissible f-sequences (exactly one unless the selector is 0)."""
    s, _ = springer.normalized()
    m = s.m
    d = d_sequence(s)
    n = len(d) - 1
    if iota(s) != 0:
        return (_forced_f(m, n),)
    out: list[tuple[int, ...]] = []

    def extend(prefix: list[int]):
        k = len(prefix)
        if k == n:
            out.append(tuple(prefix))
            return
        lo = max(d[-1], prefix[-1] - (d[k + 1] - d[k]))
        for v in range(prefix[-1], lo - 1, -1):
            extend(prefix + [v])

    extend([m // 2])
    return tuple(out)


def maximal_f(springer: SpringerSet) -> tuple[int, ...]:
    """The greatest admissible f-sequence: start at m/2 and drop as little
    as the d-gaps allow (constant when the selector is nonzero)."""
    s, _ = springer.normalized()
    m = s.m
    d = d_sequence(s)
    n = len(d) - 1
    if iota(s) != 0:
        return _forced_f(m, n)
    f = [m // 2]
    for k in range(1, n):
        f.append(max(d[-1], f[-1] - (d[k + 1] - d[k])))
    return tuple(f)


# ---------------------------------------------------------------------------
# predicted partitions
# ---------------------------------------------------------------------------

def _index_char(m: int, i: int) -> CharLabel:
    """Chi(i) for i < m/2; the index m/2 stands for ChiR (the unprimed
    extra character, the one left non-Springer after normalisation)."""
    if 0 <= i < (m + 1) // 2:
        return Chi(i)
    if m % 2 == 0 and i == m // 2:
        return ChiR
    raise ValueError(f"no character of index {i} for m={m}")


def predicted_partition(springer: SpringerSet, f=None) -> LSDatum:
    """The datum of the correspondence attached to (S, f).

    The Springer set is normalised first.  Classes, bottom-up: the
    determinant class; singleton classes for ChiRPrime (and ChiR, both-in
    case) at a = m/2; then numeric classes C_N down to C_1, where C_k picks
    up the run Chi(d_k) .. Chi(d_{k+1}-1) plus the upper run
    Chi(f_{k+1}+1) .. Chi(f_k); finally the trivial class at a = 0.  When f
    is omitted the maximal admissible sequence is used (the only one, unless
    the selector is 0).
    """
    s, _ = springer.normalized()
    m = s.m
    d = d_sequence(s)
    n = len(d) - 1
    io = iota(s)
    f = validate_f_sequence(s, f if f is not None else maximal_f(s))

    classes: list[frozenset[CharLabel]] = [frozenset({Eps})]
    avals: list[int] = [m]
    if m % 2 == 0 and io == 0:
        classes.append(frozenset({ChiRPrime}))
        avals.append(m // 2)
    elif io == -1:
        classes.append(frozenset({ChiRPrime}))
        avals.append(m // 2)
        classes.append(frozenset({ChiR}))
        avals.append(m // 2)

    half = (m - 1) // 2  # largest numeric index

    def run(lo: int, hi: int) -> set[CharLabel]:
        return {_index_char(m, i) for i in range(lo, hi + 1)}

    for k in range(n, 0, -1):
        if k == n:
            if io == 0:
                members = run(d[n], f[n - 1])
            elif m % 2 == 1 or io == 1:
                members = run(d[n], half)
                if m % 2 == 0:
                    members |= {ChiR, ChiRPrime}
            else:  # io == -1
                members = run(d[n], half)
        else:
            members = run(d[k], d[k + 1] - 1)
            if f[k - 1] > f[k]:
                members |= run(f[k] + 1, f[k - 1])
        classes.append(frozenset(members))
        avals.append(d[k])
    classes.append(frozenset({Chi(0)}))
    avals.append(0)
    return LSDatum(m, tuple(classes), tuple(avals))


def maximal(springer: SpringerSet) -> LSDatum:
    """The correspondence with the maximal f-sequence; dominates every
    accepted correspondence for the same Springer set."""
    return predicted_partition(springer, maximal_f(springer))


def support_vector(datum: LSDatum) -> tuple[int, ...]:
    """Per character (canonical order), the a-value of its class; the
    comparison key for dominance."""
    return tuple(datum.a_of(l) for l in all_labels(datum.m))


def dominates(d1: LSDatum, d2: LSDatum) -> bool:
    """Whether every character sits at least as high in d1 as in d2
    (higher class = smaller a-value)."""
    if d1.m != d2.m:
        raise ValueError("cannot compare data for different m")
    return all(x <= y for x, y in zip(support_vector(d1), support_vector(d2)))


def support_f_sequence(datum: LSDatum, springer: SpringerSet) -> tuple[int, ...]:
    """Read the f-sequence off a datum's supports: f_k is the largest
    character index supported at or below the class of Chi(d_k).

    Index m/2 stands for ChiR when that character floats (selector 0);
    otherwise indices stop at (m-1)/2.  On data of the two-run shape this
    recovers the sequence the classes were built from."""
    s, _ = springer.normalized()
    if datum.m != s.m:
        raise ValueError("datum and Springer set disagree on m")
    m = s.m
    d = d_sequence(s)
    top = m // 2 if iota(s) == 0 else (m - 1) // 2
    pos = {}
    for p, cls in enumerate(datum.classes):
        for lab in cls:
            pos[lab] = p
    out = []
    for k in range(1, len(d)):
        anchor = pos[Chi(d[k])]
        out.append(max(i for i in range(1, top + 1)
                       if pos[_index_char(m, i)] <= anchor))
    return tuple(out)


def matches_predicted_partition(datum: LSDatum, springer: SpringerSet) -> bool:
    """Whether a datum is one of the two-run partitions attached to an
    admissible f-sequence.

    The sequence is read off the datum's own supports and the partition it
    predicts compared classwise.  Condition checking alone does not imply
    this: for some Springer sets the solved system of a nonconforming datum
    has nonnegative, divisible P entries anyway (first case m=10,
    S={0,1,2,3,r',eps}), so the search reports such data separately rather
    than merging them into the accepted list."""
    s, _ = springer.normalized()
    try:
        f = validate_f_sequence(s, support_f_sequence(datum, s))
    except InvalidFSequence:
        return False
    return predicted_partition(s, f) == datum


# ---------------------------------------------------------------------------
# closed-form systems
# ---------------------------------------------------------------------------

def _closed_fake_degree(m: int, label: CharLabel) -> IntPoly:
    """Standard fake degrees, straight from the table (not the Molien sum,
    on purpose: this module's route must not lean on the analytic one)."""
    if label.kind == "chi":
        if label.index == 0:
            return IntPoly(1)
        return IntPoly({label.index: 1, m - label.index: 1})
    if label.kind == "eps":
        return IntPoly.q(m)
    return IntPoly.q(m // 2)


def _num_index(label: CharLabel, m: int) -> int:
    if label.kind == "chi":
        return label.index
    if label.kind in ("chi_r", "chi_r_prime"):
        return m // 2
    raise ValueError(f"{label!r} has no numeric index")


def closed_form_system(springer: SpringerSet, f=None) -> GreenSystem:
    """The predicted solved system for (S, f), every entry written down
    from the closed formulas -- no elimination, no Molien sums.  The
    test-suite holds this against :func:`greensolver.solve` on the same
    datum.
    """
    s, _ = springer.normalized()
    m = s.m
    datum = predicted_partition(s, f)
    io = iota(s)
    d = d_sequence(s)
    n_d = len(d) - 1
    fseq = validate_f_sequence(s, f if f is not None else maximal_f(s))
    labels = list(all_labels(m))
    ncls = len(datum.classes)
    gamma = IntPoly({m: 1, 0: -1})

    # class-list position of C_N; positions before it are the determinant
    # class and the singleton classes of the extra linear characters
    first_numeric = 1 + {1: 0, 0: 1, -1: 2}[io] if m % 2 == 0 else 1

    def _numeric_k(stage: int) -> int:
        """Which C_k (N down to 0) a class-list position holds."""
        if stage == ncls - 1:
            return 0
        return n_d - (stage - first_numeric)

    # ---- P ----
    def p_entry(row: CharLabel, col: CharLabel) -> RatFunc:
        ri, ci = datum.class_of(row), datum.class_of(col)
        if ri < ci:
            return RatFunc(0)
        if ri == ci:
            return RatFunc(IntPoly.q(datum.a[ri])) if row == col else RatFunc(0)
        # col strictly below row
        if col == Eps:
            return RatFunc(_closed_fake_degree(m, row))
        if col in (ChiR, ChiRPrime) and len(datum.classes[ci]) == 1:
            if row in (ChiR, ChiRPrime):
                return RatFunc(0)
            return RatFunc(IntPoly.q(_num_index(row, m)))
        # col in a numeric class C_k: nonzero only at the d_k and f_k members
        k = _numeric_k(ci)
        if k == 0:
            return RatFunc(0)  # nothing sits above the trivial class
        i = _num_index(row, m)
        j = _num_index(col, m)
        if j == d[k] and i < d[k]:
            return RatFunc(IntPoly.q(i))
        fk = fseq[k - 1]
        if j == fk and i > fk:
            return RatFunc(IntPoly.q(d[k] + fk - i))
        return RatFunc(0)

    # ---- Y ----
    def y_entry(stage: int, row: CharLabel, col: CharLabel) -> RatFunc:
        cls = datum.classes[stage]
        if col == Eps:
            # omega(row, eps) / (q^m - 1) = q^m R(row) / (q^m - 1)
            num = _closed_fake_degree(m, row).shift(m)
            return RatFunc(num) / RatFunc(gamma)
        if col in (ChiR, ChiRPrime) and len(cls) == 1:
            if row in (ChiR, ChiRPrime) and row != col:
                return RatFunc(0)
            return RatFunc(IntPoly.q(_num_index(row, m) + m // 2))
        k = _numeric_k(stage)
        i = _num_index(row, m)
        j = _num_index(col, m)
        r_chars = (ChiR, ChiRPrime)
        if k == n_d:
            if io == 1 and m % 2 == 0 and (row in r_chars or col in r_chars):
                if row in r_chars and col in r_chars:
                    if row == col:
                        return RatFunc(IntPoly.q(m))
                    return RatFunc(0)
                other = i if col in r_chars else j
                return RatFunc(IntPoly.q(other + m // 2))
            ent = IntPoly.q(m - abs(i - j))
            if io == 1:
                ent = ent + IntPoly.q(i + j)
            elif io == -1:
                ent = ent - IntPoly.q(i + j)
            return RatFunc(ent)
        # below C_N the unsolved characters split into a lower run (index
        # short of d_{k+1}) and an upper run (index beyond f_{k+1}); the
        # cross entries vanish
        low_top = d[k + 1] - 1
        row_low = i <= low_top
        if row_low != (j <= low_top):
            return RatFunc(0)
        if row_low:
            return RatFunc(IntPoly.q(m - abs(i - j)) - IntPoly.q(m + i + j - 2 * d[k + 1]))
        return RatFunc(IntPoly.q(m - abs(i - j)) - IntPoly.q(m - i - j + 2 * fseq[k]))

    p_mat = PolyMatrix.from_function(labels, labels, p_entry)

    # ---- Lambda: q^(-2a) (q^m - 1) Y_{C,C} per class ----
    lam = PolyMatrix.zeros(labels, labels)
    lam_data = [list(row) for row in lam.data]
    pos = {l: t for t, l in enumerate(labels)}
    for stage in range(ncls):
        members = sorted(datum.classes[stage], key=label_sort_key)
        a_c = datum.a[stage]
        q2a = IntPoly.q(2 * a_c)
        for rr in members:
            for cc in members:
                v = y_entry(stage, rr, cc) * RatFunc(gamma)
                lam_data[pos[rr]][pos[cc]] = v / RatFunc(q2a)
    lam_mat = PolyMatrix(labels, labels, lam_data)

    return GreenSystem(datum, p_mat, lam_mat)


# ---------------------------------------------------------------------------
# acceptance conditions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConditionCheck:
    name: str
    passed: bool
    details: tuple[str, ...] = ()

    def __str__(self):
        flag = "ok" if self.passed else "FAIL"
        tail = ("  [" + "; ".join(self.details) + "]") if self.details else ""
        return f"{self.name}: {flag}{tail}"


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the five acceptance conditions for a solved system.

    springer_chars holds, per class (ascending), the unique character of
    minimal b-invariant, or None where the minimum is tied."""

    checks: tuple[ConditionCheck, ...]
    springer_chars: tuple[CharLabel | None, ...]

    @property
    def accepted(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary(self) -> str:
        return "\n".join(str(c) for c in self.checks)


def _class_minimizers(datum: LSDatum) -> tuple[CharLabel | None, ...]:
    out: list[CharLabel | None] = []
    for members in datum.classes:
        bs = {l: b_invariant(datum.m, l) for l in members}
        bmin = min(bs.values())
        att = [l for l, b in bs.items() if b == bmin]
        out.append(att[0] if len(att) == 1 else None)
    return tuple(out)


def check_conditions(system: GreenSystem, springer: SpringerSet) -> ConditionReport:
    """Run the five acceptance conditions against a solved system.

    The Springer set is compared as given (callers normalise first when
    they mean to)."""
    datum = system.datum
    m = datum.m
    minimizers = _class_minimizers(datum)

    # (1) unique minimal b-invariant at the class a-value, realising S
    det1: list[str] = []
    for ci, members in enumerate(datum.classes):
        label = minimizers[ci]
        if label is None:
            det1.append(f"class {ci} has a tied minimal b-invariant")
            continue
        if b_invariant(m, label) != datum.a[ci]:
            det1.append(
                f"class {ci}: min b = {b_invariant(m, label)} != a = {datum.a[ci]}"
            )
    realized = {l for l in minimizers if l is not None}
    if not det1 and realized != set(springer.labels):
        extra = realized - set(springer.labels)
        missing = set(springer.labels) - realized
        if extra:
            det1.append(
                "unexpected Springer characters "
                + ",".join(format_label(l) for l in sorted(extra, key=label_sort_key))
            )
        if missing:
            det1.append(
                "missing Springer characters "
                + ",".join(format_label(l) for l in sorted(missing, key=label_sort_key))
            )
    c1 = ConditionCheck("a-values-from-b", not det1, tuple(det1))

    # (2) every special character is Springer
    det2 = [
        f"special {format_label(s)} is not a class minimiser"
        for s in specials(m) if s not in realized
    ]
    c2 = ConditionCheck("specials-are-springer", not det2, tuple(det2))

    # (3) within a family, nonspecial characters sit weakly below the special
    det3: list[str] = []
    spc = set(specials(m))
    for fam in dihedral_families(m):
        for s in fam & spc:
            hi = datum.class_of(s)
            for psi in fam - spc:
                if datum.class_of(psi) > hi:
                    det3.append(
                        f"{format_label(psi)} sits above its family's special "
                        f"{format_label(s)}"
                    )
    c3 = ConditionCheck("family-support", not det3, tuple(det3))

    # (4) Lambda integral, P with nonnegative integer coefficients
    det4: list[str] = []
    for row in system.Lambda.rows:
        for col in system.Lambda.cols:
            v = system.Lambda.get(row, col)
            if not v.is_polynomial():
                det4.append(
                    f"Lambda[{format_label(row)},{format_label(col)}] not polynomial"
                )
    for row in system.P.rows:
        for col in system.P.cols:
            v = system.P.get(row, col)
            if not v.is_polynomial():
                det4.append(
                    f"P[{format_label(row)},{format_label(col)}] not polynomial"
                )
            elif any(c < 0 for c in v.num.c.values()):
                det4.append(
                    f"P[{format_label(row)},{format_label(col)}] = {v.num} "
                    "has a negative coefficient"
                )
    c4 = ConditionCheck("integrality", not det4, tuple(det4[:6]))

    # (5) row chi of P divisible by q^(a of chi's class)
    det5: list[str] = []
    for row in system.P.rows:
        a_row = datum.a_of(row)
        if a_row == 0:
            continue
        for col in system.P.cols:
            v = system.P.get(row, col)
            if v.num.is_zero():
                continue
            if not v.is_polynomial() or v.num.order() < a_row:
                det5.append(
                    f"P[{format_label(row)},{format_label(col)}] = {v} "
                    f"not divisible by q^{a_row}"
                )
    c5 = ConditionCheck("row-divisibility", not det5, tuple(det5[:6]))

    return ConditionReport((c1, c2, c3, c4, c5), minimizers)


# ---------------------------------------------------------------------------
# the search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchConfig:
    """Work bounds of the search: the number of candidates enumerated and
    the largest m searched.  The command line sets them from
    --max-candidates / --max-m or the config file; the bound on m of a
    single solve is the command line's own."""

    max_candidates: int = 10 ** 6
    max_m: int = 16

    def __post_init__(self):
        for name in ("max_candidates", "max_m"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")


def _placements(rest: dict[CharLabel, tuple[int, ...]], slot: int | None):
    """Each set of free characters that may join the class of ``slot``,
    with the options left to the others: (joined, rest).  A character whose
    only option left is ``slot`` must join."""
    if slot is None:
        yield frozenset(), rest
        return
    forced = [chi for chi, ks in rest.items() if ks == (slot,)]
    optional = [chi for chi, ks in rest.items() if slot in ks and len(ks) > 1]
    for size in range(len(optional) + 1):
        for combo in itertools.combinations(optional, size):
            joined = frozenset(forced).union(combo)
            yield joined, {chi: tuple(k for k in ks if k != slot)
                           for chi, ks in rest.items() if chi not in joined}


@dataclass(frozen=True)
class _CandidateSpace:
    """The candidates for one normalised Springer set.

    ``skeleton`` lists the classes bottom-up as (core, a-value, slot): the
    determinant class and the extra-linear singletons (slot None, no free
    character joins them), one numeric class C_k per d_k (slot k, core
    Chi(d_k)), and the trivial class (slot 0, core Chi(0)).  ``choices[i]``
    holds the slots the free character ``free[i]`` may join; a candidate
    is one slot per free character."""

    m: int
    skeleton: tuple[tuple[frozenset[CharLabel], int, int | None], ...]
    free: tuple[CharLabel, ...]
    choices: tuple[tuple[int, ...], ...]

    def data(self):
        """Every candidate datum, depth-first over the class lists
        bottom-up: for k = N..1 each admissible set of free characters
        joining C_k, then the trivial class.  Candidates sharing their
        lowest classes are consecutive."""
        a = tuple(a_c for _, a_c, _ in self.skeleton)

        def walk(level: int, classes: tuple, rest: dict):
            if level == len(self.skeleton):
                yield LSDatum(self.m, classes, a)
                return
            core, _, slot = self.skeleton[level]
            for joined, left in _placements(rest, slot):
                yield from walk(level + 1, classes + (core | joined,), left)

        return walk(0, (), dict(zip(self.free, self.choices)))


def _candidate_space(s: SpringerSet, family_filter: bool,
                     bounds: SearchConfig) -> _CandidateSpace:
    """The candidate space of a normalised Springer set; raises
    SearchBoundExceeded when m or the candidate count is over its bound.

    A free (non-Springer) character of b-invariant b may join C_k when
    d_k < b; with family_filter the trivial class is off-limits (it could
    only ever fail the family-support condition).

    When both extra linear characters are Springer their singleton classes
    tie (both have a = m/2); the skeleton puts ChiRPrime below ChiR.  The
    other order gives the same system: once the determinant class is peeled
    off, the residual entry Omega(r, r') - Omega(r, eps) Omega(r', eps) /
    Omega(eps, eps) is q^m - q^(3m/2) q^(3m/2) / q^(2m) = 0, so the two
    singletons do not interact."""
    m = s.m
    if m > bounds.max_m:
        raise SearchBoundExceeded(f"m={m} exceeds the search bound {bounds.max_m}")
    d = d_sequence(s)
    n = len(d) - 1
    free = s.non_springer()
    choices = []
    for chi in free:
        b = b_invariant(m, chi)
        ks = [k for k in range(1, n + 1) if d[k] < b]
        if not family_filter:
            ks.append(0)
        choices.append(tuple(ks))
    total = 1
    for ks in choices:
        total *= len(ks)
    if total > bounds.max_candidates:
        raise SearchBoundExceeded(
            f"{total} candidates exceed the bound {bounds.max_candidates}"
        )
    singletons = {-1: (ChiRPrime, ChiR), 0: (ChiRPrime,), 1: ()}[iota(s)]
    skeleton = (
        [(frozenset({Eps}), m, None)]
        + [(frozenset({rc}), m // 2, None) for rc in singletons]
        + [(frozenset({Chi(d[k])}), d[k], k) for k in range(n, 0, -1)]
        + [(frozenset({Chi(0)}), 0, 0)]
    )
    return _CandidateSpace(m, tuple(skeleton), free, tuple(choices))


def enumerate_candidate_data(springer: SpringerSet, *, family_filter: bool = True,
                             bounds: SearchConfig | None = None):
    """An iterator over the candidate data, one per assignment of the free
    characters, in the order :func:`search` solves them.

    The skeleton -- determinant class, extra-linear singletons (ChiRPrime
    below ChiR when both are Springer), one numeric class per d_k, trivial
    class -- is fixed; what varies is the numeric class hosting each
    non-Springer character, ranging over those with d_k < b (and the
    trivial class when family_filter is off).  The data come depth-first
    over the class lists, so candidates sharing a prefix are consecutive.
    The bounds are checked when this is called, before any datum is built;
    ``bounds`` defaults to ``SearchConfig()``."""
    s, _ = springer.normalized()
    space = _candidate_space(
        s, family_filter, bounds if bounds is not None else SearchConfig()
    )
    return space.data()


@dataclass(frozen=True)
class SearchHit:
    datum: LSDatum
    system: GreenSystem
    report: ConditionReport


@dataclass(frozen=True)
class SearchOutcome:
    """What one search found, with its counts.

    ``tried`` is the number of candidates, every datum of the space:
    ``tried = pruned + rejected_singular + full data solved``.  ``pruned``
    counts the candidates under a class-list prefix cut on condition (4);
    ``rejected_singular`` those under a prefix (or a full datum) whose next
    class has a singular Y block.  A candidate under a cut is not solved
    further, so a singular block above the cut is not reached and such a
    candidate counts as pruned: ``rejected_singular`` is a lower bound of
    the number of candidates with a singular block.  For every m <= 14 the
    two are equal, both 0."""

    m: int
    springer: SpringerSet          # normalised form actually searched
    swapped: bool                  # whether normalisation mirrored the input
    family_filter: bool
    hits: tuple[SearchHit, ...]    # accepted, sorted by support vector
    tried: int
    rejected_singular: int
    # condition-passing data whose classes are not a two-run partition for
    # any admissible f-sequence; kept out of `hits` and reported separately
    nonconforming: tuple[SearchHit, ...] = ()
    pruned: int = 0

    def data(self) -> tuple[LSDatum, ...]:
        return tuple(h.datum for h in self.hits)


def search(springer: SpringerSet, *, family_filter: bool = True,
           bounds: SearchConfig | None = None) -> SearchOutcome:
    """Solve every candidate of the Springer set, keep those passing all
    five conditions and matching the two-run partition read off their
    supports.

    Condition-passing candidates outside that shape do exist for a handful
    of Springer sets (both floating characters pushed into the a=1 class
    while the index they skip over keeps a singleton class of its own);
    they land in ``nonconforming``, never in ``hits``, so the main count
    stays the classified family.

    The data of :func:`enumerate_candidate_data` come depth-first over
    their class lists, and each is solved from the longest prefix it
    shares with the one before: ``path`` holds the states of that prefix,
    one :meth:`IntegralState.peel` per class, so each prefix is solved once,
    over Z[q].  A class fixes its Lambda block and the P entries above it,
    so a prefix whose last class fails condition (4) -- a block division
    with a remainder or a negative P coefficient -- is cut, after the
    columns of omega it fixes have been multiplied back, scaled into Z[q];
    the candidates under it count as ``pruned``.  A singular block counts
    the candidates of its prefix in ``rejected_singular``.  Every peel that
    is not cut multiplies back the columns of its class, so a full datum
    has been checked in every column when it reaches the five conditions;
    its P and Lambda equal :func:`greensolver.solve`'s.  ``bounds``
    defaults to ``SearchConfig()``."""
    s, swapped = springer.normalized()
    data = enumerate_candidate_data(s, family_filter=family_filter, bounds=bounds)
    om = fakedegree.omega(s.m, method="closed")
    hits: list[SearchHit] = []
    stray: list[SearchHit] = []
    counts = {"solved": 0, "pruned": 0, "singular": 0}
    prefix: list[frozenset[CharLabel]] = []
    path = [IntegralState.start(om, s.m)]  # path[i]: prefix[:i] peeled
    cut = None  # while prefix ends in a cut class: "pruned" or "singular"
    for datum in data:
        classes = datum.classes
        keep = 0
        while keep < len(prefix) and prefix[keep] == classes[keep]:
            keep += 1
        if cut is not None and keep == len(prefix):
            counts[cut] += 1
            continue
        del prefix[keep:], path[keep + 1:]
        cut = None
        for level in range(keep, len(classes)):
            prefix.append(classes[level])
            try:
                state = path[-1].peel(classes[level], datum.a[level])
            except SingularBlock:
                cut = "singular"
                break
            if state is None:
                cut = "pruned"
                break
            path.append(state)
        if cut is not None:
            counts[cut] += 1
            continue
        counts["solved"] += 1
        system = path[-1].system()
        report = check_conditions(system, s)
        if report.accepted:
            hit = SearchHit(datum, system, report)
            (hits if matches_predicted_partition(datum, s) else stray).append(hit)
    hits.sort(key=lambda h: support_vector(h.datum))
    stray.sort(key=lambda h: support_vector(h.datum))
    return SearchOutcome(m=s.m, springer=s, swapped=swapped,
                         family_filter=family_filter, hits=tuple(hits),
                         tried=sum(counts.values()),
                         rejected_singular=counts["singular"],
                         nonconforming=tuple(stray), pruned=counts["pruned"])


# ---------------------------------------------------------------------------
# special pieces and rational smoothness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpecialPieces:
    """Partition of the class list into the pieces headed by the three
    special characters: the trivial character's own class, everything in
    between, and the determinant class.  Entries are ascending-list class
    indices; tops[i] is the class of the i-th special."""

    specials: tuple[CharLabel, ...]
    pieces: tuple[tuple[int, ...], ...]
    tops: tuple[int, ...]


def special_pieces(datum: LSDatum) -> SpecialPieces:
    spc = specials(datum.m)
    h0 = datum.class_of(spc[0])
    he = datum.class_of(spc[2])
    middle = tuple(i for i in range(len(datum.classes)) if i not in (h0, he))
    return SpecialPieces(
        spc,
        ((h0,), middle, (he,)),
        (h0, datum.class_of(spc[1]), he),
    )


@dataclass(frozen=True)
class PieceSmoothness:
    special: CharLabel
    passed: bool
    details: tuple[str, ...]


@dataclass(frozen=True)
class SmoothnessReport:
    """Rational smoothness via the P-row of each piece's top character: the
    row must be exactly q^(top a-value) at the Springer character of every
    class of the piece and zero at its other characters.  full_variety runs
    the same test from the trivial character across all classes."""

    pieces: tuple[PieceSmoothness, ...]
    full_variety: bool
    full_details: tuple[str, ...]

    @property
    def all_pieces_smooth(self) -> bool:
        return all(p.passed for p in self.pieces)


def _smooth_row(system: GreenSystem, top_char: CharLabel,
                class_indices) -> tuple[bool, tuple[str, ...]]:
    datum = system.datum
    minimizers = _class_minimizers(datum)
    a_top = datum.a_of(top_char)
    want = RatFunc(IntPoly.q(a_top))
    details: list[str] = []
    for ci in class_indices:
        spr = minimizers[ci]
        if spr is None:
            details.append(f"class {ci} has no unique minimal b-invariant")
            continue
        got = system.P.get(top_char, spr)
        if got != want:
            details.append(
                f"P[{format_label(top_char)},{format_label(spr)}] = {got}, "
                f"expected q^{a_top}"
            )
        for other in datum.classes[ci]:
            if other == spr:
                continue
            v = system.P.get(top_char, other)
            if not v.num.is_zero():
                details.append(
                    f"P[{format_label(top_char)},{format_label(other)}] = {v}, "
                    "expected 0"
                )
    return (not details, tuple(details))


def rational_smoothness(system: GreenSystem) -> SmoothnessReport:
    datum = system.datum
    sp = special_pieces(datum)
    piece_reports = []
    for s, piece in zip(sp.specials, sp.pieces):
        ok, details = _smooth_row(system, s, piece)
        piece_reports.append(PieceSmoothness(s, ok, details))
    full_ok, full_details = _smooth_row(
        system, specials(datum.m)[0], range(len(datum.classes))
    )
    return SmoothnessReport(tuple(piece_reports), full_ok, full_details)
