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
from .errors import BadInput, InvalidFSequence, InvalidM, SearchBoundExceeded
from .exactalg import IntPoly, PolyMatrix, RatFunc
# search walks the node table and never calls solve; the benchmark's
# self-test reads springer.solve
from .greensolver import GreenSystem, LSDatum, node_table, solve  # noqa: F401

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
    indexed = [(i, pos[_index_char(m, i)]) for i in range(1, top + 1)]
    out = []
    for k in range(1, len(d)):
        anchor = pos[Chi(d[k])]
        out.append(max(i for i, p in indexed if p <= anchor))
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
    lam_data = [[RatFunc(0)] * len(labels) for _ in labels]
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


def _class_minimizer(m: int, members) -> CharLabel | None:
    """The unique character of minimal b-invariant in a class, or None
    where the minimum is tied; it depends on m and the class alone."""
    bs = {l: b_invariant(m, l) for l in members}
    bmin = min(bs.values())
    att = [l for l, b in bs.items() if b == bmin]
    return att[0] if len(att) == 1 else None


def _class_minimizers(datum: LSDatum) -> tuple[CharLabel | None, ...]:
    return tuple(_class_minimizer(datum.m, members) for members in datum.classes)


def check_conditions(system: GreenSystem, springer: SpringerSet) -> ConditionReport:
    """Run the five acceptance conditions against a solved system.

    The Springer set is compared as given (callers normalise first when
    they mean to).  Conditions (1)-(3) read only the datum and the
    Springer set; (4) and (5) read every entry of P and Lambda.  The
    search reaches the same report without a system (:func:`search`)."""
    datum = system.datum
    minimizers = _class_minimizers(datum)
    return ConditionReport(_datum_checks(datum, springer, minimizers) + _system_checks(system),
                           minimizers)


def _datum_checks(datum: LSDatum, springer: SpringerSet,
                  minimizers) -> tuple[ConditionCheck, ...]:
    """Conditions (1)-(3), from the datum, its class minimizers and the
    Springer set."""
    m = datum.m

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
    class_of = {l: ci for ci, members in enumerate(datum.classes) for l in members}
    det3: list[str] = []
    spc = set(specials(m))
    for fam in dihedral_families(m):
        for s in fam & spc:
            hi = class_of[s]
            for psi in fam - spc:
                if class_of[psi] > hi:
                    det3.append(
                        f"{format_label(psi)} sits above its family's special "
                        f"{format_label(s)}"
                    )
    c3 = ConditionCheck("family-support", not det3, tuple(det3))
    return c1, c2, c3


def _indivisible(row: CharLabel, col: CharLabel, v: RatFunc, a_row: int) -> str:
    """The detail condition (5) gives for one entry of P."""
    return f"P[{format_label(row)},{format_label(col)}] = {v} not divisible by q^{a_row}"


def _system_checks(system: GreenSystem) -> tuple[ConditionCheck, ConditionCheck]:
    """Conditions (4) and (5), entry by entry over P and Lambda."""
    datum = system.datum
    a_of = {l: a_c for members, a_c in zip(datum.classes, datum.a) for l in members}

    # (4) Lambda integral, P with nonnegative integer coefficients, and
    # (5) row chi of P divisible by q^(a of chi's class)
    det4: list[str] = []
    det5: list[str] = []
    Lam, P = system.Lambda, system.P
    for row, entries in zip(Lam.rows, Lam.data):
        for col, v in zip(Lam.cols, entries):
            if not v.is_polynomial():
                det4.append(
                    f"Lambda[{format_label(row)},{format_label(col)}] not polynomial"
                )
    for row, entries in zip(P.rows, P.data):
        a_row = a_of[row]
        for col, v in zip(P.cols, entries):
            poly = v.is_polynomial()
            if not poly:
                det4.append(
                    f"P[{format_label(row)},{format_label(col)}] not polynomial"
                )
            elif any(c < 0 for c in v.num.c.values()):
                det4.append(
                    f"P[{format_label(row)},{format_label(col)}] = {v.num} "
                    "has a negative coefficient"
                )
            if a_row and not v.num.is_zero() and (not poly or v.num.order() < a_row):
                det5.append(_indivisible(row, col, v, a_row))
    c4 = ConditionCheck("integrality", not det4, tuple(det4[:6]))
    c5 = ConditionCheck("row-divisibility", not det5, tuple(det5[:6]))
    return c4, c5


def _node_report(datum: LSDatum, nodes, springer: SpringerSet, minimizers,
                 table) -> ConditionReport:
    """The report :func:`check_conditions` gives a full datum's system,
    read off the datum's kept nodes of ``table`` with no system built.

    (1)-(3) read the datum, as there.  (4) holds: every node is kept, so
    its X is in N[q] and its Lambda_C polynomial, P_CC = q^(a_C), and
    every other entry is 0.  (5) fails exactly when some row of some
    node's X has its lowest power of q (``Node.lows``) below the a-value
    of the row's class; only then are the entries read, in
    check_conditions' order and words."""
    a_at = [0] * len(table.labels)
    for members, a_c in zip(datum.classes, datum.a):
        for l in members:
            a_at[table.pos[l]] = a_c
    det5: list[str] = []
    if any(low < a_at[p] for node in nodes for p, low in node.lows):
        labels = table.labels
        det5 = [_indivisible(labels[p], labels[j], v, a_at[p]) for p, j, v in sorted(
            ((p, j, v) for node in nodes for p, row in zip(node.above, node.rows_rf)
             for j, v in zip(node.midx, row) if v.num.c and v.num.order() < a_at[p]),
            key=lambda e: e[:2])]
    return ConditionReport(
        _datum_checks(datum, springer, minimizers)
        + (ConditionCheck("integrality", True),
           ConditionCheck("row-divisibility", not det5, tuple(det5[:6]))),
        minimizers)


# ---------------------------------------------------------------------------
# the search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchConfig:
    """Work bounds of the search: the number of candidates enumerated and
    the largest m searched.  The command line sets them from
    --max-candidates / --max-m or the config file; the bound on m of a
    single solve is the command line's own.  A negative bound is bad
    input (BadInput)."""

    max_candidates: int = 10 ** 6
    max_m: int = 16

    def __post_init__(self):
        for name in ("max_candidates", "max_m"):
            if getattr(self, name) < 0:
                raise BadInput(f"{name} must be nonnegative, got {getattr(self, name)}")


def enumerate_candidate_data(springer: SpringerSet, *, family_filter: bool = True,
                             bounds: SearchConfig | None = None):
    """An iterator over the candidate data, one per assignment of the free
    characters, in the order :func:`search` solves them.

    The skeleton lists the classes bottom-up as (core, a-value, slot): the
    determinant class and the extra-linear singletons (slot None, no free
    character joins them), one numeric class C_k per d_k (slot k, core
    Chi(d_k)), and the trivial class (slot 0, core Chi(0)).  What varies is
    the numeric class hosting each free (non-Springer) character: one of
    b-invariant b may join C_k when d_k < b, and with family_filter off
    the trivial class too (with it on, that class could only ever fail the
    family-support condition).  The data are the product of these choices,
    one pick of a class per free character.  Each datum is a partition
    with weakly decreasing a-values by construction, so it is built
    unchecked (``LSDatum._new``).

    When both extra linear characters are Springer their singleton classes
    tie (both have a = m/2); the skeleton puts ChiRPrime below ChiR.  The
    other order gives the same system: once the determinant class is peeled
    off, the residual entry Omega(r, r') - Omega(r, eps) Omega(r', eps) /
    Omega(eps, eps) is q^m - q^(3m/2) q^(3m/2) / q^(2m) = 0, so the two
    singletons do not interact.

    The bounds on m and on the candidate count are checked when this is
    called, before any datum is built (SearchBoundExceeded); ``bounds``
    defaults to ``SearchConfig()``."""
    if bounds is None:
        bounds = SearchConfig()
    s, _ = springer.normalized()
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
    a = tuple(a_c for _, a_c, _ in skeleton)
    return (
        LSDatum._new(m, tuple(core | {chi for chi, k in zip(free, pick) if k == slot}
                              for core, _, slot in skeleton), a)
        for pick in itertools.product(*choices)
    )


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
    counts the candidates whose walk up the class list stops at a node cut
    on condition (4); ``rejected_singular`` those whose walk stops at a
    class with a singular Y block.  A walk is not continued past a cut, so
    a singular block above the cut is not reached and such a candidate
    counts as pruned: ``rejected_singular`` is a lower bound of
    the number of candidates with a singular block.  On the closed omega
    both are 0 for m <= 30: omega(2) is positive definite there (its
    leading principal minors are positive), so every block M_CC(2) of a
    Schur complement of it is too, and no block is singular at q = 2 or
    over Z[q]: the node table's first point is q = 2 for every block."""

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
    """Walk every candidate of the Springer set, keep those passing all
    five conditions and of the two-run shape of an admissible f-sequence.

    Condition-passing candidates outside that shape do exist for some
    Springer sets (78 up to m = 16, first at m = 10; the f-sequence read
    off the supports of each has a drop larger than its d-gap, see
    scripts/stray_data.py); they land in ``nonconforming``, never in
    ``hits``, so the main count stays the classified family.

    Each datum of :func:`enumerate_candidate_data` is walked from its
    bottom class up, one node of m's :func:`node_table` per class: the
    node (S, C, a_C) of the labels S peeled below C.  A node is built and
    certified once per process and shared by every walk and every search
    of m (see :class:`greensolver.NodeTable`); its outcome depends on S, C
    and a_C alone, so the order of the data moves no count.  A class fixes
    its Lambda block and the P entries above it, so the walk stops at a
    node that fails condition (4) -- P entries not in N[q], or a Lambda
    block q^(2 a_C) does not divide -- and the candidate counts as
    ``pruned``.  The block is solved in integers, at q = 2, where a P
    entry outside N rules out one in N[q], and then at a large 2^K, whose
    base-2^K digits are X when X is in N[q].  A walk that stops at a
    singular block counts in ``rejected_singular``.

    A full datum is judged off its nodes and its classes, with no system
    built: the report is :func:`check_conditions`' on its system.
    (1)-(3) read the datum, each class's minimizer found once per search;
    (4) holds by the node certificates; (5) compares each row's lowest
    power of q, kept on the node, with its class's a-value.  Only an
    accepted datum gets a system, read off its nodes
    (:meth:`greensolver.NodeTable.system`), whose certificates give P
    Lambda P^t = omega; its P and Lambda equal :func:`greensolver.solve`'s.
    It is a hit when it is one of the predicted partitions of the
    admissible f-sequences, built once per search, which is what
    :func:`matches_predicted_partition` decides.  ``bounds`` defaults to
    ``SearchConfig()``."""
    s, swapped = springer.normalized()
    data = enumerate_candidate_data(s, family_filter=family_filter, bounds=bounds)
    table = node_table(s.m)
    predicted = {predicted_partition(s, f) for f in enumerate_f_sequences(s)}
    minimizers: dict = {}
    hits: list[SearchHit] = []
    stray: list[SearchHit] = []
    counts = {"solved": 0, "pruned": 0, "singular": 0}
    for datum in data:
        peeled, nodes = frozenset(), []
        for cls, a_c in zip(datum.classes, datum.a):
            node = table.node(peeled, cls, a_c)
            if isinstance(node, str):
                counts[node] += 1
                break
            nodes.append(node)
            peeled |= cls
        else:
            counts["solved"] += 1
            for cls in datum.classes:
                if cls not in minimizers:
                    minimizers[cls] = _class_minimizer(s.m, cls)
            report = _node_report(datum, nodes, s, tuple(map(minimizers.get, datum.classes)),
                                  table)
            if report.accepted:
                hit = SearchHit(datum, table.system(datum, nodes), report)
                (hits if datum in predicted else stray).append(hit)
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
