"""The dihedral reflection group of order 2m and its character theory.

Elements are written multiplicatively in terms of the rotation rho (a
primitive m-th root of unity acting on the reflection plane) and the
reflections s_k = rho^k s_0.  In the two-dimensional reflection
representation

    rho^k  ->  diag(zeta^k, zeta^-k),        s_k  ->  [[0, zeta^k], [zeta^-k, 0]]

with zeta = exp(2 pi i / m).  Products follow from these matrices:

>>> m = 5
>>> mult(Ref(1), Ref(3), m)
Rot(3)
>>> mult(Rot(2), Ref(1), m)
Ref(3)

Irreducible characters are labelled Chi(i) (two-dimensional for i >= 1,
trivial for i = 0), Eps (the determinant character), and -- for even m only
-- the two further linear characters ChiR and ChiRPrime that restrict
nontrivially to the rotation subgroup.  The b-invariant of a character is
the q-valuation of its fake degree; it is computed here from the standard
closed values and cross-checked in the test-suite against the fake-degree
machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .errors import InvalidM
from .exactalg import CycloNum

__all__ = [
    "GroupElement",
    "Rot",
    "Ref",
    "elements",
    "mult",
    "inverse",
    "CharLabel",
    "Chi",
    "ChiR",
    "ChiRPrime",
    "Eps",
    "label_sort_key",
    "parse_label",
    "format_label",
    "all_labels",
    "IrrChar",
    "char_table",
    "irreps",
    "char_value",
    "b_invariant",
    "families",
    "specials",
    "num_irreducibles",
]


# ---------------------------------------------------------------------------
# group elements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroupElement:
    """Either the rotation rho^k (is_reflection False) or the reflection
    s_k = rho^k s_0 (is_reflection True); k is always reduced mod m by the
    constructors below."""

    is_reflection: bool
    k: int

    def __repr__(self) -> str:
        return f"{'Ref' if self.is_reflection else 'Rot'}({self.k})"


def Rot(k: int, m: int | None = None) -> GroupElement:
    return GroupElement(False, k % m if m else k)


def Ref(k: int, m: int | None = None) -> GroupElement:
    return GroupElement(True, k % m if m else k)


def elements(m: int) -> tuple[GroupElement, ...]:
    """All 2m elements: rotations rho^0..rho^(m-1), then reflections
    s_0..s_(m-1)."""
    _check_m(m)
    return tuple(Rot(k) for k in range(m)) + tuple(Ref(k) for k in range(m))


def mult(g: GroupElement, h: GroupElement, m: int) -> GroupElement:
    if not g.is_reflection and not h.is_reflection:
        return Rot(g.k + h.k, m)
    if not g.is_reflection:
        return Ref(g.k + h.k, m)
    if not h.is_reflection:
        return Ref(g.k - h.k, m)
    return Rot(g.k - h.k, m)


def inverse(g: GroupElement, m: int) -> GroupElement:
    if g.is_reflection:
        return g
    return Rot(-g.k, m)


def _check_m(m: int, minimum: int = 2):
    if not isinstance(m, int) or m < minimum:
        raise InvalidM(f"m must be an integer >= {minimum}, got {m!r}")


# ---------------------------------------------------------------------------
# character labels
# ---------------------------------------------------------------------------

def label_sort_key(label: CharLabel) -> tuple[int, int]:
    """Canonical order: Chi(0), Chi(1), ... ascending, then ChiR, then
    ChiRPrime, then Eps."""
    if label.kind == "chi":
        return (0, label.index)
    return ({"chi_r": 1, "chi_r_prime": 2, "eps": 3}[label.kind], 0)


@dataclass(frozen=True)
class CharLabel:
    """Label of an irreducible character: ('chi', i), ('chi_r', None),
    ('chi_r_prime', None) or ('eps', None)."""

    kind: str
    index: int | None = None
    # the hash of the int pair label_sort_key, computed once: labels are
    # hashed in every set and dict of the search, and a hash of ints (not
    # of None, whose hash is its address) is the same in every process, so
    # those sets and dicts iterate in one order from run to run
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("chi", "chi_r", "chi_r_prime", "eps"):
            raise ValueError(f"unknown label kind {self.kind!r}")
        if (self.kind == "chi") != (self.index is not None):
            raise ValueError("index is required exactly for 'chi' labels")
        object.__setattr__(self, "_hash", hash(label_sort_key(self)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuilt from its fields, so a copy or an unpickled label carries
        # the hash of the process it lives in
        return CharLabel, (self.kind, self.index)

    def __repr__(self) -> str:
        return format_label(self)


def Chi(i: int) -> CharLabel:
    return CharLabel("chi", i)


ChiR = CharLabel("chi_r")
ChiRPrime = CharLabel("chi_r_prime")
Eps = CharLabel("eps")


def format_label(label: CharLabel) -> str:
    if label.kind == "chi":
        return str(label.index)
    return {"chi_r": "r", "chi_r_prime": "r'", "eps": "eps"}[label.kind]


def parse_label(text: str, m: int) -> CharLabel:
    """Parse the compact label syntax: "0", "1", ... for Chi(i), "r" and
    "r'" for the even-m linear characters, "eps" for the determinant.

    >>> parse_label("r'", 6)
    r'
    >>> parse_label("2", 7)
    2
    """
    _check_m(m)
    t = text.strip()
    if t == "eps":
        return Eps
    if t in ("r", "r'"):
        if m % 2:
            raise ValueError(f"label {t!r} requires even m (got m={m})")
        return ChiR if t == "r" else ChiRPrime
    try:
        i = int(t)
    except ValueError:
        raise ValueError(f"cannot parse character label {text!r}") from None
    if not 0 <= i < (m + 1) // 2:
        raise ValueError(f"numeric label {i} out of range for m={m}")
    return Chi(i)


@lru_cache(maxsize=None, typed=True)
def all_labels(m: int) -> tuple[CharLabel, ...]:
    """All irreducible-character labels in canonical order, built once per
    m (the labels are frozen)."""
    _check_m(m)
    mid = [Chi(i) for i in range((m + 1) // 2)]
    if m % 2 == 0:
        mid += [ChiR, ChiRPrime]
    return tuple(mid) + (Eps,)


def num_irreducibles(m: int) -> int:
    return (m + 3) // 2 if m % 2 else m // 2 + 3


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------

def char_value(m: int, label: CharLabel, g: GroupElement) -> CycloNum:
    """The value of the irreducible character with the given label at g,
    as an element of Z[zeta_m].

    Accepts m >= 2: the degenerate m = 2 table (four linear characters) is
    needed internally for induction from the smallest reflection subgroups,
    even though m >= 3 is required for the public table.
    """
    _check_m(m)
    if label.kind == "chi":
        i = label.index
        if i == 0:
            return CycloNum.rational(m, 1)
        if g.is_reflection:
            return CycloNum.rational(m, 0)
        return CycloNum.root_power(m, i * g.k) + CycloNum.root_power(m, -i * g.k)
    if label.kind == "eps":
        return CycloNum.rational(m, -1 if g.is_reflection else 1)
    if m % 2:
        raise ValueError(f"label {label!r} does not exist for odd m={m}")
    sign = -1 if g.k % 2 else 1
    if label.kind == "chi_r_prime" and g.is_reflection:
        sign = -sign
    return CycloNum.rational(m, sign)


def b_invariant(m: int, label: CharLabel) -> int:
    """q-valuation of the fake degree (0 for trivial, m for determinant,
    i for Chi(i), m/2 for the two extra even-m linear characters)."""
    _check_m(m)
    if label.kind == "chi":
        return label.index
    if label.kind == "eps":
        return m
    if m % 2:
        raise ValueError(f"label {label!r} does not exist for odd m={m}")
    return m // 2


@dataclass(frozen=True)
class IrrChar:
    """An irreducible character, tabulated on all 2m group elements in the
    order of :func:`elements`."""

    m: int
    label: CharLabel
    degree: int
    b: int
    values: tuple[CycloNum, ...]

    def value(self, g: GroupElement) -> CycloNum:
        return self.values[(self.m if g.is_reflection else 0) + g.k % self.m]

    def __repr__(self) -> str:
        return f"IrrChar(m={self.m}, {self.label!r})"


@lru_cache(maxsize=None)
def char_table(m: int) -> tuple[IrrChar, ...]:
    """Character table for m >= 2, labels in canonical order."""
    _check_m(m)
    out = []
    for label in all_labels(m):
        vals = tuple(char_value(m, label, g) for g in elements(m))
        degree = vals[0].rational_part()
        out.append(IrrChar(m, label, degree, b_invariant(m, label), vals))
    return tuple(out)


def irreps(m: int) -> tuple[IrrChar, ...]:
    """The irreducible characters in canonical order; requires m >= 3.

    (m = 2 is excluded from the public surface: the group is then reducible
    as a reflection group and every formula degenerates.  The internal table
    :func:`char_table` still covers it.)
    """
    _check_m(m, minimum=3)
    return char_table(m)


def get_char(m: int, label: CharLabel) -> IrrChar:
    for ch in char_table(m):
        if ch.label == label:
            return ch
    raise KeyError(f"no character {label!r} for m={m}")


# ---------------------------------------------------------------------------
# families and special characters
# ---------------------------------------------------------------------------

def specials(m: int) -> tuple[CharLabel, ...]:
    """The special characters: trivial, reflection-adjacent, determinant."""
    _check_m(m, minimum=3)
    return (Chi(0), Chi(1), Eps)


@lru_cache(maxsize=None, typed=True)
def families(m: int) -> tuple[frozenset[CharLabel], ...]:
    """Partition of the irreducible labels into families: the trivial and
    determinant characters are alone, everything else forms one family.
    Built once per m (the families are frozen).

    >>> [sorted(map(str, f)) for f in families(5)]
    [['0'], ['1', '2'], ['eps']]
    """
    _check_m(m, minimum=3)
    labels = all_labels(m)
    middle = frozenset(l for l in labels if l not in (Chi(0), Eps))
    return (frozenset({Chi(0)}), middle, frozenset({Eps}))
