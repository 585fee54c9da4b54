"""Block-triangular solving of P Lambda P^t = omega over Q(q).

Given a candidate datum -- an ordered partition of the irreducible
characters into "support classes", each with an a-value -- the system

    P . Lambda . P^t = omega

has a unique solution once P is required to vanish below the block diagonal
(P_{chi,psi} = 0 whenever the class of chi is strictly below the class of
psi), to be delta q^(a_C) on each diagonal block, and Lambda to be
block-diagonal symmetric.  The solver works up the class list, peeling one
class C at a time off the residual matrix

    M = omega - sum_{C' already done} P_{.,C'} Lambda_{C'} P_{.,C'}^t ,

from which

    Y^C        = M / (q^m - 1)            (rows: unsolved characters),
    Lambda_C   = q^(-2 a_C) M_{C,C},
    P-rows     : X . Y^C_{C,C} = q^(a_C) Y^C_{chi,C}.

The Y rows of a class are kept only while that class is solved, and the
full product P Lambda P^t is re-multiplied and compared with omega before
any system is returned.

Nothing here assumes the datum has the shape predicted by the
classification of correspondences; wild candidates are either solved or
rejected with SingularBlock, and judged later by the condition checker.
Y entries that fail to be polynomial are recorded on the system, not fatal.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dihedral import CharLabel, all_labels, format_label, label_sort_key, parse_label
from .exactalg import IntPoly, PolyMatrix, RatFunc, matrix_solve

__all__ = [
    "LSDatum",
    "GreenSystem",
    "ClosureOrder",
    "solve",
    "closure_order",
    "verify_system",
    "datum_to_jsonable",
    "datum_from_jsonable",
]


# ---------------------------------------------------------------------------
# data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LSDatum:
    """An ordered partition of the character labels into classes, with one
    a-value per class.

    Classes are stored bottom-up: ``classes[0]`` is the smallest class in
    the total order (largest a-value; the determinant class in practice)
    and ``classes[-1]`` the largest (a = 0).  ``a`` is weakly decreasing
    along the list.  Printed tables elsewhere usually show the reverse (top
    class first); only the storage order is normative here.
    """

    m: int
    classes: tuple[frozenset[CharLabel], ...]
    a: tuple[int, ...]

    def __post_init__(self):
        if len(self.classes) != len(self.a):
            raise ValueError("one a-value per class required")
        if not self.classes:
            raise ValueError("empty datum")
        object.__setattr__(self, "classes", tuple(frozenset(c) for c in self.classes))
        object.__setattr__(self, "a", tuple(self.a))
        seen: set[CharLabel] = set()
        for cls in self.classes:
            if not cls:
                raise ValueError("empty class")
            if cls & seen:
                raise ValueError(f"labels repeated across classes: {sorted(map(str, cls & seen))}")
            seen |= cls
        expected = set(all_labels(self.m))
        if seen != expected:
            raise ValueError(
                f"classes must partition all {len(expected)} labels for m={self.m}; "
                f"missing {sorted(map(str, expected - seen))}, "
                f"extra {sorted(map(str, seen - expected))}"
            )
        for v in self.a:
            if not isinstance(v, int) or v < 0:
                raise ValueError(f"a-values must be nonnegative integers, got {v!r}")
        for i in range(len(self.a) - 1):
            if self.a[i] < self.a[i + 1]:
                raise ValueError(
                    f"a-values must be weakly decreasing bottom-up, got {self.a}"
                )

    # -- lookups -----------------------------------------------------------

    def class_of(self, label: CharLabel) -> int:
        for i, cls in enumerate(self.classes):
            if label in cls:
                return i
        raise KeyError(label)

    def a_of(self, label: CharLabel) -> int:
        return self.a[self.class_of(label)]

    def display_classes(self) -> tuple[frozenset[CharLabel], ...]:
        """Classes top-down, the order printed tables use."""
        return tuple(reversed(self.classes))

    def describe(self) -> str:
        parts = []
        for cls, av in zip(self.display_classes(), reversed(self.a)):
            names = ",".join(format_label(l) for l in sorted(cls, key=label_sort_key))
            parts.append(f"{{{names}}}(a={av})")
        return " > ".join(parts)


def datum_to_jsonable(datum: LSDatum) -> dict:
    return {
        "m": datum.m,
        "class_order": "bottom_first",
        "classes": [
            [format_label(l) for l in sorted(cls, key=label_sort_key)]
            for cls in datum.classes
        ],
        "a": list(datum.a),
    }


def _json_int(x, what: str) -> int:
    if type(x) is not int:  # bools and floats are not coerced
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return x


def datum_from_jsonable(data: dict) -> LSDatum:
    """Parse a datum from its JSON form.  ``class_order`` may be
    "bottom_first" (default; the storage order) or "top_first" (the order
    printed tables use).  Types are checked, not coerced: ``m`` and the
    a-values must be integers, ``classes`` a list of lists of label
    strings and ``a`` a list; anything else raises ValueError."""
    if not isinstance(data, dict):
        raise ValueError(f"a datum must be a JSON object, got {type(data).__name__}")
    m = _json_int(data["m"], "m")
    order = data.get("class_order", "bottom_first")
    if order not in ("bottom_first", "top_first"):
        raise ValueError(f"unknown class_order {order!r}")
    if not isinstance(data["classes"], list) or not all(
        isinstance(cls, list) and all(isinstance(s, str) for s in cls)
        for cls in data["classes"]
    ):
        raise ValueError(f"classes must be a list of label lists, got {data['classes']!r}")
    if not isinstance(data["a"], list):
        raise ValueError(f"a must be a list of integers, got {data['a']!r}")
    classes = [frozenset(parse_label(s, m) for s in cls) for cls in data["classes"]]
    avals = [_json_int(x, "a-value") for x in data["a"]]
    if order == "top_first":
        classes.reverse()
        avals.reverse()
    return LSDatum(m, tuple(classes), tuple(avals))


@dataclass(frozen=True)
class GreenSystem:
    """A solved system: the datum and the matrices P and Lambda over the
    full canonical label set.

    ``nonpolynomial_y`` records (class index, row label, column label)
    triples where an entry of Y^C (rows = the characters still unsolved when
    class C was reached, columns = the members of C) above the bottom class
    failed to be polynomial; it is empty for every datum of the predicted
    shape."""

    datum: LSDatum
    P: PolyMatrix
    Lambda: PolyMatrix
    nonpolynomial_y: tuple[tuple[int, CharLabel, CharLabel], ...] = ()


# ---------------------------------------------------------------------------
# the solver
# ---------------------------------------------------------------------------

def _gamma(m: int) -> IntPoly:
    """q^m - 1, the order of a split maximal torus piece; the universal
    denominator of the Y blocks."""
    return IntPoly({m: 1, 0: -1})


def _div_by_poly(x: RatFunc, d: IntPoly) -> RatFunc:
    """x / d with a fast exact path when x is a polynomial multiple of d."""
    if x.is_polynomial():
        quo, rem = x.num.divmod(d)
        if rem.is_zero():
            return RatFunc(quo, IntPoly(1), _normalized=True)
    return x / RatFunc(d)


def solve(omega: PolyMatrix, datum: LSDatum) -> GreenSystem:
    """Solve P Lambda P^t = omega for the given datum.

    Raises SingularBlock when some diagonal Y block is not invertible (the
    datum then admits no system).  The returned system has been multiplied
    back against omega."""
    m = datum.m
    labels = list(all_labels(m))
    if set(omega.rows) != set(labels) or set(omega.cols) != set(labels):
        raise ValueError("omega labels do not match the character labels for this m")
    n = len(labels)
    pos = {l: i for i, l in enumerate(labels)}
    gamma = _gamma(m)
    rf_zero = RatFunc(0)

    # residual matrix, dense over canonical label positions
    M: list[list[RatFunc]] = [[omega.get(r, c) for c in labels] for r in labels]
    P: list[list[RatFunc]] = [[rf_zero] * n for _ in range(n)]
    L: list[list[RatFunc]] = [[rf_zero] * n for _ in range(n)]

    unsolved: list[int] = list(range(n))
    nonpoly: list[tuple[int, CharLabel, CharLabel]] = []

    for ci in range(len(datum.classes)):
        members = sorted(datum.classes[ci], key=label_sort_key)
        midx = [pos[l] for l in members]
        midx_set = set(midx)
        a_c = datum.a[ci]

        # Y rows = residual / (q^m - 1), one per unsolved character
        y = {i: [_div_by_poly(M[i][j], gamma) for j in midx] for i in unsolved}
        if ci > 0:
            for i in unsolved:
                for cl, v in zip(members, y[i]):
                    if not v.is_polynomial():
                        nonpoly.append((ci, labels[i], cl))

        # Lambda block: q^(-2 a_C) (q^m - 1) Y_{C,C} = q^(-2 a_C) M_{C,C}
        q2a = IntPoly.q(2 * a_c)
        for i in midx:
            for j in midx:
                L[i][j] = _div_by_poly(M[i][j], q2a)

        # diagonal P block
        qa = RatFunc(IntPoly.q(a_c))
        for i in midx:
            P[i][i] = qa

        above = [i for i in unsolved if i not in midx_set]
        if above:
            # P-rows over C: X . Y_{C,C} = q^(a_C) Y_{chi,C}
            acc = PolyMatrix(members, members, [y[i] for i in midx])
            above_labels = [labels[i] for i in above]
            rhs = PolyMatrix(
                above_labels, members, [[v * qa for v in y[i]] for i in above]
            )
            sol = matrix_solve(acc, rhs)
            for i, l in zip(above, above_labels):
                for c in members:
                    P[i][pos[c]] = sol.get(l, c)

            # residual update among the still-unsolved characters:
            # M -= P_{.,C} Lambda_C P_{.,C}^t
            lam_blk = [[L[i][j] for j in midx] for i in midx]
            k = len(midx)
            prows = {i: [P[i][pos[c]] for c in members] for i in above}
            half: dict[int, list[RatFunc]] = {}
            for i in above:
                pi = prows[i]
                row = []
                for s in range(k):
                    acc2 = rf_zero
                    for t in range(k):
                        if pi[t].num.c and lam_blk[t][s].num.c:
                            acc2 = acc2 + pi[t] * lam_blk[t][s]
                    row.append(acc2)
                half[i] = row
            for ii, i in enumerate(above):
                hi = half[i]
                for j in above[ii:]:
                    pj = prows[j]
                    acc2 = rf_zero
                    for s in range(k):
                        if hi[s].num.c and pj[s].num.c:
                            acc2 = acc2 + hi[s] * pj[s]
                    if acc2.num.c:
                        M[i][j] = M[i][j] - acc2
                        if j != i:
                            M[j][i] = M[j][i] - acc2
        unsolved = above

    pm = PolyMatrix(labels, labels, P)
    lm = PolyMatrix(labels, labels, L)
    system = GreenSystem(datum, pm, lm, tuple(nonpoly))
    if not verify_system(system, omega):
        raise AssertionError("multiplication-back failed: P Lambda P^t != omega")
    return system


def verify_system(system: GreenSystem, omega: PolyMatrix) -> bool:
    """Multiply P Lambda P^t back out and compare with omega."""
    prod = system.P.mul(system.Lambda).mul(system.P.transpose())
    target = omega.submatrix(prod.rows, prod.cols)
    return prod == target


# ---------------------------------------------------------------------------
# closure order
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClosureOrder:
    """The partial order on the classes of a solved system generated by
    "some P entry links the two classes", transitively closed.  Indices are
    positions in the datum's (bottom-up) class list; ``below[i][j]`` means
    class i lies weakly below class j."""

    n: int
    below: tuple[tuple[bool, ...], ...]

    def leq(self, i: int, j: int) -> bool:
        return self.below[i][j]

    def comparable(self, i: int, j: int) -> bool:
        return self.below[i][j] or self.below[j][i]

    def incomparable_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (i, j)
            for i in range(self.n)
            for j in range(i + 1, self.n)
            if not self.comparable(i, j)
        )

    def is_chain(self) -> bool:
        return not self.incomparable_pairs()

    def diagram_kind(self) -> str:
        """"chain", "diamond" (exactly one incomparable pair), or "other"."""
        bad = self.incomparable_pairs()
        if not bad:
            return "chain"
        if len(bad) == 1:
            return "diamond"
        return "other"

    def hasse_edges(self) -> tuple[tuple[int, int], ...]:
        """Covering pairs (i, j): i strictly below j with nothing between."""
        edges = []
        for i in range(self.n):
            for j in range(self.n):
                if i != j and self.below[i][j]:
                    if not any(
                        k != i and k != j and self.below[i][k] and self.below[k][j]
                        for k in range(self.n)
                    ):
                        edges.append((i, j))
        return tuple(edges)


def closure_order(system: GreenSystem) -> ClosureOrder:
    """Generate the order from nonzero P entries: class C lies below C'
    when P_{chi', chi} != 0 for some chi' in C', chi in C; then close
    transitively.  Compatible with the datum's total order by the block
    triangularity of P."""
    datum = system.datum
    ncls = len(datum.classes)
    members = [sorted(cls, key=label_sort_key) for cls in datum.classes]
    below = [[False] * ncls for _ in range(ncls)]
    for i in range(ncls):
        below[i][i] = True
        for j in range(i, ncls):
            if any(
                system.P.get(hi, lo).num.c
                for hi in members[j]
                for lo in members[i]
            ):
                below[i][j] = True
    for k in range(ncls):
        for i in range(ncls):
            if below[i][k]:
                row_i = below[i]
                row_k = below[k]
                for j in range(ncls):
                    if row_k[j]:
                        row_i[j] = True
    return ClosureOrder(ncls, tuple(tuple(r) for r in below))
