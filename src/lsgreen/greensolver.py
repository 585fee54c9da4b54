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

One peel is one step of a state that is never changed in place: a state
depends only on the classes peeled so far, so the search extends one state
by every class that may come next.  There are two kinds of state.

* :class:`SolveState`, over Q(q), is :func:`solve`'s, for any datum: it
  divides by q^m - 1, keeps the Y rows of a class only while that class is
  solved, and :func:`verify_system` multiplies the whole system back
  before it is returned.
* :class:`IntegralState`, over Z[q], is the search's.  The search extends
  only prefixes whose P and Lambda are polynomials, so the residual stays
  in Z[q] and the P rows solve X . M_CC = q^(a_C) M_{chi,C}
  (:func:`poly_solve`: Bareiss, then exact division; the first remainder
  or negative coefficient cuts the prefix).  Each peel, kept or cut,
  multiplies back the columns of its class in Z[q], scaled by
  delta q^(2 a_C), before the state is built or dropped.  No gcd is
  taken.

Nothing here assumes the datum has the shape predicted by the
classification of correspondences; wild candidates are either solved or
rejected with SingularBlock, and judged later by the condition checker.
Y entries that fail to be polynomial are recorded on the system, not fatal.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .dihedral import CharLabel, all_labels, format_label, label_sort_key, parse_label
from .exactalg import (
    RF_ZERO, IntPoly, PolyMatrix, RatFunc, matrix_solve, poly_dot, poly_gcd, poly_solve, rf_dot,
)

__all__ = [
    "LSDatum",
    "GreenSystem",
    "ClosureOrder",
    "SolveState",
    "IntegralState",
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
    strings and ``a`` a list; anything else, or a missing key, raises
    ValueError."""
    if not isinstance(data, dict):
        raise ValueError(f"a datum must be a JSON object, got {type(data).__name__}")
    for key in ("m", "classes", "a"):
        if key not in data:
            raise ValueError(f"datum is missing key {key!r}")
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
    """x / d for a monic d, in lowest terms: x is reduced, so only
    g = gcd(num, d) can cancel, and x / d = (num/g) / (den * d/g)."""
    if x.is_polynomial():
        quo, rem = x.num.divmod(d)
        if rem.is_zero():
            return RatFunc(quo, IntPoly(1), _normalized=True)
    g = poly_gcd(x.num, d)
    return RatFunc(x.num // g, x.den * (d // g), _normalized=True)


@dataclass(frozen=True, eq=False)
class SolveState:
    """Where the class-by-class solve stands: the classes peeled so far
    (bottom-up, with their a-values), the P columns and Lambda blocks they
    fixed, the residual M over the characters still unsolved, and the Y
    entries found non-polynomial.  Matrices are dense over the canonical
    label positions (``pos``); rows of M outside ``unsolved`` are stale.

    :meth:`peel` returns a new state and leaves this one as it was.
    :func:`solve` peels one datum this way, over Q(q); the search peels
    :class:`IntegralState` instead."""

    omega: PolyMatrix
    m: int
    labels: tuple[CharLabel, ...]
    pos: dict[CharLabel, int]
    classes: tuple[frozenset[CharLabel], ...]
    a: tuple[int, ...]
    M: tuple[tuple[RatFunc, ...], ...]
    P: tuple[tuple[RatFunc, ...], ...]
    L: tuple[tuple[RatFunc, ...], ...]
    unsolved: tuple[int, ...]
    nonpolynomial_y: tuple[tuple[int, CharLabel, CharLabel], ...] = ()

    @staticmethod
    def start(omega: PolyMatrix, m: int) -> "SolveState":
        """The state before any class is peeled: M = omega."""
        labels = tuple(all_labels(m))
        if set(omega.rows) != set(labels) or set(omega.cols) != set(labels):
            raise ValueError("omega labels do not match the character labels for this m")
        n = len(labels)
        zero_row = (RF_ZERO,) * n
        return SolveState(
            omega, m, labels, {l: i for i, l in enumerate(labels)}, (), (),
            tuple(tuple(omega.get(r, c) for c in labels) for r in labels),
            (zero_row,) * n, (zero_row,) * n, tuple(range(n)),
        )

    def peel(self, cls: frozenset[CharLabel], a_c: int) -> "SolveState":
        """Solve the next class up: its Lambda block, the P entries of the
        unsolved rows over it, and the residual among the rows above it.
        Raises SingularBlock when its diagonal Y block is not invertible."""
        ci = len(self.classes)
        labels, pos, M = self.labels, self.pos, self.M
        members = sorted(cls, key=label_sort_key)
        midx = [pos[l] for l in members]
        midx_set = set(midx)
        gamma = _gamma(self.m)

        # Y rows = residual / (q^m - 1), one per unsolved character
        y = {i: [_div_by_poly(M[i][j], gamma) for j in midx] for i in self.unsolved}
        nonpoly = list(self.nonpolynomial_y)
        if ci > 0:
            for i in self.unsolved:
                for cl, v in zip(members, y[i]):
                    if not v.is_polynomial():
                        nonpoly.append((ci, labels[i], cl))

        # Lambda block: q^(-2 a_C) (q^m - 1) Y_{C,C} = q^(-2 a_C) M_{C,C}
        q2a = IntPoly.q(2 * a_c)
        L = list(self.L)
        for i in midx:
            row = list(L[i])
            for j in midx:
                row[j] = _div_by_poly(M[i][j], q2a)
            L[i] = tuple(row)

        # diagonal P block
        qa = RatFunc(IntPoly.q(a_c))
        P = list(self.P)
        for i in midx:
            row = list(P[i])
            row[i] = qa
            P[i] = tuple(row)

        above = [i for i in self.unsolved if i not in midx_set]
        M2 = list(M)
        if above:
            # P-rows over C: X . Y_{C,C} = q^(a_C) Y_{chi,C}
            acc = PolyMatrix(members, members, [y[i] for i in midx])
            above_labels = [labels[i] for i in above]
            rhs = PolyMatrix(
                above_labels, members, [[v * qa for v in y[i]] for i in above]
            )
            sol = matrix_solve(acc, rhs)
            prows = {}
            for i, l in zip(above, above_labels):
                prows[i] = [sol.get(l, c) for c in members]
                row = list(P[i])
                for j, v in zip(midx, prows[i]):
                    row[j] = v
                P[i] = tuple(row)

            # residual update among the still-unsolved characters:
            # M -= P_{.,C} Lambda_C P_{.,C}^t
            lam_cols = [[L[i][j] for i in midx] for j in midx]
            half = {i: [rf_dot(zip(prows[i], col)) for col in lam_cols] for i in above}
            rows = {i: list(M[i]) for i in above}
            for ii, i in enumerate(above):
                hi = half[i]
                for j in above[ii:]:
                    acc2 = rf_dot(zip(hi, prows[j]))
                    if acc2.num.c:
                        rows[i][j] = rows[i][j] - acc2
                        if j != i:
                            rows[j][i] = rows[j][i] - acc2
            for i in above:
                M2[i] = tuple(rows[i])

        return replace(
            self, classes=self.classes + (frozenset(cls),), a=self.a + (a_c,),
            M=tuple(M2), P=tuple(P), L=tuple(L), unsolved=tuple(above),
            nonpolynomial_y=tuple(nonpoly),
        )

    def system(self) -> GreenSystem:
        """The solved system, once the classes partition the labels (else
        ValueError), multiplied back against omega: a product that differs
        raises AssertionError."""
        labels = self.labels
        system = GreenSystem(
            LSDatum(self.m, self.classes, self.a),
            PolyMatrix(labels, labels, self.P),
            PolyMatrix(labels, labels, self.L),
            self.nonpolynomial_y,
        )
        if not verify_system(system, self.omega):
            raise AssertionError("multiplication-back failed: P Lambda P^t != omega")
        return system


def solve(omega: PolyMatrix, datum: LSDatum) -> GreenSystem:
    """Solve P Lambda P^t = omega for the given datum: one
    :meth:`SolveState.peel` per class, bottom-up, then one multiply-back.

    Raises SingularBlock when some diagonal Y block is not invertible (the
    datum then admits no system).  The returned system has been multiplied
    back against omega; this is the one check, :func:`matrix_solve` makes
    none of its own."""
    state = SolveState.start(omega, datum.m)
    for cls, a_c in zip(datum.classes, datum.a):
        state = state.peel(cls, a_c)
    return state.system()


def _rf(p: IntPoly) -> RatFunc:
    return RatFunc(p, IntPoly.one(), _normalized=True) if p.c else RF_ZERO


def _q_divides(p: IntPoly, k: int) -> bool:
    """Whether q^k divides p."""
    return all(e >= k for e in p.c)


def _gamma_divides(p: IntPoly, m: int) -> bool:
    """Whether q^m - 1 divides p: p mod (q^m - 1) folds each exponent to
    its residue mod m."""
    fold: dict[int, int] = {}
    for e, v in p.c.items():
        fold[e % m] = fold.get(e % m, 0) + v
    return not any(fold.values())


@dataclass(frozen=True, eq=False)
class IntegralState:
    """The search's class-by-class solve over Z[q].

    The search keeps a prefix only while P and Lambda are polynomials with
    P nonnegative (condition (4)), so every state it extends is integral
    and so is its residual M.  The P rows over a class C solve
    X . M_CC = q^(a_C) M_{chi,C} -- the Y equation times q^m - 1 -- by
    :func:`poly_solve`, and Lambda_C = q^(-2 a_C) M_CC is an exact shift.
    :meth:`peel` returns None at a cut: a block division with a remainder,
    a negative P coefficient or a Lambda_C that q^(2 a_C) does not divide.
    The search's top class has a = 0 and no rows above it, so it is never
    cut.  A Y entry M/(q^m - 1) is non-polynomial exactly when q^m - 1 does
    not divide M.

    Every peel multiplies P Lambda P^t back in the columns of its class,
    cut or not, by :meth:`check_class`, scaled into Z[q].  Each column is
    final once its class is peeled, so along a path the checks cover every
    entry of the product once, a full datum needs no second pass, and no
    cut prunes unchecked.
    Fields as in :class:`SolveState`, entries :class:`IntPoly`; ``solved``
    lists the peeled positions in order."""

    m: int
    labels: tuple[CharLabel, ...]
    pos: dict[CharLabel, int]
    omega: tuple[tuple[IntPoly, ...], ...]
    classes: tuple[frozenset[CharLabel], ...]
    a: tuple[int, ...]
    M: tuple[tuple[IntPoly, ...], ...]
    P: tuple[tuple[IntPoly, ...], ...]
    L: tuple[tuple[IntPoly, ...], ...]
    unsolved: tuple[int, ...]
    solved: tuple[int, ...] = ()
    nonpolynomial_y: tuple[tuple[int, CharLabel, CharLabel], ...] = ()

    @staticmethod
    def start(omega: PolyMatrix, m: int) -> "IntegralState":
        """The state before any class is peeled: M = omega, which must be
        polynomial (NotPolynomial otherwise)."""
        labels = tuple(all_labels(m))
        if set(omega.rows) != set(labels) or set(omega.cols) != set(labels):
            raise ValueError("omega labels do not match the character labels for this m")
        n = len(labels)
        om = tuple(tuple(omega.get(r, c).as_poly() for c in labels) for r in labels)
        zero = ((IntPoly.zero(),) * n,) * n
        return IntegralState(m, labels, {l: i for i, l in enumerate(labels)}, om,
                             (), (), om, zero, zero, tuple(range(n)))

    def block(self, cls: frozenset[CharLabel], a_c: int):
        """The next class's Z[q] block solve: ``(midx, delta, rows, cut)``
        with ``midx`` the member positions (sorted) and ``rows`` = delta X
        over the unsolved rows above C, in order.  At a block cut of
        :func:`poly_solve` delta is its last pivot; otherwise delta = 1,
        and a Lambda_C that q^(2 a_C) does not divide is a cut too.
        Raises SingularBlock for a singular M_CC."""
        midx = [self.pos[l] for l in sorted(cls, key=label_sort_key)]
        M = self.M
        above = [i for i in self.unsolved if i not in midx]
        delta, rows, cut = IntPoly.one(), [], False
        if above:
            mcc = [[M[i][j] for j in midx] for i in midx]
            rhs = [[M[i][j].shift(a_c) for j in midx] for i in above]
            pivot, rows, cut = poly_solve(mcc, rhs)
            if cut:
                delta = pivot
        if not cut:
            cut = not all(_q_divides(M[i][j], 2 * a_c) for i in midx for j in midx)
        return midx, delta, rows, cut

    def peel(self, cls: frozenset[CharLabel], a_c: int) -> "IntegralState | None":
        """The state with the next class solved, or None at a cut; either
        way :meth:`check_class` first multiplies the class's columns back.
        A wrong block raises AssertionError, a singular M_CC
        SingularBlock."""
        midx, delta, rows, cut = self.block(cls, a_c)
        self.check_class(midx, a_c, delta, rows)
        if cut:
            return None
        M, labels, ci = self.M, self.labels, len(self.classes)
        nonpoly = list(self.nonpolynomial_y)
        if ci > 0:
            for i in self.unsolved:
                for j in midx:
                    if not _gamma_divides(M[i][j], self.m):
                        nonpoly.append((ci, labels[i], labels[j]))
        lam = {(i, j): IntPoly({e - 2 * a_c: v for e, v in M[i][j].c.items()})
               for i in midx for j in midx}
        L, P = list(self.L), list(self.P)
        for i in midx:
            L[i] = tuple(lam.get((i, j), x) for j, x in enumerate(L[i]))
            row = list(P[i])
            row[i] = IntPoly.q(a_c)
            P[i] = tuple(row)
        above = [i for i in self.unsolved if i not in midx]
        for i, x in zip(above, rows):
            row = list(P[i])
            for j, v in zip(midx, x):
                row[j] = v
            P[i] = tuple(row)
        state = replace(
            self, classes=self.classes + (frozenset(cls),), a=self.a + (a_c,),
            P=tuple(P), L=tuple(L), unsolved=tuple(above),
            solved=self.solved + tuple(midx), nonpolynomial_y=tuple(nonpoly),
        )
        if not above:
            return state
        # residual among the rows above C: M -= P_{.,C} Lambda_C P_{.,C}^t
        lam_cols = [[lam[i, j] for i in midx] for j in midx]
        half = {i: [poly_dot(zip(x, col)) for col in lam_cols] for i, x in zip(above, rows)}
        xs = dict(zip(above, rows))
        M2 = list(M)
        new = {i: list(M[i]) for i in above}
        for ii, i in enumerate(above):
            hi = half[i]
            for j in above[ii:]:
                acc = poly_dot(zip(hi, xs[j]))
                if acc.c:
                    new[i][j] = new[i][j] - acc
                    if j != i:
                        new[j][i] = new[j][i] - acc
        for i in above:
            M2[i] = tuple(new[i])
        return replace(state, M=tuple(M2))

    def check_class(self, midx, a_c: int, delta: IntPoly, rows) -> None:
        """Multiply back the columns of the next class C, as :meth:`block`
        solved it, before :meth:`peel` keeps or cuts it.  Its P rows above
        it are rows / delta, its diagonal P block is q^(a_C) and its
        Lambda block is M_CC / q^(2 a_C), so each entry of the columns is
        compared times delta q^(2 a_C), in Z[q]: for every row r and c in
        C,

            delta q^(2a) ((P Lambda P^t)[r, c] over the solved positions
                          - omega[r, c])
              + q^a sum_{s in C} D[r, s] M[s, c] = 0,

        with D = rows over the rows above C, delta q^a on the diagonal of
        C and 0 on the solved rows.  Kept, C's P and Lambda entries are
        these rows and M_CC shifted down by 2 a_C, so this is P Lambda P^t
        = omega in C's columns.  Lambda P^t is contracted for the column
        first, and each left side is one :func:`poly_dot`.  Reads P and
        Lambda over the solved positions, omega, and M and rows for C.  A
        difference raises AssertionError."""
        P, L, S, M = self.P, self.L, self.solved, self.M
        scale = delta.shift(2 * a_c)
        neg = -scale
        d = dict(zip([i for i in self.unsolved if i not in midx], rows))
        for t, i in enumerate(midx):
            d[i] = [delta.shift(a_c) if u == t else IntPoly.zero() for u in range(len(midx))]
        for c in midx:
            pc = P[c]
            w = [scale * poly_dot((L[s][t], pc[t]) for t in S) for s in S]
            mc = [M[s][c].shift(a_c) for s in midx]
            for r, row in enumerate(P):
                pairs = [(row[s], x) for s, x in zip(S, w)]
                pairs.append((self.omega[r][c], neg))
                if r in d:
                    pairs += zip(d[r], mc)
                if poly_dot(pairs).c:
                    raise AssertionError("multiplication-back failed: P Lambda P^t "
                                         "!= omega in the columns of the next class")

    def system(self) -> GreenSystem:
        """The solved system, once the classes partition the labels (else
        ValueError).  Every column was multiplied back when its class was
        peeled, so nothing is checked here."""
        labels = self.labels
        return GreenSystem(
            LSDatum(self.m, self.classes, self.a),
            PolyMatrix(labels, labels, [[_rf(x) for x in row] for row in self.P]),
            PolyMatrix(labels, labels, [[_rf(x) for x in row] for row in self.L]),
            self.nonpolynomial_y,
        )


def verify_system(system: GreenSystem, omega: PolyMatrix) -> bool:
    """Multiply P Lambda P^t back out and compare with omega: each entry is
    one :func:`rf_dot` of a row of P Lambda and a row of P.  Reads P,
    Lambda and omega only."""
    P, L = system.P, system.Lambda
    if not P.rows == P.cols == L.rows == L.cols:
        raise ValueError("P and Lambda must share one label order")
    lam = list(zip(*L.data))  # the columns of Lambda
    for r, row in zip(P.rows, P.data):
        pl = [rf_dot(zip(row, col)) for col in lam]
        for c, pc in zip(P.rows, P.data):
            if rf_dot(zip(pl, pc)) != omega.get(r, c):
                return False
    return True


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
