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

    Lambda_C   = q^(-2 a_C) M_{C,C},
    P-rows     : X . M_{C,C} = q^(a_C) M_{chi,C}   (chi unsolved, above C).

The P equation is X . Y_{C,C} = q^(a_C) Y_{chi,C} for the paper's
Y = M / (q^m - 1), times q^m - 1; every route solves it on M.  An entry of
Y above the bottom class is polynomial exactly when its entry of M is a
polynomial that q^m - 1 divides (:func:`_gamma_divides`).

The blocks of the closed pairing matrix are read off its known inverse,
and only any other omega has a residual.

* The closed pairing matrix of I2(m) has a known inverse: omega N~ = c I
  with N~ = q^2 I - q A_V + Pi_eps, the McKay matrices of tensoring with
  the reflection character and with eps, and c = q^m (q^2 - 1)(q^m - 1),
  the Koszul identity for the invariant degrees 2 and m
  (:func:`_koszul_matrix`), checked once per m (:func:`_closed_inverse`).
  After a set S of labels is peeled, M is the Schur complement
  M_S = omega / omega_SS, whose inverse is the block N~_UU / c of the
  inverse, U the labels still unsolved (Crabtree and Haynsworth, Proc. AMS
  22, 1969).  So, a the labels above C,

      X = -q^(a_C) N~_aa^-1 N~_aC,   M_{U,C} = c (N~_UU^-1)[:, C],

  and every block is one fraction-free integer solve at one point 2^K on a
  block of N~, whose entries have degree at most 2 and coefficients +-1,
  multiplied back in integers and read back off the digits by one decode
  (:func:`_koszul_solve`).  No residual is updated and nothing is
  eliminated over Q(q).  Two callers share this route.
  - :func:`solve` on the closed omega (:func:`_solve_closed`).  The next
    class's U is this class's a, so one solve on N~_aa gives this class's
    X and the next class's M_{U,C}.  Each entry of X and M_CC is
    num / delta with both known at xi = 2^K, and its gcd is read off those
    integers (:func:`_over_delta`, the lemma of GCDHEU): with
    h = igcd(num(xi), delta(xi)) and G the primitive part of h's balanced
    base-xi digits, G is the gcd up to an integer whenever it divides num
    and delta and xi >= 2 |delta|_inf + 2, which 2^(K-1) > |delta|_1
    gives.  So an entry is reduced by two exact divisions and a content,
    and by a gcd only where G fails to divide.
  - :class:`NodeTable`, over Z[q], the search's, one outcome per node
    (S, C, a_C) and one table per m for the process (:func:`node_table`).
    X is cut at q = 2 and otherwise read off one solve by exact division
    (:func:`_node_x`); Lambda_C and the Y pairs are entries of M_S, omega
    for the empty S and otherwise c z / delta, one solve per S
    (:class:`_Complement`).  These are the blocks of a block LDL^t step,
    so for every full datum P Lambda P^t = omega holds by omega N~ = c I,
    the multiply-backs and digit slots of the solves, and the exact
    divisions, and no cut prunes unchecked.  No gcd is taken.
* Any other omega, a singular or perturbed one included, goes through the
  residual loop over Q(q) (:func:`_solve_residual`): one loop over the
  classes that keeps P, Lambda and M as dense lists.  Omega must be
  symmetric, so M is too, and only its upper triangle is updated.  It
  passes the rows of M_CC and of q^(a_C) M_{chi,C} to
  :func:`matrix_solve`, whose elimination (:func:`_bareiss`) the integer
  solves share.  It reduces each residual entry once (one :func:`rf_dot`
  that takes the old entry in with the products), and multiplies and
  divides by powers of q through valuations.

:func:`solve`, for any datum and on either route, multiplies the whole
system back (:func:`verify_system`) before it is returned.  That check
clears the denominators of each row of P and of Lambda, which puts every
entry of P Lambda P^t - omega in Z[q], and evaluates them all once at
q = 2^K, with K above a bound on their coefficients: an exact certificate
with no fraction reduced.

Nothing here assumes the datum has the shape predicted by the
classification of correspondences; wild candidates are either solved or
rejected with SingularBlock, and judged later by the condition checker.
Y entries that fail to be polynomial are recorded on the system, not fatal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd as int_gcd

from . import fakedegree
from .dihedral import (
    CharLabel, Chi, ChiR, ChiRPrime, Eps, all_labels, format_label, label_sort_key, parse_label,
)
from .errors import NotDivisible, SingularBlock
from .exactalg import (
    RF_ONE, RF_ZERO, IntPoly, PolyMatrix, RatFunc, _bareiss, _kron_unpack_many, _primitive,
    _strip_q, matrix_solve, poly_lcm, rf_dot,
)

__all__ = [
    "LSDatum",
    "GreenSystem",
    "ClosureOrder",
    "NodeTable",
    "node_table",
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
        classes = tuple(map(frozenset, self.classes))
        for c, cls in zip(self.classes, classes):
            if len(cls) != len(c):
                c = list(c)
                label = next(l for i, l in enumerate(c) if l in c[:i])
                raise ValueError(f"label {str(label)!r} repeated within one class")
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "a", tuple(self.a))
        seen: set[CharLabel] = set()
        for cls in classes:
            if not cls:
                raise ValueError("empty class")
            if cls & seen:
                raise ValueError(f"labels repeated across classes: {sorted(map(str, cls & seen))}")
            seen |= cls
        expected = _label_set(self.m)
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

    @classmethod
    def _new(cls, m: int, classes: tuple[frozenset[CharLabel], ...],
             a: tuple[int, ...]) -> "LSDatum":
        """A datum whose frozenset classes partition the labels of m and
        whose tuple of a-values is weakly decreasing, by construction: it
        is taken as it is, and nothing is checked."""
        self = object.__new__(cls)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "a", a)
        return self

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


@lru_cache(maxsize=None)
def _label_set(m: int) -> frozenset[CharLabel]:
    return frozenset(all_labels(m))


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
    strings and ``a`` a list; anything else, a missing key or a label
    repeated within one class raises ValueError."""
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
    classes = [[parse_label(s, m) for s in cls] for cls in data["classes"]]
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

def _gamma_divides(p: IntPoly, m: int) -> bool:
    """Whether q^m - 1 divides p: p mod (q^m - 1) folds each exponent to
    its residue mod m."""
    fold: dict[int, int] = {}
    for e, v in p.c.items():
        fold[e % m] = fold.get(e % m, 0) + v
    return not any(fold.values())


def _div_by_q_power(x: RatFunc, k: int) -> RatFunc:
    """x / q^k in lowest terms, by valuations: x is reduced, so only
    q^s with s = min(ord num, k) can cancel, and x / q^k =
    (num / q^s) / (den q^(k - s)); no gcd is taken."""
    if x.is_zero():
        return x
    s = min(x.num.order(), k)
    num = IntPoly({e - s: v for e, v in x.num.c.items()}) if s else x.num
    return RatFunc(num, x.den.shift(k - s), _normalized=True)


def _mul_by_q_power(x: RatFunc, k: int) -> RatFunc:
    """x q^k in lowest terms, by valuations: x is reduced, so only q^s
    with s = min(ord den, k) can cancel, and x q^k =
    (num q^(k - s)) / (den / q^s); no gcd is taken."""
    if x.is_zero():
        return x
    s = min(x.den.order(), k)
    den = IntPoly({e - s: v for e, v in x.den.c.items()}) if s else x.den
    return RatFunc(x.num.shift(k - s), den, _normalized=True)


def _symmetric_omega(omega: PolyMatrix, m: int):
    """The character labels of m and omega's entries over them, each mirror
    entry the same object as its entry.  ValueError unless omega is over
    those labels and symmetric."""
    labels = all_labels(m)
    if set(omega.rows) != set(labels) or set(omega.cols) != set(labels):
        raise ValueError("omega labels do not match the character labels for this m")
    om = [[omega.get(r, c) for c in labels] for r in labels]
    for i, row in enumerate(om):
        for j in range(i):
            if row[j] != om[j][i]:
                raise ValueError("omega must be symmetric")
            row[j] = om[j][i]
    return labels, om


def solve(omega: PolyMatrix, datum: LSDatum) -> GreenSystem:
    """Solve P Lambda P^t = omega for the given datum, one class at a time
    bottom-up, then multiply the system back.

    The input selects the route.  When omega equals the closed pairing
    matrix of I2(m), whose inverse N~ / c is known and certified
    (:func:`_closed_inverse`), every block is read off N~ by small
    integer solves (:func:`_solve_closed`); any other omega, a singular
    or perturbed one included, goes through the residual loop over Q(q)
    (:func:`_solve_residual`).  Omega is read entry by entry, checked
    for symmetry and compared with the closed matrix, unless it is the
    very object :func:`_closed_inverse` certified, the cached
    :func:`fakedegree.omega_closed` of m.  Raises ValueError unless omega
    is symmetric, and SingularBlock when some diagonal block M_CC is not
    invertible (the datum then admits no system).  The returned system
    has been multiplied back against omega by :func:`verify_system`; on
    either route that is the check of the whole system."""
    closed, closed_om, nt, c = _closed_inverse(datum.m)
    if omega is closed:
        labels, om = all_labels(datum.m), closed_om
    else:
        labels, om = _symmetric_omega(omega, datum.m)
    if om == closed_om:
        P, L, nonpoly = _solve_closed(labels, om, nt, c, datum)
    else:
        P, L, nonpoly = _solve_residual(labels, om, datum)
    system = GreenSystem(datum, PolyMatrix(labels, labels, P), PolyMatrix(labels, labels, L),
                         tuple(nonpoly))
    if not verify_system(system, omega):
        raise AssertionError("multiplication-back failed: P Lambda P^t != omega")
    return system


def _solve_residual(labels, M, datum):
    """P, Lambda and the non-polynomial Y triples of the datum over the
    symmetric omega ``M`` (rows of RatFuncs over ``labels``, each mirror
    entry the same object), by the residual loop over Q(q).

    P, Lambda and the residual M are dense over the canonical label
    positions; rows of M already solved are stale.  M stays symmetric, so
    each residual entry and its mirror are one object, updated once.
    :func:`matrix_solve` makes no check of its own: :func:`solve`
    multiplies the system back."""
    pos = {l: i for i, l in enumerate(labels)}
    n = len(labels)
    M = [list(row) for row in M]
    P = [[RF_ZERO] * n for _ in range(n)]
    L = [[RF_ZERO] * n for _ in range(n)]
    unsolved = list(range(n))
    nonpoly = []
    for ci, (cls, a_c) in enumerate(zip(datum.classes, datum.a)):
        members = sorted(cls, key=label_sort_key)
        midx = [pos[l] for l in members]
        # Y = M / (q^m - 1) is polynomial exactly where M is a polynomial
        # that q^m - 1 divides (M is reduced); the node table's fold
        if ci:
            nonpoly += [(ci, labels[i], labels[j]) for i in unsolved for j in midx
                        if not (M[i][j].is_polynomial() and _gamma_divides(M[i][j].num, datum.m))]

        # Lambda block q^(-2 a_C) M_{C,C} and diagonal P block q^(a_C)
        qa = RatFunc(IntPoly.q(a_c))
        for i in midx:
            for j in midx:
                L[i][j] = _div_by_q_power(M[i][j], 2 * a_c)
            P[i][i] = qa

        unsolved = [i for i in unsolved if i not in midx]
        if not unsolved:
            continue
        # P-rows over C: X . M_{C,C} = q^(a_C) M_{chi,C}, the Y equation
        # times q^m - 1, as the node table solves it
        X = matrix_solve([[M[i][j] for j in midx] for i in midx],
                         [[_mul_by_q_power(M[i][j], a_c) for j in midx] for i in unsolved],
                         members)
        for i, xrow in zip(unsolved, X):
            for j, v in zip(midx, xrow):
                P[i][j] = v

        # residual update M -= P_{.,C} Lambda_C P_{.,C}^t on and above the
        # diagonal.  The half products are X Lambda_C = q^(-a_C) M_{above,C},
        # since X M_CC = q^(a_C) M_{above,C} and Lambda_C = q^(-2 a_C) M_CC;
        # each new entry is one rf_dot of their negations against P_{j,C}
        # and of the old entry against 1, so it is reduced once.
        neg_half = [[-_div_by_q_power(M[i][j], a_c) for j in midx] for i in unsolved]
        for ii, i in enumerate(unsolved):
            for jj in range(ii, len(unsolved)):
                prods = [(h, p) for h, p in zip(neg_half[ii], X[jj]) if h.num.c and p.num.c]
                if prods:
                    j = unsolved[jj]
                    M[i][j] = M[j][i] = rf_dot(prods + [(M[i][j], RF_ONE)])
    return P, L, nonpoly


def _koszul_matrix(m: int) -> list[list[IntPoly]]:
    """N~ = q^2 I - q A_V + Pi_eps over the labels of m, with A_V the
    McKay matrix of tensoring with the reflection character V = Chi(1)
    and Pi_eps that of tensoring with eps, both from the Clebsch-Gordan
    rules: chi_j V = chi_(j-1) + chi_(j+1), where chi_0 stands for 1 + eps,
    chi_(m/2) for r + r' (m even) and chi_((m+1)/2) for chi_((m-1)/2)
    (m odd); eps swaps 1 with eps and r with r' and fixes every chi_j,
    j >= 1.  Omega N~ = c I with c = q^m (q^2 - 1)(q^m - 1) is the Koszul
    identity sum_i (-q)^i [Lambda^i V] [S(V)] = 1 for the invariant degrees
    2 and m; :func:`_closed_inverse` checks it."""
    labels = all_labels(m)
    pos = {l: i for i, l in enumerate(labels)}

    def chi(j):
        if j == 0:
            return (Chi(0), Eps)
        if 2 * j == m:
            return (ChiR, ChiRPrime)
        return (Chi(min(j, m - j)),)

    n = len(labels)
    mckay = [[0] * n for _ in range(n)]
    for j in range(1, (m + 1) // 2):
        for label in chi(j - 1) + chi(j + 1):
            mckay[pos[Chi(j)]][pos[label]] += 1
            if label.kind != "chi" or label.index == 0:
                mckay[pos[label]][pos[Chi(j)]] += 1
    swap = {Chi(0): Eps, Eps: Chi(0), ChiR: ChiRPrime, ChiRPrime: ChiR}
    return [[IntPoly._new({e: v for e, v in ((2, int(i == j)), (1, -mckay[i][j]),
                                              (0, int(swap.get(l, l) == labels[j]))) if v})
             for j in range(n)] for i, l in enumerate(labels)]


@lru_cache(maxsize=None)
def _closed_inverse(m: int):
    """(omega, its rows, N~, c) for the closed pairing matrix omega of m,
    the cached :func:`fakedegree.omega_closed`: the rows are RatFuncs in
    :func:`_symmetric_omega`'s form, and N~ is an :class:`_Ntilde` record,
    for its l1 norms and its values at each point 2^k, with omega N~ = c I
    checked exactly, once per m (:func:`_koszul_matrix`).  That identity
    makes N~ = c omega^-1 symmetric, as the record needs.  A failed check
    raises AssertionError, and an m below 3 (no closed omega) InvalidM."""
    omega = fakedegree.omega_closed(m)
    _, om = _symmetric_omega(omega, m)
    ntilde = _koszul_matrix(m)
    c = IntPoly.q(m) * IntPoly({2: 1, 0: -1}) * IntPoly({m: 1, 0: -1})
    if not _is_scaled_inverse(om, ntilde, c):
        raise AssertionError(f"omega N~ != c I for m={m}")
    return omega, om, _Ntilde(tuple(map(tuple, ntilde))), c


def _is_scaled_inverse(om, ntilde, c: IntPoly) -> bool:
    """Whether omega N~ = c I in Z[q], by one evaluation, as
    :func:`verify_system` checks: each entry of omega N~ - c I has
    coefficients of absolute value at most B, the largest
    sum_j |omega_ij|_1 |N~_jk|_1 plus |c|_1, so at xi = 2^K with
    2^(K-1) > B it is 0 exactly when its value at xi is (balanced base-xi
    digits are unique)."""
    if not all(x.is_polynomial() for row in om for x in row):
        return False
    w = [[x.num for x in row] for row in om]
    cols = [[(s, y) for s, y in enumerate(col) if y.c] for col in zip(*ntilde)]
    bound = max(sum(row[s] * _l1(y) for s, y in col)
                for row in ([_l1(x) for x in row] for row in w) for col in cols)
    k = (bound + _l1(c)).bit_length() + 1  # 2^(k-1) > B
    vcols = [[(s, _value_at(y, k)) for s, y in col] for col in cols]
    cv = _value_at(c, k)
    for i, row in enumerate(w):
        wv = [_value_at(x, k) for x in row]
        if any(sum(wv[s] * y for s, y in col) != (cv if i == j else 0)
               for j, col in enumerate(vcols)):
            return False
    return True


def _solve_closed(labels, om, nt, c, datum):
    """P, Lambda and the non-polynomial Y triples of the datum over the
    closed omega ``om``, read off its scaled inverse N~ = c omega^-1 (the
    record ``nt``), with no residual kept.

    After a set S of labels is peeled the residual is the Schur complement
    M_S = omega / omega_SS, and the inverse of a Schur complement is a
    block of the inverse: M_S^-1 = N~_UU / c, U the labels still unsolved.
    So, for the class C with the labels ``above`` it, a = U - C:

        X = q^(a_C) M_aC M_CC^-1 = -q^(a_C) N~_aa^-1 N~_aC,
        M_{U,C} = c (N~_UU^-1)[:, C],   Lambda_C = q^(-2 a_C) M_CC,

    with M_CC = omega_CC at the bottom class.  The next class C' has
    U' = a, so its M_{U',C'} needs the inverse of the same block N~_aa:
    one :func:`_koszul_solve` per class boundary eliminates N~_aa once for
    both, with the rows N~_Ca and the unit rows of C' as its right-hand
    side, at one point xi = 2^K.  Each entry of X and of M_CC is then
    num / delta, -q^(a_C) z / delta or c z / delta, and the solve gives
    num(xi) and delta(xi) as integers.  Both kinds of entry at a boundary
    are reduced in one batch (:func:`_over_delta`), each by the gcd read
    off igcd(num(xi), delta(xi)): by the lemma of GCDHEU (Char, Geddes and
    Gonnet, 1989) the primitive part G of that integer's balanced base-xi
    digits is gcd(num, delta) up to an integer when it divides both and
    xi >= 2 |delta|_inf + 2.  :func:`_koszul_solve` picks 2^(K-1) above
    |delta|_1, so xi, even, is at least 2 |delta|_1 + 2; _over_delta checks
    the bound itself and takes the gcd in Z[q] where it fails, or where G
    does not divide.  h = |delta(xi)| is the case G = delta / cont(delta),
    an exact division with nothing decoded.  Lambda_C is symmetric, and
    each mirror entry is the same object, as is each zero.  An entry
    z / delta of (N~_UU^-1)[:, C] gives the Y entry
    M / (q^m - 1) = q^m (q^2 - 1) z / delta, polynomial exactly when delta
    divides q^m (q^2 - 1) z in Z[q] (:func:`_y_divides`, which rejects
    first in integers, at xi), so the rows above C are tested and never
    reduced.
    By Jacobi's complementary minors, det N~_aa = c^|a| det M_CC / det M_S,
    and M_S is invertible, so N~_aa is singular exactly when M_CC is: the
    SingularBlock is raised at the class the residual loop raises it at,
    C, before C' is reached."""
    pos = {l: i for i, l in enumerate(labels)}
    n, m = len(labels), datum.m
    P = [[RF_ZERO] * n for _ in range(n)]
    L = [[RF_ZERO] * n for _ in range(n)]
    unsolved = list(range(n))
    nonpoly = []
    members = sorted(datum.classes[0], key=label_sort_key)
    midx = [pos[l] for l in members]
    mcc = {(i, j): om[i][j] for i in midx for j in midx}
    for ci, a_c in enumerate(datum.a):
        above = [i for i in unsolved if i not in midx]
        qa = RatFunc(IntPoly.q(a_c))
        for jj, j in enumerate(midx):
            for i in midx[jj:]:
                L[i][j] = L[j][i] = _div_by_q_power(mcc[i, j], 2 * a_c)
            P[j][j] = qa
        if not above:
            break
        nxt = sorted(datum.classes[ci + 1], key=label_sort_key)
        nidx = [pos[l] for l in nxt]
        try:
            k, delta, dv, z = _koszul_solve(nt, above, midx, nidx)
        except SingularBlock:
            raise SingularBlock("singular block M_CC of the class "
                                f"{{{','.join(map(format_label, members))}}}") from None
        # this class's X, and for the next class C' the pairs
        # z[j][u] = delta (N~_aa^-1)[j, u], symmetric over C' x C', with
        # their values at xi = 2^k
        xs = [(i, j, -v.shift(a_c), -vv << (a_c * k))
              for j, zrow in zip(midx, z) for i, (v, vv) in zip(above, zrow) if v.c]
        zc = {(i, j): zz for j, zrow in zip(nidx, z[len(midx):]) for i, zz in zip(above, zrow)}
        y_divides = _y_divides(delta, m, k, dv)
        nonpoly += [(ci + 1, labels[i], labels[j]) for i in above for j in nidx
                    if not y_divides(*zc[i, j])]
        cv = _value_at(c, k)
        tri = [(i, j) for jj, j in enumerate(nidx) for i in nidx[jj:]]
        entries = _over_delta([(num, nv) for _, _, num, nv in xs]
                              + [(c * zc[ij][0], cv * zc[ij][1]) for ij in tri], delta, dv, k)
        for (i, j, _, _), x in zip(xs, entries):
            P[i][j] = x
        mcc = dict(zip(tri, entries[len(xs):]))
        members, midx, unsolved = nxt, nidx, above
    return P, L, nonpoly


def _over_delta(nums, delta: IntPoly, dv: int, k: int) -> list[RatFunc]:
    """num / delta in lowest terms for each pair (num, num(xi)) of
    ``nums``, with xi = 2^k, k a multiple of 8, and dv = delta(xi) != 0.
    The gcd is read off the integers, by the lemma of GCDHEU (Char,
    Geddes and Gonnet, J. Symbolic Comput. 8, 1989).

    Let h = igcd(num(xi), dv), H the polynomial of the balanced base-xi
    digits of h and G its primitive part.  If xi >= 2 |delta|_inf + 2
    and G divides both num and delta, G is their gcd up to an integer:
    with g = G D the gcd, g(xi) divides h = cont(H) G(xi), so D(xi)
    divides cont(H) <= xi / 2; but D divides delta, whose roots lie in
    |z| < 1 + |delta|_inf <= xi / 2, so a nonconstant D has
    |D(xi)| > xi / 2.  Then num / G and delta / G, divided by the gcd of
    their contents (those of num and delta, G being primitive) and with
    the sign that makes the denominator's leading coefficient positive,
    are the entry in lowest terms.  h = |dv| gives G = delta / cont(delta)
    and h < xi / 2 gives G = 1, with nothing decoded.  Every other h,
    with dv's sign, lies between 0 and dv, so it fits the deg(delta) + 1
    slots that dv fits: one :func:`_kron_unpack_many` decodes each
    distinct h, and delta / G is taken once per distinct h.  An entry
    whose G does not divide num or delta, or every entry when xi is below
    the bound, is ``RatFunc(num, delta)``, reduced by a gcd."""
    xi = 1 << k
    if xi < 2 * max(map(abs, delta.c.values())) + 2:
        return [RatFunc(num, delta) for num, _ in nums]
    one, cd, ad, half = IntPoly.one(), delta.content(), abs(dv), xi >> 1
    hs = [int_gcd(nv, dv) for _, nv in nums]
    todo = list({h: None for h in hs if half <= h != ad})
    cofactor = {ad: (_primitive(delta), IntPoly(cd))}  # h -> (G, delta / G)
    if todo:
        hpolys = _kron_unpack_many([h if dv > 0 else -h for h in todo],
                                   k // 8, delta.degree() + 1, 0)
        for h, digits in zip(todo, hpolys):
            g = _primitive(IntPoly._new(digits))
            cofactor[h] = g, _quotient(delta, g)
    out = []
    for (num, _), h in zip(nums, hs):
        g, b = cofactor.get(h, (one, delta))
        a = _quotient(num, g) if num.c and b is not None else None
        if a is None:
            out.append(RatFunc(num, delta) if num.c else RF_ZERO)
            continue
        ct = int_gcd(cd, *a.c.values()) if cd != 1 else 1
        if ct != 1:
            a = IntPoly._new({e: v // ct for e, v in a.c.items()})
            b = IntPoly._new({e: v // ct for e, v in b.c.items()})
        if b.leading_coeff() < 0:
            a, b = -a, -b
        out.append(RatFunc(a, b, _normalized=True))
    return out


def _quotient(x: IntPoly, g: IntPoly) -> IntPoly | None:
    """x // g in Z[q], or None when g does not divide x."""
    try:
        return x // g
    except NotDivisible:
        return None


def _y_divides(delta: IntPoly, m: int, k: int, dv: int):
    """The test (z, z(xi)) -> whether delta divides q^m (q^2 - 1) z in
    Z[q], with xi = 2^k and dv = delta(xi) != 0.  A divisor in Z[q]
    divides at every integer point, so z is rejected at once when dv does
    not divide xi^m (xi^2 - 1) z(xi).  Any other z is decided by
    valuations.  With delta = q^d delta_1 and z = q^e z_1, delta_1 and z_1
    prime to q, and q a prime of the UFD Z[q] that divides neither
    delta_1 nor (q^2 - 1) z_1, it holds exactly when d <= m + e and
    delta_1 divides (q^2 - 1) z_1: a division of degree 2 + deg z_1 in
    place of one of degree m + 2 + deg z."""
    d = delta.order()
    delta_1 = _strip_q(delta)
    q2m1 = IntPoly({2: 1, 0: -1})
    cy = ((1 << 2 * k) - 1) << (m * k)  # xi^m (xi^2 - 1)

    def divides(z: IntPoly, zv: int) -> bool:
        if not z.c:
            return True
        return (not cy * zv % dv and d <= m + z.order()
                and delta_1.divides(q2m1 * _strip_q(z)))
    return divides


def _koszul_solve(nt, idx, rhs, units):
    """(K, delta, delta(xi), rows) for Z A = B over Z[q], delta = +-det A,
    with A = N~ over ``idx`` x ``idx`` (``nt`` the record of N~) and B the
    rows ``rhs`` of N~ over ``idx`` followed by the rows ``units`` of the
    identity over ``idx`` (each of ``units`` in ``idx``), by one integer
    solve (:func:`_int_solve`) at q = xi = 2^K: one elimination and one
    multiply-back for both kinds of row.  ``rows`` are the rows of
    delta Z, each entry a pair of its polynomial and its value at xi.

    By Cramer's rule delta and every entry of delta Z is, up to one sign, a
    maximal minor of [A^t | B^t], whose rows are the columns of A and B.
    By multilinearity in those rows, a minor's l1 norm is at most the
    product over the columns t of A of the rows' l1 sums,
    sum_s |N~_st| + sum_j |N~_jt| + [t in units], s over ``idx`` and j
    over ``rhs``, and its degree at most the sum of the rows' largest
    degrees, 2 |idx| at most, since every entry of N~ has degree 2 or
    less.  So with K a multiple of 8 and 2^(K-1) above that product, each
    is the balanced base-xi digits of its value at xi in 2 |idx| + 1
    slots, and delta(xi) = 0 only when det A = 0.  A singular A raises
    SingularBlock; the integer multiply-back
    delta Z(xi) A(xi) = delta(xi) B(xi) runs before anything is read off,
    and then one decode (:func:`_kron_unpack_many`) reads delta and every
    entry, each checked against its own slots: a value that does not fit
    raises AssertionError."""
    norms = nt.norms
    unit = set(units)
    bound = 1
    for t in idx:
        bound *= (sum(norms[s][t] for s in idx) + sum(norms[j][t] for j in rhs)
                  + (t in unit))
    k = 8 * (bound.bit_length() // 8 + 1)  # 2^(k-1) > bound
    v = nt.at(k)
    bv = ([[v[j][t] for t in idx] for j in rhs]
          + [[int(t == j) for t in idx] for j in units])
    delta, rows = _int_solve([[v[s][t] for t in idx] for s in idx], bv, k)
    slots = 2 * len(idx) + 1
    digits = _kron_unpack_many([delta, *(x for r in rows for x in r)], k // 8, slots, 0)
    if digits is None:
        raise AssertionError("multiplication-back failed: a minor does not fit "
                             f"{slots} digits at q = 2^{k}")
    polys = map(IntPoly._new, digits)
    return k, next(polys), delta, [[(next(polys), x) for x in r] for r in rows]


def _rf_rows(rows) -> tuple[tuple[RatFunc, ...], ...]:
    """Rows of IntPolys as rows of RatFuncs, zero as RF_ZERO."""
    one = IntPoly.one()
    return tuple(tuple(RatFunc(p, one, _normalized=True) if p.c else RF_ZERO for p in row)
                 for row in rows)


@dataclass(frozen=True, eq=False)
class Node:
    """A kept node (S, C, a_C) of a :class:`NodeTable`: C's member
    positions ``midx`` (members in label order), the unsolved positions
    ``above`` C, X (``rows``, one per position above), Lambda_C (``lam``)
    and the (row, column) labels of the Y entries over C found
    non-polynomial (none when S is empty: the bottom class).

    For the search's verdict and system it also keeps ``lows``, the
    lowest power of q in each nonzero row of X as (position, power), and
    X and Lambda_C again as RatFuncs (``rows_rf``, ``lam_rf``), built once
    when the node is, so a system copies references to them."""

    midx: tuple[int, ...]
    above: tuple[int, ...]
    rows: tuple[tuple[IntPoly, ...], ...]
    lam: tuple[tuple[IntPoly, ...], ...]
    nonpoly: tuple[tuple[CharLabel, CharLabel], ...]
    lows: tuple[tuple[int, int], ...]
    rows_rf: tuple[tuple[RatFunc, ...], ...]
    lam_rf: tuple[tuple[RatFunc, ...], ...]


class _Ntilde:
    """The closed omega's scaled inverse N~ with the numbers its block
    solves read: ``entries``, N~ as rows of IntPolys; ``norms``, their l1
    norms; and ``vals``, N~(2^k) for each k asked for so far (:meth:`at`).
    N~ = c omega^-1 is symmetric, so each is computed over the upper
    triangle, its mirror entry shared, once per point, and read by every
    block solve of m: :func:`solve`'s on the closed omega and the node
    table's (:func:`_closed_inverse`)."""

    __slots__ = ("entries", "norms", "vals")

    def __init__(self, entries):
        self.entries = entries
        self.norms = _upper(entries, _l1)
        self.vals: dict[int, list[list[int]]] = {}

    def at(self, k: int) -> list[list[int]]:
        """N~(2^k), evaluated on first use."""
        got = self.vals.get(k)
        if got is None:
            got = self.vals[k] = _upper(self.entries, lambda p: _value_at(p, k))
        return got


def _upper(M, f):
    """f of each entry of a symmetric matrix, over the upper triangle, each
    mirror entry the same value."""
    n = len(M)
    out = [[0] * n for _ in range(n)]
    for i, row in enumerate(M):
        for j in range(i, n):
            out[i][j] = out[j][i] = f(row[j])
    return out


class _Complement:
    """The Schur complement M_S = omega / omega_SS of a node table, over
    the positions U of the labels not in S.  M_{} = omega, whose entries
    are its ``entries``.  Any other is read off N~ (:meth:`read_off`):
    M_S^-1 is the block N~_UU / c of omega^-1 = N~ / c (Crabtree and
    Haynsworth, Proc. AMS 22, 1969), so M_S = c z / delta for one
    :func:`_koszul_solve`, delta = +-det N~_UU and z = delta N~_UU^-1.
    Calling it with (i, j) gives M_S[i, j], by exact division on first
    use, its mirror entry the same object.  M_S is in Z[q] whenever S is
    peeled by kept nodes, the only S a table asks for, so a division that
    fails raises AssertionError."""

    __slots__ = ("c", "delta", "z", "entries")

    def __init__(self, entries, c=None, delta=None, z=None):
        self.entries: dict[tuple[int, int], IntPoly] = entries
        self.c, self.delta, self.z = c, delta, z

    @classmethod
    def read_off(cls, nt: _Ntilde, c: IntPoly, unsolved) -> "_Complement":
        _, delta, _, z = _koszul_solve(nt, unsolved, [], unsolved)
        return cls({}, c, delta,
                   {(u, v): p for u, row in zip(unsolved, z) for v, (p, _) in zip(unsolved, row)})

    def __call__(self, i: int, j: int) -> IntPoly:
        key = (i, j) if i <= j else (j, i)
        got = self.entries.get(key)
        if got is None:
            got = _quotient(self.c * self.z[key], self.delta)
            if got is None:
                raise AssertionError(f"the residual entry {key} is not in Z[q]")
            self.entries[key] = got
        return got


class NodeTable:
    """The search's class-by-class solve over Z[q] on the closed omega of
    m, one node per (S, C, a_C): S the set of labels already peeled, C
    the next class, a_C its a-value.  :meth:`node` returns "singular" when
    the block M_CC of the Schur complement M_S is singular, "pruned" at a
    cut (an X = q^(a_C) M_aC M_CC^-1 that is not in N[q], a the labels
    above C, or a Lambda_C = M_CC / q^(2 a_C) that is not polynomial),
    else a :class:`Node`.

    Every block is read off the closed omega's scaled inverse N~, with
    X = -q^(a_C) N~_aa^-1 N~_aC (:func:`_node_x`) and M_S = c N~_UU^-1, U
    the labels not in S (:class:`_Complement`), as the module docstring
    says, and no residual is updated.  A failed check raises
    AssertionError and stores no node; what the table stored before is
    exact and stays.  :func:`node_table` keeps one table per m for the
    whole process, so every search of that m shares its nodes.

    A kept node also holds what the search judges a full datum by: the
    lowest power of q in each row of X (condition (5)), and X and
    Lambda_C as RatFuncs, so :meth:`system` copies references."""

    def __init__(self, m: int):
        _, om, self.nt, self.c = _closed_inverse(m)
        self.m, self.labels = m, all_labels(m)
        self.pos = {l: i for i, l in enumerate(self.labels)}
        self.nodes: dict = {}
        bottom = _Complement({(i, j): x.num for i, row in enumerate(om) for j, x in enumerate(row)
                              if i <= j})
        self.complements: dict[frozenset[CharLabel], _Complement] = {frozenset(): bottom}

    def node(self, peeled: frozenset[CharLabel], cls: frozenset[CharLabel], a_c: int):
        """The node (S, C, a_C), built on first use: a :class:`Node`,
        "pruned" or "singular".  S must be the peeled set of a kept node
        (or empty)."""
        key = (peeled, cls, a_c)
        got = self.nodes.get(key)
        if got is None:
            got = self.nodes[key] = self._build(peeled, cls, a_c)
        return got

    def _build(self, peeled, cls, a_c):
        labels = self.labels
        midx = [self.pos[l] for l in sorted(cls, key=label_sort_key)]
        unsolved = [i for i, l in enumerate(labels) if l not in peeled]
        above = [i for i in unsolved if labels[i] not in cls]
        rows = []
        if above:
            try:
                rows = _node_x(self.nt, midx, above, a_c)
            except SingularBlock:
                return "singular"
            if rows is None:
                return "pruned"
        ms = self.complements.get(peeled)
        if ms is None:
            ms = self.complements[peeled] = _Complement.read_off(self.nt, self.c, unsolved)
        mcc = [[ms(s, t) for t in midx] for s in midx]
        if any(e < 2 * a_c for row in mcc for x in row for e in x.c):
            return "pruned"
        lam = [[IntPoly._new({e - 2 * a_c: v for e, v in x.c.items()}) for x in row]
               for row in mcc]
        nonpoly = [(labels[u], labels[p]) for u in unsolved for p in midx
                   if not _gamma_divides(ms(u, p), self.m)] if peeled else []
        lows = tuple((p, min(e for x in row if x.c for e in x.c))
                     for p, row in zip(above, rows) if any(x.c for x in row))
        return Node(tuple(midx), tuple(above), tuple(map(tuple, rows)), tuple(map(tuple, lam)),
                    tuple(nonpoly), lows, _rf_rows(rows), _rf_rows(lam))

    def system(self, datum: LSDatum, nodes) -> GreenSystem:
        """The system of a full datum from its kept nodes, bottom-up.  The
        nodes' blocks were multiplied back in integers when they were
        built, and their entries are RatFuncs already, so nothing is checked
        or converted here: P and Lambda hold references to the nodes'
        entries."""
        n = len(self.labels)
        P = [[RF_ZERO] * n for _ in range(n)]
        L = [[RF_ZERO] * n for _ in range(n)]
        nonpoly = []
        for ci, (node, a_c) in enumerate(zip(nodes, datum.a)):
            qa = RatFunc(IntPoly.q(a_c))
            for i, lrow in zip(node.midx, node.lam_rf):
                P[i][i] = qa
                for j, x in zip(node.midx, lrow):
                    L[i][j] = x
            for i, xrow in zip(node.above, node.rows_rf):
                for j, x in zip(node.midx, xrow):
                    P[i][j] = x
            nonpoly += [(ci, r, c) for r, c in node.nonpoly]
        return GreenSystem(datum, PolyMatrix._new(self.labels, P),
                           PolyMatrix._new(self.labels, L), tuple(nonpoly))


@lru_cache(maxsize=None)
def node_table(m: int) -> NodeTable:
    """The node table of m over the closed omega, one per process.  The
    repeats are across searches: over the 124 Springer sets of m = 3..12,
    859 of the 1 247 peels repeat a node of the same m, while a table per
    search would see 129 repeats."""
    return NodeTable(m)


def _node_x(nt: _Ntilde, midx, above, a_c):
    """The rows of X = -q^(a_C) N~_aa^-1 N~_aC over Z[q] when X is in
    N[q], a the positions ``above`` C and C's members at ``midx``
    (``nt`` the record of N~), else None.  A singular N~_aa raises
    SingularBlock.

    The first step is one :func:`_int_solve` at t = 2^k, for the first
    k = 1, 2, ... at which N~_aa(t) is nonsingular: det N~_aa has degree
    at most 2 |a|, so if 2 |a| + 1 points find none, it is 0.  X in N[q]
    puts X(t) = -t^(a_C) (N~_Ca(t) N~_aa(t)^-1)^t in N, so a value outside
    N cuts the node.  The second is one :func:`_koszul_solve`, with the
    rows N~_Ca on the right, whose multiply-back and digit slots give
    delta and z = delta N~_Ca N~_aa^-1 exactly in Z[q]; each entry of X is
    -q^(a_C) z / delta, cut unless delta divides it with a quotient in
    N[q].

    >>> x = _node_x(_closed_inverse(3)[2], [2], [0, 1], 3)
    >>> [[str(v) for v in row] for row in x]
    [['1'], ['q^2 + q']]
    """
    for k in range(1, 2 * len(above) + 2):
        v = nt.at(k)
        try:
            delta, zs = _int_solve([[v[s][t] for t in above] for s in above],
                                   [[v[j][t] for t in above] for j in midx], k)
            break
        except SingularBlock:
            pass
    else:
        raise SingularBlock(f"N~_aa is singular at q = 2^k for k = 1..{k}")
    for zrow in zs:
        for z in zrow:
            t = -z << (a_c * k)
            if t % delta or t // delta < 0:
                return None
    _, delta, _, z = _koszul_solve(nt, above, midx, [])
    rows = [[None] * len(midx) for _ in above]
    for jj, zrow in enumerate(z):
        for ii, (v, _) in enumerate(zrow):
            x = _quotient(-v.shift(a_c), delta)
            if x is None or any(c < 0 for c in x.c.values()):
                return None
            rows[ii][jj] = x
    return rows


def _int_solve(av, bv, k):
    """delta and the rows of delta X for X A = B in integers, A the square
    ``av`` and B the rows ``bv``, both the values at q = 2^k of matrices
    over Z[q]: :func:`_bareiss`, whose last pivot delta is +-det A, then
    back-substitution of delta X by exact integer division.  The integer
    multiply-back delta X A = delta B certifies delta X before it is
    returned; a difference raises AssertionError.  A singular A raises
    SingularBlock."""
    mat = _bareiss(av, bv)
    n = len(av)
    delta = mat[n - 1][n - 1]
    rows = []
    for col in range(n, n + len(bv)):
        x = [0] * n
        for i in range(n - 1, -1, -1):
            row = mat[i]
            x[i] = (delta * row[col] - sum(row[l] * x[l] for l in range(i + 1, n))) // row[i]
        rows.append(x)
    if any(sum(v * av[s][t] for s, v in enumerate(x)) != delta * y
           for x, yrow in zip(rows, bv) for t, y in enumerate(yrow)):
        raise AssertionError("multiplication-back failed: the block equation "
                             f"does not hold at q = 2^{k}")
    return delta, rows


def _l1(p: IntPoly) -> int:
    """The l1 norm: the sum of the absolute values of the coefficients."""
    return sum(map(abs, p.c.values()))


def _value_at(p: IntPoly, k: int) -> int:
    """p(2^k), as a sum of shifted coefficients."""
    return sum(v << (k * e) for e, v in p.c.items())


def verify_system(system: GreenSystem, omega: PolyMatrix) -> bool:
    """Whether P Lambda P^t = omega, by one exact evaluation.  Reads P,
    Lambda and omega only.

    The denominators are cleared first.  With d_r the lcm of the
    denominators in row r of P and l the lcm of all of Lambda's, P~ =
    diag(d) P and L~ = l Lambda lie in Z[q], and (P Lambda P^t)[r, c] =
    omega[r, c] = w/v exactly when

        f = v sum_{s,t} P~[r, s] L~[s, t] P~[c, t] - d_r d_c l w = 0,

    an identity in Z[q].  With |.| the l1 norm and R the largest sum of
    |P~[r, s]| over a row, no coefficient of f exceeds

        B = max |v| max |L~| R^2 + max |d|^2 |l| max |w|.

    At xi = 2^K with 2^(K-1) > B, f(xi) = 0 forces f = 0, because balanced
    base-xi digits are unique.  So each polynomial is evaluated once at
    xi (:func:`_value_at`), u_r = P~(xi)[r] L~(xi) is formed once per row,
    and every entry is one comparison of integers,
    u_r . P~(xi)[c] v(xi) = d_r(xi) d_c(xi) l(xi) w(xi).  There is no
    gcd past the lcms, no random point and no tolerance.

    When Lambda is symmetric, checked entry by entry, so is P Lambda P^t:
    its (r, c) entry sum_{s,t} P[r, s] Lambda[s, t] P[c, t] is the (c, r)
    entry with s and t swapped.  So for c < r the entry (r, c) holds
    whenever (c, r) does and omega[r, c] = omega[c, r], and it is compared
    only when Lambda is asymmetric or omega differs there; (c, r) is
    compared in either case, and any entry that fails returns False."""
    P, L = system.P, system.Lambda
    if not P.rows == P.cols == L.rows == L.cols:
        raise ValueError("P and Lambda must share one label order")
    one = IntPoly.one()

    def lcm(dens) -> IntPoly:
        # one poly_lcm per distinct denominator
        d = one
        for den in dens:
            if den != one and den != d:
                d = den if d == one else poly_lcm(d, den)
        return d

    def clear(row, d):
        # the nonzero entries of d * row: (column, numerator, d / den), with
        # no division where d / den is d or 1
        return [(j, x.num, d if x.den == one else one if x.den == d else d // x.den)
                for j, x in enumerate(row) if x.num.c]

    ds = [lcm({x.den for x in row if x.num.c}) for row in P.data]
    prows = [clear(row, d) for row, d in zip(P.data, ds)]
    ell = lcm({x.den for row in L.data for x in row if x.num.c})
    lrows = [clear(row, ell) for row in L.data]
    om = [[omega.get(r, c) for c in P.rows] for r in P.rows]

    rnorm = max((sum(_l1(x) * _l1(f) for _, x, f in row) for row in prows), default=0)
    lnorm = max((_l1(x) * _l1(f) for row in lrows for _, x, f in row), default=0)
    dnorm = max(map(_l1, ds), default=0)
    wnorm = max(_l1(x.num) for row in om for x in row)
    vnorm = max(_l1(x.den) for row in om for x in row)
    bound = vnorm * lnorm * rnorm ** 2 + dnorm ** 2 * _l1(ell) * wnorm
    k = bound.bit_length() + 1  # 2^(k-1) > bound

    n = len(P.rows)
    pv = []
    for row in prows:
        vals = [0] * n
        for j, x, f in row:
            vals[j] = _value_at(x, k) * _value_at(f, k)
        pv.append(vals)
    lv = [[(t, _value_at(x, k) * _value_at(f, k)) for t, x, f in row] for row in lrows]
    dv = [_value_at(d, k) for d in ds]
    ellv = _value_at(ell, k)
    ld = L.data
    sym = all(ld[i][j] is ld[j][i] or ld[i][j] == ld[j][i] for i in range(n) for j in range(i))
    for r in range(n):
        u = [0] * n
        for s, x in enumerate(pv[r]):
            if x:
                for t, y in lv[s]:
                    u[t] += x * y
        ur = [(t, x) for t, x in enumerate(u) if x]
        scale = dv[r] * ellv
        for c, w in enumerate(om[r]):
            if sym and c < r and w == om[c][r]:
                continue
            pc = pv[c]
            lhs = sum(x * pc[t] for t, x in ur)
            if w.den != one:
                lhs *= _value_at(w.den, k)
            if lhs != scale * dv[c] * _value_at(w.num, k):
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
