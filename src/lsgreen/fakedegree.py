"""Fake degrees and the omega matrix for the dihedral group of order 2m.

The central object is the graded multiplicity of a character f in the
coinvariant algebra,

    R(f)(q) = (q-1)^2 P(q) / |W| * sum_w det(w) f(w) / det(q - w),

with P the Poincare polynomial of the invariant ring and the sum over all
2m group elements, det taken in the two-dimensional reflection
representation.  As (q-1)^2 P = (q^2-1)(q^m-1) and det(q - s) = q^2 - 1
for a reflection s,

    R(f) = ( sum_k f(rho^k) C_k - (q^m-1) sum_s f(s) ) / 2m,
    C_k = (q^2-1)(q^m-1) / det(q - rho^k) = C_(m-k),

each C_k a polynomial of degree m with integer coordinates, certified
once per m (:func:`_rotation_cofactors`).  :func:`fake_degree_sum`
evaluates this in Z[zeta_m][q] for any function f on the group elements;
its only division is the one by 2m, certified to leave an integer
polynomial.  The rotation terms are one dot product of floor(m/2) + 1
Kronecker-packed integers (:func:`_rotation_sum`), reduced mod Phi_m once
per power of q; the reflection terms are one coordinate-wise sum of the m
values.

The omega matrix omega(chi, chi') = q^m * R(chi . chi' . eps) is computed by
two genuinely independent routes -- the character sum above and a closed
table -- which the test-suite and the ``both`` method keep honest against
each other.  The sum route forms chi . chi' . eps once per distinct triple
of values, so an entry makes at most floor(m/2) + 3 CycloNum products,
not 2m; the symmetry check twists each distinct value once and reads R of
a tabulated character from :func:`fake_degree`'s cache.
"""

from __future__ import annotations

import operator
from collections import deque
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from . import dihedral
from .dihedral import CharLabel, IrrChar, all_labels, char_table, elements, irreps
from .errors import NotPolynomial
from .exactalg import (
    CycloNum, IntPoly, PolyMatrix, RatFunc, _cyclo_reduce, _kron_pack, _kron_unpack, euler_phi,
)

__all__ = [
    "poincare_polynomial",
    "fake_degree_sum",
    "fake_degree",
    "check_symmetry",
    "omega",
    "omega_closed",
    "omega_sum",
]


def poincare_polynomial(m: int) -> IntPoly:
    """Poincare polynomial of the coinvariant algebra: the degrees are 2 and
    m, so P = (q^2-1)(q^m-1)/(q-1)^2.

    >>> str(poincare_polynomial(3))
    'q^3 + 2*q^2 + 2*q + 1'
    """
    dihedral._check_m(m)
    num = IntPoly({2: 1, 0: -1}) * IntPoly({m: 1, 0: -1})
    return num // (IntPoly({1: 1, 0: -1}) ** 2)


# ---------------------------------------------------------------------------
# dense polynomials with cyclotomic coefficients (internal helper layer)
# ---------------------------------------------------------------------------
# Represented as lists of CycloNum, index = exponent, no trailing-zero
# normalisation requirements.  Only what the Molien sum needs.

@lru_cache(maxsize=None)
def _czero(m: int) -> CycloNum:
    return CycloNum.rational(m, 0)


def _cpoly_divexact(m: int, num: list[CycloNum], den: list[CycloNum]) -> list[CycloNum]:
    """Long division in Z[zeta_m][q] by a monic divisor, which keeps every
    coordinate an integer; raises ValueError on a divisor that is not
    monic and NotPolynomial on a remainder."""
    num = list(num)
    dd = len(den) - 1
    while den[dd].is_zero():
        dd -= 1
    if den[dd] != 1:
        raise ValueError(f"divisor with leading coefficient {den[dd]} is not monic")
    nd = len(num) - 1
    while nd >= 0 and num[nd].is_zero():
        nd -= 1
    if nd < dd:
        if any(not x.is_zero() for x in num):
            raise NotPolynomial("exact division left a remainder")
        return [_czero(m)]
    quot = [_czero(m)] * (nd - dd + 1)
    for e in range(nd - dd, -1, -1):
        f = num[e + dd]
        if f.is_zero():
            continue
        quot[e] = f
        num[e + dd] = _czero(m)
        for i in range(dd):
            if not den[i].is_zero():
                num[e + i] = num[e + i] - f * den[i]
    if any(not x.is_zero() for x in num):
        raise NotPolynomial("exact division left a remainder")
    return quot


@lru_cache(maxsize=None)
def _rotation_cofactors(m: int) -> tuple[tuple[CycloNum, ...], ...]:
    """For k = 0 .. floor(m/2), the m + 1 q-coefficients of the cofactor
    C_k = (q^2-1)(q^m-1) / det(q - rho^k), det(q - rho^k) = q^2 - (zeta^k
    + zeta^-k) q + 1, by one exact division each, which certifies that C_k
    is a polynomial with integer coordinates (:func:`_cpoly_divexact`)."""
    one = CycloNum.rational(m, 1)
    # (q^2 - 1)(q^m - 1) = q^(m+2) - q^m - q^2 + 1, with m >= 3
    num = [_czero(m)] * (m + 3)
    num[m + 2] = num[0] = one
    num[m] = num[2] = -one
    out = []
    for k in range(m // 2 + 1):
        tr = CycloNum.root_power(m, k) + CycloNum.root_power(m, -k)
        out.append(tuple(_cpoly_divexact(m, num, [one, -tr, one])))
    return tuple(out)


def _values_of(m: int, f) -> tuple[CycloNum, ...]:
    if isinstance(f, IrrChar):
        vals = f.values
    elif isinstance(f, CharLabel):
        vals = dihedral.get_char(m, f).values
    else:
        vals = tuple(f)
    if len(vals) != 2 * m:
        raise ValueError(f"need one value per group element (2m = {2 * m})")
    for v in vals:
        if not isinstance(v, CycloNum):
            raise TypeError(f"class function values must be CycloNum, got {v!r}")
        if v.m != m:
            raise ValueError(f"value in Q(zeta_{v.m}) for m={m}")
    return vals


@lru_cache(maxsize=None)
def _cofactor_norm(m: int) -> int:
    return max(abs(x) for tk in _rotation_cofactors(m) for c in tk for x in c.co)


# m -> (slot bytes, packed rotation cofactors): one packing per m, replaced
# by a wider one when a sum needs wider slots
_PACKED_COFACTORS: dict[int, tuple[int, tuple[int, ...]]] = {}


def _packed_cofactors(m: int, kb: int) -> tuple[int, tuple[int, ...]]:
    """The slot width kb' >= kb in bytes of the cached packing, and the
    rotation cofactors packed at it.  The coefficient of zeta^i q^e sits
    in slot e (2 phi - 1) + i, so that a product with one element of
    Z[zeta_m], packed in phi slots, leaves each q-coefficient's 2 phi - 1
    coordinates before reduction mod Phi_m in a block of its own."""
    got = _PACKED_COFACTORS.get(m)
    if got is None or got[0] < kb:
        width = 2 * euler_phi(m) - 1
        n = (m + 1) * width
        packs = tuple(
            _kron_pack({e * width + i: x for e, c in enumerate(tk) for i, x in enumerate(c.co)},
                       0, kb, n)
            for tk in _rotation_cofactors(m)
        )
        got = _PACKED_COFACTORS[m] = (kb, packs)
    return got


def _rotation_sum(m: int, rot: Sequence[CycloNum]) -> list[CycloNum]:
    """sum_k f(rho^k) C_k over the m rotations, as its m + 1
    q-coefficients: as C_(m-k) = C_k, one dot product of packed integers
    f'_k C_k over k = 0 .. floor(m/2), where f'_k = f(rho^k) + f(rho^(m-k))
    but f'_k = f(rho^k) at k = 0 and m/2.  A coefficient of it before
    reduction mod Phi_m adds at most (floor(m/2) + 1) phi products of a
    coordinate of f' and one of a cofactor, so it is at most
    (floor(m/2) + 1) * phi * |f'| * |C| in absolute value (max norms), and
    slots of 8 kb bits with 2^(8 kb - 1) above that bound hold it exactly."""
    phi = euler_phi(m)
    width = 2 * phi - 1
    paired = [rot[k].co if k in (0, m - k) else tuple(map(operator.add, rot[k].co, rot[-k].co))
              for k in range(m // 2 + 1)]
    norm_f = max(abs(x) for co in paired for x in co)
    if not norm_f:
        return [_czero(m)] * (m + 1)
    bound = len(paired) * phi * norm_f * _cofactor_norm(m)
    kb, packs = _packed_cofactors(m, (bound.bit_length() + 8) // 8)
    total = sum(_kron_pack(dict(enumerate(co)), 0, kb, phi) * pk
                for co, pk in zip(paired, packs) if any(co))
    n = (m + 1) * width
    flat = [0] * n
    digits = _kron_unpack(total, kb, n, 0)
    deque(map(flat.__setitem__, digits, digits.values()), 0)
    return [CycloNum._new(m, _cyclo_reduce(m, flat[i:i + width])) for i in range(0, n, width)]


def fake_degree_sum(m: int, f) -> IntPoly:
    """Graded multiplicity R(f) of a function f on the group elements, by
    direct evaluation of the Molien-type sum over all of them (the module
    docstring has the formula).

    ``f`` may be an IrrChar, a CharLabel, or a sequence of 2m cyclotomic
    values in the order of :func:`dihedral.elements`.  The result is
    certified to be a polynomial with integer coefficients (NotRational /
    NotPolynomial otherwise); on irreducible characters its q-valuation is
    the b-invariant.
    """
    dihedral._check_m(m)
    vals = _values_of(m, f)
    num = _rotation_sum(m, vals[:m])

    # reflection part: every reflection contributes -f(s) (q^m - 1)
    srefl = CycloNum._new(m, tuple(map(sum, zip(*(v.co for v in vals[m:])))))
    num[0] = num[0] + srefl
    num[m] = num[m] - srefl

    coeffs: dict[int, int] = {}
    for e, c in enumerate(num):
        if c.is_zero():
            continue
        r = Fraction(c.rational_part(), 2 * m)  # NotRational propagates
        if r.denominator != 1:
            raise NotPolynomial(
                f"coefficient of q^{e} is {r}, not an integer (m={m})"
            )
        coeffs[e] = int(r)
    return IntPoly(coeffs)


@lru_cache(maxsize=None)
def fake_degree(m: int, label: CharLabel) -> IntPoly:
    """Fake degree of the irreducible character with the given label.

    >>> str(fake_degree(5, dihedral.Chi(2)))
    'q^3 + q^2'
    """
    return fake_degree_sum(m, dihedral.get_char(m, label))


def check_symmetry(m: int, f) -> bool:
    """Verify the reversal identity R(conj(det . f))(q) = q^m R(f)(1/q).

    ``f`` is any function on the group elements, as for
    :func:`fake_degree_sum`; the identity holds for every class function.
    The left side is a fresh Molien sum over the twisted values, each
    distinct (value, is-reflection) pair conjugated and negated once.  The
    right side reverses the exponent sequence of R(f) at the top degree m
    (= number of reflections); R(f) is the cached :func:`fake_degree` when
    f is a CharLabel or the character table's own IrrChar object, and a
    fresh sum otherwise, so a hand-built IrrChar is summed from its values.
    """
    vals = _values_of(m, f)
    if isinstance(f, CharLabel):
        rf = fake_degree(m, f)
    elif isinstance(f, IrrChar) and any(f is c for c in char_table(m)):
        rf = fake_degree(m, f.label)
    else:
        rf = fake_degree_sum(m, vals)
    memo: dict[tuple[tuple[int, ...], bool], CycloNum] = {}
    twisted = []
    for v, g in zip(vals, elements(m)):
        key = (v.co, g.is_reflection)
        t = memo.get(key)
        if t is None:
            t = memo[key] = -v.conj() if g.is_reflection else v.conj()
        twisted.append(t)
    lhs = fake_degree_sum(m, twisted)
    return lhs == rf.reverse(m)


# ---------------------------------------------------------------------------
# the omega matrix
# ---------------------------------------------------------------------------

def _signs(eps_vals) -> tuple[int, ...]:
    """The values of a sign character as the integers 1 and -1; any other
    value raises ValueError."""
    signs = []
    for e in eps_vals:
        if not e.is_rational() or e.rational_part() not in (1, -1):
            raise ValueError(f"a sign character takes the values 1 and -1, got {e}")
        signs.append(e.rational_part())
    return tuple(signs)


def _omega_entry_sum(m: int, chi: IrrChar, psi: IrrChar, signs: Sequence[int]) -> IntPoly:
    """q^m R(chi . psi . eps), with eps given by its signs (:func:`_signs`):
    one CycloNum product per distinct (chi(g), psi(g), sign) triple, keyed
    on coordinates and negated where eps is -1, which the elements sharing
    the triple then share.  On characters the triples are at most
    floor(m/2) + 1 rotation classes and 1 or 2 reflection classes."""
    memo: dict[tuple[tuple[int, ...], tuple[int, ...], int], CycloNum] = {}
    prod = []
    for a, b, e in zip(chi.values, psi.values, signs):
        key = (a.co, b.co, e)
        v = memo.get(key)
        if v is None:
            v = memo[key] = a * b if e == 1 else -(a * b)
        prod.append(v)
    return fake_degree_sum(m, prod).shift(m)


def omega_sum(m: int) -> PolyMatrix:
    """omega(chi, psi) = q^m R(chi . psi . eps), each entry through the
    character sum; the matrix is symmetric by construction of the entries
    (computed once per unordered pair)."""
    chars = irreps(m)
    labels = [c.label for c in chars]
    signs = _signs(chars[-1].values)  # canonical order puts eps last
    n = len(chars)
    grid: list[list[IntPoly | None]] = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            ent = _omega_entry_sum(m, chars[i], chars[j], signs)
            grid[i][j] = ent
            grid[j][i] = ent
    return PolyMatrix(labels, labels, [[RatFunc(x) for x in row] for row in grid])


def _omega_entry_closed(m: int, a: CharLabel, b: CharLabel) -> IntPoly:
    """Closed form for a single omega entry.  Writing labels as exponents
    (numeric i for Chi(i)), the generic two-dimensional block is

        q^(m+|i-j|) + q^(m+i+j) + q^(2m-i-j) + q^(2m-|i-j|)

    and the degenerate rows follow by the tensor identities of the linear
    characters (chi_r . chi_r = triv, chi_r . chi_r' = eps, and so on)."""
    if dihedral.label_sort_key(a) > dihedral.label_sort_key(b):
        a, b = b, a
    q = IntPoly.q
    r = m // 2

    def two_dim(i: int, j: int) -> IntPoly:
        return (
            q(m + abs(i - j)) + q(m + i + j) + q(2 * m - i - j) + q(2 * m - abs(i - j))
        )

    ka, kb = a.kind, b.kind
    if ka == "chi" and kb == "chi":
        i, j = a.index, b.index
        if i == 0 and j == 0:
            return q(2 * m)
        if i == 0:
            return q(m + j) + q(2 * m - j)
        return two_dim(i, j)
    if kb in ("chi_r", "chi_r_prime"):
        if ka == "chi":
            if a.index == 0:
                return q(3 * r)  # q^(m + r)
            return q(3 * r - a.index) + q(3 * r + a.index)
        if ka == kb:
            return q(2 * m)
        return q(m)  # chi_r . chi_r' = eps
    if kb == "eps":
        if ka == "chi":
            if a.index == 0:
                return q(m)
            return q(m + a.index) + q(2 * m - a.index)
        if ka in ("chi_r", "chi_r_prime"):
            return q(3 * r)
        return q(2 * m)
    raise AssertionError(f"unhandled label pair {a!r}, {b!r}")


@lru_cache(maxsize=None)
def omega_closed(m: int) -> PolyMatrix:
    """The omega matrix from its closed entry table, built once per m."""
    dihedral._check_m(m, minimum=3)
    labels = all_labels(m)
    return PolyMatrix.from_function(
        labels, labels, lambda a, b: RatFunc(_omega_entry_closed(m, a, b))
    )


@lru_cache(maxsize=None)
def omega(m: int, method: str = "both") -> PolyMatrix:
    """The omega matrix, by the requested route.

    method="sum" evaluates the defining character sums, "closed" uses the
    entry table, and "both" computes the two independently and insists they
    agree entry-for-entry before returning.
    """
    if method == "sum":
        return omega_sum(m)
    if method == "closed":
        return omega_closed(m)
    if method == "both":
        by_sum = omega_sum(m)
        by_closed = omega_closed(m)
        if by_sum != by_closed:
            bad = [
                (r, c)
                for r in by_sum.rows
                for c in by_sum.cols
                if by_sum.get(r, c) != by_closed.get(r, c)
            ]
            raise AssertionError(
                f"omega routes disagree for m={m} at entries {bad[:4]}"
            )
        return by_sum
    raise ValueError(f"unknown omega method {method!r}")
