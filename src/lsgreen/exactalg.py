"""Exact arithmetic kernel.

Four layers, all exact (no floating point anywhere):

* :class:`IntPoly` -- sparse univariate polynomials over the integers, the
  coefficient domain for everything q-graded.  An exact quotient by a
  monomial c q^e is a shift and a division of each coefficient by c.
* :class:`RatFunc` -- reduced fractions of integer polynomials, normalised so
  the denominator has positive leading coefficient.  A sum of products is
  one :func:`rf_dot`: the numerators are added in Z[q] over their unreduced
  denominators and the sum is reduced once, where the fold
  ``acc = acc + a*b`` takes two gcds per term.  A term to be added, such as
  the old entry of an update x - sum a*b, goes in as the pair (x, 1), so
  the update is reduced once too.
* :class:`CycloNum` -- elements of Z[zeta_m], the integers of the cyclotomic
  field Q(zeta_m), stored as integer coordinates with respect to the power
  basis of Z[x]/(Phi_m).  Character sums stay in this ring; the Molien sum
  of :mod:`fakedegree` makes one exact division, by |W| = 2m, at the end.
* :class:`PolyMatrix` -- matrices of rational functions with *labelled* rows
  and columns.

:func:`matrix_solve` takes a square A and a right-hand side B as lists of
rows and returns the rows of X with X * A = B over Q(q): it clears the
denominators first, and :func:`_bareiss` builds the transposed augmented
matrix of the system and eliminates it without fractions; each unknown is
read off one :func:`rf_dot`.  :func:`_bareiss` takes Python integers too:
the search's node table (:mod:`lsgreen.greensolver`) solves its blocks with
it at q = 2^k, and reads X in Z[q] back with :func:`_kron_unpack`.
:func:`poly_dot` sums products of polynomials.

The polynomial variable is called ``q`` in printed output.

>>> p = IntPoly({4: 1, 3: 1, 1: -1, 0: -1})
>>> str(p)
'q^4 + q^3 - q - 1'
>>> str(p // IntPoly({1: 1, 0: 1}))
'q^3 - 1'
"""

from __future__ import annotations

import operator
import struct
from collections import deque
from functools import lru_cache
from itertools import compress, repeat
from math import gcd as int_gcd
from typing import Iterable, Mapping, Sequence

from .errors import (
    DivisionByZero,
    NotDivisible,
    NotPolynomial,
    NotRational,
    SingularBlock,
    ZeroDenominator,
)

__all__ = [
    "IntPoly",
    "RatFunc",
    "CycloNum",
    "PolyMatrix",
    "poly_gcd",
    "poly_lcm",
    "rf_dot",
    "poly_dot",
    "euler_phi",
    "cyclotomic_polynomial",
    "matrix_solve",
]


# ---------------------------------------------------------------------------
# integer polynomials
# ---------------------------------------------------------------------------

class IntPoly:
    """Sparse polynomial in one variable over Z.

    The coefficient map never stores zero values; instances are treated as
    immutable (hashable once hashed, never mutated after construction).
    """

    __slots__ = ("c", "_hash")

    def __init__(self, coeffs: Mapping[int, int] | Iterable[tuple[int, int]] | int = 0):
        if isinstance(coeffs, IntPoly):
            self.c = dict(coeffs.c)
        elif isinstance(coeffs, int):
            self.c = {0: coeffs} if coeffs else {}
        else:
            items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
            c: dict[int, int] = {}
            for e, v in items:
                if not isinstance(e, int) or e < 0:
                    raise ValueError(f"bad exponent {e!r}")
                if not isinstance(v, int):
                    raise TypeError(f"non-integer coefficient {v!r}")
                if v:
                    c[e] = c.get(e, 0) + v
                    if not c[e]:
                        del c[e]
            self.c = c
        self._hash = None

    @classmethod
    def _new(cls, c: dict[int, int]) -> "IntPoly":
        """A result of arithmetic: ``c`` is a fresh dict of int
        coefficients with no zero value, so the constructor's checks are
        skipped."""
        self = object.__new__(cls)
        self.c = c
        self._hash = None
        return self

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "IntPoly":
        return _ZERO

    @staticmethod
    def one() -> "IntPoly":
        return _ONE

    @staticmethod
    def q(exp: int = 1, coeff: int = 1) -> "IntPoly":
        """The monomial ``coeff * q**exp``."""
        return IntPoly({exp: coeff})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.c

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return max(self.c) if self.c else -1

    def order(self) -> int:
        """q-adic valuation (lowest exponent present); raises on zero."""
        if not self.c:
            raise ValueError("zero polynomial has no q-adic valuation")
        return min(self.c)

    def leading_coeff(self) -> int:
        return self.c[max(self.c)] if self.c else 0

    def content(self) -> int:
        """Gcd of the coefficients (nonnegative; 0 for the zero polynomial)."""
        g = 0
        for v in self.c.values():
            g = int_gcd(g, v)
        return g

    def coeff(self, e: int) -> int:
        return self.c.get(e, 0)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "IntPoly") -> "IntPoly":
        if not isinstance(other, IntPoly):
            return NotImplemented
        c = dict(self.c)
        for e, v in other.c.items():
            w = c.get(e, 0) + v
            if w:
                c[e] = w
            elif e in c:
                del c[e]
        return IntPoly._new(c)

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        if not isinstance(other, IntPoly):
            return NotImplemented
        c = dict(self.c)
        for e, v in other.c.items():
            w = c.get(e, 0) - v
            if w:
                c[e] = w
            elif e in c:
                del c[e]
        return IntPoly._new(c)

    def __neg__(self) -> "IntPoly":
        return IntPoly._new({e: -v for e, v in self.c.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return _ZERO
            return IntPoly._new({e: v * other for e, v in self.c.items()})
        if not isinstance(other, IntPoly):
            return NotImplemented
        a, b = self.c, other.c
        if not a or not b:
            return _ZERO
        if len(a) > len(b):
            a, b = b, a
        c: dict[int, int] = {}
        for ea, va in a.items():
            for eb, vb in b.items():
                e = ea + eb
                w = c.get(e, 0) + va * vb
                if w:
                    c[e] = w
                elif e in c:
                    del c[e]
        return IntPoly._new(c)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "IntPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = _ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift(self, k: int) -> "IntPoly":
        """Multiply by q**k (k >= 0)."""
        if k < 0:
            raise ValueError("negative shift")
        if k == 0:
            return self
        return IntPoly._new({e + k: v for e, v in self.c.items()})

    def divmod(self, other: "IntPoly") -> tuple["IntPoly", "IntPoly"]:
        """Division with remainder, valid when every intermediate quotient
        coefficient is an integer; raises NotDivisible otherwise.

        For monic (or +-1-leading) divisors this is plain long division.
        """
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        rem = dict(self.c)
        quot: dict[int, int] = {}
        dlead = other.degree()
        clead = other.c[dlead]
        oitems = list(other.c.items())
        # a step at exponent e changes only exponents <= e, so one walk
        # down from the top degree meets every leading term in turn
        for e in range(max(rem, default=-1), dlead - 1, -1):
            v = rem.get(e)
            if v is None:
                continue
            if v % clead:
                raise NotDivisible(f"coefficient {v} not divisible by {clead}")
            f = v // clead
            s = e - dlead
            quot[s] = f
            for eo, vo in oitems:
                ee = s + eo
                w = rem.get(ee, 0) - f * vo
                if w:
                    rem[ee] = w
                else:
                    rem.pop(ee, None)
        return IntPoly._new(quot), IntPoly._new(rem)

    def __floordiv__(self, other: "IntPoly") -> "IntPoly":
        """Exact division; raises NotDivisible if there is a remainder.

        A monomial divisor c q^e shifts every exponent down by e and
        divides every coefficient by c; an exponent below e or a
        coefficient c does not divide is a remainder.  Any other divisor
        goes through long division (:meth:`divmod`)."""
        a, b = self.c, other.c
        if len(b) == 1:
            (eb, cb), = b.items()
            if eb and a and min(a) < eb:
                raise NotDivisible(f"q^{min(a)} is not divisible by q^{eb}")
            if cb == 1:
                return IntPoly._new({e - eb: v for e, v in a.items()}) if eb else self
            quot = {}
            for e, v in a.items():
                f, r = divmod(v, cb)
                if r:
                    raise NotDivisible(f"coefficient {v} not divisible by {cb}")
                quot[e - eb] = f
            return IntPoly._new(quot)
        q, r = self.divmod(other)
        if not r.is_zero():
            raise NotDivisible(f"({self}) is not divisible by ({other})")
        return q

    def divides(self, other: "IntPoly") -> bool:
        """Whether self divides other in Q[q] with an integer-poly quotient."""
        try:
            other.__floordiv__(self)
        except (NotDivisible, DivisionByZero):
            return False
        return True

    # -- transforms --------------------------------------------------------

    def reverse(self, top: int) -> "IntPoly":
        """The polynomial q**top * p(1/q); requires deg(p) <= top."""
        if self.c and max(self.c) > top:
            raise ValueError(f"degree {max(self.c)} exceeds reversal bound {top}")
        return IntPoly._new({top - e: v for e, v in self.c.items()})

    # -- comparisons, formatting ------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.c == ({0: other} if other else {})
        if not isinstance(other, IntPoly):
            return NotImplemented
        return self.c == other.c

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(tuple(sorted(self.c.items())))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self.c)

    def __str__(self) -> str:
        if not self.c:
            return "0"
        parts: list[str] = []
        for e in sorted(self.c, reverse=True):
            v = self.c[e]
            sign = "-" if v < 0 else "+"
            av = abs(v)
            if e == 0:
                body = str(av)
            else:
                var = "q" if e == 1 else f"q^{e}"
                body = var if av == 1 else f"{av}*{var}"
            parts.append(f"{sign} {body}" if parts else (f"-{body}" if v < 0 else body))
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"IntPoly({self.c!r})"


_ZERO = IntPoly()
_ONE = IntPoly(1)


# ---------------------------------------------------------------------------
# Kronecker substitution
# ---------------------------------------------------------------------------
#
# A polynomial q^lo * sum_i c_i q^i whose coefficients all satisfy
# |c_i| < 2^(K-1) is its value at xi = 2^K, read back as balanced base-2^K
# digits.  K is a multiple of 8, so packing and unpacking are byte copies.
# The packing serves where it is the algorithm itself: the solver reads its
# integer solves at q = 2^K off the digits (lsgreen.greensolver), and the
# Molien sum packs its rotation part (lsgreen.fakedegree).

# byte maps for the top byte of a slot: add 2^7 modulo 2^8, and the byte
# that sign-extends it
_FLIP = bytes(b ^ 0x80 for b in range(256))
_SIGN = bytes(0xFF if b & 0x80 else 0 for b in range(256))


def _kron_pack(c: dict[int, int], lo: int, kb: int, n: int) -> int:
    """The value at q = 2^(8 kb) of q^(-lo) c, for a c whose exponents lie
    in lo .. lo + n - 1 and whose coefficients are below 2^(8 kb - 1) in
    absolute value.

    Each slot holds its coefficient plus 2^(8 kb - 1), a nonnegative
    number, and the number whose every slot is 2^(8 kb - 1) is subtracted
    at the end.  For slots of at most 8 bytes the coefficients are packed
    as signed 64-bit words by :mod:`struct`; the low kb bytes of each word,
    with the top bit of the last one flipped, are that slot, and kb
    strided copies cut them out."""
    if kb > 8:
        half = 1 << (8 * kb - 1)
        slots = [half] * n
        for e, v in c.items():
            slots[e - lo] += v
        raw = b"".join([v.to_bytes(kb, "little") for v in slots])
    else:
        slots = [0] * n
        deque(map(slots.__setitem__, map(operator.sub, c, repeat(lo)), c.values()), 0)
        words = struct.pack(f"<{n}q", *slots)
        raw = bytearray(kb * n)
        for j in range(kb - 1):
            raw[j::kb] = words[j::8]
        raw[kb - 1::kb] = words[kb - 1::8].translate(_FLIP)
    return int.from_bytes(raw, "little") - int.from_bytes((bytes(kb - 1) + b"\x80") * n, "little")


def _kron_unpack(x: int, kb: int, n: int, lo: int) -> dict[int, int] | None:
    """The coefficient dict {lo + i: d_i} of the n balanced base-2^(8 kb)
    digits d_i of x, each in [-2^(8 kb - 1), 2^(8 kb - 1)); None when x
    needs more than n digits.

    Adding the number whose every digit is 2^(8 kb - 1) makes every digit
    nonnegative; :func:`_kron_pack`'s steps, reversed, read them back as
    signed 64-bit words, sign-extended from their top byte."""
    y = x + int.from_bytes((bytes(kb - 1) + b"\x80") * n, "little")
    if y < 0 or y.bit_length() > 8 * kb * n:
        return None
    raw = y.to_bytes(kb * n, "little")
    if kb > 8:
        half = 1 << (8 * kb - 1)
        digits = [int.from_bytes(raw[j:j + kb], "little") - half for j in range(0, kb * n, kb)]
    else:
        words = bytearray(8 * n)
        for j in range(kb - 1):
            words[j::8] = raw[j::kb]
        top = raw[kb - 1::kb].translate(_FLIP)
        words[kb - 1::8] = top
        if kb < 8:
            sign = top.translate(_SIGN)
            for j in range(kb, 8):
                words[j::8] = sign
        digits = struct.unpack(f"<{n}q", words)
    return dict(compress(zip(range(lo, lo + n), digits), digits))


# ---------------------------------------------------------------------------
# gcds
# ---------------------------------------------------------------------------

def _strip_q(p: IntPoly) -> IntPoly:
    """p / q^(ord p), for a nonzero p: the part of p prime to q."""
    e = min(p.c)
    return IntPoly._new({k - e: v for k, v in p.c.items()}) if e else p


def _primitive(p: IntPoly) -> IntPoly:
    ct = p.content()
    if ct in (0, 1):
        return p
    return IntPoly._new({e: v // ct for e, v in p.c.items()})


def _pseudo_rem(a: IntPoly, b: IntPoly) -> IntPoly:
    """Pseudo-remainder of a by b: rem(lc(b)^(da-db+1) * a, b) over Z."""
    da, db = a.degree(), b.degree()
    if da < db:
        return a
    lead = b.leading_coeff()
    rem = dict((a * lead ** (da - db + 1)).c)
    bitems = list(b.c.items())
    for e in range(da, db - 1, -1):  # one walk down, as in IntPoly.divmod
        v = rem.get(e)
        if v is None:
            continue
        f = v // lead  # exact by construction of the pseudo-remainder
        if v != f * lead:
            raise NotDivisible(f"pseudo-remainder step: {v} by {lead}")
        s = e - db
        for eo, vo in bitems:
            ee = s + eo
            w = rem.get(ee, 0) - f * vo
            if w:
                rem[ee] = w
            else:
                rem.pop(ee, None)
    return IntPoly._new(rem)


def _prs_gcd(x: IntPoly, y: IntPoly) -> IntPoly:
    """gcd of two primitive polynomials up to sign, by primitive-PRS
    Euclid: the pseudo-remainder sequence is re-primitivised at every
    step, which keeps coefficient growth tame at the sizes seen here."""
    while not y.is_zero():
        x, y = y, _primitive(_pseudo_rem(x, y))
    return x


def poly_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Gcd in Z[q], with positive leading coefficient.  The content and
    the q-valuation are split off first: q is a prime of Z[q], so with
    a = q^i a_1 and b = q^j b_1, a_1 and b_1 prime to q,

        gcd(a, b) = gcd(cont a, cont b) q^min(i, j) gcd(a_1, b_1),

    and primitive-PRS Euclid (:func:`_prs_gcd`) finds the gcd of the
    primitive parts of a_1 and b_1, whose degrees are lower by i and j.
    """
    if a.is_zero():
        g = b
    elif b.is_zero():
        g = a
    else:
        g = _prs_gcd(_primitive(_strip_q(a)), _primitive(_strip_q(b)))
        s, ct = min(min(a.c), min(b.c)), int_gcd(a.content(), b.content())
        g = IntPoly._new({e + s: v * ct for e, v in g.c.items()})
    if g.leading_coeff() < 0:
        g = -g
    return g


def poly_lcm(a: IntPoly, b: IntPoly) -> IntPoly:
    if a.is_zero() or b.is_zero():
        return _ZERO
    l = a * (b // poly_gcd(a, b))
    if l.leading_coeff() < 0:
        l = -l
    return l


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

class RatFunc:
    """Reduced fraction num/den of integer polynomials.

    Normal form: gcd(num, den) = 1 and the leading coefficient of den is
    positive; zero is 0/1.  All arithmetic re-normalises, with a fast path
    when both operands are genuine polynomials (den = 1), which is the common
    case inside the block elimination.  Sums of products belong in
    :func:`rf_dot`, which normalises once.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: IntPoly | int, den: IntPoly | int = 1, *, _normalized: bool = False):
        if isinstance(num, int):
            num = IntPoly(num)
        if isinstance(den, int):
            den = _ONE if den == 1 else IntPoly(den)
        if den.is_zero():
            raise ZeroDenominator(f"({num})/0")
        if _normalized:
            self.num, self.den = num, den
            return
        if num.is_zero():
            self.num, self.den = _ZERO, _ONE
            return
        if den == _ONE:
            self.num, self.den = num, den
            return
        g = poly_gcd(num, den)
        if g != _ONE:
            num = num // g
            den = den // g
        if den.leading_coeff() < 0:
            num, den = -num, -den
        self.num, self.den = num, den

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den == _ONE

    def as_poly(self) -> IntPoly:
        if self.den != _ONE:
            raise NotPolynomial(f"{self} has nontrivial denominator")
        return self.num

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return other
        if self.den == _ONE and other.den == _ONE:
            return RatFunc(self.num + other.num, _ONE, _normalized=True)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return other
        if self.den == _ONE and other.den == _ONE:
            return RatFunc(self.num - other.num, _ONE, _normalized=True)
        return RatFunc(self.num * other.den - other.num * self.den, self.den * other.den)

    def __rsub__(self, other):
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return other
        return other.__sub__(self)

    def __neg__(self):
        return RatFunc(-self.num, self.den, _normalized=True)

    def __mul__(self, other):
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return other
        if self.den == _ONE and other.den == _ONE:
            return RatFunc(self.num * other.num, _ONE, _normalized=True)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return other
        if other.num.is_zero():
            raise DivisionByZero(f"({self}) / 0")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return other
        return other.__truediv__(self)

    # -- comparisons, formatting ------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, IntPoly)):
            other = RatFunc(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self) -> bool:
        return bool(self.num)

    def __str__(self) -> str:
        if self.den == _ONE:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"RatFunc({self.num!r}, {self.den!r})"


def _as_ratfunc(x):
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, (int, IntPoly)):
        return RatFunc(x)
    return NotImplemented


RF_ZERO = RatFunc(0)
RF_ONE = RatFunc(1)


def rf_dot(pairs: Iterable[tuple[RatFunc, RatFunc]]) -> RatFunc:
    """The sum of a*b over the (a, b) pairs, normalised once.

    The fold ``acc = acc + a*b`` reduces every product and every partial
    sum, two gcds per term.  Here pairs with a zero factor are skipped, each
    product's numerator is added, coefficient by coefficient, into the group
    of its unreduced denominator a.den*b.den (products of polynomials share
    the group 1), and no gcd is taken inside the sum.  The groups are then
    brought over the lcm of their denominators, and the one
    :class:`RatFunc` built from that is reduced to lowest terms: the result
    equals the fold's, in the same normal form.  It serves sums that are
    kept: the solver's residual update and the back-substitution of
    :func:`matrix_solve`.  A term that is not a product is the pair (x, 1):
    the residual entry M - sum h*p is one call over the pairs (-h, p) and
    (M, 1), one reduction where ``M - rf_dot(..)`` takes two.  A multiply-back only compares, so
    :func:`lsgreen.greensolver.verify_system` clears the denominators
    instead and reduces nothing.

    >>> half = RatFunc(1, IntPoly({1: 1, 0: 1}))
    >>> str(rf_dot([(half, RatFunc(IntPoly({1: 1}))), (half, RatFunc(1))]))
    '1'
    """
    groups: dict[IntPoly, dict[int, int]] = {}
    for a, b in pairs:
        ac, bc = a.num.c, b.num.c
        if not ac or not bc:
            continue
        ad, bd = a.den, b.den
        if ad == _ONE:
            den = bd
        elif bd == _ONE:
            den = ad
        else:
            den = ad * bd
        acc = groups.get(den)
        if acc is None:
            acc = groups[den] = {}
        for ea, va in ac.items():
            for eb, vb in bc.items():
                e = ea + eb
                acc[e] = acc.get(e, 0) + va * vb
    if not groups:
        return RF_ZERO
    lcm = _ONE
    for den in groups:
        if den != lcm:
            lcm = den if lcm == _ONE else poly_lcm(lcm, den)
    total: dict[int, int] = {}
    for den, acc in groups.items():
        if den == lcm:
            for e, v in acc.items():
                total[e] = total.get(e, 0) + v
        else:
            for ef, vf in (lcm // den).c.items():
                for e, v in acc.items():
                    e += ef
                    total[e] = total.get(e, 0) + v * vf
    return RatFunc(IntPoly._new({e: v for e, v in total.items() if v}), lcm)


# ---------------------------------------------------------------------------
# cyclotomic numbers
# ---------------------------------------------------------------------------

def _factorize(n: int) -> dict[int, int]:
    f: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            f[d] = f.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        f[n] = f.get(n, 0) + 1
    return f


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("euler_phi needs n >= 1")
    r = n
    for p in _factorize(n):
        r = r // p * (p - 1)
    return r


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> IntPoly:
    """The n-th cyclotomic polynomial, by recursive exact division:
    Phi_n = (q^n - 1) / prod_{d | n, d < n} Phi_d.

    >>> str(cyclotomic_polynomial(6))
    'q^2 - q + 1'
    """
    if n < 1:
        raise ValueError("cyclotomic_polynomial needs n >= 1")
    num = IntPoly({n: 1, 0: -1})
    for d in range(1, n):
        if n % d == 0:
            num = num // cyclotomic_polynomial(d)
    return num


@lru_cache(maxsize=None)
def _power_reductions(m: int) -> tuple[tuple[int, ...], ...]:
    """Coordinates of x^j mod Phi_m for j = 0 .. 2m, as integer vectors of
    length phi(m)."""
    phi = euler_phi(m)
    cyc = cyclotomic_polynomial(m)
    top = [cyc.coeff(i) for i in range(phi)]  # Phi_m = x^phi + sum top[i] x^i
    rows: list[tuple[int, ...]] = []
    cur = [0] * phi
    cur[0] = 1
    rows.append(tuple(cur))
    for _ in range(2 * m):
        lead = cur[phi - 1]
        nxt = [0] * phi
        for i in range(phi - 1):
            nxt[i + 1] = cur[i]
        if lead:
            for i in range(phi):
                nxt[i] -= lead * top[i]
        cur = nxt
        rows.append(tuple(cur))
    return tuple(rows)


@lru_cache(maxsize=None)
def _reduction_rows(m: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """For j = phi .. 2 phi - 2, the nonzero coordinates (i, c) of x^j mod
    Phi_m.  They are sparse: at prime m, x^j = x^(j-m) for j >= m and
    x^(m-1) = -(1 + ... + x^(m-2)), so reducing a product costs O(m)
    rather than the O(m^2) of dividing by Phi_m step by step."""
    phi = euler_phi(m)
    red = _power_reductions(m)
    return tuple(tuple((i, c) for i, c in enumerate(red[j]) if c) for j in range(phi, 2 * phi - 1))


def _cyclo_reduce(m: int, conv: Sequence[int]) -> tuple[int, ...]:
    """The coordinates mod Phi_m of the coefficient list conv, of length
    2 phi - 1, of a product of two elements of Z[x]/(Phi_m)."""
    phi = (len(conv) + 1) // 2
    out = list(conv[:phi])
    for cj, row in zip(conv[phi:], _reduction_rows(m)):
        if cj:
            for i, c in row:
                out[i] += cj * c
    return tuple(out)


class CycloNum:
    """An element of the ring of integers Z[zeta_m] of Q(zeta_m), in
    integer coordinates over the power basis 1, zeta, ..., zeta^(phi(m)-1)
    of Z[x]/(Phi_m).

    Character values of I2(m) lie in Z[zeta_m] and the ring is closed under
    +, - and *, so sums of products of character values never need a
    fraction: the Molien sum divides the integer :meth:`rational_part` of
    each coefficient by 2m exactly, once, at the end.  The constructor
    takes only ``int`` coordinates; results of arithmetic skip that check.
    """

    __slots__ = ("m", "co")

    def __init__(self, m: int, coords: Sequence[int]):
        phi = euler_phi(m)
        co = tuple(coords)
        if len(co) != phi:
            raise ValueError(f"expected {phi} coordinates for m={m}, got {len(co)}")
        for x in co:
            if type(x) is not int:
                raise TypeError(f"cyclotomic coordinates must be int, got {x!r}")
        self.m = m
        self.co = co

    @classmethod
    def _new(cls, m: int, co: tuple[int, ...]) -> "CycloNum":
        """A result of arithmetic, whose coordinates are ints by construction."""
        self = object.__new__(cls)
        self.m = m
        self.co = co
        return self

    # -- constructors ------------------------------------------------------

    @staticmethod
    def rational(m: int, value: int) -> "CycloNum":
        return CycloNum(m, (value,) + (0,) * (euler_phi(m) - 1))

    @staticmethod
    def root_power(m: int, k: int) -> "CycloNum":
        """zeta_m ** k."""
        return CycloNum._new(m, _power_reductions(m)[k % m])

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.co)

    def is_rational(self) -> bool:
        return not any(self.co[1:])

    def rational_part(self) -> int:
        """The value as an integer; raises NotRational if it is irrational."""
        if not self.is_rational():
            raise NotRational(f"{self} is not rational")
        return self.co[0]

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "CycloNum"):
        if self.m != other.m:
            raise ValueError(f"mixed cyclotomic fields Q(zeta_{self.m}), Q(zeta_{other.m})")

    def __add__(self, other):
        if isinstance(other, int):
            other = CycloNum.rational(self.m, other)
        if not isinstance(other, CycloNum):
            return NotImplemented
        self._check(other)
        return CycloNum._new(self.m, tuple(map(operator.add, self.co, other.co)))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = CycloNum.rational(self.m, other)
        if not isinstance(other, CycloNum):
            return NotImplemented
        self._check(other)
        return CycloNum._new(self.m, tuple(map(operator.sub, self.co, other.co)))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return CycloNum._new(self.m, tuple(-a for a in self.co))

    def __mul__(self, other):
        if isinstance(other, int):
            return CycloNum._new(self.m, tuple(a * other for a in self.co))
        if not isinstance(other, CycloNum):
            return NotImplemented
        self._check(other)
        phi = len(self.co)
        conv = [0] * (2 * phi - 1)
        bs = [(j, b) for j, b in enumerate(other.co) if b]
        for i, a in enumerate(self.co):
            if a:
                for j, b in bs:
                    conv[i + j] += a * b
        return CycloNum._new(self.m, _cyclo_reduce(self.m, conv))

    __rmul__ = __mul__

    def conj(self) -> "CycloNum":
        """The image under zeta -> zeta^(-1) (complex conjugation on
        character values)."""
        red = _power_reductions(self.m)
        phi = len(self.co)
        out = [0] * phi
        for i, a in enumerate(self.co):
            if a:
                row = red[(self.m - i) % self.m]
                for j in range(phi):
                    if row[j]:
                        out[j] += a * row[j]
        return CycloNum._new(self.m, tuple(out))

    # -- comparisons, formatting ------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.is_rational() and self.co[0] == other
        if not isinstance(other, CycloNum):
            return NotImplemented
        return self.m == other.m and self.co == other.co

    def __hash__(self):
        return hash((self.m, self.co))

    def __str__(self) -> str:
        if self.is_rational():
            return str(self.co[0])
        terms = []
        for i, a in enumerate(self.co):
            if a:
                terms.append(f"{a}*z^{i}" if i else str(a))
        return " + ".join(terms) + f"  (z = zeta_{self.m})"

    def __repr__(self) -> str:
        return f"CycloNum({self.m}, {list(self.co)!r})"


# ---------------------------------------------------------------------------
# labelled matrices
# ---------------------------------------------------------------------------

class PolyMatrix:
    """A matrix of rational functions whose rows and columns are indexed by
    arbitrary hashable labels (character labels, in practice).

    Entries are stored densely, in the order of the label tuples.
    """

    __slots__ = ("rows", "cols", "data", "_ri", "_ci")

    def __init__(self, rows: Sequence, cols: Sequence, data: Sequence[Sequence[RatFunc]]):
        self.rows = tuple(rows)
        self.cols = tuple(cols)
        if len(set(self.rows)) != len(self.rows) or len(set(self.cols)) != len(self.cols):
            raise ValueError("duplicate labels")
        if len(data) != len(self.rows):
            raise ValueError("row count mismatch")
        norm: list[tuple[RatFunc, ...]] = []
        for row in data:
            if len(row) != len(self.cols):
                raise ValueError("column count mismatch")
            norm.append(tuple(_as_ratfunc(x) for x in row))
        self.data = tuple(norm)
        self._ri = {r: i for i, r in enumerate(self.rows)}
        self._ci = {c: i for i, c in enumerate(self.cols)}

    @classmethod
    def _new(cls, labels: tuple, data: Sequence[Sequence[RatFunc]]) -> "PolyMatrix":
        """A square matrix over ``labels``, a tuple of distinct labels, whose
        entries are RatFuncs by construction: they are taken as they are,
        and no shape or entry is checked."""
        self = object.__new__(cls)
        self.rows = self.cols = labels
        self.data = tuple(map(tuple, data))
        self._ri = self._ci = {r: i for i, r in enumerate(labels)}
        return self

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_function(rows: Sequence, cols: Sequence, fn) -> "PolyMatrix":
        return PolyMatrix(rows, cols, [[fn(r, c) for c in cols] for r in rows])

    # -- access ------------------------------------------------------------

    def get(self, row, col) -> RatFunc:
        return self.data[self._ri[row]][self._ci[col]]

    # -- comparisons, formatting ------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self) -> str:
        return f"PolyMatrix(rows={self.rows!r}, cols={self.cols!r})"


# ---------------------------------------------------------------------------
# exact linear solving
# ---------------------------------------------------------------------------

def _bareiss(a: Sequence[Sequence], b: Sequence[Sequence],
             labels: Sequence | None = None) -> list[list]:
    """The system X * A = B for a square A, as its transposed augmented
    matrix [A^t | B^t] (k equations; k unknowns, then one column per row of
    B) after fraction-free (Bareiss) elimination of its first k columns.
    Every division is exact, and the last pivot ``[k-1][k-1]`` is the
    determinant of the row-permuted A.  A column without a pivot raises
    SingularBlock (naming ``labels[i]``, the label of A's row i, when
    given).  The entries are IntPolys or Python ints: the ring is the type
    of A's entries, and a zero is told by truthiness."""
    k = len(a)
    mat = [[row[r] for row in a] + [row[r] for row in b] for r in range(k)]
    width = len(mat[0]) if mat else 0
    ring = type(a[0][0]) if k else IntPoly
    prev, zero = ring(1), ring()
    for i in range(k):
        piv = next((j for j in range(i, k) if mat[j][i]), None)
        if piv is None:
            where = f" (labels {labels[i]!r})" if labels is not None else ""
            raise SingularBlock(f"no pivot in column {i}{where}")
        if piv != i:
            mat[i], mat[piv] = mat[piv], mat[i]
        pivot = mat[i][i]
        for j in range(i + 1, k):
            head = mat[j][i]
            row_j = mat[j]
            row_i = mat[i]
            if not head:
                for l in range(i + 1, width):
                    if row_j[l]:
                        row_j[l] = (row_j[l] * pivot) // prev
            else:
                for l in range(i + 1, width):
                    row_j[l] = (row_j[l] * pivot - head * row_i[l]) // prev
            row_j[i] = zero
        prev = pivot
    return mat


def matrix_solve(a: Sequence[Sequence[RatFunc]], b: Sequence[Sequence[RatFunc]],
                 labels: Sequence | None = None) -> list[list[RatFunc]]:
    """Solve X * A = B exactly over the field of rational functions.

    ``a`` holds the k rows of a square A and ``b`` the rows of B, each of
    k entries; the result is the rows of X, one per row of B.  Strategy:
    clear all denominators with a single scalar multiple s (X*(A*s) = B*s
    has the same solution; each entry n/d becomes n * (s/d), with no gcd),
    eliminate (:func:`_bareiss`), and
    back-substitute: the sum rhs_i - sum_l u_il x_l of each unknown is one
    :func:`rf_dot`, divided by the pivot u_ii.  A singular A raises
    SingularBlock, naming ``labels[i]`` (A's row labels) when given.  X*A
    is not multiplied back here: the caller does that
    (:func:`lsgreen.greensolver.solve` checks the whole system it builds).
    """
    k = len(a)
    if any(len(row) != k for rows in (a, b) for row in rows):
        raise ValueError("A must be square and B must have as many columns")

    # scalar denominator clearing: x * s = x.num * (s / x.den), exactly
    s = _ONE
    dens = {_ONE}
    for rows in (a, b):
        for row in rows:
            for x in row:
                if x.den not in dens:
                    s = poly_lcm(s, x.den)
                    dens.add(x.den)
    cofactor = {den: s // den for den in dens}
    mat = _bareiss([[x.num * cofactor[x.den] for x in row] for row in a],
                   [[x.num * cofactor[x.den] for x in row] for row in b], labels)

    # back substitution, one rhs column at a time, over rational functions
    xrows: list[list[RatFunc]] = []
    for r2 in range(len(b)):
        x = [RF_ZERO] * k
        for i in range(k - 1, -1, -1):
            row = mat[i]
            terms = [(RatFunc(row[k + r2]), RF_ONE)]
            terms += [(RatFunc(-row[l]), x[l]) for l in range(i + 1, k) if row[l].c]
            x[i] = rf_dot(terms) / RatFunc(row[i])
        xrows.append(x)
    return xrows


# ---------------------------------------------------------------------------
# sums of products over Z[q]
# ---------------------------------------------------------------------------

def poly_dot(pairs: Iterable[tuple[IntPoly, IntPoly]]) -> IntPoly:
    """The sum of a*b over the (a, b) pairs of polynomials, added
    coefficient by coefficient into one dict; pairs with a zero factor
    cost one test."""
    acc: dict[int, int] = {}
    for a, b in pairs:
        ac, bc = a.c, b.c
        if ac and bc:
            for ea, va in ac.items():
                for eb, vb in bc.items():
                    e = ea + eb
                    acc[e] = acc.get(e, 0) + va * vb
    return IntPoly._new({e: v for e, v in acc.items() if v})
