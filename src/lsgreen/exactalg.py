"""Exact arithmetic kernel.

Four layers, all exact (no floating point anywhere):

* :class:`IntPoly` -- sparse univariate polynomials over the integers, the
  coefficient domain for everything q-graded.
* :class:`RatFunc` -- reduced fractions of integer polynomials, normalised so
  the denominator has positive leading coefficient.
* :class:`CycloNum` -- elements of the cyclotomic field Q(zeta_m), stored in
  coordinates with respect to the power basis of Q[x]/(Phi_m).
* :class:`PolyMatrix` -- matrices of rational functions with *labelled* rows
  and columns, plus an exact left-division solver (:func:`matrix_solve`).

The polynomial variable is called ``q`` in printed output.

>>> p = IntPoly({4: 1, 3: 1, 1: -1, 0: -1})
>>> str(p)
'q^4 + q^3 - q - 1'
>>> str(p // IntPoly({1: 1, 0: 1}))
'q^3 - 1'
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
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
        r = IntPoly.__new__(IntPoly)
        r.c = c
        r._hash = None
        return r

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
        r = IntPoly.__new__(IntPoly)
        r.c = c
        r._hash = None
        return r

    def __neg__(self) -> "IntPoly":
        r = IntPoly.__new__(IntPoly)
        r.c = {e: -v for e, v in self.c.items()}
        r._hash = None
        return r

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return _ZERO
            r = IntPoly.__new__(IntPoly)
            r.c = {e: v * other for e, v in self.c.items()}
            r._hash = None
            return r
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
        r = IntPoly.__new__(IntPoly)
        r.c = c
        r._hash = None
        return r

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
        r = IntPoly.__new__(IntPoly)
        r.c = {e + k: v for e, v in self.c.items()}
        r._hash = None
        return r

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
        while rem:
            e = max(rem)
            if e < dlead:
                break
            v = rem[e]
            if v % clead:
                raise NotDivisible(f"coefficient {v} not divisible by {clead}")
            f = v // clead
            quot[e - dlead] = f
            for eo, vo in oitems:
                ee = e - dlead + eo
                w = rem.get(ee, 0) - f * vo
                if w:
                    rem[ee] = w
                elif ee in rem:
                    del rem[ee]
        return IntPoly(quot), IntPoly(rem)

    def __floordiv__(self, other: "IntPoly") -> "IntPoly":
        """Exact division; raises NotDivisible if there is a remainder."""
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
        r = IntPoly.__new__(IntPoly)
        r.c = {top - e: v for e, v in self.c.items()}
        r._hash = None
        return r

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


def _primitive(p: IntPoly) -> IntPoly:
    ct = p.content()
    if ct in (0, 1):
        return p
    r = IntPoly.__new__(IntPoly)
    r.c = {e: v // ct for e, v in p.c.items()}
    r._hash = None
    return r


def _pseudo_rem(a: IntPoly, b: IntPoly) -> IntPoly:
    """Pseudo-remainder of a by b: rem(lc(b)^(da-db+1) * a, b) over Z."""
    da, db = a.degree(), b.degree()
    if da < db:
        return a
    lead = b.leading_coeff()
    rem = dict((a * lead ** (da - db + 1)).c)
    bitems = list(b.c.items())
    while rem:
        e = max(rem)
        if e < db:
            break
        f = rem[e] // lead  # exact by construction of the pseudo-remainder
        assert rem[e] == f * lead
        for eo, vo in bitems:
            ee = e - db + eo
            w = rem.get(ee, 0) - f * vo
            if w:
                rem[ee] = w
            elif ee in rem:
                del rem[ee]
    return IntPoly(rem)


def poly_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Gcd in Z[q], normalised primitive with positive leading coefficient.

    Primitive-PRS Euclid: contents are pulled out up front and the
    pseudo-remainder sequence is re-primitivised at every step, which keeps
    coefficient growth tame at the sizes seen here.
    """
    if a.is_zero():
        g = b
    elif b.is_zero():
        g = a
    else:
        ca, cb = a.content(), b.content()
        x, y = _primitive(a), _primitive(b)
        while not y.is_zero():
            r = _pseudo_rem(x, y)
            x, y = y, _primitive(r)
        g = x * int_gcd(ca, cb)
    if g.leading_coeff() < 0:
        g = -g
    return g


def poly_lcm(a: IntPoly, b: IntPoly) -> IntPoly:
    if a.is_zero() or b.is_zero():
        return _ZERO
    l = (a * b) // poly_gcd(a, b)
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
    case inside the block elimination.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: IntPoly | int, den: IntPoly | int = 1, *, _normalized: bool = False):
        if isinstance(num, int):
            num = IntPoly(num)
        if isinstance(den, int):
            den = IntPoly(den)
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


class CycloNum:
    """An element of Q(zeta_m), in coordinates over the power basis
    1, zeta, ..., zeta^(phi(m)-1) of Q[x]/(Phi_m)."""

    __slots__ = ("m", "co")

    def __init__(self, m: int, coords: Sequence[Fraction | int]):
        phi = euler_phi(m)
        if len(coords) != phi:
            raise ValueError(f"expected {phi} coordinates for m={m}, got {len(coords)}")
        self.m = m
        self.co = tuple(Fraction(x) for x in coords)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def rational(m: int, value: Fraction | int) -> "CycloNum":
        co = [Fraction(0)] * euler_phi(m)
        co[0] = Fraction(value)
        return CycloNum(m, co)

    @staticmethod
    def root_power(m: int, k: int) -> "CycloNum":
        """zeta_m ** k."""
        red = _power_reductions(m)
        return CycloNum(m, red[k % m])

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.co)

    def is_rational(self) -> bool:
        return all(x == 0 for x in self.co[1:])

    def rational_part(self) -> Fraction:
        """The value as a rational number; raises NotRational otherwise."""
        if not self.is_rational():
            raise NotRational(f"{self} is not rational")
        return self.co[0]

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "CycloNum"):
        if self.m != other.m:
            raise ValueError(f"mixed cyclotomic fields Q(zeta_{self.m}), Q(zeta_{other.m})")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycloNum.rational(self.m, other)
        if not isinstance(other, CycloNum):
            return NotImplemented
        self._check(other)
        return CycloNum(self.m, [a + b for a, b in zip(self.co, other.co)])

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycloNum.rational(self.m, other)
        if not isinstance(other, CycloNum):
            return NotImplemented
        self._check(other)
        return CycloNum(self.m, [a - b for a, b in zip(self.co, other.co)])

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return CycloNum(self.m, [-a for a in self.co])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CycloNum(self.m, [a * other for a in self.co])
        if not isinstance(other, CycloNum):
            return NotImplemented
        self._check(other)
        phi = len(self.co)
        conv = [Fraction(0)] * (2 * phi - 1)
        for i, a in enumerate(self.co):
            if a:
                for j, b in enumerate(other.co):
                    if b:
                        conv[i + j] += a * b
        out = list(conv[:phi])
        red = _power_reductions(self.m)
        for j in range(phi, 2 * phi - 1):
            cj = conv[j]
            if cj:
                row = red[j]
                for i in range(phi):
                    if row[i]:
                        out[i] += cj * row[i]
        return CycloNum(self.m, out)

    __rmul__ = __mul__

    def inverse(self) -> "CycloNum":
        """Multiplicative inverse via the extended Euclidean algorithm in
        Q[x] against Phi_m."""
        if self.is_zero():
            raise DivisionByZero("inverse of zero cyclotomic number")
        phi = len(self.co)
        cyc = cyclotomic_polynomial(self.m)
        mod = [Fraction(cyc.coeff(i)) for i in range(phi + 1)]
        a = list(self.co)
        # trim
        while a and a[-1] == 0:
            a.pop()
        # extended euclid: find u with a*u = 1 mod Phi
        r0, r1 = mod, a
        s0, s1 = [Fraction(0)], [Fraction(1)]

        def _deg(p):
            return len(p) - 1

        def _subshift(p, r, c, k):
            # p - c * x^k * r
            out = list(p) + [Fraction(0)] * max(0, len(r) + k - len(p))
            for i, x in enumerate(r):
                out[i + k] -= c * x
            while out and out[-1] == 0:
                out.pop()
            return out

        while _deg(r1) > 0:
            # divide r0 by r1, updating the Bezout coefficient alongside
            rem = list(r0)
            news = list(s0)
            while rem and _deg(rem) >= _deg(r1):
                c = rem[-1] / r1[-1]
                k = _deg(rem) - _deg(r1)
                rem = _subshift(rem, r1, c, k)
                news = _subshift(news, s1, c, k)
            r0, r1 = r1, rem
            s0, s1 = s1, news
            if not r1:
                raise DivisionByZero("zero divisor in cyclotomic field (non-invertible)")
        # r1 is a nonzero constant: a * s1 = r1 (mod Phi)
        cinv = 1 / r1[0]
        inv = [x * cinv for x in s1]
        inv += [Fraction(0)] * (phi - len(inv))
        return CycloNum(self.m, inv[:phi])

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise DivisionByZero("division by zero")
            return CycloNum(self.m, [a / other for a in self.co])
        if not isinstance(other, CycloNum):
            return NotImplemented
        self._check(other)
        return self * other.inverse()

    def conj(self) -> "CycloNum":
        """The image under zeta -> zeta^(-1) (complex conjugation on
        character values)."""
        red = _power_reductions(self.m)
        phi = len(self.co)
        out = [Fraction(0)] * phi
        for i, a in enumerate(self.co):
            if a:
                row = red[(self.m - i) % self.m]
                for j in range(phi):
                    if row[j]:
                        out[j] += a * row[j]
        return CycloNum(self.m, out)

    # -- comparisons, formatting ------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
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

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_function(rows: Sequence, cols: Sequence, fn) -> "PolyMatrix":
        return PolyMatrix(rows, cols, [[fn(r, c) for c in cols] for r in rows])

    @staticmethod
    def zeros(rows: Sequence, cols: Sequence) -> "PolyMatrix":
        return PolyMatrix(rows, cols, [[RF_ZERO] * len(cols) for _ in rows])

    # -- access ------------------------------------------------------------

    def get(self, row, col) -> RatFunc:
        return self.data[self._ri[row]][self._ci[col]]

    def submatrix(self, rows: Sequence, cols: Sequence) -> "PolyMatrix":
        return PolyMatrix(
            rows, cols,
            [[self.data[self._ri[r]][self._ci[c]] for c in cols] for r in rows],
        )

    # -- algebra -----------------------------------------------------------

    def transpose(self) -> "PolyMatrix":
        return PolyMatrix(
            self.cols, self.rows,
            [[self.data[i][j] for i in range(len(self.rows))]
             for j in range(len(self.cols))],
        )

    def mul(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.cols != other.rows:
            raise ValueError("inner labels do not match")
        n = len(self.cols)
        out = []
        for i in range(len(self.rows)):
            row = []
            for j in range(len(other.cols)):
                acc = RF_ZERO
                for k in range(n):
                    a = self.data[i][k]
                    if a.num.c:
                        b = other.data[k][j]
                        if b.num.c:
                            acc = acc + a * b
                row.append(acc)
            out.append(row)
        return PolyMatrix(self.rows, other.cols, out)

    def is_symmetric(self) -> bool:
        if self.rows != self.cols:
            return False
        n = len(self.rows)
        return all(
            self.data[i][j] == self.data[j][i]
            for i in range(n) for j in range(i + 1, n)
        )

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

def matrix_solve(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """Solve X * A = B exactly over the field of rational functions.

    A must be square (its row and column label tuples coincide as sets); the
    result X carries B's row labels and A's row labels as columns.  Strategy:
    clear all denominators with a single scalar multiple s (X*(A*s) = B*s has
    the same solution), run fraction-free Bareiss elimination on the
    transposed augmented system, and back-substitute.  A singular A raises
    SingularBlock; the product X*A is checked against B before returning.
    """
    if len(a.rows) != len(a.cols):
        raise ValueError("coefficient block is not square")
    if b.cols != a.cols:
        b = b.submatrix(b.rows, a.cols)  # reorder columns; KeyError if mismatched
    k = len(a.rows)
    nrhs = len(b.rows)

    # scalar denominator clearing
    s = _ONE
    for mat in (a, b):
        for row in mat.data:
            for x in row:
                if x.den != _ONE:
                    s = poly_lcm(s, x.den)
    a2 = [[(a.data[i][j] * s).as_poly() for j in range(k)] for i in range(k)]
    b2 = [[(b.data[i][j] * s).as_poly() for j in range(k)] for i in range(nrhs)]

    # transposed augmented matrix: rows = k equations, cols = k unknowns + rhs
    mat: list[list[IntPoly]] = [
        [a2[c][r] for c in range(k)] + [b2[r2][r] for r2 in range(nrhs)]
        for r in range(k)
    ]
    width = k + nrhs

    prev = _ONE
    for i in range(k):
        piv = next((j for j in range(i, k) if not mat[j][i].is_zero()), None)
        if piv is None:
            raise SingularBlock(f"no pivot in column {i} (labels {a.rows[i]!r})")
        if piv != i:
            mat[i], mat[piv] = mat[piv], mat[i]
        pivot = mat[i][i]
        for j in range(i + 1, k):
            head = mat[j][i]
            row_j = mat[j]
            row_i = mat[i]
            if head.is_zero():
                for l in range(i + 1, width):
                    if row_j[l].c:
                        row_j[l] = (row_j[l] * pivot) // prev
            else:
                for l in range(i + 1, width):
                    row_j[l] = (row_j[l] * pivot - head * row_i[l]) // prev
            row_j[i] = _ZERO
        prev = pivot

    # back substitution, one rhs column at a time, over rational functions
    xcols: list[list[RatFunc]] = []
    for r2 in range(nrhs):
        x = [RF_ZERO] * k
        for i in range(k - 1, -1, -1):
            acc = RatFunc(mat[i][k + r2])
            for l in range(i + 1, k):
                if mat[i][l].c and x[l].num.c:
                    acc = acc - RatFunc(mat[i][l]) * x[l]
            x[i] = acc / RatFunc(mat[i][i])
        xcols.append(x)

    result = PolyMatrix(b.rows, a.rows, xcols)

    # multiplication-back check
    if result.mul(a) != PolyMatrix(b.rows, a.cols, b.data):
        raise SingularBlock("internal error: solution fails to reproduce the right-hand side")
    return result
