"""Exact arithmetic layer: sparse integer polynomials, rational functions,
cyclotomic integers, labelled matrices and the fraction-free solver.

Oracle for ring arithmetic: evaluation at several integer points compared
against plain Fraction arithmetic.  Oracle for cyclotomic products: the
IntPoly product of the coordinate polynomials reduced mod Phi_m.
"""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import dense
from lsgreen import exactalg
from lsgreen.errors import DivisionByZero, NotDivisible, SingularBlock, ZeroDenominator
from lsgreen.exactalg import (
    CycloNum, IntPoly, PolyMatrix, RatFunc, cyclotomic_polynomial, euler_phi, matrix_solve,
    poly_dot, poly_gcd, rf_dot,
)

EVAL_POINTS = (2, 3, -1, Fraction(1, 2))


def poly(d):
    return IntPoly(d)


small_polys = st.dictionaries(
    st.integers(min_value=0, max_value=7),
    st.integers(min_value=-9, max_value=9),
    max_size=5,
).map(IntPoly)

nonzero_polys = small_polys.filter(lambda p: not p.is_zero())


def as_fraction(p, x):
    return sum(Fraction(c) * Fraction(x) ** e for e, c in p.c.items())


# ---------------------------------------------------------------------------
# IntPoly
# ---------------------------------------------------------------------------

def test_no_zero_coefficients_stored():
    p = IntPoly({3: 1, 1: 0, 0: 2})
    assert 1 not in p.c
    assert (p - p).c == {}
    assert (p - p).is_zero()


def test_repr_examples():
    assert str(IntPoly({3: 1, 2: 2, 1: 2, 0: 1})) == "q^3 + 2*q^2 + 2*q + 1"
    assert str(IntPoly.zero()) == "0"
    assert str(IntPoly.q(4) - IntPoly.one()) == "q^4 - 1"


@given(small_polys, small_polys)
def test_add_matches_fraction_oracle(a, b):
    for x in EVAL_POINTS:
        assert as_fraction(a + b, x) == as_fraction(a, x) + as_fraction(b, x)


@given(small_polys, small_polys)
def test_mul_matches_fraction_oracle(a, b):
    for x in EVAL_POINTS:
        assert as_fraction(a * b, x) == as_fraction(a, x) * as_fraction(b, x)


@given(small_polys, small_polys, small_polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_degree_and_order():
    p = IntPoly({5: 3, 2: 1})
    assert p.degree() == 5
    assert p.order() == 2
    assert p.leading_coeff() == 3


def test_divmod_frozen_example():
    # q^5 = (q^2 - q)(q^3 + q^2 + q + 1) + q
    quot, rem = IntPoly({5: 1}).divmod(IntPoly({2: 1, 1: -1}))
    assert quot == IntPoly({3: 1, 2: 1, 1: 1, 0: 1})
    assert rem == IntPoly({1: 1})


def test_divmod_refuses_fractional_quotient():
    with pytest.raises(NotDivisible):
        IntPoly({1: 1, 0: 2}).divmod(IntPoly({1: 2}))


monic_polys = st.tuples(
    st.integers(min_value=1, max_value=6), small_polys
).map(lambda t: IntPoly.q(t[0] + max(t[1].degree(), 0)) + t[1])


@given(small_polys, monic_polys, small_polys)
def test_divmod_roundtrip_monic(c, b, r):
    r = r if r.degree() < b.degree() else IntPoly.zero()
    a = b * c + r
    quot, rem = a.divmod(b)
    assert quot == c and rem == r


@given(small_polys, nonzero_polys)
def test_divmod_of_a_multiple_is_exact(a, b):
    # any nonzero divisor, leading coefficient too: every step of the long
    # division of a * b by b meets an integer quotient coefficient
    quot, rem = (a * b).divmod(b)
    assert quot == a and rem.is_zero()


def test_exact_divides():
    a = IntPoly({4: 1, 0: -1})
    assert IntPoly({2: 1, 0: 1}).divides(a)
    assert not IntPoly({1: 1, 0: 2}).divides(a)


def test_gcd_frozen_examples():
    assert poly_gcd(IntPoly({4: 1, 0: -1}), IntPoly({6: 1, 0: -1})) == \
        IntPoly({2: 1, 0: -1})
    # content is part of the gcd
    assert poly_gcd(IntPoly({1: 2, 0: 2}), IntPoly({2: 4, 0: -4})) == \
        IntPoly({1: 2, 0: 2})


def test_gcd_frozen_examples_with_a_power_of_q():
    q = IntPoly.q
    # a monomial operand: its part prime to q is a constant
    assert poly_gcd(q(5, 3), q(7, 6) + q(2, 12)) == q(2, 3)
    assert poly_gcd(q(4), q(2) - q(1)) == q(1)
    assert poly_gcd(q(3, -2), q(3, 4)) == q(3, 2)
    assert poly_gcd(q(0, 5), q(9) + q(3)) == IntPoly.one()
    # content and q-power together: 6 q^3 (q + 1)(q - 2) and 4 q^5 (q + 1)^2
    f = IntPoly({1: 1, 0: 1})
    assert poly_gcd(q(3, 6) * f * IntPoly({1: 1, 0: -2}), q(5, 4) * f * f) == q(3, 2) * f


# polynomials q does not divide: q is a prime of Z[q], so for these
# gcd(q^i f, q^j g) = q^min(i, j) gcd(f, g)
prime_to_q = small_polys.filter(lambda p: p.coeff(0) != 0)


@given(prime_to_q, prime_to_q, st.integers(min_value=0, max_value=20),
       st.integers(min_value=0, max_value=20))
def test_gcd_splits_off_the_q_valuation(f, g, i, j):
    assert poly_gcd(IntPoly.q(i) * f, IntPoly.q(j) * g) == IntPoly.q(min(i, j)) * poly_gcd(f, g)


@given(small_polys, small_polys)
def test_gcd_divides_both(a, b):
    g = poly_gcd(a, b)
    if a.is_zero() and b.is_zero():
        assert g.is_zero()
        return
    assert g.divides(a) and g.divides(b)


def test_reverse_swaps_coefficients():
    p = IntPoly({3: 1, 1: 2})
    assert p.reverse(3) == IntPoly({2: 2, 0: 1})


@given(small_polys)
def test_reverse_involution(p):
    d = max(p.degree(), 0)
    assert p.reverse(d).reverse(d) == p


def test_shift_multiplies_by_power():
    assert IntPoly({1: 1, 0: 1}).shift(3) == IntPoly({4: 1, 3: 1})


# ---------------------------------------------------------------------------
# RatFunc
# ---------------------------------------------------------------------------

def test_ratfunc_reduces_to_lowest_terms():
    f = RatFunc(IntPoly({2: 1, 0: -1}), IntPoly({1: 1, 0: -1}))
    assert f == RatFunc(IntPoly({1: 1, 0: 1}))
    assert f.is_polynomial()
    assert f.as_poly() == IntPoly({1: 1, 0: 1})


def test_ratfunc_zero_denominator_rejected():
    with pytest.raises(ZeroDenominator):
        RatFunc(IntPoly.one(), IntPoly.zero())


def test_ratfunc_non_polynomial_detected():
    f = RatFunc(IntPoly.one(), IntPoly({1: 1}))
    assert not f.is_polynomial()


@given(small_polys, nonzero_polys, small_polys, nonzero_polys)
def test_ratfunc_arithmetic_matches_fraction_oracle(an, ad, bn, bd):
    a = RatFunc(an, ad)
    b = RatFunc(bn, bd)
    for x in (2, 3, 5):
        da, db = as_fraction(ad, x), as_fraction(bd, x)
        if da == 0 or db == 0:
            continue
        fa = as_fraction(an, x) / da
        fb = as_fraction(bn, x) / db
        s = a + b
        p = a * b
        assert as_fraction(s.num, x) / as_fraction(s.den, x) == fa + fb
        assert as_fraction(p.num, x) / as_fraction(p.den, x) == fa * fb


@given(small_polys, nonzero_polys)
def test_ratfunc_denominator_sign_normalised(n, d):
    f = RatFunc(n, d)
    assert f.den.leading_coeff() > 0


# ---------------------------------------------------------------------------
# rf_dot
# ---------------------------------------------------------------------------

Q = IntPoly({1: 1})
# denominators drawn from a small pool, so that pairs share a denominator,
# have coprime ones (q + 1, q - 1, q^2 + 1, 2q + 3, q) or ones with a common
# factor (q^2 - 1, (q + 1)^2)
SHARED_DENS = tuple(map(IntPoly, (
    {1: 1, 0: 1}, {1: 1, 0: -1}, {2: 1, 0: 1}, {1: 2, 0: 3}, {1: 1},
    {2: 1, 0: -1}, {2: 1, 1: 2, 0: 1},
)))

rf_factors = st.one_of(
    small_polys.map(RatFunc),
    st.builds(RatFunc, small_polys, st.sampled_from(SHARED_DENS)),
    st.builds(RatFunc, small_polys, nonzero_polys),
)
rf_pairs = st.lists(st.tuples(rf_factors, rf_factors), max_size=6)


def naive_dot(pairs):
    acc = RatFunc(0)
    for a, b in pairs:
        acc = acc + a * b
    return acc


def assert_normal_form(f):
    assert poly_gcd(f.num, f.den) == IntPoly.one()
    assert f.den.leading_coeff() > 0
    if f.num.is_zero():
        assert f.den == IntPoly.one()


@given(rf_pairs)
def test_rf_dot_equals_the_naive_fold(pairs):
    got = rf_dot(pairs)
    assert got == naive_dot(pairs)
    assert_normal_form(got)


@given(rf_pairs)
def test_rf_dot_of_a_sum_and_its_negation_is_zero(pairs):
    cancelling = pairs + [(-a, b) for a, b in pairs]
    got = rf_dot(cancelling)
    assert got.is_zero() and got.den == IntPoly.one()


@given(st.lists(st.tuples(small_polys, small_polys), max_size=6))
def test_rf_dot_of_polynomials_is_a_polynomial(pairs):
    got = rf_dot([(RatFunc(a), RatFunc(b)) for a, b in pairs])
    assert got.is_polynomial()
    assert got.as_poly() == sum((a * b for a, b in pairs), IntPoly.zero())


def test_rf_dot_frozen_cases():
    zero, one = RatFunc(0), RatFunc(1)
    qp1, qm1 = IntPoly({1: 1, 0: 1}), IntPoly({1: 1, 0: -1})
    assert rf_dot([]) == zero
    assert rf_dot([(zero, one), (RatFunc(Q), zero), (zero, zero)]) == zero
    # a shared denominator that cancels: (q + 1)/(q^2 - 1) = 1/(q - 1)
    shared = rf_dot([(RatFunc(Q, qm1 * qp1), one), (RatFunc(1, qm1 * qp1), one)])
    assert (shared.num, shared.den) == (IntPoly.one(), qm1)
    # coprime denominators: 1/(q + 1) + 1/(q - 1) = 2q/(q^2 - 1)
    coprime = rf_dot([(RatFunc(1, qp1), one), (one, RatFunc(1, qm1))])
    assert (coprime.num, coprime.den) == (IntPoly({1: 2}), qm1 * qp1)
    # cancelling to 0 across different denominators
    half = RatFunc(1, IntPoly(2))
    assert rf_dot([(half, RatFunc(1, qp1)), (RatFunc(-1, qp1), half)]) == zero
    # q/(1 - q) comes back as -q/(q - 1)
    neg = rf_dot([(RatFunc(1), RatFunc(Q, IntPoly({1: -1, 0: 1})))])
    assert (neg.num, neg.den) == (-Q, qm1)


# ---------------------------------------------------------------------------
# CycloNum
# ---------------------------------------------------------------------------

# m = 1..40 holds primes (2, 3, 5, ... 37), prime powers (4, 8, 9, 16, 25,
# 27, 32) and composites with two or three prime factors (6, 12, 30, ...).
cyclo_m = st.integers(min_value=1, max_value=40)


@st.composite
def cyclo_coords(draw):
    """m and two integer coordinate lists of length phi(m)."""
    m = draw(cyclo_m)
    coords = st.lists(st.integers(min_value=-50, max_value=50),
                      min_size=euler_phi(m), max_size=euler_phi(m))
    return m, draw(coords), draw(coords)


@given(cyclo_coords())
def test_cyclonum_mul_matches_reduced_polynomial_product(case):
    m, xs, ys = case
    prod = IntPoly(dict(enumerate(xs))) * IntPoly(dict(enumerate(ys)))
    _, rem = prod.divmod(cyclotomic_polynomial(m))
    want = [rem.coeff(i) for i in range(euler_phi(m))]
    assert CycloNum(m, xs) * CycloNum(m, ys) == CycloNum(m, want)


@given(cyclo_coords())
def test_cyclonum_add_sub_neg_are_coordinatewise(case):
    m, xs, ys = case
    a, b = CycloNum(m, xs), CycloNum(m, ys)
    assert a + b == CycloNum(m, [x + y for x, y in zip(xs, ys)])
    assert a - b == CycloNum(m, [x - y for x, y in zip(xs, ys)])
    assert -a == CycloNum(m, [-x for x in xs])


@given(cyclo_m, st.integers(min_value=-100, max_value=100))
def test_cyclonum_conj_of_root_is_inverse_root(m, k):
    assert CycloNum.root_power(m, k).conj() == CycloNum.root_power(m, -k)


@given(cyclo_coords())
def test_cyclonum_conj_is_multiplicative(case):
    m, xs, ys = case
    a, b = CycloNum(m, xs), CycloNum(m, ys)
    assert (a * b).conj() == a.conj() * b.conj()


# ---------------------------------------------------------------------------
# PolyMatrix and the solver
# ---------------------------------------------------------------------------

def rf(d):
    return RatFunc(IntPoly(d))


def test_matrix_mul_and_transpose():
    a = PolyMatrix(("x", "y"), ("x", "y"),
                   [[rf({1: 1}), rf({0: 1})], [rf(0), rf({2: 1})]])
    t = dense.transpose(a)
    assert t.get("y", "x") == a.get("x", "y")
    prod = dense.mul(a, t)
    assert dense.is_symmetric(prod)


def test_matrix_solve_recovers_known_solution():
    one = rf({0: 1})
    a = PolyMatrix(("u", "v"), ("u", "v"),
                   [[one, rf({1: 1})], [rf(0), one]])
    x = PolyMatrix(("w",), ("u", "v"), [[rf({1: 1}), rf({2: 1})]])
    b = dense.mul(x, a)
    assert matrix_solve(a.data, b.data) == [list(row) for row in x.data]


def test_matrix_solve_rejects_singular():
    row = [rf({1: 1}), rf({1: 1})]
    a = [row, list(row)]
    b = [[rf({0: 1}), rf({0: 1})]]
    with pytest.raises(SingularBlock):
        matrix_solve(a, b)


@given(st.lists(st.lists(small_polys, min_size=3, max_size=3),
                min_size=2, max_size=2))
def test_matrix_solve_roundtrip_triangular(xrows):
    labels = ("a", "b", "c")
    diag = rf({0: 1})
    arows = []
    for i in range(3):
        row = []
        for j in range(3):
            if j < i:
                row.append(rf(0))
            elif j == i:
                row.append(diag + rf({i + 1: 1}))
            else:
                row.append(rf({1: 1}))
        arows.append(row)
    a = PolyMatrix(labels, labels, arows)
    x = PolyMatrix(("r1", "r2"), labels,
                   [[RatFunc(p) for p in row] for row in xrows])
    assert matrix_solve(a.data, dense.mul(x, a).data) == [list(row) for row in x.data]


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=3), st.data())
def test_bareiss_on_integers_is_bareiss_on_constant_polynomials(k, nrhs, data):
    # the elimination over Z (the node table's block solve) and over Z[q]
    # (matrix_solve's) pivot the same way: singular together, and else every
    # entry, pivots included, is the same number
    ints = st.integers(min_value=-4, max_value=4)
    a = [[data.draw(ints) for _ in range(k)] for _ in range(k)]
    b = [[data.draw(ints) for _ in range(k)] for _ in range(nrhs)]
    try:
        want = exactalg._bareiss([[IntPoly(v) for v in row] for row in a],
                                 [[IntPoly(v) for v in row] for row in b])
    except SingularBlock:
        with pytest.raises(SingularBlock):
            exactalg._bareiss(a, b)
        return
    got = exactalg._bareiss(a, b)
    assert all(type(v) is int for row in got for v in row)
    assert [[IntPoly(v) for v in row] for row in got] == want


# ---------------------------------------------------------------------------
# large products, exact quotients and gcds
# ---------------------------------------------------------------------------

@st.composite
def large_polys(draw, min_terms=16, max_terms=200, bit_sizes=(1, 4, 16, 40, 80),
                orders=st.integers(min_value=0, max_value=30) | st.just(1000)):
    """Large polynomials: 16-200 terms spread over one to three exponent
    slots per term, signed coefficients of 1 to 80 bits, shifted by a
    power of q (by default up to q^30, or q^1000, an order above the
    span).  The terms come from a drawn seed, which keeps the draw fast at
    this size."""
    n = draw(st.integers(min_value=min_terms, max_value=max_terms))
    bits = draw(st.sampled_from(bit_sizes))
    slots = draw(st.integers(min_value=1, max_value=3))
    offset = draw(orders)
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    exps = rng.sample(range(slots * n), n)
    return IntPoly({offset + e: rng.choice((-1, 1)) * rng.randrange(1, 2**bits)
                    for e in exps})


def school_product(a, b):
    """a * b by :func:`poly_dot`'s own loop, not by ``IntPoly.__mul__``."""
    return poly_dot([(a, b)])


@settings(max_examples=40, deadline=None)
@given(large_polys(), large_polys(min_terms=8, max_terms=60))
def test_quotient_of_a_multiple_is_the_factor(a, b):
    p = school_product(a, b)
    assert p // b == a
    assert b.divides(p)


@settings(max_examples=40, deadline=None)
@given(large_polys(), large_polys(min_terms=8, max_terms=60),
       st.integers(min_value=1, max_value=2**80))
def test_quotient_refuses_a_remainder(a, b, r):
    # a constant remainder r, shifted to b's order so that only the
    # remainder stops the division
    p = school_product(a, b) + IntPoly.q(b.order(), r)
    with pytest.raises(NotDivisible):
        p // b
    assert not b.divides(p)


def test_quotient_of_a_fractional_multiple_is_not_accepted():
    # ((q+2) c) / (2c) = q/2 + 1 is not in Z[q]
    rng = random.Random(1)
    c = IntPoly({e: rng.randrange(-99, 100) or 1 for e in range(40)})
    num, den = IntPoly({1: 1, 0: 2}) * c, c * 2
    with pytest.raises(NotDivisible):
        num // den
    assert not den.divides(num)


@settings(max_examples=100)
@given(small_polys, st.integers(min_value=-4, max_value=4).filter(bool),
       st.integers(min_value=0, max_value=4),
       st.sampled_from(("any", "multiple", "low term", "odd term")))
def test_monomial_division_agrees_with_divmod(p, c, e, shape):
    # c q^e divides p exactly when divmod leaves no remainder: an exponent
    # below e, or a coefficient c does not divide, is a remainder
    mono = IntPoly.q(e, c)
    if shape != "any":
        p = p * mono
    if shape == "low term" and e:
        p = p + IntPoly.q(e - 1)
    if shape == "odd term" and abs(c) > 1:
        p = p + IntPoly.q(e + 5, c + 1)
    try:
        quot, rem = p.divmod(mono)
    except NotDivisible:
        quot, rem = None, None
    if rem is not None and rem.is_zero():
        assert p // mono == quot
        assert mono.divides(p)
    else:
        with pytest.raises(NotDivisible):
            p // mono
        assert not mono.divides(p)
    assert IntPoly.zero() // mono == IntPoly.zero()


def test_division_by_the_zero_polynomial_raises_division_by_zero():
    # a large dividend, a monomial and the zero dividend too
    large = IntPoly({e: e + 1 for e in range(200)})
    for p in (IntPoly({1: 1, 0: 2}), large, IntPoly.q(3, -2), IntPoly.zero()):
        with pytest.raises(DivisionByZero):
            p // IntPoly.zero()
        assert not IntPoly.zero().divides(p)


def test_sparse_high_degree_polynomials_stay_on_the_dict_loops():
    sparse = IntPoly({5000: 1, 0: 1})
    spread = IntPoly({500 * i: i + 1 for i in range(20)})
    p = spread * spread
    assert p == school_product(spread, spread)
    assert (p * sparse) // spread == spread * sparse
    assert poly_gcd(p * sparse, spread * IntPoly({5000: 1, 0: -1})) == spread


# ---------------------------------------------------------------------------
# Kronecker decoding
# ---------------------------------------------------------------------------

@st.composite
def packed_batches(draw):
    """(kb, n, lo, digit lists, values): a batch of values, each the
    balanced base-2^(8 kb) number of its n digits."""
    kb = draw(st.integers(min_value=1, max_value=10))
    n = draw(st.integers(min_value=1, max_value=20))
    lo = draw(st.integers(min_value=0, max_value=3))
    half = 1 << (8 * kb - 1)
    digit = st.one_of(st.integers(min_value=-half, max_value=half - 1),
                      st.sampled_from((-half, half - 1, 0, 1, -1)))
    batch = draw(st.lists(st.lists(digit, min_size=n, max_size=n), max_size=40))
    values = [sum(d << (8 * kb * i) for i, d in enumerate(ds)) for ds in batch]
    return kb, n, lo, batch, values


@given(packed_batches())
def test_the_batched_decode_is_the_one_value_decode_of_each(case):
    kb, n, lo, batch, values = case
    got = exactalg._kron_unpack_many(values, kb, n, lo)
    assert got == [exactalg._kron_unpack(x, kb, n, lo) for x in values]
    assert got == [{lo + i: d for i, d in enumerate(ds) if d} for ds in batch]


@given(packed_batches().filter(lambda case: case[4]), st.sampled_from(("first", "middle", "last")),
       st.booleans())
def test_one_value_one_past_its_slots_fails_the_batched_decode(case, where, above):
    # the largest value n digits hold is sum (2^(8 kb - 1) - 1) xi^i and the
    # least -sum 2^(8 kb - 1) xi^i; one past either must not carry into or
    # borrow from its neighbour's slots
    kb, n, lo, _, values = case
    half = 1 << (8 * kb - 1)
    top = sum((half - 1) << (8 * kb * i) for i in range(n))
    bottom = -sum(half << (8 * kb * i) for i in range(n))
    assert exactalg._kron_unpack(top, kb, n, lo) is not None
    assert exactalg._kron_unpack(bottom, kb, n, lo) is not None
    pos = {"first": 0, "middle": len(values) // 2, "last": len(values) - 1}[where]
    values[pos] = top + 1 if above else bottom - 1
    assert exactalg._kron_unpack(values[pos], kb, n, lo) is None
    assert exactalg._kron_unpack_many(values, kb, n, lo) is None
