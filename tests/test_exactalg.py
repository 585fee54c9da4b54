"""Exact arithmetic layer: sparse integer polynomials, rational functions,
cyclotomic integers, labelled matrices and the fraction-free solver.

Oracle for ring arithmetic: evaluation at several integer points compared
against plain Fraction arithmetic.  Oracle for cyclotomic products: the
IntPoly product of the coordinate polynomials reduced mod Phi_m.
"""
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lsgreen.errors import NotDivisible, SingularBlock, ZeroDenominator
from lsgreen.exactalg import (
    CycloNum, IntPoly, PolyMatrix, RatFunc, cyclotomic_polynomial, euler_phi, matrix_solve,
    poly_dot, poly_gcd, poly_solve, rf_dot,
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
    t = a.transpose()
    assert t.get("y", "x") == a.get("x", "y")
    prod = a.mul(t)
    assert prod.is_symmetric()


def test_matrix_solve_recovers_known_solution():
    one = rf({0: 1})
    a = PolyMatrix(("u", "v"), ("u", "v"),
                   [[one, rf({1: 1})], [rf(0), one]])
    x = PolyMatrix(("w",), ("u", "v"), [[rf({1: 1}), rf({2: 1})]])
    b = x.mul(a)
    assert matrix_solve(a, b) == x


def test_matrix_solve_rejects_singular():
    row = [rf({1: 1}), rf({1: 1})]
    a = PolyMatrix(("u", "v"), ("u", "v"), [row, list(row)])
    b = PolyMatrix(("w",), ("u", "v"), [[rf({0: 1}), rf({0: 1})]])
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
    assert matrix_solve(a, x.mul(a)) == x


nonnegative_polys = st.dictionaries(
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=1, max_value=5),
    max_size=3,
).map(IntPoly)


@given(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3),
       st.booleans(), st.data())
def test_poly_solve_agrees_with_matrix_solve(k, nrhs, exact, data):
    # on random polynomial blocks, the Z[q] solve and the rational one are
    # singular together; without a cut they give the same polynomials, and
    # at a cut delta X / delta is matrix_solve's X, which is then not in N[q]
    a = [[data.draw(small_polys) for _ in range(k)] for _ in range(k)]
    if exact:  # B = X A for a drawn X in N[q]
        x = [[data.draw(nonnegative_polys) for _ in range(k)] for _ in range(nrhs)]
        b = [[poly_dot(zip(row, col)) for col in zip(*a)] for row in x]
    else:
        b = [[data.draw(small_polys) for _ in range(k)] for _ in range(nrhs)]
    labels, rhs_labels = tuple(range(k)), tuple(f"r{i}" for i in range(nrhs))
    try:
        want = matrix_solve(PolyMatrix(labels, labels, a), PolyMatrix(rhs_labels, labels, b))
    except SingularBlock:
        with pytest.raises(SingularBlock):
            poly_solve(a, b)
        return
    delta, rows, cut = poly_solve(a, b)
    if cut:
        assert not exact
        got = [[RatFunc(v, delta) for v in row] for row in rows]
        assert got == [list(row) for row in want.data]
        assert any(not v.is_polynomial() or min(v.num.c.values(), default=0) < 0
                   for row in want.data for v in row)
    else:
        assert [[RatFunc(v) for v in row] for row in rows] == [list(row) for row in want.data]
        assert all(min(v.c.values(), default=0) >= 0 for row in rows for v in row)
        if exact:
            assert rows == x
