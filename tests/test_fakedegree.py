"""Fake degrees, the graded symmetry, and the pairing matrix.

Oracles: the closed product/table forms, re-derived here from scratch and
compared with the character-sum implementation, and the Molien sum taken
element by element in Z[zeta_m][q], against which the packed rotation sum
is checked.
"""
import functools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import dense
from lsgreen import fakedegree
from lsgreen.dihedral import Chi, ChiR, ChiRPrime, Eps, all_labels, b_invariant, char_table
from lsgreen.errors import NotPolynomial, NotRational
from lsgreen.exactalg import CycloNum, IntPoly, euler_phi
from lsgreen.fakedegree import (
    _cpoly_divexact, _czero, _rotation_cofactors, check_symmetry, fake_degree,
    fake_degree_sum, omega, omega_closed, omega_sum, poincare_polynomial,
)


def closed_fake_degree(m, lab):
    if lab == Eps:
        return IntPoly({m: 1})
    if lab.kind == "chi":
        i = lab.index
        return IntPoly.one() if i == 0 else IntPoly({i: 1, m - i: 1})
    return IntPoly({m // 2: 1})


def test_poincare_frozen_m3():
    assert poincare_polynomial(3) == IntPoly({3: 1, 2: 2, 1: 2, 0: 1})


@pytest.mark.parametrize("m", (3, 4, 5, 6, 9, 12))
def test_poincare_product_formula(m):
    # degrees 2 and m: (1 + q)(1 + q + ... + q^(m-1))
    want = IntPoly({0: 1, 1: 1}) * IntPoly({i: 1 for i in range(m)})
    assert poincare_polynomial(m) == want


def test_fake_degree_frozen_m5():
    assert fake_degree(5, Chi(2)) == IntPoly({3: 1, 2: 1})


@pytest.mark.parametrize("m", range(3, 13))
def test_fake_degree_matches_closed_table(m):
    for lab in all_labels(m):
        assert fake_degree(m, lab) == closed_fake_degree(m, lab), (m, lab)


@pytest.mark.parametrize("m", (3, 4, 7, 10))
def test_molien_identity(m):
    total = IntPoly.zero()
    for ch in char_table(m):
        total = total + IntPoly({0: ch.degree}) * fake_degree(m, ch.label)
    assert total == poincare_polynomial(m)


@pytest.mark.parametrize("m", range(3, 13))
def test_b_invariant_is_fake_degree_valuation(m):
    for lab in all_labels(m):
        assert fake_degree(m, lab).order() == b_invariant(m, lab)


@pytest.mark.parametrize("m", range(3, 11))
def test_graded_symmetry(m):
    for ch in char_table(m):
        assert check_symmetry(m, ch)


def test_fake_degree_sum_accepts_value_iterables():
    m = 4
    table = {c.label: c for c in char_table(m)}
    prod = tuple(a * b for a, b in
                 zip(table[Chi(1)].values, table[Eps].values))
    direct = fake_degree_sum(m, prod)
    assert direct == fake_degree(4, Chi(1))  # tensoring chi_i by eps fixes it


def at_identity(m, value):
    """The class function with the given value at the identity (the first
    of dihedral.elements) and 0 elsewhere."""
    zero = CycloNum.rational(m, 0)
    return (value,) + (zero,) * (2 * m - 1)


@functools.lru_cache(maxsize=None)
def reference_cofactors(m):
    """For each of the m rotations rho^k, the 2m - 1 q-coefficients of
    (q^m - 1)^2 / det(q - rho^k), det(q - rho^k) = q^2 - (zeta^k +
    zeta^-k) q + 1."""
    one = CycloNum.rational(m, 1)
    sq = [_czero(m)] * (2 * m + 1)  # (q^m - 1)^2
    sq[2 * m] = sq[0] = one
    sq[m] = CycloNum.rational(m, -2)
    return tuple(
        _cpoly_divexact(m, sq, [one, -(CycloNum.root_power(m, k) + CycloNum.root_power(m, -k)), one])
        for k in range(m))


def reference_fake_degree_sum(m, vals):
    """R(f) = [(q^2 - 1) N - (q^m - 1)^2 S] / (2m (q^m - 1)), with N =
    sum_k f(rho^k) (q^m - 1)^2 / det(q - rho^k) taken element by element,
    m (2m - 1) reduced products in Z[zeta_m], S the sum of f over the
    reflections, and the division by q^m - 1 a long division."""
    cof = reference_cofactors(m)
    nrot = [_czero(m)] * (2 * m - 1)
    for k in range(m):
        fv = vals[k]
        if fv.is_zero():
            continue
        for e, c in enumerate(cof[k]):
            if not c.is_zero():
                nrot[e] = nrot[e] + fv * c
    srefl = _czero(m)
    for k in range(m):
        srefl = srefl + vals[m + k]
    u = [_czero(m)] * 2 + nrot
    for e, c in enumerate(nrot):
        u[e] = u[e] - c
    if not srefl.is_zero():
        u[0] = u[0] - srefl
        u[m] = u[m] + 2 * srefl
        u[2 * m] = u[2 * m] - srefl
    one = CycloNum.rational(m, 1)
    quot = _cpoly_divexact(m, u, [-one] + [_czero(m)] * (m - 1) + [one])
    coeffs = {}
    for e, c in enumerate(quot):
        if c.is_zero():
            continue
        r = Fraction(c.rational_part(), 2 * m)
        if r.denominator != 1:
            raise NotPolynomial(f"coefficient of q^{e} is {r}")
        coeffs[e] = int(r)
    return IntPoly(coeffs)


def outcome(fn, m, vals):
    """The polynomial, or the type of the certification failure."""
    try:
        return fn(m, vals)
    except (NotRational, NotPolynomial) as exc:
        return type(exc)


BIG = 2 ** 200
big_ints = st.integers(-BIG, BIG)


@st.composite
def class_functions(draw):
    """(m, values) for m = 3..40: an integer combination of the irreducible
    characters (an integer polynomial), the same plus a rational value at
    one element (usually not integral), or random coordinates (usually
    irrational)."""
    m = draw(st.integers(3, 40))
    phi = euler_phi(m)
    kind = draw(st.sampled_from(("characters", "rational", "coordinates")))
    zero = CycloNum.rational(m, 0)
    if kind == "coordinates":
        vals = [CycloNum(m, draw(st.lists(big_ints, min_size=phi, max_size=phi)))
                if draw(st.booleans()) else zero for _ in range(2 * m)]
        return m, tuple(vals)
    vals = [zero] * (2 * m)
    for ch in char_table(m):
        n = draw(big_ints)
        vals = [v + x * n for v, x in zip(vals, ch.values)]
    if kind == "rational":
        i = draw(st.integers(0, 2 * m - 1))
        vals[i] = vals[i] + draw(big_ints)
    return m, tuple(vals)


@given(class_functions())
def test_packed_rotation_sum_equals_the_elementwise_sum(case):
    m, vals = case
    assert outcome(fake_degree_sum, m, vals) == outcome(reference_fake_degree_sum, m, vals)


def cpoly_mul(m, a, b):
    out = [_czero(m)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


@pytest.mark.parametrize("m", range(3, 41))
def test_each_cofactor_times_its_divisor_is_the_numerator(m):
    # C_k det(q - rho^k) = (q^2 - 1)(q^m - 1) = q^(m+2) - q^m - q^2 + 1
    one = CycloNum.rational(m, 1)
    want = [_czero(m)] * (m + 3)
    want[m + 2] = want[0] = one
    want[m] = want[2] = -one
    cof = _rotation_cofactors(m)
    assert len(cof) == m // 2 + 1
    for k, ck in enumerate(cof):
        assert len(ck) == m + 1 and not ck[m].is_zero(), k
        det = [one, -(CycloNum.root_power(m, k) + CycloNum.root_power(m, -k)), one]
        assert cpoly_mul(m, ck, det) == want, k


@pytest.mark.parametrize("m", (3, 4, 7, 10, 12))
def test_a_function_that_is_not_a_class_function_equals_the_elementwise_sum(m):
    # f(rho^k) != f(rho^-k): the packed sum pairs rho^k with rho^(m-k), so
    # it must not need f to be a class function.  Both f(rho^k) = 2mk and
    # f(rho^k) = 2m zeta^k give integer polynomials, the second because a
    # Galois automorphism moves zeta^k and C_k to the same rotation.
    scaled = tuple(CycloNum.rational(m, 2 * m * k) for k in range(m)) \
        + tuple(CycloNum.rational(m, 2 * m * (k * k + 1)) for k in range(m))
    rooted = tuple(CycloNum.root_power(m, k) * (2 * m) for k in range(m)) + scaled[m:]
    for vals in (scaled, rooted):
        assert vals[1] != vals[m - 1]
        assert fake_degree_sum(m, vals) == reference_fake_degree_sum(m, vals) != IntPoly.zero()


@pytest.mark.parametrize("m", (3, 8, 12))
def test_a_coordinate_just_above_the_cached_slot_round_trips(m, monkeypatch):
    monkeypatch.setattr(fakedegree, "_PACKED_COFACTORS", {})
    triv, chi1 = char_table(m)[0], char_table(m)[1]
    assert fake_degree_sum(m, triv) == IntPoly.one()
    kb = fakedegree._PACKED_COFACTORS[m][0]
    top = 1 << (8 * kb - 1)  # the first value the cached slots cannot hold
    for v in (top - 1, top, top + 1, -top):
        vals = tuple(a * v + b for a, b in zip(triv.values, chi1.values))
        assert fake_degree_sum(m, vals) == reference_fake_degree_sum(m, vals) \
            == IntPoly({0: v}) + fake_degree(m, chi1.label), v
    assert fakedegree._PACKED_COFACTORS[m][0] > kb


@pytest.mark.parametrize("i", (0, 1, 5))
def test_fake_degree_sum_refuses_a_value_from_another_field(i):
    # positions 0, 1 and 5 are the identity, a rotation and a reflection
    vals = list(char_table(5)[1].values)
    vals[i] = CycloNum.root_power(7, 1)
    with pytest.raises(ValueError):
        fake_degree_sum(5, vals)


@pytest.mark.parametrize("i, value", [(1, "1"), (5, 1), (0, Fraction(1))])
def test_fake_degree_sum_refuses_a_value_that_is_not_cyclotomic(i, value):
    vals = list(char_table(5)[1].values)
    vals[i] = value
    with pytest.raises(TypeError):
        fake_degree_sum(5, vals)


@pytest.mark.parametrize("m", (3, 4, 5, 6, 12))
def test_fake_degree_sum_certifies_rationality(m):
    # R = P(q) * zeta_m / 2m has irrational coefficients
    with pytest.raises(NotRational):
        fake_degree_sum(m, at_identity(m, CycloNum.root_power(m, 1)))


@pytest.mark.parametrize("m", (3, 4, 5, 6, 12))
def test_fake_degree_sum_certifies_integrality(m):
    # R = P(q) / 2m: a polynomial over Q, but its constant term is 1/2m
    with pytest.raises(NotPolynomial):
        fake_degree_sum(m, at_identity(m, CycloNum.rational(m, 1)))


def test_cpoly_divexact_refuses_a_divisor_that_is_not_monic():
    m = 5
    one, two = CycloNum.rational(m, 1), CycloNum.rational(m, 2)
    with pytest.raises(ValueError, match="not monic"):
        _cpoly_divexact(m, [one, one, two], [one, two])


@pytest.mark.parametrize("m", (3, 4, 5, 6, 12))
def test_cyclonum_rejects_fraction_coordinates(m):
    coords = [Fraction(1, 2)] + [0] * (euler_phi(m) - 1)
    with pytest.raises((TypeError, ValueError)):
        CycloNum(m, coords)


@pytest.mark.parametrize("m", range(3, 9))
def test_omega_sum_equals_closed(m):
    assert omega_sum(m) == omega_closed(m)
    assert omega(m, method="both") == omega_closed(m)


def test_omega_frozen_entries():
    assert omega(3).get(Chi(0), Chi(0)).as_poly() == IntPoly({6: 1})
    assert omega(6).get(Chi(1), Chi(2)).as_poly() == \
        IntPoly({11: 1, 9: 2, 7: 1})


@pytest.mark.parametrize("m", (3, 4, 6, 9))
def test_omega_symmetric(m):
    assert dense.is_symmetric(omega(m))


def test_omega_matches_definition_entrywise():
    m = 5
    table = {c.label: c for c in char_table(m)}
    om = omega(m)
    for a in all_labels(m):
        for b in all_labels(m):
            prod = tuple(x * y * z for x, y, z in
                         zip(table[a].values, table[b].values,
                             table[Eps].values))
            want = fake_degree_sum(m, prod).shift(m)
            assert om.get(a, b).as_poly() == want, (a, b)


@pytest.mark.parametrize("m", (3, 4, 7))
def test_omega_sum_takes_the_sign_character_as_signs(m):
    eps = {c.label: c for c in char_table(m)}[Eps].values
    assert fakedegree._signs(eps) == tuple(e.rational_part() for e in eps)
    for bad in (CycloNum.rational(m, 2), CycloNum.rational(m, 0), CycloNum.root_power(m, 1)):
        with pytest.raises(ValueError, match="values 1 and -1"):
            fakedegree._signs(eps[:-1] + (bad,))


def test_omega_diagonal_corner_terms():
    # pairing either linear character with itself gives exactly q^(2m)
    for m in (3, 4, 8):
        assert omega(m).get(Chi(0), Chi(0)).as_poly() == IntPoly({2 * m: 1})
        assert omega(m).get(Eps, Eps).as_poly() == IntPoly({2 * m: 1})
        assert omega(m).get(Chi(0), Eps).as_poly() == IntPoly({m: 1})
