"""The triangular solver for P * Lambda * P^T = Omega.

Frozen expectations below were derived independently: the m=3 system is
small enough to solve by hand from the pairing matrix, and each frozen
entry was confirmed by multiplying the factorization back.
"""
import dataclasses
import functools

import pytest
from hypothesis import given, strategies as st

from lsgreen.dihedral import Chi, ChiR, ChiRPrime, Eps, all_labels
from lsgreen.errors import SingularBlock
from lsgreen.exactalg import IntPoly, PolyMatrix, RatFunc
from lsgreen.fakedegree import fake_degree, omega
from lsgreen import greensolver
from lsgreen.greensolver import (
    IntegralState, LSDatum, SolveState, closure_order, datum_from_jsonable,
    datum_to_jsonable, solve, verify_system,
)
from lsgreen.springer import SpringerSet, all_springer_sets, enumerate_candidate_data, search


def P(system, a, b):
    e = system.P.get(a, b)
    return None if e is None else e.as_poly()


def L(system, a, b):
    e = system.Lambda.get(a, b)
    return None if e is None else e.as_poly()


@pytest.fixture(scope="module")
def sys3():
    datum = LSDatum(3, ({Eps}, {Chi(1)}, {Chi(0)}), (3, 1, 0))
    return solve(omega(3, method="closed"), datum)


@pytest.fixture(scope="module")
def sys_b2():
    datum = LSDatum(4, ({Eps}, {ChiRPrime}, {Chi(1), ChiR}, {Chi(0)}),
                    (4, 2, 1, 0))
    return solve(omega(4, method="closed"), datum)


# ---------------------------------------------------------------------------
# datum plumbing
# ---------------------------------------------------------------------------

def test_datum_requires_full_partition():
    with pytest.raises(ValueError, match="missing"):
        LSDatum(3, ({Eps}, {Chi(0)}), (3, 0))
    with pytest.raises(ValueError, match="repeated"):
        LSDatum(3, ({Eps, Chi(1)}, {Chi(1)}, {Chi(0)}), (3, 1, 0))
    with pytest.raises(ValueError, match="decreasing"):
        LSDatum(3, ({Eps}, {Chi(1)}, {Chi(0)}), (1, 3, 0))


def test_datum_json_roundtrip():
    datum = LSDatum(4, ({Eps}, {ChiRPrime}, {ChiR}, {Chi(1)}, {Chi(0)}),
                    (4, 2, 2, 1, 0))
    assert datum_from_jsonable(datum_to_jsonable(datum)) == datum


def test_datum_lookups():
    datum = LSDatum(3, ({Eps}, {Chi(1)}, {Chi(0)}), (3, 1, 0))
    assert datum.class_of(Chi(1)) == 1
    assert datum.a_of(Eps) == 3
    assert datum.display_classes()[0] == frozenset({Chi(0)})


# ---------------------------------------------------------------------------
# solved systems: frozen values
# ---------------------------------------------------------------------------

def test_m3_frozen_entries(sys3):
    q = IntPoly.q
    assert L(sys3, Eps, Eps) == IntPoly.one()
    assert P(sys3, Eps, Eps) == q(3)
    assert P(sys3, Chi(1), Eps) == IntPoly({2: 1, 1: 1})
    assert P(sys3, Chi(0), Eps) == IntPoly.one()
    assert L(sys3, Chi(1), Chi(1)) == IntPoly({4: 1, 3: 1, 1: -1, 0: -1})
    assert L(sys3, Chi(0), Chi(0)) == IntPoly({6: 1, 4: -1, 3: -1, 1: 1})


def test_m3_multiplies_back(sys3):
    assert verify_system(sys3, omega(3, method="closed"))
    assert verify_system(sys3, omega(3, method="sum"))


def test_b2_frozen_lambda_blocks(sys_b2):
    # (q^4 - 1) on the singleton, (q^4 - 1) * [[q^2, q], [q, q^2]] on the
    # two-character class
    assert L(sys_b2, ChiRPrime, ChiRPrime) == IntPoly({4: 1, 0: -1})
    scale = IntPoly({4: 1, 0: -1})
    assert L(sys_b2, Chi(1), Chi(1)) == scale * IntPoly({2: 1})
    assert L(sys_b2, Chi(1), ChiR) == scale * IntPoly({1: 1})
    assert L(sys_b2, ChiR, Chi(1)) == scale * IntPoly({1: 1})
    assert L(sys_b2, ChiR, ChiR) == scale * IntPoly({2: 1})


def test_b2_p_entries(sys_b2):
    assert P(sys_b2, Chi(1), ChiRPrime) == IntPoly({1: 1})
    assert P(sys_b2, Chi(1), Eps) == fake_degree(4, Chi(1))
    assert P(sys_b2, ChiR, Chi(1)) is None or P(sys_b2, ChiR, Chi(1)).is_zero()


def test_g2_dominant_correspondence_entry():
    datum = LSDatum(6, ({Eps}, {ChiRPrime}, {Chi(2)}, {Chi(1), ChiR}, {Chi(0)}),
                    (6, 3, 2, 1, 0))
    system = solve(omega(6, method="closed"), datum)
    assert P(system, ChiR, Chi(2)) == IntPoly({1: 1})
    assert verify_system(system, omega(6, method="closed"))


# ---------------------------------------------------------------------------
# structural invariants
# ---------------------------------------------------------------------------

def _solved_examples():
    return (
        solve(omega(5, method="closed"),
              LSDatum(5, ({Eps}, {Chi(1), Chi(2)}, {Chi(0)}), (5, 1, 0))),
        solve(omega(4, method="closed"),
              LSDatum(4, ({Eps}, {ChiRPrime}, {ChiR}, {Chi(1)}, {Chi(0)}),
                      (4, 2, 2, 1, 0))),
        solve(omega(8, method="closed"),
              LSDatum(8, ({Eps}, {ChiRPrime}, {Chi(2), Chi(3), ChiR},
                          {Chi(1)}, {Chi(0)}), (8, 4, 2, 1, 0))),
    )


@pytest.mark.parametrize("system", _solved_examples(),
                         ids=("m5-chain", "m4-diamond", "m8"))
def test_block_structure(system):
    datum = system.datum
    co = closure_order(system)
    for a in system.P.rows:
        for b in system.P.cols:
            p = system.P.get(a, b)
            lam = system.Lambda.get(a, b)
            ca, cb = datum.class_of(a), datum.class_of(b)
            if lam is not None and not lam.is_zero():
                assert ca == cb, "Lambda must be block diagonal"
            if p is not None and not p.is_zero():
                assert co.leq(cb, ca), \
                    "P supported on column classes below the row support"
            if ca == cb:
                want = IntPoly.q(datum.a[ca]) if a == b else IntPoly.zero()
                got = IntPoly.zero() if p is None else p.as_poly()
                assert got == want, "same-class block of P is q^a * identity"


@pytest.mark.parametrize("system", _solved_examples(),
                         ids=("m5-chain", "m4-diamond", "m8"))
def test_factorization_multiplies_back(system):
    assert verify_system(system, omega(system.datum.m, method="closed"))


def test_closure_order_shapes():
    chain = solve(omega(5, method="closed"),
                  LSDatum(5, ({Eps}, {Chi(1), Chi(2)}, {Chi(0)}), (5, 1, 0)))
    co = closure_order(chain)
    assert co.is_chain()
    assert co.diagram_kind() == "chain"
    assert co.incomparable_pairs() == ()
    assert co.hasse_edges() == ((0, 1), (1, 2))

    diamond = solve(omega(4, method="closed"),
                    LSDatum(4, ({Eps}, {ChiRPrime}, {ChiR}, {Chi(1)},
                                {Chi(0)}), (4, 2, 2, 1, 0)))
    co = closure_order(diamond)
    assert not co.is_chain()
    assert co.diagram_kind() == "diamond"
    assert co.incomparable_pairs() == ((1, 2),)


def test_verify_system_detects_doctored_entry(sys3):
    bad_p = PolyMatrix.from_function(
        sys3.P.rows, sys3.P.cols,
        lambda a, b: RatFunc(IntPoly({3: 1, 1: 1}))
        if (a, b) == (Chi(1), Eps) else sys3.P.get(a, b))
    doctored = dataclasses.replace(sys3, P=bad_p)
    assert not verify_system(doctored, omega(3, method="closed"))


def test_multiply_back_catches_a_wrong_block(monkeypatch):
    # matrix_solve makes no check of its own; solve's multiply-back must
    # catch a wrong block solution
    real = greensolver.matrix_solve

    def off_by_one(a, b):
        x = real(a, b)
        data = [list(row) for row in x.data]
        data[0][0] = data[0][0] + RatFunc(1)
        return PolyMatrix(x.rows, x.cols, data)

    monkeypatch.setattr(greensolver, "matrix_solve", off_by_one)
    datum = LSDatum(3, ({Eps}, {Chi(1)}, {Chi(0)}), (3, 1, 0))
    with pytest.raises(AssertionError, match="multiplication-back failed"):
        solve(omega(3, method="closed"), datum)

    # nor does the search's Z[q] block solve: a wrong block that is still in
    # N[q] is not cut, so the class's multiply-back must catch it rather
    # than let search count the candidate as singular or solved
    real_zq = greensolver.poly_solve

    def off_by_one_zq(a, b):
        delta, rows, cut = real_zq(a, b)
        if not cut:
            rows[0][0] = rows[0][0] + IntPoly.one()
        return delta, rows, cut

    monkeypatch.setattr(greensolver, "poly_solve", off_by_one_zq)
    with pytest.raises(AssertionError, match="multiplication-back failed"):
        search(SpringerSet.from_strings(6, "0,1,2,r',eps"))


def test_cut_prefix_is_multiplied_back(monkeypatch):
    # a wrong, non-polynomial P entry makes search cut the prefix; the
    # columns of the cut class must be multiplied back first (scaled into
    # Z[q]), so the wrong block raises instead of dropping candidates
    real = greensolver.poly_solve

    def off_by_a_fraction(a, b):
        delta, rows, cut = real(a, b)
        if not cut:
            rows = [[delta * x for x in row] for row in rows]
        rows[0][0] = rows[0][0] + IntPoly.one()  # X[0][0] + 1/delta
        return delta, rows, True

    monkeypatch.setattr(greensolver, "poly_solve", off_by_a_fraction)
    with pytest.raises(AssertionError, match="multiplication-back failed"):
        search(SpringerSet.from_strings(6, "0,1,2,r',eps"))


@pytest.mark.parametrize("classes, a", [
    # three singletons: P(1, eps) = q^2/(q^2 - q + 1), P(eps, 0) = -1/q
    (({Chi(0)}, {Eps}, {Chi(1)}), (2, 1, 0)),
    # a two-character class over chi_1: P(0, 1) = P(eps, 1) = q^4/(q^2 + 1)
    (({Chi(1)}, {Chi(0), Eps}), (3, 0)),
], ids=("chain", "two-class"))
def test_multiply_back_rejects_a_changed_rational_p_entry(classes, a):
    om = omega(3, method="closed")
    state = SolveState.start(om, 3)
    for cls, a_c in zip(classes, a):
        state = state.peel(frozenset(cls), a_c)
    system = state.system()
    i, j = next((i, j) for i, row in enumerate(state.P) for j, x in enumerate(row)
                if not x.is_polynomial())
    bad = [list(row) for row in state.P]
    bad[i][j] = bad[i][j] + RatFunc(IntPoly.one(), IntPoly({1: 1, 0: 2}))
    assert not verify_system(
        dataclasses.replace(system, P=PolyMatrix(state.labels, state.labels, bad)), om)


# factors of q^m - 1 and of q^(2a), and two that divide neither
DIV_FACTORS = tuple(map(IntPoly, (
    {1: 1, 0: -1}, {1: 1, 0: 1}, {2: 1, 1: 1, 0: 1}, {2: 1, 0: 1}, {2: 1, 1: -1, 0: 1},
    {1: 1}, {1: 2, 0: 3}, {2: 1, 0: -3},
)))
products = st.lists(st.sampled_from(DIV_FACTORS), max_size=4).map(
    lambda fs: functools.reduce(lambda x, y: x * y, fs, IntPoly.one()))


@given(products, products, st.integers(min_value=-3, max_value=3).filter(bool),
       st.one_of(st.integers(min_value=1, max_value=12).map(lambda m: IntPoly({m: 1, 0: -1})),
                 st.integers(min_value=0, max_value=6).map(IntPoly.q)))
def test_div_by_poly_is_the_quotient_in_lowest_terms(num, den, c, d):
    x = RatFunc(num * c, den)
    got = greensolver._div_by_poly(x, d)
    want = x / RatFunc(d)
    assert (got.num, got.den) == (want.num, want.den)


@st.composite
def random_data(draw):
    """A random partition of the labels for some m <= 10 into classes, with
    random weakly decreasing a-values in 0..m."""
    m = draw(st.integers(min_value=3, max_value=10))
    labels = draw(st.permutations(all_labels(m)))
    cuts = sorted(draw(st.sets(st.integers(min_value=1, max_value=len(labels) - 1),
                               max_size=5)))
    bounds = [0, *cuts, len(labels)]
    classes = tuple(frozenset(labels[i:j]) for i, j in zip(bounds, bounds[1:]))
    a = draw(st.lists(st.integers(min_value=0, max_value=m),
                      min_size=len(classes), max_size=len(classes)))
    return LSDatum(m, classes, tuple(sorted(a, reverse=True)))


@given(random_data())
def test_solve_returns_a_verified_system_or_raises_singular(datum):
    om = omega(datum.m, method="closed")
    try:
        system = solve(om, datum)
    except SingularBlock:
        return
    assert verify_system(system, om)


def _dense_ok(P, L, om, labels, cols):
    """Whether the dense product P L P^t equals omega in the columns cols."""
    p = PolyMatrix(labels, labels, P)
    prod = p.mul(PolyMatrix(labels, labels, L)).mul(p.transpose())
    return all(prod.get(r, labels[c]) == om.get(r, labels[c]) for r in labels for c in cols)


@st.composite
def search_candidates(draw):
    """A candidate datum of a random Springer set for some m <= 10, family
    filter on or off: cut, when it is, after some classes are solved."""
    m = draw(st.integers(min_value=3, max_value=10))
    springer = draw(st.sampled_from(all_springer_sets(m)))
    family_filter = draw(st.booleans())
    return draw(st.sampled_from(list(
        enumerate_candidate_data(springer, family_filter=family_filter))))


# the changes the dense-product tests make: over Z[q] the state holds no
# fraction, so 1/(q + 2) becomes q + 2
INTEGRAL_CHANGES = (IntPoly.zero(), IntPoly.one(), IntPoly({1: 1, 0: 2}))
RATIONAL_CHANGES = (RatFunc(0), RatFunc(1), RatFunc(1, IntPoly({1: 1, 0: 2})))


def _doctor(data, kinds, P, L, changes):
    """Add a drawn change to one entry of P or Lambda, at a drawn spot of a
    drawn kind: ``(kind, change)``."""
    where = data.draw(st.sampled_from(sorted(kind for kind, spots in kinds.items() if spots)))
    i, j = data.draw(st.sampled_from(kinds[where]))
    change = data.draw(st.sampled_from(changes))
    (P if where == "P" else L)[i][j] += change
    return where, change


def _spots(P_spots, solved, block_of):
    """The spots of the three kinds of change: P, Lambda, and Lambda
    outside the datum's diagonal blocks."""
    return {
        "P": P_spots,
        "Lambda": [(i, j) for i in solved for j in solved],
        "Lambda off the blocks": [(i, j) for i in solved for j in solved
                                  if block_of[i] != block_of[j]],
    }


# integral data whose Lambda has a block with entries off its diagonal,
# below classes that come after it: random data and search candidates
# rarely have such a prefix
MULTI_CLASS_DATA = (
    LSDatum(5, ({Eps}, {Chi(1), Chi(2)}, {Chi(0)}), (5, 1, 0)),
    LSDatum(4, ({Eps}, {ChiRPrime}, {Chi(1), ChiR}, {Chi(0)}), (4, 2, 1, 0)),
    LSDatum(8, ({Eps}, {ChiRPrime}, {Chi(2), Chi(3), ChiR}, {Chi(1)}, {Chi(0)}),
            (8, 4, 2, 1, 0)),
)


@given(st.one_of(random_data(), search_candidates(), st.sampled_from(MULTI_CLASS_DATA)),
       st.data())
def test_multiply_back_agrees_with_the_dense_product(datum, data):
    # peel classes over Z[q] up to the last class or some class before it,
    # or to the first cut; change one entry of the prefix's P or Lambda,
    # or of the class's P rows above it (delta X), or leave it, and compare
    # check_class with the dense product over Q(q) in the class's columns
    om = omega(datum.m, method="closed")
    k = data.draw(st.one_of(st.just(len(datum.classes)),
                            st.integers(min_value=1, max_value=len(datum.classes))))
    state = IntegralState.start(om, datum.m)
    try:
        for level, (cls, a_c) in enumerate(zip(datum.classes, datum.a)):
            midx, delta, rows, cut = state.block(cls, a_c)
            if cut or level == k - 1:
                break
            state = state.peel(cls, a_c)
    except SingularBlock:
        return
    labels, n, solved = state.labels, len(state.labels), list(state.solved)
    above = [i for i in state.unsolved if i not in midx]
    kinds = _spots([(i, j) for i in range(n) for j in solved + midx
                    if j in solved or i in above],
                   solved, {t: datum.class_of(labels[t]) for t in range(n)})
    if not any(kinds.values()):  # a first class with no row above it
        return
    # the class's P rows above it sit in P's columns midx while doctoring
    P, L = [list(row) for row in state.P], [list(row) for row in state.L]
    for i, row in zip(above, rows):
        for c, x in zip(midx, row):
            P[i][c] = x
    _doctor(data, kinds, P, L, INTEGRAL_CHANGES)
    rows = [[P[i][c] for c in midx] for i in above]
    for i in above:
        for c in midx:
            P[i][c] = IntPoly.zero()
    doctored = dataclasses.replace(state, P=tuple(map(tuple, P)), L=tuple(map(tuple, L)))
    # the class over Q(q): P rows delta X / delta, q^a on the diagonal,
    # Lambda M_CC / q^(2a)
    rP = [[RatFunc(x) for x in row] for row in P]
    rL = [[RatFunc(x) for x in row] for row in L]
    for c in midx:
        rP[c][c] = RatFunc(IntPoly.q(a_c))
        for d in midx:
            rL[c][d] = RatFunc(state.M[c][d], IntPoly.q(2 * a_c))
    for i, row in zip(above, rows):
        for c, x in zip(midx, row):
            rP[i][c] = RatFunc(x, delta)
    try:
        doctored.check_class(midx, a_c, delta, rows)
        checked = True
    except AssertionError:
        checked = False
    assert checked == _dense_ok(rP, rL, om, labels, midx)


@given(random_data(), st.data())
def test_verify_system_agrees_with_the_dense_product(datum, data):
    # solve over Q(q), change one entry of P, of Lambda, or of Lambda
    # outside the datum's diagonal blocks, or leave it, and compare
    # verify_system with the dense product in every column
    om = omega(datum.m, method="closed")
    try:
        system = solve(om, datum)
    except SingularBlock:
        return
    labels = system.P.rows
    n = len(labels)
    kinds = _spots([(i, j) for i in range(n) for j in range(n)], range(n),
                   {t: datum.class_of(labels[t]) for t in range(n)})
    P, L = [list(row) for row in system.P.data], [list(row) for row in system.Lambda.data]
    where, change = _doctor(data, kinds, P, L, RATIONAL_CHANGES)
    dense_ok = _dense_ok(P, L, om, labels, range(n))
    if where != "P":  # P is invertible, so every change of Lambda shows
        assert dense_ok == (change == RatFunc(0))
    doctored = dataclasses.replace(system, P=PolyMatrix(labels, labels, P),
                                   Lambda=PolyMatrix(labels, labels, L))
    assert verify_system(doctored, om) == dense_ok
