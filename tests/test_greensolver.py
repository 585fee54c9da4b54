"""The triangular solver for P * Lambda * P^T = Omega.

Frozen expectations below were derived independently: the m=3 system is
small enough to solve by hand from the pairing matrix, and each frozen
entry was confirmed by multiplying the factorization back.
"""
import dataclasses
import functools
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import dense
from lsgreen.dihedral import Chi, ChiR, ChiRPrime, Eps, all_labels, char_table, label_sort_key
from lsgreen.errors import SingularBlock
from lsgreen.exactalg import (
    CycloNum, IntPoly, PolyMatrix, RatFunc, matrix_solve, poly_dot, rf_dot,
)
from lsgreen.fakedegree import fake_degree, omega
from lsgreen import fakedegree, greensolver, springer as springer_module
from lsgreen.greensolver import (
    LSDatum, Node, NodeTable, closure_order, datum_from_jsonable, datum_to_jsonable, solve,
    verify_system,
)
from lsgreen.springer import SpringerSet, all_springer_sets, enumerate_candidate_data, search
from test_exactalg import small_polys


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
    with pytest.raises(ValueError, match="label '1' repeated within one class"):
        LSDatum(3, ([Eps], [Chi(1), Chi(1)], [Chi(0)]), (3, 1, 0))
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


@pytest.fixture
def fresh_node_tables():
    """Empty the per-m node tables before and after the test, so that a
    patched block solve is called at all."""
    greensolver.node_table.cache_clear()
    yield
    greensolver.node_table.cache_clear()


def test_multiply_back_catches_a_wrong_block(monkeypatch, fresh_node_tables):
    # the shared integer solve multiplies delta X back against its own A
    # and B only, and matrix_solve makes no check at all; solve's
    # multiply-back must catch a wrong block solution on either route: the
    # closed omega's, here with delta X off by delta in one entry past that
    # check, and the residual loop's, on an omega with one entry changed
    datum = LSDatum(3, ({Eps}, {Chi(1)}, {Chi(0)}), (3, 1, 0))
    real_int, calls = greensolver._int_solve, []

    def off_by_delta(av, bv, k):
        delta, rows = real_int(av, bv, k)
        calls.append(k)
        rows[0][0] += delta
        return delta, rows

    with monkeypatch.context() as mp:
        mp.setattr(greensolver, "_int_solve", off_by_delta)
        with pytest.raises(AssertionError, match="multiplication-back failed: P Lambda"):
            solve(omega(3, method="closed"), datum)
    assert calls

    real = greensolver.matrix_solve

    def off_by_one(a, b, labels=None):
        x = real(a, b, labels)
        x[0][0] = x[0][0] + RatFunc(1)
        return x

    om = omega(3, method="closed")
    W = [list(row) for row in om.data]
    W[0][0] += RatFunc(1)
    changed = PolyMatrix(om.rows, om.cols, W)
    solve(changed, datum)
    with monkeypatch.context() as mp:
        mp.setattr(greensolver, "matrix_solve", off_by_one)
        with pytest.raises(AssertionError, match="multiplication-back failed: P Lambda"):
            solve(changed, datum)

    # nor does the node table's block solve: a wrong X that is still in
    # N[q] is kept, so the node's certificate must catch it rather than let
    # search count the candidate as singular or solved
    real_zq = greensolver._solve_block
    calls = []

    def off_by_one_zq(*args):
        k, rows = real_zq(*args)
        if rows is not None:
            calls.append(1)
            rows[0][0] = rows[0][0] + IntPoly.one()
        return k, rows

    monkeypatch.setattr(greensolver, "_solve_block", off_by_one_zq)
    with pytest.raises(AssertionError, match="multiplication-back failed"):
        search(SpringerSet.from_strings(6, "0,1,2,r',eps"))
    assert calls


def _spy_points(monkeypatch, change=None, at_xi=False):
    """Patch the node table's integer elimination to record the k of each
    point 2^k it runs at, in the returned list.  With ``change``, it also
    changes the last right-hand side entry of its last row by
    ``change(delta)``, delta the last pivot, at the block solve's first
    point or at xi (k >= 8: the first point of the closed omega's blocks
    is q = 2)."""
    real_at, real = greensolver._Residual.at, greensolver._bareiss
    last, points = [None], []

    def at(record, k):
        last[0] = k
        return real_at(record, k)

    def bareiss(a, b):
        points.append(last[0])
        mat = real(a, b)
        if change is not None and (last[0] >= 8) == at_xi:
            n = len(a)
            mat[n - 1][n] += change(mat[n - 1][n - 1])
        return mat

    monkeypatch.setattr(greensolver._Residual, "at", at)
    monkeypatch.setattr(greensolver, "_bareiss", bareiss)
    return points


def test_cut_prefix_is_multiplied_back(monkeypatch, fresh_node_tables):
    # a wrong elimination at either point of the block solve, here delta X
    # off by one in an entry, which makes X a fraction (a cut) or a wrong
    # X; delta X must be multiplied back in integers before the node is
    # decided, so the wrong block raises instead of dropping candidates
    for at_xi in (False, True):
        greensolver.node_table.cache_clear()
        with monkeypatch.context() as mp:
            points = _spy_points(mp, lambda delta: 1, at_xi)
            with pytest.raises(AssertionError, match="multiplication-back failed"):
                search(SpringerSet.from_strings(6, "0,1,2,r',eps"))
        assert (points[-1] >= 8) == at_xi


def _load_workloads(monkeypatch):
    """perfbench/workloads.py, whose search-sweep check holds the goldens."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # for its dataclasses
    spec.loader.exec_module(module)
    return module


def _table_state(table):
    """What a node table holds: its nodes, its residual records and each
    record's values at every point evaluated so far."""
    return (dict(table.nodes), dict(table.residuals),
            {peeled: dict(res.vals) for peeled, res in table.residuals.items()})


def test_a_failed_certificate_leaves_the_node_table_as_it_was(monkeypatch, fresh_node_tables):
    # the third block solve that is not cut comes back with a wrong X: the
    # search raises after some nodes are stored, and the table, the values
    # cached on its residuals included, is as it was before that node's
    # build; the same search unpatched, on the same table, must still match
    # the benchmark's golden for the set
    springer = SpringerSet.from_strings(6, "0,1,2,r',eps")
    real, real_build = greensolver._solve_block, NodeTable._build
    calls, before = [], []

    def wrong_third_block(*args):
        k, rows = real(*args)
        if rows is not None:
            calls.append(1)
            if len(calls) == 3:
                rows[0][0] = rows[0][0] + IntPoly.one()
        return k, rows

    def build(table, *args):
        before[:] = [table, _table_state(table)]
        return real_build(table, *args)

    with monkeypatch.context() as mp:
        mp.setattr(greensolver, "_solve_block", wrong_third_block)
        mp.setattr(NodeTable, "_build", build)
        with pytest.raises(AssertionError, match="multiplication-back failed"):
            search(springer)
    table = greensolver.node_table(6)
    assert len(calls) == 3 and table.nodes
    assert before[0] is table and _table_state(table) == before[1]
    sweep = _load_workloads(monkeypatch).SearchSweep()
    assert sweep.check(springer, search(springer))[1] == []


@pytest.mark.parametrize("classes, a", [
    # three singletons: P(1, eps) = q^2/(q^2 - q + 1), P(eps, 0) = -1/q
    (({Chi(0)}, {Eps}, {Chi(1)}), (2, 1, 0)),
    # a two-character class over chi_1: P(0, 1) = P(eps, 1) = q^4/(q^2 + 1)
    (({Chi(1)}, {Chi(0), Eps}), (3, 0)),
], ids=("chain", "two-class"))
def test_multiply_back_rejects_a_changed_rational_p_entry(classes, a):
    om = omega(3, method="closed")
    system = solve(om, LSDatum(3, tuple(map(frozenset, classes)), a))
    labels = system.P.rows
    i, j = next((i, j) for i, row in enumerate(system.P.data) for j, x in enumerate(row)
                if not x.is_polynomial())
    bad = [list(row) for row in system.P.data]
    bad[i][j] = bad[i][j] + RatFunc(IntPoly.one(), IntPoly({1: 1, 0: 2}))
    assert not verify_system(
        dataclasses.replace(system, P=PolyMatrix(labels, labels, bad)), om)


# factors of q^m - 1 and of q^(2a), and two that divide neither
DIV_FACTORS = tuple(map(IntPoly, (
    {1: 1, 0: -1}, {1: 1, 0: 1}, {2: 1, 1: 1, 0: 1}, {2: 1, 0: 1}, {2: 1, 1: -1, 0: 1},
    {1: 1}, {1: 2, 0: 3}, {2: 1, 0: -3},
)))
products = st.lists(st.sampled_from(DIV_FACTORS), max_size=4).map(
    lambda fs: functools.reduce(lambda x, y: x * y, fs, IntPoly.one()))


@given(products, products, st.integers(min_value=-3, max_value=3),
       st.integers(min_value=1, max_value=12))
def test_gamma_divides_is_divisibility_by_q_m_minus_1(f, g, c, m):
    x = f * g * c
    assert greensolver._gamma_divides(x, m) == IntPoly({m: 1, 0: -1}).divides(x)


@given(products, st.integers(min_value=0, max_value=16), st.sampled_from((1, -1, 2)),
       products, st.integers(min_value=0, max_value=8), st.integers(min_value=-3, max_value=3),
       st.integers(min_value=1, max_value=12))
def test_y_divides_is_divisibility_of_q_m_times_q2_minus_1_times_z(f, i, c, g, j, d, m):
    delta, z = IntPoly.q(i) * f * c, IntPoly.q(j) * g * d
    cy = IntPoly.q(m) * IntPoly({2: 1, 0: -1})
    assert greensolver._y_divides(delta, m)(z) == delta.divides(cy * z)


@given(products, products, st.integers(min_value=-3, max_value=3),
       st.integers(min_value=0, max_value=8))
def test_div_by_q_power_is_the_quotient_in_lowest_terms(num, den, c, k):
    x = RatFunc(num * c, den)
    got = greensolver._div_by_q_power(x, k)
    want = x / RatFunc(IntPoly.q(k))
    assert (got.num, got.den) == (want.num, want.den)


@given(products, products, st.integers(min_value=-3, max_value=3),
       st.integers(min_value=0, max_value=8))
def test_mul_by_q_power_is_the_product_in_lowest_terms(num, den, c, k):
    x = RatFunc(num * c, den)
    got = greensolver._mul_by_q_power(x, k)
    want = x * RatFunc(IntPoly.q(k))
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


def test_solve_names_the_member_of_a_singular_later_block():
    # with chi_2's row and column of omega zeroed, the residual block of the
    # later class {chi_1, chi_2} has no pivot in chi_2's column once eps is
    # peeled; the message names that member
    om = omega(5, method="closed")
    zeroed = PolyMatrix.from_function(
        om.rows, om.cols, lambda r, c: RatFunc(0) if Chi(2) in (r, c) else om.get(r, c))
    datum = LSDatum(5, ({Eps}, {Chi(1), Chi(2)}, {Chi(0)}), (5, 1, 0))
    with pytest.raises(SingularBlock, match=r"no pivot in column 1 \(labels 2\)"):
        solve(zeroed, datum)


# ---------------------------------------------------------------------------
# the closed omega's scaled inverse N~, and solve's route through it
# ---------------------------------------------------------------------------

def _koszul_c(m):
    """c = q^m (q^2 - 1)(q^m - 1)."""
    return IntPoly.q(m) * IntPoly({2: 1, 0: -1}) * IntPoly({m: 1, 0: -1})


def test_the_closed_omega_times_ntilde_is_c_up_to_m_30():
    for m in range(3, 31):
        om, nt, c = greensolver._closed_inverse(m)
        ntilde = greensolver._koszul_matrix(m)
        assert c == _koszul_c(m) and [list(row) for row in nt.M] == ntilde
        assert greensolver._is_scaled_inverse(om, ntilde, c)


def test_the_sum_omega_times_ntilde_is_c_up_to_m_12():
    for m in range(3, 13):
        _, om = greensolver._symmetric_omega(omega(m, method="sum"), m)
        assert greensolver._is_scaled_inverse(om, greensolver._koszul_matrix(m), _koszul_c(m))


@pytest.mark.parametrize("m", range(3, 13))
def test_ntilde_holds_the_tensor_multiplicities_of_the_character_table(m):
    # N~ = q^2 I - q A_V + Pi_eps: its coefficients of q^2, q and 1 are the
    # identity, -<chi Chi(1), psi> and <chi eps, psi>, each an inner
    # product of characters of char_table(m)
    table = char_table(m)
    v, eps = (next(ch for ch in table if ch.label == l) for l in (Chi(1), Eps))

    def multiplicity(chi, other, psi):
        total = CycloNum.rational(m, 0)
        for x, y, z in zip(chi.values, other.values, psi.values):
            total = total + x * y * z.conj()
        assert total.is_rational() and total.rational_part() % (2 * m) == 0
        return total.rational_part() // (2 * m)

    ntilde = greensolver._koszul_matrix(m)
    for chi, row in zip(table, ntilde):
        for psi, x in zip(table, row):
            assert set(x.c) <= {0, 1, 2}
            assert x.coeff(2) == (chi.label == psi.label)
            assert -x.coeff(1) == multiplicity(chi, v, psi)
            assert x.coeff(0) == multiplicity(chi, eps, psi)


@pytest.mark.parametrize("m", (3, 4, 5, 6))
def test_a_changed_ntilde_entry_fails_the_certificate(m):
    om, _, c = greensolver._closed_inverse(m)
    ntilde = greensolver._koszul_matrix(m)
    for i, j in [(i, j) for i in range(len(om)) for j in range(len(om))]:
        for change in (IntPoly.one(), IntPoly({1: -1}), IntPoly({2: 1})):
            bad = [list(row) for row in ntilde]
            bad[i][j] = bad[i][j] + change
            assert not greensolver._is_scaled_inverse(om, bad, c)


@pytest.mark.parametrize("m", range(3, 13))
def test_the_closed_route_equals_the_node_table_and_the_residual_loop(m, monkeypatch):
    # every accepted datum of m, both filters: solve on the closed omega,
    # which reads each block off N~ and never runs the residual loop, the
    # search's system from its node table, and the residual loop itself
    # agree entry by entry and in nonpolynomial_y
    om = omega(m, method="closed")
    labels, W = greensolver._symmetric_omega(om, m)
    loop = greensolver._solve_residual

    def refuse(*args):
        raise AssertionError("the closed omega took the residual loop")

    monkeypatch.setattr(greensolver, "_solve_residual", refuse)
    seen = 0
    for family_filter in (True, False):
        for springer in all_springer_sets(m):
            out = search(springer, family_filter=family_filter)
            for hit in out.hits + out.nonconforming:
                system = solve(om, hit.datum)
                P, L, nonpoly = loop(labels, W, hit.datum)
                for got, table, want in ((system.P, hit.system.P, P),
                                         (system.Lambda, hit.system.Lambda, L)):
                    rows = [[(x.num, x.den) for x in row] for row in got.data]
                    assert rows == [[(x.num, x.den) for x in row] for row in table.data]
                    assert rows == [[(x.num, x.den) for x in row] for row in want]
                assert system.nonpolynomial_y == hit.system.nonpolynomial_y == tuple(nonpoly)
                seen += 1
    assert seen


@given(random_data())
def test_the_closed_route_equals_the_residual_loop_on_random_data(datum):
    # random data have rational P and non-polynomial Y entries, which no
    # accepted datum has: solve on the closed omega, kept off the residual
    # loop, and the residual loop itself agree entry by entry in P and
    # Lambda and in nonpolynomial_y, or are singular together, the closed
    # route naming a class
    om = omega(datum.m, method="closed")
    labels, W = greensolver._symmetric_omega(om, datum.m)
    loop = greensolver._solve_residual

    def refuse(*args):
        raise AssertionError("the closed omega took the residual loop")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(greensolver, "_solve_residual", refuse)
        try:
            want = loop(labels, W, datum)
        except SingularBlock:
            with pytest.raises(SingularBlock, match=r"of the class \{"):
                solve(om, datum)
            return
        system = solve(om, datum)
    for got, rows in ((system.P, want[0]), (system.Lambda, want[1])):
        assert ([[(x.num, x.den) for x in row] for row in got.data]
                == [[(x.num, x.den) for x in row] for row in rows])
    assert system.nonpolynomial_y == tuple(want[2])


def test_a_corrupted_delta_x_of_the_closed_route_raises(monkeypatch):
    # delta X changed at 2^K: through the elimination, the shared integer
    # solve's multiply-back raises before anything is read off; past it, by
    # a number too long for the slots, the digit read-off raises
    datum = LSDatum(6, ({Eps}, {ChiRPrime}, {Chi(2)}, {Chi(1), ChiR}, {Chi(0)}),
                    (6, 3, 2, 1, 0))
    om = omega(6, method="closed")
    real, real_int = greensolver._bareiss, greensolver._int_solve

    def bareiss(a, b):
        mat = real(a, b)
        mat[len(a) - 1][len(a)] += 1
        return mat

    def too_long(av, bv, k):
        delta, rows = real_int(av, bv, k)
        rows[0][0] += 1 << (k * (2 * len(av) + 1))
        return delta, rows

    with monkeypatch.context() as mp:
        mp.setattr(greensolver, "_bareiss", bareiss)
        with pytest.raises(AssertionError, match=r"the block equation does not hold at q = 2\^"):
            solve(om, datum)
    with monkeypatch.context() as mp:
        mp.setattr(greensolver, "_int_solve", too_long)
        with pytest.raises(AssertionError, match="a minor does not fit"):
            solve(om, datum)
    solve(om, datum)


# an integer symmetric W with W N = c I, c = det W = -1, in place of the
# closed omega of m = 3 (labels 0, 1, eps)
SYNTHETIC_W = ((1, 1, 1), (1, 1, 0), (1, 0, 1))
SYNTHETIC_N = ((1, -1, -1), (-1, 0, 1), (-1, 1, 0))


@pytest.mark.parametrize("classes, singular", [
    (({Chi(0), Chi(1)}, {Eps}), "0,1"),    # W_CC singular at the bottom
    (({Eps}, {Chi(0)}, {Chi(1)}), "0"),    # M_CC = 0 once eps is peeled
    (({Eps}, {Chi(1)}, {Chi(0)}), None),
    (({Eps}, {Chi(0), Chi(1)}), None),
], ids=("bottom", "later", "singletons", "pair"))
def test_the_closed_route_is_singular_where_the_residual_loop_is(classes, singular, monkeypatch):
    # by Jacobi's complementary minors N_aa is singular exactly when M_CC
    # is: on W, both routes raise SingularBlock at the same class, the one
    # named, and agree on P and Lambda where neither does
    labels = all_labels(3)
    W = PolyMatrix(labels, labels, [[RatFunc(x) for x in row] for row in SYNTHETIC_W])
    _, rows = greensolver._symmetric_omega(W, 3)
    ntilde = tuple(tuple(map(IntPoly, row)) for row in SYNTHETIC_N)
    assert greensolver._is_scaled_inverse(rows, ntilde, IntPoly(-1))
    record = greensolver._Residual((0, 1, 2), ntilde)
    monkeypatch.setattr(greensolver, "_closed_inverse", lambda m: (rows, record, IntPoly(-1)))
    loop = greensolver._solve_residual
    monkeypatch.setattr(greensolver, "_solve_residual", None)
    datum = LSDatum(3, tuple(map(frozenset, classes)), tuple(range(len(classes) - 1, -1, -1)))
    if singular:
        with pytest.raises(SingularBlock):
            loop(labels, rows, datum)
        with pytest.raises(SingularBlock, match=f"of the class {{{singular}}}"):
            solve(W, datum)
        return
    P, L, _ = loop(labels, rows, datum)
    system = solve(W, datum)
    assert [list(row) for row in system.P.data] == P
    assert [list(row) for row in system.Lambda.data] == L


def test_a_singular_omega_is_singular_on_a_cold_closed_inverse(monkeypatch):
    # the closed inverse is certified against the closed table itself, so
    # an omega() that returns something else, here the zero matrix, takes
    # the residual loop and meets a singular block, cached inverse or not
    m = 5
    labels = all_labels(m)
    zero = PolyMatrix(labels, labels, [[RatFunc(0)] * len(labels) for _ in labels])
    monkeypatch.setattr(fakedegree, "omega", functools.lru_cache(lambda m, method: zero))
    greensolver._closed_inverse.cache_clear()
    datum = LSDatum(m, (frozenset({Eps}), frozenset(labels) - {Eps}), (1, 0))
    with pytest.raises(SingularBlock):
        solve(fakedegree.omega(m, method="closed"), datum)


RATIONAL_CHANGES = (RatFunc(0), RatFunc(1), RatFunc(1, IntPoly({1: 1, 0: 2})))


def reference_solve(om, datum):
    """The P and Lambda a solve stored when it solved each block on
    Y = M / (q^m - 1), the right-hand side was Y * q^(a_C) and each
    residual entry (i, j) and its mirror (j, i) an rf_dot followed by
    RatFunc.__sub__, with its own dense state; and the (class, row,
    column) triples of the non-polynomial Y entries above the bottom
    class.  Raises SingularBlock where a Y block is singular."""
    labels = om.rows
    n = len(labels)
    M = [list(row) for row in om.data]
    P = [[RatFunc(0)] * n for _ in range(n)]
    L = [[RatFunc(0)] * n for _ in range(n)]
    gamma = RatFunc(IntPoly({datum.m: 1, 0: -1}))
    unsolved = list(range(n))
    nonpoly = []
    for ci, (cls, a_c) in enumerate(zip(datum.classes, datum.a)):
        midx = sorted(labels.index(l) for l in cls)
        y = {i: [M[i][j] / gamma for j in midx] for i in unsolved}
        nonpoly += [(ci, labels[i], labels[j]) for i in unsolved
                    for j, v in zip(midx, y[i]) if ci > 0 and not v.is_polynomial()]
        for i in midx:
            for j in midx:
                L[i][j] = greensolver._div_by_q_power(M[i][j], 2 * a_c)
            P[i][i] = RatFunc(IntPoly.q(a_c))
        unsolved = [i for i in unsolved if i not in midx]
        if not unsolved:
            continue
        qa = RatFunc(IntPoly.q(a_c))
        sol = matrix_solve([y[i] for i in midx], [[v * qa for v in y[i]] for i in unsolved])
        for i, x in zip(unsolved, sol):
            for j, v in zip(midx, x):
                P[i][j] = v
        rows = [list(row) for row in M]
        for ii, i in enumerate(unsolved):
            half = [rf_dot((P[i][s], L[s][t]) for s in midx) for t in midx]
            for j in unsolved[ii:]:
                prod = rf_dot((h, P[j][t]) for h, t in zip(half, midx))
                rows[i][j] = M[i][j] - prod
                rows[j][i] = M[j][i] - prod
        M = rows
    return P, L, nonpoly


@given(random_data(), st.data())
def test_peel_stores_what_the_reference_residual_update_stores(datum, data):
    # solve class by class from omega, or from omega with the pair (i, j),
    # (j, i) changed together, and compare with the reference solve entry
    # by entry; both raise SingularBlock or neither does
    om = omega(datum.m, method="closed")
    labels = om.rows
    if data.draw(st.booleans()):
        r, c = data.draw(st.tuples(st.sampled_from(labels), st.sampled_from(labels)))
        change = data.draw(st.sampled_from(RATIONAL_CHANGES[1:]))
        W = [list(row) for row in om.data]
        i, j = labels.index(r), labels.index(c)
        W[i][j] += change
        if j != i:
            W[j][i] += change
        om = PolyMatrix(labels, labels, W)
    try:
        want = reference_solve(om, datum)
    except SingularBlock:
        with pytest.raises(SingularBlock):
            solve(om, datum)
        return
    system = solve(om, datum)
    for got_rows, want_rows in zip((system.P.data, system.Lambda.data), want[:2]):
        for got_row, want_row in zip(got_rows, want_rows):
            assert [(x.num, x.den) for x in got_row] == [(x.num, x.den) for x in want_row]
    assert system.nonpolynomial_y == tuple(want[2])


@pytest.mark.parametrize("change", RATIONAL_CHANGES[1:], ids=("one", "rational"))
def test_solve_rejects_an_asymmetric_omega(change):
    # omega[chi1, r'] changed and omega[r', chi1] not: both solvers refuse
    # it before any block is solved
    om = omega(4, method="closed")
    labels = om.rows
    W = [list(row) for row in om.data]
    W[labels.index(Chi(1))][labels.index(ChiRPrime)] += change
    bad = PolyMatrix(labels, labels, W)
    datum = LSDatum(4, ({Eps}, {ChiRPrime}, {Chi(1), ChiR}, {Chi(0)}), (4, 2, 1, 0))
    with pytest.raises(ValueError, match="omega must be symmetric"):
        solve(bad, datum)
    with pytest.raises(ValueError, match="omega must be symmetric"):
        NodeTable(bad, 4)


def _dense_ok(P, L, om, labels, cols, R=None):
    """Whether the dense product P L P^t, plus R when given, equals omega
    in the columns cols."""
    p = PolyMatrix(labels, labels, P)
    prod = dense.mul(dense.mul(p, PolyMatrix(labels, labels, L)), dense.transpose(p))
    n = len(labels)
    R = R or [[RatFunc(0)] * n for _ in range(n)]
    return all(prod.data[r][c] + R[r][c] == om.get(labels[r], labels[c])
               for r in range(n) for c in cols)


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


def _walk(table, datum, k):
    """The datum's nodes in the table, up to its k-th class or its first
    node that is not kept: (level, the set peeled below it, the kept nodes
    below it, the node at it)."""
    peeled, nodes = frozenset(), []
    for level, (cls, a_c) in enumerate(zip(datum.classes, datum.a)):
        node = table.node(peeled, cls, a_c)
        if not isinstance(node, Node) or level == k - 1:
            return level, peeled, nodes, node
        nodes.append(node)
        peeled |= cls


def _node_pieces(table, datum, level, peeled, node):
    """What a kept node's certificate reads: the record of M_S, C's and the
    rows above C's indices in it, X and Lambda_C as lists, the stored
    M_{S+C} as lists and the block solve's point (None with no row above
    C)."""
    res = table.residuals[peeled]
    cl = [res.unsolved.index(p) for p in node.midx]
    above = [u for u in range(len(res.unsolved)) if u not in cl]
    k = greensolver._solve_block(res, cl, above, datum.a[level])[0] if above else None
    return (res, cl, above, [list(r) for r in node.rows], [list(r) for r in node.lam],
            [list(r) for r in table.residuals[peeled | datum.classes[level]].M], k)


def _record(M):
    """The symmetric matrix M as a residual record, over positions 0, 1,
    ...: the certificate reads only its values and norms."""
    return greensolver._Residual(tuple(range(len(M))), tuple(map(tuple, M)))


@given(st.one_of(random_data(), search_candidates(), st.sampled_from(MULTI_CLASS_DATA)),
       st.data())
def test_multiply_back_agrees_with_the_dense_product(datum, data):
    # walk the datum's nodes up to the last class or some class before it,
    # stopping at the first node not kept; change one entry of that kept
    # node's X, its Lambda_C or the stored M_{S+C} (with its mirror: a
    # residual is symmetric), or leave it, and compare the node's
    # certificate, at its block solve's point, with the dense product over
    # Q(q), P Lambda P^t plus the residual, in every column
    om = omega(datum.m, method="closed")
    k = data.draw(st.one_of(st.just(len(datum.classes)),
                            st.integers(min_value=1, max_value=len(datum.classes))))
    table = NodeTable(om, datum.m)
    level, peeled, nodes, node = _walk(table, datum, k)
    if not isinstance(node, Node):
        return
    a_c = datum.a[level]
    res, cl, above, rows, lam, nxt, point = _node_pieces(table, datum, level, peeled, node)
    kinds = {"X": rows, "Lambda_C": lam, "M_{S+C}": nxt}
    kinds = {kind: mat for kind, mat in kinds.items() if mat and mat[0]}
    mat = kinds[data.draw(st.sampled_from(sorted(kinds)))]
    i = data.draw(st.integers(0, len(mat) - 1))
    j = data.draw(st.integers(0, len(mat[i]) - 1))
    mat[i][j] += data.draw(st.sampled_from(INTEGRAL_CHANGES))
    if mat is nxt:
        nxt[j][i] = nxt[i][j]
    try:
        greensolver._certify_node(res, cl, above, a_c, rows, lam, _record(nxt), point)
        checked = True
    except AssertionError:
        checked = False

    # the prefix's nodes over Q(q), then this node: P rows X, q^a on C's
    # diagonal, and Lambda_C
    labels, n = table.labels, len(table.labels)
    unsolved = res.unsolved
    P = [[RatFunc(0)] * n for _ in range(n)]
    L = [[RatFunc(0)] * n for _ in range(n)]
    for below, a_b in zip(nodes, datum.a):
        for i, lrow in zip(below.midx, below.lam):
            P[i][i] = RatFunc(IntPoly.q(a_b))
            for j, x in zip(below.midx, lrow):
                L[i][j] = RatFunc(x)
        for i, xrow in zip(below.above, below.rows):
            for j, x in zip(below.midx, xrow):
                P[i][j] = RatFunc(x)
    midx = [unsolved[c] for c in cl]
    for u, c in enumerate(midx):
        P[c][c] = RatFunc(IntPoly.q(a_c))
        for v, d in enumerate(midx):
            L[c][d] = RatFunc(lam[u][v])
    for i, row in zip(above, rows):
        for c, x in zip(midx, row):
            P[unsolved[i]][c] = RatFunc(x)
    R = [[RatFunc(0)] * n for _ in range(n)]
    for i, nrow in zip(above, nxt):
        for j, x in zip(above, nrow):
            R[unsolved[i]][unsolved[j]] = RatFunc(x)
    assert checked == _dense_ok(P, L, om, labels, range(n), R)


@pytest.mark.parametrize("datum", MULTI_CLASS_DATA, ids=("m5", "b2", "m8"))
def test_node_certificate_catches_a_change_at_the_bound(datum, monkeypatch):
    # for every kept node, one coefficient of one Lambda_C entry, or of one
    # entry of the stored M_{S+C} and its mirror, changed by +-2^(K-1), K
    # the evaluation point of the true node's certificate, is caught; so is
    # the change 2^k - q, which vanishes at q = 2^k, for k = K - 1, K, K + 1
    # and every multiple of 8 up to 16 past K: xi must grow with Lambda_C
    # and M_{S+C}.  A corrupted stored M_{S+C} is caught by the table too,
    # when it builds the node again
    table = NodeTable(omega(datum.m, method="closed"), datum.m)
    points = []
    real = greensolver._value_at

    def recording(p, k):
        points.append(k)
        return real(p, k)

    peeled = frozenset()
    for level, (cls, a_c) in enumerate(zip(datum.classes, datum.a)):
        node = table.node(peeled, cls, a_c)
        assert isinstance(node, Node)
        res, cl, above, rows, lam, nxt, point = _node_pieces(table, datum, level, peeled, node)
        with monkeypatch.context() as mp:
            mp.setattr(greensolver, "_value_at", recording)
            points.clear()
            greensolver._certify_node(res, cl, above, a_c, rows, lam, _record(nxt), point)
        top = max(points)  # X and Lambda_C are evaluated at K
        assert point in (None, top)
        changes = [IntPoly({e: sign << (top - 1)}) for sign in (1, -1) for e in (0, 1, 5)]
        ks = sorted({top - 1, top, top + 1, *range(8, top + 17, 8)})
        changes += [IntPoly({0: 1 << k, 1: -1}) for k in ks]
        for change in changes:
            for ii in range(len(cl)):
                for jj in range(len(cl)):
                    bad = [list(r) for r in lam]
                    bad[ii][jj] += change
                    with pytest.raises(AssertionError, match="multiplication-back failed"):
                        greensolver._certify_node(res, cl, above, a_c, rows, bad,
                                                  _record(nxt), point)
            for ii in range(len(above)):
                for jj in range(ii, len(above)):
                    bad = [list(r) for r in nxt]
                    bad[ii][jj] = bad[jj][ii] = bad[ii][jj] + change
                    with pytest.raises(AssertionError, match="multiplication-back failed"):
                        greensolver._certify_node(res, cl, above, a_c, rows, lam,
                                                  _record(bad), point)
        if above:
            stored = table.residuals[peeled | cls]
            bad = [list(r) for r in nxt]
            bad[0][-1] = bad[-1][0] = bad[0][-1] + changes[-1]
            table.residuals[peeled | cls] = greensolver._Residual(stored.unsolved,
                                                                  tuple(map(tuple, bad)))
            del table.nodes[peeled, cls, a_c]
            with pytest.raises(AssertionError, match="multiplication-back failed"):
                table.node(peeled, cls, a_c)
            table.residuals[peeled | cls] = stored
            assert table.node(peeled, cls, a_c) is not node  # built again, and kept
        peeled |= cls


def test_a_singular_node_is_cached_and_counts_its_candidates(monkeypatch):
    # the datum of test_solve_names_the_member_of_a_singular_later_block:
    # with chi_2's row and column of omega zeroed, the node ({eps},
    # {chi_1, chi_2}, 1) is singular; the table keeps it as such and the
    # search counts every candidate under it in rejected_singular, as
    # solving each candidate on its own does
    om = omega(5, method="closed")
    zeroed = PolyMatrix.from_function(
        om.rows, om.cols, lambda r, c: RatFunc(0) if Chi(2) in (r, c) else om.get(r, c))
    table = NodeTable(zeroed, 5)
    bottom, later = frozenset({Eps}), frozenset({Chi(1), Chi(2)})
    assert isinstance(table.node(frozenset(), bottom, 5), Node)
    assert table.node(bottom, later, 1) == "singular"
    assert table.nodes[bottom, later, 1] == "singular"

    def refuse(*args):
        raise AssertionError("a cached node was solved again")

    # building the node again would reach the block solve: it does on a
    # second table, not on the first
    again = NodeTable(zeroed, 5)
    again.node(frozenset(), bottom, 5)
    springer = SpringerSet.from_strings(5, "0,1,eps")
    with monkeypatch.context() as mp:
        mp.setattr(greensolver, "_solve_block", refuse)
        with pytest.raises(AssertionError, match="a cached node was solved again"):
            again.node(bottom, later, 1)
        assert table.node(bottom, later, 1) == "singular"
    monkeypatch.setattr(springer_module, "node_table", lambda m: table)
    for family_filter in (True, False):
        out = search(springer, family_filter=family_filter)
        singular = 0
        for datum in enumerate_candidate_data(springer, family_filter=family_filter):
            try:
                solve(zeroed, datum)
            except SingularBlock:
                singular += 1
        assert singular == 1
        assert (out.rejected_singular, out.tried) == (singular, 1 if family_filter else 2)


def _verdict(M, cl, above, a_c):
    """matrix_solve's verdict on a node over the residual M, with C's
    members and the rows above C at ``cl`` and ``above``: "singular",
    "pruned" when X is not in N[q] or q^(2 a_C) does not divide M_CC, else
    the rows of X."""
    rows = []
    if above:
        try:
            x = matrix_solve([[RatFunc(M[s][c]) for c in cl] for s in cl],
                             [[RatFunc(M[i][c].shift(a_c)) for c in cl] for i in above])
        except SingularBlock:
            return "singular"
        if not all(v.is_polynomial() and min(v.num.c.values(), default=0) >= 0
                   for row in x for v in row):
            return "pruned"
        rows = [[v.as_poly() for v in row] for row in x]
    if not all(IntPoly.q(2 * a_c).divides(M[s][c]) for s in cl for c in cl):
        return "pruned"
    return rows


@pytest.mark.parametrize("m", range(3, 13))
def test_the_q2_cut_changes_no_node_and_no_residual(m, monkeypatch):
    # every search of m, both family filters, on a fresh table: each node's
    # outcome is matrix_solve's verdict on its block over Q(q), a kept
    # node's X is matrix_solve's X, and each stored residual M_S is the
    # Schur complement omega_UU - omega_US omega_SS^-1 omega_SU, U the
    # labels not in S, by matrix_solve
    om = omega(m, method="closed")
    table = NodeTable(om, m)
    monkeypatch.setattr(springer_module, "node_table", lambda m: table)
    for family_filter in (True, False):
        for springer in all_springer_sets(m):
            search(springer, family_filter=family_filter)
    for (peeled, cls, a_c), node in table.nodes.items():
        unsolved, M = table.residuals[peeled].unsolved, table.residuals[peeled].M
        cl = [unsolved.index(table.pos[l]) for l in sorted(cls, key=label_sort_key)]
        above = [u for u in range(len(unsolved)) if u not in cl]
        got = node if isinstance(node, str) else [list(row) for row in node.rows]
        assert got == _verdict(M, cl, above, a_c)
    w = [[om.get(r, c) for c in table.labels] for r in table.labels]
    for peeled, res in table.residuals.items():
        if not peeled:
            continue
        unsolved, M = res.unsolved, res.M
        s = [table.pos[l] for l in peeled]
        x = matrix_solve([[w[i][j] for j in s] for i in s], [[w[i][j] for j in s] for i in unsolved])
        for xi, i, mrow in zip(x, unsolved, M):
            for j, v in zip(unsolved, mrow):
                assert RatFunc(v) == w[i][j] - rf_dot(zip(xi, (w[t][j] for t in s)))


def _evaluations(m, monkeypatch):
    """Every search of m, both family filters, on a fresh node table, with
    each residual evaluation logged: the table; the number of _value_at
    calls made inside each computing ``_Residual.at(k)``, by (record, k);
    the _value_at calls made elsewhere, by where; and, for each
    certificate, its block solve's point (None with no row above C) and
    the points at which it read or evaluated anything."""
    table = NodeTable(omega(m, method="closed"), m)
    monkeypatch.setattr(springer_module, "node_table", lambda m: table)
    real_at, real_value = greensolver._Residual.at, greensolver._value_at
    real_solve, real_certify = greensolver._solve_block, greensolver._certify_node
    where, evaluated, elsewhere, solved, certified = [None], Counter(), Counter(), [], []

    def at(record, k):
        if where[0] == "certificate":
            certified[-1][1].add(k)
        outer, where[0] = where[0], (record, k)
        try:
            return real_at(record, k)
        finally:
            where[0] = outer

    def value_at(p, k):
        if isinstance(where[0], tuple) and where[0][1] == k:
            evaluated[where[0]] += 1
        else:
            elsewhere[where[0]] += 1
            if where[0] == "certificate":
                certified[-1][1].add(k)
        return real_value(p, k)

    def solve_block(*args):
        got = real_solve(*args)
        solved.append(got[0])
        return got

    def certify(res, cl, above, *args):
        certified.append((solved[-1] if above else None, set()))
        where[0] = "certificate"
        try:
            return real_certify(res, cl, above, *args)
        finally:
            where[0] = None

    monkeypatch.setattr(greensolver._Residual, "at", at)
    monkeypatch.setattr(greensolver, "_value_at", value_at)
    monkeypatch.setattr(greensolver, "_solve_block", solve_block)
    monkeypatch.setattr(greensolver, "_certify_node", certify)
    for family_filter in (True, False):
        for springer in all_springer_sets(m):
            search(springer, family_filter=family_filter)
    return table, evaluated, elsewhere, certified


@pytest.mark.parametrize("m", range(3, 13))
def test_each_residual_entry_is_evaluated_once_per_point(m, monkeypatch):
    # a residual entry is evaluated only when its record is first asked for
    # a point, once per entry on and above the diagonal, and never again at
    # that point; outside the records, only the certificates evaluate (X
    # and Lambda_C)
    table, evaluated, elsewhere, _ = _evaluations(m, monkeypatch)
    records = list(table.residuals.values())
    assert evaluated and elsewhere.keys() == {"certificate"}
    for (record, k), calls in evaluated.items():
        n = len(record.unsolved)
        assert any(record is r for r in records) and k in record.vals
        assert calls == n * (n + 1) // 2
    assert sum(len(r.vals) for r in records if r.unsolved) == len(evaluated)


@pytest.mark.parametrize("m", range(3, 13))
def test_every_certificate_runs_at_its_block_solves_point(m, monkeypatch):
    # a node with rows above C is certified at the point 2^K its block
    # solve read X off, every residual value and every evaluation of X and
    # Lambda_C included; a node with none, at one multiple of 8
    _, _, _, certified = _evaluations(m, monkeypatch)
    assert any(k is not None for k, _ in certified)
    for k, points in certified:
        if k is None:
            assert len(points) == 1 and min(points) % 8 == 0
        else:
            assert points == {k}


def test_a_wrong_q2_solution_raises_and_leaves_the_node_table_as_it_was(monkeypatch):
    # the elimination at either point of the block solve comes back with
    # delta X off by -10^9 delta in one entry, a negative entry of X and so
    # a cut, or a wrong X: the integer multiply-back must refuse it before
    # anything is stored, values at the points it evaluated M_S at
    # included.  Solved right, the node (the second of the dominant datum)
    # is kept
    bottom, node = frozenset({Eps}), (frozenset({Eps}), frozenset({ChiRPrime}), 3)
    for at_xi in (False, True):
        table = NodeTable(omega(6, method="closed"), 6)
        assert isinstance(table.node(frozenset(), bottom, 6), Node)
        state = _table_state(table)
        with monkeypatch.context() as mp:
            points = _spy_points(mp, lambda delta: -10 ** 9 * delta, at_xi)
            with pytest.raises(AssertionError, match="multiplication-back failed"):
                table.node(*node)
        assert (points[-1] >= 8) == at_xi
        assert _table_state(table) == state
    assert isinstance(table.node(*node), Node)


def _bottom_node(monkeypatch, column):
    """The bottom node ({}, {eps}, 0) of a node table of m = 3 over a
    symmetric omega whose eps column (chi_0, chi_1, eps) is ``column``,
    with 1 on the rest of the diagonal and 0 elsewhere, so that X = (chi_0
    and chi_1 entries) / (eps entry); with the k of every point the block
    solve tried, and matrix_solve's verdict on the node."""
    def entry(r, c):
        if Eps in (r, c):
            return RatFunc(column[labels.index(c if r == Eps else r)])
        return RatFunc(1) if r == c else RatFunc(0)

    labels = all_labels(3)
    table = NodeTable(PolyMatrix.from_function(labels, labels, entry), 3)
    points = _spy_points(monkeypatch)
    node = table.node(frozenset(), frozenset({Eps}), 0)
    M = table.residuals[frozenset()].M
    return node, points, _verdict(M, [2], [0, 1], 0)


def test_a_block_singular_at_q2_is_cut_over_z_q(monkeypatch):
    # M_CC = q - 2 with 1 beside it: singular at q = 2, so the block solve
    # moves on to q = 4, where X(4) = 1/2 cuts the node; over Q(q),
    # X = 1 / (q - 2)
    node, points, verdict = _bottom_node(monkeypatch, (1, 1, IntPoly({1: 1, 0: -2})))
    assert node == verdict == "pruned"
    assert points == [1, 2]


@pytest.mark.parametrize("column, outcome, points", [
    # X = (2/q, 1): X(2) = (1, 1) is in N, X(xi) = 2/xi is no integer
    ((2, IntPoly.q(1), IntPoly.q(1)), "pruned", [1, 8]),
    # X = (q^2 - q, 1): X(2) = (2, 1) is in N, X(xi) = xi^2 - xi has the
    # digit -1
    ((IntPoly({2: 1, 1: -1}), 1, 1), "pruned", [1, 8]),
    # eps's row and column zeroed: M_CC = 0, of degree D = 0, is singular
    # at the one point tried
    ((0, 0, 0), "singular", [1]),
], ids=("X=2-over-q", "X=q^2-q", "zeroed-row"))
def test_a_bottom_node_is_matrix_solves_verdict(column, outcome, points, monkeypatch):
    got, tried, verdict = _bottom_node(monkeypatch, column)
    assert got == verdict == outcome
    assert tried == points


nonnegative_polys = st.dictionaries(
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=1, max_value=5),
    max_size=3,
).map(IntPoly)


@st.composite
def block_equations(draw):
    """X A = B for a symmetric A of k <= 3 small polynomials, as every M_CC
    is, and B of up to 3 rows: (A, B, X) with B = X A for a drawn X in
    N[q], or (A, B, None) with B drawn freely."""
    k = draw(st.integers(min_value=1, max_value=3))
    nrhs = draw(st.integers(min_value=1, max_value=3))
    a = [[None] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            a[i][j] = a[j][i] = draw(small_polys)
    if draw(st.booleans()):
        x = [[draw(nonnegative_polys) for _ in range(k)] for _ in range(nrhs)]
        return a, [[poly_dot(zip(row, col)) for col in zip(*a)] for row in x], x
    return a, [[draw(small_polys) for _ in range(k)] for _ in range(nrhs)], None


_ONE, _Q = IntPoly.one(), IntPoly.q(1)


def _block_record(a, b):
    """The residual record of the symmetric matrix with A over C's
    positions 0, ..., k - 1, B below it and its transpose beside it, and 0
    over the rows above C: the block solve reads A and B off it."""
    k, zero = len(a), IntPoly.zero()
    M = [list(row) + [brow[s] for brow in b] for s, row in enumerate(a)]
    M += [list(brow) + [zero] * len(b) for brow in b]
    return _record(M), list(range(k)), list(range(k, k + len(b)))


@given(block_equations(), st.integers(min_value=0, max_value=2))
# A = -I: delta = -1, so delta X(xi) is negative where X(xi) is not
@example(([[-_ONE, IntPoly.zero()], [IntPoly.zero(), -_ONE]], [[-_Q - _ONE, IntPoly(-2)]],
          [[_Q + _ONE, IntPoly(2)]]), 0)
# A = (q - 2)(q - 4): singular at q = 2 and q = 4, solved at q = 8
@example(([[IntPoly({2: 1, 1: -6, 0: 8})]], [[IntPoly({3: 1, 2: -6, 1: 8})]], [[_Q]]), 0)
# A = q - 256, B = 0: R = 0 puts xi at 2^8, a root of A, so K goes on to 16
@example(([[IntPoly({1: 1, 0: -256})]], [[IntPoly.zero()]], [[IntPoly.zero()]]), 0)
# X = (q - 2)^2 / 4: R = X(2) = 0, and X(2^8) = 63 * 2^8 + 1 has digits in
# N, so only the row-sum bound cuts it
@example(([[IntPoly({1: -4, 0: -4})]], [[IntPoly({3: -1, 2: 3, 0: -4})]], None), 0)
def test_block_solve_agrees_with_matrix_solve(equation, a_c):
    # on random polynomial blocks, the node table's block solve of X A =
    # q^(a_C) B and the rational one are singular together; a kept X is
    # matrix_solve's and lies in N[q], and at a cut matrix_solve's X is not
    # in N[q]
    a, b, x = equation
    res, cl, above = _block_record(a, b)
    try:
        want = matrix_solve([[RatFunc(v) for v in row] for row in a],
                            [[RatFunc(v.shift(a_c)) for v in row] for row in b])
    except SingularBlock:
        with pytest.raises(SingularBlock):
            greensolver._solve_block(res, cl, above, a_c)
        return
    _, rows = greensolver._solve_block(res, cl, above, a_c)
    if rows is None:
        assert x is None
        assert any(not v.is_polynomial() or min(v.num.c.values(), default=0) < 0
                   for row in want for v in row)
    else:
        assert [[RatFunc(v) for v in row] for row in rows] == want
        assert all(min(v.c.values(), default=0) >= 0 for row in rows for v in row)
        if x is not None:
            assert rows == [[v.shift(a_c) for v in row] for row in x]


@pytest.mark.parametrize("q", (2, 3))
def test_omega_is_positive_definite_at_2_and_3_up_to_m_30(q):
    # Bareiss without row swaps: the i-th pivot is the i-th leading
    # principal minor of omega(q), so all positive is Sylvester's criterion.
    # Every M_CC(q) of the search is then positive definite (a principal
    # block of a Schur complement of omega(q)), and no block is singular
    # at q = 2 or over Z[q] for these m
    for m in range(3, 31):
        om = omega(m, method="closed")
        a = [[sum(v * q ** e for e, v in om.get(r, c).as_poly().c.items()) for c in om.cols]
             for r in om.rows]
        n, prev = len(a), 1
        for i in range(n):
            assert a[i][i] > 0, (m, i)
            for j in range(i + 1, n):
                for l in range(i + 1, n):
                    a[j][l] = (a[j][l] * a[i][i] - a[j][i] * a[i][l]) // prev
            prev = a[i][i]


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


# ---------------------------------------------------------------------------
# verify_system's evaluation certificate against the rational multiply-back
# ---------------------------------------------------------------------------

def reference_verify_system(system, om):
    """The multiply-back verify_system made before it evaluated at 2^K:
    each entry of P Lambda P^t is one rf_dot of a row of P Lambda and a row
    of P, in lowest terms, compared with omega's normal form."""
    P, L = system.P, system.Lambda
    lam = list(zip(*L.data))  # the columns of Lambda
    for r, row in zip(P.rows, P.data):
        pl = [rf_dot(zip(row, col)) for col in lam]
        for c, pc in zip(P.rows, P.data):
            if rf_dot(zip(pl, pc)) != om.get(r, c):
                return False
    return True


@given(random_data(), st.data())
def test_verify_system_agrees_with_the_rf_dot_multiply_back(datum, data):
    # solve over Q(q) and change one entry of P or Lambda, or leave it;
    # take omega itself or the product of the changed system, which is
    # rational wherever the change is, and maybe change one omega entry
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
    _doctor(data, kinds, P, L, RATIONAL_CHANGES)
    doctored = dataclasses.replace(system, P=PolyMatrix(labels, labels, P),
                                   Lambda=PolyMatrix(labels, labels, L))
    target = om
    if data.draw(st.booleans()):
        p = doctored.P
        target = dense.mul(dense.mul(p, doctored.Lambda), dense.transpose(p))
        assert verify_system(doctored, target)
    W = [list(row) for row in target.data]
    i, j = data.draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
    W[i][j] += data.draw(st.sampled_from(RATIONAL_CHANGES))
    target = PolyMatrix(labels, labels, W)
    assert verify_system(doctored, target) == reference_verify_system(doctored, target)


def test_verify_system_takes_an_omega_with_rational_entries(sys3):
    # an omega entry with a denominator: the product of a system whose
    # Lambda has one
    labels = sys3.P.rows
    L = [list(row) for row in sys3.Lambda.data]
    L[1][1] = L[1][1] + RatFunc(1, IntPoly({1: 1, 0: 2}))
    system = dataclasses.replace(sys3, Lambda=PolyMatrix(labels, labels, L))
    om = dense.mul(dense.mul(system.P, system.Lambda), dense.transpose(system.P))
    assert not all(x.is_polynomial() for row in om.data for x in row)
    assert verify_system(system, om)
    W = [list(row) for row in om.data]
    W[0][2] = W[0][2] + RatFunc(1, IntPoly({1: 1, 0: 3}))
    assert not verify_system(system, PolyMatrix(labels, labels, W))


def _rational_chain_system():
    # P(1, eps) = q^2/(q^2 - q + 1), P(eps, 0) = -1/q: rows with denominators
    return solve(omega(3, method="closed"), LSDatum(3, ({Chi(0)}, {Eps}, {Chi(1)}), (2, 1, 0)))


def _named_system(which, sys3, sys_b2):
    return {"m3": sys3, "b2": sys_b2, "m3-rational": _rational_chain_system()}[which]


def _below_diagonal(n):
    return [(r, c) for r in range(n) for c in range(r)]


@pytest.mark.parametrize("change", RATIONAL_CHANGES, ids=("zero", "one", "rational"))
@pytest.mark.parametrize("which", ("m3", "b2", "m3-rational"))
def test_verify_system_compares_an_omega_entry_that_differs_from_its_mirror(which, change,
                                                                           sys3, sys_b2):
    # Lambda is symmetric, so P Lambda P^t is too, and an entry below the
    # diagonal is skipped only where omega equals its mirror entry: one
    # such entry of omega changed is compared, and fails unless the change
    # is zero
    system = _named_system(which, sys3, sys_b2)
    om = omega(system.datum.m, method="closed")
    labels = om.rows
    lam = system.Lambda.data
    assert all(lam[i][j] == lam[j][i] for i in range(len(labels)) for j in range(i))
    for r, c in _below_diagonal(len(labels)):
        W = [list(row) for row in om.data]
        W[r][c] = W[r][c] + change
        assert verify_system(system, PolyMatrix(labels, labels, W)) == (change == RatFunc(0))


def _asymmetric(system):
    """The system with Lambda[0, 2] changed and Lambda[2, 0] not, and its
    dense product P Lambda P^t, which is then asymmetric too."""
    labels = system.P.rows
    L = [list(row) for row in system.Lambda.data]
    L[0][2] = L[0][2] + RatFunc(1, IntPoly({1: 1, 0: 2}))
    changed = dataclasses.replace(system, Lambda=PolyMatrix(labels, labels, L))
    product = dense.mul(dense.mul(changed.P, changed.Lambda), dense.transpose(changed.P))
    assert any(product.data[r][c] != product.data[c][r] for r, c in _below_diagonal(len(labels)))
    return changed, product


@pytest.mark.parametrize("which", ("m3", "b2", "m3-rational"))
def test_verify_system_compares_every_entry_of_an_asymmetric_lambda(which, sys3, sys_b2):
    # with Lambda asymmetric nothing is skipped: its own product passes, and
    # that product made symmetric from either triangle fails, although
    # omega then equals its mirror entry everywhere
    system = _named_system(which, sys3, sys_b2)
    changed, product = _asymmetric(system)
    labels = product.rows
    n = len(labels)
    assert verify_system(changed, product)
    for upper in (True, False):
        W = [[product.data[min(r, c)][max(r, c)] if upper else product.data[max(r, c)][min(r, c)]
              for c in range(n)] for r in range(n)]
        assert not verify_system(changed, PolyMatrix(labels, labels, W))


@pytest.mark.parametrize("which", ("m3", "b2", "m3-rational"))
def test_verify_system_rejects_an_asymmetric_omega_against_a_symmetric_product(which, sys3,
                                                                               sys_b2):
    # a symmetric Lambda's product is symmetric, so the asymmetric product
    # of a changed Lambda is no omega for it
    system = _named_system(which, sys3, sys_b2)
    _, product = _asymmetric(system)
    assert not verify_system(system, product)


@pytest.mark.parametrize("which", ("m3", "b2", "m3-rational"))
def test_verify_system_rejects_a_change_that_vanishes_at_a_power_of_two(which, sys3, sys_b2,
                                                                        monkeypatch):
    # omega[r, c] + 2^k - q is a different omega that agrees with the true
    # one at q = 2^k; every k past the evaluation point verify_system picks
    # for the true omega must still be rejected, so xi must grow with omega
    system = _named_system(which, sys3, sys_b2)
    om = omega(system.datum.m, method="closed")
    points = []
    real = greensolver._value_at

    def recording(p, k):
        points.append(k)
        return real(p, k)

    monkeypatch.setattr(greensolver, "_value_at", recording)
    assert verify_system(system, om)
    top = max(points)
    labels = om.rows
    for k in range(8, top + 17, 8):
        change = RatFunc(IntPoly({0: 1 << k, 1: -1}))
        for r in labels:
            for c in labels:
                W = PolyMatrix.from_function(
                    labels, labels, lambda a, b: om.get(a, b) + change if (a, b) == (r, c)
                    else om.get(a, b))
                assert not verify_system(system, W), (k, r, c)
