"""The triangular solver for P * Lambda * P^T = Omega.

Frozen expectations below were derived independently: the m=3 system is
small enough to solve by hand from the pairing matrix, and each frozen
entry was confirmed by multiplying the factorization back.
"""
import dataclasses
import functools
import importlib.util
import math
import random
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import assume, example, given, strategies as st

import dense
from lsgreen.dihedral import Chi, ChiR, ChiRPrime, Eps, all_labels, char_table
from lsgreen.errors import SingularBlock
from lsgreen.exactalg import (
    CycloNum, IntPoly, PolyMatrix, RatFunc, matrix_solve, poly_dot, rf_dot,
)
from lsgreen.fakedegree import fake_degree, omega
from lsgreen import exactalg, fakedegree, greensolver, springer as springer_module
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

    # the node table multiplies back no system: every block it reads rests
    # on the integer multiply-back of its solve, so a wrong elimination,
    # here delta X off by delta in one entry, must raise there rather than
    # let search count the candidate as cut, singular or solved
    real_bareiss, calls = greensolver._bareiss, []

    def off_by_delta_bareiss(a, b):
        mat = real_bareiss(a, b)
        n = len(a)
        calls.append(n)
        mat[n - 1][n] += mat[n - 1][n - 1]
        return mat

    monkeypatch.setattr(greensolver, "_bareiss", off_by_delta_bareiss)
    with pytest.raises(AssertionError, match="multiplication-back failed"):
        search(SpringerSet.from_strings(6, "0,1,2,r',eps"))
    assert calls


def _spy_points(monkeypatch, change=None, at_xi=False):
    """Patch the integer elimination of the block solves on N~ to record
    the k of each point 2^k it runs at, in the returned list.  With
    ``change``, it also changes the last right-hand side entry of its last
    row by ``change(delta)``, delta the last pivot, at the node's first
    point or at xi (k >= 8: the first point of a node is q = 2)."""
    real_at, real = greensolver._Ntilde.at, greensolver._bareiss
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

    monkeypatch.setattr(greensolver._Ntilde, "at", at)
    monkeypatch.setattr(greensolver, "_bareiss", bareiss)
    return points


def test_cut_prefix_is_multiplied_back(monkeypatch, fresh_node_tables):
    # a wrong elimination at either point of a node, here delta X off by
    # one in an entry, which makes X a fraction (a cut) or a wrong X; delta
    # X must be multiplied back in integers before the node is decided, so
    # the wrong block raises instead of dropping candidates
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
    """What a node table holds: its nodes, its complements and each
    complement's entries read so far."""
    return (dict(table.nodes), dict(table.complements),
            {peeled: dict(ms.entries) for peeled, ms in table.complements.items()})


def test_a_failed_certificate_leaves_the_node_table_as_it_was(monkeypatch, fresh_node_tables):
    # the third integer solve at a point 2^K comes back from its
    # elimination with delta X off by one in an entry: its multiply-back
    # raises after some nodes are stored, no node is stored for the one
    # being built, and the table, its complements and their entries
    # included, is as it was before that build; the same search unpatched,
    # on the same table, must still match the benchmark's golden for the set
    springer = SpringerSet.from_strings(6, "0,1,2,r',eps")
    real_build, calls, before = NodeTable._build, [], []

    def third(delta):
        calls.append(delta)
        return int(len(calls) == 3)

    def build(table, *args):
        before[:] = [table, args, _table_state(table)]
        return real_build(table, *args)

    with monkeypatch.context() as mp:
        _spy_points(mp, third, at_xi=True)
        mp.setattr(NodeTable, "_build", build)
        with pytest.raises(AssertionError, match="multiplication-back failed"):
            search(springer)
    table = greensolver.node_table(6)
    assert len(calls) == 3 and table.nodes
    assert before[0] is table and before[1] not in table.nodes
    assert _table_state(table) == before[2]
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
       st.integers(min_value=1, max_value=12), st.sampled_from((8, 16, 24, 48)))
def test_y_divides_is_divisibility_of_q_m_times_q2_minus_1_times_z(f, i, c, g, j, d, m, k):
    delta, z = IntPoly.q(i) * f * c, IntPoly.q(j) * g * d
    cy = IntPoly.q(m) * IntPoly({2: 1, 0: -1})
    dv = greensolver._value_at(delta, k)
    assume(dv)
    test = greensolver._y_divides(delta, m, k, dv)
    assert test(z, greensolver._value_at(z, k)) == delta.divides(cy * z)


@given(products.filter(lambda p: p.degree() > 0), st.sampled_from((1, -1, 2)), small_polys,
       small_polys.filter(bool), st.sampled_from((8, 16, 24)))
@example(IntPoly({2: 1, 0: 1}), 1, IntPoly.zero(), IntPoly.one(), 8)
def test_an_entry_divisible_at_xi_but_not_in_z_q_falls_through_to_the_gcd(f, c, quot, s, k):
    # num = delta Q + (2^k - q) s is divisible by delta at xi = 2^k, so
    # h = |delta(xi)| and the closed route tries num // pp(delta); delta
    # does not divide num in Z[q], so unless pp(delta) does, the
    # NotDivisible falls through to the reduced fraction num / delta
    delta, xi = f * c, 1 << k
    num = delta * quot + IntPoly({1: -1, 0: xi}) * s
    dv, nv = greensolver._value_at(delta, k), greensolver._value_at(num, k)
    assume(dv and not delta.divides(num))
    assert nv % dv == 0
    (got,), want = greensolver._over_delta([(num, nv)], delta, dv, k), RatFunc(num, delta)
    assert (got.num, got.den) == (want.num, want.den)


@given(products, products, st.integers(min_value=-3, max_value=3), small_polys,
       st.integers(min_value=1, max_value=12), st.sampled_from((8, 16, 24, 48)))
def test_over_delta_is_the_quotient_in_lowest_terms(f, g, c, quot, m, k):
    # one batch, as a class boundary passes it: the entry, its negative, a
    # multiple of delta and zero, so a gcd value recurs and one is |dv|
    delta, num = f * (c or 1), g * quot * c
    dv = greensolver._value_at(delta, k)
    assume(dv)
    nums = [num, -num, delta * quot, IntPoly.zero()]
    got = greensolver._over_delta([(x, greensolver._value_at(x, k)) for x in nums], delta, dv, k)
    for x, y in zip(nums, got, strict=True):
        want = RatFunc(x, delta)
        assert (y.num, y.den) == (want.num, want.den)


@pytest.mark.parametrize("k", (8, 16, 24))
def test_a_common_factor_that_is_a_unit_at_xi_is_still_cancelled(k):
    # f = q - 2^k - 1 is -1 at xi = 2^k, so igcd(num(xi), delta(xi)) = 1
    # and the digits of the gcd see no common factor; delta's coefficients
    # are past xi / 2 - 1, below GCDHEU's bound, so the gcd is taken in Z[q]
    f = IntPoly({1: 1, 0: -(1 << k) - 1})
    a, b = IntPoly({1: 1, 0: 1}), IntPoly({1: 1, 0: 3})
    num, delta = f * a, f * b
    nv, dv = greensolver._value_at(num, k), greensolver._value_at(delta, k)
    assert math.gcd(nv, dv) == 1
    (got,) = greensolver._over_delta([(num, nv)], delta, dv, k)
    want = RatFunc(num, delta)
    assert (got.num, got.den) == (want.num, want.den) == (a, b)


def test_the_closed_route_takes_no_gcd_and_stores_entries_in_lowest_terms(monkeypatch):
    # a handful of closed-route data drawn as the benchmark's solve-rational
    # pool draws them: each entry of X and M_CC is reduced with its gcd read
    # off the boundary solve's integers, and equals RatFunc(num, delta)
    real_gcd, real_over_delta = exactalg.poly_gcd, greensolver._over_delta
    gcds, batches = [], []

    def over_delta(nums, delta, dv, k):
        out = real_over_delta(nums, delta, dv, k)
        batches.append((nums, delta, out))
        return out
    monkeypatch.setattr(exactalg, "poly_gcd", lambda a, b: gcds.append((a, b)) or real_gcd(a, b))
    monkeypatch.setattr(greensolver, "_over_delta", over_delta)
    rng, solved = random.Random(29), 0
    while solved < 5:
        m = 16 + 2 * solved
        labels = list(all_labels(m))
        rng.shuffle(labels)
        cuts = [0, *sorted(rng.sample(range(1, len(labels)), 4)), len(labels)]
        classes = tuple(frozenset(labels[i:j]) for i, j in zip(cuts, cuts[1:]))
        datum = LSDatum(m, classes, tuple(sorted((rng.randint(0, m) for _ in classes),
                                                 reverse=True)))
        _, om, nt, c = greensolver._closed_inverse(m)
        try:
            greensolver._solve_closed(all_labels(m), om, nt, c, datum)
        except SingularBlock:
            continue
        solved += 1
    monkeypatch.undo()
    assert gcds == [] and len(batches) >= 20
    assert sum(1 for _, delta, out in batches for x in out if x.den != 1) > 100
    for nums, delta, out in batches:
        for (num, _), x in zip(nums, out, strict=True):
            want = RatFunc(num, delta)
            assert (x.num, x.den) == (want.num, want.den)


@given(products, st.integers(min_value=0, max_value=16), st.sampled_from((1, -1, 2)),
       small_polys, st.integers(min_value=1, max_value=12), st.sampled_from((8, 16, 24, 48)))
def test_the_integer_pretest_never_rejects_a_y_entry_that_divides(f, i, c, w, m, k):
    # z = w delta / q^min(i, m), so delta divides q^m (q^2 - 1) z in Z[q]:
    # the rejection at xi = 2^k, made before the valuations, must pass it
    delta = IntPoly.q(i) * f * c
    z = IntPoly.q(max(i - m, 0)) * f * c * w
    dv = greensolver._value_at(delta, k)
    assume(dv)
    assert delta.divides(IntPoly.q(m) * IntPoly({2: 1, 0: -1}) * z)
    assert greensolver._y_divides(delta, m, k, dv)(z, greensolver._value_at(z, k))


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
        closed, om, nt, c = greensolver._closed_inverse(m)
        assert closed is fakedegree.omega_closed(m)
        ntilde = greensolver._koszul_matrix(m)
        assert c == _koszul_c(m) and [list(row) for row in nt.entries] == ntilde
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
    # the check evaluates at one point 2^K past its coefficient bound, so
    # a change that vanishes at some 2^t, here t = 12, still shows
    _, om, _, c = greensolver._closed_inverse(m)
    ntilde = greensolver._koszul_matrix(m)
    for i, j in [(i, j) for i in range(len(om)) for j in range(len(om))]:
        for change in (IntPoly.one(), IntPoly({1: -1}), IntPoly({2: 1}),
                       IntPoly({1: -1, 0: 1 << 12})):
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
    record = greensolver._Ntilde(ntilde)
    monkeypatch.setattr(greensolver, "_closed_inverse", lambda m: (None, rows, record, IntPoly(-1)))
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
    # omega[chi1, r'] changed and omega[r', chi1] not: solve refuses it
    # before any block is solved (the node table takes no omega)
    om = omega(4, method="closed")
    labels = om.rows
    W = [list(row) for row in om.data]
    W[labels.index(Chi(1))][labels.index(ChiRPrime)] += change
    bad = PolyMatrix(labels, labels, W)
    datum = LSDatum(4, ({Eps}, {ChiRPrime}, {Chi(1), ChiR}, {Chi(0)}), (4, 2, 1, 0))
    with pytest.raises(ValueError, match="omega must be symmetric"):
        solve(bad, datum)


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


@given(st.one_of(random_data(), search_candidates(), st.sampled_from(MULTI_CLASS_DATA)),
       st.data())
def test_multiply_back_agrees_with_the_dense_product(datum, data):
    # walk the datum's nodes on a fresh table up to the last class or some
    # class before it, stopping at the first node not kept: the kept nodes'
    # blocks (P rows X, q^(a_C) on C's diagonal and Lambda_C), plus the
    # complement M_{S+C} past the last, read off N~ as the table reads
    # every M_S, are a block LDL^t step, and the dense product over Q(q),
    # P Lambda P^t plus the complement, is omega in every column
    om = omega(datum.m, method="closed")
    k = data.draw(st.one_of(st.just(len(datum.classes)),
                            st.integers(min_value=1, max_value=len(datum.classes))))
    table = NodeTable(datum.m)
    level, peeled, nodes, node = _walk(table, datum, k)
    if not isinstance(node, Node):
        return
    labels, n = table.labels, len(table.labels)
    P = [[RatFunc(0)] * n for _ in range(n)]
    L = [[RatFunc(0)] * n for _ in range(n)]
    for kept, a_c in zip(nodes + [node], datum.a):
        for i, lrow in zip(kept.midx, kept.lam):
            P[i][i] = RatFunc(IntPoly.q(a_c))
            for j, x in zip(kept.midx, lrow):
                L[i][j] = RatFunc(x)
        for i, xrow in zip(kept.above, kept.rows):
            for j, x in zip(kept.midx, xrow):
                P[i][j] = RatFunc(x)
    R = [[RatFunc(0)] * n for _ in range(n)]
    if node.above:
        ms = greensolver._Complement.read_off(table.nt, table.c, node.above)
        for i in node.above:
            for j in node.above:
                R[i][j] = RatFunc(ms(i, j))
    assert _dense_ok(P, L, om, labels, range(n), R)


def _koszul_solves(monkeypatch):
    """Patch :func:`greensolver._koszul_solve` to log each of its calls, as
    (the positions solved over, the rows on the right, the unit rows, its
    result), in the returned list."""
    real, calls = greensolver._koszul_solve, []

    def logged(nt, idx, rhs, units):
        got = real(nt, idx, rhs, units)
        calls.append((list(idx), list(rhs), list(units), got))
        return got

    monkeypatch.setattr(greensolver, "_koszul_solve", logged)
    return calls


@pytest.mark.parametrize("datum", MULTI_CLASS_DATA, ids=("m5", "b2", "m8"))
def test_node_certificate_catches_a_change_at_the_bound(datum, monkeypatch):
    # each node's blocks are read off the balanced base-xi digits of one
    # integer solve at xi = 2^K, which certify them only if 2^(K-1) bounds
    # every coefficient of delta and of delta Z: a polynomial changed by
    # one that vanishes at xi, such as 2^K - q, has the same value and
    # other digits.  For every solve of the datum's nodes on a fresh table,
    # X's and every complement's, the digits are delta times
    # matrix_solve's Z with Z A = B over Q(q), and every coefficient is
    # below 2^(K-1)
    table = NodeTable(datum.m)
    calls = _koszul_solves(monkeypatch)
    peeled = frozenset()
    for cls, a_c in zip(datum.classes, datum.a):
        assert isinstance(table.node(peeled, cls, a_c), Node)
        peeled |= cls
    assert len(calls) >= len(datum.classes)
    ntilde = table.nt.entries
    for idx, rhs, units, (k, delta, dv, rows) in calls:
        a = [[RatFunc(ntilde[s][t]) for t in idx] for s in idx]
        b = ([[RatFunc(ntilde[j][t]) for t in idx] for j in rhs]
             + [[RatFunc(int(t == j)) for t in idx] for j in units])
        z = matrix_solve(a, b)
        assert greensolver._value_at(delta, k) == dv
        assert [[RatFunc(v) for v, _ in row] for row in rows] == [
            [x * RatFunc(delta) for x in row] for row in z]
        for p in [delta] + [v for row in rows for v, _ in row]:
            assert all(abs(c) < 1 << (k - 1) for c in p.c.values())


def test_a_singular_node_is_cached_and_counts_its_candidates(monkeypatch):
    # no block of the closed omega is singular (omega(2) is positive
    # definite), so the node ({eps}, {chi_1, chi_2}, 1) of m = 5, the
    # second of its only hit, is made singular by integer solves that raise
    # SingularBlock, at every point q = 2^k or at xi: the table keeps it as
    # such, never builds it again, and the search counts every candidate
    # under it in rejected_singular
    bottom, later = frozenset({Eps}), frozenset({Chi(1), Chi(2)})
    springer = SpringerSet.from_strings(5, "0,1,eps")

    def singular(*args):
        raise SingularBlock("made singular")

    def refuse(*args):
        raise AssertionError("a cached node was solved again")

    for name in ("_int_solve", "_koszul_solve"):
        table = NodeTable(5)
        assert isinstance(table.node(frozenset(), bottom, 5), Node)
        with monkeypatch.context() as mp:
            mp.setattr(greensolver, name, singular)
            assert table.node(bottom, later, 1) == "singular"
        assert table.nodes[bottom, later, 1] == "singular"
        with monkeypatch.context() as mp:
            mp.setattr(greensolver, "_int_solve", refuse)
            mp.setattr(greensolver, "_koszul_solve", refuse)
            assert table.node(bottom, later, 1) == "singular"
        with monkeypatch.context() as mp:
            mp.setattr(springer_module, "node_table", lambda m: table)
            for family_filter in (True, False):
                out = search(springer, family_filter=family_filter)
                assert (out.rejected_singular, out.tried) == (1, 1 if family_filter else 2)
                assert not out.hits


def _searched_table(m, monkeypatch):
    """A fresh node table of m after every search of m, both family
    filters."""
    table = NodeTable(m)
    with monkeypatch.context() as mp:
        mp.setattr(springer_module, "node_table", lambda m: table)
        for family_filter in (True, False):
            for springer in all_springer_sets(m):
                search(springer, family_filter=family_filter)
    return table


@pytest.mark.parametrize("m", range(3, 13))
def test_the_q2_cut_changes_no_node_and_no_residual(m, monkeypatch):
    # every search of m, both family filters, on a fresh table: each node's
    # outcome is the residual route's over Q(q) (dense.node_verdict, on the
    # Schur complement omega_UU - omega_US omega_SS^-1 omega_SU by
    # matrix_solve), a kept node's X, Lambda_C and non-polynomial Y pairs
    # are that route's, and each entry of M_S the table read is the Schur
    # complement's
    om = omega(m, method="closed")
    table = _searched_table(m, monkeypatch)
    labels, complements = table.labels, {}
    for (peeled, cls, a_c), node in table.nodes.items():
        if peeled not in complements:
            complements[peeled] = dense.complement(om, peeled)
        want = dense.node_verdict(om, m, peeled, cls, a_c, complements[peeled])
        got = node if isinstance(node, str) else (
            [list(row) for row in node.rows], [list(row) for row in node.lam], list(node.nonpoly))
        assert got == want, (peeled, cls, a_c)
    assert any(isinstance(node, Node) for node in table.nodes.values())
    for peeled, ms in table.complements.items():
        for (i, j), x in ms.entries.items():
            assert RatFunc(x) == complements[peeled][labels[i], labels[j]]


@pytest.fixture
def fresh_closed_inverse():
    """Empty the per-m cache of N~ before and after the test, so that its
    values at each point are evaluated in it."""
    greensolver._closed_inverse.cache_clear()
    yield
    greensolver._closed_inverse.cache_clear()


@pytest.mark.parametrize("m", range(3, 13))
def test_each_residual_entry_is_evaluated_once_per_point(m, monkeypatch, fresh_closed_inverse):
    # every search of m, both family filters, on a fresh table and a fresh
    # N~: N~ is evaluated once per point asked for, once per entry on and
    # above the diagonal, and nothing else is; each entry of M_S the table
    # reads is omega's for the empty S, and otherwise one exact division,
    # made once per S and entry on and above the diagonal, its mirror
    # entry the same object
    real_value, real_quotient = greensolver._value_at, greensolver._quotient
    values, divisors = Counter(), []

    def value_at(p, k):
        values[k] += 1
        return real_value(p, k)

    def quotient(x, g):
        divisors.append(g)
        return real_quotient(x, g)

    greensolver._closed_inverse(m)  # its check of omega N~ = c I evaluates too
    monkeypatch.setattr(greensolver, "_value_at", value_at)
    monkeypatch.setattr(greensolver, "_quotient", quotient)
    table = _searched_table(m, monkeypatch)
    n = len(table.labels)
    assert values and values.keys() == table.nt.vals.keys()
    assert all(calls == n * (n + 1) // 2 for calls in values.values())
    assert len(table.complements) > 1
    for peeled, ms in table.complements.items():
        assert ms.entries and all(i <= j for i, j in ms.entries)
        assert sum(g is ms.delta for g in divisors) == (len(ms.entries) if peeled else 0)
        assert ms(*max(ms.entries)[::-1]) is ms.entries[max(ms.entries)]


@pytest.mark.parametrize("m", range(3, 13))
def test_every_certificate_runs_at_its_block_solves_point(m, monkeypatch):
    # every search of m, both family filters, on a fresh table: a node
    # with rows above C runs its cut at q = 2, as N~_aa(2) is never
    # singular, and, past it, one solve at a point 2^K, K a multiple of 8;
    # a complement other than omega's runs one solve at a multiple of 8,
    # once per S; each multiplies back at the point it eliminated at
    real_build, real_int = NodeTable._build, greensolver._int_solve
    points, made = {}, {}

    def build(table, *key):
        points[key], before = [], len(table.complements)
        try:
            return real_build(table, *key)
        finally:
            made[key] = len(table.complements) - before

    def int_solve(av, bv, k):
        next(reversed(points.values())).append(k)
        return real_int(av, bv, k)

    monkeypatch.setattr(NodeTable, "_build", build)
    monkeypatch.setattr(greensolver, "_int_solve", int_solve)
    table = _searched_table(m, monkeypatch)
    for key, node in table.nodes.items():
        peeled, cls, _ = key
        ks = points[key]
        above = len(peeled | cls) < len(table.labels)
        if above:
            assert ks[0] == 1, key
            ks = ks[1:]
        assert all(k % 8 == 0 for k in ks), key
        own = len(ks) - made[key]  # the solve for X at xi, unless cut at q = 2
        assert own in ((0, 1) if above else (0,)), key
        assert own == 1 or not (above and isinstance(node, Node)), key
    assert sum(made.values()) == len(table.complements) - 1  # all but omega's
    assert any(isinstance(node, Node) for node in table.nodes.values())


def test_a_wrong_q2_solution_raises_and_leaves_the_node_table_as_it_was(monkeypatch):
    # the elimination at either point of a node comes back with delta X off
    # by -10^9 delta in one entry, a negative entry of X and so a cut, or a
    # wrong X: the integer multiply-back must refuse it before anything is
    # stored.  Solved right, the node (the second of the dominant datum) is
    # kept
    bottom, node = frozenset({Eps}), (frozenset({Eps}), frozenset({ChiRPrime}), 3)
    for at_xi in (False, True):
        table = NodeTable(6)
        assert isinstance(table.node(frozenset(), bottom, 6), Node)
        state = _table_state(table)
        with monkeypatch.context() as mp:
            points = _spy_points(mp, lambda delta: -10 ** 9 * delta, at_xi)
            with pytest.raises(AssertionError, match="multiplication-back failed"):
                table.node(*node)
        assert (points[-1] >= 8) == at_xi
        assert _table_state(table) == state
    assert isinstance(table.node(*node), Node)


def _block_ntilde(aa, ac):
    """The record of a symmetric N~ over C, positions 0, ..., k - 1, and a,
    the positions after it: 0 over C x C, the rows ``ac`` over a x C and
    their transpose beside them, and ``aa`` over a x a.  The node's X
    reads only its blocks over a."""
    k, zero = len(ac[0]), IntPoly.zero()
    rows = [[zero] * k + [acrow[j] for acrow in ac] for j in range(k)]
    rows += [list(acrow) + list(aarow) for acrow, aarow in zip(ac, aa)]
    return greensolver._Ntilde(tuple(map(tuple, rows)))


def _node_outcome(nt, k, a_c):
    """:func:`greensolver._node_x`'s outcome on the record ``nt`` with C
    its first k positions: "singular", "pruned" or the rows of X."""
    try:
        rows = greensolver._node_x(nt, list(range(k)), list(range(k, len(nt.entries))), a_c)
    except SingularBlock:
        return "singular"
    return "pruned" if rows is None else rows


def _verdict(aa, ac, a_c):
    """matrix_solve's verdict on X = -q^(a_C) N~_aa^-1 N~_aC over Q(q):
    "singular", "pruned" when X is not in N[q], else the rows of X."""
    try:
        z = matrix_solve([[RatFunc(v) for v in row] for row in aa],
                         [[RatFunc(acrow[j]) for acrow in ac] for j in range(len(ac[0]))])
    except SingularBlock:
        return "singular"
    x = [[-zrow[i] * RatFunc(IntPoly.q(a_c)) for zrow in z] for i in range(len(aa))]
    if not all(v.is_polynomial() and min(v.num.c.values(), default=0) >= 0
               for row in x for v in row):
        return "pruned"
    return [[v.as_poly() for v in row] for row in x]


_ONE, _Q, _Z = IntPoly.one(), IntPoly.q(1), IntPoly.zero()


def _bottom_node(monkeypatch, d0, e0):
    """The node X = -N~_aa^-1 N~_aC = (e0 / d0, 1) over one C position
    and two above it, with N~_aa = diag(d0, 1): its outcome, with the k of
    every point its integer solves tried, and matrix_solve's verdict."""
    aa, ac = [[d0, _Z], [_Z, _ONE]], [[-e0], [-_ONE]]
    points = _spy_points(monkeypatch)
    return _node_outcome(_block_ntilde(aa, ac), 1, 0), points, _verdict(aa, ac, 0)


def test_a_block_singular_at_q2_is_cut_over_z_q(monkeypatch):
    # N~_aa has q - 2 beside 1: singular at q = 2, so the node moves on to
    # q = 4, where X(4) = 1/2 cuts it; over Q(q), X = 1 / (q - 2)
    node, points, verdict = _bottom_node(monkeypatch, IntPoly({1: 1, 0: -2}), _ONE)
    assert node == verdict == "pruned"
    assert points == [1, 2]


@pytest.mark.parametrize("d0, e0, outcome, points", [
    # X = (2/q, 1): X(2) = (1, 1) is in N, and q does not divide 2 in Z[q]
    (_Q, IntPoly(2), "pruned", [1, 8]),
    # X = (q^2 - q, 1): X(2) = (2, 1) is in N, and X has the coefficient -1
    (_ONE, IntPoly({2: 1, 1: -1}), "pruned", [1, 8]),
    # N~_aa = diag(0, 1), of degree at most 4, is singular at every one of
    # the 5 points tried
    (_Z, _Z, "singular", [1, 2, 3, 4, 5]),
], ids=("X=2-over-q", "X=q^2-q", "zeroed-row"))
def test_a_bottom_node_is_matrix_solves_verdict(d0, e0, outcome, points, monkeypatch):
    got, tried, verdict = _bottom_node(monkeypatch, d0, e0)
    assert got == verdict == outcome
    assert tried == points


quadratics = st.dictionaries(
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=-3, max_value=3),
    max_size=3,
).map(IntPoly)


@st.composite
def block_equations(draw):
    """The blocks of a node's N~ with entries of degree at most 2, as every
    entry of N~ has: a symmetric N~_aa of r <= 3 rows and N~_aC of k <= 2
    columns, as (aa, ac, X), with N~_aC = -N~_aa X for a drawn X of
    naturals, or X None and N~_aC drawn freely."""
    r = draw(st.integers(min_value=1, max_value=3))
    k = draw(st.integers(min_value=1, max_value=2))
    aa = [[None] * r for _ in range(r)]
    for i in range(r):
        for j in range(i, r):
            aa[i][j] = aa[j][i] = draw(quadratics)
    if draw(st.booleans()):
        x = [[draw(st.integers(min_value=0, max_value=3)) for _ in range(k)] for _ in range(r)]
        ac = [[-poly_dot((aa[i][s], IntPoly(x[s][j])) for s in range(r)) for j in range(k)]
              for i in range(r)]
        return aa, ac, x
    return aa, [[draw(quadratics) for _ in range(k)] for _ in range(r)], None


@given(block_equations(), st.integers(min_value=0, max_value=2))
# N~_aa = -I: delta = -1, so delta X(xi) is negative where X(xi) is not
@example(([[-_ONE, _Z], [_Z, -_ONE]], [[_ONE], [IntPoly(2)]], [[1], [2]]), 0)
# N~_aa = (q - 2)(q - 4): singular at q = 2 and q = 4, cut or kept at q = 8
@example(([[IntPoly({2: 1, 1: -6, 0: 8})]], [[IntPoly({2: -1, 1: 6, 0: -8})]], [[1]]), 1)
# X = 2 / q: X(2) = 1 is in N, and the exact division cuts it
@example(([[_Q]], [[IntPoly(-2)]], None), 0)
# X = q^2 - q: X(2) = 2 is in N, and the coefficient -1 cuts it
@example(([[_ONE]], [[IntPoly({2: -1, 1: 1})]], None), 0)
def test_block_solve_agrees_with_matrix_solve(equation, a_c):
    # on random blocks of N~, the node's X and the rational one are
    # singular together; a kept X is matrix_solve's and lies in N[q], and a
    # cut X is not in N[q]
    aa, ac, x = equation
    got = _node_outcome(_block_ntilde(aa, ac), len(ac[0]), a_c)
    assert got == _verdict(aa, ac, a_c)
    if x is not None and got != "singular":
        assert got == [[IntPoly.q(a_c) * v for v in row] for row in x]


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
