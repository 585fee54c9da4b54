"""The triangular solver for P * Lambda * P^T = Omega.

Frozen expectations below were derived independently: the m=3 system is
small enough to solve by hand from the pairing matrix, and each frozen
entry was confirmed by multiplying the factorization back.
"""
import dataclasses

import pytest

from lsgreen.dihedral import Chi, ChiR, ChiRPrime, Eps
from lsgreen.errors import SingularBlock
from lsgreen.exactalg import IntPoly, PolyMatrix, RatFunc
from lsgreen.fakedegree import fake_degree, omega
from lsgreen.greensolver import (
    LSDatum, closure_order, datum_from_jsonable, datum_to_jsonable, solve,
    verify_system,
)


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

