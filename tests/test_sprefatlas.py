"""Preferred Springer sets from prime-power divisors, truncated induction,
and the fixture atlas of small worked cases.
"""
import pytest

from lsgreen.dihedral import Chi, ChiR, ChiRPrime, Eps, b_invariant
from lsgreen.errors import BadInput, BadSubgroup
from lsgreen.sprefatlas import (
    ReflSubgroup, atlas_check, d_sequence_formula_check,
    d_sequence_formula_report, get_fixture, j_induction, load_fixtures,
    restriction_multiplicity, s_pref, s_pref_report,
    verify_spref_via_induction,
)
from lsgreen.springer import maximal


# ---------------------------------------------------------------------------
# preferred sets
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m,labels,dropped", [
    (3, {"0", "1", "eps"}, (3,)),
    (6, {"0", "1", "2", "r'", "eps"}, ()),
    (9, {"0", "1", "3", "eps"}, (9,)),
    (10, {"0", "1", "2", "r'", "eps"}, ()),
    (12, {"0", "1", "2", "3", "4", "r'", "eps"}, ()),
    (15, {"0", "1", "3", "5", "eps"}, ()),
    (16, {"0", "1", "2", "4", "r'", "eps"}, (16,)),
])
def test_s_pref_frozen(m, labels, dropped):
    report = s_pref_report(m)
    assert {str(l) for l in report.springer.labels} == labels
    assert report.dropped_divisors == dropped
    assert s_pref(m) == report.springer


@pytest.mark.parametrize("m", range(3, 17))
def test_d_sequence_formula(m):
    assert d_sequence_formula_check(m)


def test_d_sequence_formula_single_prime_cases():
    # powers of a single prime: the closed N and d_N forms are unambiguous
    rep8 = d_sequence_formula_report(8)          # 2^3
    assert rep8.single_prime and rep8.n_value == 2 and rep8.d_n == 2
    rep9 = d_sequence_formula_report(9)          # 3^2
    assert rep9.single_prime and rep9.n_value == 2 and rep9.d_n == 3
    rep12 = d_sequence_formula_report(12)        # 2^2 * 3: set definition wins
    assert not rep12.single_prime
    assert rep12.sequence == (0, 1, 2, 3, 4)


# ---------------------------------------------------------------------------
# truncated induction
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", range(3, 17))
def test_j_identities_all_divisor_subgroups(m):
    for d in range(2, m):
        if m % d:
            continue
        sub = ReflSubgroup(m, d, False)
        assert j_induction(sub, Chi(0)) == Chi(0)
        chi1_sub = Chi(1) if d >= 3 else ChiR  # I2(2): b=1 char is labelled r
        assert j_induction(sub, chi1_sub) == Chi(1)
        eps_img = j_induction(sub, Eps)
        if 2 * d == m:
            assert eps_img == ChiRPrime
        else:
            assert eps_img == Chi(d)


def test_j_induction_primed_subgroup_hits_unprimed_character():
    assert j_induction(ReflSubgroup(12, 6, True), Eps) == ChiR
    assert j_induction(ReflSubgroup(4, 2, True), Eps) == ChiR


def test_j_induction_preserves_b_invariant():
    for (m, d) in ((6, 2), (6, 3), (12, 4), (15, 5)):
        sub = ReflSubgroup(m, d, False)
        img = j_induction(sub, Eps)
        assert b_invariant(m, img) == d  # b(eps) in I2(d) is d


def test_restriction_multiplicity_consistency():
    sub = ReflSubgroup(6, 3, False)
    img = j_induction(sub, Eps)
    assert restriction_multiplicity(sub, Eps, img) >= 1


def test_bad_subgroup_rejected():
    with pytest.raises(BadSubgroup):
        ReflSubgroup(6, 4, False)


@pytest.mark.parametrize("m", range(3, 17))
def test_preferred_set_reproduced_by_induction(m):
    assert verify_spref_via_induction(m)


# ---------------------------------------------------------------------------
# the doubled-prime family of examples
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", (3, 5, 7))
def test_doubled_prime_classes(p):
    m = 2 * p
    top = maximal(s_pref(m))
    cls = top.display_classes()
    assert cls[1] == frozenset({Chi(1), ChiR})
    assert cls[2] == frozenset({Chi(i) for i in range(2, p)})
    assert frozenset({ChiRPrime}) in cls


# ---------------------------------------------------------------------------
# atlas fixtures
# ---------------------------------------------------------------------------

def test_all_fixtures_pass():
    fixtures = load_fixtures()
    assert len(fixtures) == 7
    for fx in fixtures:
        result = atlas_check(fx)
        assert result.passed, (fx.name, result.diff)
        assert result.diff == ()


def test_fixture_names():
    names = {fx.name for fx in load_fixtures()}
    assert names == {"A2", "B2", "B2-char2", "G2", "G2-char3", "GG5", "GO6"}


def test_get_fixture_by_name():
    fx = get_fixture("G2")
    assert fx.m == 6
    assert atlas_check(fx).passed


def test_get_fixture_unknown():
    with pytest.raises(BadInput, match="no atlas fixture named 'E8'"):
        get_fixture("E8")
