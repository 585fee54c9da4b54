"""Acceptance suite: the eleven headline guarantees, one test apiece.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per guarantee.  Every comparison below is an exact identity of integer
polynomials or of finite combinatorial objects -- there are no floats and
no tolerances anywhere.

The searched sweep over all admissible Springer sets for m in 3..14 comes
from the session fixture in conftest; the remaining checks recompute what
they need at the stated ranges.
"""
from lsgreen.dihedral import Chi, ChiR, ChiRPrime, Eps, b_invariant, irreps
from lsgreen.errors import SingularBlock
from lsgreen.exactalg import IntPoly
from lsgreen.fakedegree import check_symmetry, omega, omega_closed, omega_sum
from lsgreen.greensolver import LSDatum, solve, verify_system
from lsgreen.springer import (
    SpringerSet, all_springer_sets, closed_form_system, dominates,
    enumerate_candidate_data, enumerate_f_sequences, iota, maximal,
    predicted_partition, rational_smoothness,
)
from lsgreen.sprefatlas import (
    ReflSubgroup, atlas_check, d_sequence_formula_check, j_induction,
    load_fixtures, s_pref, verify_spref_via_induction,
)


def _accepted(outcome):
    """Every condition-passing system of a search outcome, the classified
    hits first, then the separately reported nonconforming data."""
    return list(outcome.hits) + list(outcome.nonconforming)


def test_01_pairing_matrix_sum_and_closed_derivations_agree():
    # up to OMEGA_SUM_M_BOUND, the largest m `omega --method sum` accepts
    for m in range(3, 31):
        assert omega_sum(m) == omega_closed(m), f"m={m}"


def test_02_fake_degree_reversal_symmetry_holds_for_every_character():
    for m in range(3, 17):
        for ch in irreps(m):
            assert check_symmetry(m, ch), f"m={m}, {ch.label}"


def test_03_accepted_data_factor_exactly_with_integral_divisible_blocks(sweep):
    for m, outcomes in sweep.items():
        om = omega(m, method="closed")
        for outcome in outcomes:
            for hit in _accepted(outcome):
                system = hit.system
                assert verify_system(system, om), hit.datum.describe()
                for name in ("integrality", "row-divisibility"):
                    check = next(c for c in hit.report.checks if c.name == name)
                    assert check.passed, (hit.datum.describe(), name)
                # re-scan the matrices directly rather than trusting the report
                for r in system.P.rows:
                    a = system.datum.a_of(r)
                    for c in system.P.cols:
                        e = system.P.get(r, c)
                        if e is None:
                            continue
                        p = e.as_poly()
                        assert all(v >= 0 for v in p.c.values())
                        assert p.is_zero() or p.order() >= a
                for r in system.Lambda.rows:
                    for c in system.Lambda.cols:
                        e = system.Lambda.get(r, c)
                        assert e is None or e.is_polynomial()


def test_04_rigid_selector_sets_have_exactly_one_correspondence(sweep):
    seen = 0
    for m, outcomes in sweep.items():
        for outcome in outcomes:
            s = outcome.springer
            if iota(s) == 0:
                continue
            seen += 1
            fs = enumerate_f_sequences(s)
            assert fs == (((m - 1) // 2,) * len(fs[0]),)
            assert len(outcome.hits) == 1, s.describe()
            assert outcome.hits[0].datum == predicted_partition(s, fs[0])
            assert outcome.nonconforming == ()
    assert seen > 0


def test_05_floating_selector_counts_match_the_f_enumeration(sweep):
    seen = 0
    for m, outcomes in sweep.items():
        if m % 2:
            continue
        for outcome in outcomes:
            s = outcome.springer
            if iota(s) != 0:
                continue
            seen += 1
            fs = enumerate_f_sequences(s)
            assert len(outcome.hits) == len(fs), s.describe()
            assert ({h.datum for h in outcome.hits}
                    == {predicted_partition(s, f) for f in fs})
    assert seen > 0
    g2 = next(o for o in sweep[6]
              if o.springer == SpringerSet.from_strings(6, "0,1,2,r',eps"))
    assert len(g2.hits) == 2


def test_06_solver_agrees_with_the_closed_form_on_every_classified_datum():
    q = IntPoly.q
    for m in range(3, 13):
        om = omega(m, method="closed")
        for s in all_springer_sets(m):
            for f in enumerate_f_sequences(s):
                solved = solve(om, predicted_partition(s, f))
                closed = closed_form_system(s, f)
                assert solved.P == closed.P, (s.describe(), f)
                assert solved.Lambda == closed.Lambda, (s.describe(), f)
    # hand-checked corner entries, confirmed by multiplying back
    sys3 = closed_form_system(SpringerSet.from_strings(3, "0,1,eps"))
    assert sys3.Lambda.get(Chi(1), Chi(1)).as_poly() == \
        q(4) + q(3) - q(1) - IntPoly.one()
    assert verify_system(sys3, omega(3, method="closed"))
    sys4 = closed_form_system(SpringerSet.from_strings(4, "0,1,r',eps"))
    scale = q(4) - IntPoly.one()
    assert sys4.Lambda.get(Chi(1), Chi(1)).as_poly() == scale * q(2)
    assert sys4.Lambda.get(Chi(1), ChiR).as_poly() == scale * q(1)
    assert sys4.Lambda.get(ChiR, Chi(1)).as_poly() == scale * q(1)
    assert sys4.Lambda.get(ChiR, ChiR).as_poly() == scale * q(2)
    assert verify_system(sys4, omega(4, method="closed"))


def test_07_the_dominant_correspondence_belongs_to_and_tops_every_search(sweep):
    for m, outcomes in sweep.items():
        for outcome in outcomes:
            top = maximal(outcome.springer)
            assert any(h.datum == top for h in outcome.hits), \
                outcome.springer.describe()
            for h in outcome.hits:
                assert dominates(top, h.datum)


def test_08_special_pieces_and_the_full_variety_are_rationally_smooth(sweep):
    for m, outcomes in sweep.items():
        for outcome in outcomes:
            for hit in _accepted(outcome):
                rep = rational_smoothness(hit.system)
                assert rep.all_pieces_smooth, (hit.datum.describe(),
                                               [p.details for p in rep.pieces])
                assert rep.full_variety, (hit.datum.describe(),
                                          rep.full_details)


def test_09_the_fixture_atlas_reproduces_the_small_worked_cases():
    fixtures = load_fixtures()
    assert {fx.name for fx in fixtures} == {
        "A2", "B2", "B2-char2", "G2", "G2-char3", "GG5", "GO6",
    }
    for fx in fixtures:
        result = atlas_check(fx)
        assert result.passed, (fx.name, result.diff)


def test_10_preferred_sets_their_formula_and_truncated_induction():
    for m in range(3, 17):
        assert d_sequence_formula_check(m), m
        assert verify_spref_via_induction(m), m
        for d in range(2, m):
            if m % d:
                continue
            sub = ReflSubgroup(m, d, False)
            assert j_induction(sub, Chi(0)) == Chi(0)
            assert j_induction(sub, Chi(1) if d >= 3 else ChiR) == Chi(1)
            expected = ChiRPrime if 2 * d == m else Chi(d)
            assert j_induction(sub, Eps) == expected, (m, d)
    for p in (3, 5, 7):
        cls = maximal(s_pref(2 * p)).display_classes()
        assert cls[1] == frozenset({Chi(1), ChiR})
        assert cls[2] == frozenset({Chi(i) for i in range(2, p)})
        assert frozenset({ChiRPrime}) in cls


def _mirrored(datum):
    """The same candidate with its two tied singleton classes, {r'} and
    {r}, swapped."""
    classes = list(datum.classes)
    i = classes.index(frozenset({ChiRPrime}))
    j = classes.index(frozenset({ChiR}))
    classes[i], classes[j] = classes[j], classes[i]
    return LSDatum(datum.m, tuple(classes), datum.a)


def _solve_or_none(om, datum):
    try:
        return solve(om, datum)
    except SingularBlock:
        return None


def test_11_the_two_tie_orders_yield_identical_p_and_lambda():
    seen = 0
    for m in range(4, 15, 2):
        om = omega(m, method="closed")
        for s in all_springer_sets(m):
            if iota(s) != -1:
                continue
            for datum in enumerate_candidate_data(s):
                cls = datum.classes
                assert cls.index({ChiRPrime}) < cls.index({ChiR}), datum.describe()
                first = _solve_or_none(om, datum)
                second = _solve_or_none(om, _mirrored(datum))
                assert (first is None) == (second is None), datum.describe()
                if first is None:
                    continue
                seen += 1
                assert first.P == second.P, datum.describe()
                assert first.Lambda == second.Lambda, datum.describe()
    assert seen > 0
