"""Search, condition checking, closed forms, maximal correspondences,
special pieces, rational smoothness.

The nonconforming-datum regression at the bottom freezes a genuinely
surprising computation: a datum outside the two-run family whose solved
system nevertheless passes all five acceptance conditions.  Its entries
were verified independently (multiplication back in a separate computer
algebra system) before freezing.
"""
import dataclasses
import importlib.util
from pathlib import Path

import pytest

from lsgreen import greensolver, springer as springer_module
from lsgreen.dihedral import Chi, ChiR, ChiRPrime, Eps
from lsgreen.errors import InvalidFSequence, SearchBoundExceeded, SingularBlock
from lsgreen.exactalg import IntPoly, PolyMatrix, RatFunc
from lsgreen.fakedegree import omega, omega_closed, omega_sum
from lsgreen.greensolver import LSDatum, solve, verify_system
from lsgreen.springer import (
    SearchConfig, SpringerSet, all_springer_sets, check_conditions,
    closed_form_system, d_sequence, dominates, enumerate_candidate_data, enumerate_f_sequences,
    iota, matches_predicted_partition, maximal, maximal_f,
    predicted_partition, rational_smoothness, search, special_pieces,
    support_f_sequence, support_vector, validate_f_sequence,
)

G2 = SpringerSet.from_strings(6, "0,1,2,r',eps")
B2 = SpringerSet.from_strings(4, "0,1,r',eps")
GG5 = SpringerSet.from_strings(4, "0,1,r,r',eps")
M5 = SpringerSet.from_strings(5, "0,1,eps")


# ---------------------------------------------------------------------------
# combinatorics: d, iota, f
# ---------------------------------------------------------------------------

def test_springer_set_requires_specials():
    with pytest.raises(ValueError):
        SpringerSet.from_strings(6, "0,1,eps,2").__class__(
            6, frozenset({Chi(0), Eps}))


def test_normalisation_swaps_lone_unprimed():
    s = SpringerSet.from_strings(6, "0,1,2,r,eps")
    norm, swapped = s.normalized()
    assert swapped
    assert ChiRPrime in norm.labels and ChiR not in norm.labels


def test_d_sequence_examples():
    assert d_sequence(G2) == (0, 1, 2)
    assert iota(G2) == 0
    assert d_sequence(M5) == (0, 1)
    assert iota(M5) == 1
    assert d_sequence(GG5) == (0, 1)
    assert iota(GG5) == -1


def test_f_sequences_forced_when_selector_nonzero():
    assert enumerate_f_sequences(M5) == ((2,),)
    assert enumerate_f_sequences(GG5) == ((1,),)
    s = SpringerSet.from_strings(8, "0,1,eps")
    assert enumerate_f_sequences(s) == ((3,),)


def test_f_sequences_g2():
    assert set(enumerate_f_sequences(G2)) == {(3, 2), (3, 3)}
    assert maximal_f(G2) == (3, 2)


def test_f_sequence_validation():
    with pytest.raises(InvalidFSequence):
        validate_f_sequence(G2, (3,))          # wrong length
    with pytest.raises(InvalidFSequence):
        validate_f_sequence(G2, (2, 2))        # f_1 must be m/2
    with pytest.raises(InvalidFSequence):
        validate_f_sequence(G2, (3, 1))        # below d_N
    s = SpringerSet.from_strings(10, "0,1,2,r',eps")
    with pytest.raises(InvalidFSequence):
        validate_f_sequence(s, (5, 3))         # drop exceeds the d-gap
    assert validate_f_sequence(s, (5, 4)) == (5, 4)


@pytest.mark.parametrize("m", range(4, 13, 2))
def test_maximal_f_is_greatest_enumerated(m):
    from lsgreen.springer import all_springer_sets
    for s in all_springer_sets(m):
        if iota(s) != 0:
            continue
        fs = enumerate_f_sequences(s)
        # lower f-values push characters into higher classes, so the
        # dominant correspondence carries the pointwise-least sequence
        assert maximal_f(s) == min(fs)
        assert all(all(x <= y for x, y in zip(maximal_f(s), f)) for f in fs)
        # pairwise drops bounded by d-gaps, weakly decreasing, ends >= d_N
        d = d_sequence(s)
        for f in fs:
            assert f[0] == m // 2
            for k in range(len(f) - 1):
                assert 0 <= f[k] - f[k + 1] <= d[k + 2] - d[k + 1]
            assert f[-1] >= d[-1]


# ---------------------------------------------------------------------------
# predicted partitions
# ---------------------------------------------------------------------------

def test_predicted_partition_g2_dominant():
    datum = predicted_partition(G2, (3, 2))
    assert datum.display_classes() == (
        frozenset({Chi(0)}), frozenset({Chi(1), ChiR}), frozenset({Chi(2)}),
        frozenset({ChiRPrime}), frozenset({Eps}),
    )


def test_predicted_partition_odd_top_class():
    datum = predicted_partition(SpringerSet.from_strings(7, "0,1,eps"))
    assert datum.display_classes()[1] == frozenset({Chi(1), Chi(2), Chi(3)})


def test_predicted_partition_even_neither_extra():
    datum = predicted_partition(SpringerSet.from_strings(4, "0,1,eps"))
    assert datum.display_classes()[1] == frozenset({Chi(1), ChiR, ChiRPrime})


def test_predicted_partition_both_extras_separate():
    datum = predicted_partition(GG5)
    cls = datum.display_classes()
    assert frozenset({ChiR}) in cls and frozenset({ChiRPrime}) in cls


def test_maximal_examples():
    assert maximal(G2) == predicted_partition(G2, (3, 2))
    s10 = SpringerSet.from_strings(10, "0,1,2,r',eps")
    top = maximal(s10)
    assert top.display_classes()[1] == frozenset({Chi(1), ChiR})
    assert top.display_classes()[2] == frozenset({Chi(2), Chi(3), Chi(4)})


@pytest.mark.parametrize("m", range(4, 13, 2))
def test_support_reading_recovers_f(m):
    from lsgreen.springer import all_springer_sets
    for s in all_springer_sets(m):
        if iota(s) != 0:
            continue
        for f in enumerate_f_sequences(s):
            datum = predicted_partition(s, f)
            assert support_f_sequence(datum, s) == f
            assert matches_predicted_partition(datum, s)


# ---------------------------------------------------------------------------
# enumeration, conditions, search
# ---------------------------------------------------------------------------

def test_candidate_counts():
    assert sum(1 for _ in enumerate_candidate_data(G2)) == 2
    assert sum(1 for _ in enumerate_candidate_data(M5)) == 1
    assert sum(1 for _ in enumerate_candidate_data(GG5)) == 1


@pytest.mark.parametrize("build, top", [(omega_closed, 40), (omega_sum, 16)])
def test_tied_singletons_do_not_interact(build, top):
    # Omega(r,r') Omega(eps,eps) = Omega(r,eps) Omega(r',eps): once the
    # determinant class is peeled off, the residual entry linking {r} and
    # {r'} is zero, so enumerate_candidate_data may fix one order of the two
    # singleton classes
    for m in range(4, top + 1, 2):
        om = build(m)
        assert (om.get(ChiR, ChiRPrime) * om.get(Eps, Eps)
                == om.get(ChiR, Eps) * om.get(ChiRPrime, Eps)), m


def test_candidate_bound_enforced():
    with pytest.raises(SearchBoundExceeded):
        list(enumerate_candidate_data(G2, bounds=SearchConfig(max_candidates=1)))


def test_search_m_bound_enforced():
    with pytest.raises(SearchBoundExceeded):
        search(SpringerSet.from_strings(20, "0,1,eps"))


def _load_exhaustive_check():
    path = Path(__file__).resolve().parent.parent / "scripts" / "exhaustive_check.py"
    spec = importlib.util.spec_from_file_location("exhaustive_check", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the reference the pruned search must match, shared with the opt-in
# scripts/exhaustive_check.py: every candidate solved and judged on its own
_exhaustive_check = _load_exhaustive_check()
_exhaustive, _entries = _exhaustive_check.exhaustive, _exhaustive_check.entries


@pytest.mark.parametrize("m, family_filter", [
    (m, ff) for m in range(3, 12) for ff in (True, False)] + [(12, True)])
def test_pruned_search_equals_exhaustive(monkeypatch, m, family_filter):
    def no_solve(*args):
        raise AssertionError("search called solve")

    yielded = []

    def counted(*args, **kwargs):
        for datum in enumerate_candidate_data(*args, **kwargs):
            yielded.append(datum)
            yield datum

    for springer in all_springer_sets(m):
        yielded.clear()
        with monkeypatch.context() as mp:
            # search peels prefixes itself and never calls solve
            mp.setattr(greensolver, "solve", no_solve)
            mp.setattr(springer_module, "solve", no_solve)
            mp.setattr(springer_module, "enumerate_candidate_data", counted)
            out = search(springer, family_filter=family_filter)
        hits, stray, tried, singular = _exhaustive(springer, family_filter)
        label = (m, springer.describe(), family_filter)
        assert _entries(h.system for h in out.hits) == _entries(hits), label
        assert _entries(h.system for h in out.nonconforming) == _entries(stray), label
        assert (out.tried, out.rejected_singular) == (tried, singular), label
        # search reads every candidate off enumerate_candidate_data once
        assert len(yielded) == len(set(yielded)) == out.tried, label
        assert out.pruned + out.rejected_singular <= out.tried, label


def test_conditions_pass_on_both_g2_candidates():
    om = omega(6, method="closed")
    for datum in enumerate_candidate_data(G2):
        system = solve(om, datum)
        report = check_conditions(system, G2)
        assert report.accepted, report.summary()


def test_conditions_reject_high_placement():
    # the floating character forced above the a=1 class: the system still
    # solves with nonnegative entries, but the character now sits above its
    # family's special representation
    om = omega(6, method="closed")
    datum = LSDatum(6, ({Eps}, {ChiRPrime}, {Chi(2)}, {Chi(1)},
                        {Chi(0), ChiR}), (6, 3, 2, 1, 0))
    system = solve(om, datum)
    report = check_conditions(system, G2)
    assert not report.accepted
    failed = {c.name for c in report.checks if not c.passed}
    assert failed == {"family-support"}


def test_search_unique_for_m5():
    out = search(M5)
    assert len(out.hits) == 1
    hit = out.hits[0]
    assert hit.datum.display_classes()[1] == frozenset({Chi(1), Chi(2)})
    assert hit.report.accepted


def test_search_g2_two_correspondences():
    out = search(G2)
    assert len(out.hits) == 2
    assert [h.datum for h in out.hits] == \
        [predicted_partition(G2, f) for f in ((3, 2), (3, 3))]
    assert out.nonconforming == ()


def test_search_b2_unique():
    out = search(B2)
    assert len(out.hits) == 1
    assert out.hits[0].datum.display_classes()[1] == frozenset({Chi(1), ChiR})


def test_search_family_filter_off_adds_only_rejected_candidates():
    plain = search(G2)
    loose = search(G2, family_filter=False)
    assert loose.tried > plain.tried
    assert [h.datum for h in loose.hits] == [h.datum for h in plain.hits]


def test_search_normalises_lone_unprimed_set():
    out = search(SpringerSet.from_strings(6, "0,1,2,r,eps"))
    assert out.swapped
    assert len(out.hits) == 2


def test_dominance_of_maximal_g2():
    out = search(G2)
    top = maximal(G2)
    assert top == out.hits[0].datum
    for h in out.hits:
        assert dominates(top, h.datum)
    assert support_vector(out.hits[0].datum) <= support_vector(out.hits[1].datum)


# ---------------------------------------------------------------------------
# closed forms vs solver
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("springer,f", [
    (G2, (3, 2)), (G2, (3, 3)), (B2, None), (GG5, None), (M5, None),
    (SpringerSet.from_strings(10, "0,1,2,r',eps"), (5, 4)),
    (SpringerSet.from_strings(10, "0,1,2,r',eps"), (5, 5)),
    (SpringerSet.from_strings(9, "0,1,3,eps"), None),
])
def test_closed_form_equals_solver(springer, f):
    closed = closed_form_system(springer, f)
    datum = closed.datum
    direct = solve(omega(datum.m, method="closed"), datum)
    assert closed.P == direct.P
    assert closed.Lambda == direct.Lambda


def test_closed_form_worked_entries():
    b2 = closed_form_system(B2)
    assert b2.P.get(Chi(1), ChiRPrime).as_poly() == IntPoly({1: 1})
    g2 = closed_form_system(G2, (3, 2))
    assert g2.P.get(ChiR, Chi(2)).as_poly() == IntPoly({1: 1})
    m3 = closed_form_system(SpringerSet.from_strings(3, "0,1,eps"))
    assert m3.P.get(Chi(0), Eps).as_poly() == IntPoly.one()
    assert m3.P.get(Chi(1), Eps).as_poly() == IntPoly({2: 1, 1: 1})
    assert m3.P.get(Eps, Eps).as_poly() == IntPoly({3: 1})


# ---------------------------------------------------------------------------
# special pieces and rational smoothness
# ---------------------------------------------------------------------------

def test_special_pieces_m5_chain():
    sp = special_pieces(predicted_partition(M5))
    assert sp.specials == (Chi(0), Chi(1), Eps)
    assert sp.pieces == ((2,), (1,), (0,))


def test_special_pieces_b2_middle_absorbs_singleton():
    sp = special_pieces(maximal(B2))
    assert sp.pieces == ((3,), (1, 2), (0,))


def test_special_pieces_both_extras_in_middle():
    s = SpringerSet.from_strings(6, "0,1,2,r,r',eps")
    datum = maximal(s)
    sp = special_pieces(datum)
    middle = sp.pieces[1]
    assert datum.class_of(ChiR) in middle
    assert datum.class_of(ChiRPrime) in middle
    assert datum.class_of(Chi(2)) in middle


def test_rational_smoothness_positive():
    for s in (M5, B2, G2):
        for h in search(s).hits:
            rep = rational_smoothness(h.system)
            assert rep.all_pieces_smooth, [p.details for p in rep.pieces]
            assert rep.full_variety, rep.full_details


def test_rational_smoothness_doctored_negative():
    system = search(M5).hits[0].system
    bad_p = PolyMatrix.from_function(
        system.P.rows, system.P.cols,
        lambda a, b: RatFunc(IntPoly({3: 1, 1: 1}))
        if (a, b) == (Chi(1), Chi(2)) else system.P.get(a, b))
    doctored = dataclasses.replace(system, P=bad_p)
    rep = rational_smoothness(doctored)
    assert not rep.all_pieces_smooth
    flagged = [d for p in rep.pieces for d in p.details]
    assert any("P[1,2]" in d for d in flagged)


# ---------------------------------------------------------------------------
# the condition-passing datum outside the classified family (regression)
# ---------------------------------------------------------------------------

STRAY10 = LSDatum(
    10,
    ({Eps}, {ChiRPrime}, {Chi(3)}, {Chi(2)}, {Chi(1), Chi(4), ChiR}, {Chi(0)}),
    (10, 5, 3, 2, 1, 0),
)
S10 = SpringerSet.from_strings(10, "0,1,2,3,r',eps")


def test_stray_datum_passes_all_five_conditions():
    om = omega(10, method="closed")
    system = solve(om, STRAY10)
    assert verify_system(system, om)
    report = check_conditions(system, S10)
    assert report.accepted, report.summary()
    # spot-frozen entries of the solved system
    assert system.P.get(ChiR, Chi(3)).as_poly() == IntPoly({1: 1})
    assert system.P.get(Chi(4), Chi(3)).as_poly() == IntPoly({2: 1})
    assert system.Lambda.get(Chi(4), ChiR).as_poly() == \
        IntPoly({17: 1, 15: -1, 7: -1, 5: 1})


def test_stray_datum_is_outside_the_classified_family():
    assert support_f_sequence(STRAY10, S10) == (5, 3, 3)
    with pytest.raises(InvalidFSequence):
        validate_f_sequence(S10, (5, 3, 3))
    assert not matches_predicted_partition(STRAY10, S10)


def test_stray_datum_reported_separately_by_search():
    out = search(S10)
    assert len(out.hits) == 4
    assert len(out.nonconforming) == 1
    assert out.nonconforming[0].datum == STRAY10
    assert out.nonconforming[0].report.accepted
    assert [h.datum for h in out.hits] == \
        [predicted_partition(S10, f)
         for f in sorted(enumerate_f_sequences(S10))]


def test_stray_datum_escapes_maximal_dominance():
    # the reason it must stay out of the hit list: the dominant
    # correspondence does not dominate it
    assert not dominates(maximal(S10), STRAY10)
