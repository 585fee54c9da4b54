"""The checks module: the verify checks and the search-outcome claims.

The acceptance tests keep their own assertions of the same claims; these
tests pin that the checks fail when a claim does not hold.
"""
import dataclasses

from lsgreen import checks
from lsgreen.cli import main
from lsgreen.springer import SearchConfig, SpringerSet, maximal, search
from lsgreen.sprefatlas import s_pref

M = 6  # the preferred set has two hits, the maximal datum and one more


def without_the_maximal_datum(outcome):
    top = maximal(outcome.springer)
    return dataclasses.replace(
        outcome, hits=tuple(h for h in outcome.hits if h.datum != top))


def test_a_missing_maximal_datum_fails_the_search_checks(monkeypatch, capsys):
    real = checks.search
    monkeypatch.setattr(checks, "search",
                        lambda s, **kw: without_the_maximal_datum(real(s, **kw)))
    result = checks.preferred_set_search(M, SearchConfig())
    assert not result.passed
    assert "the maximal datum is not among the hits" in result.details
    assert main(["verify", str(M)]) == 1
    assert '"name":"preferred-set-search","passed":false' in capsys.readouterr().out

    outcome = without_the_maximal_datum(real(s_pref(M)))
    assert outcome.hits
    check = checks.search_outcome_check(outcome)
    assert not check.passed
    assert check.details == ("the maximal datum is not among the hits",)


def test_search_outcome_check_counts_the_hits_of_a_rigid_set():
    outcome = search(SpringerSet.from_strings(7, "0,1,eps"))
    assert len(outcome.hits) == 1
    assert checks.search_outcome_check(outcome).passed
    doubled = dataclasses.replace(outcome, hits=outcome.hits * 2)
    assert checks.search_outcome_check(doubled).details == (
        "a rigid set has 2 hits, not one",)


def test_an_error_inside_a_check_fails_it_with_its_message(monkeypatch):
    def broken(m, method):
        raise AssertionError("sum and closed table differ")

    monkeypatch.setattr(checks, "omega", broken)
    result = checks.pairing_matrix_cross_derivation(M, SearchConfig())
    assert not result.passed
    assert result.details == ("sum and closed table differ",)
