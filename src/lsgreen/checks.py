"""The claims checked per m.  ``VERIFY_CHECKS`` are the six checks of
``lsgreen verify m``, in report order, each ``(m, bounds) ->
ConditionCheck``; :func:`search_outcome_check` holds the claims on every
search outcome, which the preferred-set check and ``scripts/sweep.py``
both make."""

from __future__ import annotations

import functools

from .dihedral import format_label, irreps
from .errors import LsgreenError, SearchBoundExceeded
from .fakedegree import check_symmetry, fake_degree, omega
from .springer import (
    ConditionCheck,
    SearchConfig,
    SearchOutcome,
    closed_form_system,
    dominates,
    enumerate_f_sequences,
    iota,
    maximal,
    predicted_partition,
    rational_smoothness,
    search,
)
from .sprefatlas import (
    atlas_check,
    d_sequence_formula_report,
    load_fixtures,
    s_pref,
    verify_spref_via_induction,
)

__all__ = ["VERIFY_CHECKS", "search_outcome_check"]


def search_outcome_check(outcome: SearchOutcome) -> ConditionCheck:
    """The maximal datum of the Springer set searched is among the hits and
    dominates every hit, and a rigid set (iota != 0) has exactly one hit."""
    top = maximal(outcome.springer)
    details = []
    if not any(h.datum == top for h in outcome.hits):
        details.append("the maximal datum is not among the hits")
    details += [f"the maximal datum does not dominate {h.datum.describe()}"
                for h in outcome.hits if not dominates(top, h.datum)]
    if iota(outcome.springer) != 0 and len(outcome.hits) != 1:
        details.append(f"a rigid set has {len(outcome.hits)} hits, not one")
    return ConditionCheck("search-outcome", not details, tuple(details))


def _verify_check(name: str):
    """The check ``name`` made of ``fn(m, bounds) -> details``: it passes
    when there are no details, an LsgreenError or AssertionError fails it
    with its message, and a hit work bound is not a check and propagates."""
    def wrap(fn):
        @functools.wraps(fn)
        def check(m: int, bounds: SearchConfig) -> ConditionCheck:
            try:
                details = fn(m, bounds)
            except SearchBoundExceeded:
                raise
            except (LsgreenError, AssertionError) as exc:
                details = [str(exc)]
            return ConditionCheck(name, not details, tuple(details))
        return check
    return wrap


@_verify_check("pairing-matrix-cross-derivation")
def pairing_matrix_cross_derivation(m, bounds):
    omega(m, method="both")  # raises when the sum and the closed table differ
    return []


@_verify_check("fake-degree-symmetry")
def fake_degree_symmetry(m, bounds):
    """The reversal identity R(conj(det chi))(q) = q^m R(chi)(1/q) of
    :func:`fakedegree.check_symmetry` for every irreducible chi of m.  It
    certifies the Molien sum, not a datum or the character table: the sum
    sees a function only through f(rho^k) + f(rho^-k) and its reflection
    total, and for any class function f whose R(f) has integer
    coefficients the twisted sum is conj(q^m R(f)(1/q)) = q^m R(f)(1/q).
    So the check holds on every input the sum accepts, and fails only
    when the sum itself is computed wrongly."""
    return [format_label(c.label) for c in irreps(m) if not check_symmetry(m, c)]


@_verify_check("b-invariant-is-fake-degree-valuation")
def b_invariant_is_fake_degree_valuation(m, bounds):
    return [format_label(c.label) for c in irreps(m)
            if fake_degree(m, c.label).order() != c.b]


@_verify_check("preferred-set")
def preferred_set(m, bounds):
    details = []
    if not d_sequence_formula_report(m).passed:
        details.append("d-sequence formula check failed")
    if not verify_spref_via_induction(m):
        details.append("induction does not reproduce the preferred set")
    return details


@_verify_check("preferred-set-search")
def preferred_set_search(m, bounds):
    sp = s_pref(m)
    outcome = search(sp, bounds=bounds)
    if not outcome.hits:
        return ["no accepted correspondence for the preferred set"]
    details = []
    expect = {predicted_partition(sp, f) for f in enumerate_f_sequences(sp)}
    got = set(outcome.data())
    if expect != got:
        details.append(f"accepted set has {len(got)} data, predicted family has {len(expect)}")
    details += search_outcome_check(outcome).details
    top, cf = maximal(sp), closed_form_system(sp)
    solved = next((h.system for h in outcome.hits if h.datum == top), None)
    if solved is not None and (cf.P != solved.P or cf.Lambda != solved.Lambda):
        details.append("closed-form system disagrees with the solver")
    if not all(r.all_pieces_smooth and r.full_variety
               for r in (rational_smoothness(h.system) for h in outcome.hits)):
        details.append("smoothness check failed for an accepted datum")
    return details


@_verify_check("atlas-fixtures")
def atlas_fixtures(m, bounds):
    return [fx.name for fx in load_fixtures() if fx.m == m and not atlas_check(fx).passed]


VERIFY_CHECKS = (pairing_matrix_cross_derivation, fake_degree_symmetry,
                 b_invariant_is_fake_degree_valuation, preferred_set,
                 preferred_set_search, atlas_fixtures)
