"""Dihedral group layer: elements, characters, b-invariants, families.

Oracle: the full orthogonality relations of the character table, checked in
exact cyclotomic arithmetic.
"""
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from lsgreen.dihedral import (
    CharLabel, Chi, ChiR, ChiRPrime, Eps, Ref, Rot,
    all_labels, b_invariant, char_table, char_value, elements, families,
    format_label, inverse, irreps, label_sort_key, mult, num_irreducibles,
    parse_label, specials,
)
from lsgreen.errors import InvalidM
from lsgreen.exactalg import CycloNum

SOME_MS = (2, 3, 4, 5, 6, 8, 9, 12)


def inner(m, f, g):
    els = elements(m)
    total = None
    for w in els:
        t = f.value(w) * g.value(w).conj()
        total = t if total is None else total + t
    return total


@pytest.mark.parametrize("m", SOME_MS)
def test_character_orthogonality(m):
    table = char_table(m)
    order = 2 * m
    for i, f in enumerate(table):
        for g in table[i:]:
            got = inner(m, f, g)
            want = CycloNum.rational(m, order if f.label == g.label else 0)
            assert got == want, (m, f.label, g.label)


@pytest.mark.parametrize("m", SOME_MS)
def test_degrees_square_sum_to_group_order(m):
    table = char_table(m)
    assert sum(ch.degree ** 2 for ch in table) == 2 * m
    assert len(table) == num_irreducibles(m)


@pytest.mark.parametrize("m", (3, 4, 5, 6, 10, 13))
def test_b_invariant_table(m):
    assert b_invariant(m, Chi(0)) == 0
    assert b_invariant(m, Chi(1)) == 1
    assert b_invariant(m, Eps) == m
    for i in range(2, (m - 1) // 2 + 1):
        assert b_invariant(m, Chi(i)) == i
    if m % 2 == 0:
        assert b_invariant(m, ChiR) == m // 2
        assert b_invariant(m, ChiRPrime) == m // 2


@pytest.mark.parametrize("m", (3, 4, 5, 6, 9, 14))
def test_specials_and_families(m):
    assert specials(m) == (Chi(0), Chi(1), Eps)
    fams = families(m)
    # {chi0}, one middle family, {eps}
    assert frozenset({Chi(0)}) in fams
    assert frozenset({Eps}) in fams
    middle = [f for f in fams
              if f not in (frozenset({Chi(0)}), frozenset({Eps}))]
    assert len(middle) == 1
    assert Chi(1) in middle[0]
    assert len(middle[0]) == len(all_labels(m)) - 2
    covered = frozenset().union(*fams)
    assert covered == frozenset(all_labels(m))
    assert sum(len(f) for f in fams) == len(all_labels(m))


def test_linear_character_values():
    m = 6
    for k in range(m):
        assert char_value(m, Chi(0), Rot(k)) == CycloNum.rational(m, 1)
        assert char_value(m, Chi(0), Ref(k)) == CycloNum.rational(m, 1)
        assert char_value(m, Eps, Rot(k)) == CycloNum.rational(m, 1)
        assert char_value(m, Eps, Ref(k)) == CycloNum.rational(m, -1)
        # the two extra linear characters: sign by rotation parity, and
        # opposite signs on each reflection coset
        assert char_value(m, ChiR, Rot(k)) == CycloNum.rational(m, (-1) ** k)
        assert char_value(m, ChiR, Ref(k)) == CycloNum.rational(m, (-1) ** k)
        assert char_value(m, ChiRPrime, Ref(k)) == \
            CycloNum.rational(m, -((-1) ** k))


def test_two_dimensional_character_on_reflections_vanishes():
    for m in (5, 7, 8):
        for i in range(1, (m - 1) // 2 + 1):
            for k in range(m):
                assert char_value(m, Chi(i), Ref(k)).is_zero()


@pytest.mark.parametrize("m", (3, 5, 8))
def test_group_axioms(m):
    els = elements(m)
    assert len(els) == 2 * m
    e = Rot(0)
    for g in els:
        assert mult(g, inverse(g, m), m) == e
        assert mult(inverse(g, m), g, m) == e
    for g in els[:6]:
        for h in els[:6]:
            for k in els[:4]:
                assert mult(mult(g, h, m), k, m) == mult(g, mult(h, k, m), m)


def test_character_is_class_function():
    m = 7
    for lab in all_labels(m):
        for k in range(1, m):
            # Rot(k) conjugate to Rot(-k); reflections all conjugate (m odd)
            assert char_value(m, lab, Rot(k)) == char_value(m, lab, Rot(m - k))
        vals = {str(char_value(m, lab, Ref(k))) for k in range(m)}
        assert len(vals) == 1


def test_irreps_requires_three():
    with pytest.raises(InvalidM):
        irreps(2)
    assert len(irreps(3)) == 3
    # the internal table still covers m = 2
    assert len(char_table(2)) == 4


def test_invalid_m_rejected():
    with pytest.raises(InvalidM):
        char_table(1)
    with pytest.raises(InvalidM):
        char_table(0)


@pytest.mark.parametrize("m", (3, 4, 6, 11, 12))
def test_label_text_roundtrip(m):
    for lab in all_labels(m):
        assert parse_label(format_label(lab), m) == lab


def test_label_parse_aliases():
    assert parse_label("eps", 6) == Eps
    assert parse_label("r", 6) == ChiR
    assert parse_label("r'", 6) == ChiRPrime
    assert parse_label("2", 6) == Chi(2)
    with pytest.raises((KeyError, ValueError)):
        parse_label("3", 6)  # index m/2 is not a numeric label


@given(st.integers(min_value=3, max_value=30))
def test_label_census(m):
    labs = all_labels(m)
    if m % 2 == 0:
        assert len(labs) == m // 2 + 3
        assert ChiR in labs and ChiRPrime in labs
    else:
        assert len(labs) == (m - 1) // 2 + 2
    assert labs[0] == Chi(0) and labs[-1] == Eps


@given(st.integers(min_value=0, max_value=40))
def test_char_label_hash_is_the_sort_key_hash(i):
    # the cached hash is that of the int pair of label_sort_key, which no
    # process's string or None hashing moves
    for label in (Chi(i), ChiR, ChiRPrime, Eps):
        assert hash(label) == hash(label_sort_key(label))
    assert Chi(i) == CharLabel("chi", i) and hash(Chi(i)) == hash(CharLabel("chi", i))
    assert pickle.loads(pickle.dumps(Chi(i))) == Chi(i)


def test_char_label_hash_and_set_order_are_the_same_in_every_process():
    # hash(None) is None's address on Python 3.11, and str hashes follow
    # PYTHONHASHSEED; neither may reach a label's hash
    code = ("from lsgreen.dihedral import Eps, all_labels; "
            "print(hash(Eps), list(frozenset(all_labels(12))))")
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = set()
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60)
        out.add(run.stdout)
    assert len(out) == 1
