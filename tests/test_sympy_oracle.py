"""sympy's Poly over ZZ as an independent oracle for the large-operand
kernel: products, exact quotients and gcds of large dense operands.

Test-only and optional: the module is skipped where sympy is not
installed, and lsgreen never imports it.
"""
import pytest
from hypothesis import given, settings, strategies as st

from lsgreen.exactalg import IntPoly, poly_gcd
from test_exactalg import large_polys

sympy = pytest.importorskip("sympy")
Q = sympy.Symbol("q")


def to_sympy(p: IntPoly):
    return sympy.Poly.from_dict({(e,): v for e, v in p.c.items()} or {(0,): 0}, Q,
                                domain=sympy.ZZ)


def from_sympy(p) -> IntPoly:
    return IntPoly({e: int(v) for (e,), v in p.as_dict().items()})


# sympy's dense arithmetic is slow at degree 1000, so the orders stay low
low = st.integers(min_value=0, max_value=30)
large = large_polys(bit_sizes=(1, 16, 80), orders=low)
medium = large_polys(min_terms=8, max_terms=60, bit_sizes=(1, 16, 80), orders=low)


@settings(max_examples=20, deadline=None)
@given(large, large)
def test_product_matches_sympy(a, b):
    assert a * b == from_sympy(to_sympy(a) * to_sympy(b))


@settings(max_examples=20, deadline=None)
@given(large, medium)
def test_exact_quotient_matches_sympy(a, b):
    p = from_sympy(to_sympy(a) * to_sympy(b))
    assert p // b == from_sympy(to_sympy(p).exquo(to_sympy(b)))


@settings(max_examples=20, deadline=None)
@given(medium, medium, large_polys(min_terms=1, max_terms=30, bit_sizes=(1, 8), orders=low),
       st.integers(min_value=1, max_value=12))
def test_gcd_matches_sympy(u, v, g, c):
    a, b = g * u * c, g * v
    assert poly_gcd(a, b) == from_sympy(to_sympy(a).gcd(to_sympy(b)))
