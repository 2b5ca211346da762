"""Third independent 3j oracle: sympy's wigner_3j (Rasch & Yu) against the Racah path."""

import pytest
from hypothesis import given, settings, strategies as st

from misiolek.wigner import threej_lm

sympy = pytest.importorskip("sympy")
wigner = pytest.importorskip("sympy.physics.wigner")

L_MAX = 60


@st.composite
def valid_tuples(draw):
    """(l1 l2 l3; m1 m2 m3) with degrees <= L_MAX, the triangle rule and orders in range."""
    l1 = draw(st.integers(0, L_MAX))
    l2 = draw(st.integers(0, L_MAX))
    l3 = draw(st.integers(abs(l1 - l2), min(l1 + l2, L_MAX)))
    m1 = draw(st.integers(-l1, l1))
    m2 = draw(st.integers(max(-l2, -l3 - m1), min(l2, l3 - m1)))
    return l1, l2, l3, m1, m2, -(m1 + m2)


@settings(max_examples=150, deadline=None)
@given(valid_tuples())
def test_threej_matches_sympy_exactly(args):
    want = wigner.wigner_3j(*args)
    square = sympy.Rational(want ** 2)
    value = threej_lm(*args)
    assert value.sign == int(sympy.sign(want)), args
    assert (value.num, value.den) == (square.p, square.q), args
