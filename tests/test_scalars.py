from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bvcorr.scalars import HLaurent, HPoly, NotDivisibleError


def hp(d):
    return HPoly({k: Fraction(v) for k, v in d.items()})


small_polys = st.dictionaries(
    st.integers(min_value=0, max_value=5),
    st.fractions(max_denominator=6),
    max_size=4,
).map(hp)


def test_h_divide_examples():
    c = hp({0: 3})
    assert (-HPoly.h() * c).h_divide(1) == -c
    with pytest.raises(NotDivisibleError) as exc:
        hp({0: 1, 1: 1}).h_divide(1)
    assert exc.value.offending_exponent == 0
    assert hp({2: 1, 3: -3}).h_divide(2) == hp({0: 1, 1: -3})


def test_h_divide_shrinks_window():
    p = HPoly({1: 1}, trunc=6)
    q = p.h_divide(1)
    assert q.trunc == 5
    # the recovered value agrees on the surviving window
    assert q == hp({0: 1})


def test_divide_after_multiplying_by_h_power():
    p = hp({0: 2, 1: 5})
    for k in (1, 2, 3):
        shifted = p * HPoly.h(k)
        assert shifted.h_divide(k) == p


def test_exactness_survives_h_multiplication():
    p = HPoly({0: 1}, trunc=2)
    lifted = p * HPoly.h(4)
    # multiplying by h^4 pushes the known window up by the valuation
    assert lifted.coeff(4) == 1
    assert lifted.h_divide(4) == p


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys, small_polys)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=40, deadline=None)
@given(small_polys, small_polys)
def test_laurent_embeds_poly(a, b):
    assert (a * b).to_laurent() == a.to_laurent() * b.to_laurent()
    assert (a + b).to_laurent() == a.to_laurent() + b.to_laurent()


def test_laurent_shift_and_bounds():
    v = HLaurent({0: 1, 2: -1})
    w = v.neg_h_divide(3)
    assert w.coeff(-3) == -1
    assert w.coeff(-1) == 1
    assert w.low() == -3


def test_equality_compares_common_window():
    exact = hp({0: 1, 5: 7})
    coarse = HPoly({0: 1}, trunc=3)
    assert exact == coarse  # they agree through order 3
    assert exact != HPoly({0: 2}, trunc=3)
