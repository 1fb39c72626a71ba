from fractions import Fraction

from hypothesis import given, settings, strategies as st

from bvcorr.hspace import HVector
from bvcorr.scalars import HPoly

coefs = st.builds(
    lambda d, t: HPoly(d, trunc=t),
    st.dictionaries(
        st.integers(min_value=0, max_value=4),
        st.integers(-2, 2).map(Fraction),
        min_size=1,
        max_size=3,
    ),
    st.one_of(st.none(), st.integers(min_value=0, max_value=5)),
)
vectors = st.dictionaries(st.integers(0, 3), coefs, max_size=4).map(HVector)


def _assert_canonical(v):
    rebuilt = HVector(v.c)
    assert rebuilt.c.keys() == v.c.keys()
    for i, coef in v.c.items():
        assert not coef.is_zero()
        assert (coef.c, coef.trunc) == (rebuilt.c[i].c, rebuilt.c[i].trunc)
    assert v.is_zero() == (not rebuilt.c)


def _coordinatewise(a, b, sign):
    keys = set(a.c) | set(b.c)
    z = HPoly.zero()
    return HVector(
        {i: a.c.get(i, z) + (b.c.get(i, z) if sign > 0 else -b.c.get(i, z))
         for i in keys}
    )


@settings(max_examples=150, deadline=None)
@given(vectors, vectors, coefs, st.sampled_from(["b", "-a", "a+b"]))
def test_add_sub_scale_keep_canonical_form(a, b, c, shape):
    b = {"b": b, "-a": -a, "a+b": a + b}[shape]
    for sign, got in ((1, a + b), (-1, a - b)):
        _assert_canonical(got)
        assert got == _coordinatewise(a, b, sign)
    for k in (c, HPoly.zero(), Fraction(-1), 3, -HPoly.h(2)):
        got = a.scale(k)
        _assert_canonical(got)
        assert got == HVector({i: v * HPoly.promote(k) for i, v in a.c.items()})
    _assert_canonical(-a)
    assert (a - a).is_zero()
