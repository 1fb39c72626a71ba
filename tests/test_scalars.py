import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from bvcorr.fmanifold import TSeries
from bvcorr.hspace import HVector
from bvcorr.polyalg import PolyElement, collect_product
from bvcorr.scalars import HPoly, NotDivisibleError, _times, sum_pairs


def hp(d):
    return HPoly({k: Fraction(v) for k, v in d.items()})


small_polys = st.dictionaries(
    st.integers(min_value=-3, max_value=5),
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


def test_laurent_shift_and_bounds():
    v = HPoly({0: 1, 2: -1})
    w = v * HPoly.neg_h(-3)
    assert w.coeff(-3) == -1
    assert w.coeff(-1) == 1
    assert w.low() == -3


def test_equality_compares_common_window():
    exact = hp({0: 1, 5: 7})
    coarse = HPoly({0: 1}, trunc=3)
    assert exact == coarse  # they agree through order 3
    assert exact != HPoly({0: 2}, trunc=3)


# -- the one-term product against the general double loop -------------

INF = 10**9


def _reference_product(a, b):
    """(trunc, coefficients) of a * b by the general double loop; a finite
    window grows by the other factor's valuation, an exact one stays exact."""
    va = min(a.c) if a.c else INF
    vb = min(b.c) if b.c else INF
    t = min(a.trunc + vb if a.trunc < INF else INF,
            b.trunc + va if b.trunc < INF else INF, INF)
    c = {}
    for i, x in a.c.items():
        for j, y in b.c.items():
            if i + j <= t:
                c[i + j] = c.get(i + j, Fraction(0)) + x * y
    return t, {k: v for k, v in c.items() if v != 0}


truncs = st.one_of(st.none(), st.integers(min_value=0, max_value=7))
one_term = st.builds(
    lambda k, v, t: HPoly({k: v}, trunc=t),
    st.integers(min_value=0, max_value=5),
    st.one_of(
        st.sampled_from([Fraction(1), Fraction(-1)]),
        st.fractions(max_denominator=6).filter(lambda v: v != 0),
    ),
    truncs,
)
series = st.builds(
    lambda d, t: HPoly(d, trunc=t),
    st.dictionaries(
        st.integers(min_value=0, max_value=6),
        st.fractions(max_denominator=6),
        max_size=4,
    ),
    truncs,
)


@settings(max_examples=200, deadline=None)
@given(one_term, series)
def test_one_term_product_matches_double_loop(m, p):
    for a, b in ((m, p), (p, m), (m, m)):
        got = a * b
        assert (got.trunc, got.c) == _reference_product(a, b)
        assert all(v != 0 for v in got.c.values())


def _shift(p, k):
    """p * h^k coefficient by coefficient; an exact window stays exact."""
    return HPoly({e + k: v for e, v in p.c.items()},
                 trunc=None if p.trunc >= INF else p.trunc + k)


@settings(max_examples=100, deadline=None)
@given(series, series, st.integers(0, 4), st.integers(0, 4))
def test_negative_exponents_match_shifted_products(a, b, j, k):
    la, lb = _shift(a, -j), _shift(b, -k)
    got = la * lb
    assert (got.trunc, got.c) == _reference_product(la, lb)
    # shifting back by h^(j+k) gives the product of the nonnegative series
    t, c = _reference_product(a, b)
    assert got.c == {e - j - k: v for e, v in c.items()}
    if t < INF:
        assert got.trunc == t - j - k
    total = la + _shift(b, -j)
    want = _shift(a + b, -j)
    assert (total.trunc, total.c) == (want.trunc, want.c)


@settings(max_examples=60, deadline=None)
@given(series, st.one_of(st.integers(-3, 3), st.fractions(max_denominator=6)))
def test_scalar_product_matches_const_product(p, s):
    want = _reference_product(p, HPoly({0: Fraction(s)}))
    assert ((p * s).trunc, (p * s).c) == want
    assert ((s * p).trunc, (s * p).c) == want


def test_neg_h_carries_the_sign():
    for k in range(-4, 5):
        for s in (1, -1):
            w = HPoly.neg_h(k, s)
            assert w.trunc == INF
            assert w.c == {k: Fraction(s * (-1) ** abs(k))}
        assert HPoly.neg_h(k) * HPoly.neg_h(-k) == 1
    # exact division never produces a negative exponent
    v = HPoly({-2: 1, 1: 3})
    for k in (0, 1, 2):
        for divide in (v.h_divide, v.neg_h_divide):
            with pytest.raises(NotDivisibleError) as exc:
                divide(k)
            assert exc.value.offending_exponent == -2


def test_exact_times_negative_power_stays_exact():
    p = HPoly.const(3) * HPoly.neg_h(-2)
    assert (p.trunc, p.c) == (INF, {-2: Fraction(3)})
    q = HPoly({3: 5}) * HPoly.neg_h(-1)
    assert (q.trunc, q.c) == (INF, {2: Fraction(-5)})
    d = q.h_divide(2)
    assert (d.trunc, d.c) == (INF, {0: Fraction(-5)})
    # a finite window still shifts by the valuation of the exact factor
    f = HPoly({2: 1}, trunc=4) * HPoly.neg_h(-1)
    assert (f.trunc, f.c) == (3, {1: Fraction(-1)})


# -- the fused sum of products against the fold -------------

factor = st.builds(
    lambda d, t, j: _shift(HPoly(d, trunc=t), -j),
    st.one_of(
        st.dictionaries(st.integers(0, 6), st.fractions(max_denominator=6), max_size=4),
        st.builds(lambda k, v: {k: v}, st.integers(0, 5), st.one_of(
            st.sampled_from([Fraction(1), Fraction(-1)]),
            st.integers(-3, 3).filter(lambda v: v not in (-1, 0, 1)).map(Fraction),
            st.fractions(max_denominator=6).filter(lambda v: v != 0),
        )),
    ),
    truncs,
    st.integers(0, 3),
)


def _fold(pairs):
    # products by the reference double loop: HPoly.__mul__ is a one-pair dot
    acc = HPoly.zero()
    for a, b in pairs:
        t, c = _reference_product(a, b)
        acc = acc + HPoly(c, trunc=t)
    return acc


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(factor, factor), max_size=5), st.integers(0, 6))
@example([], 0)  # the empty sum: an exact zero
@example([(HPoly({0: 1, 2: Fraction(1, 2)}, trunc=3), HPoly.neg_h(1))], 1)
def test_dot_matches_the_fold(pairs, cancel):
    # finite and exact windows, negative exponents, one-term +-1 and +-k
    # factors; negated copies of the first products cancel them to zero,
    # and a cancelled sum keeps its window
    pairs = pairs + [(-a, b) for a, b in pairs[:cancel]]
    for order in (pairs, pairs[::-1]):
        got, want = HPoly.dot(iter(order)), _fold(order)
        assert (got.trunc, got.c) == (want.trunc, want.c)
        assert all(v != 0 for v in got.c.values())


# -- one product with a one-term factor against the one-pair dot -------------

product_factor = st.one_of(
    factor,  # exact and windowed, one-term and multi-term, negative exponents
    st.just(HPoly.const(1)),
    st.builds(HPoly.neg_h, st.integers(-3, 4), st.sampled_from([1, -1])),  # +-h^k
    st.builds(lambda k, v: HPoly({k: v}), st.integers(-3, 4),
              st.fractions(max_denominator=6).filter(lambda v: v not in (0, 1, -1))),
    st.builds(HPoly.zero, truncs),  # exact and windowed zeros
)


@settings(max_examples=300, deadline=None)
@given(product_factor, product_factor)
@example(HPoly.const(1), HPoly({0: 1, 2: 3}, trunc=2))
@example(HPoly.neg_h(-1, -1), HPoly({1: 2}, trunc=3))
@example(HPoly({2: Fraction(3, 4)}), HPoly.zero(4))
def test_one_product_matches_a_one_pair_dot(a, b):
    # the shortcut for a single exact term s h^j shifts, negates or scales
    # the other factor; its window and coefficients are the dot's
    want = HPoly.dot(((a, b),))
    for got in (_times(a, b), _times(b, a), a * b, b * a):
        assert (got.trunc, got.c) == (want.trunc, want.c)
    closed = sum_pairs({"key": [(a, b)]})
    assert closed == ({"key": want} if want.c else {})
    if want.c:
        assert (closed["key"].trunc, closed["key"].c) == (want.trunc, want.c)


def test_a_product_with_one_returns_the_other_factor():
    p = HPoly({-1: Fraction(1, 2), 3: 2}, trunc=5)
    assert _times(HPoly.const(1), p) is p
    assert _times(p, HPoly.const(1)) is p
    assert p * 1 is p


# -- one canonical form for every Combination -------------

windowed = st.builds(
    lambda d, t: HPoly(d, trunc=t),
    st.dictionaries(
        st.integers(min_value=0, max_value=4),
        st.integers(-2, 2).map(Fraction),
        min_size=1,
        max_size=3,
    ),
    st.one_of(st.none(), st.integers(min_value=0, max_value=5)),
)


def _tseries(terms):
    s = TSeries(2, 3)
    for e, v in terms.items():
        s.add_term(e, v)
    return s


# kind -> (key strategy, constructor from {key: HPoly})
KINDS = {
    "HVector": (st.integers(0, 3), HVector),
    # unsorted and repeated eta words exercise the constructor's normalization
    "PolyElement": (
        st.tuples(
            st.tuples(st.integers(0, 2), st.integers(0, 2)),
            st.lists(st.integers(0, 1), max_size=2).map(tuple),
        ),
        lambda terms: PolyElement(2, terms),
    ),
    "TSeries": (st.tuples(st.integers(0, 2), st.integers(0, 2)), _tseries),
}


def _assert_canonical(v, build):
    rebuilt = build(v.terms)
    assert rebuilt.terms.keys() == v.terms.keys()
    for key, coef in v.terms.items():
        assert not coef.is_zero()
        assert (coef.c, coef.trunc) == (rebuilt.terms[key].c, rebuilt.terms[key].trunc)
    assert v.is_zero() == (not rebuilt.terms)


def _keywise(a, b, sign, build):
    z = HPoly.zero()
    return build({
        k: a.terms.get(k, z) + (b.terms.get(k, z) if sign > 0 else -b.terms.get(k, z))
        for k in a.terms.keys() | b.terms.keys()
    })


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_combination_keeps_canonical_form(kind, data):
    # "-a" and "a+b" force cancellations, exact and through finite windows
    keys, build = KINDS[kind]
    elements = st.dictionaries(keys, windowed, max_size=4).map(build)
    a, b, c = data.draw(elements), data.draw(elements), data.draw(windowed)
    b = {"b": b, "-a": -a, "a+b": a + b}[data.draw(st.sampled_from(["b", "-a", "a+b"]))]
    for sign, got in ((1, a + b), (-1, a - b)):
        _assert_canonical(got, build)
        assert got == _keywise(a, b, sign, build)
    for k in (c, HPoly.zero(), Fraction(-1), 3, -HPoly.h(2)):
        got = a.scale(k)
        _assert_canonical(got, build)
        assert got == build({key: v * HPoly.promote(k) for key, v in a.terms.items()})
    _assert_canonical(-a, build)
    assert (a - a).is_zero()


# -- the linear-combination kernel against the fold -------------

# stored coefficients are nonzero: terms at or below the lowest window
coef = st.builds(
    lambda d, t, j: _shift(HPoly(d, trunc=t), -j),
    st.dictionaries(st.integers(0, 3), st.builds(
        Fraction, st.sampled_from([-3, -2, -1, 1, 2, 3]), st.integers(1, 3)),
        min_size=1, max_size=3),
    st.one_of(st.none(), st.integers(3, 6)),
    st.integers(0, 2),
)
poly_values = st.dictionaries(
    st.tuples(st.tuples(st.integers(0, 3)), st.sampled_from([(), (0,)])),
    coef, min_size=1, max_size=3,
).map(lambda d: PolyElement._of(1, d))
eta_free = st.dictionaries(
    st.tuples(st.tuples(st.integers(0, 3)), st.just(())), coef, min_size=1, max_size=3,
).map(lambda d: PolyElement._of(1, d))
vector_values = st.dictionaries(
    st.integers(0, 3), coef, min_size=1, max_size=3).map(HVector._of)
multiplicity = st.builds(
    HPoly.neg_h, st.integers(-1, 3), st.sampled_from([-3, -2, -1, 1, 2, 3]))


def _windows(terms):
    return {key: (c.trunc, c.c) for key, c in terms.items()}


def _cancels(steps) -> bool:
    """Whether a running sum of the fold, key by key, ever cancels to zero."""
    run = {}
    for step in steps:
        for key, v in step.items():
            total = run[key] + v if key in run else v
            if not total.c:
                return True
            run[key] = total
    return False


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(poly_values, coef), max_size=4),
       st.lists(st.tuples(poly_values, eta_free, multiplicity), max_size=3),
       st.lists(st.tuples(vector_values, coef), max_size=4))
def test_kernel_matches_the_fold(values, products, vectors):
    # the folds acc + x.scale(w) and acc + (a * b).scale(w) against the
    # kernel, which collects (coefficient, weight) pairs per key and closes
    # each with one HPoly.dot; finite and exact windows, negative exponents
    inner = [[{((e1[0] + e2[0],), t1): c1 * c2}]
             for a, b, _ in products
             for (e1, t1), c1 in a.terms.items() for (e2, _), c2 in b.terms.items()]
    steps = [x.scale(w).terms for x, w in values]
    steps += [(a * b).scale(w).terms for a, b, w in products]
    assume(not _cancels(steps) and not any(_cancels(s) for s in inner))
    assume(not _cancels([x.scale(w).terms for x, w in vectors]))

    fold, terms = PolyElement.zero(1), {}
    for x, w in values:
        fold = fold + x.scale(w)
        x.collect(terms, w)
    for a, b, w in products:
        fold = fold + (a * b).scale(w)
        collect_product(terms, a, b, w)
    assert _windows(sum_pairs(terms)) == _windows(fold.terms)

    fold, terms = HVector.zero(), {}
    for x, w in vectors:
        fold = fold + x.scale(w)
        x.collect(terms, w)
    assert _windows(sum_pairs(terms)) == _windows(fold.terms)


def test_kernel_keeps_a_window_the_fold_drops():
    # x known through h^2, then -x exact: the partial sum cancels inside the
    # window, Combination._combine drops the key with its window, and the last
    # term's 3h then reads as exact; the kernel keeps the least window
    x = PolyElement.x(0, 1)
    parts = [(x, HPoly({0: 1}, trunc=2)), (x, HPoly.neg_h(0, -1)), (x, HPoly({1: 3}))]
    fold, terms = PolyElement.zero(1), {}
    for v, w in parts:
        fold = fold + v.scale(w)
        v.collect(terms, w)
    ((key, want),) = fold.terms.items()
    got = sum_pairs(terms)[key]
    assert got.c == want.c == {1: 3}
    assert (got.trunc, want.trunc) == (2, INF)


# -- integer coefficient sums against a Fraction fold -------------

mixed = st.builds(
    lambda d, t, j: _shift(HPoly(d, trunc=t), -j),
    st.dictionaries(st.integers(0, 5), st.builds(
        Fraction, st.integers(-40, 40), st.sampled_from([1, 2, 3, 4, 5, 6, 7, 9, 12, 35])),
        max_size=4),
    truncs,
    st.integers(0, 3),
)


def _fraction_fold(pairs):
    """(trunc, coefficients) of the sum of products, each key a Fraction
    left fold; the window is the least product window."""
    t, c = INF, {}
    for a, b in pairs:
        pt, _ = _reference_product(a, b)
        t = min(t, pt)
        for i, x in a.c.items():
            for j, y in b.c.items():
                c[i + j] = c.get(i + j, Fraction(0)) + x * y
    return t, {k: v for k, v in c.items() if v != 0 and k <= t}


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(mixed, mixed), max_size=6))
def test_integer_sums_match_a_fraction_fold(pairs):
    got = HPoly.dot(pairs)
    t, want = _fraction_fold(pairs)
    assert got.trunc == t
    assert {k: str(v) for k, v in got.c.items()} == {k: str(v) for k, v in want.items()}
    assert all(type(v) is Fraction for v in got.c.values())


def test_a_cancelled_key_keeps_the_least_window():
    a = HPoly({0: Fraction(2, 3), 1: Fraction(-5, 4)}, trunc=4)
    b = HPoly({1: Fraction(7, 6)}, trunc=3)
    got = HPoly.dot([(a, HPoly.h()), (b, HPoly.const(2)), (-a, HPoly.h()),
                     (b, HPoly.const(-2))])
    assert (got.trunc, got.c) == (3, {})
    empty = HPoly.dot([])
    assert (empty.trunc, empty.c) == (INF, {})


def test_a_long_sum_keeps_its_denominator_at_the_lcm(monkeypatch):
    # each key's sum reaches its one Fraction over the lcm of its terms'
    # denominators, not over the products that pairwise addition builds
    import bvcorr.scalars as scalars

    dens = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
    terms = [Fraction((-1) ** i * (i + 1), dens[i % len(dens)]) for i in range(200)]
    pairs = [(HPoly._of({0: v}, INF), HPoly.h(i % 3)) for i, v in enumerate(terms)]
    built = []
    monkeypatch.setattr(
        scalars, "Fraction", lambda n, d=1: built.append(d) or Fraction(n, d))
    got = HPoly.dot(pairs)
    monkeypatch.undo()
    assert built == [math.lcm(*(v.denominator for v in terms[k::3])) for k in range(3)]
    assert max(built) <= math.lcm(*dens)
    for k in range(3):
        assert got.c[k] == sum(terms[k::3], Fraction(0))
