import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bvcorr.groebner import MilnorData
from bvcorr.partitions import ArityCapError, signed_partitions, sort_sign
from bvcorr.polyalg import (
    DescendantFamily,
    PolyElement,
    Potential,
    bv_bracket,
    classical_K,
    delta_op,
    quantum_K,
)
from bvcorr.retract import spanning_monomials
from bvcorr.scalars import HPoly, NotDivisibleError
from test_nonbv import distinguished_blocks, third_order

A2 = Potential.a_k(2)
X = PolyElement.x(0, 1)
ETA = PolyElement.eta(0, 1)
ONE = PolyElement.one(1)


def test_product_unit_law():
    assert X * ONE == X
    assert ONE * (X * ETA) == X * ETA


def test_product_odd_anticommutativity():
    n1 = PolyElement.eta(0, 2)
    n2 = PolyElement.eta(1, 2)
    assert n1 * n2 == -(n2 * n1)
    assert (n1 * n2).terms  # nonzero


def test_product_odd_square():
    assert (ETA * ETA).is_zero()


def test_delta_examples():
    assert delta_op(X * ETA) == ONE
    assert delta_op(X).is_zero()
    two = PolyElement.x(0, 2) * PolyElement.eta(1, 2)
    assert delta_op(two).is_zero()  # mismatched variable pair


def test_bracket_examples():
    assert bv_bracket(X, ETA) == ONE
    assert bv_bracket(ONE, X * ETA).is_zero()
    assert bv_bracket(X, PolyElement.x(0, 1, 2)).is_zero()
    with pytest.raises(ValueError):
        bv_bracket(X + ETA, X)


def test_classical_K_examples():
    assert classical_K(A2, ETA) == PolyElement.x(0, 1, 2)
    assert classical_K(A2, X).is_zero()
    assert classical_K(A2, ONE).is_zero()


def test_quantum_K_examples():
    assert quantum_K(A2, ETA) == PolyElement.x(0, 1, 2)
    expected = PolyElement.x(0, 1, 3) - ONE.scale(HPoly.h())
    assert quantum_K(A2, X * ETA) == expected
    assert quantum_K(A2, ONE).is_zero()


def test_operator_squares_on_span():
    for pot in (A2, Potential.a_k(3)):
        for m in spanning_monomials(1, 8):
            assert delta_op(delta_op(m)).is_zero()
            assert classical_K(pot, classical_K(pot, m)).is_zero()
            anti = delta_op(classical_K(pot, m)) + classical_K(pot, delta_op(m))
            assert anti.is_zero()


def test_failure_of_derivation_identity():
    for a in spanning_monomials(1, 5):
        for b in spanning_monomials(1, 5):
            lhs = quantum_K(A2, a * b) - quantum_K(A2, a) * b - a.J() * quantum_K(A2, b)
            assert lhs == bv_bracket(a, b).scale(-HPoly.h())


def _random_homog(rng):
    etas = () if rng.random() < 0.5 else (0,)
    d = rng.randrange(4)
    c = rng.choice((-2, -1, 1, 2))
    e = PolyElement.monomial(1, (d,), etas, c)
    if rng.random() < 0.4:
        e = e + PolyElement.monomial(1, (rng.randrange(4),), etas, rng.choice((-1, 1)))
    return e if not e.is_zero() else PolyElement.monomial(1, (1,), etas)


def test_descendant_ell1_is_quantum_K():
    fam = DescendantFamily(A2)
    for m in spanning_monomials(1, 4):
        assert fam.ell(1, [m]) == quantum_K(A2, m)


def test_descendant_ell2_is_bracket():
    fam = DescendantFamily(A2)
    rng = random.Random(11)
    for _ in range(40):
        a, b = _random_homog(rng), _random_homog(rng)
        assert fam.ell(2, [a, b]) == bv_bracket(a, b)


def test_descendant_collapse_at_higher_arity():
    fam = DescendantFamily(A2)
    rng = random.Random(12)
    for n in (3, 4, 5):
        for _ in range(25):
            args = [_random_homog(rng) for _ in range(n)]
            assert fam.ell(n, args).is_zero()


def test_descendant_three_term_recursion():
    # -h ell_n(..., a, b) = ell_{n-1}(..., ab) - ell_{n-1}(..., a) b
    #                       - (sign) Ja ell_{n-1}(..., b)
    fam = DescendantFamily(A2)
    rng = random.Random(13)
    for n in (2, 3):
        for _ in range(20):
            args = [_random_homog(rng) for _ in range(n + 1)]
            front, a, b = args[:-2], args[-2], args[-1]
            lhs = fam.ell(n + 1, args).scale(-HPoly.h())
            rhs = fam.ell(n, front + [a * b])
            rhs = rhs - fam.ell(n, front + [a]) * b
            sgn = 1
            if a.ghost() % 2 and sum(f.ghost() for f in front) % 2:
                sgn = -1
            rhs = rhs - (a.J() * fam.ell(n, front + [b])).scale(Fraction(sgn))
            assert lhs == rhs


def test_bracket_is_derivation():
    rng = random.Random(14)
    for _ in range(30):
        a, b, c = (_random_homog(rng) for _ in range(3))
        lhs = bv_bracket(a, b * c)
        sgn = Fraction(-1) if ((a.ghost() + 1) % 2 and b.ghost() % 2) else Fraction(1)
        rhs = bv_bracket(a, b) * c + (b * bv_bracket(a, c)).scale(sgn)
        assert lhs == rhs


def test_descendant_unital_relations():
    # the family kills a unit slot and satisfies the Jacobi-type sums
    from bvcorr.partitions import koszul_sign, set_partitions

    fam = DescendantFamily(A2)
    rng = random.Random(15)
    for n in (2, 3, 4):
        for _ in range(8):
            args = [_random_homog(rng) for _ in range(n - 1)] + [ONE]
            val = fam.ell(n, args)
            if n == 1:
                continue
            assert val.is_zero()
    # Jacobi sums on random tuples up to arity 4
    for n in (1, 2, 3, 4):
        for _ in range(6):
            args = [_random_homog(rng) for _ in range(n)]
            degs = [a.ghost() for a in args]
            acc = PolyElement.zero(1)
            for p in set_partitions(n):
                eps = koszul_sign(p, degs)
                for i, block in distinguished_blocks(p, n):
                    inner = fam.ell(len(block), [args[j - 1] for j in block])
                    outer = []
                    for bi, b in enumerate(p):
                        if bi == i:
                            outer.append(inner)
                        elif bi < i:
                            outer.append(args[b[0] - 1].J())
                        else:
                            outer.append(args[b[0] - 1])
                    if any(o.is_zero() for o in outer):
                        continue
                    if not all(o.is_homogeneous() for o in outer):
                        continue
                    acc = acc + fam.ell(len(p), outer).scale(Fraction(eps))
            assert acc.is_zero()


def test_arity_cap():
    fam = DescendantFamily(A2)
    with pytest.raises(ArityCapError):
        fam.ell(7, [X] * 7)


def test_jacobian():
    pot = Potential(2, {(2, 1): Fraction(1)})
    gx, gy = pot.jacobian()
    assert gx == {(1, 1): Fraction(2)}
    assert gy == {(2, 0): Fraction(1)}


def test_two_variable_operator_identities():
    pot = Potential(2, {(3, 0): Fraction(1, 3), (0, 3): Fraction(1, 3), (1, 1): Fraction(1)})
    for m in spanning_monomials(2, 4):
        assert delta_op(delta_op(m)).is_zero()
        assert classical_K(pot, classical_K(pot, m)).is_zero()
        anti = delta_op(classical_K(pot, m)) + classical_K(pot, delta_op(m))
        assert anti.is_zero()
    span = spanning_monomials(2, 3)
    for a in span:
        for b in span:
            lhs = (
                quantum_K(pot, a * b)
                - quantum_K(pot, a) * b
                - a.J() * quantum_K(pot, b)
            )
            assert lhs == bv_bracket(a, b).scale(-HPoly.h())


def _elements(n_vars=2):
    term = st.tuples(
        st.tuples(*([st.integers(0, 3)] * n_vars)),
        st.lists(st.integers(0, n_vars - 1), max_size=n_vars, unique=True),
        st.fractions(max_denominator=4),
    )
    return st.lists(term, max_size=3).map(
        lambda ts: sum(
            (PolyElement.monomial(n_vars, e, tuple(et), c) for e, et, c in ts),
            PolyElement.zero(n_vars),
        )
    )


@settings(max_examples=50, deadline=None)
@given(_elements(), _elements(), _elements())
def test_algebra_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    one = PolyElement.one(2)
    assert a * one == a


@settings(max_examples=50, deadline=None)
@given(_elements(), _elements())
def test_graded_commutativity(a, b):
    # compare homogeneous pieces: ab = (-1)^{|a||b|} ba
    pa, pb = a.ghost_parts(), b.ghost_parts()
    for ga, va in pa.items():
        for gb, vb in pb.items():
            sign = Fraction(-1) if (ga % 2 and gb % 2) else Fraction(1)
            assert va * vb == (vb * va).scale(sign)


def test_two_variable_descendant_collapse():
    pot = Potential(2, {(3, 0): Fraction(1, 3), (0, 3): Fraction(1, 3)})
    fam = DescendantFamily(pot)
    rng = random.Random(21)
    span = spanning_monomials(2, 3)
    for n in (3, 4):
        for _ in range(15):
            args = [span[rng.randrange(len(span))] for _ in range(n)]
            assert fam.ell(n, args).is_zero()


def test_jacobian_is_computed_once_and_read_only():
    pot = Potential(2, {(3, 0): 1, (1, 2): Fraction(1, 2), (0, 4): 2})
    gens = pot.jacobian()
    assert pot.jacobian() is gens
    assert gens == ({(2, 0): 3, (0, 2): Fraction(1, 2)}, {(1, 1): 1, (0, 3): 8})
    with pytest.raises(TypeError):
        gens[0][(0, 0)] = 1
    with pytest.raises((TypeError, AttributeError)):
        gens.append({})
    MilnorData(pot)
    assert pot.jacobian() == ({(2, 0): 3, (0, 2): Fraction(1, 2)}, {(1, 1): 1, (0, 3): 8})


# -- the closed form against the partition recursion -------------


def _insertions(n, degs):
    # (p, i, sign) per distinguished block B_i, sign = eps(p) times the
    # J-signs of the blocks before B_i
    out = []
    for p, sign in signed_partitions(n, degs):
        for i, b in enumerate(p):
            if len(b) == n - len(p) + 1:  # distinguished: the rest singletons
                out.append((p, i, sign))
            sign *= (-1) ** sum(degs[j - 1] for j in b)
    return out


def _monomial_combos(term_dicts):
    """Expand a product of sparse sums, each a dict of key -> HPoly
    coefficient, into (key-tuple, coefficient) pairs."""
    combos = [((), HPoly.const(1))]
    for terms in term_dicts:
        combos = [
            (key + (mono,), coef * c)
            for key, coef in combos
            for mono, c in terms.items()
        ]
    return combos


class _RecursiveFamily:
    """ell_n by the partition recursion, a test-only reference.

    K of the product minus every insertion of a lower-arity bracket into a
    distinguished block, divided by (-h)^(n-1); values on monomial tuples
    are memoized on canonical order and general inputs expand by
    multilinearity.
    """

    def __init__(self, pot, differential=None):
        self.pot = pot
        self._K = differential if differential is not None else (
            lambda a: quantum_K(pot, a)
        )
        self._memo = {}

    def ell(self, n, args):
        args = list(args)
        if n == 1:
            return self._K(args[0])
        out = PolyElement.zero(self.pot.n_vars)
        for combo, coef in _monomial_combos([a.terms for a in args]):
            out = out + self._ell_monomials(n, combo).scale(coef)
        return out

    def _ell_monomials(self, n, monos):
        canon, csign = sort_sign(monos, [-len(m[1]) for m in monos])
        if csign == 0:
            return PolyElement.zero(self.pot.n_vars)
        if csign < 0:
            return -self._ell_monomials(n, canon)
        monos = canon
        key = (n, monos)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        nv = self.pot.n_vars
        elems = [PolyElement(nv, {m: 1}) for m in monos]
        degs = [-len(m[1]) for m in monos]
        prod = elems[0]
        for e in elems[1:]:
            prod = prod * e
        acc = self._K(prod)
        for p, i, sign in _insertions(n, degs):
            if len(p) == 1:
                continue
            term = None
            for bi, b in enumerate(p):
                if bi == i:
                    factor = self.ell(len(b), [elems[j - 1] for j in b])
                else:
                    factor = elems[b[0] - 1]
                term = factor if term is None else term * factor
            acc = acc - term.scale(HPoly.neg_h(n - len(p), sign))
        try:
            val = acc.neg_h_divide(n - 1)
        except NotDivisibleError as e:
            raise NotDivisibleError(
                e.offending_exponent,
                f"descendant recursion not h-divisible at arity {n}: "
                "the algebra is not a binary QFT algebra",
            ) from e
        self._memo[key] = val
        return val


TWO_VAR = Potential(2, {(3, 0): Fraction(1, 3), (0, 3): Fraction(1, 3), (1, 1): Fraction(1, 2)})


def _random_arg(rng, n_vars):
    """A homogeneous element of 1-3 terms, each with |etas| = g."""
    g = rng.randrange(n_vars + 1)
    words = [w for w in ((), (0,), (1,), (0, 1)) if len(w) == g and max(w, default=0) < n_vars]
    out = PolyElement.zero(n_vars)
    while out.is_zero():
        for _ in range(rng.randint(1, 3)):
            exp = tuple(rng.randrange(4) for _ in range(n_vars))
            out = out + PolyElement.monomial(n_vars, exp, rng.choice(words), rng.choice((-2, -1, 1, 3)))
    return out


@pytest.mark.parametrize("pot, differential, seed", [
    (A2, None, 41),
    (TWO_VAR, None, 42),
    (A2, third_order, 43),
])
def test_closed_form_matches_the_partition_recursion(pot, differential, seed):
    fam = DescendantFamily(pot, differential=differential)
    ref = _RecursiveFamily(pot, differential=differential)
    rng = random.Random(seed)
    live = set()
    for n in range(1, 7):
        for _ in range(12 if n < 5 else 4):
            args = [_random_arg(rng, pot.n_vars) for _ in range(n)]
            got = fam.ell(n, args)
            assert got == ref.ell(n, args), (n, args)
            if not got.is_zero():
                live.add(n)
            # a transposition of a_i and a_j costs the Koszul sign of moving
            # each past the other and past everything between them
            i, j = sorted(rng.sample(range(n), 2)) if n > 1 else (0, 0)
            if i == j:
                continue
            odd = [a.ghost() % 2 for a in args]
            flips = odd[i] * odd[j] + (odd[i] + odd[j]) * sum(odd[i + 1:j])
            swapped = list(args)
            swapped[i], swapped[j] = args[j], args[i]
            assert fam.ell(n, swapped) == got.scale(Fraction((-1) ** flips))
    # Khat is second order and the non-BV differential third order
    assert live == ({1, 2, 3} if differential else {1, 2})


def test_divisibility_is_checked_at_the_arity_asked_for():
    # d^3/(dx^2 deta): third_order without its h^2, so Phi_2 and Phi_3 are
    # not h-divisible; the closed form names the arity it divides
    def undivided(c):
        return third_order(c).h_divide(2)

    fam = DescendantFamily(A2, differential=undivided)
    with pytest.raises(NotDivisibleError, match="at arity 2"):
        fam.ell(2, [X * X, ETA])
    with pytest.raises(NotDivisibleError, match="at arity 3"):
        fam.ell(3, [X, X, ETA])
    # Phi_4 of a third-order operator vanishes: ell_4 is 0 although the
    # recursion through lower arities stops at the undivisible ell_2
    args = [X, X, X * X, ETA]
    assert fam.ell(4, args).is_zero()
    with pytest.raises(NotDivisibleError, match="at arity 2"):
        _RecursiveFamily(A2, differential=undivided).ell(4, args)
