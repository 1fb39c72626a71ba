import random
from fractions import Fraction

import pytest

import bvcorr.groebner as groebner
from bvcorr.groebner import (
    MilnorData,
    NonIsolatedError,
    _sum_products,
    buchberger,
    divide,
    lead,
    p_add,
    p_mul,
)
from bvcorr.polyalg import Potential


def test_a2_basis():
    mil = MilnorData(Potential.a_k(2))
    assert mil.basis == [(0,), (1,)]
    assert mil.dimension == 2


def test_a3_basis():
    mil = MilnorData(Potential.a_k(3))
    assert mil.basis == [(0,), (1,), (2,)]
    assert mil.dimension == 3


def test_non_isolated_rejected():
    pot = Potential(2, {(2, 1): Fraction(1)})  # Jacobian (2xy, x^2)
    with pytest.raises(NonIsolatedError):
        MilnorData(pot)


@pytest.mark.parametrize("pot", [
    Potential.a_k(0),  # S = x
    Potential(2, {(1, 0): Fraction(1), (0, 2): Fraction(1)}),  # S = x0 + x1^2
], ids=["x", "x0+x1^2"])
def test_unit_ideal_rejected(pot):
    with pytest.raises(NonIsolatedError, match=(
        "^the Jacobian ideal is the unit ideal: the potential has no critical point$"
    )):
        MilnorData(pot)


def test_two_variable_isolated():
    pot = Potential(2, {(3, 0): Fraction(1, 3), (0, 3): Fraction(1, 3)})
    mil = MilnorData(pot)
    assert mil.dimension == 4
    assert mil.basis == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_normal_form_examples():
    mil = MilnorData(Potential.a_k(2))
    assert mil.normal_form({(2,): Fraction(1)}) == {}
    assert mil.normal_form({(1,): Fraction(1)}) == {(1,): Fraction(1)}
    assert mil.normal_form({(3,): Fraction(2)}) == {}


def test_witnesses_reconstruct_the_input():
    pot = Potential(2, {(3, 0): Fraction(1, 3), (0, 3): Fraction(1, 3), (1, 1): Fraction(1)})
    mil = MilnorData(pot)
    p = {(4, 1): Fraction(3), (2, 2): Fraction(-1), (0, 0): Fraction(5)}
    nf = mil.normal_form(p)
    wit = mil.witnesses(p)
    recon = dict(nf)
    for q, g in zip(wit, mil.gens):
        recon = p_add(recon, p_mul(q, g))
    assert recon == p


def test_witnesses_deterministic_and_linear():
    mil = MilnorData(Potential.a_k(3))
    a = {(5,): Fraction(1)}
    b = {(4,): Fraction(2)}
    wa, wb = mil.witnesses(a), mil.witnesses(b)
    both = mil.witnesses(p_add(a, b))
    assert both == [p_add(x, y) for x, y in zip(wa, wb)]
    assert mil.witnesses(a) == wa


def test_normal_form_idempotent():
    pot = Potential(2, {(3, 0): Fraction(1, 3), (0, 3): Fraction(1, 3)})
    mil = MilnorData(pot)
    p = {(5, 2): Fraction(7), (1, 1): Fraction(1)}
    nf = mil.normal_form(p)
    assert mil.normal_form(nf) == nf


def test_buchberger_cofactors():
    toy = [
        {(2, 0): Fraction(1), (0, 1): Fraction(1)},
        {(1, 1): Fraction(1)},
    ]
    pots = {**DIVISION_POTENTIALS, **ORACLE_POTENTIALS}
    for gens in [toy] + [pot.jacobian() for pot in pots.values()]:
        basis, cofs = buchberger(gens)
        leads = [lead(g)[0] for g in basis]
        for i, (g, row) in enumerate(zip(basis, cofs)):
            acc = {}
            for q, src in zip(row, gens):
                acc = p_add(acc, p_mul(q, src))
            assert acc == g
            # reduced: monic, and no term lies under another element's lead
            assert lead(g)[1] == 1
            assert not any(
                all(a <= b for a, b in zip(le, e))
                for e in g for j, le in enumerate(leads) if j != i
            )


def test_division_remainder_irreducible():
    gens = [{(2, 0): Fraction(1)}, {(0, 2): Fraction(1)}]
    quots, rem = divide({(3, 3): Fraction(1), (1, 1): Fraction(2)}, gens)
    for exp in rem:
        assert not all(a <= b for a, b in zip((2, 0), exp))
        assert not all(a <= b for a, b in zip((0, 2), exp))


DIVISION_POTENTIALS = {
    **{f"a{k}": Potential.a_k(k) for k in range(2, 6)},
    "two_var": Potential(2, {(3, 0): Fraction(1, 3), (0, 3): Fraction(1, 3)}),
    # E6 and E7 normal forms with lower terms
    "e6": Potential(
        2, {(3, 0): Fraction(1, 3), (0, 4): Fraction(1, 4),
            (1, 2): Fraction(1, 2), (0, 2): Fraction(-1, 2)}),
    "e7": Potential(
        2, {(3, 0): Fraction(1, 3), (1, 3): Fraction(1),
            (1, 1): Fraction(1, 2), (0, 2): Fraction(1, 3)}),
}


def _random_isolated(count):
    """Seeded two-variable potentials x0^a + x1^b plus terms of lower weight.

    Every added term has weighted degree e0/a + e1/b < 1, so the Jacobian
    ideal has the quasi-homogeneous leading forms x0^(a-1), x1^(b-1) and a
    finite quotient.
    """
    rnd = random.Random("buchberger-oracle")
    out = {}
    for t in range(count):
        a, b = rnd.randint(2, 5), rnd.randint(2, 5)
        terms = {(a, 0): Fraction(rnd.randint(1, 3)), (0, b): Fraction(rnd.choice([-2, -1, 1, 3]))}
        for _ in range(rnd.randint(1, 4)):
            e = (rnd.randrange(a), rnd.randrange(b))
            if 0 < sum(e) and e[0] * b + e[1] * a < a * b:
                terms[e] = Fraction(rnd.randint(-4, 4), rnd.randint(1, 3))
        out[f"random{t}"] = Potential(2, terms)
    return out


ORACLE_POTENTIALS = {
    **{f"A{k}": Potential.a_k(k) for k in range(2, 9)},
    "D4": Potential(2, {(2, 1): Fraction(1), (0, 3): Fraction(1, 3)}),
    "E6": Potential(2, {(3, 0): Fraction(1), (0, 4): Fraction(1)}),
    "E7": Potential(2, {(3, 0): Fraction(1), (1, 3): Fraction(1)}),
    "E8": Potential(2, {(3, 0): Fraction(1), (0, 5): Fraction(1)}),
    **_random_isolated(6),
}


def _exponents(n_vars, degree):
    """Every exponent vector of total degree at most `degree`."""
    if n_vars == 0:
        yield ()
        return
    for k in range(degree + 1):
        for rest in _exponents(n_vars - 1, degree - k):
            yield (k, *rest)


@pytest.mark.parametrize("name", sorted(DIVISION_POTENTIALS))
def test_each_monomial_is_divided_once(name, monkeypatch):
    mil = MilnorData(DIVISION_POTENTIALS[name])
    calls = []
    monkeypatch.setattr(
        groebner, "divide", lambda p, gens: calls.append(1) or divide(p, gens)
    )
    exps = list(_exponents(mil.n_vars, 6))
    for exp in exps:
        # both orders of first use, then cached reads
        first, second = (
            (mil.witness_monomial, mil.normal_form_monomial)
            if sum(exp) % 2 else (mil.normal_form_monomial, mil.witness_monomial)
        )
        first(exp)
        second(exp)
        nf, wit = mil.normal_form_monomial(exp), mil.witness_monomial(exp)
        quots, rem = divide({exp: Fraction(1)}, mil.gb)
        assert nf == rem
        assert wit == [
            _sum_products(quots, [row[k] for row in mil.cofactors])
            for k in range(len(mil.gens))
        ]
        recon = dict(nf)
        for w, g in zip(wit, mil.gens):
            recon = p_add(recon, p_mul(w, g))
        assert recon == {exp: Fraction(1)}
    assert len(calls) == len(exps)


@pytest.mark.parametrize("name", ["e6", "e7", "two_var"])
def test_division_against_sympy_on_the_milnor_basis(name):
    # the reduced Groebner basis fixes the remainder, whatever the strategy
    sympy = pytest.importorskip("sympy")
    mil = MilnorData(DIVISION_POTENTIALS[name])
    x = sympy.symbols("x0 x1")

    def expr(p):
        return sympy.Add(*(sympy.Rational(c.numerator, c.denominator) * x[0] ** e[0]
                           * x[1] ** e[1] for e, c in p.items()))

    basis = [expr(g) for g in mil.gb]
    leads = [lead(g)[0] for g in mil.gb]
    rnd = random.Random(f"divide-{name}")
    for _ in range(12):
        p = {(rnd.randrange(8), rnd.randrange(8)): Fraction(rnd.randint(-9, 9), rnd.randint(1, 6))
             for _ in range(6)}
        p = {e: c for e, c in p.items() if c}
        quots, rem = divide(p, mil.gb)
        recon = dict(rem)
        for q, g in zip(quots, mil.gb):
            recon = p_add(recon, p_mul(q, g))
        assert recon == p
        assert not any(all(a <= b for a, b in zip(le, e)) for e in rem for le in leads)
        _, want = sympy.reduced(expr(p), basis, *x, order="grlex")
        assert sympy.expand(expr(rem) - want) == 0


def _sympy_monic_basis(sympy, gens, n_vars):
    """sympy's reduced grlex basis as monic {exponent: Fraction} dicts."""
    x = sympy.symbols(f"x0:{n_vars}")
    exprs = [
        sympy.Add(*(sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(
            v ** k for v, k in zip(x, e))) for e, c in g.items()))
        for g in gens
    ]
    out = []
    for g in sympy.groebner(exprs, *x, order="grlex").exprs:
        p = dict(sympy.Poly(g, *x).terms())
        _, lc = lead(p)
        out.append({e: Fraction(str(c / lc)) for e, c in p.items()})
    return out


@pytest.mark.parametrize("name", sorted(ORACLE_POTENTIALS))
def test_buchberger_against_sympy(name):
    # the reduced grlex basis is unique, so it is a value to compare
    sympy = pytest.importorskip("sympy")
    pot = ORACLE_POTENTIALS[name]
    basis, _ = buchberger(pot.jacobian())
    want = _sympy_monic_basis(sympy, pot.jacobian(), pot.n_vars)
    assert len(basis) == len(want)
    assert {lead(g)[0]: g for g in basis} == {lead(g)[0]: g for g in want}
    # the Milnor number counts the monomials under sympy's leading terms
    leads = [lead(g)[0] for g in want]
    box = _exponents(pot.n_vars, max(sum(le) for le in leads) * pot.n_vars)
    under = [e for e in box if not any(all(a <= b for a, b in zip(le, e)) for le in leads)]
    assert MilnorData(pot).dimension == len(under)
