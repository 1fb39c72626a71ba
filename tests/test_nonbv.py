"""A synthetic binary QFT algebra that is not of BV type.

The differential h^2 d^3/(dx^2 d eta) is third order, squares to zero, and
kills the unit, so its iterated product failures are h-divisible; the
resulting descendant family has h-dependent ell_2 and nonvanishing ell_3,
exercising Koszul's closed formula beyond the second-order collapse.
"""

import random
from fractions import Fraction

from bvcorr.partitions import koszul_sign, set_partitions
from bvcorr.polyalg import (
    DescendantFamily,
    PolyElement,
    Potential,
    _eta_derivative_sign,
)
from bvcorr.retract import spanning_monomials
from bvcorr.scalars import HPoly

X = PolyElement.x(0, 1)
ETA = PolyElement.eta(0, 1)
ONE = PolyElement.one(1)


def third_order(c: PolyElement) -> PolyElement:
    out = PolyElement.zero(1)
    for (exp, etas), coef in c.terms.items():
        if 0 not in etas or exp[0] < 2:
            continue
        rest, sgn = _eta_derivative_sign(etas, 0)
        d = exp[0]
        out = out + PolyElement(1, {((d - 2,), rest): coef}).scale(
            HPoly({2: Fraction(sgn * d * (d - 1))})
        )
    return out


def distinguished_blocks(partition, n):
    """(i, B_i) for each block with |B_i| = n - |p| + 1: every other block
    is then a singleton, so B_i is where a bracket is inserted."""
    return [(i, b) for i, b in enumerate(partition) if len(b) == n - len(partition) + 1]


def _family():
    return DescendantFamily(Potential.a_k(2), differential=third_order)


def test_differential_is_pointed_and_square_zero():
    assert third_order(ONE).is_zero()
    for m in spanning_monomials(1, 6):
        assert third_order(third_order(m)).is_zero()


def test_not_bv_type():
    fam = _family()
    # h-dependent two-bracket and a nonzero three-bracket
    assert fam.ell(2, [X * X, ETA]) == ONE.scale(HPoly({1: -2}))
    assert fam.ell(3, [X, X, ETA]) == ONE.scale(Fraction(2))
    assert fam.ell(3, [X * X, X * X, ETA]) == (X * X).scale(Fraction(8))


def test_fourth_bracket_collapses():
    fam = _family()
    rng = random.Random(31)
    for _ in range(20):
        args = [
            PolyElement.monomial(
                1,
                (rng.randrange(5),),
                () if rng.random() < 0.5 else (0,),
                rng.choice((-2, -1, 1, 2)),
            )
            for _ in range(4)
        ]
        assert fam.ell(4, args).is_zero()


def test_descendant_relations_beyond_bv():
    fam = _family()
    rng = random.Random(32)

    def rand_homog():
        etas = () if rng.random() < 0.5 else (0,)
        return PolyElement.monomial(
            1, (rng.randrange(4),), etas, rng.choice((-2, -1, 1, 2))
        )

    for n in (1, 2, 3, 4):
        for _ in range(8):
            args = [rand_homog() for _ in range(n)]
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
                    acc = acc + fam.ell(len(p), outer).scale(Fraction(eps))
            assert acc.is_zero()


def test_unit_slot_dies():
    fam = _family()
    assert fam.ell(3, [X, X, ONE]).is_zero()
    assert fam.ell(2, [X * X * ETA, ONE]).is_zero()
