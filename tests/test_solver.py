from fractions import Fraction

import pytest

from bvcorr.groebner import MilnorData
from bvcorr.hspace import HVector
from bvcorr.partitions import koszul_sign, set_partitions
from bvcorr.polyalg import DescendantFamily, PolyElement, Potential
from bvcorr.retract import build_retract, quantize_retract, spanning_monomials
from bvcorr.scalars import HPoly
from bvcorr.slinf import Expectation, correlators
from bvcorr.solver import (
    factorization_report,
    generalized_associativity_report,
    level_one_report,
    level_zero_report,
    mhat_symmetric,
    mhat_unity_report,
    reconstruct_pi,
    solve_level_one,
    solve_level_zero,
    verify_M_identity,
)

ETA = PolyElement.eta(0, 1)
ONE = PolyElement.one(1)


@pytest.fixture(scope="module")
def a2():
    q = quantize_retract(build_retract(MilnorData(Potential.a_k(2))))
    z = solve_level_zero(q, 5)
    o = solve_level_one(q, z, 5)
    return q, z, o


@pytest.fixture(scope="module")
def a3():
    q = quantize_retract(build_retract(MilnorData(Potential.a_k(3))))
    z = solve_level_zero(q, 5)
    o = solve_level_one(q, z, 5)
    return q, z, o


def test_level_zero_initials(a2):
    q, z, _ = a2
    for i in range(q.dim):
        assert z.pi0[1].get((i,)) == HVector.basis(i)
        assert z.eta1[1].get((i,)).is_zero()
        assert z.phi0[1].get((i,)) == q.fhat(HVector.basis(i))
        assert z.lhat[1].get((i,)).is_zero()  # kappa = 0 here


def test_a2_arity_two_values(a2):
    _, z, _ = a2
    assert z.pi0[2].get((1, 1)).is_zero()
    assert z.eta1[2].get((1, 1)) == ETA
    assert z.phi0[2].get((1, 1)).is_zero()


def test_a3_arity_two_values(a3):
    _, z, _ = a3
    assert z.phi0[2].get((2, 2)) == ONE
    assert z.pi0[2].get((2, 2)).is_zero()


def test_level_zero_reports(a2, a3):
    for _, z, _ in (a2, a3):
        assert level_zero_report(z).ok


def test_level_one_initials(a2):
    _, z, o = a2
    for pair in [(0, 0), (0, 1), (1, 1)]:
        assert o.pi1[2].get(pair).is_zero()
        assert o.eta2[2].get(pair).is_zero()
        assert o.mhat[2].get(pair) == z.pi0[2].get(pair)
        assert o.phim1[2].get(pair) == z.eta1[2].get(pair)


def test_a3_products(a3):
    _, z, o = a3
    ms = mhat_symmetric(o)
    assert ms[2].get((1, 1)) == HVector.basis(2)
    assert ms[2].get((1, 2)).is_zero()


def test_level_one_reports(a2, a3):
    for _, _, o in (a2, a3):
        assert level_one_report(o).ok


def test_m_identity_and_dual_route(a2, a3):
    for q, z, o in (a2, a3):
        assert verify_M_identity(q, z, o, 5).ok


def test_m2_equals_two_point_correlator(a3):
    q, z, o = a3
    from bvcorr.solver import build_M0

    fam = DescendantFamily(q.pot)
    corr = correlators(lambda idxs: z.phi0[len(idxs)].get(idxs), z.ghosts, 2, 1)
    for pair in [(0, 0), (1, 1), (1, 2), (2, 2)]:
        assert build_M0(o, 2, pair, fam) == corr[2].get(pair)


def test_reconstruction_formulas(a3):
    _, z, o = a3
    ms = mhat_symmetric(o)
    pi = reconstruct_pi(ms, z.ghosts, 5)
    for n in range(1, 6):
        for key in z.pi0[n].keys():
            assert pi[n].get(key) == z.pi0[n].get(key)
    # displayed low-arity expansions: pi3 = m2(v1, m2(v2,v3)) - h m3,
    # pi4 = m2(v1,m2(v2,m2(v3,v4))) - h [three terms] + h^2 m4
    dim = z.dim

    def m(idxs):
        return ms[len(idxs)].get(idxs)

    def m_at(vec, extra):
        acc = HVector.zero()
        for i, c in vec.c.items():
            acc = acc + m(tuple(sorted(extra + (i,)))).scale(c)
        return acc

    for v1 in range(dim):
        for v2 in range(dim):
            for v3 in range(dim):
                want = m_at(m((v2, v3)), (v1,)) - m((v1, v2, v3)).scale(HPoly.h())
                assert z.pi0[3].get(tuple(sorted((v1, v2, v3)))) == want
    v = (1, 1, 1, 1)
    w4 = m_at(m_at(m((1, 1)), (1,)), (1,))
    w4 = w4 - m_at(m((1, 1, 1)), (1,)).scale(HPoly({1: 2}))
    w4 = w4 - m_at(m((1, 1)), (1, 1)).scale(HPoly.h(1))
    w4 = w4 + m(v).scale(HPoly.h(2))
    assert z.pi0[4].get(v) == w4


def test_phi0_morphism_relations(a3):
    # arity <= 4: sum over partitions of eps * ell(phi0 blocks) vanishes
    q, z, _ = a3
    fam = DescendantFamily(q.pot)
    from bvcorr.hspace import tuples_with_repetition

    for n in (1, 2, 3, 4):
        for key in tuples_with_repetition(z.dim, n):
            acc = PolyElement.zero(1)
            for p in set_partitions(n):
                eps = koszul_sign(p, [0] * n)
                args = [z.phi0[len(b)].get(tuple(key[j - 1] for j in b)) for b in p]
                if any(a.is_zero() for a in args):
                    continue
                acc = acc + fam.ell(len(p), args).scale(Fraction(eps))
            assert acc.is_zero()


def test_h_degree_bounds(a3):
    _, z, o = a3
    for n in range(2, 6):
        for key in z.pi0[n].keys():
            assert z.pi0[n].get(key).h_degree() <= n - 2
            assert z.eta1[n].get(key).h_degree() <= n - 2
    for n in range(3, 6):
        for key in o.pi1[n].keys():
            assert o.pi1[n].get(key).h_degree() <= n - 3
            assert o.eta2[n].get(key).h_degree() <= n - 3


def test_unity_and_associativity(a2, a3):
    for _, z, o in (a2, a3):
        ms = mhat_symmetric(o)
        assert mhat_unity_report(ms, z.ghosts, 5).ok
        assert generalized_associativity_report(ms, z.ghosts, 3).ok


def test_factorization(a2):
    q, z, _ = a2
    expect = Expectation(q, [1, 0], span=spanning_monomials(1, 6))
    corr = correlators(lambda idxs: z.phi0[len(idxs)].get(idxs), z.ghosts, 4, 1)
    assert factorization_report(expect, z, corr, 4).ok
    # and through iota directly: c(f(pi0)) = iota(pi0)
    for n in range(1, 5):
        for key in z.pi0[n].keys():
            assert expect(corr[n].get(key)) == expect.apply_iota(z.pi0[n].get(key))
