import contextlib
import io
import json
import random
import sys
from collections import Counter
from fractions import Fraction
from math import prod

import pytest

import bvcorr.cli as cli
import bvcorr.levelzero as levelzero
import bvcorr.partitions as partitions
import bvcorr.retract
import bvcorr.slinf as slinf
import bvcorr.solver as solver
from bvcorr.gauge import PerturbedRetract
from bvcorr.groebner import MilnorData
from bvcorr.hspace import HVector, tuples_with_repetition
from bvcorr.partitions import (
    koszul_sign, set_partitions, signed_partitions, sub_multisets)
from bvcorr.polyalg import DescendantFamily, PolyElement, Potential
from bvcorr.retract import build_retract, quantize_retract, spanning_monomials
from bvcorr.scalars import HPoly
from bvcorr.slinf import Expectation, correlators
from bvcorr.solver import (
    build_M0,
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
from test_retract import _gauge_lam

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


@pytest.mark.parametrize(
    "table,key",
    [("E", (1,)), ("E", (1, 2, 2)), ("pi0", (2, 2)), ("pi0", (1, 1, 2, 2))],
)
def test_level_zero_report_sees_a_corrupted_entry(a3, table, key):
    # hhat(E) = pi0 holds at every key, so one wrong entry fails exactly there
    _, z, _ = a3
    values = z.E if table == "E" else z.pi0[len(key)].values
    saved = values[key]
    values[key] = saved + (ONE if table == "E" else HVector.basis(1))
    try:
        rep = level_zero_report(z)
    finally:
        values[key] = saved
    hits = [(v.arity, v.where) for v in rep.violations
            if v.residual == "hhat(E) differs from pi0"]
    assert hits == [(len(key), key)]
    assert level_zero_report(z).ok


def test_level_zero_report_holds_below_the_pi0_degree():
    # at h-order 1 hhat(E) is known through h^1 only, while pi0 at arity 6
    # reaches h^4; the check compares through the window it has
    q = quantize_retract(build_retract(MilnorData(Potential.a_k(3))), order=1)
    assert level_zero_report(solve_level_zero(q, 6)).ok


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
    fam = DescendantFamily(q.pot)
    corr = correlators(lambda idxs: z.phi0[len(idxs)].get(idxs), z.ghosts, 2, 1)
    for pair in [(0, 0), (1, 1), (1, 2), (2, 2)]:
        assert build_M0(o, 2, pair, fam) == corr[2].get(pair)


def test_reconstruction_formulas(a3):
    _, z, o = a3
    ms = mhat_symmetric(o)
    pi = reconstruct_pi(ms, 5)
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
        for i, c in vec.terms.items():
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
        assert mhat_unity_report(ms, 5).ok
        assert generalized_associativity_report(ms, 3).ok


def test_factorization(a2):
    q, z, _ = a2
    expect = Expectation(q, [1, 0], span=spanning_monomials(1, 6))
    corr = correlators(lambda idxs: z.phi0[len(idxs)].get(idxs), z.ghosts, 4, 1)
    # c(Pi0) = c(fhat pi0) = iota(pi0), since hhat fhat = 1
    for n in range(1, 5):
        for key in z.pi0[n].keys():
            assert expect(corr[n].get(key)) == expect.apply_iota(z.pi0[n].get(key))


# -- the exponential formula against the set-partition sums it replaces ----


def _solve(pot, n0, n1=None):
    q = quantize_retract(build_retract(MilnorData(pot)))
    z = solve_level_zero(q, n0)
    return q, z, solve_level_one(q, z, n1) if n1 else None


def _random_potential(seed, mu):
    rng = random.Random(seed)
    coeffs = {mu + 1: Fraction(rng.randint(1, 3), mu + 1)}
    for d in range(1, mu):
        coeffs[d] = Fraction(rng.randint(-4, 4), rng.randint(1, 5))
    return Potential.single_variable(coeffs)


@pytest.fixture(scope="module")
def a4_deep():
    return _solve(Potential.a_k(4), 7, 6)


@pytest.fixture(scope="module")
def deep_level_zero(a4_deep):
    return {
        "A4": a4_deep[1],
        "A5": _solve(Potential.a_k(5), 7)[1],
        "random": _solve(_random_potential(2018, 4), 7)[1],
    }


def _blocks(key, p):
    return [tuple(key[j - 1] for j in b) for b in p]


def _product(vals):
    term = vals[0]
    for v in vals[1:]:
        term = term * v
    return term


def _partition_sum(z, key):
    """E_m written out: sum over all set partitions of
    (-h)^(n-|p|) eps(p) prod phi0(blocks)."""
    n = len(key)
    acc = PolyElement.zero(z.q.n_vars)
    for p, eps in signed_partitions(n, [z.ghosts[k] for k in key]):
        vals = [z.phi0[len(b)].get(b) for b in _blocks(key, p)]
        if not any(v.is_zero() for v in vals):
            acc = acc + _product(vals).scale(HPoly.neg_h(n - len(p), eps))
    return acc


def _pair_partition_sums(o, key):
    """omega1 and varpi0 at key written out over the pair partitions p:
    eta1 - sum (-h)^(n-|p|-1) eps(p) [eta1(v.., mhat(v_Blast)) +
    phi0(v_B1)..phim1(v_Blast)], and pi0 - the same mhat sum on pi0."""
    z, n = o.z, len(key)
    om, vp = z.eta1[n].get(key), z.pi0[n].get(key)
    for p, eps in signed_partitions(n, [o.ghosts[k] for k in key]):
        if len(p) == 1 or not _holds_the_pair(p, n):
            continue
        blocks = _blocks(key, p)
        w = HPoly.neg_h(n - len(p) - 1, eps)
        if len(blocks[-1]) == n - len(p) + 1:  # every other block a singleton
            for j, c in o.mhat[len(blocks[-1])].get(blocks[-1]).terms.items():
                args = tuple(b[0] for b in blocks[:-1]) + (j,)
                om = om - z.eta1[len(args)].get(args).scale(c * w)
                vp = vp - z.pi0[len(args)].get(args).scale(c * w)
        vals = [z.phi0[len(b)].get(b) for b in blocks[:-1]]
        vals.append(o.phim1[len(blocks[-1])].get(blocks[-1]))
        om = om - _product(vals).scale(w)
    return om, vp


@pytest.mark.parametrize("name", ["A4", "A5", "random"])
def test_E_equals_the_set_partition_sum(deep_level_zero, name):
    z = deep_level_zero[name]
    assert z.E[()] == ONE
    for n in range(1, 8):
        for key in tuples_with_repetition(z.dim, n):
            assert z.E[key] == _partition_sum(z, key), (name, key)


def test_level_one_sums_equal_the_pair_partition_sums(a4_deep):
    _, _, o = a4_deep
    for n in range(3, 7):
        assert len(o.omega1[n].values) == len(o.varpi0[n].values) > 0
        for key in o.omega1[n].keys():
            om, vp = _pair_partition_sums(o, key)
            assert o.omega1[n].get(key) == om, key
            assert o.varpi0[n].get(key) == vp, key


def _holds_the_pair(p, n):
    """Whether n - 1 and n share a block of the partition p of [n]."""
    return any(n - 1 in b and n in b for b in p)


def _m0_partition_sum(o, key, fam):
    """build_M0 written out over the set partitions of key, with a bracket
    ell_|p| for every pair partition p."""
    z, n = o.z, len(key)
    acc = z.phi0[n].get(key).scale(HPoly.neg_h(1))
    for p, _ in signed_partitions(n, [0] * n):
        if len(p) == 2 and n - 1 not in p[1]:  # two blocks that split the pair
            acc = acc + _product([z.phi0[len(b)].get(b) for b in _blocks(key, p)])
    for p, _ in signed_partitions(n, [0] * n):
        if len(p) == 1 or not _holds_the_pair(p, n):
            continue
        blocks = _blocks(key, p)
        if len(blocks[-1]) == n - len(p) + 1:
            for j, c in o.mhat[len(blocks[-1])].get(blocks[-1]).terms.items():
                args = tuple(b[0] for b in blocks[:-1]) + (j,)
                acc = acc - z.phi0[len(args)].get(args).scale(c)
        args = [z.phi0[len(b)].get(b) for b in blocks[:-1]]
        args.append(o.phim1[len(blocks[-1])].get(blocks[-1]))
        acc = acc - fam.ell(len(p), args)
    return acc


def test_build_M0_equals_the_partition_sum(a3, a4_deep):
    for q, _, o in (a3, a4_deep):
        fam = DescendantFamily(q.pot)
        for n in range(2, 6):
            for key in o.mhat[n].keys():
                assert build_M0(o, n, key, fam) == _m0_partition_sum(o, key, fam)


def test_M_identity_brackets_no_zero_argument(monkeypatch):
    q, z, o = _solve(Potential.a_k(3), 6, 6)
    calls = []
    ell = DescendantFamily.ell
    monkeypatch.setattr(
        DescendantFamily, "ell", lambda fam, n, args: calls.append(args) or ell(fam, n, args)
    )
    assert verify_M_identity(q, z, o, 6).ok
    assert calls
    assert not [args for args in calls if any(a.is_zero() for a in args)]


def test_level_zero_makes_one_product_per_sub_multiset(monkeypatch):
    q = quantize_retract(build_retract(MilnorData(Potential.a_k(4))))
    calls = []
    # the fused products of E's recursion go through one seam
    fused = levelzero.collect_product
    monkeypatch.setattr(
        levelzero, "collect_product", lambda *args: calls.append(1) or fused(*args)
    )
    solve_level_zero(q, 7)
    bound = sum(
        prod(m + 1 for m in Counter(key).values())
        for n in range(2, 8)
        for key in tuples_with_repetition(q.dim, n)
    )
    assert 0 < len(calls) <= bound  # the set-partition sums made 664,616


def test_solvers_pass_every_check_on_a_perturbed_retract():
    # a second retract of A3, with representatives shifted by K(lam): f, h
    # and s sum through the linear-combination kernel, and PerturbedRetract's
    # h and s overrides must stay in force on every solver path
    base = build_retract(MilnorData(Potential.a_k(3)))
    q = quantize_retract(PerturbedRetract(base, _gauge_lam(3)))
    z = solve_level_zero(q, 5)
    o = solve_level_one(q, z, 5)
    for rep in (level_zero_report(z), level_one_report(o), verify_M_identity(q, z, o, 5)):
        assert rep.checks > 0 and rep.ok, rep.violations[:3]
    # the products move with the gauge: mhat_3(x, x, x) is 0 on the base retract
    assert o.mhat[3].get((1, 1, 1)) == HVector({2: Fraction(3, 2)})


def test_ell_3_vanishes_on_the_M_identity_arguments():
    # build_M0 evaluates ell_2 only: the three-block pair partitions it
    # leaves out give ell_3 on (phi0, phi0, phim1), zero for Khat
    q, z, o = _solve(Potential.a_k(3), 6, 6)
    fam = DescendantFamily(q.pot)
    triples = set()
    for n in range(4, 7):
        for key in o.mhat[n].keys():
            front, pair = key[:-2], key[-2:]
            for k1, rest1, _ in sub_multisets(front, False):
                for k2, rest2, _ in sub_multisets(rest1, False):
                    if k1 and k2 and k1 <= k2:
                        triples.add((k1, k2, rest2 + pair))
    nonzero = 0
    for k1, k2, last in triples:
        args = [z.phi0[len(k1)].get(k1), z.phi0[len(k2)].get(k2),
                o.phim1[len(last)].get(last)]
        if not any(a.is_zero() for a in args):
            nonzero += 1
            assert fam.ell(3, args).is_zero(), (k1, k2, last)
    assert nonzero > 0


def test_M_identity_needs_the_ell_2_term(monkeypatch):
    q, z, o = _solve(Potential.a_k(3), 5, 5)
    monkeypatch.setattr(DescendantFamily, "ell", lambda fam, n, args: PolyElement.zero(1))
    rep = verify_M_identity(q, z, o, 5)
    assert "M0 identity fails" in [v.residual for v in rep.violations]


def test_level_one_report_flags_an_asymmetric_mhat(a3, monkeypatch):
    _, _, o = a3
    rep = level_one_report(o)
    # 274 is the count of the permutation reads the split reads replaced
    assert rep.ok and rep.checks == 274
    # (0, 1 | 2, 2) now differs from (1, 2 | 0, 2), another split of the key
    key = (0, 1, 2, 2)
    monkeypatch.setitem(o.mhat[4].values, key, o.mhat[4].values[key] + HVector.basis(1))
    rep = level_one_report(o)
    assert (4, key, "mhat is not fully symmetric") in [
        (v.arity, v.where, v.residual) for v in rep.violations]
    assert rep.checks == 274


def test_solvers_enumerate_no_partitions_on_ghost_zero_data(monkeypatch, tmp_path):
    # ell_2 is Koszul's closed formula and every other sum of the solve and
    # fmanifold commands runs over sub-multisets: no partition table is built
    arities = []
    enumerate_ = partitions.set_partitions
    monkeypatch.setattr(partitions, "set_partitions",
                        lambda *args: arities.append(args[0]) or enumerate_(*args))
    partitions._signed.cache_clear()
    partitions._subsets.cache_clear()
    job = tmp_path / "a3.job.json"
    job.write_text(json.dumps({
        "schema": 1, "potential": {"n_vars": 1, "terms": [[[4], "1/4"]]},
        "n_max": 6, "h_order": 6, "t_order": 3,
    }))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["solve", "--input", str(job)]) == 0
    assert arities == [], sorted(set(arities))
    # and the fmanifold command reads no correlators: Z comes from z.E

    def refuse(*args, **kwargs):
        raise AssertionError("correlators called by the fmanifold command")

    original = slinf.correlators
    for mod in [m for name, m in sys.modules.items() if name.startswith("bvcorr")]:
        if getattr(mod, "correlators", None) is original:
            monkeypatch.setattr(mod, "correlators", refuse)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["fmanifold", "--input", str(job)]) == 0
    assert arities == [], sorted(set(arities))


def test_solver_rejects_an_odd_ghost(monkeypatch):
    q = quantize_retract(build_retract(MilnorData(Potential.a_k(2))))
    monkeypatch.setattr(q, "ghosts", [0, -1])
    with pytest.raises(ValueError, match="even ghosts"):
        solve_level_zero(q, 3)


def test_undivisible_varpi_fails_the_products_identity(a3, monkeypatch):
    q, z, _ = a3
    # dropping the mhat sum leaves varpi0 = pi0, which -h does not divide
    monkeypatch.setattr(
        solver, "_mhat_sum", lambda terms, mhat, family, key, *args, **kw: None
    )
    with pytest.raises(solver.MasterEquationError) as exc:
        solve_level_one(q, z, 4)
    assert str(exc.value).startswith("products identity fails at arity 3, (")
    assert ")|(" in str(exc.value)
    assert str(exc.value).endswith("(nonzero coefficient at h^0)")



def test_a_broken_homotopy_fails_the_level_zero_check(monkeypatch, tmp_path):
    # nabla divides by the retract identity f h + K s + s K = 1, so it no
    # longer checks that identity itself: the correlator check must see a
    # retract that passed its own verification and then broke
    r = build_retract(MilnorData(Potential.a_k(3)))
    q = quantize_retract(r)
    s = r.s
    monkeypatch.setattr(r, "s", lambda c: s(c).scale(2))
    with pytest.raises(solver.MasterEquationError,
                       match=r"level-zero identity \(correlator\) fails at arity 2, \("):
        solve_level_zero(q, 4)
    # the command reports it as a violated identity, without a traceback
    monkeypatch.setattr(bvcorr.retract, "build_retract", lambda mil: r)
    monkeypatch.setattr(bvcorr.retract, "quantize_retract", lambda r, order: q)
    job = tmp_path / "a3.job.json"
    job.write_text(json.dumps({
        "schema": 1, "potential": {"n_vars": 1, "terms": [[[4], "1/4"]]}, "n_max": 4,
    }))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert cli.main(["solve", "--input", str(job)]) == cli.EXIT_VIOLATION
    assert err.getvalue().startswith("identity violated: level-zero identity")


def _two_sided_associativity(mhat_sym, n_spectators_max):
    # the report summing both sides for every ordered triple, a test-only
    # reference: lhs = mhat(v_S, mhat(v_Sc, w1, w2), w3) and
    # rhs = mhat(v_S, w1, mhat(v_Sc, w2, w3)) over the splits
    rep = solver.Report()
    dim = solver.mhat_dimension(mhat_sym)
    for n in range(n_spectators_max + 1):
        for spect in tuples_with_repetition(dim, n) if n else [()]:
            splits = sub_multisets(spect, False)
            for w1 in range(dim):
                for w2 in range(dim):
                    for w3 in range(dim):
                        rep.checks += 1
                        lhs = HVector.zero()
                        rhs = HVector.zero()
                        for vc, vs, mult in splits:
                            inner = mhat_sym[len(vc) + 2].get(vc + (w1, w2))
                            for k, coef in inner.terms.items():
                                lhs = lhs + mhat_sym[len(vs) + 2].get(
                                    vs + (k, w3)
                                ).scale(coef * mult)
                            inner2 = mhat_sym[len(vc) + 2].get(vc + (w2, w3))
                            for k, coef in inner2.terms.items():
                                rhs = rhs + mhat_sym[len(vs) + 2].get(
                                    vs + (w1, k)
                                ).scale(coef * mult)
                        if lhs != rhs:
                            rep.add(
                                n + 3,
                                spect + (w1, w2, w3),
                                "generalized associativity fails",
                            )
    return rep


def test_associativity_report_matches_the_two_sided_sum(a2, a3, a4_deep):
    def rows(rep):
        return rep.checks, [(v.arity, v.where, v.kind) for v in rep.violations]

    failed = 0
    for _, _, o in (a2, a3, a4_deep):
        ms = mhat_symmetric(o)
        assert rows(generalized_associativity_report(ms, 2)) == rows(
            _two_sided_associativity(ms, 2))
        # one mhat_3 entry shifted at a time
        for key in ms[3].keys()[::3]:
            for j in (0, o.dim - 1):
                bad = mhat_symmetric(o)
                bad[3].values[key] = bad[3].values[key] + HVector.basis(j)
                got = generalized_associativity_report(bad, 2)
                assert rows(got) == rows(_two_sided_associativity(bad, 2))
                failed += not got.ok
    assert failed >= 10


# -- the correlator identities close one residual: corruptions still fail them


def _corrupt_eta(monkeypatch, table_type):
    # add eta to the first eta value that `_transfer` returns on `table_type`
    # tables (SymMap: level zero, PairSymMap: level one); Khat eta = S'(x)
    transfer = levelzero._transfer

    def corrupted(q, omega, varpi, steps):
        pi, eta, last, top = transfer(q, omega, varpi, steps)
        if type(omega) is table_type:
            key = eta.keys()[0]
            eta.values[key] = eta.values[key] + ETA
        return pi, eta, last, top

    # level one imports `_transfer` from level zero's module
    monkeypatch.setattr(levelzero, "_transfer", corrupted)
    monkeypatch.setattr(solver, "_transfer", corrupted)


def test_a_corrupted_eta1_fails_the_level_zero_identity(monkeypatch):
    q = quantize_retract(build_retract(MilnorData(Potential.a_k(3))))
    _corrupt_eta(monkeypatch, solver.SymMap)
    with pytest.raises(solver.MasterEquationError,
                       match=r"^level-zero identity \(correlator\) fails at arity 2, \(0, 0\)$"):
        solve_level_zero(q, 3)


def test_a_corrupted_eta2_fails_the_level_one_identity(monkeypatch):
    q = quantize_retract(build_retract(MilnorData(Potential.a_k(3))))
    z = solve_level_zero(q, 4)
    _corrupt_eta(monkeypatch, solver.PairSymMap)
    with pytest.raises(solver.MasterEquationError,
                       match=r"^level-one identity \(correlator\) fails at arity 3, "
                             r"\(0,\)\|\(0, 0\)$"):
        solve_level_one(q, z, 4)


def test_mhat_read_off_level_zero_is_the_level_one_mhat(a3):
    q, z, o = a3
    ms = levelzero.mhat_from_pi0(z.pi0, 5)
    sym = mhat_symmetric(o)
    assert sorted(ms) == sorted(sym) == [2, 3, 4, 5]
    for n in ms:
        assert ms[n].keys() == sym[n].keys()
        for key in ms[n].keys():
            a, b = ms[n].values[key], sym[n].values[key]
            assert a == b and a.terms.keys() == b.terms.keys()
            assert all(v.trunc == b.terms[k].trunc for k, v in a.terms.items())


def test_mhat_reader_refuses_a_power_above_n_minus_2(a3, monkeypatch):
    q, z, o = a3
    key = (1, 1, 2)
    monkeypatch.setitem(z.pi0[3].values, key,
                        z.pi0[3].values[key] + HVector.basis(1).scale(HPoly.h(2)))
    with pytest.raises(solver.MasterEquationError,
                       match=r"pi0 h-degree exceeds n-2 at arity 3, \(1, 1, 2\)"):
        levelzero.mhat_from_pi0(z.pi0, 3)
    # the solve report records it instead of stopping
    rep = level_one_report(o)
    assert (3, ((1,), (1, 2)), "pi0 h-degree exceeds n-2") in [
        (v.arity, v.where, v.residual) for v in rep.violations]
