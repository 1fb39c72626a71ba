import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

import bvcorr.slinf
from bvcorr import partitions
from bvcorr.acceptance import _corruptions
from bvcorr.groebner import MilnorData
from bvcorr.hspace import HVector, SymMap, tuples_with_repetition
from bvcorr.polyalg import DescendantFamily, PolyElement, Potential, quantum_K
from bvcorr.partitions import ArityCapError, signed_partitions, sort_sign
from bvcorr.retract import build_retract, quantize_retract, spanning_monomials
from bvcorr.scalars import INF_TRUNC, HPoly, NotDivisibleError, sum_pairs
from bvcorr.slinf import (
    DescendantDivisibilityError,
    DescendantResult,
    EvalMorphism,
    Expectation,
    GradedBasisElement,
    SLInfStructure,
    TargetAlgebra,
    coderivation_square,
    compose_morphisms,
    correlators,
    descendant_morphism,
    moment_cumulant_report,
    probe_descendant,
    scalar_target,
    verify_sl_infinity,
)
from bvcorr.solver import solve_level_zero
from test_polyalg import _monomial_combos

X = PolyElement.x(0, 1)
ETA = PolyElement.eta(0, 1)
ONE = PolyElement.one(1)
A2 = Potential.a_k(2)


def poly_target(n_vars: int) -> TargetAlgebra:
    return TargetAlgebra(unit=PolyElement.one(n_vars), zero=PolyElement.zero(n_vars))


def test_zero_structure_passes():
    basis = [GradedBasisElement("a", 0), GradedBasisElement("b", -1)]
    S = SLInfStructure(basis)
    assert verify_sl_infinity(S, 4).ok
    assert coderivation_square(S, 4).ok


def test_broken_differential_flagged_at_arity_one():
    basis = [
        GradedBasisElement("a", 0),
        GradedBasisElement("b", -1),
        GradedBasisElement("c", -2),
    ]
    S = SLInfStructure(basis)
    S.set_op(1, (2,), HVector.basis(1))
    S.set_op(1, (1,), HVector.basis(0))  # now d(d(c)) = a != 0
    r1 = verify_sl_infinity(S, 4)
    r2 = coderivation_square(S, 4)
    assert not r1.ok and not r2.ok
    assert r1.first_failure_arity() == 1 == r2.first_failure_arity()


def test_ghost_consistency_guard():
    basis = [GradedBasisElement("a", 0)]
    S = SLInfStructure(basis)
    with pytest.raises(ValueError):
        S.set_op(1, (0,), HVector.basis(0))  # ghost 0 value where 1 expected


def _a2_sub():
    fam = DescendantFamily(A2)
    sub = [ONE, X, PolyElement.x(0, 1, 2), ETA]
    ghosts = [0, 0, 0, -1]
    table = {((0,), ()): 0, ((1,), ()): 1, ((2,), ()): 2, ((0,), (0,)): 3}

    def to_vec(p):
        v = {}
        for key, coef in p.terms.items():
            v[table[key]] = v.get(table[key], HPoly.zero()) + coef
        return HVector(v)

    basis = [GradedBasisElement(s, g) for s, g in zip("1 x x2 eta".split(), ghosts)]
    S = SLInfStructure(basis, unit=0)
    for n in (1, 2):
        for idxs in tuples_with_repetition(4, n):
            if any(ghosts[i] % 2 and idxs.count(i) > 1 for i in idxs):
                continue
            S.set_op(n, idxs, to_vec(fam.ell(n, [sub[i] for i in idxs])))
    return S


def test_a2_descendant_sub_basis_passes():
    S = _a2_sub()
    assert verify_sl_infinity(S, 4).ok
    assert coderivation_square(S, 4).ok


def _sl2_odd(he=2):
    # sl_2 on an odd-shifted basis h, e, f (ghost -1), ell_2 only:
    # [h, e] = he * e, [h, f] = -2f, [e, f] = h; a Lie algebra iff he = 2
    basis = [GradedBasisElement(s, -1) for s in "hef"]
    S = SLInfStructure(basis)
    S.set_op(2, (0, 1), HVector({1: he}))
    S.set_op(2, (0, 2), HVector({2: -2}))
    S.set_op(2, (1, 2), HVector({0: 1}))
    return S


def test_odd_lie_algebra_relations_need_the_J_signs():
    # on the word (h, e, f) the Jacobi sum has the odd singleton h before
    # the distinguished block {e, f}; without its J-sign the arity-3
    # residual is 4h, so both oracles tell the two sign conventions apart
    S = _sl2_odd()
    assert verify_sl_infinity(S, 4).ok
    assert coderivation_square(S, 4).ok
    bad = _sl2_odd(he=3)
    r1, r2 = verify_sl_infinity(bad, 4), coderivation_square(bad, 4)
    assert r1.first_failure_arity() == 3 == r2.first_failure_arity()


def test_coderivation_square_evaluates_each_word_once(monkeypatch):
    calls = []
    real = bvcorr.slinf._delta_on_word

    def counting(S, word):
        calls.append(word)
        return real(S, word)

    monkeypatch.setattr(bvcorr.slinf, "_delta_on_word", counting)
    S = _a2_sub()
    assert coderivation_square(S, 4).ok
    assert calls and len(calls) == len(set(calls))
    for word in calls:  # one entry per canonical word
        assert tuple(sorted(word)) == word
    # a corrupted structure fails at the arity verify_sl_infinity reports;
    # _a2_sub() has no corruption that fails by arity 4, _three_bracket has
    bad_structures = list(_corruptions(_three_bracket(random.Random(41)), 2))
    assert len(bad_structures) == 2
    for bad in bad_structures + [_sl2_odd(he=3)]:
        calls.clear()
        r2 = coderivation_square(bad, 4)
        assert len(calls) == len(set(calls))
        r1 = verify_sl_infinity(bad, 4)
        assert not r2.ok
        assert r1.first_failure_arity(kind="relation") == r2.first_failure_arity()


# -- the partition form of both oracles, kept as a reference -------------


def _insertions(n, degs):
    # (p, i, sign) per block B_i of p with |B_i| = n - |p| + 1, sign = eps(p)
    # times the J-signs of the blocks before B_i
    out = []
    for p, sign in signed_partitions(n, degs):
        for i, b in enumerate(p):
            if len(b) == n - len(p) + 1:
                out.append((p, i, sign))
            sign *= (-1) ** sum(degs[j - 1] for j in b)
    return out


def _partition_residual(S, idxs):
    # every distinguished block of every partition, inner bracket in place;
    # closed by sum_pairs, so no window depends on the order of the terms
    terms = {}
    for p, i, sign in _insertions(len(idxs), [S.ghosts[j] for j in idxs]):
        for k, coef in S.op(tuple(idxs[j - 1] for j in p[i])).terms.items():
            word = tuple(k if bi == i else idxs[b[0] - 1] for bi, b in enumerate(p))
            S.op(word).collect(terms, coef if sign > 0 else -coef)
    return HVector._of(sum_pairs(terms))


def _partition_delta(S, idxs):
    terms = {}
    for p, i, sign in _insertions(len(idxs), [S.ghosts[j] for j in idxs]):
        w = HPoly.neg_h(len(idxs) - len(p), sign)
        for k, coef in S.op(tuple(idxs[j - 1] for j in p[i])).terms.items():
            word = tuple(k if bi == i else idxs[b[0] - 1] for bi, b in enumerate(p))
            key, ksign = sort_sign(word, [S.ghosts[a] for a in word])
            if ksign:
                terms.setdefault(key, []).append((coef, w if ksign > 0 else -w))
    return sum_pairs(terms)


def _random_structure(rng, truncs=(None,)):
    # random h-dependent tables at arities 1-3 over 3-4 mixed-parity elements;
    # each constant is known through an order drawn from `truncs`
    ghosts = [rng.choice((-2, -1, -1, 0, 0, 1)) for _ in range(rng.randint(3, 4))]
    S = SLInfStructure([GradedBasisElement(f"e{i}", g) for i, g in enumerate(ghosts)])
    for n in (1, 2, 3):
        for idxs in tuples_with_repetition(len(ghosts), n):
            want = sum(ghosts[i] for i in idxs) + 1
            S.set_op(n, idxs, HVector({
                t: HPoly({0: rng.randint(-2, 2), 1: Fraction(rng.randint(-2, 2), 3)},
                         trunc=rng.choice(truncs))
                for t, g in enumerate(ghosts) if g == want and rng.random() < 0.5
            }))
    return S


def _three_bracket(rng):
    # d(u) = v, and a random ell_3 on (a, b, c) that never sees u or v and
    # never lands on u: valid through arity 4 (ell_3 ell_3 starts at arity 5)
    ghosts = [-1, 0, -1, 0, 0]  # u, v, a, b, c
    S = SLInfStructure([GradedBasisElement(s, g) for s, g in zip("uvabc", ghosts)])
    S.set_op(1, (0,), HVector.basis(1))
    for idxs in tuples_with_repetition(5, 3):
        if min(idxs) >= 2 and idxs.count(2) < 2:
            want = sum(ghosts[i] for i in idxs) + 1
            S.set_op(3, idxs, HVector({t: rng.randint(-3, 3) for t in (1, 3, 4)
                                       if ghosts[t] == want}))
    return S


def _exact(value):
    # {coordinate, word or monomial: (coefficients, trunc)}: no windowed equality
    if isinstance(value, (HVector, PolyElement)):
        value = value.terms
    elif isinstance(value, HPoly):
        value = {(): value}
    return {key: (v.c, v.trunc) for key, v in value.items()}


def _rows(rep):
    return rep.checks, [(v.arity, v.where, v.kind, _exact(v.residual))
                        for v in rep.violations]


def test_unshuffle_oracles_match_their_partition_form(monkeypatch):
    # tables at arities 1-3 make the size filter skip sizes at arity 4
    rng = random.Random(41)
    line = _linear_sub_structure([Fraction(3, 2)])  # basis 1, x, eta, x eta
    valid = [_a2_sub(), _sl2_odd(), line, _three_bracket(rng), _three_bracket(rng)]
    bad = [_sl2_odd(he=3)] + list(_corruptions(valid[3], 2))
    for idxs, target in (((2,), 0), ((2, 3), 2)):  # ell_1(eta), ell_2(eta, x eta)
        broken = _linear_sub_structure([Fraction(3, 2)])
        broken.set_op(len(idxs), idxs, broken.op(idxs) + HVector({target: Fraction(2, 7)}))
        bad.append(broken)
    noise = [_random_structure(rng) for _ in range(6)]
    noise += [_random_structure(rng, (None, 0, 1, 2)) for _ in range(6)]
    new = [(verify_sl_infinity(S, 4), coderivation_square(S, 4)) for S in valid + bad + noise]
    assert all(r1.ok and r2.ok for r1, r2 in new[:len(valid)])
    assert not any(r1.ok or r2.ok for r1, r2 in new[len(valid):len(valid) + len(bad)])
    assert sum(not r1.ok for r1, _ in new[len(valid) + len(bad):]) >= 4
    monkeypatch.setattr(SLInfStructure, "relation_residual", _partition_residual)
    monkeypatch.setattr(bvcorr.slinf, "_delta_on_word", _partition_delta)
    for S, (r1, r2) in zip(valid + bad + noise, new):
        assert _rows(verify_sl_infinity(S, 4)) == _rows(r1)
        assert _rows(coderivation_square(S, 4)) == _rows(r2)


def test_relation_residual_takes_any_order():
    # a permuted word gives the Koszul-signed residual of the sorted one,
    # coefficients and windows exactly; a repeated odd letter gives zero.
    # The partition form, which reads its argument in place, agrees exactly
    # too, on windowed tables as well: both close each coordinate once
    rng = random.Random(5)
    exact = [_sl2_odd(he=3)] + [_random_structure(rng) for _ in range(2)]
    windowed = [_random_structure(rng, (None, 0, 1, 2)) for _ in range(2)]
    flipped = 0
    for S in exact + windowed:
        for n in (2, 3, 4):
            for key in tuples_with_repetition(len(S.basis), n):
                want = S.relation_residual(key)
                for perm in sorted(set(permutations(key))):
                    got = S.relation_residual(perm)
                    _, sign = sort_sign(perm, [S.ghosts[i] for i in perm])
                    assert _exact(got) == _exact(
                        HVector.zero() if sign == 0 else want if sign > 0 else -want)
                    assert _exact(got) == _exact(_partition_residual(S, perm))
                    flipped += sign < 0 and not got.is_zero()
    assert flipped > 0


def _linear_sub_structure(coeffs):
    # the descendant sub-structure of S = sum c_i x_i on x-degree <= 1: the
    # monomials 1, x_i times every eta word are closed under ell_1 and ell_2
    nv = len(coeffs)
    xs = [(0,) * nv] + [tuple(int(j == i) for j in range(nv)) for i in range(nv)]
    keys = [(x, w) for r in range(nv + 1) for w in combinations(range(nv), r) for x in xs]
    index = {k: i for i, k in enumerate(keys)}
    fam = DescendantFamily(Potential(nv, {xs[i + 1]: c for i, c in enumerate(coeffs)}))
    elems = [PolyElement(nv, {k: 1}) for k in keys]
    S = SLInfStructure([GradedBasisElement(str(k), -len(k[1])) for k in keys], unit=0)
    for n in (1, 2):
        for idxs in tuples_with_repetition(len(keys), n):
            val = fam.ell(n, [elems[i] for i in idxs])
            S.set_op(n, idxs, HVector({index[k]: c for k, c in val.terms.items()}))
    return S


def test_oracles_enumerate_no_partitions(monkeypatch):
    arities = []
    enumerate_ = partitions.set_partitions
    monkeypatch.setattr(partitions, "set_partitions",
                        lambda *args: arities.append(args[0]) or enumerate_(*args))
    partitions._signed.cache_clear()
    S = _linear_sub_structure([Fraction(2), Fraction(-1, 3)])
    r1, r2 = verify_sl_infinity(S, 3), coderivation_square(S, 3)
    assert r1.ok and r2.ok and r1.checks > 0 and r2.checks > 0
    S.set_op(1, (len(S.basis) - 1,), S.op((len(S.basis) - 1,)) + HVector.basis(7))
    assert not verify_sl_infinity(S, 3).ok and not coderivation_square(S, 3).ok
    assert arities == []


def test_descendant_of_identity():
    res = descendant_morphism(lambda c: c, A2, poly_target(1), 3)
    m = res.morphism
    assert m.ev((X,)) == X
    assert m.ev((X, X)).is_zero()
    assert m.ev((X, ETA, X)).is_zero()


def test_descendant_requires_pointedness():
    with pytest.raises(ValueError):
        descendant_morphism(lambda c: c + ONE, A2, poly_target(1), 2)


def test_descendant_requires_cochain_property():
    span = spanning_monomials(1, 4)
    with pytest.raises(ValueError):
        descendant_morphism(
            lambda c: c.classical_part(0),
            A2,
            poly_target(1),
            2,
            precheck_span=span,
            target_K=lambda c: PolyElement.zero(1),
        )


def _scaling_morphism(lam: Fraction):
    # x -> lam x, eta -> eta/lam intertwines the differentials of S = x^3/3
    # and S = lam^3 x^3/3 and is multiplicative
    def F(c):
        out = PolyElement.zero(1)
        for (exp, etas), coef in c.terms.items():
            w = lam ** exp[0] * (Fraction(1) / lam) ** len(etas)
            out = out + PolyElement(1, {(exp, etas): coef}).scale(w)
        return out

    return F


def test_scaling_is_a_quantum_morphism():
    lam = Fraction(3)
    target_pot = Potential.single_variable({3: lam**3 / 3})
    F = _scaling_morphism(lam)
    for m in spanning_monomials(1, 5):
        assert F(quantum_K(A2, m)) == quantum_K(target_pot, F(m))


def test_descendant_functoriality():
    # K(f' o f) = K(f') compose K(f) for scalings 2 and 3, arity <= 3
    lam1, lam2 = Fraction(2), Fraction(3)
    F1 = _scaling_morphism(lam1)
    F2 = _scaling_morphism(lam2)
    pot_mid = Potential.single_variable({3: lam1**3 / 3})
    r1 = descendant_morphism(F1, A2, poly_target(1), 3)
    r2 = descendant_morphism(F2, pot_mid, poly_target(1), 3)
    composed = descendant_morphism(
        lambda c: F2(F1(c)), A2, poly_target(1), 3
    )
    bullet = compose_morphisms(r2.morphism, r1.morphism, None)
    probes = [(X,), (X, X), (X, ETA), (X, X, ETA), (ETA, X, X)]
    for args in probes:
        assert composed.morphism.ev(args) == bullet.ev(args)


def test_composition_components_stop_at_the_arity_cap():
    # the components run through the kernel's cap: arity 8 is absent like
    # arity 9, where it used to raise ArityCapError from the kernel
    one = EvalMorphism({n: (lambda args: HPoly.const(len(args))) for n in range(1, 10)})
    comp = compose_morphisms(one, one, lambda a: 0)
    assert comp.ev((X,) * 7) is not None
    assert comp.ev((X,) * 8) is None
    assert comp.ev((X,) * 9) is None


def test_composition_with_identity():
    ident = descendant_morphism(lambda c: c, A2, poly_target(1), 3)
    other = descendant_morphism(_scaling_morphism(Fraction(2)), A2, poly_target(1), 3)
    comp = compose_morphisms(other.morphism, ident.morphism, None)
    assert comp.ev((X,)) == other.morphism.ev((X,))
    assert comp.ev((X, X)) == other.morphism.ev((X, X))


@pytest.fixture(scope="module")
def a3_solution():
    r = build_retract(MilnorData(Potential.a_k(3)))
    q = quantize_retract(r)
    return q, solve_level_zero(q, 4)


def test_correlator_expansion(a3_solution):
    q, z = a3_solution
    corr = correlators(lambda idxs: z.phi0[len(idxs)].get(idxs), z.ghosts, 3, 1)
    for key in corr[1].keys():
        assert corr[1].get(key) == z.phi0[1].get(key)
    for key in corr[2].keys():
        v1, v2 = key
        want = z.phi0[1].get((v1,)) * z.phi0[1].get((v2,)) + z.phi0[2].get(
            key
        ).scale(-HPoly.h())
        assert corr[2].get(key) == want


def test_correlators_are_K_closed(a3_solution):
    q, z = a3_solution
    corr = correlators(lambda idxs: z.phi0[len(idxs)].get(idxs), z.ghosts, 4, 1)
    for n in corr:
        for key in corr[n].keys():
            assert q.Khat(corr[n].get(key)).is_zero()


def test_a3_two_point_function(a3_solution):
    q, z = a3_solution
    corr = correlators(lambda idxs: z.phi0[len(idxs)].get(idxs), z.ghosts, 2, 1)
    want = PolyElement.x(0, 1, 4) - ONE.scale(HPoly.h())
    assert corr[2].get((2, 2)) == want
    assert z.phi0[2].get((2, 2)) == ONE


def test_expectation_kills_exact_shifts(a3_solution):
    q, z = a3_solution
    expect = Expectation(q, [1, 0, 0], span=spanning_monomials(1, 6))
    corr = correlators(lambda idxs: z.phi0[len(idxs)].get(idxs), z.ghosts, 3, 1)
    shift = quantum_K(q.pot, (X * ETA).scale(Fraction(5)))
    for key in corr[2].keys():
        assert expect(corr[2].get(key) + shift) == expect(corr[2].get(key))


def test_expectation_invariant_under_exact_phi1_shift_at_arity_one(a3_solution):
    # Pi_1 = phi_1, so shifting phi_1 by an exact term never moves c(Pi_1);
    # at higher arity single-slot shifts move c(Pi_n) by bracket terms unless
    # the whole family is transported, so only the one-point statement is
    # unconditional
    q, z = a3_solution
    expect = Expectation(q, [1, 0, 0])
    shift = quantum_K(q.pot, X * ETA)
    for i in range(z.dim):
        val = z.phi0[1].get((i,))
        assert expect(val + shift) == expect(val)
    # the cross terms with unshifted slots are exact as well
    lam = X * ETA
    for i in range(z.dim):
        cross = quantum_K(q.pot, lam) * z.phi0[1].get((i,))
        assert expect(cross).is_zero()


def test_correlator_closure_guard(a3_solution):
    from bvcorr.slinf import CorrelatorClosureError

    q, z = a3_solution

    def bad_phi(idxs):
        val = z.phi0[len(idxs)].get(idxs)
        if len(idxs) == 1 and idxs[0] == 1:
            val = val + ETA  # not a morphism any more
        return val

    with pytest.raises(CorrelatorClosureError):
        correlators(bad_phi, z.ghosts, 2, 1, K_check=q.Khat)


def test_expectation_invariants(a3_solution):
    q, _ = a3_solution
    expect = Expectation(q, [1, 0, 0], span=spanning_monomials(1, 6))
    assert expect(ONE) == HPoly.const(1)
    for m in spanning_monomials(1, 6):
        assert expect(quantum_K(q.pot, m)).is_zero()
    with pytest.raises(ValueError):
        Expectation(q, [2, 0, 0])


def test_strongness_probe_is_deterministic():
    r = build_retract(MilnorData(A2))
    q = quantize_retract(r)
    expect = Expectation(q, [1, 0])
    arities = []
    for _ in range(2):
        res = descendant_morphism(
            expect, A2, scalar_target(), 4,
            precheck_span=spanning_monomials(1, 6),
            target_K=lambda s: HPoly.zero(),
        )
        probes = []
        for n in (2, 3, 4):
            for m in (X, X * X):
                probes.append(tuple([m] * n))
        arities.append(probe_descendant(res, probes).failure_arity)
    assert arities == [3, 3]


def test_gaussian_expectation_is_strong_with_cumulants():
    pot = Potential.single_variable({2: Fraction(1, 2)})
    q = quantize_retract(build_retract(MilnorData(pot)))
    expect = Expectation(q, [1], span=spanning_monomials(1, 6))
    assert expect(X * X) == HPoly.h()
    assert expect(X * X * X * X) == HPoly({2: 3})
    res = descendant_morphism(
        expect, pot, scalar_target(), 4,
        precheck_span=spanning_monomials(1, 6),
        target_K=lambda s: HPoly.zero(),
    )
    probes = [tuple([X] * n) for n in (2, 3, 4)]
    assert probe_descendant(res, probes).ok
    z = solve_level_zero(q, 4)
    corr = correlators(lambda idxs: z.phi0[len(idxs)].get(idxs), z.ghosts, 4, 1)
    phi_ev = EvalMorphism(
        {n: (lambda nn: lambda args: z.phi0[nn].get(tuple(args)))(n) for n in range(1, 5)}
    )
    chi = compose_morphisms(res.morphism, phi_ev, lambda a: 0)
    rep = moment_cumulant_report(expect, lambda idxs: chi.ev(idxs), z.ghosts, corr, 4)
    assert rep.ok


# -- the partition form of the morphism-side sums, kept as a reference ------


def _partition_correlators(phi_ev, ghosts, n_max, n_vars):
    out = {}
    for n in range(1, n_max + 1):
        out[n] = {}
        for key in tuples_with_repetition(len(ghosts), n):
            acc = PolyElement.zero(n_vars)
            for p, eps in signed_partitions(n, [ghosts[i] for i in key]):
                term = None
                for b in p:
                    v = phi_ev(tuple(key[j - 1] for j in b))
                    term = v if term is None else term * v
                acc = acc + term.scale(HPoly.neg_h(n - len(p), eps))
            out[n][key] = acc
    return out


def _partition_moments(chi_on_H, ghosts, n_max):
    out = {}
    for n in range(1, n_max + 1):
        out[n] = {}
        for key in tuples_with_repetition(len(ghosts), n):
            acc = HPoly.zero()
            for p, eps in signed_partitions(n, [ghosts[i] for i in key]):
                term = HPoly.const(1)
                for b in p:
                    term = term * chi_on_H(tuple(key[j - 1] for j in b))
                acc = acc + term * HPoly.neg_h(n - len(p), eps)
            out[n][key] = acc
    return out


def _partition_descendant(F, pot, target, n_max):
    # psi on monomial tuples, memoized across calls; arguments expand into
    # monomials by multilinearity
    nv = pot.n_vars
    memo = {}

    def scale(v, coef):
        return v * coef if isinstance(v, HPoly) else v.scale(coef)

    def psi_mono(n, monos):
        key = (n, monos)
        hit = memo.get(key)
        if hit is not None:
            return hit
        elems = [PolyElement(nv, {m: 1}) for m in monos]
        prod = elems[0]
        for e in elems[1:]:
            prod = prod * e
        acc = F(prod)
        if n > 1:
            for p, eps in signed_partitions(n, [-len(m[1]) for m in monos]):
                if len(p) == 1:
                    continue
                term = None
                for b in p:
                    v = psi(len(b), [elems[j - 1] for j in b])
                    term = v if term is None else term * v
                acc = acc - scale(term, HPoly.neg_h(n - len(p), eps))
            try:
                acc = acc.neg_h_divide(n - 1)
            except NotDivisibleError as e:
                raise DescendantDivisibilityError(n, acc, e) from e
        memo[key] = acc
        return acc

    def psi(n, args):
        acc = target.zero
        for monos, coef in _monomial_combos([a.terms for a in args]):
            acc = acc + scale(psi_mono(n, monos), coef)
        return acc

    return EvalMorphism({n: (lambda nn: lambda args: psi(nn, list(args)))(n)
                         for n in range(1, n_max + 1)})


def _random_coef(rng, truncs):
    return HPoly({0: rng.randint(-2, 2), 1: Fraction(rng.randint(-2, 2), 3)},
                 trunc=rng.choice(truncs))


def _random_family(rng, truncs, n_max=4):
    # graded-symmetric tables on 2-3 basis elements of mixed ghost into C
    # with two variables; each value has the parity of its key
    ghosts = [rng.choice((-2, -1, -1, 0, 0)) for _ in range(rng.randint(2, 3))]
    words = [(), (0,), (1,), (0, 1)]
    tables = {}
    for n in range(1, n_max + 1):
        tables[n] = SymMap(n, ghosts, PolyElement.zero(2))
        for key in tuples_with_repetition(len(ghosts), n):
            odd = sum(ghosts[i] for i in key) % 2
            tables[n].set(key, PolyElement(2, {
                ((rng.randint(0, 1), rng.randint(0, 1)),
                 rng.choice([w for w in words if len(w) % 2 == odd])): _random_coef(rng, truncs)
                for _ in range(rng.randint(0, 3))
            }))
    return ghosts, lambda key: tables[len(key)].get(key)


def _random_cumulants(rng, truncs, n_max=4):
    # scalar tables: zero on keys of odd total ghost number
    ghosts = [rng.choice((-2, -1, -1, 0, 0)) for _ in range(rng.randint(2, 3))]
    tables = {}
    for n in range(1, n_max + 1):
        tables[n] = SymMap(n, ghosts, HPoly.zero())
        for key in tuples_with_repetition(len(ghosts), n):
            if sum(ghosts[i] for i in key) % 2 == 0:
                tables[n].set(key, _random_coef(rng, truncs))
    return ghosts, lambda key: tables[len(key)].get(key)


def test_correlators_and_moments_match_their_partition_form(monkeypatch):
    # coefficient for coefficient, on exact and on windowed odd-graded tables.
    # A sum whose known terms all cancel is a windowed zero, which PolyElement
    # and sum_pairs drop as an exact zero; so on windowed tables the two
    # forms are compared through the least window of a windowed zero either
    # one produced, as past it neither knows its coefficients
    zeros = []
    dot = HPoly.dot

    def watched(pairs):
        out = dot(pairs)
        if not out.c and out.trunc < INF_TRUNC:
            zeros.append(out.trunc)
        return out

    monkeypatch.setattr(HPoly, "dot", staticmethod(watched))
    rng = random.Random(17)
    compared = 0
    for truncs in [(None,)] * 4 + [(None, 0, 1, 2)] * 12:
        ghosts, phi = _random_family(rng, truncs)
        zeros.clear()
        new, ref = correlators(phi, ghosts, 4, 2), _partition_correlators(phi, ghosts, 4, 2)
        floor = min(zeros, default=INF_TRUNC)
        assert floor == INF_TRUNC or truncs != (None,)
        for n in ref:
            for key, want in ref[n].items():
                got = new[n].get(key)
                for mono in set(got.terms) | set(want.terms):
                    zero = HPoly.zero()
                    a, b = got.terms.get(mono, zero), want.terms.get(mono, zero)
                    assert a.cap(floor) == b.cap(floor)
                    compared += truncs != (None,) and min(a.trunc, b.trunc, floor) >= 1
        # HPoly sums keep their windowed zeros: the report compares through
        # each moment's own window
        ghosts, chi = _random_cumulants(rng, truncs)
        ref = _partition_moments(chi, ghosts, 4)
        rep = moment_cumulant_report(lambda mu: mu, chi, ghosts, ref, 4)
        assert rep.ok and rep.checks == sum(map(len, ref.values()))
        ref[2] = {key: v + HPoly.h(0) for key, v in ref[2].items()}
        assert moment_cumulant_report(lambda mu: mu, chi, ghosts, ref, 4).first_failure_arity() == 2
    assert compared > 200  # windowed coefficients compared past h^0


def test_correlators_and_moments_do_not_depend_on_the_subset_order(monkeypatch):
    # every value and window is that of one closing, whatever order the
    # anchored subsets come in; a left fold of PolyElement sums differs on
    # these tables where a partial sum cancels inside a finite window
    rng = random.Random(23)
    families = [_random_family(rng, (None, 0, 1, 2)) for _ in range(60)]
    cumulants = [_random_cumulants(rng, (None, 0, 1, 2)) for _ in range(6)]

    def run():
        out = []
        for ghosts, phi in families:
            corr = correlators(phi, ghosts, 4, 2)
            out.append({(n, key): _exact(corr[n].get(key))
                        for n in corr for key in corr[n].keys()})
        for ghosts, chi in cumulants:
            # an expectation that is zero reports each moment of chi, negated
            out.append(_rows(moment_cumulant_report(
                lambda mu: HPoly.zero(), chi, ghosts, {n: {} for n in range(1, 5)}, 4)))
        return out

    want = run()
    real = bvcorr.slinf.subsets
    for seed in range(3):
        order = random.Random(seed)
        monkeypatch.setattr(bvcorr.slinf, "subsets", lambda *args: tuple(
            order.sample(real(*args), len(real(*args)))))
        assert run() == want


def _second_derivative(c):
    def d(p):
        return PolyElement(1, {((e - 1,), w): v * e for ((e,), w), v in p.terms.items() if e})
    return d(d(c))


def test_descendants_match_their_partition_form():
    # psi on probes with eta and inhomogeneous arguments: the same values, or
    # the same failing arity; on equal monomial arguments the same residue.
    # c + h c'' is strong, c + c'' fails at arity 2, the Gaussian expectation
    # is strong and the A2 and A3 ones fail at arity 3
    window = ETA.scale(HPoly({0: 1, 1: 2}, trunc=2))
    elems = [X, ETA, X * X, X * ETA, X + ETA, X * ETA + X * X,
             ONE + X.scale(Fraction(2, 3)), window + X]
    cases = [(A2, lambda c: c + _second_derivative(c).scale(HPoly.h()), poly_target(1)),
             (A2, lambda c: c + _second_derivative(c), poly_target(1))]
    for pot in (Potential.single_variable({2: Fraction(1, 2)}), A2, Potential.a_k(3)):
        q = quantize_retract(build_retract(MilnorData(pot)))
        cases.append((pot, Expectation(q, [1] + [0] * (q.dim - 1)), scalar_target()))
    rng = random.Random(3)
    probes = [(a,) for a in elems] + [(a, b) for a in elems for b in elems]
    probes += [tuple(rng.choices(elems, k=n)) for n in (3, 4) for _ in range(12)]
    probes += [(m,) * n for m in (X, X * X, X * ETA) for n in (2, 3, 4)]

    def run(morphism, args):
        try:
            return True, morphism.ev(args)
        except DescendantDivisibilityError as e:
            return False, (e.arity, e.residue)

    outcomes = set()
    for pot, F, target in cases:
        new = descendant_morphism(F, pot, target, 4).morphism
        ref = _partition_descendant(F, pot, target, 4)
        for args in probes:
            (ok, got), (ref_ok, want) = run(new, args), run(ref, args)
            assert ok == ref_ok
            outcomes.add(ok)
            if ok:
                assert _exact(got) == _exact(want)
            else:
                assert got[0] == want[0]
                if len(set(map(id, args))) == 1 and len(args[0].terms) == 1:
                    assert _exact(got[1]) == _exact(want[1])
    assert outcomes == {True, False}


def test_morphism_sums_enumerate_no_partitions(monkeypatch, a3_solution):
    q, z = a3_solution
    arities = []
    enumerate_ = partitions.set_partitions
    monkeypatch.setattr(partitions, "set_partitions",
                        lambda *args: arities.append(args[0]) or enumerate_(*args))
    partitions._signed.cache_clear()
    phi = lambda idxs: z.phi0[len(idxs)].get(idxs)
    corr = correlators(phi, z.ghosts, 4, 1, K_check=q.Khat)
    expect = Expectation(q, [1, 0, 0])
    chi = lambda idxs: expect(phi(idxs))
    assert moment_cumulant_report(expect, chi, z.ghosts, corr, 4).checks > 0
    res = descendant_morphism(expect, q.pot, scalar_target(), 8)
    probes = [(X, ETA, X * X), (X + ETA, X)] + [(X,) * n for n in (2, 3, 4)]
    assert not probe_descendant(res, probes).ok
    assert arities == []
    # past the cap every sum still refuses
    ones = lambda idxs: ONE
    with pytest.raises(ArityCapError):
        correlators(ones, [0], 8, 1)
    with pytest.raises(ArityCapError):
        moment_cumulant_report(lambda mu: HPoly.zero(), lambda idxs: HPoly.const(1), [0],
                               {n: {} for n in range(1, 9)}, 8)
    with pytest.raises(ArityCapError):
        res.morphism.ev((X * X,) * 8)


def test_plain_record_types():
    # GradedBasisElement: value equality, hashing, repr and no assignment
    a = GradedBasisElement("x", -1)
    assert a == GradedBasisElement("x", -1) and hash(a) == hash(GradedBasisElement("x", -1))
    assert a != GradedBasisElement("x", 0) and a != ("x", -1)
    assert len({a, GradedBasisElement("x", -1), GradedBasisElement("y", -1)}) == 2
    assert repr(a) == "GradedBasisElement(label='x', ghost=-1)"
    with pytest.raises(AttributeError):
        a.ghost = 0
    with pytest.raises(AttributeError):
        del a.label
    r = DescendantResult(ok=True)
    assert (r.ok, r.morphism, r.failure_arity, r.residue) == (True, None, None, None)
    r = DescendantResult(False, failure_arity=3, residue="res")
    assert (r.ok, r.morphism, r.failure_arity, r.residue) == (False, None, 3, "res")
