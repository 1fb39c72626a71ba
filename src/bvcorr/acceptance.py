"""The acceptance suite: one deterministic check per criterion.

Each criterion function returns (ok, detail).  Everything is seeded and
iteration orders are fixed, so two runs print identical bytes; the CLI
`selftest` subcommand and the pytest acceptance module both drive this.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from .gauge import PerturbedRetract, compare_retracts
from .groebner import MilnorData
from .hspace import HVector, tuples_with_repetition
from .polyalg import (
    DescendantFamily,
    PolyElement,
    Potential,
    bv_bracket,
    classical_K,
    delta_op,
    quantum_K,
)
from .retract import build_retract, quantize_retract, spanning_monomials
from .scalars import HPoly
from .slinf import (
    EvalMorphism,
    Expectation,
    GradedBasisElement,
    SLInfStructure,
    coderivation_square,
    compose_morphisms,
    correlators,
    descendant_morphism,
    moment_cumulant_report,
    probe_descendant,
    scalar_target,
    verify_sl_infinity,
)
from .solver import (
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
from .fmanifold import (
    FlatCoords,
    flat_coordinate_report,
    generating_function,
    structure_constants,
    theta_mc_report,
    wdvv_report,
)

_pipeline_cache: dict = {}


def pipeline(k: int, n_max: int, order: int = 6):
    """Retract, quantization, and both solver levels for A_k (cached)."""
    key = (k, n_max, order)
    hit = _pipeline_cache.get(key)
    if hit is None:
        pot = Potential.a_k(k)
        r = build_retract(MilnorData(pot))
        q = quantize_retract(r, order=order)
        z = solve_level_zero(q, n_max)
        o = solve_level_one(q, z, n_max)
        hit = (pot, r, q, z, o)
        _pipeline_cache[key] = hit
    return hit


def criterion_1_bv_axioms():
    """Delta^2 = K^2 = anticommutator = 0 and the derivation-failure identity."""
    start = time.time()
    for k in (2, 3):
        pot = Potential.a_k(k)
        span = spanning_monomials(1, 8)
        for m in span:
            if not delta_op(delta_op(m)).is_zero():
                return False, f"Delta^2 != 0 on {m} (A{k})"
            if not classical_K(pot, classical_K(pot, m)).is_zero():
                return False, f"K^2 != 0 on {m} (A{k})"
            anti = delta_op(classical_K(pot, m)) + classical_K(pot, delta_op(m))
            if not anti.is_zero():
                return False, f"Delta K + K Delta != 0 on {m} (A{k})"
        for a in span:
            for b in span:
                lhs = (
                    quantum_K(pot, a * b)
                    - quantum_K(pot, a) * b
                    - a.J() * quantum_K(pot, b)
                )
                rhs = bv_bracket(a, b).scale(-HPoly.h())
                if lhs != rhs:
                    return False, f"derivation-failure identity fails on {a}, {b}"
    elapsed = time.time() - start
    if elapsed > 5.0:
        return False, f"runtime {elapsed:.1f}s exceeds 5s"
    return True, "axioms hold on the degree-8 spanning set for both potentials"


def _random_homogeneous(rng, max_degree=4) -> PolyElement:
    """A one- or two-term homogeneous element with small integer data."""
    etas = () if rng.random() < 0.5 else (0,)
    terms = {}
    for _ in range(rng.choice((1, 2))):
        d = rng.randrange(max_degree + 1)
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        terms[((d,), etas)] = terms.get(((d,), etas), 0) + c
    e = PolyElement(1, terms)
    return e if not e.is_zero() else PolyElement.monomial(1, (1,), etas)


def criterion_2_descendant_collapse(samples: int = 200):
    """ell_2 equals the bracket and ell_3..ell_5 vanish on random tuples."""
    start = time.time()
    rng = random.Random(20240601)
    pot = Potential.a_k(2)
    fam = DescendantFamily(pot)
    for _ in range(samples):
        a = _random_homogeneous(rng)
        b = _random_homogeneous(rng)
        if fam.ell(2, [a, b]) != bv_bracket(a, b):
            return False, f"ell_2 != bracket on {a}, {b}"
    for n in (3, 4, 5):
        for _ in range(samples):
            args = [_random_homogeneous(rng) for _ in range(n)]
            if not fam.ell(n, args).is_zero():
                return False, f"ell_{n} != 0 on a random tuple"
    elapsed = time.time() - start
    if elapsed > 30.0:
        return False, f"runtime {elapsed:.1f}s exceeds 30s"
    return True, f"{samples} tuples per arity, arities 2..5"


def _copy_structure(S: SLInfStructure) -> SLInfStructure:
    out = SLInfStructure(S.basis, unit=S.unit)
    for n, table in S.ops.items():
        for key, val in table.values.items():
            out.set_op(n, key, val)
    return out


def _corruptions(S: SLInfStructure, want: int):
    """Deterministically corrupt single structure constants of S.

    Yields up to `want` copies of S with one ghost-compatible constant
    shifted so that the relations demonstrably fail at arity <= 4.
    """
    dim = len(S.basis)
    found = 0
    for n in (1, 2, 3):
        for idxs in tuples_with_repetition(dim, n):
            if any(S.ghosts[i] % 2 and idxs.count(i) > 1 for i in idxs):
                continue
            target_ghost = sum(S.ghosts[i] for i in idxs) + 1
            for t in range(dim):
                if S.ghosts[t] != target_ghost:
                    continue
                bad = _copy_structure(S)
                cur = bad.ops.get(n)
                curval = cur.get(idxs) if cur else HVector.zero()
                bad.set_op(n, idxs, curval + HVector({t: Fraction(1)}))
                if verify_sl_infinity(bad, 4).has_kind("relation"):
                    yield bad
                    found += 1
                    if found >= want:
                        return


def _synthetic_structures():
    """Ten valid and ten corrupted structures with arities <= 4."""
    valid = []
    # zero structures over assorted graded bases
    for ghosts in ((0,), (0, -1), (0, -1, -2), (1, 0, -1)):
        basis = [GradedBasisElement(f"e{i}", g) for i, g in enumerate(ghosts)]
        valid.append(SLInfStructure(basis))
    # two-step chains d(c) = k b, d(b) = 0 with a bracket l2(a, b) = b
    for c in (1, 2, 3):
        basis = [
            GradedBasisElement("a", 0),
            GradedBasisElement("b", -1),
            GradedBasisElement("c", -2),
        ]
        S = SLInfStructure(basis)
        S.set_op(1, (1,), HVector({0: Fraction(c)}))
        valid.append(S)
    # descendant of the A2 BV algebra on the closed sub-basis {1, x, x^2, eta},
    # with the bracket rescaled (a rescaled sDGLA stays an sDGLA)
    for c in (1, 2, 5):
        valid.append(_a2_sub_structure(Fraction(c)))
    corrupted = []
    per_source = [0] * len(valid)
    round_idx = 0
    while len(corrupted) < 10 and round_idx < 4:
        for i, S in enumerate(valid):
            if len(corrupted) >= 10:
                break
            gen = list(_corruptions(S, per_source[i] + 1))
            if len(gen) > per_source[i]:
                corrupted.append(gen[per_source[i]])
                per_source[i] += 1
        round_idx += 1
    return valid, corrupted[:10]


def _a2_sub_structure(scale: Fraction) -> SLInfStructure:
    pot = Potential.a_k(2)
    fam = DescendantFamily(pot)
    one = PolyElement.one(1)
    x = PolyElement.x(0, 1)
    x2 = PolyElement.x(0, 1, 2)
    eta = PolyElement.eta(0, 1)
    sub = [one, x, x2, eta]
    ghosts = [0, 0, 0, -1]

    def to_vec(p):
        table = {((0,), ()): 0, ((1,), ()): 1, ((2,), ()): 2, ((0,), (0,)): 3}
        v = {}
        for key, coef in p.terms.items():
            v[table[key]] = v.get(table[key], HPoly.zero()) + coef
        return HVector(v)

    basis = [
        GradedBasisElement(s, g) for s, g in zip(["1", "x", "x2", "eta"], ghosts)
    ]
    S = SLInfStructure(basis, unit=0)
    for idxs in tuples_with_repetition(4, 1):
        S.set_op(1, idxs, to_vec(fam.ell(1, [sub[i] for i in idxs])))
    for idxs in tuples_with_repetition(4, 2):
        if sum(1 for i in idxs if ghosts[i] % 2 and idxs.count(i) > 1):
            continue
        val = fam.ell(2, [sub[i] for i in idxs]).scale(scale)
        S.set_op(2, idxs, to_vec(val))
    return S


def criterion_3_oracle_agreement():
    """verify_sl_infinity and coderivation_square agree on 20 structures."""
    valid, corrupted = _synthetic_structures()
    for i, S in enumerate(valid):
        r1 = verify_sl_infinity(S, 4)
        r2 = coderivation_square(S, 4)
        if not (r1.ok and r2.ok):
            return False, f"valid structure {i} rejected by an oracle"
    for i, S in enumerate(corrupted):
        r1 = verify_sl_infinity(S, 4)
        r2 = coderivation_square(S, 4)
        if r1.ok or r2.ok:
            return False, f"corrupted structure {i} accepted by an oracle"
        a1 = r1.first_failure_arity(kind="relation")
        a2 = r2.first_failure_arity()
        if a1 != a2:
            return False, (
                f"oracles disagree on first failure arity for structure {i}: "
                f"{a1} vs {a2}"
            )
    return True, "10 valid and 10 corrupted structures, arities <= 4"


def criterion_4_retract_quantization():
    """Retract identities, the Delta f = 0 guard, and the gauge comparison."""
    for k in (2, 3, 4):
        pipeline(k, 5)  # quantize_retract raises unless Delta f_i = 0
    # K-exact perturbation on A2: quantize and compare to h-order 6
    pot = Potential.a_k(2)
    base = build_retract(MilnorData(pot))
    x = PolyElement.x(0, 1)
    eta = PolyElement.eta(0, 1)
    lam = [PolyElement.zero(1), (x * eta).scale(Fraction(1, 2))]
    pert = PerturbedRetract(base, lam)
    q0 = quantize_retract(base, order=6)
    q1 = quantize_retract(pert, order=6)
    compare_retracts(q0, q1)  # raises on verification failure
    compare_retracts(q1, q0)
    return True, "A2-A4 anomaly-free; perturbed comparison verified to order 6"


def criterion_5_level_zero():
    """Canonical level-zero solutions for A2-A4 at n_max = 5."""
    for k in (2, 3, 4):
        start = time.time()
        pot, r, q, z, o = pipeline(k, 5)
        rep = level_zero_report(z)
        if not rep.ok:
            v = rep.violations[0]
            return False, f"A{k}: {v.residual} at {v.where}"
        elapsed = time.time() - start
        if elapsed > 120.0:
            return False, f"A{k} runtime {elapsed:.1f}s exceeds 2 min"
    return True, "defining identities, degree bounds, and unit laws hold"


def criterion_6_level_one():
    """Level-one solutions, h-independence of mhat, and the M identity."""
    for k in (2, 3, 4):
        pot, r, q, z, o = pipeline(k, 5)
        rep = level_one_report(o)
        if not rep.ok:
            v = rep.violations[0]
            return False, f"A{k}: {v.residual} at {v.where}"
        repM = verify_M_identity(q, z, o, 5)
        if not repM.ok:
            v = repM.violations[0]
            return False, f"A{k}: {v.residual} at {v.where}"
    return True, "level-one identities, mhat h-independence, M identity, dual route"


def criterion_7_correlation_algebra():
    """Symmetry, unity, generalized associativity; pi0 reconstruction."""
    for k in (2, 3, 4):
        pot, r, q, z, o = pipeline(k, 5)
        ms = mhat_symmetric(o)
        rep = mhat_unity_report(ms, 5)
        if not rep.ok:
            return False, f"A{k}: unity fails"
        rep = generalized_associativity_report(ms, 3)
        if not rep.ok:
            v = rep.violations[0]
            return False, f"A{k}: associativity fails at {v.where}"
        pi = reconstruct_pi(ms, 5)
        for n in range(1, 6):
            for key in z.pi0[n].keys():
                if pi[n].get(key) != z.pi0[n].get(key):
                    return False, f"A{k}: reconstructed pi0 differs at {key}"
    return True, "mhat generates pi0 exactly on A2-A4 through arity 5"


def criterion_8_f_manifold():
    """WDVV through t-order 4; flat-coordinate PDEs; generating function."""
    start = time.time()
    signs = set()
    for k in (2, 3, 4):
        pot, r, q, z, o = pipeline(k, 6, order=10)
        ms = mhat_symmetric(o)
        A = structure_constants(ms, 4)
        rep = wdvv_report(A, 4)
        if not rep.ok:
            v = rep.violations[0]
            return False, f"A{k}: WDVV fails at {v.where}: {v.residual}"
        fc = FlatCoords(z, 4)
        frep, sign = flat_coordinate_report(fc, A, 4)
        if not frep.ok:
            v = frep.violations[0]
            return False, f"A{k}: flat coordinates fail: {v.residual}"
        if sign == "neither":
            return False, f"A{k}: no determinate PDE sign"
        signs.add(sign if "both" not in sign else "plus")
        expect = Expectation(q, [1] + [0] * (z.dim - 1))
        zc, zt, zrep = generating_function(expect.apply_iota, fc)
        if not zrep.ok:
            v = zrep.violations[0]
            return False, f"A{k}: generating function: {v.residual}"
        fam = DescendantFamily(pot)
        mcrep = theta_mc_report(z, fam, 3)
        if not mcrep.ok:
            return False, f"A{k}: Maurer-Cartan residual nonzero"
    elapsed = time.time() - start
    if elapsed > 120.0:
        return False, f"runtime {elapsed:.1f}s exceeds 2 min"
    if len(signs) != 1:
        return False, f"PDE sign not consistent across examples: {signs}"
    return True, f"WDVV, flat coordinates (sign: {signs.pop()}), Z dual route"


def criterion_9_expectation_layer():
    """The canonical expectation on A2: cochain map, factorization, cumulants."""
    pot, r, q, z, o = pipeline(2, 5)
    span = spanning_monomials(1, 8)
    expect = Expectation(q, [1, 0], span=span)
    corr = correlators(lambda idxs: z.phi0[len(idxs)].get(idxs), z.ghosts, 4, 1)
    for n in range(1, 5):
        for key in z.pi0[n].keys():
            lhs = expect(corr[n].get(key))
            rhs = expect.apply_iota(z.pi0[n].get(key))
            if lhs != rhs:
                return False, f"factorization fails at arity {n}, {key}"
    # strongness probe: fails deterministically at one arity, twice
    arities = []
    for _ in range(2):
        res = descendant_morphism(
            expect,
            pot,
            scalar_target(),
            4,
            precheck_span=span,
            target_K=lambda s: HPoly.zero(),
        )
        x = PolyElement.x(0, 1)
        probes = []
        for n in (2, 3, 4):
            for m in (x, x * x):
                probes.append(tuple([m] * n))
        resP = probe_descendant(res, probes)
        arities.append(resP.failure_arity)
    if arities[0] is None:
        # strong after all: the moment-cumulant identity must hold
        phi_ev = EvalMorphism(
            {
                n: (lambda nn: lambda args: z.phi0[nn].get(tuple(args)))(n)
                for n in range(1, 5)
            }
        )
        chi = compose_morphisms(res.morphism, phi_ev, lambda a: 0)
        rep = moment_cumulant_report(
            expect, lambda idxs: chi.ev(idxs), z.ghosts, corr, 4
        )
        if not rep.ok:
            return False, "moment-cumulant identity fails"
        return True, "expectation is strong; moment-cumulant identity holds"
    if arities[0] != arities[1]:
        return False, f"nondeterministic incompatibility arity: {arities}"
    return True, (
        f"factorization holds; expectation is not strong, descendant "
        f"h-divisibility fails at arity {arities[0]} (reported twice)"
    )


CRITERIA = [
    ("bv-axioms", criterion_1_bv_axioms),
    ("descendant-collapse", criterion_2_descendant_collapse),
    ("sl-infinity-oracles", criterion_3_oracle_agreement),
    ("retract-quantization", criterion_4_retract_quantization),
    ("level-zero-solution", criterion_5_level_zero),
    ("level-one-solution", criterion_6_level_one),
    ("correlation-algebra", criterion_7_correlation_algebra),
    ("f-manifold-outputs", criterion_8_f_manifold),
    ("expectation-layer", criterion_9_expectation_layer),
]


def render_criteria() -> str:
    """Run criteria 1-9 once; returns the one-line-per-criterion report."""
    lines = []
    for name, fn in CRITERIA:
        ok, detail = fn()
        status = "PASS" if ok else "FAIL"
        lines.append(f"{status} {name}: {detail}")
    return "\n".join(lines)


def run_selftest() -> tuple[str, bool]:
    """Run the suite twice (cold caches) and check the output is stable."""
    first = render_criteria()
    _pipeline_cache.clear()
    second = render_criteria()
    if first == second:
        det_line = "PASS determinism: byte-identical output across two runs"
    else:
        det_line = "FAIL determinism: outputs differ between runs"
    out = first + "\n" + det_line
    ok = all(line.startswith("PASS") for line in out.splitlines())
    return out, ok
