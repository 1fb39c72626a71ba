import contextlib
import copy
import io
import json
import random
from fractions import Fraction
from itertools import combinations_with_replacement, product
from operator import add
from pathlib import Path

import pytest

from bvcorr import cli, levelzero
from bvcorr.fmanifold import (
    FlatCoords,
    TSeries,
    flat_coordinate_report,
    generating_function,
    structure_constants,
    theta_mc_report,
    table_terms,
    theta_series,
    wdvv_report,
)
from bvcorr.groebner import MilnorData
from bvcorr.hspace import HVector
from bvcorr.polyalg import DescendantFamily, PolyElement, Potential
from bvcorr.report import Report
from bvcorr.retract import build_retract, quantize_retract
from bvcorr.scalars import INF_TRUNC, HPoly
from bvcorr.slinf import Expectation
from bvcorr.solver import mhat_symmetric, solve_level_one, solve_level_zero


@pytest.fixture(scope="module")
def a3_run():
    q = quantize_retract(build_retract(MilnorData(Potential.a_k(3))), order=8)
    z = solve_level_zero(q, 5)
    o = solve_level_one(q, z, 5)
    return q, z, o, mhat_symmetric(o)


def _hp(v):
    return HPoly.const(Fraction(v))


def test_tseries_even_commutativity():
    s = TSeries(2, 4)
    s.add_term((1, 0), _hp(2))
    t = TSeries(2, 4)
    t.add_term((0, 1), _hp(3))
    assert (s * t).coeff((1, 1)) == _hp(6)
    assert (t * s).coeff((1, 1)) == _hp(6)


def test_table_terms_divides_by_the_key_factorial():
    # the key k is the exponent of t^k and its entry the coefficient of t^k/k!
    items = [((), _hp(5)), ((0, 0), _hp(1)), ((0, 0, 0), _hp(1)), ((0, 1), _hp(1)),
             ((0, 1, 1, 1), _hp(12)), ((1,), HPoly.zero()), ((0, 0, 1), HPoly.h(-2))]
    got = table_terms(2, items)
    assert got == {
        (0, 0): _hp(5),  # the empty key is the zero exponent
        (2, 0): _hp(Fraction(1, 2)),
        (3, 0): _hp(Fraction(1, 6)),
        (1, 1): _hp(1),  # distinct indices: 1! 1! = 1
        (1, 3): _hp(2),
        (2, 1): HPoly({-2: Fraction(1, 2)}),
    }
    assert (0, 1) not in got  # a zero value is dropped
    # an entry that needs no division is the table's own value
    one = _hp(7)
    assert table_terms(3, [((0, 2), one)])[(1, 0, 1)] is one
    # the values may be elements of C
    x = PolyElement.x(0, 1)
    assert table_terms(1, [((0, 0), x)]) == {(2,): x.scale(Fraction(1, 2))}


def test_structure_constants_unity_and_values(a3_run):
    q, z, o, ms = a3_run
    A = structure_constants(ms, 2)
    dim = z.dim
    for b in range(dim):
        for c in range(dim):
            want = TSeries(dim, 2)
            if b == c:
                want.add_term((0,) * dim, _hp(1))
            assert A[(0, b)][c] == want
    # A3: m2(x, x) = x^2 so the constant term of A[1,1]^2 is 1
    assert A[(1, 1)][2].coeff((0, 0, 0)) == _hp(1)
    assert A[(1, 1)][0].coeff((0, 0, 0)) == _hp(0)


def test_a2_structure_constants_at_zero():
    q = quantize_retract(build_retract(MilnorData(Potential.a_k(2))), order=8)
    z = solve_level_zero(q, 4)
    o = solve_level_one(q, z, 4)
    ms = mhat_symmetric(o)
    A = structure_constants(ms, 2)
    for c in range(z.dim):
        assert A[(1, 1)][c].coeff((0, 0)) == _hp(0)


def test_wdvv_passes_and_catches_corruption(a3_run):
    q, z, o, ms = a3_run
    A = structure_constants(ms, 3)
    assert wdvv_report(A, 3).ok
    # hand-corrupt one coefficient: associativity must locate a violation
    bad = {k: [s.copy() for s in v] for k, v in A.items()}
    bad[(1, 1)][2].add_term((1, 0, 0), _hp(1))
    rep = wdvv_report(bad, 3)
    assert not rep.ok
    assert any("associativity" in str(v.residual) for v in rep.violations)


def _associativity_both_sides(A, t_order):
    """WDVV associativity with both sides summed for every (a, b, g, s), the
    reference for the product table of `wdvv_report` on symmetric A."""
    dim = len(A[(0, 0)])
    out = []
    for a, b, g, s in product(range(dim), repeat=4):
        lhs = TSeries.dot((A[(a, b)][r], A[(r, g)][s]) for r in range(dim))
        rhs = TSeries.dot((A[(b, g)][r], A[(a, r)][s]) for r in range(dim))
        if not lhs.eq_through(rhs, t_order):
            first = min((e for e in (lhs - rhs).terms if sum(e) <= t_order),
                        key=lambda e: (sum(e), e), default=None)
            out.append(((a, b, g, s), f"associativity fails at {first}"))
    return out


@pytest.mark.parametrize("seed", range(4))
def test_wdvv_product_table_matches_both_sides_on_symmetric_corruptions(a3_run, seed):
    q, z, o, ms = a3_run
    A = structure_constants(ms, 3)
    rnd = random.Random(seed)
    bad = {k: [s.copy() for s in v] for k, v in A.items()}
    a, b = rnd.randrange(1, 3), rnd.randrange(1, 3)
    exp = tuple(rnd.randrange(2) for _ in range(3))
    c = rnd.randrange(3)
    for ab in {(a, b), (b, a)}:
        bad[ab][c].add_term(exp, _hp(rnd.choice([1, -2, 3])))
    rep = wdvv_report(bad, 3)
    got = [(v.where, v.residual) for v in rep.violations if "associativity" in v.residual]
    assert got == _associativity_both_sides(bad, 3)
    assert got


def test_wdvv_reads_an_asymmetric_A_as_a_symmetry_failure_first(a3_run):
    # the product table reads A_ab on a <= b only: on asymmetric input the
    # symmetry check must decide the verdict before associativity is read
    q, z, o, ms = a3_run
    A = structure_constants(ms, 3)
    bad = {k: [s.copy() for s in v] for k, v in A.items()}
    bad[(2, 1)][1].add_term((0, 1, 0), _hp(1))
    rep = wdvv_report(bad, 3)
    assert not rep.ok
    first = rep.violations[0]
    assert (first.where, first.residual) == ((1, 2, 1), "symmetry fails")


def _potentiality_failures(A, t_order):
    """The instances d_a A_bg^s != d_b A_ag^s, each ordered one compared."""
    dim = len(A[(0, 0)])
    return [
        (a, b, g, s)
        for a, b, g, s in product(range(dim), repeat=4)
        if not A[(b, g)][s].derivative(a).eq_through(A[(a, g)][s].derivative(b), t_order - 1)
    ]


def test_potentiality_reports_both_instances_of_a_mirror_pair(a3_run):
    # each mirror pair is compared once, but both instances are counted and
    # reported, in the order of the ordered instances
    q, z, o, ms = a3_run
    A = structure_constants(ms, 3)
    assert all(A[(a, b)] is A[(b, a)] for a, b in A)
    bad = {k: [s.copy() for s in v] for k, v in A.items()}
    for key in ((1, 2), (2, 1)):  # still symmetric: d_0 A_12^0 moves, d_1 A_02^0 not
        bad[key][0].add_term((1, 0, 0), _hp(1))
    rep = wdvv_report(bad, 3)
    got = [v.where for v in rep.violations if v.residual == "potentiality fails"]
    assert got == _potentiality_failures(bad, 3)
    assert (0, 1, 2, 0) in got and (1, 0, 2, 0) in got
    assert rep.checks == wdvv_report(A, 3).checks


def test_flat_coordinates_properties(a3_run):
    q, z, o, ms = a3_run
    A = structure_constants(ms, 3)
    fc = FlatCoords(z, 3)
    dim = z.dim
    zero_exp = (0,) * dim
    for c in range(dim):
        lin = [fc.T[c].coeff(tuple(1 if i == b else 0 for i in range(dim))) for b in range(dim)]
        for b, v in enumerate(lin):
            assert v == (HPoly.const(1) if b == c else HPoly.zero())
    rep, sign = flat_coordinate_report(fc, A, 3)
    assert rep.ok
    assert sign == "plus"


def test_generating_function_examples(a3_run):
    q, z, o, ms = a3_run
    expect = Expectation(q, [1, 0, 0])
    zc, zt, rep = generating_function(expect.apply_iota, FlatCoords(z, 3))
    assert rep.ok
    dim = z.dim
    assert zc.coeff((0,) * dim) == HPoly.const(1)
    # coefficient of t^a at order 1: -iota(pi0_1(e_a))/h
    for a in range(dim):
        e = tuple(1 if i == a else 0 for i in range(dim))
        want = HPoly({-1: Fraction(-1)}) if a == 0 else HPoly.zero()
        assert zc.coeff(e) == want


def test_theta_mc(a3_run):
    q, z, o, ms = a3_run
    fam = DescendantFamily(q.pot)
    rep = theta_mc_report(z, fam, 3)
    assert rep.ok
    theta = theta_series(z, 3)
    # d_0 Theta = 1_C
    assert theta[(1, 0, 0)] == PolyElement.one(1)
    assert [e for e in theta if e[0]] == [(1, 0, 0)]


@pytest.mark.parametrize("n, key", [(1, (0,)), (2, (0, 2))], ids=["unit", "t0-power"])
def test_theta_d0_fails_off_the_unit(a3_run, monkeypatch, n, key):
    # d_0 Theta = 1_C: Theta holds 1_C at t_0 and no other t_0 power
    q, z, o, ms = a3_run
    bad = z.phi0[n].get(key) + PolyElement.one(1)
    monkeypatch.setitem(z.phi0[n].values, key, bad)
    rep = theta_mc_report(z, DescendantFamily(q.pot), 3)
    assert "d_0 Theta != 1_C" in [v.residual for v in rep.violations]


def test_ell_3_vanishes_on_theta_monomials(a3_run):
    # theta_mc_report sums ell_2 only: ell_3 on Theta is zero for Khat
    q, z, o, ms = a3_run
    fam = DescendantFamily(q.pot)
    theta = theta_series(z, 3)
    assert len(theta) > 1
    for triple in combinations_with_replacement(sorted(theta), 3):
        assert fam.ell(3, [theta[e] for e in triple]).is_zero(), triple


def test_theta_mc_fails_on_a_corrupted_phi0(a3_run, monkeypatch):
    q, z, o, ms = a3_run
    fam = DescendantFamily(q.pot)
    bad = z.phi0[2].get((1, 1)) + PolyElement.x(0, 1) * PolyElement.eta(0, 1)
    monkeypatch.setitem(z.phi0[2].values, (1, 1), bad)
    rep = theta_mc_report(z, fam, 3)
    assert [v.residual for v in rep.violations] == [
        "Maurer-Cartan residual is nonzero"]


def test_flat_coords_laurent_bounds(a3_run):
    q, z, o, ms = a3_run
    fc = FlatCoords(z, 4)
    assert fc.low_exponent_ok()


def test_fmanifold_command_builds_the_flat_coordinates_once(monkeypatch):
    calls = []
    init = FlatCoords.__init__
    monkeypatch.setattr(
        FlatCoords, "__init__", lambda fc, *a: calls.append(1) or init(fc, *a)
    )
    job = Path(__file__).parent / "golden" / "a2.job.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["fmanifold", "--input", str(job)]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("terms, iota", [
    ([[[4], "1/4"]], ["1", "-2/3", "5"]),
    ([[[4], "1/4"], [[3], "1/3"], [[2], "-1/2"]], ["1", "3/7", "-1/2"]),
], ids=["a3", "quartic-lower-terms"])
def test_cli_generating_function_matches_the_library_expectation(tmp_path, terms, iota):
    t_order, h_order = 3, 4
    job = tmp_path / "job.json"
    job.write_text(json.dumps({
        "schema": 1, "potential": {"n_vars": 1, "terms": terms},
        "n_max": 4, "h_order": h_order, "t_order": t_order, "iota": iota,
    }))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["fmanifold", "--input", str(job)]) == 0
    (z_line,) = [ln for ln in out.getvalue().splitlines() if ln.startswith("Z = ")]

    pot = cli.JobSpec(json.loads(job.read_text())).potential
    q = quantize_retract(build_retract(MilnorData(pot)), order=h_order + t_order)
    z = solve_level_zero(q, t_order + 2)
    expect = Expectation(q, [Fraction(v) for v in iota])
    zc, _, rep = generating_function(expect.apply_iota, FlatCoords(z, t_order))
    assert rep.ok
    assert z_line == f"Z = {zc}"
    # a non-default iota reaches Z
    default = generating_function(Expectation(q, [1, 0, 0]).apply_iota,
                                  FlatCoords(z, t_order))[0]
    assert str(zc) != str(default)


# -- the flat-coordinate sign resolution against its two-pass form -------------


def _fold_product(a, b):
    """a * b by the double loop over terms, summed term by term; each
    coefficient product is a one-pair `HPoly.dot`, not `_times`' shift."""
    out = TSeries(a.dim, a.t_order)
    for ea, va in a.terms.items():
        for eb, vb in b.terms.items():
            out.add_term(tuple(x + y for x, y in zip(ea, eb)), HPoly.dot(((va, vb),)))
    return out


def _two_pass_report(fc, A, t_order):
    """flat_coordinate_report in its two-pass form, the reference: every
    derivative taken anew and the residual rebuilt once per sign."""
    rep = Report()
    dim = fc.z.dim
    zero_exp = (0,) * dim
    for c in range(dim):
        rep.checks += 1
        if not fc.T[c].constant_term().is_zero():
            rep.add(0, (c,), "That does not vanish at t = 0")
        for b in range(dim):
            rep.checks += 1
            d = fc.T[c].derivative(b).constant_term()
            if d != HPoly.const(1 if b == c else 0):
                rep.add(0, (b, c), "boundary derivative fails")
        rep.checks += 1
        lhs = fc.T[c].derivative(0)
        rhs = TSeries(dim, t_order)
        if c == 0:
            rhs.add_term(zero_exp, HPoly.const(1))
        rhs = rhs + fc.T[c].scale(HPoly.neg_h(-1))
        if not lhs.eq_through(rhs, t_order - 1):
            rep.add(0, (c,), "unit-direction equation fails")
    if not fc.low_exponent_ok():
        rep.add(0, (), "h-exponent lower bound violated")
    verdicts = []
    for sign_name, sgn in (("minus", Fraction(-1)), ("plus", Fraction(1))):
        ok = True
        for a in range(dim):
            for b in range(dim):
                for c in range(dim):
                    second = fc.T[c].derivative(b).derivative(a).scale(HPoly.h())
                    transport = None
                    for r in range(dim):
                        term = _fold_product(A[(a, b)][r], fc.T[c].derivative(r))
                        transport = term if transport is None else transport + term
                    resid = second + transport.scale(sgn)
                    if not resid.eq_through(TSeries(dim, t_order), t_order - 2):
                        ok = False
        verdicts.append((sign_name, ok))
    holding = [name for name, ok in verdicts if ok]
    if len(holding) == 1:
        return rep, holding[0]
    if len(holding) == 2:
        return rep, "both (transport term vanishes)"
    rep.add(0, (), "flat-coordinate PDE fails for both signs")
    return rep, "neither"


def _summary(rep, sign):
    return rep.checks, [(v.where, v.residual) for v in rep.violations], sign, rep.ok


FLAT_POTENTIALS = {
    "A2": Potential.a_k(2),
    "A3": Potential.a_k(3),
    "A4": Potential.a_k(4),
    "quartic": Potential.single_variable(
        {4: Fraction(1, 4), 3: Fraction(1, 3), 2: Fraction(-1, 2)}),
}


@pytest.fixture(scope="module", params=sorted(FLAT_POTENTIALS))
def flat_run(request):
    t_order = 3
    q = quantize_retract(
        build_retract(MilnorData(FLAT_POTENTIALS[request.param])), order=4 + t_order)
    z = solve_level_zero(q, t_order + 2)
    o = solve_level_one(q, z, t_order + 2)
    return FlatCoords(z, t_order), structure_constants(mhat_symmetric(o), t_order), t_order


def test_sign_resolution_matches_the_two_pass_form(flat_run):
    fc, A, t_order = flat_run
    got = _summary(*flat_coordinate_report(fc, A, t_order))
    assert got == _summary(*_two_pass_report(fc, A, t_order))
    assert got[2] == "plus" and got[3]


def test_negated_structure_constants_resolve_to_minus(flat_run):
    fc, A, t_order = flat_run
    neg = {ab: [-s for s in comps] for ab, comps in A.items()}
    got = _summary(*flat_coordinate_report(fc, neg, t_order))
    assert got == _summary(*_two_pass_report(fc, neg, t_order))
    assert got[2] == "minus"


def test_a_corrupted_flat_coordinate_resolves_to_neither(flat_run):
    # h d_1 d_1 of h^3 t1^2 leaves 2h^4 at t = 0, where the transport of
    # d_r(t1^2) = 2 t1 delta_r1 vanishes: both signs fail
    fc, A, t_order = flat_run
    dim = fc.z.dim
    bad = copy.copy(fc)
    bad.T = [s.copy() for s in fc.T]
    bad.T[dim - 1].add_term(tuple(2 if i == 1 else 0 for i in range(dim)), HPoly.h(3))
    rep, sign = flat_coordinate_report(bad, A, t_order)
    assert _summary(rep, sign) == _summary(*_two_pass_report(bad, A, t_order))
    assert sign == "neither" and not rep.ok
    assert "flat-coordinate PDE fails for both signs" in [v.residual for v in rep.violations]


def test_a_corruption_seen_only_on_the_diagonal_resolves_to_neither():
    # at t_order 2 the PDE is compared at t = 0 only: h d_1 d_1 of h^3 t1^2
    # is 2h^4 there, and its first derivatives vanish at t = 0, so only
    # (a, b) = (1, 1) of the unordered pairs sees the corruption
    q = quantize_retract(build_retract(MilnorData(Potential.a_k(3))), order=6)
    z = solve_level_zero(q, 4)
    A = structure_constants(levelzero.mhat_from_pi0(z.pi0, 4), 2)
    fc = FlatCoords(z, 2)
    assert flat_coordinate_report(fc, A, 2)[1] == "plus"
    fc.T[2].add_term((0, 2, 0), HPoly.h(3))
    rep, sign = flat_coordinate_report(fc, A, 2)
    assert sign == "neither"
    assert [v.residual for v in rep.violations] == ["flat-coordinate PDE fails for both signs"]


# -- TSeries.dot against the fold of products -------------


def _random_series(rng, dim, order, windowed, shifts=False):
    """A random series; with `shifts`, about a third of its coefficients are
    one exact term s h^j, whose products `_times` takes as shifts."""
    s = TSeries(dim, order)
    for _ in range(rng.randint(1, 5)):
        exp = [0] * dim
        for _ in range(rng.randint(0, order)):
            exp[rng.randrange(dim)] += 1
        if shifts and rng.random() < 0.35:
            s.add_term(exp, HPoly({rng.randint(-2, 3): rng.choice([1, -1, 2, Fraction(-3, 4)])}))
            continue
        coeffs = {rng.randint(-2, 3): Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                  for _ in range(rng.randint(1, 3))}
        trunc = rng.randint(3, 6) if windowed and rng.random() < 0.5 else None
        s.add_term(exp, HPoly(coeffs, trunc=trunc))
    return s


def _exact(series):
    return {e: (v.trunc, {k: str(c) for k, c in v.c.items()})
            for e, v in series.terms.items()}


def _one_term_exact(v):
    return v.trunc >= INF_TRUNC and len(v.c) == 1


def _one_pair_shifts(pairs, order):
    """Counts of the t-exponents that one coefficient product reaches, with
    one factor a single exact term and the other factor windowed or exact."""
    cols = {}
    for a, b in pairs:
        for ea, va in a.terms.items():
            for eb, vb in b.terms.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                if sum(e) <= order:
                    cols.setdefault(e, []).append((va, vb))
    windowed = exact = 0
    for col in cols.values():
        if len(col) == 1 and any(map(_one_term_exact, col[0])):
            x, y = col[0]
            other = y if _one_term_exact(x) else x
            exact += other.trunc >= INF_TRUNC
            windowed += other.trunc < INF_TRUNC
    return windowed, exact


def test_tseries_dot_matches_the_fold():
    compared = cut = cancelled = 0
    shifted = [0, 0]
    # seeds 60.. give some coefficients one exact term, so one-pair columns
    # close through `_times` as shifts, against windowed and exact factors
    for seed in range(120):
        rng = random.Random(seed)
        shifts = seed >= 60
        dim, order = rng.randint(1, 3), rng.randint(1, 4)
        pairs = [(_random_series(rng, dim, order, seed % 2 == 1, shifts),
                  _random_series(rng, dim, order, seed % 3 == 1, shifts))
                 for _ in range(rng.randint(1, 4))]
        # the negated first pair cancels every exponent only it reaches
        pairs.append((-pairs[0][0], pairs[0][1]))
        # the fold drops a key whose partial sum cancels, with its window;
        # only a cancellation before the last term can change the sum
        fold, running_cancel = None, False
        for i, (a, b) in enumerate(pairs):
            term = _fold_product(a, b)
            cut += any(sum(ea) + sum(eb) > order for ea in a.terms for eb in b.terms)
            if 0 < i < len(pairs) - 1:
                running_cancel |= any(
                    e in fold.terms and (fold.terms[e] + v).is_zero()
                    for e, v in term.terms.items())
            fold = term if fold is None else fold + term
        first = _fold_product(*pairs[0])
        cancelled += any(e not in fold.terms for e in first.terms)
        got = TSeries.dot(pairs)
        assert (got.dim, got.t_order) == (dim, order)
        if not running_cancel:
            compared += 1
            assert _exact(got) == _exact(fold)
            if shifts:
                shifted = list(map(add, shifted, _one_pair_shifts(pairs, order)))
        # a product is the one-pair case
        assert _exact(pairs[0][0] * pairs[0][1]) == _exact(first)
    assert compared >= 100 and cut >= 120 and cancelled >= 40
    assert min(shifted) >= 10, shifted


# -- bvcorr fmanifold reads mhat_n = (-1)^n [h^(n-2)] pi0_n off level zero

GOLDEN = Path(__file__).parent / "golden"
# the fmanifold-horder mu = 3 job shape, and a golden job with a non-default iota
GUARD_JOBS = {
    "mu3": {"schema": 1, "potential": {"n_vars": 1, "terms": [
        [[4], "1/2"], [[2], "1/2"], [[1], "-2"]]}, "n_max": 4, "h_order": 5, "t_order": 3},
    "quartic_iota": json.loads((GOLDEN / "quartic_iota.job.json").read_text()),
}


def _fmanifold_with_pi0_shifted(monkeypatch, tmp_path, job, n, power):
    """Run `bvcorr fmanifold` with h^power e_1 added to the last pi0_n entry."""
    solve = levelzero.solve_level_zero

    def shifted(q, n_max):
        z = solve(q, n_max)
        key = z.pi0[n].keys()[-1]
        z.pi0[n].values[key] = z.pi0[n].values[key] + HVector.basis(1).scale(HPoly.h(power))
        return z

    # `cmd_fmanifold` imports it from its home when it runs
    monkeypatch.setattr(levelzero, "solve_level_zero", shifted)
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["fmanifold", "--input", str(path)])
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("job", sorted(GUARD_JOBS))
def test_a_corrupted_top_pi0_part_fails_an_fmanifold_check(monkeypatch, tmp_path, job, n):
    # the top part is mhat: the on-shell checks must see it change
    code, out, _ = _fmanifold_with_pi0_shifted(monkeypatch, tmp_path, GUARD_JOBS[job], n, n - 2)
    assert code == cli.EXIT_VIOLATION
    assert any(line.startswith("check wdvv: FAIL (") for line in out.splitlines())


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("job", sorted(GUARD_JOBS))
def test_a_pi0_power_above_n_minus_2_is_a_violated_identity(monkeypatch, tmp_path, job, n):
    # reading mhat would drop the term: the command stops, without a traceback
    code, out, err = _fmanifold_with_pi0_shifted(monkeypatch, tmp_path, GUARD_JOBS[job], n, n - 1)
    assert code == cli.EXIT_VIOLATION
    assert out == ""
    assert err.startswith("identity violated: pi0 h-degree exceeds n-2 at arity ")
    assert "Traceback" not in err
