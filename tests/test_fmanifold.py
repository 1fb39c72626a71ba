import contextlib
import io
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

import pytest

from bvcorr import cli
from bvcorr.fmanifold import (
    FlatCoords,
    TSeries,
    assemble_series,
    flat_coordinate_report,
    generating_function,
    structure_constants,
    theta_mc_report,
    theta_series,
    wdvv_report,
)
from bvcorr.groebner import MilnorData
from bvcorr.hspace import HVector
from bvcorr.polyalg import DescendantFamily, PolyElement, Potential
from bvcorr.retract import build_retract, quantize_retract
from bvcorr.scalars import HPoly
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
    s = TSeries(2, 4, HPoly.zero())
    s.add_term((1, 0), _hp(2))
    t = TSeries(2, 4, HPoly.zero())
    t.add_term((0, 1), _hp(3))
    assert (s * t).coeff((1, 1)) == _hp(6)
    assert (t * s).coeff((1, 1)) == _hp(6)


def test_assemble_series_even_multiplicities():
    # F_n = 1 for every tuple: the coefficient of t^e is 1/prod(e_i!)
    s = assemble_series(2, 3, HPoly.zero(), lambda o: _hp(1), range(1, 4))
    assert s.coeff((2, 0)) == _hp(Fraction(1, 2))
    assert s.coeff((3, 0)) == _hp(Fraction(1, 6))
    assert s.coeff((1, 1)) == _hp(1)


def test_structure_constants_unity_and_values(a3_run):
    q, z, o, ms = a3_run
    A = structure_constants(ms, 2)
    dim = z.dim
    for b in range(dim):
        for c in range(dim):
            want = TSeries(dim, 2, HPoly.zero())
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
    d0 = theta.derivative(0)
    assert d0.coeff((0, 0, 0)) == PolyElement.one(1)


def test_ell_3_vanishes_on_theta_monomials(a3_run):
    # theta_mc_report sums ell_2 only: ell_3 on Theta is zero for Khat
    q, z, o, ms = a3_run
    fam = DescendantFamily(q.pot)
    theta = theta_series(z, 3)
    assert len(theta.terms) > 1
    for triple in combinations_with_replacement(sorted(theta.terms), 3):
        assert fam.ell(3, [theta.terms[e] for e in triple]).is_zero(), triple


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
