"""End-to-end runs on potentials outside the quasi-homogeneous family,
plus a synthetic graded basis exercising the sign machinery."""

from fractions import Fraction

import pytest

from bvcorr import (
    Potential,
    build_retract,
    milnor_basis,
    quantize_retract,
)
from bvcorr.fmanifold import (
    FlatCoords,
    flat_coordinate_report,
    structure_constants,
    wdvv_report,
)
from bvcorr.hspace import HVector, SymMap, tuples_with_repetition
from bvcorr.solver import (
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


@pytest.mark.parametrize(
    "name,terms,dim",
    [
        ("mixed-cubic", {3: Fraction(1, 3), 2: Fraction(1, 2)}, 2),
        ("double-well", {4: Fraction(1, 4), 2: Fraction(-1, 2)}, 3),
    ],
)
def test_generic_one_variable_potential(name, terms, dim):
    pot = Potential.single_variable(terms)
    mil = milnor_basis(pot)
    assert mil.dimension == dim
    q = quantize_retract(build_retract(mil), order=8)  # raises unless Delta f = 0
    z = solve_level_zero(q, 4)
    o = solve_level_one(q, z, 4)
    assert level_zero_report(z).ok
    assert level_one_report(o).ok
    assert verify_M_identity(q, z, o, 4).ok
    ms = mhat_symmetric(o)
    assert mhat_unity_report(ms, z.ghosts, 4).ok
    assert generalized_associativity_report(ms, z.ghosts, 1).ok
    pi = reconstruct_pi(ms, z.ghosts, 4)
    for n in range(1, 5):
        for key in z.pi0[n].keys():
            assert pi[n].get(key) == z.pi0[n].get(key)


def test_double_well_products():
    # Q[x]/(x^3 - x): x.x = x^2, x.x^2 = x, x^2.x^2 = x^2
    pot = Potential.single_variable({4: Fraction(1, 4), 2: Fraction(-1, 2)})
    q = quantize_retract(build_retract(milnor_basis(pot)))
    z = solve_level_zero(q, 2)
    o = solve_level_one(q, z, 2)
    ms = mhat_symmetric(o)
    assert ms[2].get((1, 1)) == HVector.basis(2)
    assert ms[2].get((1, 2)) == HVector.basis(1)
    assert ms[2].get((2, 2)) == HVector.basis(2)


class _SyntheticSolution:
    """Just enough of a level-zero solution to feed the series layer."""

    def __init__(self, ghosts, pi0):
        self.ghosts = ghosts
        self.dim = len(ghosts)
        self.pi0 = pi0


def _exterior_mhat(n_max, theta_first=False):
    # the exterior algebra on one odd generator: basis 1 (ghost 0),
    # theta (ghost -1); products 1.v = v, theta.theta = 0.  theta_first
    # puts theta at index 0 and the unit at index 1.
    one, theta = (1, 0) if theta_first else (0, 1)
    ghosts = [0, 0]
    ghosts[theta] = -1
    mhat = {}
    t2 = SymMap(2, ghosts, HVector.zero())
    t2.set((one, one), HVector.basis(one))
    t2.set((min(one, theta), max(one, theta)), HVector.basis(theta))
    t2.set((theta, theta), HVector.zero())
    mhat[2] = t2
    for n in range(3, n_max + 1):
        mhat[n] = SymMap(n, ghosts, HVector.zero())
        for key in tuples_with_repetition(2, n):
            mhat[n].set(key, HVector.zero())
    return ghosts, mhat


def test_graded_reconstruction_and_reports():
    ghosts, mhat = _exterior_mhat(5)
    assert mhat_unity_report(mhat, ghosts, 5).ok
    assert generalized_associativity_report(mhat, ghosts, 3).ok
    pi = reconstruct_pi(mhat, ghosts, 5)
    # iterated products of the algebra: pi_n(1..1) = 1, pi_n(1..1,theta) = theta
    for n in range(1, 6):
        assert pi[n].get((0,) * n) == HVector.basis(0)
        assert pi[n].get((0,) * (n - 1) + (1,)) == HVector.basis(1)
    # two thetas kill every product in sight
    assert pi[2].get((1, 1)).is_zero()
    assert pi[4].get((0, 0, 1, 1)).is_zero()


def test_graded_reconstruction_theta_first():
    # with the odd element first it need not sit in the last block: the
    # partition {1},{2,3} of (theta, 1, 1) puts it in front of mhat, and
    # mhat has degree 0, so no J-sign may enter
    ghosts, mhat = _exterior_mhat(5, theta_first=True)
    assert ghosts == [-1, 0]
    assert generalized_associativity_report(mhat, ghosts, 3).ok
    pi = reconstruct_pi(mhat, ghosts, 5)
    assert pi[3].get((0, 1, 1)) == HVector.basis(0)
    for n in range(1, 6):
        assert pi[n].get((1,) * n) == HVector.basis(1)
        assert pi[n].get((0,) + (1,) * (n - 1)) == HVector.basis(0)
    assert pi[4].get((0, 0, 1, 1)).is_zero()


def test_graded_series_layer():
    ghosts, mhat = _exterior_mhat(6)
    A = structure_constants(mhat, ghosts, 3)
    rep = wdvv_report(A, ghosts, 3)
    assert rep.ok
    # odd-odd structure constants must vanish by graded symmetry
    for c in range(2):
        assert A[(1, 1)][c].is_zero()
    pi = reconstruct_pi(mhat, ghosts, 5)
    z = _SyntheticSolution(ghosts, pi)
    fc = FlatCoords(z, 3)
    frep, sign = flat_coordinate_report(fc, A, 3)
    assert frep.ok
    assert sign in ("plus", "both (transport term vanishes)")
