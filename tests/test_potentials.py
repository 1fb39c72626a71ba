"""End-to-end runs on potentials outside the quasi-homogeneous family,
plus a synthetic graded basis that the on-shell layer must reject."""

from fractions import Fraction

import pytest

from bvcorr import (
    Potential,
    build_retract,
    milnor_basis,
    quantize_retract,
)
from bvcorr.fmanifold import structure_constants
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
    assert mhat_unity_report(ms, 4).ok
    assert generalized_associativity_report(ms, 1).ok
    pi = reconstruct_pi(ms, 4)
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


def test_on_shell_layer_rejects_an_odd_ghost():
    # H is the Milnor ring, in ghost 0; the on-shell sums carry no Koszul
    # signs, so graded tables are refused rather than summed unsigned
    for theta_first in (False, True):
        ghosts, mhat = _exterior_mhat(5, theta_first)
        calls = [
            lambda: reconstruct_pi(mhat, 5),
            lambda: mhat_unity_report(mhat, 5),
            lambda: generalized_associativity_report(mhat, 3),
            lambda: structure_constants(mhat, 3),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="even ghosts"):
                call()
