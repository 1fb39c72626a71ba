"""Identities that the series read off the level-zero tables must satisfy,
checked against computations outside the pipeline.

- The exponential formula.  `fmanifold.table_terms` reads a table f on
  multisets as the series sum_m f(m) t^m / m!.  Read that way, the
  partition sums E of phi0 are exp(Phi), where
  Phi = sum_m (-h)^(|m|-1) phi0(m) t^m / m! and the powers are taken with
  the product of C; and `generating_function`'s Z_corr is
  iota . hhat(exp(-Theta / h)), coefficient by coefficient.  The powers
  here are plain truncated series products, not the solver's anchored
  recursion.
- Rescaling.  e^(-lambda S / h) = e^(-S / (h / lambda)), so S -> lambda S is
  h -> h / lambda: pi0 of lambda S is pi0 of S with [h^j] scaled by
  lambda^(-j), and since mhat_n = (-1)^n [h^(n-2)] pi0_n, the structure
  constants satisfy A(t) of lambda S = A(t / lambda) of S.
"""

from fractions import Fraction
from math import factorial
from operator import add

import pytest

from bvcorr.fmanifold import FlatCoords, generating_function, structure_constants, table_terms, theta_series
from bvcorr.groebner import MilnorData
from bvcorr.levelzero import mhat_from_pi0, solve_level_zero
from bvcorr.polyalg import PolyElement, Potential
from bvcorr.retract import build_retract, quantize_retract
from bvcorr.scalars import HPoly


def _level_zero(pot, n_max):
    return solve_level_zero(quantize_retract(build_retract(MilnorData(pot))), n_max)


def _product(f, g, order):
    """The product of two {t-exponent: PolyElement} series through `order`."""
    out = {}
    for e, u in f.items():
        for k, v in g.items():
            s = tuple(map(add, e, k))
            if sum(s) <= order:
                out[s] = out[s] + u * v if s in out else u * v
    return out


def _exp(phi, dim, order):
    """exp(phi) = sum_j phi^j / j! for a series phi without constant term."""
    zero = (0,) * dim
    total = {zero: PolyElement.one(1)}
    power = dict(total)
    for j in range(1, order + 1):
        power = _product(power, phi, order)
        for e, v in power.items():
            term = v.scale(Fraction(1, factorial(j)))
            total[e] = total[e] + term if e in total else term
    return total


def _exponent(key, dim):
    return tuple(key.count(i) for i in range(dim))


# name -> (potential, n_max, E keys, keys where exp(Phi) with +h differs)
EXP_CASES = {
    "A3": (Potential.a_k(3), 6, 84, 35),
    "quartic": (Potential.single_variable(
        {4: Fraction(1, 4), 3: Fraction(1, 3), 2: Fraction(-1, 2)}), 6, 84, 35),
    "quintic": (Potential.single_variable(
        {5: Fraction(2, 5), 3: Fraction(-3, 2), 1: Fraction(3, 4)}), 5, 126, 55),
}


@pytest.fixture(scope="module", params=sorted(EXP_CASES))
def exp_case(request):
    pot, n_max, keys, flipped = EXP_CASES[request.param]
    return _level_zero(pot, n_max), n_max, keys, flipped


def test_partition_sums_are_the_exponential_of_phi0(exp_case):
    z, n_max, keys, flipped = exp_case
    dim = z.dim
    E = table_terms(dim, z.E.items())
    zero = PolyElement.zero(1)
    mismatches = []
    for weight in (lambda k: HPoly.neg_h(len(k) - 1), lambda k: HPoly.h(len(k) - 1)):
        phi = table_terms(dim, (
            (k, v.scale(weight(k)))
            for n in range(1, n_max + 1) for k, v in z.phi0[n].values.items()))
        want = _exp(phi, dim, n_max)
        mismatches.append(sum(
            E.get(e, zero) != want.get(e, zero)
            for e in (_exponent(k, dim) for k in z.E)))
    assert len(z.E) == keys
    # with (-h)^(|m|-1) every key holds; with (+h)^(|m|-1) the check fails
    assert mismatches == [0, flipped]


def test_generating_function_is_iota_hhat_of_exp_minus_theta_over_h(exp_case):
    z, t_order, keys, _ = exp_case
    dim = z.dim
    iota = [1] + [Fraction(3, 7) if i % 2 else Fraction(-5, 2) for i in range(1, dim)]

    def expect(v):
        return v.pair(iota)

    z_corr = generating_function(expect, FlatCoords(z, t_order))[0]
    theta = theta_series(z, t_order)
    compared = []
    for power in (-1, 1):  # -Theta / h, and the control +Theta / h
        series = _exp({e: v.scale(HPoly.neg_h(power)) for e, v in theta.items()},
                      dim, t_order)
        exps = set(series) | set(z_corr.terms)
        compared.append((len(exps), sum(
            z_corr.coeff(e) != (expect(z.q.hhat(series[e])) if e in series else HPoly.zero())
            for e in exps)))
    assert compared[0] == (keys, 0)
    assert compared[1][1] > 0


def _rescaled(v, lam):
    """v with its h^j coefficient scaled by lam^(-j)."""
    return HPoly({j: c * lam ** -j for j, c in v.c.items()}, trunc=v.trunc)


# (coefficients of S, lambda, pi0 keys, pi0 coordinates that differ unrescaled)
RESCALE_CASES = [
    ({4: Fraction(1, 4), 2: Fraction(1, 3), 1: Fraction(-2, 7)}, Fraction(3, 2), 83, 86),
    ({5: Fraction(1, 5), 3: Fraction(1, 3), 1: Fraction(-2, 7)}, Fraction(-2, 5), 209, 335),
]


@pytest.mark.parametrize("coeffs, lam, keys, unscaled", RESCALE_CASES, ids=["quartic", "quintic"])
def test_rescaling_the_potential_rescales_h(coeffs, lam, keys, unscaled):
    n_max = 6
    z = _level_zero(Potential.single_variable(coeffs), n_max)
    zl = _level_zero(Potential.single_variable({d: lam * c for d, c in coeffs.items()}), n_max)
    seen, rescaled_off, raw_off = 0, 0, 0
    for n in range(1, n_max + 1):
        assert zl.pi0[n].keys() == z.pi0[n].keys()
        for key in z.pi0[n].keys():
            seen += 1
            for c in range(z.dim):
                u, w = zl.pi0[n].get(key).coeff(c), z.pi0[n].get(key).coeff(c)
                rescaled_off += u != _rescaled(w, lam)
                raw_off += u != w
    assert (seen, rescaled_off, raw_off) == (keys, 0, unscaled)

    # A(t) of lambda S is A(t / lambda) of S
    t_order = n_max - 2
    A = structure_constants(mhat_from_pi0(z.pi0, n_max), t_order)
    Al = structure_constants(mhat_from_pi0(zl.pi0, n_max), t_order)
    scaled_off = plain_off = 0
    for ab, comps in A.items():
        for c, s in enumerate(comps):
            sl = Al[ab][c]
            for e in set(s.terms) | set(sl.terms):
                scaled_off += sl.coeff(e) != s.coeff(e) * lam ** -sum(e)
                plain_off += sl.coeff(e) != s.coeff(e)
    assert scaled_off == 0
    assert plain_off > 0
