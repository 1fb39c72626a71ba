"""Level one of the quantum master equations, and the reports on both levels.

The level-zero core (`LevelZeroSolution`, `solve_level_zero`, the transfer
and the mhat reader) lives in `bvcorr.levelzero`, which `bvcorr fmanifold`
loads without this module.  Here the level-one solver extracts the
h-independent products mhat that generate all level-zero data, and the
reports re-check the solutions of `bvcorr solve`.  Keys are ascending basis
tuples of the cohomology H, the ghosts are even, and the level-one sums read
the level-zero partition sums E, split off the block of the pair.

Khat = K - h Delta is second order, so its descendant brackets ell_n vanish
for n >= 3: `build_M0` evaluates ell_2 only, and no sum here enumerates set
partitions.

Each correlator identity check collects lhs - rhs into one linear
combination and closes it with one `sum_pairs`: it fails exactly when a
coefficient survives inside its window.
"""

from __future__ import annotations

from itertools import combinations

from .errors import MasterEquationError
from .hspace import HVector, PairSymMap, SymMap, tuples_with_repetition
from .levelzero import (
    LevelZeroSolution, _split_sum, _transfer, mhat_dimension, mhat_of_pi0,
)
# bound here too: perfbench's tracer wraps `solver:solve_level_zero`
from .levelzero import solve_level_zero  # noqa: F401
from .partitions import sub_multisets
from .polyalg import (
    DescendantFamily, PolyElement, classical_K, collect_contraction, collect_product,
)
from .retract import QuantizedRetract
from .report import Report
from .scalars import HPoly, sum_pairs


def level_zero_report(sol: LevelZeroSolution) -> Report:
    """Degree bounds, unit laws and hhat(E) = pi0 on the level-zero solution.

    The last follows from the correlator identity fhat pi0 = E - Khat eta1
    and hhat Khat = 0.  hhat is known through the retract's order only, so
    pi0 is cut to that window too: a coordinate of hhat(E) with no term in
    the window is dropped, and it would otherwise read as an exact zero.
    """
    rep = Report()
    for n in range(2, sol.n_max + 1):
        for key in sol.pi0[n].keys():
            rep.checks += 1
            if sol.pi0[n].get(key).h_degree() > n - 2:
                rep.add(n, key, "pi0 h-degree exceeds n-2")
            if sol.eta1[n].get(key).h_degree() > n - 2:
                rep.add(n, key, "eta1 h-degree exceeds n-2")
        for key in tuples_with_repetition(sol.dim, n - 1):
            rep.checks += 1
            ext = tuple(sorted(key + (0,)))
            if sol.pi0[n].get(ext) != (
                sol.pi0[n - 1].get(key) if n > 2 else HVector.basis(key[0])
            ):
                rep.add(n, ext, "pi0 unit law fails")
            prev_eta = (
                sol.eta1[n - 1].get(key)
                if n > 2
                else PolyElement.zero(sol.q.n_vars)
            )
            if sol.eta1[n].get(ext) != prev_eta:
                rep.add(n, ext, "eta1 unit law fails")
    for n in range(1, sol.n_max + 1):
        for key in sol.pi0[n].keys():
            rep.checks += 1
            if sol.q.hhat(sol.E[key]) != sol.pi0[n].get(key).cap_trunc(sol.q.order):
                rep.add(n, key, "hhat(E) differs from pi0")
    return rep


# -- level one -------------


class LevelOneSolution:
    """Families (pi1, eta2, mhat, phim1) on S^(n-2)H (x) S^2H."""

    def __init__(self, z: LevelZeroSolution, n_max: int):
        self.z = z
        self.q = z.q
        self.n_max = n_max
        self.ghosts = z.ghosts
        self.dim = z.dim
        self.pi1 = {}
        self.eta2 = {}
        self.mhat = {}
        self.phim1 = {}
        self.omega1 = {}
        self.varpi0 = {}


def _mhat_sum(terms, mhat, family, key, weight=HPoly.neg_h, trivial=False) -> None:
    """Add to the linear combination `terms` the sum over sub-multisets k of
    the front of weight(|k|, mult) sum_j mhat(k + pair)_j F(front - k, j),
    with even ghosts.

    This is the sum over the pair partitions of key (a pair-table key) whose
    block of the pair is distinguished; k = front, the one-block partition,
    enters only when `trivial` is set.
    """
    front, pair = key[:-2], key[-2:]
    for k, rest, mult in sub_multisets(front, False):
        if not rest and not trivial:
            continue
        inner = mhat[len(k) + 2].values[k + pair]
        if inner.is_zero():
            continue
        w = weight(len(k), mult)
        for j, coef in inner.terms.items():
            args = tuple(sorted(rest + (j,)))
            family[len(args)].values[args].collect(terms, coef * w)


def solve_level_one(q: QuantizedRetract, z: LevelZeroSolution, n_max: int) -> LevelOneSolution:
    """The canonical level-one solution built over a level-zero solution."""
    if n_max > z.n_max:
        raise ValueError("level-zero solution does not reach the requested arity")
    o = LevelOneSolution(z, n_max)
    nv = q.n_vars
    ghosts = o.ghosts
    dim = o.dim

    t_pi = PairSymMap(2, ghosts, HVector.zero())
    t_eta = PairSymMap(2, ghosts, PolyElement.zero(nv))
    t_m = PairSymMap(2, ghosts, HVector.zero())
    t_phi = PairSymMap(2, ghosts, PolyElement.zero(nv))
    for pair in tuples_with_repetition(dim, 2):
        t_pi.set(pair, HVector.zero())
        t_eta.set(pair, PolyElement.zero(nv))
        t_m.set(pair, z.pi0[2].get(pair))
        t_phi.set(pair, z.eta1[2].get(pair))
    o.pi1[2], o.eta2[2], o.mhat[2], o.phim1[2] = t_pi, t_eta, t_m, t_phi

    for n in range(3, n_max + 1):
        omega = PairSymMap(n, ghosts, PolyElement.zero(nv))
        varpi = PairSymMap(n, ghosts, HVector.zero())
        for front in tuples_with_repetition(dim, n - 2):
            for pair in tuples_with_repetition(dim, 2):
                key = front + pair
                # omega = eta1 - sum mhat - sum split, varpi = pi0 - sum mhat
                om, vp = {}, {}
                z.eta1[n].get(key).collect(om, HPoly.neg_h(0))
                _mhat_sum(om, o.mhat, z.eta1, key, lambda k, m: HPoly.neg_h(k, -m))
                _split_sum(om, front, lambda k: o.phim1[len(k) + 2].values[k + pair],
                           z.E, False, -1)
                omega.set(key, PolyElement._of(nv, sum_pairs(om)))
                z.pi0[n].get(key).collect(vp, HPoly.neg_h(0))
                _mhat_sum(vp, o.mhat, z.pi0, key, lambda k, m: HPoly.neg_h(k, -m))
                varpi.set(key, HVector._of(sum_pairs(vp)))
        o.omega1[n] = omega
        o.varpi0[n] = varpi
        o.pi1[n], o.eta2[n], o.phim1[n], o.mhat[n] = _transfer(
            q, omega, varpi, n - 2
        )
        _check_level_one_identities(o, n)
    return o


def _check_level_one_identities(o: LevelOneSolution, n: int) -> None:
    """omega1 - fhat pi1 - Khat eta2 = (-h)^(n-2) phim1 on every key, as the
    one residual fhat pi1 + Khat eta2 + (-h)^(n-2) phim1 - omega1."""
    q = o.q
    top, minus_one = HPoly.neg_h(n - 2), HPoly.neg_h(0, -1)
    for key in o.omega1[n].keys():
        terms = {}
        q.retract.collect_f(terms, o.pi1[n].values[key])
        collect_contraction(terms, o.eta2[n].values[key], q.pot, 1)
        o.phim1[n].values[key].collect(terms, top)
        o.omega1[n].values[key].collect(terms, minus_one)
        if sum_pairs(terms):
            raise MasterEquationError(
                f"level-one identity (correlator) fails at arity {n}, "
                f"{key[:-2]}|{key[-2:]}"
            )


def level_one_report(o: LevelOneSolution) -> Report:
    """Degree bounds, h-independence, symmetry, and unit laws of level one."""
    rep = Report()
    z = o.z
    for n in range(3, o.n_max + 1):
        for key in o.pi1[n].keys():
            where = (key[:-2], key[-2:])
            rep.checks += 1
            if o.pi1[n].get(key).h_degree() > n - 3:
                rep.add(n, where, "pi1 h-degree exceeds n-3")
            if o.eta2[n].get(key).h_degree() > n - 3:
                rep.add(n, where, "eta2 h-degree exceeds n-3")
            if 0 in key[:-2]:
                if not o.pi1[n].get(key).is_zero():
                    rep.add(n, where, "pi1 not killed by a unit slot")
                if not o.eta2[n].get(key).is_zero():
                    rep.add(n, where, "eta2 not killed by a unit slot")
            m = o.mhat[n].get(key)
            rep.checks += 1
            if m.h_degree() > 0:
                rep.add(n, where, "mhat depends on h")
            try:
                top = mhat_of_pi0(z.pi0[n], key)
            except MasterEquationError:
                rep.add(n, where, "pi0 h-degree exceeds n-2")
            else:
                if m != top:
                    rep.add(n, where, "mhat differs from the top pi0 part")
        # full symmetry of mhat across the front/pair split; `get` sorts the
        # front and the pair, so the permutations of key read only its splits
        for key in tuples_with_repetition(o.dim, n):
            rep.checks += 1
            splits = {key[:i] + key[i + 1:j] + key[j + 1:] + (key[i], key[j])
                      for i, j in combinations(range(n), 2)}
            seen = [o.mhat[n].get(split) for split in splits]
            base = seen[0]
            if any(v != base for v in seen[1:]):
                rep.add(n, key, "mhat is not fully symmetric")
    return rep


def mhat_symmetric(o: LevelOneSolution):
    """mhat repackaged as fully symmetric SymMaps (valid when symmetry holds)."""
    out = {}
    for n in range(2, o.n_max + 1):
        t = SymMap(n, o.ghosts, HVector.zero())
        for key in tuples_with_repetition(o.dim, n):
            t.set(key, o.mhat[n].get(key))
        out[n] = t
    return out


def reconstruct_pi(mhat_sym, n_max: int):
    """Rebuild pi0 from the symmetric products mhat alone."""
    dim = mhat_dimension(mhat_sym)
    ghosts = [0] * dim
    pi = {1: SymMap(1, ghosts, HVector.zero())}
    for i in range(dim):
        pi[1].set((i,), HVector.basis(i))
    for n in range(2, n_max + 1):
        table = SymMap(n, ghosts, HVector.zero())
        for key in tuples_with_repetition(dim, n):
            terms = {}
            _mhat_sum(terms, mhat_sym, pi, key, trivial=True)
            table.set(key, HVector._of(sum_pairs(terms)))
        pi[n] = table
    return pi


def build_M0(o: LevelOneSolution, n: int, key, fam: DescendantFamily) -> PolyElement:
    """The four-term combination M0_n of phi0, mhat, phim1 and the brackets.

    `key` is a key of the pair tables: ascending within the front and within
    the pair, its last two entries.  The ghosts are even, as the solvers
    require, so every partition sign is +1.  Khat is second order, so its
    brackets ell_n vanish for n >= 3: only the two-block terms ell_2 enter.
    """
    front, (a, b) = key[:-2], key[-2:]
    phi0 = o.z.phi0
    terms = {}
    phi0[n].get(key).collect(terms, HPoly.neg_h(1))
    # two blocks that split the pair: a with k, b with the rest of the front
    for k, rest, mult in sub_multisets(front, False):
        ka, rb = tuple(sorted(k + (a,))), tuple(sorted(rest + (b,)))
        collect_product(terms, phi0[len(ka)].values[ka], phi0[len(rb)].values[rb],
                        HPoly.neg_h(0, mult))
    _mhat_sum(terms, o.mhat, phi0, key, weight=lambda k, mult: HPoly.neg_h(0, -mult))
    # the bracket correction must enter with a minus sign for
    # M0 = fhat mhat + Khat phim1 to hold: ell_2(phi0(k), phim1(front - k|a b))
    # per nonempty sub-multiset k of the front; a zero argument gives zero
    for k, rest, mult in sub_multisets(front, False):
        if not k:
            continue
        u, w = phi0[len(k)].values[k], o.phim1[len(rest) + 2].values[rest + (a, b)]
        if not (u.is_zero() or w.is_zero()):
            fam.ell(2, [u, w]).collect(terms, HPoly.neg_h(0, -mult))
    return PolyElement._of(o.q.n_vars, sum_pairs(terms))


def verify_M_identity(
    q: QuantizedRetract,
    z: LevelZeroSolution,
    o: LevelOneSolution,
    n_max: int,
) -> Report:
    """Check M0_n = fhat mhat_n + Khat phim1_n plus the classical route.

    The classical variant drops the quantum corrections and recovers mhat as
    h of the classical M_n; both routes must agree, and K kills classical M.
    """
    fam = DescendantFamily(q.pot)
    rep = Report()
    minus_one = HPoly.neg_h(0, -1)
    for n in range(2, n_max + 1):
        for key in o.mhat[n].keys():
            where = (key[:-2], key[-2:])
            rep.checks += 1
            m0 = build_M0(o, n, key, fam)
            # fhat mhat + Khat phim1 - M0, closed as one residual (fhat = f)
            terms = {}
            q.retract.collect_f(terms, o.mhat[n].get(key))
            collect_contraction(terms, o.phim1[n].get(key), q.pot, 1)
            m0.collect(terms, minus_one)
            if sum_pairs(terms):
                rep.add(n, where, "M0 identity fails")
            # classical route: the h^0 part of M0 drops the (-h) phi0 term
            m_cl = m0.classical_part(0)
            if not classical_K(q.pot, m_cl).is_zero():
                rep.add(n, where, "classical M is not K-closed")
            route = q.retract.h(m_cl)
            if route != o.mhat[n].get(key):
                rep.add(n, where, "dual-route mhat mismatch")
    return rep


def generalized_associativity_report(mhat_sym, n_spectators_max: int) -> Report:
    """mhat(v_S, mhat(v_Sc, w1, w2), w3) summed over splits is symmetric.

    Checks the generalized associativity identity with up to the given
    number of spectator arguments over all basis tuples: the sum
    A(w1, w2, w3) over the splits S | Sc of the spectators must equal its
    mirror A(w3, w2, w1), which is the sum mhat(v_S, w1, mhat(v_Sc, w2, w3))
    since the tables are symmetric with even ghosts.  The splits with the
    same sub-multiset Sc give equal terms, so each sub-multiset enters once,
    weighted by its multiplicity.  A is symmetric in (w1, w2), so it is
    summed once per spectator multiset, unordered (w1, w2) and w3, and
    then compared for every ordered triple.
    """
    rep = Report()
    dim = mhat_dimension(mhat_sym)
    for n in range(n_spectators_max + 1):
        for spect in tuples_with_repetition(dim, n) if n else [()]:
            splits = sub_multisets(spect, False)
            A = {}
            for w1, w2 in tuples_with_repetition(dim, 2):
                for w3 in range(dim):
                    terms = {}
                    for vc, vs, mult in splits:
                        inner = mhat_sym[len(vc) + 2].get(vc + (w1, w2))
                        w = HPoly.neg_h(0, mult)
                        for k, coef in inner.terms.items():
                            mhat_sym[len(vs) + 2].get(vs + (k, w3)).collect(terms, coef * w)
                    A[w1, w2, w3] = HVector._of(sum_pairs(terms))
            for w1 in range(dim):
                for w2 in range(dim):
                    for w3 in range(dim):
                        rep.checks += 1
                        mirror = A[min(w2, w3), max(w2, w3), w1]
                        if A[min(w1, w2), max(w1, w2), w3] != mirror:
                            rep.add(
                                n + 3,
                                spect + (w1, w2, w3),
                                "generalized associativity fails",
                            )
    return rep


def mhat_unity_report(mhat_sym, n_max: int) -> Report:
    """Unity: mhat_2(1,v) = v and mhat_n(1,..) = 0 for n >= 3."""
    rep = Report()
    dim = mhat_dimension(mhat_sym)
    for v in range(dim):
        rep.checks += 1
        if mhat_sym[2].get((0, v)) != HVector.basis(v):
            rep.add(2, (0, v), "mhat_2 unit law fails")
    for n in range(3, n_max + 1):
        for key in tuples_with_repetition(dim, n - 1):
            rep.checks += 1
            if not mhat_sym[n].get((0,) + key).is_zero():
                rep.add(n, (0,) + key, "mhat_n(1,..) nonzero")
    return rep
