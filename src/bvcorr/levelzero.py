"""The canonical solution of the level-zero quantum master equation.

Everything is computed on ascending basis tuples of the cohomology H and
extended multilinearly.  The level-zero solver produces the distinguished
quasi-isomorphism phi0 together with the correlation products pi0 and the
homotopies eta1.  The quantized retract has Delta f_i = 0
(`QuantizedRetract` checks it), so its anomaly vanishes and the transferred
structure lhat is zero by ghost degree: no sum is twisted by either.  Solver
intermediates (Omega, varpi) are retained on the solution for audit output,
and the correlator identity is re-checked before a solution is returned.

The sum over set partitions p of a key m, E_m = sum_p (-h)^(|m|-|p|)
prod_B phi0(v_B), has only +1 signs on even ghosts and depends only on the
multisets of the blocks: it is the exponential formula (Stanley, Enumerative
Combinatorics vol. 2, section 5.1).  Splitting off the block of the smallest
index a of m gives one product per sub-multiset k instead of one per partition:

    E_m = sum_{k <= m, a in k} prod_i C(m_i - d_ia, k_i - d_ia)
          (-h)^(|k|-1) phi0(k) E_{m-k},        E_() = 1.

E is built once; the level-one sums of `bvcorr.solver` split off the block of
the pair and read E on the rest, and `fmanifold.generating_function` reads E
as the correlators of phi0.  The solvers therefore need even ghosts.  So do
the on-shell functions that take mhat tables alone: H is the Milnor ring,
which sits in ghost number 0, and `mhat_dimension` rejects a table with an
odd ghost.

`mhat_from_pi0` reads the on-shell products mhat off level zero, which is
all that `bvcorr fmanifold` needs: the command loads this module and not the
level-one solver and its reports in `bvcorr.solver`.
"""

from __future__ import annotations

from .errors import MasterEquationError
from .hspace import HVector, PairSymMap, SymMap, tuples_with_repetition
from .partitions import sub_multisets
from .polyalg import PolyElement, collect_contraction, collect_product
from .retract import QuantizedRetract, nabla
from .scalars import HPoly, NotDivisibleError, sum_pairs


class LevelZeroSolution:
    """Families (pi0, eta1, phi0, lhat) indexed by arity, plus intermediates
    and the table E of partition sums of phi0 on ascending keys.  lhat and
    varpi1 are zero tables: the transferred structure vanishes by ghost
    degree."""

    def __init__(self, q: QuantizedRetract, n_max: int):
        self.q = q
        self.n_max = n_max
        self.ghosts = q.ghosts
        self.dim = q.dim
        self.pi0 = {}
        self.eta1 = {}
        self.phi0 = {}
        self.lhat = {}
        self.omega0 = {}
        self.varpi1 = {}
        self.E = {}


def _split_sum(terms, key, block, E, anchored, sign=1) -> None:
    """Add to the linear combination `terms` the sum over sub-multisets k of
    key, k != key, of sign mult block(k) E[key - k] (-h)^(|k|-1) when
    `anchored` (the block holds key[0], level zero), else (-h)^|k| (the block
    holds the pair besides k, level one)."""
    for k, rest, mult in sub_multisets(key, anchored):
        if not rest:
            continue
        v = block(k)
        if v.terms:
            collect_product(terms, v, E[rest], HPoly.neg_h(len(k) - anchored, sign * mult))


def _transfer(q: QuantizedRetract, omega, varpi, steps: int):
    """Homotopy transfer of Omega through `steps` applications of nabla.

    With Omega_0 = Omega and Omega_{k+1} = nabla(Omega_k), returns
    pi = sum_k (-h)^k h(Omega_k^cl), eta = sum_k (-h)^k s(Omega_k^cl), the
    last Omega_steps and varpi / (-h)^steps, all on the table type and keys
    of Omega.  The keys are canonical, so the tables are read and written
    directly; pi and eta are summed once, after the last step, and nabla
    reuses Omega_k^cl and s(Omega_k^cl).  nabla divides every value by
    construction, so a broken retract identity shows in the solvers'
    correlator checks, not here.  An undivisible varpi entry is a failed
    products identity varpi = (-h)^steps mhat and raises MasterEquationError.
    """
    r = q.retract
    keys = omega.keys()
    pis, etas = {key: {} for key in keys}, {key: {} for key in keys}
    om_iter = omega
    for step in range(steps):
        w = HPoly.neg_h(step)
        cl = om_iter.classical_part(0).values
        s_cl = {key: r.s(cl[key]) for key in keys}
        for key in keys:
            r.h(cl[key]).collect(pis[key], w)
            s_cl[key].collect(etas[key], w)
        om_iter = nabla(q, om_iter, cl, s_cl)
    pi_acc = type(omega)(omega.arity, omega.ghosts, HVector.zero())
    pi_acc.values = {key: HVector._of(sum_pairs(pis[key])) for key in keys}
    eta_acc = type(omega)(omega.arity, omega.ghosts, PolyElement.zero(q.n_vars))
    eta_acc.values = {key: PolyElement._of(q.n_vars, sum_pairs(etas[key])) for key in keys}
    top = type(varpi)(varpi.arity, varpi.ghosts, varpi.zero_value)
    for key, v in varpi.values.items():
        try:
            top.values[key] = v.neg_h_divide(steps)
        except NotDivisibleError as e:
            where = (f"{key[:-2]}|{key[-2:]}" if isinstance(varpi, PairSymMap)
                     else f"{key}")
            raise MasterEquationError(
                f"products identity fails at arity {varpi.arity}, {where}: "
                f"varpi is not divisible by (-h)^{steps} "
                f"(nonzero coefficient at h^{e.offending_exponent})"
            ) from e
    return pi_acc, eta_acc, om_iter, top


def solve_level_zero(q: QuantizedRetract, n_max: int) -> LevelZeroSolution:
    """The canonical level-zero solution over a quantized retract."""
    if any(g % 2 for g in q.ghosts):
        raise ValueError("the master-equation solvers need even ghosts")
    sol = LevelZeroSolution(q, n_max)
    nv = q.n_vars
    ghosts = sol.ghosts
    dim = sol.dim

    t_pi = SymMap(1, ghosts, HVector.zero())
    t_eta = SymMap(1, ghosts, PolyElement.zero(nv))
    t_phi = SymMap(1, ghosts, PolyElement.zero(nv))
    t_l = SymMap(1, ghosts, HVector.zero())
    for i in range(dim):
        t_pi.set((i,), HVector.basis(i))
        t_eta.set((i,), PolyElement.zero(nv))
        t_phi.set((i,), q.fhat(HVector.basis(i)))
        t_l.set((i,), HVector.zero())
    sol.pi0[1], sol.eta1[1], sol.phi0[1], sol.lhat[1] = t_pi, t_eta, t_phi, t_l
    E = sol.E
    E[()] = PolyElement.one(nv)
    E.update(t_phi.values)

    for n in range(2, n_max + 1):
        omega = SymMap(n, ghosts, PolyElement.zero(nv))
        for key in tuples_with_repetition(dim, n):
            terms = {}
            _split_sum(terms, key, lambda k: sol.phi0[len(k)].values[k], E, True)
            E[key] = om = PolyElement._of(nv, sum_pairs(terms))  # completed below
            omega.set(key, om)
        sol.omega0[n] = omega
        sol.varpi1[n] = omega.map_values(lambda _: HVector.zero())
        sol.pi0[n], sol.eta1[n], om_last, sol.lhat[n] = _transfer(
            q, omega, sol.varpi1[n], n - 1
        )
        sol.phi0[n] = om_last.map_values(lambda v: -v)
        for key, v in sol.phi0[n].values.items():
            E[key] = E[key] + v.scale(HPoly.neg_h(n - 1))
        _check_level_zero_identities(sol, n)
    return sol


def _check_level_zero_identities(sol: LevelZeroSolution, n: int) -> None:
    """fhat pi0 = E - Khat eta1 on every key, as the one residual
    fhat pi0 + Khat eta1 - E (fhat = f on a quantized retract)."""
    q = sol.q
    minus_one = HPoly.neg_h(0, -1)
    for key in sol.pi0[n].keys():
        terms = {}
        q.retract.collect_f(terms, sol.pi0[n].values[key])
        collect_contraction(terms, sol.eta1[n].values[key], q.pot, 1)
        sol.E[key].collect(terms, minus_one)
        if sum_pairs(terms):
            raise MasterEquationError(
                f"level-zero identity (correlator) fails at arity {n}, {key}"
            )


def mhat_of_pi0(pi0_n: SymMap, key) -> HVector:
    """mhat_n(key) = (-1)^n [h^(n-2)] pi0_n(key), read off level zero.

    This is the one home of the formula that `solver.level_one_report`
    checks on the canonical solution.  A power of h above n - 2 in
    pi0_n(key) would be dropped by it, so it raises MasterEquationError
    instead.
    """
    n = pi0_n.arity
    v = pi0_n.get(key)
    if v.h_degree() > n - 2:
        raise MasterEquationError(
            f"pi0 h-degree exceeds n-2 at arity {n}, {key}: "
            "mhat cannot be read off level zero"
        )
    top = v.classical_part(n - 2)
    return -top if n % 2 else top


def mhat_from_pi0(pi0, n_max: int):
    """The symmetric mhat tables of arities 2..n_max read off the level-zero
    products pi0 by `mhat_of_pi0`, without solving level one."""
    out = {}
    for n in range(2, n_max + 1):
        t = SymMap(n, pi0[n].ghosts, HVector.zero())
        t.values = {key: mhat_of_pi0(pi0[n], key) for key in pi0[n].keys()}
        out[n] = t
    return out


def mhat_dimension(mhat_sym) -> int:
    """The dimension of H read off symmetric mhat tables, which must carry
    even ghosts: the on-shell sums have no Koszul signs."""
    if any(g % 2 for t in mhat_sym.values() for g in t.ghosts):
        raise ValueError("the on-shell layer needs even ghosts")
    return len(mhat_sym[2].ghosts)
