"""Deformation series over the cohomology: structure constants, flat
coordinates, Maurer-Cartan checks, and correlation generating functions.

One deformation coordinate t^a is attached to each basis element of H.  H
is the Milnor ring, which sits in ghost number 0 (the partial derivatives of
an isolated singularity form a regular sequence, so the Koszul complex has no
other cohomology); every t^a is therefore even and the series are ordinary
commutative power series.  A TSeries is a scalars.Combination keyed by
t-exponent, which owns its linear algebra; coefficients are exact scalars
(HVector values for the structure constants before they are split, elements
of C for the universal solution Theta).  `structure_constants` rejects mhat
tables with an odd ghost.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial, prod
from operator import add

from .hspace import HVector
from .levelzero import LevelZeroSolution, mhat_dimension
from .polyalg import DescendantFamily, PolyElement
from .report import Report
from .scalars import Combination, HPoly


class TSeries(Combination):
    """Truncated series in the deformation coordinates.

    `terms` maps t-exponent vectors of total degree <= t_order to
    coefficients: HPoly (negative h-exponents allowed), HVector or
    PolyElement, with `zero_value` the zero coefficient.  The linear algebra
    is Combination's; the `dim` coordinates commute.  Products (`*`, `dot`)
    take HPoly-valued series.
    """

    __slots__ = ("dim", "t_order", "zero_value")

    def __init__(self, dim: int, t_order: int, zero_value):
        self.dim = dim
        self.t_order = t_order
        self.zero_value = zero_value
        self.terms = {}

    def _like(self, terms: dict) -> "TSeries":
        out = TSeries(self.dim, self.t_order, self.zero_value)
        out.terms = terms
        return out

    def _zero(self):
        return self.zero_value

    def copy(self) -> "TSeries":
        return self._like(dict(self.terms))

    def add_term(self, exp, value) -> None:
        exp = tuple(exp)
        if sum(exp) > self.t_order:
            return
        if not value.is_zero():
            self._add_at(exp, value)

    def coeff(self, exp):
        return self.terms.get(tuple(exp), self.zero_value)

    def __mul__(self, other: "TSeries") -> "TSeries":
        return TSeries.dot(((self, other),))

    @staticmethod
    def dot(pairs) -> "TSeries":
        """The sum of a * b over a nonempty iterable of (a, b) pairs of
        HPoly-valued series, with the first a's dim and t_order.

        The coefficient pairs are collected per t-exponent through t_order
        and each exponent closes with one HPoly.dot; zeros are dropped.
        """
        pairs = list(pairs)
        shape = pairs[0][0]
        order = shape.t_order
        cols = {}
        for a, b in pairs:
            right = [(eb, sum(eb), vb) for eb, vb in b.terms.items()]
            for ea, va in a.terms.items():
                room = order - sum(ea)
                for eb, deg, vb in right:
                    if deg <= room:
                        cols.setdefault(tuple(map(add, ea, eb)), []).append((va, vb))
        out = TSeries(shape.dim, order, shape.zero_value)
        for exp, col in cols.items():
            v = HPoly.dot(col)
            if v.c:
                out.terms[exp] = v
        return out

    def derivative(self, alpha: int) -> "TSeries":
        """Derivative with respect to t^alpha."""
        out = TSeries(self.dim, self.t_order, self.zero_value)
        for e, v in self.terms.items():
            if e[alpha] == 0:
                continue
            ne = list(e)
            ne[alpha] -= 1
            k = e[alpha]
            out.add_term(tuple(ne), v if k == 1 else v * k)
        return out

    def constant_term(self):
        return self.coeff((0,) * self.dim)

    def eq_through(self, other: "TSeries", order: int) -> bool:
        keys = set(self.terms) | set(other.terms)
        for e in keys:
            if sum(e) > order:
                continue
            if self.coeff(e) != other.coeff(e):
                return False
        return True

    def __eq__(self, other):
        if not isinstance(other, TSeries):
            return NotImplemented
        return self.eq_through(other, min(self.t_order, other.t_order))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e, v in self.sorted_terms():
            mono = "*".join(
                f"t{i}" if k == 1 else f"t{i}^{k}"
                for i, k in enumerate(e)
                if k
            )
            bits.append(f"({v})" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)


def _t_monomials(dim: int, order: int):
    """All exponent vectors of total degree <= order."""
    out = []

    def rec(prefix):
        if len(prefix) == dim:
            out.append(tuple(prefix))
            return
        for k in range(order - sum(prefix) + 1):
            rec(prefix + [k])

    rec([])
    out.sort(key=lambda e: (sum(e), e))
    return out


def assemble_series(dim, t_order, zero_value, term_fn, degrees) -> TSeries:
    """Build sum_n (1/n!) sum_rho t^{rho_1}..t^{rho_n} F_n(rho_1..rho_n).

    term_fn(ordering) returns the coefficient value on the ascending index
    tuple of one monomial; `degrees` lists the n to include.  F_n is
    symmetric, so the n!/prod(e_i!) orderings of t^e share one value.
    """
    out = TSeries(dim, t_order, zero_value)
    for exp in _t_monomials(dim, t_order):
        if sum(exp) not in degrees:
            continue
        ordering = tuple(i for i, k in enumerate(exp) for _ in range(k))
        denom = prod(factorial(k) for k in exp)
        value = term_fn(ordering)
        out.add_term(exp, value if denom == 1 else Fraction(1, denom) * value)
    return out


# -- assembled objects -------------


def theta_series(z: LevelZeroSolution, t_order: int) -> TSeries:
    """The universal Maurer-Cartan element Theta built from phi0."""
    nv = z.q.n_vars
    return assemble_series(
        z.dim,
        t_order,
        PolyElement.zero(nv),
        lambda ordering: z.phi0[len(ordering)].get(ordering),
        range(1, t_order + 1),
    )


def structure_constants(mhat_sym, t_order: int):
    """The deformed products A_{ab}^c as scalar series.

    Requires mhat through arity t_order + 2.  Returns a dict mapping (a, b)
    to a list of TSeries, one per output index c.  A_ab and A_ba read the
    same canonical entries of the symmetric mhat tables, so each is
    assembled once, for a <= b, and (b, a) maps to the same list.
    """
    dim = mhat_dimension(mhat_sym)
    need = t_order + 2
    if max(mhat_sym) < need:
        raise ValueError(
            f"structure constants to t-order {t_order} need mhat up to "
            f"arity {need}"
        )
    out = {}
    for a in range(dim):
        for b in range(a, dim):
            series = assemble_series(
                dim,
                t_order,
                HVector.zero(),
                lambda ordering, a=a, b=b: mhat_sym[len(ordering) + 2].get(
                    ordering + (a, b)
                ),
                range(0, t_order + 1),
            )
            # unpack the HVector-valued series into scalar components
            comp = []
            for c in range(dim):
                s = TSeries(dim, t_order, HPoly.zero())
                for e, v in series.terms.items():
                    s.add_term(e, v.coeff(c))
                comp.append(s)
            out[(a, b)] = out[(b, a)] = comp
    return out


def wdvv_report(A, t_order: int) -> Report:
    """Unity, symmetry, potentiality, and associativity of A.

    The symmetry check cannot fail on `structure_constants` output, which
    maps (a, b) and (b, a) to one list.  It is kept for hand-built A, and it
    comes before associativity, which reads the products
    P(a, b, g, s) = sum_r A_ab^r A_rg^s on a <= b only.  For
    symmetric A, sum_r A_bg^r A_ar^s is P(b, g, a, s), so each ordered
    (a, b, g, s) compares P(a, b, g, s) with P(b, g, a, s): dim^3 (dim + 1) / 2
    series dots, where summing both sides per instance takes 2 dim^4.
    """
    rep = Report()
    dim = len(A[(0, 0)])
    one = HPoly.const(1)
    for b in range(dim):
        for c in range(dim):
            rep.checks += 1
            s = A[(0, b)][c]
            want = TSeries(dim, t_order, HPoly.zero())
            if b == c:
                want.add_term((0,) * dim, one)
            if s != want:
                rep.add(0, (0, b, c), "unity fails")
    for a in range(dim):
        for b in range(dim):
            for c in range(dim):
                rep.checks += 1
                if A[(a, b)][c] != A[(b, a)][c]:
                    rep.add(0, (a, b, c), "symmetry fails")
    # dA[a][(b, g)][s] = d_a A_bg^s, each taken once
    dA = [
        {bg: [series.derivative(a) for series in comps] for bg, comps in A.items()}
        for a in range(dim)
    ]
    # d_a A_bg^s = d_b A_ag^s: the instance (b, a, g, s) compares the same
    # two series as its mirror (a, b, g, s), and a = b compares one series
    # with itself, so each pair is compared once, for a < b
    broken = {
        (a, b, g, s_idx)
        for a in range(dim)
        for b in range(a + 1, dim)
        for g in range(dim)
        for s_idx in range(dim)
        if not dA[a][(b, g)][s_idx].eq_through(dA[b][(a, g)][s_idx], t_order - 1)
    }
    for a in range(dim):
        for b in range(dim):
            for g in range(dim):
                for s_idx in range(dim):
                    rep.checks += 1
                    if (min(a, b), max(a, b), g, s_idx) in broken:
                        rep.add(0, (a, b, g, s_idx), "potentiality fails")
    P = {
        (a, b, g, s_idx): TSeries.dot((A[(a, b)][r], A[(r, g)][s_idx]) for r in range(dim))
        for a in range(dim)
        for b in range(a, dim)
        for g in range(dim)
        for s_idx in range(dim)
    }
    for a in range(dim):
        for b in range(dim):
            for g in range(dim):
                for s_idx in range(dim):
                    rep.checks += 1
                    lhs = P[min(a, b), max(a, b), g, s_idx]
                    rhs = P[min(b, g), max(b, g), a, s_idx]
                    if not lhs.eq_through(rhs, t_order):
                        diff = lhs - rhs
                        first = min(
                            (e for e in diff.terms if sum(e) <= t_order),
                            key=lambda e: (sum(e), e),
                            default=None,
                        )
                        rep.add(0, (a, b, g, s_idx), f"associativity fails at {first}")
    return rep


class FlatCoords:
    """The distinguished coordinate series That^c, with h^-1 coefficients."""

    def __init__(self, z: LevelZeroSolution, t_order: int):
        self.z = z
        self.t_order = t_order
        self.T = []
        for c in range(z.dim):
            def term(ordering, c=c):
                n = len(ordering)
                return z.pi0[n].get(ordering).coeff(c) * HPoly.neg_h(1 - n)

            s = assemble_series(
                z.dim,
                t_order,
                HPoly.zero(),
                term,
                range(1, t_order + 1),
            )
            self.T.append(s)

    def low_exponent_ok(self) -> bool:
        """Coefficients at t-degree n only use h-exponents >= -(n-1)."""
        for s in self.T:
            for e, v in s.terms.items():
                if v.low() < -(max(sum(e) - 1, 0)):
                    return False
        return True


def flat_coordinate_report(
    fc: FlatCoords, A, t_order: int
) -> tuple[Report, str]:
    """Verify the PDE system for That; returns (report, resolved sign).

    The sign tag records which of h d_a d_b That -+ A d That = 0 holds for
    the assembled series; the unit direction equation and the boundary
    conditions are checked unconditionally.  A must be symmetric, as
    `structure_constants` builds it (`wdvv_report` checks it): the PDE is
    tested on a <= b.
    """
    rep = Report()
    dim = fc.z.dim
    zero_exp = (0,) * dim
    # dT[c][r] = d_r That^c, each taken once
    dT = [[T.derivative(r) for r in range(dim)] for T in fc.T]
    for c in range(dim):
        rep.checks += 1
        if not fc.T[c].constant_term().is_zero():
            rep.add(0, (c,), "That does not vanish at t = 0")
        for b in range(dim):
            rep.checks += 1
            d = dT[c][b].constant_term()
            want = HPoly.const(1 if b == c else 0)
            if d != want:
                rep.add(0, (b, c), "boundary derivative fails")
        # unit direction: d_0 That^c = delta_0^c - (1/h) That^c
        rep.checks += 1
        rhs = TSeries(dim, t_order, HPoly.zero())
        if c == 0:
            rhs.add_term(zero_exp, HPoly.const(1))
        rhs = rhs + fc.T[c].scale(HPoly.neg_h(-1))
        if not dT[c][0].eq_through(rhs, t_order - 1):
            rep.add(0, (c,), "unit-direction equation fails")
    if not fc.low_exponent_ok():
        rep.add(0, (), "h-exponent lower bound violated")

    # sign resolution for the second-derivative system: one residual pair
    # h d_a d_b That^c -+ sum_r A_ab^r d_r That^c per unordered (a, b) and c;
    # both terms are symmetric in (a, b), the transport because A is
    h = HPoly.h()
    zero = TSeries(dim, t_order, HPoly.zero())
    holds = {"minus": True, "plus": True}
    for a in range(dim):
        for b in range(a, dim):
            for c in range(dim):
                second = dT[c][b].derivative(a).scale(h)
                transport = TSeries.dot(
                    (A[(a, b)][r], dT[c][r]) for r in range(dim)
                )
                for name, resid in (
                    ("minus", second - transport),
                    ("plus", second + transport),
                ):
                    if not resid.eq_through(zero, t_order - 2):
                        holds[name] = False
    holding = [name for name, ok in holds.items() if ok]
    if len(holding) == 1:
        resolved = holding[0]
    elif len(holding) == 2:
        resolved = "both (transport term vanishes)"
    else:
        resolved = "neither"
        rep.add(0, (), "flat-coordinate PDE fails for both signs")
    return rep, resolved


def generating_function(iota, fc: FlatCoords) -> tuple[TSeries, TSeries, Report]:
    """The series Z assembled two ways: correlator sums and the That identity.

    iota(v: HVector) -> HPoly is the on-shell functional with iota(1_H) = 1;
    the expectation is c = iota . hhat.  `fc` carries the level-zero solution
    and the t-order; the correlators of phi0 are its partition sums `z.E`.
    Returns (Z_corr, Z_that, report).
    """
    z, t_order = fc.z, fc.t_order
    q = z.q
    dim = z.dim
    zero_exp = (0,) * dim

    def corr_term(ordering):
        return iota(q.hhat(z.E[ordering])) * HPoly.neg_h(-len(ordering))

    z_corr = assemble_series(
        dim, t_order, HPoly.zero(), corr_term, range(1, t_order + 1)
    )
    one = TSeries(dim, t_order, HPoly.zero())
    one.add_term(zero_exp, HPoly.const(1))
    z_corr = one + z_corr

    z_that = one.copy()
    for c in range(dim):
        ev = iota(q.hhat(q.fhat(HVector.basis(c))))
        z_that = z_that + fc.T[c].scale(ev * HPoly.neg_h(-1))

    rep = Report()
    rep.checks += 1
    if not z_corr.eq_through(z_that, t_order):
        rep.add(0, (), "generating-function routes disagree")
    rep.checks += 1
    lhs = z_corr.derivative(0).scale(HPoly.neg_h(1))
    if not lhs.eq_through(z_corr, t_order - 1):
        rep.add(0, (), "-h d_0 Z = Z fails")
    return z_corr, z_that, rep


def theta_mc_report(
    z: LevelZeroSolution, fam: DescendantFamily, t_order: int
) -> Report:
    """Maurer-Cartan residual of Theta and the unit-direction identity."""
    rep = Report()
    nv = z.q.n_vars
    dim = z.dim
    theta = theta_series(z, t_order)
    residual = TSeries(dim, t_order, PolyElement.zero(nv))
    for e, v in theta.terms.items():
        residual.add_term(e, z.q.Khat(v))
    # Khat is second order, so ell_n vanishes for n >= 3 and the residual is
    # Khat Theta + 1/2 ell_2(Theta, Theta): one bracket per unordered pair of
    # Theta monomials, halved on the diagonal
    for e, f in combinations_with_replacement(sorted(theta.terms), 2):
        total = tuple(map(sum, zip(e, f)))
        if sum(total) > t_order:
            continue
        val = fam.ell(2, [theta.terms[e], theta.terms[f]])
        residual.add_term(total, val.scale(Fraction(1, 2)) if e == f else val)
    rep.checks += 1
    if not residual.is_zero():
        rep.add(0, (), "Maurer-Cartan residual is nonzero")
    rep.checks += 1
    d0 = theta.derivative(0)
    want = TSeries(dim, t_order, PolyElement.zero(nv))
    want.add_term((0,) * dim, PolyElement.one(nv))
    if not d0.eq_through(want, t_order - 1):
        rep.add(0, (), "d_0 Theta != 1_C")
    return rep

