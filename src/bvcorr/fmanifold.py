"""Deformation series over the cohomology: structure constants, flat
coordinates, Maurer-Cartan checks, and correlation generating functions.

One deformation coordinate t^a is attached to each basis element of H.  H
is the Milnor ring, which sits in ghost number 0 (the partial derivatives of
an isolated singularity form a regular sequence, so the Koszul complex has no
other cohomology); every t^a is therefore even and the series are ordinary
commutative power series.  A level-zero table on ascending keys already is
one: its entry at the multiset k is the coefficient of t^k / k!, with
k! = prod_i k_i! (the exponential formula, Stanley, EC2 section 5.1), and
`table_terms` is the one reader of that encoding.  A TSeries is a
scalars.Combination keyed by t-exponent with HPoly coefficients; Theta, with
coefficients in C, is a plain {t-exponent: PolyElement} dict.
`structure_constants` rejects mhat tables with an odd ghost.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import factorial, prod
from operator import add

from .hspace import HVector
from .levelzero import LevelZeroSolution, mhat_dimension
from .polyalg import DescendantFamily, PolyElement
from .report import Report
from .scalars import Combination, HPoly, sum_pairs


class TSeries(Combination):
    """Truncated series in the deformation coordinates.

    `terms` maps t-exponent vectors of total degree <= t_order to HPoly
    coefficients (negative h-exponents allowed).  The linear algebra is
    Combination's; the `dim` coordinates commute.
    """

    __slots__ = ("dim", "t_order")

    def __init__(self, dim: int, t_order: int):
        self.dim = dim
        self.t_order = t_order
        self.terms = {}

    def _like(self, terms: dict) -> "TSeries":
        out = TSeries(self.dim, self.t_order)
        out.terms = terms
        return out

    def copy(self) -> "TSeries":
        return self._like(dict(self.terms))

    def add_term(self, exp, value) -> None:
        exp = tuple(exp)
        if sum(exp) > self.t_order:
            return
        if not value.is_zero():
            self._add_at(exp, value)

    def coeff(self, exp) -> HPoly:
        return self.terms.get(tuple(exp), HPoly.zero())

    def __mul__(self, other: "TSeries") -> "TSeries":
        return TSeries.dot(((self, other),))

    @staticmethod
    def dot(pairs) -> "TSeries":
        """The sum of a * b over a nonempty iterable of (a, b) pairs of
        series, with the first a's dim and t_order.

        The coefficient pairs are collected per t-exponent through t_order
        and closed by `sum_pairs`: one HPoly.dot per exponent, or one
        product for a single pair; zeros are dropped.
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
        return shape._like(sum_pairs(cols))

    def derivative(self, alpha: int) -> "TSeries":
        """Derivative with respect to t^alpha."""
        out = TSeries(self.dim, self.t_order)
        for e, v in self.terms.items():
            if e[alpha] == 0:
                continue
            ne = list(e)
            ne[alpha] -= 1
            k = e[alpha]
            out.add_term(tuple(ne), v if k == 1 else v * k)
        return out

    def constant_term(self) -> HPoly:
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


def table_terms(dim: int, items) -> dict:
    """{t-exponent: value / k!} over (ascending key, value) pairs.

    The key k lists each index i k_i times, so it is the exponent of t^k,
    and k! = prod_i k_i!; the empty key is the zero exponent.  Zero values
    are dropped.  This is the one place where a key becomes an exponent.
    """
    out = {}
    for key, value in items:
        if value.is_zero():
            continue
        exp = [0] * dim
        for i in key:
            exp[i] += 1
        denom = prod(factorial(k) for k in exp)
        out[tuple(exp)] = value if denom == 1 else Fraction(1, denom) * value
    return out


# -- series read off the level-zero tables -------------


def theta_series(z: LevelZeroSolution, t_order: int) -> dict:
    """The universal Maurer-Cartan element Theta built from phi0, as
    {t-exponent: coefficient in C} through t_order."""
    return table_terms(
        z.dim,
        (item for n in range(1, t_order + 1) for item in z.phi0[n].values.items()),
    )


def structure_constants(mhat_sym, t_order: int):
    """The deformed products A_{ab}^c as scalar series.

    Requires mhat through arity t_order + 2.  Returns a dict mapping (a, b)
    to a list of TSeries, one per output index c, with
    A_ab^c(t) = sum_k mhat(k, a, b)_c t^k / k!: a table key holding a and b
    is read as the front k.  (b, a) maps to the list of (a, b), read once.
    """
    dim = mhat_dimension(mhat_sym)
    need = t_order + 2
    if max(mhat_sym) < need:
        raise ValueError(
            f"structure constants to t-order {t_order} need mhat up to "
            f"arity {need}"
        )
    fronts = {(a, b): [] for a in range(dim) for b in range(a, dim)}
    for n in range(2, need + 1):
        for key, v in mhat_sym[n].values.items():
            # the key is ascending, so each pair comes out with a <= b
            for a, b in set(combinations(key, 2)):
                front = list(key)
                front.remove(a)
                front.remove(b)
                fronts[(a, b)].append((front, v))
    shape = TSeries(dim, t_order)
    out = {}
    for (a, b), items in fronts.items():
        out[(a, b)] = out[(b, a)] = [
            shape._like(table_terms(dim, ((k, v.coeff(c)) for k, v in items)))
            for c in range(dim)
        ]
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
            want = TSeries(dim, t_order)
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
        # That^c = sum_k pi0(k)_c (-h)^(1-|k|) t^k / k!
        shape = TSeries(z.dim, t_order)
        self.T = [
            shape._like(table_terms(z.dim, (
                (k, v.coeff(c) * HPoly.neg_h(1 - n))
                for n in range(1, t_order + 1)
                for k, v in z.pi0[n].values.items()
            )))
            for c in range(z.dim)
        ]

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
        rhs = TSeries(dim, t_order)
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
    zero = TSeries(dim, t_order)
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
    # Z_corr = 1 + sum_k iota(hhat(E_k)) (-h)^(-|k|) t^k / k!
    one = TSeries(dim, t_order)
    one.add_term((0,) * dim, HPoly.const(1))
    z_corr = one + one._like(table_terms(dim, (
        (k, iota(q.hhat(v)) * HPoly.neg_h(-len(k)))
        for k, v in z.E.items()
        if 0 < len(k) <= t_order
    )))

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
    residual = {e: z.q.Khat(v) for e, v in theta.items()}
    # Khat is second order, so ell_n vanishes for n >= 3 and the residual is
    # Khat Theta + 1/2 ell_2(Theta, Theta): one bracket per unordered pair of
    # Theta monomials, halved on the diagonal
    for e, f in combinations_with_replacement(sorted(theta), 2):
        total = tuple(map(add, e, f))
        if sum(total) > t_order:
            continue
        val = fam.ell(2, [theta[e], theta[f]])
        if e == f:
            val = val.scale(Fraction(1, 2))
        residual[total] = residual[total] + val if total in residual else val
    rep.checks += 1
    if any(not v.is_zero() for v in residual.values()):
        rep.add(0, (), "Maurer-Cartan residual is nonzero")
    # d_0 Theta = 1_C: Theta holds 1_C at t_0 and no other t_0 power
    rep.checks += 1
    unit = tuple(int(i == 0) for i in range(dim))
    if theta.get(unit, PolyElement.zero(nv)) != PolyElement.one(nv) or any(
        e[0] for e in theta if e != unit
    ):
        rep.add(0, (), "d_0 Theta != 1_C")
    return rep
