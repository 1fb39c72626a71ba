"""Deformation series over the cohomology: structure constants, flat
coordinates, Maurer-Cartan checks, and correlation generating functions.

One deformation coordinate t^a is attached to each basis element of H with
the opposite ghost number; coefficients are exact scalars (or elements of C
for the universal solution Theta).  Series are assembled in the reversed
index ordering t^{rho_n} ... t^{rho_1}, kept literal so the signs stay
right once odd coordinates are present.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import factorial

from .hspace import HVector
from .polyalg import DescendantFamily, PolyElement
from .scalars import HPoly
from .slinf import Report
from .solver import LevelZeroSolution


def _merge_sign(ea, eb, parities) -> int:
    """Koszul sign of merging two canonical monomials t^ea * t^eb."""
    sign = 1
    for i in range(len(ea)):
        if not parities[i] or eb[i] == 0:
            continue
        for j in range(i + 1, len(ea)):
            if parities[j] and ea[j] % 2 and eb[i] % 2:
                sign = -sign
    return sign


class TSeries:
    """Truncated series in the deformation coordinates.

    Coefficients may be HPoly (negative h-exponents allowed) or PolyElement;
    t-variables obey the graded commutation rule determined by `ghosts` (odd
    coordinates square to zero).
    """

    def __init__(self, ghosts, t_order: int, zero_value):
        self.ghosts = list(ghosts)
        self.parities = [g % 2 != 0 for g in self.ghosts]
        self.t_order = t_order
        self.zero_value = zero_value
        self.terms = {}

    def copy(self) -> "TSeries":
        out = TSeries(self.ghosts, self.t_order, self.zero_value)
        out.terms = dict(self.terms)
        return out

    def _ok(self, exp) -> bool:
        if sum(exp) > self.t_order:
            return False
        return all(not (self.parities[i] and e > 1) for i, e in enumerate(exp))

    def add_term(self, exp, value) -> None:
        exp = tuple(exp)
        if not self._ok(exp):
            return
        if value.is_zero():
            return
        cur = self.terms.get(exp)
        new = value if cur is None else cur + value
        if new.is_zero():
            self.terms.pop(exp, None)
        else:
            self.terms[exp] = new

    def coeff(self, exp):
        return self.terms.get(tuple(exp), self.zero_value)

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.terms.values())

    def __add__(self, other):
        out = self.copy()
        for e, v in other.terms.items():
            out.add_term(e, v)
        return out

    def __sub__(self, other):
        return self + other.scale(Fraction(-1))

    def __neg__(self):
        return self.scale(Fraction(-1))

    def scale(self, c) -> "TSeries":
        out = TSeries(self.ghosts, self.t_order, self.zero_value)
        for e, v in self.terms.items():
            out.add_term(e, c * v)
        return out

    def __mul__(self, other: "TSeries") -> "TSeries":
        out = TSeries(self.ghosts, self.t_order, self.zero_value)
        for ea, va in self.terms.items():
            for eb, vb in other.terms.items():
                exp = tuple(a + b for a, b in zip(ea, eb))
                if not self._ok(exp):
                    continue
                sign = _merge_sign(ea, eb, self.parities)
                out.add_term(exp, Fraction(sign) * (va * vb))
        return out

    def derivative(self, alpha: int) -> "TSeries":
        """Left derivative with respect to t^alpha."""
        out = TSeries(self.ghosts, self.t_order, self.zero_value)
        for e, v in self.terms.items():
            if e[alpha] == 0:
                continue
            sign = 1
            if self.parities[alpha]:
                for j in range(alpha):
                    if self.parities[j] and e[j] % 2:
                        sign = -sign
            ne = list(e)
            ne[alpha] -= 1
            out.add_term(tuple(ne), Fraction(sign * e[alpha]) * v)
        return out

    def constant_term(self):
        return self.coeff((0,) * len(self.ghosts))

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


def _t_monomials(dim: int, parities, order: int):
    """All exponent vectors of total degree <= order (odd vars at most once)."""
    out = []

    def rec(prefix):
        if len(prefix) == dim:
            out.append(tuple(prefix))
            return
        i = len(prefix)
        cap = 1 if parities[i] else order - sum(prefix)
        for k in range(min(cap, order - sum(prefix)) + 1):
            rec(prefix + [k])

    rec([])
    out.sort(key=lambda e: (sum(e), e))
    return out


def _orderings(exp):
    """Distinct index orderings (rho_1..rho_n) of the monomial multiset."""
    seq = []
    for i, k in enumerate(exp):
        seq.extend([i] * k)
    return sorted(set(permutations(seq)))


def _reversed_monomial_sign(ordering, parities) -> int:
    """Sign expressing t^{rho_n} ... t^{rho_1} in canonical variable order.

    The product is taken in reversed index order per the series conventions;
    sorting the reversed word into ascending variable order counts odd
    transpositions.
    """
    word = list(reversed(ordering))
    sign = 1
    for a in range(len(word)):
        if not parities[word[a]]:
            continue
        for b in range(a + 1, len(word)):
            if word[a] > word[b] and parities[word[b]]:
                sign = -sign
    return sign


def assemble_series(ghosts, t_order, zero_value, term_fn, degrees) -> TSeries:
    """Build sum_n (1/n!) t^{rho_n}..t^{rho_1} F_n(rho_1..rho_n).

    term_fn(ordering) returns the coefficient value for one ordered index
    tuple; `degrees` lists the n to include.  Handles odd coordinates by
    summing distinct orderings with their reversal signs.
    """
    dim = len(ghosts)
    parities = [g % 2 != 0 for g in ghosts]
    out = TSeries(ghosts, t_order, zero_value)
    all_even = not any(parities)
    for exp in _t_monomials(dim, parities, t_order):
        n = sum(exp)
        if n not in degrees:
            continue
        if all_even:
            ordering = []
            for i, k in enumerate(exp):
                ordering.extend([i] * k)
            denom = 1
            for k in exp:
                denom *= factorial(k)
            val = term_fn(tuple(ordering))
            out.add_term(exp, Fraction(1, denom) * val)
        else:
            acc = None
            for ordering in _orderings(exp):
                sgn = _reversed_monomial_sign(ordering, parities)
                val = Fraction(sgn, factorial(n)) * term_fn(ordering)
                acc = val if acc is None else acc + val
            out.add_term(exp, acc)
    return out


# -- assembled objects -------------


def t_ghosts(h_ghosts) -> list:
    """Coordinate ghost numbers: gh(t^a) = -gh(e_a)."""
    return [-g for g in h_ghosts]


def theta_series(z: LevelZeroSolution, t_order: int) -> TSeries:
    """The universal Maurer-Cartan element Theta built from phi0."""
    nv = z.q.n_vars
    return assemble_series(
        t_ghosts(z.ghosts),
        t_order,
        PolyElement.zero(nv),
        lambda ordering: z.phi0[len(ordering)].get(ordering),
        range(1, t_order + 1),
    )


def structure_constants(mhat_sym, h_ghosts, t_order: int):
    """The deformed products A_{ab}^c as scalar series.

    Requires mhat through arity t_order + 2.  Returns a dict mapping (a, b)
    to a list of TSeries, one per output index c.
    """
    dim = len(h_ghosts)
    tgh = t_ghosts(h_ghosts)
    need = t_order + 2
    if max(mhat_sym) < need:
        raise ValueError(
            f"structure constants to t-order {t_order} need mhat up to "
            f"arity {need}"
        )
    out = {}
    for a in range(dim):
        for b in range(dim):
            comp = [None] * dim

            def term(ordering, a=a, b=b):
                return mhat_sym[len(ordering) + 2].get(tuple(ordering) + (a, b))

            series = assemble_series(
                tgh,
                t_order,
                HVector.zero(),
                lambda ordering: term(ordering),
                range(0, t_order + 1),
            )
            # unpack the HVector-valued series into scalar components
            for c in range(dim):
                s = TSeries(tgh, t_order, HPoly.zero())
                for e, v in series.terms.items():
                    s.add_term(e, v.coeff(c))
                comp[c] = s
            out[(a, b)] = comp
    return out


def wdvv_report(A, h_ghosts, t_order: int) -> Report:
    """Unity, graded symmetry, potentiality, and associativity of A."""
    rep = Report()
    dim = len(h_ghosts)
    tgh = t_ghosts(h_ghosts)
    one = HPoly.const(1)
    for b in range(dim):
        for c in range(dim):
            rep.checks += 1
            s = A[(0, b)][c]
            want = TSeries(tgh, t_order, HPoly.zero())
            if b == c:
                want.add_term((0,) * dim, one)
            if s != want:
                rep.add(0, (0, b, c), "unity fails")
    for a in range(dim):
        for b in range(dim):
            sign = Fraction(-1) if (tgh[a] % 2 and tgh[b] % 2) else Fraction(1)
            for c in range(dim):
                rep.checks += 1
                if A[(a, b)][c] != A[(b, a)][c].scale(sign):
                    rep.add(0, (a, b, c), "graded symmetry fails")
    for a in range(dim):
        for b in range(dim):
            sign = Fraction(-1) if (tgh[a] % 2 and tgh[b] % 2) else Fraction(1)
            for g in range(dim):
                for s_idx in range(dim):
                    rep.checks += 1
                    lhs = A[(b, g)][s_idx].derivative(a)
                    rhs = A[(a, g)][s_idx].derivative(b).scale(sign)
                    if not lhs.eq_through(rhs, t_order - 1):
                        rep.add(0, (a, b, g, s_idx), "potentiality fails")
    for a in range(dim):
        for b in range(dim):
            for g in range(dim):
                for s_idx in range(dim):
                    rep.checks += 1
                    lhs = None
                    rhs = None
                    for r in range(dim):
                        l_term = A[(a, b)][r] * A[(r, g)][s_idx]
                        r_term = A[(b, g)][r] * A[(a, r)][s_idx]
                        lhs = l_term if lhs is None else lhs + l_term
                        rhs = r_term if rhs is None else rhs + r_term
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
        tgh = t_ghosts(z.ghosts)
        dim = z.dim
        self.T = []
        for c in range(dim):
            def term(ordering, c=c):
                n = len(ordering)
                return z.pi0[n].get(ordering).coeff(c) * HPoly.neg_h(1 - n)

            s = assemble_series(
                tgh,
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
    conditions are checked unconditionally.
    """
    z = fc.z
    rep = Report()
    dim = z.dim
    tgh = t_ghosts(z.ghosts)
    zero_exp = (0,) * dim
    for c in range(dim):
        rep.checks += 1
        if not fc.T[c].constant_term().is_zero():
            rep.add(0, (c,), "That does not vanish at t = 0")
        for b in range(dim):
            rep.checks += 1
            d = fc.T[c].derivative(b).constant_term()
            want = HPoly.const(1 if b == c else 0)
            if d != want:
                rep.add(0, (b, c), "boundary derivative fails")
        # unit direction: d_0 That^c = delta_0^c - (1/h) That^c
        rep.checks += 1
        lhs = fc.T[c].derivative(0)
        rhs = TSeries(tgh, t_order, HPoly.zero())
        if c == 0:
            rhs.add_term(zero_exp, HPoly.const(1))
        rhs = rhs + fc.T[c].scale(HPoly.neg_h(-1))
        if not lhs.eq_through(rhs, t_order - 1):
            rep.add(0, (c,), "unit-direction equation fails")
    if not fc.low_exponent_ok():
        rep.add(0, (), "h-exponent lower bound violated")

    # sign resolution for the second-derivative system
    verdicts = []
    for sign_name, sgn in (("minus", Fraction(-1)), ("plus", Fraction(1))):
        ok = True
        for a in range(dim):
            for b in range(dim):
                for c in range(dim):
                    second = (
                        fc.T[c].derivative(b).derivative(a).scale(HPoly.h())
                    )
                    transport = None
                    for r in range(dim):
                        term = A[(a, b)][r] * fc.T[c].derivative(r)
                        transport = term if transport is None else transport + term
                    resid = second + transport.scale(sgn)
                    if not resid.eq_through(
                        TSeries(tgh, t_order, HPoly.zero()), t_order - 2
                    ):
                        ok = False
        verdicts.append((sign_name, ok))
    holding = [name for name, ok in verdicts if ok]
    if len(holding) == 1:
        resolved = holding[0]
    elif len(holding) == 2:
        resolved = "both (transport term vanishes)"
    else:
        resolved = "neither"
        rep.add(0, (), "flat-coordinate PDE fails for both signs")
    return rep, resolved


def generating_function(
    iota, z: LevelZeroSolution, correlator_tables, t_order: int
) -> tuple[TSeries, TSeries, Report]:
    """The series Z assembled two ways: correlator sums and the That identity.

    iota(v: HVector) -> HPoly is the on-shell functional with iota(1_H) = 1;
    the expectation is c = iota . hhat.  Returns (Z_corr, Z_that, report).
    """
    q = z.q
    tgh = t_ghosts(z.ghosts)
    dim = z.dim
    zero_exp = (0,) * dim

    def corr_term(ordering):
        n = len(ordering)
        return iota(q.hhat(correlator_tables[n].get(ordering))) * HPoly.neg_h(-n)

    z_corr = assemble_series(
        tgh, t_order, HPoly.zero(), corr_term, range(1, t_order + 1)
    )
    one = TSeries(tgh, t_order, HPoly.zero())
    one.add_term(zero_exp, HPoly.const(1))
    z_corr = one + z_corr

    fc = FlatCoords(z, t_order)
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
    tgh = t_ghosts(z.ghosts)
    theta = theta_series(z, t_order)
    residual = TSeries(tgh, t_order, PolyElement.zero(nv))
    for e, v in theta.terms.items():
        residual.add_term(e, z.q.Khat(v))
    # sum over multisets of Theta monomials feeding the brackets; for odd
    # coordinates the t-monomials of later arguments cross the coefficients
    # of earlier ones, and Theta terms have matching parities on both sides
    monos = [e for e in theta.terms if sum(e) >= 1]
    parities = [g % 2 != 0 for g in tgh]
    max_arity = min(t_order, fam.arity_cap)
    for n in range(2, max_arity + 1):
        for combo in _multisets(monos, n, t_order):
            total = tuple(sum(e[i] for e in combo) for i in range(len(tgh)))
            if sum(total) > t_order:
                continue
            denom = 1
            seen = {}
            for e in combo:
                seen[e] = seen.get(e, 0) + 1
            for k in seen.values():
                denom *= factorial(k)
            sign = 1
            p_mono = [_mono_parity(e, parities) for e in combo]
            for i in range(n):
                for j in range(i + 1, n):
                    if p_mono[i] and p_mono[j]:
                        sign = -sign
            acc = combo[0]
            for e in combo[1:]:
                sign *= _merge_sign(acc, e, parities)
                acc = tuple(x + y for x, y in zip(acc, e))
            args = [theta.terms[e] for e in combo]
            val = fam.ell(n, args)
            residual.add_term(total, Fraction(sign, denom) * val)
    rep.checks += 1
    if not residual.is_zero():
        rep.add(0, (), "Maurer-Cartan residual is nonzero")
    rep.checks += 1
    d0 = theta.derivative(0)
    want = TSeries(tgh, t_order, PolyElement.zero(nv))
    want.add_term((0,) * len(tgh), PolyElement.one(nv))
    if not d0.eq_through(want, t_order - 1):
        rep.add(0, (), "d_0 Theta != 1_C")
    return rep


def _mono_parity(exp, parities) -> bool:
    return sum(e for e, p in zip(exp, parities) if p) % 2 != 0


def _multisets(items, n, max_total):
    """Ascending n-multisets of exponent vectors with bounded total degree."""
    items = sorted(items)
    out = []

    def rec(prefix, start, left):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for i in range(start, len(items)):
            e = items[i]
            if sum(e) * (n - len(prefix)) > left:
                continue
            rec(prefix + [e], i, left - sum(e))

    rec([], 0, max_total)
    return out
