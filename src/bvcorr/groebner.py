"""Jacobian-quotient machinery: Buchberger, normal forms, division witnesses.

Plain x-polynomials are exponent-dict maps {tuple: Fraction}.  The monomial
order is graded lexicographic.  The Milnor data of a potential holds a
reduced Groebner basis for the Jacobian ideal together with cofactor
expressions of each basis element over the original generators, so that
normal-form witnesses can always be written against dS/dx_i directly.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add


class NonIsolatedError(ValueError):
    """The Jacobian ideal has an infinite staircase (non-isolated singularity)."""


def p_zero() -> dict:
    return {}


def p_is_zero(p: dict) -> bool:
    return not p


def p_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        w = out.get(e, Fraction(0)) + c
        if w == 0:
            out.pop(e, None)
        else:
            out[e] = w
    return out


def p_sub(a: dict, b: dict) -> dict:
    return p_add(a, {e: -c for e, c in b.items()})


def p_scale(a: dict, c: Fraction) -> dict:
    if c == 0:
        return {}
    return {e: v * c for e, v in a.items()}


def p_mul(a: dict, b: dict) -> dict:
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            w = out.get(e, Fraction(0)) + c1 * c2
            if w == 0:
                out.pop(e, None)
            else:
                out[e] = w
    return out


def p_mul_term(a: dict, exp: tuple, c: Fraction) -> dict:
    return {tuple(x + y for x, y in zip(e, exp)): v * c for e, v in a.items()}


def grlex_key(exp: tuple) -> tuple:
    return (sum(exp), exp)


def lead(p: dict) -> tuple:
    """(exponent, coefficient) of the graded-lex leading term."""
    e = max(p, key=grlex_key)
    return e, p[e]


def _divides(e1: tuple, e2: tuple) -> bool:
    return all(a <= b for a, b in zip(e1, e2))


def _exp_sub(e2: tuple, e1: tuple) -> tuple:
    return tuple(b - a for a, b in zip(e1, e2))


def divide(p: dict, gens: list) -> tuple:
    """Multivariate division of p by an ordered generator list.

    Returns (quotients, remainder) with p = sum q_i g_i + r and no term of r
    divisible by any leading monomial.  The reduction strategy (largest
    reducible term against the first matching generator) is deterministic.
    Each step subtracts factor * (g_i minus its leading term) from one working
    dict in place; the reduced exponents strictly fall, so each quotient term
    is written once.
    """
    quots = [p_zero() for _ in gens]
    rem = p_zero()
    work = dict(p)
    leads = [lead(g) for g in gens]
    tails = [[(e, c) for e, c in g.items() if e != le] for g, (le, _) in zip(gens, leads)]
    while work:
        e = max(work, key=grlex_key)
        # the leading term cancels by construction
        c = work.pop(e)
        for i, (le, lc) in enumerate(leads):
            if _divides(le, e):
                m = _exp_sub(e, le)
                factor = c / lc
                quots[i][m] = factor
                for ge, gc in tails[i]:
                    ex = tuple(map(add, ge, m))
                    w = work.get(ex, 0) - factor * gc
                    if w:
                        work[ex] = w
                    else:
                        work.pop(ex, None)
                break
        else:
            rem[e] = c
    return quots, rem


def s_poly(f: dict, g: dict) -> dict:
    (ef, cf), (eg, cg) = lead(f), lead(g)
    lcm = tuple(max(a, b) for a, b in zip(ef, eg))
    return p_sub(
        p_mul_term(f, _exp_sub(lcm, ef), Fraction(1) / cf),
        p_mul_term(g, _exp_sub(lcm, eg), Fraction(1) / cg),
    )


def buchberger(gens: list) -> tuple:
    """Reduced monic Groebner basis with cofactors over the input generators.

    Returns (basis, cofactors); basis[i] = sum_j cofactors[i][j] * gens[j].
    Uses Buchberger's first criterion (coprime leading monomials) only.
    """
    gens = [dict(g) for g in gens if g]
    if not gens:
        raise ValueError("zero Jacobian ideal")
    nv = len(next(iter(gens[0])))
    basis = []
    cofs = []  # cofactor row per basis element
    for j, g in enumerate(gens):
        row = [p_zero() for _ in gens]
        row[j] = {(0,) * nv: Fraction(1)}
        basis.append(g)
        cofs.append(row)
    pairs = [(i, j) for i in range(len(basis)) for j in range(i)]
    while pairs:
        pairs.sort(
            key=lambda ij: grlex_key(
                tuple(
                    max(a, b)
                    for a, b in zip(lead(basis[ij[0]])[0], lead(basis[ij[1]])[0])
                )
            )
        )
        i, j = pairs.pop(0)
        ei, ej = lead(basis[i])[0], lead(basis[j])[0]
        if all(a == 0 or b == 0 for a, b in zip(ei, ej)):
            continue  # coprime leads reduce to zero
        spair = s_poly(basis[i], basis[j])
        # track the cofactor of the s-polynomial
        (efi, cfi), (efj, cfj) = lead(basis[i]), lead(basis[j])
        lcm = tuple(max(a, b) for a, b in zip(efi, efj))
        srow = [
            p_sub(
                p_mul_term(cofs[i][k], _exp_sub(lcm, efi), Fraction(1) / cfi),
                p_mul_term(cofs[j][k], _exp_sub(lcm, efj), Fraction(1) / cfj),
            )
            for k in range(len(gens))
        ]
        quots, rem = divide(spair, basis)
        if p_is_zero(rem):
            continue
        rrow = [
            p_sub(srow[k], _sum_products(quots, [c[k] for c in cofs]))
            for k in range(len(gens))
        ]
        pairs.extend((len(basis), t) for t in range(len(basis)))
        basis.append(rem)
        cofs.append(rrow)
    return _reduce_basis(basis, cofs)


def _sum_products(quots: list, cof_col: list) -> dict:
    acc = p_zero()
    for q, c in zip(quots, cof_col):
        if q and c:
            acc = p_add(acc, p_mul(q, c))
    return acc


def _reduce_basis(basis: list, cofs: list) -> tuple:
    # drop redundant elements (lead divisible by another lead), then
    # inter-reduce tails and normalize to monic, keeping cofactors in sync
    keep = []
    for i, g in enumerate(basis):
        ei = lead(g)[0]
        if any(
            _divides(lead(basis[j])[0], ei)
            for j in range(len(basis))
            if j != i and (j in keep or j > i)
        ):
            continue
        keep.append(i)
    basis = [basis[i] for i in keep]
    cofs = [cofs[i] for i in keep]
    order = sorted(range(len(basis)), key=lambda i: grlex_key(lead(basis[i])[0]))
    basis = [basis[i] for i in order]
    cofs = [cofs[i] for i in order]
    changed = True
    while changed:
        changed = False
        for i in range(len(basis)):
            others = [basis[j] for j in range(len(basis)) if j != i]
            if not others:
                continue
            quots, rem = divide(basis[i], others)
            if rem != basis[i]:
                changed = True
                idxs = [j for j in range(len(basis)) if j != i]
                for q, j in zip(quots, idxs):
                    for k in range(len(cofs[i])):
                        cofs[i][k] = p_sub(cofs[i][k], p_mul(q, cofs[j][k]))
                basis[i] = rem
    out_b, out_c = [], []
    for g, row in zip(basis, cofs):
        _, lc = lead(g)
        out_b.append(p_scale(g, Fraction(1) / lc))
        out_c.append([p_scale(c, Fraction(1) / lc) for c in row])
    return out_b, out_c


class MilnorData:
    """Monomial basis and normal-form engine for Q[x]/(Jacobian ideal)."""

    def __init__(self, pot):
        self.pot = pot
        gens = pot.jacobian()
        if any(p_is_zero(g) for g in gens):
            raise NonIsolatedError("a Jacobian generator vanishes identically")
        self.gens = gens
        self.gb, self.cofactors = buchberger(gens)
        self.n_vars = pot.n_vars
        self._check_staircase()
        self.basis = self._standard_monomials()
        self._divisions = {}
        self._witness_cache = {}

    def _check_staircase(self):
        leads = [lead(g)[0] for g in self.gb]
        for i in range(self.n_vars):
            if not any(
                e[i] > 0 and all(e[j] == 0 for j in range(self.n_vars) if j != i)
                for e in leads
            ):
                raise NonIsolatedError(
                    f"no pure power of x{i} among leading terms: "
                    "non-isolated singularity"
                )

    def _standard_monomials(self) -> list:
        leads = [lead(g)[0] for g in self.gb]
        bounds = []
        for i in range(self.n_vars):
            pure = [
                e[i]
                for e in leads
                if e[i] > 0 and all(e[j] == 0 for j in range(self.n_vars) if j != i)
            ]
            bounds.append(min(pure))
        out = []

        def rec(prefix):
            if len(prefix) == self.n_vars:
                e = tuple(prefix)
                if not any(_divides(le, e) for le in leads):
                    out.append(e)
                return
            for k in range(bounds[len(prefix)]):
                rec(prefix + [k])

        rec([])
        out.sort(key=grlex_key)
        if out[0] != (0,) * self.n_vars:
            raise NonIsolatedError("unit missing from the quotient basis")
        return out

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def _division(self, exp: tuple) -> tuple:
        """(quotients, remainder) of x^exp by the Groebner basis, divided once."""
        hit = self._divisions.get(exp)
        if hit is None:
            hit = self._divisions[exp] = divide({exp: Fraction(1)}, self.gb)
        return hit

    def normal_form_monomial(self, exp: tuple) -> dict:
        return self._division(exp)[1]

    def witness_monomial(self, exp: tuple) -> list:
        """Quotients over the original Jacobian generators for one monomial.

        x^exp - nf(x^exp) = sum_i witness[i] * dS/dx_i.
        """
        hit = self._witness_cache.get(exp)
        if hit is None:
            quots = self._division(exp)[0]
            hit = [
                _sum_products(quots, [row[k] for row in self.cofactors])
                for k in range(len(self.gens))
            ]
            self._witness_cache[exp] = hit
        return hit

    def normal_form(self, p: dict) -> dict:
        """Normal form of an x-polynomial, extended monomial-by-monomial."""
        acc = p_zero()
        for exp in sorted(p, key=grlex_key):
            acc = p_add(acc, p_scale(self.normal_form_monomial(exp), p[exp]))
        return acc

    def witnesses(self, p: dict) -> list:
        """Division witnesses of p over the Jacobian generators (linear in p)."""
        acc = [p_zero() for _ in self.gens]
        for exp in sorted(p, key=grlex_key):
            for i, w in enumerate(self.witness_monomial(exp)):
                acc[i] = p_add(acc[i], p_scale(w, p[exp]))
        return acc

    def coords(self, nf: dict) -> dict:
        """Coordinates of a normal form over the standard-monomial basis."""
        idx = {e: i for i, e in enumerate(self.basis)}
        out = {}
        for e, c in nf.items():
            if e not in idx:
                raise ValueError(f"monomial {e} is not a standard monomial")
            out[idx[e]] = c
        return out
