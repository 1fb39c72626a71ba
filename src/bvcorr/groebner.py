"""Jacobian-quotient machinery: Buchberger, normal forms, division witnesses.

Plain x-polynomials are exponent-dict maps {tuple: Fraction}.  The monomial
order is graded lexicographic.  The Milnor data of a potential holds a
reduced Groebner basis for the Jacobian ideal together with cofactor
expressions of each basis element over the original generators, so that
normal-form witnesses can always be written against dS/dx_i directly.
Buchberger keeps an element and its cofactors as one row.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from operator import add


class NonIsolatedError(ValueError):
    """The Jacobian ideal has an infinite staircase (non-isolated singularity)."""


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
    quots = [{} for _ in gens]
    rem = {}
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


def _lcm(e1: tuple, e2: tuple) -> tuple:
    return tuple(map(max, e1, e2))


def buchberger(gens: list) -> tuple:
    """Reduced monic Groebner basis with cofactors over the input generators.

    Returns (basis, cofactors); basis[i] = sum_j cofactors[i][j] * gens[j].
    Each element is kept as one row [g, c_1, ..., c_m] with g = sum_j c_j
    gens[j], so an S-pair or a reduction acts on the whole row.  Uses
    Buchberger's first criterion (coprime leading monomials) only.
    """
    gens = [dict(g) for g in gens if g]
    if not gens:
        raise ValueError("zero Jacobian ideal")
    one = (0,) * len(next(iter(gens[0])))
    rows = [
        [g] + [{one: Fraction(1)} if k == j else {} for k in range(len(gens))]
        for j, g in enumerate(gens)
    ]
    pairs = [(i, j) for i in range(len(rows)) for j in range(i)]
    while pairs:
        pairs.sort(
            key=lambda ij: grlex_key(_lcm(lead(rows[ij[0]][0])[0], lead(rows[ij[1]][0])[0]))
        )
        i, j = pairs.pop(0)
        (ei, ci), (ej, cj) = lead(rows[i][0]), lead(rows[j][0])
        if all(a == 0 or b == 0 for a, b in zip(ei, ej)):
            continue  # coprime leads reduce to zero
        # the S-row: both rows lifted to the lcm of their leads, subtracted
        lcm = _lcm(ei, ej)
        srow = [
            p_sub(
                p_mul_term(f, _exp_sub(lcm, ei), Fraction(1) / ci),
                p_mul_term(g, _exp_sub(lcm, ej), Fraction(1) / cj),
            )
            for f, g in zip(rows[i], rows[j])
        ]
        row = _reduce(srow, rows)
        if row:
            pairs.extend((len(rows), t) for t in range(len(rows)))
            rows.append(row)
    return _reduce_basis(rows)


def _sum_products(quots: list, cof_col: list) -> dict:
    acc = {}
    for q, c in zip(quots, cof_col):
        if q and c:
            acc = p_add(acc, p_mul(q, c))
    return acc


def _reduce(row: list, rows: list) -> list:
    """row[0]'s remainder by the rows' elements, with cofactors to match.

    The cofactors follow the division quotients; [] when the remainder is zero.
    """
    quots, rem = divide(row[0], [r[0] for r in rows])
    if not rem:
        return []
    return [rem] + [
        p_sub(c, _sum_products(quots, [r[k] for r in rows]))
        for k, c in enumerate(row[1:], 1)
    ]


def _reduce_basis(rows: list) -> tuple:
    # drop redundant rows (lead divisible by a kept or later lead), sort by
    # lead, reduce each row once by the others and scale it monic; one pass
    # suffices, since the elements of a minimal basis keep their leads
    leads = [lead(r[0])[0] for r in rows]
    keep = []
    for i, ei in enumerate(leads):
        if not any(_divides(leads[j], ei) for j in keep + list(range(i + 1, len(rows)))):
            keep.append(i)
    rows = sorted((rows[i] for i in keep), key=lambda r: grlex_key(lead(r[0])[0]))
    for i in range(len(rows)):
        rows[i] = _reduce(rows[i], rows[:i] + rows[i + 1:])
    rows = [[p_scale(p, Fraction(1) / lead(row[0])[1]) for p in row] for row in rows]
    return [r[0] for r in rows], [r[1:] for r in rows]


class MilnorData:
    """Monomial basis and normal-form engine for Q[x]/(Jacobian ideal)."""

    def __init__(self, pot):
        self.pot = pot
        gens = pot.jacobian()
        if not all(gens):
            raise NonIsolatedError("a Jacobian generator vanishes identically")
        self.gens = gens
        self.gb, self.cofactors = buchberger(gens)
        self.n_vars = pot.n_vars
        self.basis = self._standard_monomials()
        self._divisions = {}
        self._witness_cache = {}

    def _standard_monomials(self) -> list:
        """Monomials under the staircase, in the box below the pure powers."""
        leads = [lead(g)[0] for g in self.gb]
        if (0,) * self.n_vars in leads:
            raise NonIsolatedError(
                "the Jacobian ideal is the unit ideal: the potential has no critical point"
            )
        bounds = []
        for i in range(self.n_vars):
            # with no constant lead, e is a power of x_i alone iff e_i = |e|
            pure = [e[i] for e in leads if e[i] == sum(e)]
            if not pure:
                raise NonIsolatedError(
                    f"no pure power of x{i} among leading terms: "
                    "non-isolated singularity"
                )
            bounds.append(min(pure))
        box = product(*map(range, bounds))
        return sorted(
            (e for e in box if not any(_divides(le, e) for le in leads)), key=grlex_key
        )

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
        acc = {}
        for exp in sorted(p, key=grlex_key):
            acc = p_add(acc, p_scale(self.normal_form_monomial(exp), p[exp]))
        return acc

    def witnesses(self, p: dict) -> list:
        """Division witnesses of p over the Jacobian generators (linear in p)."""
        acc = [{} for _ in self.gens]
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
