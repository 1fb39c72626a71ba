"""The polynomial BV algebra: fields x_i, antifields eta_i, and its operators.

C = Q[x_1..x_N] (x) Lambda[eta_1..eta_N] with ghost number -1 on each eta.
The differential is quantum: Khat = K_cl - h*Delta, where K_cl contracts
eta_i against dS/dx_i and Delta is the odd second-order operator pairing
eta_i with x_i.  The descendant family ell_n measures iterated failures of
Khat to be a derivation, divided by powers of (-h), in Koszul's closed form
(Koszul 1985; Bering, Damgaard, Alfaro, hep-th/9604027).
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from types import MappingProxyType

from .partitions import ArityCapError, unshuffle_sign
from .scalars import INF_TRUNC, Combination, HPoly, NotDivisibleError, _rat, sum_pairs

POLY_ARITY_CAP = 6


class Potential:
    """A classical action S_cl in Q[x_1..x_N] (ghost number zero)."""

    def __init__(self, n_vars: int, terms):
        if n_vars < 1:
            raise ValueError("need at least one variable")
        self.n_vars = n_vars
        s = {}
        for exp, coef in dict(terms).items():
            exp = tuple(exp)
            if len(exp) != n_vars or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent vector {exp}")
            c = _rat(coef)
            if c != 0:
                s[exp] = c
        self.s_cl = s
        self._jacobian = None

    @classmethod
    def single_variable(cls, coeffs) -> "Potential":
        """Potential in one variable from {degree: coefficient}."""
        return cls(1, {(d,): c for d, c in coeffs.items()})

    @classmethod
    def a_k(cls, k: int) -> "Potential":
        """The A_k singularity x^(k+1)/(k+1) in one variable."""
        return cls.single_variable({k + 1: Fraction(1, k + 1)})

    def jacobian(self) -> tuple:
        """dS/dx_i as exponent-dict polynomials, one per variable.

        Computed once per potential and shared by every caller, so the
        polynomials are read-only views.
        """
        if self._jacobian is None:
            gens = []
            for i in range(self.n_vars):
                g = {}
                for exp, c in self.s_cl.items():
                    if exp[i] == 0:
                        continue
                    de = list(exp)
                    de[i] -= 1
                    g[tuple(de)] = g.get(tuple(de), Fraction(0)) + c * exp[i]
                gens.append(MappingProxyType({e: c for e, c in g.items() if c != 0}))
            self._jacobian = tuple(gens)
        return self._jacobian

    def __repr__(self):
        return f"Potential(n_vars={self.n_vars}, terms={self.s_cl})"


def _eta_normalize(etas):
    """Sort an eta-index sequence; return (sorted tuple, sign) or sign 0."""
    lst = list(etas)
    sign = 1
    for i in range(1, len(lst)):
        j = i
        while j > 0 and lst[j - 1] > lst[j]:
            lst[j - 1], lst[j] = lst[j], lst[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(lst)):
        if lst[i - 1] == lst[i]:
            return tuple(lst), 0
    return tuple(lst), sign


class PolyElement(Combination):
    """Sparse element of C; terms map (x-exponents, eta-index set) to HPoly.

    The linear algebra is Combination's; this class adds the product.
    """

    __slots__ = ("n_vars",)

    def __init__(self, n_vars: int, terms=None):
        self.n_vars = n_vars
        self.terms = {}
        if terms:
            for (exp, etas), coef in terms.items():
                self._add_term(tuple(exp), tuple(etas), coef)

    def _add_term(self, exp, etas, coef):
        coef = HPoly.promote(coef)
        if coef.is_zero():
            return
        etas, sign = _eta_normalize(etas)
        if sign == 0:
            return
        self._add_at((exp, etas), -coef if sign < 0 else coef)

    # -- constructors -------------
    @classmethod
    def _of(cls, n_vars: int, terms: dict) -> "PolyElement":
        """Wrap a dict already in canonical form: sorted eta words, no zeros."""
        out = cls.__new__(cls)
        out.n_vars = n_vars
        out.terms = terms
        return out

    def _like(self, terms: dict) -> "PolyElement":
        return PolyElement._of(self.n_vars, terms)

    @classmethod
    def zero(cls, n_vars: int) -> "PolyElement":
        return cls(n_vars)

    @classmethod
    def one(cls, n_vars: int) -> "PolyElement":
        return cls(n_vars, {((0,) * n_vars, ()): 1})

    @classmethod
    def x(cls, i: int, n_vars: int, power: int = 1) -> "PolyElement":
        exp = [0] * n_vars
        exp[i] = power
        return cls(n_vars, {(tuple(exp), ()): 1})

    @classmethod
    def eta(cls, i: int, n_vars: int) -> "PolyElement":
        return cls(n_vars, {((0,) * n_vars, (i,)): 1})

    @classmethod
    def monomial(cls, n_vars: int, exp, etas=(), coef=1) -> "PolyElement":
        return cls(n_vars, {(tuple(exp), tuple(etas)): coef})

    # -- structure queries -------------
    def ghost_parts(self) -> dict:
        parts = {}
        for (exp, etas), coef in self.terms.items():
            g = -len(etas)
            parts.setdefault(g, PolyElement(self.n_vars))._add_term(exp, etas, coef)
        return parts

    def is_homogeneous(self) -> bool:
        return len({len(etas) for _, etas in self.terms}) <= 1

    def ghost(self) -> int:
        """Ghost number of a homogeneous element (0 for the zero element)."""
        gs = {-len(etas) for _, etas in self.terms}
        if not gs:
            return 0
        if len(gs) > 1:
            raise ValueError("element is not homogeneous")
        return gs.pop()

    # -- product -------------
    def __mul__(self, other):
        if isinstance(other, (int, Fraction, HPoly)):
            return self.scale(other)
        if not isinstance(other, PolyElement):
            return NotImplemented
        out = PolyElement(self.n_vars)
        for (e1, t1), c1 in self.terms.items():
            for (e2, t2), c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                out._add_term(exp, t1 + t2, c1 * c2)
        return out

    # -- graded operators -------------
    def J(self) -> "PolyElement":
        """The parity twist J v = (-1)^{gh(v)} v."""
        return self._like({
            key: -coef if len(key[1]) % 2 else coef for key, coef in self.terms.items()})

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (kv[0][1], kv[0][0]))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (exp, etas), coef in self.sorted_terms():
            mono = []
            for i, e in enumerate(exp):
                if e == 1:
                    mono.append(f"x{i}" if self.n_vars > 1 else "x")
                elif e > 1:
                    mono.append(f"x{i}^{e}" if self.n_vars > 1 else f"x^{e}")
            for i in etas:
                mono.append(f"eta{i}" if self.n_vars > 1 else "eta")
            ms = "*".join(mono) if mono else "1"
            cs = str(coef)
            if cs == "1":
                bits.append(ms)
            elif ms == "1":
                bits.append(f"({cs})")
            else:
                bits.append(f"({cs})*{ms}")
        return " + ".join(bits)


def collect_product(terms: dict, a: PolyElement, b: PolyElement, weight: HPoly) -> None:
    """Add weight * a * b to the linear combination `terms` for an eta-free b
    (all ghost-0 data is): exponents add and a's eta words stay canonical, so
    no term needs `_add_term`.  The weight must be exact; it scales b once."""
    right = [(e2, c2 * weight) for (e2, _), c2 in b.terms.items()]
    for (e1, t1), c1 in a.terms.items():
        for e2, c2 in right:
            terms.setdefault((tuple(map(add, e1, e2)), t1), []).append((c1, c2))


def _eta_derivative_sign(etas, i):
    """Left derivative d/deta_i on the sorted eta word; None when absent."""
    if i not in etas:
        return None
    pos = etas.index(i)
    rest = etas[:pos] + etas[pos + 1:]
    return rest, (-1) ** pos


def collect_contraction(terms: dict, a: PolyElement, pot, power, sign: int = 1) -> None:
    """Add sign * (K a + (-h)^power Delta a) to the linear combination `terms`
    (sum_pairs); K is left out when `pot` is None, Delta when `power` is.
    delta_op, classical_K and quantum_K close it; a check adds to its residual."""
    gens = pot.jacobian() if pot is not None else None
    for (exp, etas), coef in a.terms.items():
        for i in etas:
            rest, sgn = _eta_derivative_sign(etas, i)
            sgn *= sign
            if gens is not None:
                for gexp, gc in gens[i].items():
                    terms.setdefault((tuple(map(add, exp, gexp)), rest), []).append(
                        (coef, HPoly._of({0: sgn * gc}, INF_TRUNC)))
            if power is not None and exp[i]:
                de = list(exp)
                de[i] -= 1
                # the integer exp[i] enters as a one-term weight
                terms.setdefault((tuple(de), rest), []).append(
                    (coef, HPoly.neg_h(power, sgn * exp[i])))


def _contract(a: PolyElement, pot, power) -> PolyElement:
    terms = {}
    collect_contraction(terms, a, pot, power)
    return PolyElement._of(a.n_vars, sum_pairs(terms))


def delta_op(a: PolyElement) -> PolyElement:
    """The odd Laplacian: sum over i of d^2/(deta_i dx_i)."""
    return _contract(a, None, 0)


def classical_K(pot: Potential, a: PolyElement) -> PolyElement:
    """K = sum_i (dS/dx_i) d/deta_i."""
    return _contract(a, pot, None)


def quantum_K(pot: Potential, a: PolyElement) -> PolyElement:
    """Khat = K - h*Delta, summed in one pass."""
    return _contract(a, pot, 1)


def bv_bracket(a: PolyElement, b: PolyElement) -> PolyElement:
    """(a, b)_BV = Delta(ab) - Delta(a) b - Ja Delta(b); a must be homogeneous."""
    if not a.is_homogeneous():
        raise ValueError("first bracket argument must be homogeneous")
    return delta_op(a * b) - delta_op(a) * b - a.J() * delta_op(b)


class DescendantFamily:
    """The descendant brackets ell_n of a square-zero differential on C.

    ell_1 is the differential D, Khat of the potential unless another
    pointed, square-zero D of ghost number 1 is supplied.  For n >= 2,
    ell_n is Koszul's closed formula divided by (-h)^(n-1):

        Phi_n(a_1..a_n) = sum over nonempty I of (-1)^(n-|I|) eps(I|I^c)
                          D(a_I) a_(I^c),

    with eps the Koszul sign of the unshuffle that moves I ahead of its
    complement.  ell(n) divides the arity-n sum it returns and evaluates no
    lower arity, so an undivisible Phi_k at some k < n does not stop it.
    Arities above POLY_ARITY_CAP are refused.
    """

    def __init__(self, pot: Potential, differential=None):
        self.pot = pot
        self._K = differential if differential is not None else (
            lambda a: quantum_K(pot, a)
        )

    def ell(self, n: int, args) -> PolyElement:
        args = list(args)
        if len(args) != n:
            raise ValueError("arity mismatch")
        if n > POLY_ARITY_CAP:
            raise ArityCapError(f"arity {n} exceeds cap {POLY_ARITY_CAP}")
        if n == 1:
            return self._K(args[0])
        for a in args:
            if not a.is_homogeneous():
                raise ValueError("descendant arguments must be homogeneous")
        nv = self.pot.n_vars
        odd = sum(1 << i for i, a in enumerate(args) if a.ghost() % 2)
        # the product a_I of every subset I, in argument order, by bitmask
        prods = [PolyElement.one(nv)]
        for a in args:
            prods += [a] + [p * a for p in prods[1:]]
        full = (1 << n) - 1
        acc = PolyElement.zero(nv)
        for mask in range(1, full + 1):
            inner, outer = prods[mask], prods[full ^ mask]
            # skip a product that repeats an eta, and ghost 0: D raises the
            # ghost number and C has none above 0
            if inner.is_zero() or outer.is_zero() or not next(iter(inner.terms))[1]:
                continue
            sign = unshuffle_sign(odd, mask)
            if (n - mask.bit_count()) % 2:
                sign = -sign
            term = self._K(inner)
            if mask != full:
                term = term * outer
            acc = acc + term if sign > 0 else acc - term
        try:
            return acc.neg_h_divide(n - 1)
        except NotDivisibleError as e:
            raise NotDivisibleError(
                e.offending_exponent,
                f"descendant bracket not h-divisible at arity {n}: "
                "the algebra is not a binary QFT algebra",
            ) from e
