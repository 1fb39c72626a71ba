"""Off-to-on-shell retracts of the polynomial BV complex and their quantization.

The classical retract (f, h, s) splits C into the Milnor ring H plus an
acyclic piece, with the side conditions s s = s f = h s = 0.  Quantization
is the homological perturbation lemma for the perturbation -h Delta of K
(Crainic, arXiv:math/0403266, with homotopy -s).  The side conditions
s s = h s = s f = 0 collapse its four series into one chain per monomial m of
C, x_0 = m, x_{k+1} = Delta(s(x_k)):

    hhat(m) = sum_k h^k h(x_k)        fhat(e_i) = f_i + h shat(Delta f_i)
    shat(m) = sum_k h^k s(x_k)

The lemma also yields an anomaly -h hhat(Delta f_i) that obstructs Khat
fhat = 0.  Quantization is restricted to retracts with Delta f_i = 0 for
every representative, which `QuantizedRetract` checks: then the anomaly
vanishes and fhat = f.  In one variable this always holds, since every
Milnor class has an eta-free representative.  The operator `nabla`
divides symmetric-map families by (-h) up to homotopy correction terms.

Each homotopy identity check collects lhs - rhs into one linear combination
and closes it with one `sum_pairs`: it fails exactly when a coefficient
survives inside its window.
"""

from __future__ import annotations

from .errors import RetractError
from .groebner import MilnorData
from .hspace import HVector
from .polyalg import PolyElement, classical_K, collect_contraction, delta_op, quantum_K
from .scalars import DEFAULT_H_ORDER, HPoly, NotDivisibleError, collect_pairs, sum_pairs


SPAN_DEGREE = 8  # x-degree of the monomials the retract identities are checked on

_ONE, _MINUS_ONE = HPoly.neg_h(0), HPoly.neg_h(0, -1)


def spanning_monomials(n_vars: int, x_degree: int):
    """Monomials of C with bounded x-degree: the operator-identity test set."""
    exps = []

    def rec(prefix, left):
        if len(prefix) == n_vars:
            exps.append(tuple(prefix))
            return
        for k in range(left + 1):
            rec(prefix + [k], left - k)

    rec([], x_degree)
    etasets = [()]
    for i in range(n_vars):
        etasets = etasets + [t + (i,) for t in etasets if not t or t[-1] < i]
    out = []
    for exp in sorted(exps):
        for etas in sorted(etasets, key=lambda t: (len(t), t)):
            out.append(PolyElement.monomial(n_vars, exp, etas))
    return out


class Retract:
    """Classical off-to-on-shell retract (f, h, s) over a Milnor basis."""

    def __init__(self, milnor: MilnorData):
        self.milnor = milnor
        self.pot = milnor.pot
        self.n_vars = milnor.n_vars
        self.dim = milnor.dimension
        self.ghosts = [0] * self.dim  # Milnor ring sits in ghost number 0
        self.basis_elements = [
            PolyElement.monomial(self.n_vars, exp) for exp in milnor.basis
        ]
        self._rows: dict = {}
        self._verify()

    # -- the three maps -------------
    def f(self, v: HVector) -> PolyElement:
        terms = {}
        self.collect_f(terms, v)
        return PolyElement._of(self.n_vars, sum_pairs(terms))

    def collect_f(self, terms: dict, v: HVector) -> None:
        """Add f(v) to the linear combination `terms` (sum_pairs)."""
        for i, coef in v.terms.items():
            self.basis_elements[i].collect(terms, coef)

    def h(self, c: PolyElement) -> HVector:
        terms = {}
        for (exp, etas), coef in c.terms.items():
            if not etas:
                collect_pairs(terms, self._rows_of(exp)[0], coef)
        return HVector._of(sum_pairs(terms))

    def s(self, c: PolyElement) -> PolyElement:
        terms = {}
        for (exp, etas), coef in c.terms.items():
            if not etas:  # zero on ghost < 0 (Koszul splitting for one variable)
                collect_pairs(terms, self._rows_of(exp)[1], coef)
        return PolyElement._of(self.n_vars, sum_pairs(terms))

    def _rows_of(self, exp):
        """h and s of x^exp, memoized: its Milnor coordinates and w_i eta_i."""
        hit = self._rows.get(exp)
        if hit is None:
            mil = self.milnor
            nf = mil.coords(mil.normal_form_monomial(exp))
            hit = self._rows[exp] = (
                {i: HPoly.const(v) for i, v in nf.items() if v},
                {(we, (i,)): HPoly.const(wc)
                 for i, w in enumerate(mil.witness_monomial(exp))
                 for we, wc in w.items() if wc},
            )
        return hit

    def unit(self) -> HVector:
        return HVector.basis(0)

    # -- verification -------------
    def _verify(self) -> None:
        mil = self.milnor
        if mil.basis[0] != (0,) * self.n_vars:
            raise RetractError("first basis element is not the unit")
        for i in range(self.dim):
            hv = self.h(self.basis_elements[i])
            if hv != HVector.basis(i):
                raise RetractError("h . f is not the identity on H")
        if not self.s(PolyElement.one(self.n_vars)).is_zero():
            raise RetractError("s(1) != 0")
        for m in spanning_monomials(self.n_vars, SPAN_DEGREE):
            km, sm = classical_K(self.pot, m), self.s(m)
            # f h + K s + s K - 1, closed as one residual
            terms = {}
            self.collect_f(terms, self.h(m))
            collect_contraction(terms, sm, self.pot, None)
            self.s(km).collect(terms, _ONE)
            m.collect(terms, _MINUS_ONE)
            if sum_pairs(terms):
                raise RetractError(
                    "homotopy identity f h = 1 - K s - s K fails; "
                    "the splitting for this potential is not a retract"
                )
            if not self.s(sm).is_zero():
                raise RetractError("side condition s s = 0 fails")
            if not self.h(sm).is_zero():
                raise RetractError("side condition h s = 0 fails")
            if not self.h(km).is_zero():
                raise RetractError("h K = 0 fails")
        for b in self.basis_elements:
            if not classical_K(self.pot, b).is_zero():
                raise RetractError("K f = 0 fails")
            if not self.s(b).is_zero():
                raise RetractError("side condition s f = 0 fails")


def build_retract(milnor: MilnorData) -> Retract:
    return Retract(milnor)


def _by_linearity(entry, coords: dict, wrap, order: int):
    """Extend a map given on basis keys by linearity: sum_k coords[k] entry(k).

    `coords` maps keys (H indices or C monomials) to HPoly coefficients, and
    `wrap` makes the value type from summed coordinates.  The result is a
    truncated series, known through `order` and further capped by the
    precision of the coefficients.
    """
    cap = min([order, *(c.trunc for c in coords.values())])
    terms = {}
    for key, coef in coords.items():
        entry(key).collect(terms, coef)
    return wrap(sum_pairs(terms)).cap_trunc(cap)


class QuantizedRetract:
    """The quantized trio (fhat, hhat, shat) of a retract with Delta f_i = 0."""

    def __init__(self, retract: Retract, order: int = DEFAULT_H_ORDER):
        for i, b in enumerate(retract.basis_elements):
            if not delta_op(b).is_zero():
                raise RetractError(
                    f"Delta does not kill the representative of basis element {i}; "
                    "quantization needs Delta f_i = 0 (an anomaly-free retract)"
                )
        self.retract = retract
        self.pot = retract.pot
        self.n_vars = retract.n_vars
        self.dim = retract.dim
        self.ghosts = retract.ghosts
        self.order = order
        self._chains: dict = {}
        self._verify()

    def _chain(self, key):
        """(hhat(m), shat(m)) on the C-monomial m with key `key`, through order.

        One pass of x_0 = m, x_{k+1} = Delta(s(x_k)), memoized per monomial.
        """
        hit = self._chains.get(key)
        if hit is None:
            r = self.retract
            x = PolyElement(self.n_vars, {key: 1})
            hv, sv = {}, {}
            for k in range(self.order + 1):
                hk = HPoly.h(k)
                sx = r.s(x)
                r.h(x).collect(hv, hk)
                sx.collect(sv, hk)
                if k == self.order or sx.is_zero():
                    break
                x = delta_op(sx)
            hit = self._chains[key] = (
                HVector._of(sum_pairs(hv)), PolyElement._of(self.n_vars, sum_pairs(sv)))
        return hit

    # -- assembled quantum maps -------------
    def fhat(self, v: HVector) -> PolyElement:
        return self.retract.f(v)  # h shat(Delta f_i) = 0: no quantum correction

    def hhat(self, c: PolyElement) -> HVector:
        return _by_linearity(lambda m: self._chain(m)[0], c.terms, HVector._of, self.order)

    def shat(self, c: PolyElement) -> PolyElement:
        return _by_linearity(lambda m: self._chain(m)[1], c.terms,
                             lambda t: PolyElement._of(self.n_vars, t), self.order)

    def Khat(self, c: PolyElement) -> PolyElement:
        return quantum_K(self.pot, c)

    def unit(self) -> HVector:
        return HVector.basis(0)

    # -- verification -------------
    def _verify(self) -> None:
        one = PolyElement.one(self.n_vars)
        if self.fhat(self.unit()) != one:
            raise RetractError("fhat(1_H) != 1_C")
        if self.hhat(one) != self.unit():
            raise RetractError("hhat(1_C) != 1_H")
        if not self.shat(one).is_zero():
            raise RetractError("shat(1_C) != 0")
        for i in range(self.dim):
            v = HVector.basis(i)
            if self.hhat(self.fhat(v)) != v:
                raise RetractError("hhat fhat != id")
            if not self.Khat(self.fhat(v)).is_zero():
                raise RetractError("Khat fhat != 0")
        for m in spanning_monomials(self.n_vars, 4):
            km, sm = self.Khat(m), self.shat(m)
            # fhat hhat + Khat shat + shat Khat - 1, closed as one residual
            terms = {}
            self.retract.collect_f(terms, self.hhat(m))  # fhat = f
            collect_contraction(terms, sm, self.pot, 1)
            self.shat(km).collect(terms, _ONE)
            m.collect(terms, _MINUS_ONE)
            if sum_pairs(terms):
                raise RetractError("quantized homotopy identity fails")
            if not self.shat(sm).is_zero():
                raise RetractError("side condition shat shat = 0 fails")
            if not self.hhat(sm).is_zero():
                raise RetractError("side condition hhat shat = 0 fails")
            if not self.hhat(km).is_zero():
                raise RetractError("hhat Khat != 0")
            # mixed side conditions with the classical splitting
            if not self.retract.s(sm).is_zero():
                raise RetractError("side condition s shat = 0 fails")
            if not self.shat(self.retract.s(m)).is_zero():
                raise RetractError("side condition shat s = 0 fails")
            if not self.hhat(self.retract.s(m)).is_zero():
                raise RetractError("side condition hhat s = 0 fails")
            if not self.retract.h(self.shat(m)).is_zero():
                raise RetractError("side condition h shat = 0 fails")
        for i in range(self.dim):
            if not self.shat(self.retract.basis_elements[i]).is_zero():
                raise RetractError("side condition shat f = 0 fails")


def quantize_retract(retract: Retract, order: int = DEFAULT_H_ORDER) -> QuantizedRetract:
    return QuantizedRetract(retract, order=order)


# -- homotopy h-divisibility -------------


def nabla(q: QuantizedRetract, omega, classical=None, s_classical=None):
    """One application of the division-by-(-h) homotopy operator.

    (-h) nabla W = W - fhat(h W0) - Khat(s W0) - s(K W0), where W0 is the
    classical limit of W.  With Khat = K - h Delta and the retract identity
    f h + K s + s K = 1 on W0 (which `Retract._verify` checks, and which a
    `PerturbedRetract` keeps since h K = 0), the right side is
    W - W0 + h Delta(s W0), so nabla W = (W - W0) / (-h) - Delta(s W0) and
    every value divides.  Each value is one sum, with weights (-h)^-1 on W
    and W0 and -1 on Delta(s W0), so each coefficient keeps the window of
    W's, less the division.  A coefficient left with a power of h below 0
    raises NotDivisibleError, as does a window that falls below 0, the two
    failures of `HPoly.h_divide`.  A caller holding W0 or s(W0) per key may
    pass them as `classical`, `s_classical`.
    """
    r = q.retract
    cl = omega.classical_part(0).values if classical is None else classical
    out = type(omega)(omega.arity, omega.ghosts, PolyElement.zero(q.n_vars))
    inv, minus_inv = HPoly.neg_h(-1), HPoly.neg_h(-1, -1)
    # stored keys are canonical: read and write the tables directly
    for key in omega.keys():
        w0 = cl[key]
        terms = {}
        omega.values[key].collect(terms, inv)
        w0.collect(terms, minus_inv)
        sw0 = r.s(w0) if s_classical is None else s_classical[key]
        collect_contraction(terms, sw0, None, 0, -1)
        value = sum_pairs(terms)
        for coef in value.values():
            low = min(coef.c)
            if low < 0:
                raise NotDivisibleError(low + 1)
            if coef.trunc < 0:
                raise NotDivisibleError(0, "insufficient precision to divide by h^1")
        out.values[key] = PolyElement._of(q.n_vars, value)
    return out
