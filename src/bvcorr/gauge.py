"""Gauge changes of a retract: a second splitting of one potential, compared.

The correlation algebra is universal up to the choice of retract.
`PerturbedRetract` shifts the representatives of a retract by a K-exact
term, and `compare_retracts` computes the gauge data (xi, lam) relating two
quantized retracts, fhat' = fhat xi + Khat lam, and verifies it.
"""

from __future__ import annotations

from .errors import RetractError
from .hspace import HVector
from .polyalg import PolyElement, classical_K, delta_op
from .retract import QuantizedRetract, Retract, _by_linearity
from .scalars import HPoly


class PerturbedRetract(Retract):
    """A retract with representatives shifted by a K-exact perturbation.

    f'(e_i) = f(e_i) + K(lam(e_i)); h is unchanged and s is rebuilt so the
    homotopy identity holds: s' = s + (correction on the f'-h' split).
    """

    def __init__(self, base: Retract, lam_values):
        self.base = base
        self.milnor = base.milnor
        self.pot = base.pot
        self.n_vars = base.n_vars
        self.dim = base.dim
        self.ghosts = base.ghosts
        self.basis_elements = [
            base.basis_elements[i] + classical_K(base.pot, lam_values[i])
            for i in range(base.dim)
        ]
        self._lam = lam_values
        self._verify_light()

    def h(self, c: PolyElement) -> HVector:
        return self.base.h(c)

    def s(self, c: PolyElement) -> PolyElement:
        # adjust the splitting so that f' h = 1 - K s' - s' K keeps holding:
        # s'(c) = s(c) + lam(h(c)) restores the defect f'(h c) - f(h c).
        out = self.base.s(c)
        hv = self.base.h(c)
        for i, coef in hv.terms.items():
            out = out - self._lam[i].scale(coef)
        return out

    def _verify_light(self) -> None:
        for i in range(self.dim):
            if self.h(self.basis_elements[i]) != HVector.basis(i):
                raise RetractError("perturbation changed the induced classes")
        for v in self._lam:
            if v.is_zero():
                continue
            if v.ghost() != -1:
                raise RetractError("perturbation must have ghost number -1")
        if not self.s(PolyElement.one(self.n_vars)).is_zero():
            raise RetractError("s(1) != 0 after perturbation")


def compare_retracts(q: QuantizedRetract, qp: QuantizedRetract):
    """Gauge data (xi, lam) relating two quantized retracts of one potential.

    Returns (xi_orders, lam_orders) with xi = 1 + h xi1 + ... as basis-indexed
    HVector tables and lam as PolyElement tables, satisfying
    fhat' = fhat xi + Khat lam.  Both sides have fhat = f, so with
    Khat = K - h Delta the order-n equation is f xi_n + K lam_n = Delta lam_(n-1)
    =: w_n, and w_n = f h(w_n) + K s(w_n) gives xi_n = h(w_n), lam_n = s(w_n).
    """
    if q.pot is not qp.pot and q.pot.s_cl != qp.pot.s_cl:
        raise ValueError("retracts quantize different potentials")
    r = q.retract
    N = min(q.order, qp.order)
    # classical gauge: lam0 = s(f' - f), xi0 = identity
    lam_orders = [[
        r.s(fp - f)
        for f, fp in zip(r.basis_elements, qp.retract.basis_elements)
    ]]
    xi_orders = [[HVector.basis(b) for b in range(q.dim)]]
    for _ in range(N):
        w_vals = [delta_op(lam) for lam in lam_orders[-1]]
        xi_orders.append([r.h(w) for w in w_vals])
        lam_orders.append([r.s(w) for w in w_vals])

    _verify_gauge(q, qp, xi_orders, lam_orders, N)
    return xi_orders, lam_orders


def _verify_gauge(q, qp, xi_orders, lam_orders, N) -> None:
    basis = range(q.dim)

    def series(orders, zero):
        return [
            sum((row[b].scale(HPoly.h(n)) for n, row in enumerate(orders)), zero)
            for b in basis
        ]

    xi_table = series(xi_orders, HVector.zero())
    lam_table = series(lam_orders, PolyElement.zero(q.n_vars))

    def xi(v: HVector) -> HVector:
        return _by_linearity(xi_table.__getitem__, v.terms, HVector._of, N)

    def lam(v: HVector) -> PolyElement:
        return _by_linearity(lam_table.__getitem__, v.terms,
                             lambda t: PolyElement._of(q.n_vars, t), N)

    # xi^-1 = sum_k (1 - xi)^k; the k-th term has h-valuation at least k
    inv_table = []
    for b in basis:
        term = acc = HVector.basis(b)
        for _ in range(N):
            term = term - xi(term)
            acc = acc + term
        inv_table.append(acc)

    def xi_inverse(v: HVector) -> HVector:
        return _by_linearity(inv_table.__getitem__, v.terms, HVector._of, N)

    for b in basis:
        v = HVector.basis(b)
        if xi_inverse(xi(v)) != v:
            raise RetractError("xi inverse is wrong")
        if qp.fhat(v) != q.fhat(xi(v)) + q.Khat(lam(v)):
            raise RetractError("f' != f xi + Khat lam")
