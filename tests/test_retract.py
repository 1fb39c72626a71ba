from fractions import Fraction
from functools import cache
import random

import pytest

import bvcorr.retract
from bvcorr.gauge import PerturbedRetract, compare_retracts
from bvcorr.groebner import MilnorData
from bvcorr.hspace import HVector, SymMap, tuples_with_repetition
from bvcorr.polyalg import PolyElement, Potential, classical_K, delta_op, quantum_K
from bvcorr.retract import (
    QuantizedRetract,
    RetractError,
    build_retract,
    nabla,
    quantize_retract,
    spanning_monomials,
)
from bvcorr.scalars import INF_TRUNC, HPoly, NotDivisibleError

X = PolyElement.x(0, 1)
ETA = PolyElement.eta(0, 1)
ONE = PolyElement.one(1)


@pytest.fixture(scope="module")
def a2():
    r = build_retract(MilnorData(Potential.a_k(2)))
    return r, quantize_retract(r)


@pytest.fixture(scope="module")
def a3():
    r = build_retract(MilnorData(Potential.a_k(3)))
    return r, quantize_retract(r)


def test_split_examples(a2):
    r, _ = a2
    x2 = PolyElement.x(0, 1, 2)
    assert r.h(x2).is_zero()
    assert r.s(x2) == ETA
    assert r.h(X) == HVector.basis(1)
    assert r.s(X).is_zero()
    assert r.s(ONE).is_zero()
    assert r.f(HVector.basis(0)) == ONE


def test_retract_identities_hold(a2):
    r, _ = a2
    pot = r.pot
    for m in spanning_monomials(1, 8):
        lhs = r.f(r.h(m))
        rhs = m - classical_K(pot, r.s(m)) - r.s(classical_K(pot, m))
        assert lhs == rhs
        assert r.s(r.s(m)).is_zero()
        assert r.h(r.s(m)).is_zero()


def test_quantization_anomaly_free(a2):
    r, q = a2
    # the guard passed: Delta kills every representative, so fhat = f
    for b, rep in enumerate(r.basis_elements):
        assert delta_op(rep).is_zero()
        assert q.fhat(HVector.basis(b)) == rep
        assert q.Khat(rep).is_zero()


def test_quantization_rejects_a_representative_with_eta():
    r = build_retract(MilnorData(Potential.a_k(2)))
    r.basis_elements = [ONE, X + X * ETA]  # Delta(x eta) = 1: an anomaly
    with pytest.raises(RetractError, match="basis element 1"):
        quantize_retract(r)
    with pytest.raises(RetractError):
        QuantizedRetract(r)


def test_quantized_maps_nontrivial(a2):
    _, q = a2
    x3 = PolyElement.x(0, 1, 3)
    hv = q.hhat(x3)
    assert hv == HVector({0: HPoly.h()})  # hhat picks up an h-correction
    assert q.hhat(q.fhat(HVector.basis(1))) == HVector.basis(1)


def test_quantized_homotopy_identity(a2):
    _, q = a2
    for m in spanning_monomials(1, 6):
        lhs = q.fhat(q.hhat(m))
        rhs = m - q.Khat(q.shat(m)) - q.shat(q.Khat(m))
        assert lhs == rhs


def test_perturbed_retract_still_anomaly_free(a2):
    r, q0 = a2
    lam = [PolyElement.zero(1), (X * ETA).scale(Fraction(1, 2))]
    pert = PerturbedRetract(r, lam)
    q1 = quantize_retract(pert)
    xi, lamv = compare_retracts(q0, q1)
    # classical gauge part: s(f' - f) = s(K lam)
    assert lamv[0][1] == r.s(classical_K(r.pot, lam[1]))
    assert lamv[0][0].is_zero()


def test_compare_retracts_trivial(a2):
    _, q = a2
    xi, lam = compare_retracts(q, q)
    assert all(xi[0][b] == HVector.basis(b) for b in range(q.dim))
    assert all(v.is_zero() for row in xi[1:] for v in row)
    assert all(v.is_zero() for row in lam for v in row)


def _gauge_lam(k):
    """A K-exact shift of the A_k representatives with x-degree k = mu."""
    lam = [PolyElement.zero(1)] * k
    lam[1] = lam[1] + (X * ETA).scale(Fraction(1, 2))
    lam[k - 1] = lam[k - 1] + (PolyElement.x(0, 1, k) * ETA).scale(Fraction(-2, 3))
    return lam


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_compare_retracts_both_directions(k):
    base = build_retract(MilnorData(Potential.a_k(k)))
    pert = PerturbedRetract(base, _gauge_lam(k))
    for order in range(2, 9):
        q0, q1 = quantize_retract(base, order), quantize_retract(pert, order)
        for q, qp in ((q0, q1), (q1, q0)):
            xi, lam = compare_retracts(q, qp)  # raises unless f' = f xi + Khat lam
            assert any(not v.is_zero() for row in xi[1:] for v in row)


def _reference_orders(r, order):
    """The order-by-order quantization recursion, as an oracle.

    It assumes no Delta f = 0 and tracks the anomaly kappa itself, so it
    checks the guard's consequence kappa = 0, f^(n>0) = 0 independently.

    f^(n) = -s(g_n), kappa^(n) = h(g_n) with g_n = K^(1) f^(n-1) +
    sum_j f^(n-j) kappa^(j), h^(n) = -u^(n) s and s^(n) = -s K^(1) s^(n-1),
    where K^(1) = -Delta is the only correction to K.  Returns the tables
    f[n][b], kappa[n][b] and the order-n maps h_n(n, key), s_n(n, key) on
    C-monomial keys.
    """
    dim = r.dim
    f = [list(r.basis_elements)]
    kappa = [[HVector.zero()] * dim]
    for n in range(1, order + 1):
        g = []
        for b in range(dim):
            acc = -delta_op(f[n - 1][b])
            for j in range(1, n):
                for i, c in kappa[j][b].terms.items():
                    acc = acc + f[n - j][i].scale(c)
            g.append(acc)
        kappa.append([r.h(x) for x in g])
        f.append([-r.s(x) for x in g])

    def lin(fn, c, zero):
        for key, coef in c.terms.items():
            zero = zero + fn(key).scale(coef)
        return zero

    @cache
    def h_n(n, key):
        m = PolyElement(r.n_vars, {key: 1})
        if n == 0:
            return r.h(m)
        sm = r.s(m)
        # u^(n)(c) = h^(n-1)(K^(1) c) + sum_j kappa^(j) h^(n-j)(c)
        u = lin(lambda k: h_n(n - 1, k), -delta_op(sm), HVector.zero())
        for j in range(1, n):
            hv = lin(lambda k, j=j: h_n(n - j, k), sm, HVector.zero())
            for i, c in hv.terms.items():
                u = u + kappa[j][i].scale(c)
        return -u

    @cache
    def s_n(n, key):
        m = PolyElement(r.n_vars, {key: 1})
        if n == 0:
            return r.s(m)
        prev = lin(lambda k: s_n(n - 1, k), m, PolyElement.zero(r.n_vars))
        return -r.s(-delta_op(prev))

    return f, kappa, h_n, s_n


def _quartic_with_lower_terms():
    return Potential.single_variable(
        {4: Fraction(1, 4), 3: Fraction(1, 3), 2: Fraction(-1, 2)}
    )


def _perturbed_a2():
    r = build_retract(MilnorData(Potential.a_k(2)))
    return PerturbedRetract(r, [PolyElement.zero(1), (X * ETA).scale(Fraction(1, 2))])


@pytest.mark.parametrize(
    "make",
    [lambda k=k: build_retract(MilnorData(Potential.a_k(k))) for k in (2, 3, 4, 5)]
    + [lambda: build_retract(MilnorData(_quartic_with_lower_terms())), _perturbed_a2],
    ids=["A2", "A3", "A4", "A5", "quartic", "perturbed-A2"],
)
def test_chain_matches_order_by_order_recursion(make):
    order = 8
    r = make()
    q = quantize_retract(r, order=order)
    f, kappa, h_n, s_n = _reference_orders(r, order)
    for b in range(r.dim):
        e = HVector.basis(b)
        for n in range(order + 1):
            assert q.fhat(e).classical_part(n) == f[n][b]
            assert kappa[n][b].is_zero()
    for m in spanning_monomials(1, order):
        (key,) = m.terms
        for n in range(order + 1):
            assert q.hhat(m).classical_part(n) == h_n(n, key)
            assert q.shat(m).classical_part(n) == s_n(n, key)


def test_hhat_cost_is_linear_in_order(monkeypatch):
    q = quantize_retract(build_retract(MilnorData(Potential.a_k(2))), order=12)
    calls = []

    def counting_delta(c):
        calls.append(c)
        return delta_op(c)

    monkeypatch.setattr(bvcorr.retract, "delta_op", counting_delta)
    m = PolyElement.x(0, 1, 40)  # fresh: x^40 -> x^37 -> ... never dies by order 12
    first = q.hhat(m)
    assert 0 < len(calls) <= 12
    seen = len(calls)
    assert q.hhat(m) == first
    assert len(calls) == seen


def test_multivariable_potential_gated():
    pot = Potential(2, {(3, 0): Fraction(1, 3), (0, 3): Fraction(1, 3)})
    mil = MilnorData(pot)  # the Milnor ring itself is fine (dim 4)
    assert mil.dimension == 4
    with pytest.raises(RetractError):
        build_retract(mil)


def test_nabla_zero_classical_limit(a2):
    _, q = a2
    om = SymMap(1, q.ghosts, PolyElement.zero(1))
    om.set((1,), X.scale(HPoly.h()))
    out = nabla(q, om)
    assert out.get((1,)) == -X


def test_nabla_a2_example(a2):
    _, q = a2
    om = SymMap(2, q.ghosts, PolyElement.zero(1))
    om.set((1, 1), PolyElement.x(0, 1, 2))
    assert nabla(q, om).get((1, 1)).is_zero()


def test_nabla_a3_example(a3):
    _, q = a3
    om = SymMap(2, q.ghosts, PolyElement.zero(1))
    om.set((2, 2), PolyElement.x(0, 1, 4))
    assert nabla(q, om).get((2, 2)) == -ONE


def test_nabla_always_divides_c_valued_input(a2):
    # the homotopy identity kills the classical residual, so one nabla step
    # succeeds on any C-valued family; failures live on the H-valued side
    _, q = a2
    for value in (ETA, X * ETA, X + PolyElement.x(0, 1, 3), ONE.scale(HPoly.h(2))):
        om = SymMap(1, q.ghosts, PolyElement.zero(1))
        om.set((1,), value)
        nabla(q, om)


def _four_term_nabla(q, omega):
    # nabla by its definition, a test-only reference:
    # (-h) nabla W = W - fhat(h W0) - Khat(s W0) - s(K W0)
    r = q.retract
    cl = omega.classical_part(0).values
    out = type(omega)(omega.arity, omega.ghosts, PolyElement.zero(q.n_vars))
    for key in omega.keys():
        w0 = cl[key]
        val = omega.values[key]
        hvec = r.h(w0)
        if not hvec.is_zero():
            val = val - q.fhat(hvec)
        val = val - q.Khat(r.s(w0))
        kw = classical_K(q.pot, w0)
        if not kw.is_zero():
            val = val - r.s(kw)
        out.values[key] = val.neg_h_divide(1)
    return out


def _random_family(rng, q, arity, etas, h_terms, trunc=None):
    # 1-4 monomials of x-degree < 7 per key; `etas` lists the eta words a
    # value may carry, so one word gives a homogeneous value
    om = SymMap(arity, q.ghosts, PolyElement.zero(1))
    for key in tuples_with_repetition(q.dim, arity):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            coef = {0: rng.randint(-3, 3)}
            for k in range(1, h_terms + 1):
                coef[k] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            terms[(rng.randrange(7),), rng.choice(etas)] = HPoly(coef, trunc)
        om.set(key, PolyElement(1, terms))
    return om


@pytest.mark.parametrize(
    "make",
    [lambda k=k: build_retract(MilnorData(Potential.a_k(k))) for k in (2, 3, 4, 5)]
    + [lambda: build_retract(MilnorData(_quartic_with_lower_terms())),
       lambda: PerturbedRetract(build_retract(MilnorData(Potential.a_k(3))), _gauge_lam(3))],
    ids=["A2", "A3", "A4", "A5", "quartic", "perturbed-A3"],
)
def test_nabla_equals_its_four_term_definition(make):
    q = quantize_retract(make())
    rng = random.Random(q.dim)
    families = [
        _random_family(rng, q, 1, [()], 0),  # ghost 0, h-independent
        _random_family(rng, q, 2, [(0,)], 0),  # ghost -1
        _random_family(rng, q, 2, [(), (0,)], 2),  # mixed, h-dependent
        _random_family(rng, q, 2, [(), (0,)], 2, trunc=2),  # a finite window
    ]
    finite = 0
    for om in families:
        new, ref = nabla(q, om), _four_term_nabla(q, om)
        assert new.keys() == ref.keys() == om.keys()
        for key in om.keys():
            a, b = new.values[key], ref.values[key]
            assert a == b and a.terms.keys() == b.terms.keys()
            for mono, coef in a.terms.items():
                assert coef.trunc == b.terms[mono].trunc
                finite += coef.trunc < INF_TRUNC
    assert finite > 0


@pytest.mark.parametrize(
    "make",
    [lambda: build_retract(MilnorData(Potential.a_k(3))),
     lambda: PerturbedRetract(build_retract(MilnorData(Potential.a_k(3))), _gauge_lam(3))],
    ids=["A3", "perturbed-A3"],
)
def test_nabla_reuses_the_classical_parts_it_is_given(make, monkeypatch):
    # the solver's transfer passes W0 and s(W0), which it has just computed,
    # so nabla must give the same table from them, and call no s of its own
    q = quantize_retract(make())
    rng = random.Random(7)
    families = [
        _random_family(rng, q, 2, [(), (0,)], 2),
        _random_family(rng, q, 2, [(), (0,)], 2, trunc=2),
    ]
    for om in families:
        cl = om.classical_part(0).values
        s_cl = {key: q.retract.s(cl[key]) for key in om.keys()}
        want = nabla(q, om)
        with monkeypatch.context() as m:
            m.setattr(q.retract, "s", lambda c: pytest.fail("nabla recomputed s(W0)"))
            given = nabla(q, om, cl, s_cl)
        for got in (given, nabla(q, om, cl)):
            assert got.keys() == want.keys()
            for key in want.keys():
                a, b = got.values[key], want.values[key]
                assert {k: (c.trunc, c.c) for k, c in a.terms.items()} == {
                    k: (c.trunc, c.c) for k, c in b.terms.items()}


def test_nabla_keeps_a_window_the_definition_cancels(a3):
    # W = -2 x^2 + x^6, known through h^2, on A3: f h W0 cancels W's x^2
    # coefficient, so the four-term reference reads its x^2 coefficient
    # 3 h / (-h) = -3 as exact; nabla adds the exact correction in one step
    # and keeps the window W's coefficient had, less the division
    _, q = a3
    om = SymMap(1, q.ghosts, PolyElement.zero(1))
    om.set((0,), PolyElement(1, {((2,), ()): HPoly({0: -2}, 2), ((6,), ()): HPoly({0: 1}, 2)}))
    new, ref = nabla(q, om).get((0,)), _four_term_nabla(q, om).get((0,))
    assert new == ref == PolyElement.x(0, 1, 2).scale(-3)
    ((mono, coef),) = new.terms.items()
    assert coef.trunc == 1 and ref.terms[mono].trunc == INF_TRUNC


def test_homotopy_divisibility_iterates(a3):
    # solver-shaped instance: K Omega = (-h)^k Xi - f omega with omega = 0;
    # the intermediate classical limits must stay K-closed
    _, q = a3
    r = q.retract
    om = SymMap(2, q.ghosts, PolyElement.zero(1))
    om.set((2, 2), r.f(HVector.basis(2)) * r.f(HVector.basis(2)))
    current = om
    for step in range(2):
        cl = current.classical_part(0)
        for key in cl.keys():
            assert classical_K(q.pot, cl.get(key)).is_zero()
        current = nabla(q, current)


# -- the homotopy identities close one residual: corruptions still fail them


def test_a_corrupted_splitting_fails_the_homotopy_identity(monkeypatch):
    # s(x^3) doubled on A2: f h + K s + s K = 1 fails at x^3 before any side
    # condition is read
    rows = bvcorr.retract.Retract._rows_of

    def doubled(self, exp):
        h_row, s_row = rows(self, exp)
        return h_row, ({k: v * 2 for k, v in s_row.items()} if exp == (3,) else s_row)

    monkeypatch.setattr(bvcorr.retract.Retract, "_rows_of", doubled)
    with pytest.raises(RetractError, match=r"^homotopy identity f h = 1 - K s - s K fails"):
        build_retract(MilnorData(Potential.a_k(2)))


def test_a_corrupted_chain_fails_the_quantized_homotopy_identity(monkeypatch):
    # shat(x^3) doubled on A2: fhat hhat + Khat shat + shat Khat = 1 fails
    r = build_retract(MilnorData(Potential.a_k(2)))
    chain = QuantizedRetract._chain

    def doubled(self, key):
        hv, sv = chain(self, key)
        return hv, (sv.scale(2) if key == ((3,), ()) else sv)

    monkeypatch.setattr(QuantizedRetract, "_chain", doubled)
    with pytest.raises(RetractError, match=r"^quantized homotopy identity fails$"):
        quantize_retract(r)


def test_nabla_still_refuses_an_undivisible_entry(a3):
    # an entry known only through h^0 whose h^0 part is not the W0 given:
    # (W - W0) / (-h) has an h^-1 term, the obstruction at h^0
    _, q = a3
    om = SymMap(1, q.ghosts, PolyElement.zero(1))
    om.set((0,), PolyElement(1, {((2,), ()): HPoly({0: 3}, 0)}))
    with pytest.raises(NotDivisibleError) as exc:
        nabla(q, om, {(0,): PolyElement.zero(1)})
    assert exc.value.offending_exponent == 0
