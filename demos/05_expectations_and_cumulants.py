"""Quantum expectations, Gaussian moments, and the cumulant obstruction.

The canonical expectation iota . hhat is always a pointed cochain map, but
whether it respects the product up to all orders (a "strong" expectation)
is a computation.  For the quadratic potential it reproduces the Gaussian
moments with exact cumulants; for the cubic potential h-divisibility of
the cumulant recursion breaks at arity three.
"""

from fractions import Fraction

from bvcorr import PolyElement, Potential, build_retract, milnor_basis, quantize_retract
from bvcorr.retract import spanning_monomials
from bvcorr.scalars import HPoly
from bvcorr.slinf import Expectation, descendant_morphism, probe_descendant

x = PolyElement.x(0, 1)

print("Quadratic potential S = x^2/2 (one critical point, H = Q):")
pot = Potential.single_variable({2: Fraction(1, 2)})
q = quantize_retract(build_retract(milnor_basis(pot)))
expect = Expectation(q, [1], span=spanning_monomials(1, 6))
for n in (2, 4, 6):
    p = x
    for _ in range(n - 1):
        p = p * x
    print(f"  <x^{n}> =", expect(p), "   # (n-1)!! h^(n/2): Wick pairings")
psi = descendant_morphism(
    expect, pot, HPoly.zero(),
    precheck_span=spanning_monomials(1, 6),
    target_K=lambda s: HPoly.zero(),
)
probes = [tuple([x] * n) for n in (2, 3, 4, 5)]
print("  strong expectation:", probe_descendant(psi, probes) is None)
print("  cumulants: chi_2(x,x) =", psi((x, x)),
      " chi_4(x,x,x,x) =", psi((x, x, x, x)))
print()

print("Cubic potential S = x^3/3 (the A2 singularity):")
pot2 = Potential.a_k(2)
q2 = quantize_retract(build_retract(milnor_basis(pot2)), order=10)
expect2 = Expectation(q2, [1, 0], span=spanning_monomials(1, 6))
print("  <x^3> =", expect2(x * x * x), "   # one h-loop survives")
p = PolyElement.one(1)
tower = []
for n in range(10):
    if n in (3, 6, 9):
        tower.append(f"<x^{n}> = {expect2(p)}")
    p = p * x
print("  the integration-by-parts tower <x^(n+2)> = n h <x^(n-1)>:")
print("   ", "; ".join(tower), "  # 1, 1*4, 1*4*7 loops")
psi2 = descendant_morphism(
    expect2, pot2, HPoly.zero(),
    precheck_span=spanning_monomials(1, 6),
    target_K=lambda s: HPoly.zero(),
)
probes2 = [tuple([x] * n) for n in (2, 3, 4)]
failure = probe_descendant(psi2, probes2)
print("  strong expectation:", failure is None, "| divisibility first fails at arity", failure[0])
print("  (so cumulants of this expectation stop existing at three points,")
print("   while the factorized correlation functions remain well defined)")
