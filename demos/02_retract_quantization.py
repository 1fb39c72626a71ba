"""Classical cohomology, the off-to-on-shell retract, and its quantization.

For an isolated singularity the classical cohomology of (C, K) is the
Milnor ring.  We split the complex with (f, h, s), quantize it in h by the
homological perturbation lemma.  Delta kills every chosen representative,
so there is no anomaly and the quantized retract keeps f unchanged;
quantization checks this and rejects a representative that Delta does not
kill.
"""

from bvcorr import (
    PolyElement,
    Potential,
    build_retract,
    milnor_basis,
    quantize_retract,
)
from bvcorr.hspace import HVector
from bvcorr.retract import RetractError

for k in (2, 3, 4):
    pot = Potential.a_k(k)
    mil = milnor_basis(pot)
    print(f"A{k}  (S = x^{k+1}/{k+1}):  Milnor ring dimension {mil.dimension}")
    print("  basis:", [m for m in mil.basis])

pot = Potential.a_k(3)
r = build_retract(milnor_basis(pot))
x2 = PolyElement.x(0, 1, 2)
x4 = PolyElement.x(0, 1, 4)
print()
print("The splitting on A3 (S = x^4/4, Jacobian ideal (x^3)):")
print("  h(x^2) =", r.h(x2), "  # x^2 is a basis class")
print("  h(x^4) =", r.h(x4), "  # x^4 = x * x^3 dies")
print("  s(x^4) =", r.s(x4), "  # the division witness, worn as an eta")
print()

q = quantize_retract(r)
print("Quantization: Delta kills every representative, so fhat = f:")
print("  fhat([x^2]) =", q.fhat(HVector.basis(2)))
bad = build_retract(milnor_basis(pot))
bad.basis_elements[1] = bad.basis_elements[1] + PolyElement.x(0, 1) * PolyElement.eta(0, 1)
try:
    quantize_retract(bad)
except RetractError as e:
    print("  the representative x + x*eta is rejected:", e)
print()
print("But hhat does pick up quantum corrections:")
print("  hhat(x^4) =", q.hhat(x4), "  # = h-exact correction of the class")
print("  check: Khat(fhat v) = 0 for v = [x]:", q.Khat(q.fhat(HVector.basis(1))).is_zero())
