"""Verifying homotopy Lie structures two ways.

A finite table of graded-symmetric brackets either satisfies the coherence
relations or it does not; we check with direct sums over unshuffles and,
independently, by squaring the coderivation the table induces on symmetric
words.  The two oracles agree, including on where a corrupted table first
breaks.
"""

from bvcorr import (
    GradedBasisElement,
    SLInfStructure,
    coderivation_square,
    verify_sl_infinity,
)
from bvcorr.hspace import HVector

print("A three-step chain with differential d(c) = b, d(b) = a:")
basis = [
    GradedBasisElement("a", 0),
    GradedBasisElement("b", -1),
    GradedBasisElement("c", -2),
]
S = SLInfStructure(basis)
S.set_op(1, (2,), HVector.basis(1))
S.set_op(1, (1,), HVector.basis(0))
r1 = verify_sl_infinity(S, 4)
r2 = coderivation_square(S, 4)
print("  relations:", "pass" if r1.ok else f"fail at arity {r1.first_failure_arity()}")
print("  coderivation square:", "pass" if r2.ok else f"fail at word length {r2.first_failure_arity()}")
print("  (d^2(c) = a, so both oracles object at arity 1)")
print()

print("Dropping d(b) repairs it:")
T = SLInfStructure(basis)
T.set_op(1, (2,), HVector.basis(1))
print("  relations:", verify_sl_infinity(T, 4).ok,
      "| coderivation square:", coderivation_square(T, 4).ok)
