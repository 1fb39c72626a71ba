"""Solving the level-zero and level-one master equations on A3.

The canonical solution produces the iterated correlation products pi0, the
homotopies eta1, and the distinguished lifts phi0; level one extracts the
h-independent products mhat that generate everything back.
"""

from bvcorr import Potential, build_retract, milnor_basis, quantize_retract
from bvcorr.solver import (
    mhat_symmetric,
    reconstruct_pi,
    solve_level_one,
    solve_level_zero,
)

pot = Potential.a_k(3)
q = quantize_retract(build_retract(milnor_basis(pot)))
z = solve_level_zero(q, 5)
o = solve_level_one(q, z, 5)
labels = ["1", "x", "x^2"]


def show(v):
    if v.is_zero():
        return "0"
    return " + ".join(f"({c})[{labels[i]}]" for i, c in v.sorted_items())


print("Level zero on A3 (basis 1, x, x^2); defining identities verified in-solve.")
print("two-point products pi0_2:")
for key in z.pi0[2].keys():
    print("  pi0(", ",".join(labels[i] for i in key), ") =", show(z.pi0[2].get(key)))
print()
print("note pi0_2(x^2, x^2) = 0 even though f(x^2) f(x^2) = x^4 is not exact:")
print("  the h-correction eta1_2(x^2,x^2) =", z.eta1[2].get((2, 2)))
print("  and the lift phi0_2(x^2,x^2) =", z.phi0[2].get((2, 2)))
print()

ms = mhat_symmetric(o)
print("level-one products mhat (h-independent):")
for n in (2, 3):
    for key in ms[n].keys():
        val = ms[n].get(key)
        if not val.is_zero():
            print(f"  mhat_{n}(", ",".join(labels[i] for i in key), ") =", show(val))
print()

print("mhat determines pi0 recursively; checking a five-point product:")
pi = reconstruct_pi(ms, 5)
key = (1, 1, 1, 1, 1)
print("  solver pi0_5(x,..,x)        =", show(z.pi0[5].get(key)))
print("  reconstructed from mhat     =", show(pi[5].get(key)))
