"""The induced F-manifold: structure constants, flat coordinates, WDVV.

Deformation coordinates t^a are dual to the Milnor basis.  The products
mhat assemble into structure constants A(t); the correlation products
assemble into the distinguished coordinates That solving an h-deformed
flatness equation; and the generating series Z of correlation functions
factors through a single linear functional.
"""

from bvcorr import Potential, build_retract, milnor_basis, quantize_retract
from bvcorr.fmanifold import (
    FlatCoords,
    flat_coordinate_report,
    generating_function,
    structure_constants,
    wdvv_report,
)
from bvcorr.slinf import Expectation
from bvcorr.solver import mhat_symmetric, solve_level_one, solve_level_zero

T_ORDER = 3
pot = Potential.a_k(3)
q = quantize_retract(build_retract(milnor_basis(pot)), order=10)
z = solve_level_zero(q, T_ORDER + 2)
o = solve_level_one(q, z, T_ORDER + 2)
ms = mhat_symmetric(o)
labels = ["1", "x", "x^2"]

A = structure_constants(ms, T_ORDER)
print(f"structure constants of A3 through t-order {T_ORDER}:")
for a in range(3):
    for b in range(a, 3):
        for c in range(3):
            s = A[(a, b)][c]
            if not s.is_zero():
                print(f"  A[{labels[a]},{labels[b]}]^{labels[c]} = {s}")
rep = wdvv_report(A, T_ORDER)
print("WDVV (unity, symmetry, potentiality, associativity):", "pass" if rep.ok else "FAIL")
print()

fc = FlatCoords(z, T_ORDER)
frep, sign = flat_coordinate_report(fc, A, T_ORDER)
print("flat coordinates:")
for c in range(3):
    print(f"  That^{labels[c]} = {fc.T[c]}")
print("PDE checks:", "pass" if frep.ok else "FAIL", "| resolved sign:", sign)
print("(h d_a d_b That + A_ab^r d_r That = 0 is the sign that holds)")
print()

expect = Expectation(q, [1, 0, 0])
zc, zt, zrep = generating_function(expect.apply_iota, fc)
print("generating series of correlation functions (iota = coefficient of [1]):")
print("  Z =", zc)
print("dual-route equality and -h d_0 Z = Z:", "pass" if zrep.ok else "FAIL")
