"""Exact computer algebra for quantum correlation algebras of polynomial BV theories."""

from .groebner import MilnorData, NonIsolatedError
from .polyalg import (
    DescendantFamily,
    PolyElement,
    Potential,
    bv_bracket,
    classical_K,
    delta_op,
    quantum_K,
)
from .retract import (
    PerturbedRetract,
    QuantizedRetract,
    Retract,
    RetractError,
    build_retract,
    compare_retracts,
    nabla,
    quantize_retract,
)
from .scalars import HPoly, NotDivisibleError
from .slinf import (
    Expectation,
    GradedBasisElement,
    SLInfStructure,
    coderivation_square,
    compose_morphisms,
    correlators,
    descendant_morphism,
    minimal_model,
    moment_cumulant_report,
    probe_descendant,
    verify_sl_infinity,
)
from .solver import (
    LevelOneSolution,
    LevelZeroSolution,
    MasterEquationError,
    mhat_symmetric,
    reconstruct_pi,
    solve_level_one,
    solve_level_zero,
    verify_M_identity,
)


def milnor_basis(pot: Potential) -> MilnorData:
    """Standard-monomial basis of the Jacobian quotient of a potential."""
    return MilnorData(pot)


__all__ = [
    "DescendantFamily",
    "Expectation",
    "GradedBasisElement",
    "HPoly",
    "LevelOneSolution",
    "LevelZeroSolution",
    "MasterEquationError",
    "MilnorData",
    "NonIsolatedError",
    "NotDivisibleError",
    "PerturbedRetract",
    "PolyElement",
    "Potential",
    "QuantizedRetract",
    "Retract",
    "RetractError",
    "SLInfStructure",
    "build_retract",
    "bv_bracket",
    "classical_K",
    "coderivation_square",
    "compare_retracts",
    "compose_morphisms",
    "correlators",
    "delta_op",
    "descendant_morphism",
    "milnor_basis",
    "minimal_model",
    "mhat_symmetric",
    "moment_cumulant_report",
    "nabla",
    "probe_descendant",
    "quantize_retract",
    "quantum_K",
    "reconstruct_pi",
    "solve_level_one",
    "solve_level_zero",
    "verify_M_identity",
    "verify_sl_infinity",
]
