"""Exact computer algebra for quantum correlation algebras of polynomial BV theories.

The public names load on first access (PEP 562): `import bvcorr` imports no
submodule, and `bvcorr.solve_level_zero` imports only what level zero needs.
Each job thus compiles only the modules it runs, which matters when no
bytecode is cached.
"""

import importlib

_EXPORTS = {
    "errors": ("MasterEquationError", "RetractError"),
    "gauge": ("PerturbedRetract", "compare_retracts"),
    "groebner": ("MilnorData", "NonIsolatedError"),
    "levelzero": ("LevelZeroSolution", "solve_level_zero"),
    "polyalg": (
        "DescendantFamily",
        "PolyElement",
        "Potential",
        "bv_bracket",
        "classical_K",
        "delta_op",
        "quantum_K",
    ),
    "retract": (
        "QuantizedRetract",
        "Retract",
        "build_retract",
        "nabla",
        "quantize_retract",
    ),
    "scalars": ("HPoly", "NotDivisibleError"),
    "slinf": (
        "Expectation",
        "GradedBasisElement",
        "SLInfStructure",
        "coderivation_square",
        "compose_morphisms",
        "correlators",
        "descendant_morphism",
        "moment_cumulant_report",
        "probe_descendant",
        "verify_sl_infinity",
    ),
    "solver": (
        "LevelOneSolution",
        "mhat_symmetric",
        "reconstruct_pi",
        "solve_level_one",
        "verify_M_identity",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_HOME, "milnor_basis"])


def milnor_basis(pot: "Potential") -> "MilnorData":
    """Standard-monomial basis of the Jacobian quotient of a potential."""
    from .groebner import MilnorData

    return MilnorData(pot)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
