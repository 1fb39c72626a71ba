"""Seeded job generator for the three benchmark workloads.

Every job is a plain dict:

    {"name": str, "kind": "cli" | "ell" | "slinf" | "milnor",
     "command": CLI subcommand (cli jobs only),
     "input": what the program sees (a job JSON document or call inputs),
     "oracle": facts known from the construction, used only by the gate}

The generator never calls the library, so a change to the library cannot
change the jobs.  The shape of every job is fixed per workload and slot:
its orders, which monomials and eta factors each input has, which leading
form and which corruption it uses.  The seed picks only the rational
coefficients, so passes built from different seeds do the same work and
every count of the traced run is the same for every seed.

Jobs are kept at a second or less each, so that a run of half a minute
makes six passes or more and the medians over passes in run.py rest on that
many.
"""

from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = ("solve-arity", "fmanifold-horder", "structure-oracles")

# (mu, n_max) per solve job: the partition sums grow with Bell(n_max) and
# with mu, and these three cost about the same.
SOLVE_SLOTS = ((2, 6), (3, 5), (4, 4))
SOLVE_H_ORDER = 6
# (mu, h_order, t_order) per fmanifold job; the retract is quantized at
# h_order + t_order = 8.
FMANIFOLD_SLOTS = ((2, 4, 4), (3, 5, 3))
FMANIFOLD_N_MAX = 4

# Weighted-homogeneous leading forms: (exponent vectors, integer weights,
# weighted degree).  E_6 = x^3 + y^4, E_8 = x^3 + y^5, x^4 + y^4,
# D_5 = x^2 y + y^4, D_6 = x^2 y + y^5, E_7 = x^3 + x y^3 and x^2 + y^3 + z^3.
LEADING_FORMS = (
    (((3, 0), (0, 4)), (4, 3), 12),
    (((3, 0), (0, 5)), (5, 3), 15),
    (((4, 0), (0, 4)), (1, 1), 4),
    (((2, 1), (0, 4)), (3, 2), 8),
    (((2, 1), (0, 5)), (2, 1), 5),
    (((3, 0), (1, 3)), (3, 2), 9),
    (((2, 0, 0), (0, 3, 0), (0, 0, 3)), (3, 2, 2), 6),
)


def _rat(rng: random.Random, top: int = 4, den: int = 5) -> str:
    num = rng.choice([k for k in range(-top, top + 1) if k])
    return str(Fraction(num, rng.randint(1, den)))


def _one_variable_potential(rng: random.Random, mu: int) -> dict:
    """a x^(mu+1) + b x^(mu-1) + c x with seeded nonzero a, b, c.

    The exponents are fixed so that every seed gives tables of the same
    shape and about the same cost; the seed moves only the rationals.
    """
    terms = [[[mu + 1], str(Fraction(rng.randint(1, 3), mu + 1))]]
    for e in sorted({mu - 1, 1}, reverse=True):
        terms.append([[e], _rat(rng)])
    return {"n_vars": 1, "terms": terms}


def _cli_job(name, command, potential, oracle, **orders) -> dict:
    doc = {"schema": 1, "potential": potential}
    doc.update(orders)
    return {"name": name, "kind": "cli", "command": command, "input": doc,
            "oracle": oracle}


def solve_arity(rng: random.Random) -> list:
    return [
        _cli_job(f"solve-{i}-mu{mu}-n{n_max}", "solve",
                 _one_variable_potential(rng, mu), {"mu": mu},
                 n_max=n_max, h_order=SOLVE_H_ORDER)
        for i, (mu, n_max) in enumerate(SOLVE_SLOTS)
    ]


def fmanifold_horder(rng: random.Random) -> list:
    return [
        _cli_job(f"fmanifold-{i}-mu{mu}", "fmanifold",
                 _one_variable_potential(rng, mu), {"mu": mu, "ibp_order": h_order},
                 n_max=FMANIFOLD_N_MAX, h_order=h_order, t_order=t_order)
        for i, (mu, h_order, t_order) in enumerate(FMANIFOLD_SLOTS)
    ]


# -- structure-oracles -------------


def _homogeneous(rng: random.Random, degs: tuple, odd: bool) -> list:
    """Terms x^d (eta) for the given degrees, sharing a ghost number, as job data."""
    etas = [0] if odd else []
    return [[[d], etas, _rat(rng, 3, 3)] for d in degs]


# (arity, tuples) of the descendant brackets per potential
ELL_ARITIES = ((2, 4), (3, 3), (4, 2), (5, 1), (6, 1))


def _ell_job(rng: random.Random, name: str, potentials: list) -> dict:
    """Descendant brackets at arities 2..6, each tuple with an odd argument.

    Argument j of tuple k is odd when j = 0 or j + k is odd, and has the
    degrees (j + k) mod 3 and that plus 2, the first argument only the first.
    """
    cases = []
    for potential in potentials:
        tuples = []
        for n, count in ELL_ARITIES:
            for k in range(count):
                tuples.append([
                    _homogeneous(rng, ((j + k) % 3, (j + k) % 3 + 2)[: 1 if j == 0 else 2],
                                 j == 0 or (j + k) % 2 == 1)
                    for j in range(n)
                ])
        cases.append({"potential": potential, "tuples": tuples})
    return {"name": name, "kind": "ell", "input": {"cases": cases}, "oracle": {}}


def _slinf_job(rng: random.Random, name: str, n_vars: int, n_max: int, kinds: tuple) -> dict:
    """Closed descendant sub-structures of a linear potential, plus corruptions.

    With S = sum c_i x_i the monomials of x-degree <= 1 span a subspace closed
    under Khat and the BV bracket, with odd generators eta_i.  Each corruption
    shifts one constant of the variable-i block (ell_1(eta_i), ell_1(x_i eta_i)
    or ell_2(eta_i, x_i eta_i)); every such shift breaks a relation at arity
    <= 2 because c_i != 0.  There is one valid and one corrupted structure
    per kind in `kinds`, corrupted on the last variable; the seed picks the
    constants and the shift.  The shift has denominator 7, which no constant
    of the structure has, so it never cancels a constant to zero and every
    seed gives tables of the same sparsity.
    """
    structures = []
    for kind in kinds:
        coeffs = [_rat(rng) for _ in range(n_vars)]
        scale = _rat(rng, 3, 2)
        structures.append({"coeffs": coeffs, "scale": scale, "corrupt": None})
        structures.append({"coeffs": coeffs, "scale": scale,
                           "corrupt": [kind, n_vars - 1, f"{_rat(rng, 3, 1)}/7"]})
    return {"name": name, "kind": "slinf",
            "input": {"n_vars": n_vars, "n_max": n_max,
                      "structures": structures},
            "oracle": {"valid": [s["corrupt"] is None for s in structures]}}


def _perturbed_form(rng: random.Random, form) -> tuple:
    """A leading form plus its two monomials of highest weighted degree below
    the form's, all with seeded coefficients, and its Milnor number
    prod (d - w_i) / w_i (weighted Bezout; lower-order terms keep the global
    count)."""
    exps, weights, degree = form
    terms = {e: _rat(rng, 3, 2) for e in exps}
    lower = []
    n = len(weights)

    def rec(prefix):
        if len(prefix) == n:
            w = sum(a * b for a, b in zip(prefix, weights))
            if 0 < w < degree:
                lower.append(tuple(prefix))
            return
        for k in range(degree // weights[len(prefix)] + 1):
            rec(prefix + [k])

    rec([])
    lower.sort(key=lambda e: (sum(a * b for a, b in zip(e, weights)), e))
    for e in lower[-2:]:
        terms[e] = _rat(rng, 3, 2)
    mu = 1
    for w in weights:
        mu = mu * Fraction(degree - w, w)
    potential = {"n_vars": n, "terms": [[list(e), c] for e, c in sorted(terms.items())]}
    return potential, int(mu)


# exponent vectors of the polynomials reduced in the Milnor job
MILNOR_POLYS = tuple(((k, 6 - k), ((k + 3) % 7, k % 4)) for k in range(6))


def _milnor_job(rng: random.Random, name: str, form) -> dict:
    """Milnor data of a two-variable form, then normal forms and witnesses."""
    potential, mu = _perturbed_form(rng, form)
    polys = [[[list(e), _rat(rng)] for e in sorted(exps)] for exps in MILNOR_POLYS]
    return {"name": name, "kind": "milnor",
            "input": {"potential": potential, "polys": polys},
            "oracle": {"mu": mu}}


def structure_oracles(rng: random.Random) -> list:
    ell_potentials = [(f"A{k}", {"n_vars": 1, "terms": [[[k + 1], f"1/{k + 1}"]]})
                      for k in (2, 3, 4)]
    ell_potentials.append(("mu3", _one_variable_potential(rng, 3)))
    jobs = [_ell_job(rng, f"ell-{name}", [pot]) for name, pot in ell_potentials]
    jobs += [
        _slinf_job(rng, "slinf-1var", 1, 6, ("ell1-eta", "ell1-xeta")),
        _slinf_job(rng, "slinf-2var", 2, 3, ("ell2",)),
        _milnor_job(rng, "milnor-nf", LEADING_FORMS[0]),
    ]
    # E_7 and the three-variable form x^2 + y^3 + z^3
    for i, form in enumerate(LEADING_FORMS[5:7]):
        potential, mu = _perturbed_form(rng, form)
        jobs.append(_cli_job(f"basis-{i}", "basis", potential, {"mu": mu}))
    return jobs


def make_jobs(workload: str, seed: int) -> list:
    """The jobs of one pass; the same (workload, seed) gives the same jobs."""
    rng = random.Random(f"{workload}:{seed}")
    build = {
        "solve-arity": solve_arity,
        "fmanifold-horder": fmanifold_horder,
        "structure-oracles": structure_oracles,
    }[workload]
    return build(rng)
