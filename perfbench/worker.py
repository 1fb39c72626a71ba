"""Run one benchmark job in a fresh process, the way a user runs bvcorr.

    python3 perfbench/worker.py KIND INPUT REPORT [TRACE]

KIND is a `bvcorr` subcommand followed by its flags (`solve`,
`solve --inject-fault`, `fmanifold`, `basis`) or a library job (`ell`,
`slinf`, `milnor`).  INPUT is the job file the program reads.  The job's
output goes to stdout; REPORT receives the process marks (monotonic clock,
shared with the parent) and the peak resident set.  With TRACE the layer
entry points are wrapped and the spans are written there at exit.

Set-up ends when the job is parsed and the first layer call is about to
begin: for CLI jobs, when `bvcorr.cli.load_job` returns.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from fractions import Fraction


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def poly_rows(p) -> list:
    """A PolyElement as sorted [x-exponents, etas, {h-power: coefficient}] rows."""
    return [
        [list(exp), list(etas), {str(k): str(v) for k, v in sorted(c.c.items())}]
        for (exp, etas), c in p.sorted_terms()
    ]


def xpoly_rows(p: dict) -> list:
    """An x-polynomial {exponents: Fraction} as sorted [exponents, coefficient] rows."""
    return [[list(e), str(c)] for e, c in sorted(p.items())]


def potential(doc: dict):
    """A Potential from its job-file form {"n_vars": n, "terms": [[exp, "p/q"], ...]}."""
    from bvcorr.polyalg import Potential

    return Potential(doc["n_vars"], {tuple(e): Fraction(c) for e, c in doc["terms"]})


def element(terms: list, n_vars: int = 1):
    """A PolyElement from [[x-exponents, etas, "p/q"], ...]."""
    from bvcorr.polyalg import PolyElement

    return PolyElement(n_vars, {(tuple(e), tuple(etas)): Fraction(c) for e, etas, c in terms})


def run_ell(doc: dict, marks: dict) -> int:
    from bvcorr import polyalg

    cases = [
        (potential(case["potential"]), [[element(t) for t in tup] for tup in case["tuples"]])
        for case in doc["cases"]
    ]
    marks["setup_end"] = _clock()
    for pot, tuples in cases:
        fam = polyalg.DescendantFamily(pot)
        for tup in tuples:
            val = fam.ell(len(tup), tup)
            print(json.dumps({"n": len(tup), "ell": poly_rows(val)}, sort_keys=True))
    return 0


def sub_structure(n_vars: int, coeffs, scale, corrupt):
    """The closed descendant sub-structure of S = sum c_i x_i on x-degree <= 1.

    Basis: 1, x_i, and each of them times every nonempty eta word, with ghost
    number minus the eta count.  ell_1 and ell_2 come from the descendant
    family (ell_2 rescaled); `corrupt` = [kind, i, t] shifts one constant.
    """
    from bvcorr import polyalg
    from bvcorr.hspace import HVector, tuples_with_repetition
    from bvcorr.scalars import HPoly
    from bvcorr.slinf import GradedBasisElement, SLInfStructure

    unit = (0,) * n_vars
    xs = [unit] + [tuple(int(j == i) for j in range(n_vars)) for i in range(n_vars)]
    words = [()]
    for i in range(n_vars):
        words += [w + (i,) for w in words]
    words.sort(key=lambda w: (len(w), w))
    keys = [(x, w) for w in words for x in xs]
    index = {k: i for i, k in enumerate(keys)}
    ghosts = [-len(w) for _, w in keys]
    elems = [polyalg.PolyElement(n_vars, {k: 1}) for k in keys]
    pot = polyalg.Potential(n_vars, {xs[i + 1]: Fraction(c) for i, c in enumerate(coeffs)})
    fam = polyalg.DescendantFamily(pot)

    def to_vec(p):
        return HVector({index[k]: c for k, c in p.terms.items()})

    basis = [GradedBasisElement(f"{x}{w}", g) for (x, w), g in zip(keys, ghosts)]
    S = SLInfStructure(basis, unit=index[(unit, ())])
    for n in (1, 2):
        for idxs in tuples_with_repetition(len(keys), n):
            if any(ghosts[i] % 2 and idxs.count(i) > 1 for i in idxs):
                continue
            val = fam.ell(n, [elems[i] for i in idxs])
            if n == 2:
                val = val.scale(Fraction(scale))
            S.set_op(n, idxs, to_vec(val))
    if corrupt is not None:
        kind, i, t = corrupt
        eta_i, x_i = (i,), xs[i + 1]
        idxs, target = {
            "ell1-eta": ((index[(unit, eta_i)],), index[(unit, ())]),
            "ell1-xeta": ((index[(x_i, eta_i)],), index[(x_i, ())]),
            "ell2": ((index[(unit, eta_i)], index[(x_i, eta_i)]), index[(unit, eta_i)]),
        }[kind]
        S.set_op(len(idxs), idxs, S.op(idxs) + HVector({target: HPoly.const(Fraction(t))}))
    return S


def run_slinf(doc: dict, marks: dict) -> int:
    from bvcorr import slinf

    marks["setup_end"] = _clock()
    for k, st in enumerate(doc["structures"]):
        S = sub_structure(doc["n_vars"], st["coeffs"], st["scale"], st["corrupt"])
        r1 = slinf.verify_sl_infinity(S, doc["n_max"])
        r2 = slinf.coderivation_square(S, doc["n_max"])
        print(json.dumps({
            "structure": k,
            "relations": [r1.ok, r1.checks, r1.first_failure_arity(kind="relation")],
            "coderivation": [r2.ok, r2.checks, r2.first_failure_arity()],
        }, sort_keys=True))
    return 0


def run_milnor(doc: dict, marks: dict) -> int:
    from bvcorr import groebner

    pot = potential(doc["potential"])
    polys = [{tuple(e): Fraction(c) for e, c in p} for p in doc["polys"]]
    marks["setup_end"] = _clock()
    mil = groebner.MilnorData(pot)
    print(json.dumps({"dimension": mil.dimension, "basis": [list(e) for e in mil.basis]}))
    for p in polys:
        print(json.dumps({
            "nf": xpoly_rows(mil.normal_form(p)),
            "witnesses": [xpoly_rows(w) for w in mil.witnesses(p)],
        }))
    return 0


LIBRARY_JOBS = {"ell": run_ell, "slinf": run_slinf, "milnor": run_milnor}


def main(argv: list) -> int:
    kind, input_path, report_path = argv[0].split(), argv[1], argv[2]
    trace_path = argv[3] if len(argv) > 3 else None
    marks: dict = {}
    if kind[0] in LIBRARY_JOBS:
        import bvcorr  # noqa: F401  (the import is part of set-up)

        with open(input_path) as fh:
            doc = json.load(fh)
        run = lambda: LIBRARY_JOBS[kind[0]](doc, marks)  # noqa: E731
    else:
        from bvcorr import cli

        load_job = cli.load_job

        def timed_load_job(path):
            spec = load_job(path)
            marks["setup_end"] = _clock()
            return spec

        cli.load_job = timed_load_job
        run = lambda: cli.main(kind + ["--input", input_path])  # noqa: E731
    tracer = None
    if trace_path:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    code = run()
    sys.stdout.flush()
    marks["main_end"] = _clock()
    marks["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.write(trace_path)
    with open(report_path, "w") as fh:
        json.dump(marks, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
