"""Command-line front end: parse a job, run the pipeline, emit reports.

Input is a single JSON document (schema 1) describing the potential and the
truncation orders; rationals are "p/q" strings and polynomials are lists of
[exponent-vector, coefficient] pairs.  Output ordering is fixed everywhere,
so a given job always produces identical bytes.

Exit codes: 0 all checks pass, 2 input rejected, 3 a mathematical identity
failed, 4 a resource cap was exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .errors import MasterEquationError, RetractError
from .groebner import MilnorData, NonIsolatedError
from .partitions import ArityCapError
from .polyalg import DescendantFamily, Potential
from .scalars import rat_str

EXIT_OK = 0
EXIT_REJECTED = 2
EXIT_VIOLATION = 3
EXIT_RESOURCE = 4

ARITY_HARD_CAP = 7

JOB_FIELDS_HELP = (
    "job fields: n_max is the highest arity solved (default 5); h_order is "
    "the depth of the quantized-retract self-check and of expectations; it "
    "does not change a solve (default 6); t_order is the order of the "
    "deformation series of fmanifold (default 4)"
)


class InputError(ValueError):
    pass


class JobSpec:
    """Validated job description."""

    def __init__(self, doc: dict):
        if not isinstance(doc, dict):
            raise InputError("input must be a JSON object")
        if type(doc.get("schema")) is not int or doc["schema"] != 1:
            raise InputError('input must declare "schema": 1')
        pot = doc.get("potential")
        if not isinstance(pot, dict):
            raise InputError('missing "potential" object')
        n_vars = pot.get("n_vars")
        terms = pot.get("terms")
        # type(v) is int: a JSON integer, not a bool (an int subclass)
        if type(n_vars) is not int or n_vars < 1:
            raise InputError('"n_vars" must be a positive integer')
        if not isinstance(terms, list) or not terms:
            raise InputError('"terms" must be a nonempty list')
        parsed = {}
        for item in terms:
            if not (isinstance(item, list) and len(item) == 2):
                raise InputError("each term is [exponent-vector, rational]")
            exp, coef = item
            if not isinstance(exp, list) or len(exp) != n_vars or any(
                type(e) is not int or e < 0 for e in exp
            ):
                raise InputError(f"bad exponent vector {exp!r}")
            exp = tuple(exp)
            try:
                c = Fraction(str(coef))
            except (ValueError, ZeroDivisionError) as e:
                raise InputError(f"bad rational {coef!r}") from e
            parsed[exp] = parsed.get(exp, Fraction(0)) + c
        self.potential = Potential(n_vars, parsed)
        self.n_max = doc.get("n_max", 5)
        self.h_order = doc.get("h_order", 6)
        self.t_order = doc.get("t_order", 4)
        if not all(
            type(v) is int and v >= 1 for v in (self.n_max, self.h_order, self.t_order)
        ):
            raise InputError("truncation orders must be positive integers")
        if self.n_max > ARITY_HARD_CAP or self.t_order + 2 > ARITY_HARD_CAP:
            raise ArityCapError(
                f"requested arity exceeds the cap ({ARITY_HARD_CAP})"
            )
        self.iota = doc.get("iota")
        if self.iota is not None:
            if not isinstance(self.iota, list):
                raise InputError('"iota" must be a list of rationals')
            try:
                self.iota = [Fraction(str(v)) for v in self.iota]
            except (ValueError, ZeroDivisionError) as e:
                raise InputError("bad rational in iota") from e
            if not self.iota or self.iota[0] != 1:
                raise InputError("iota must start with 1 (the unit value)")
        self.outputs = doc.get("outputs")
        if self.outputs is not None:
            known = {"pi0", "mhat", "phi0", "phim1"}
            if not isinstance(self.outputs, list) or not all(
                isinstance(o, str) and o in known for o in self.outputs
            ):
                raise InputError(f'"outputs" must be a sublist of {sorted(known)}')


def load_job(path: str) -> JobSpec:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from e
    except ValueError as e:  # JSONDecodeError, bad UTF-8, oversized ints
        raise InputError(f"invalid JSON: {e}") from e
    return JobSpec(doc)


# -- serialization -------------


def hpoly_json(p) -> dict:
    return {f"h^{k}": rat_str(v) for k, v in sorted(p.c.items())}


def monomial_label(exp, n_vars: int) -> str:
    if not any(exp):
        return "1"
    bits = []
    for i, e in enumerate(exp):
        name = "x" if n_vars == 1 else f"x{i}"
        bits.append(name if e == 1 else f"{name}^{e}")
    return "*".join(bits)


def report_json(rep) -> dict:
    out = {"checks": rep.checks, "ok": rep.ok}
    if rep.violations:
        v = rep.violations[0]
        out["first_failure"] = {
            "arity": v.arity,
            "where": list(map(str, v.where)),
            "what": str(v.residual),
        }
    return out


def cmd_basis(job: JobSpec, sink: list) -> tuple[int, dict]:
    mil = MilnorData(job.potential)
    labels = [monomial_label(e, mil.n_vars) for e in mil.basis]
    sink.append(f"dimension {mil.dimension}")
    sink.append("basis (ghost number 0):")
    for lab in labels:
        sink.append(f"  {lab}")
    bundle = {
        "command": "basis",
        "dimension": mil.dimension,
        "basis": labels,
        "ghosts": [0] * mil.dimension,
    }
    return EXIT_OK, bundle


def cmd_fmanifold(job: JobSpec, sink: list):
    # imported here so that the other commands do not load these modules
    from . import fmanifold
    from .retract import build_retract, quantize_retract
    from .levelzero import mhat_from_pi0, solve_level_zero

    need = job.t_order + 2
    job_n = max(job.n_max, need)
    mil = MilnorData(job.potential)
    r = build_retract(mil)
    q = quantize_retract(r, order=job.h_order + job.t_order)
    z = solve_level_zero(q, job_n)
    # mhat_n = (-1)^n [h^(n-2)] pi0_n: no level-one solve, and so none of its
    # identity checks; `bvcorr solve` runs them
    ms = mhat_from_pi0(z.pi0, job_n)
    labels = [monomial_label(e, mil.n_vars) for e in mil.basis]
    A = fmanifold.structure_constants(ms, job.t_order)
    sink.append("structure constants A[a,b]^c:")
    for a in range(z.dim):
        for b in range(z.dim):
            for c in range(z.dim):
                s = A[(a, b)][c]
                if s.is_zero():
                    continue
                sink.append(f"  A[{labels[a]},{labels[b]}]^[{labels[c]}] = {s}")
    w = fmanifold.wdvv_report(A, job.t_order)
    sink.append(f"check wdvv: {'pass' if w.ok else 'FAIL'} ({w.checks} instances)")
    if not w.ok:
        v = w.violations[0]
        sink.append(f"  witness: {v.where}: {v.residual}")
    fc = fmanifold.FlatCoords(z, job.t_order)
    frep, sign = fmanifold.flat_coordinate_report(fc, A, job.t_order)
    sink.append("flat coordinates That^c:")
    for c in range(z.dim):
        sink.append(f"  That^[{labels[c]}] = {fc.T[c]}")
    sink.append(
        f"check flat-coordinates: {'pass' if frep.ok else 'FAIL'} ({frep.checks} instances)"
    )
    sink.append(f"flat-coordinate PDE sign resolution: {sign}")
    iota = job.iota if job.iota is not None else [1] + [0] * (z.dim - 1)
    if len(iota) != z.dim:
        raise InputError(
            f"iota must list {z.dim} values for this potential"
        )
    # Expectation(q, iota).apply_iota without slinf; JobSpec checked iota(1_H) = 1
    zc, zt, zrep = fmanifold.generating_function(lambda v: v.pair(iota), fc)
    sink.append(f"Z = {zc}")
    sink.append(
        f"check generating-function: {'pass' if zrep.ok else 'FAIL'} ({zrep.checks} instances)"
    )
    fam = DescendantFamily(job.potential)
    mc = fmanifold.theta_mc_report(z, fam, min(job.t_order, 3))
    sink.append(
        f"check maurer-cartan: {'pass' if mc.ok else 'FAIL'} ({mc.checks} instances)"
    )
    ok = w.ok and frep.ok and zrep.ok and mc.ok and sign != "neither"
    bundle = {
        "command": "fmanifold",
        "pde_sign": sign,
        "reports": {
            "wdvv": report_json(w),
            "flat_coordinates": report_json(frep),
            "generating_function": report_json(zrep),
            "maurer_cartan": report_json(mc),
        },
        "structure_constants": {
            f"{labels[a]},{labels[b]}": {
                labels[c]: {
                    ",".join(map(str, e)): hpoly_json(v)
                    for e, v in A[(a, b)][c].sorted_terms()
                }
                for c in range(z.dim)
            }
            for a in range(z.dim)
            for b in range(z.dim)
        },
    }
    return (EXIT_OK if ok else EXIT_VIOLATION), bundle


def cmd_selftest(sink: list):
    from .acceptance import run_selftest

    out, ok = run_selftest()
    sink.extend(out.splitlines())
    bundle = {"command": "selftest", "ok": ok, "lines": out.splitlines()}
    return (EXIT_OK if ok else EXIT_VIOLATION), bundle


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bvcorr",
        description=(
            "exact quantum correlation algebras of polynomial BV theories"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs_input in (
        ("basis", True),
        ("solve", True),
        ("fmanifold", True),
        ("selftest", False),
    ):
        p = sub.add_parser(name, epilog=JOB_FIELDS_HELP if needs_input else None)
        p.add_argument("--input", required=needs_input, help="job JSON file")
        p.add_argument("--json", dest="json_path", help="write the full bundle")
        if name == "solve":
            p.add_argument("--audit", action="store_true", help="dump intermediates")
            p.add_argument(
                "--inject-fault", action="store_true", help=argparse.SUPPRESS
            )
    args = parser.parse_args(argv)
    sink: list = []
    try:
        if args.command == "selftest":
            code, bundle = cmd_selftest(sink)
        else:
            job = load_job(args.input)
            if args.command == "basis":
                code, bundle = cmd_basis(job, sink)
            elif args.command == "solve":
                # imported here so that the other commands do not load the solver
                from .cli_solve import cmd_solve

                code, bundle = cmd_solve(job, sink, args.audit, args.inject_fault)
            else:
                code, bundle = cmd_fmanifold(job, sink)
    except (InputError, NonIsolatedError, RetractError) as e:
        print(f"input rejected: {e}", file=sys.stderr)
        return EXIT_REJECTED
    except MasterEquationError as e:
        print(f"identity violated: {e}", file=sys.stderr)
        return EXIT_VIOLATION
    except ArityCapError as e:
        print(f"resource cap: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    for line in sink:
        print(line)
    if args.json_path:
        with open(args.json_path, "w") as fh:
            json.dump(bundle, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return code


if __name__ == "__main__":
    # under `python -m bvcorr.cli`, `bvcorr.cli_solve` imports this module
    # rather than compiling and running a second copy of it
    sys.modules.setdefault("bvcorr.cli", sys.modules[__name__])
    sys.exit(main())
