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


def hvector_json(v, labels) -> dict:
    return {labels[i]: hpoly_json(c) for i, c in v.sorted_items()}


def poly_json(p) -> list:
    out = []
    for (exp, etas), coef in p.sorted_terms():
        out.append(
            {"x": list(exp), "eta": list(etas), "coeff": hpoly_json(coef)}
        )
    return out


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


def _run_solve(job: JobSpec, fault: bool = False):
    # imported here so that `basis` loads neither module
    from . import solver
    from .retract import build_retract, quantize_retract

    mil = MilnorData(job.potential)
    r = build_retract(mil)
    q = quantize_retract(r, order=job.h_order)
    z = solver.solve_level_zero(q, job.n_max)
    o = solver.solve_level_one(q, z, job.n_max)
    if fault:
        # test hook: corrupt one solver value (add the unit), then re-verify
        n = min(3, job.n_max)
        key = next(iter(sorted(o.mhat[n].values)))
        o.mhat[n].values[key] = o.mhat[n].values[key] + q.unit()
    reports = {
        "level-zero": solver.level_zero_report(z),
        "level-one": solver.level_one_report(o),
        "M-identity": solver.verify_M_identity(q, z, o, job.n_max),
    }
    ms = solver.mhat_symmetric(o)
    reports["unity"] = solver.mhat_unity_report(ms, job.n_max)
    spect = max(0, min(3, job.n_max - 3))
    reports["associativity"] = solver.generalized_associativity_report(ms, spect)
    pi = solver.reconstruct_pi(ms, job.n_max)
    recon_ok = all(
        pi[n].get(key) == z.pi0[n].get(key)
        for n in range(1, job.n_max + 1)
        for key in z.pi0[n].keys()
    )
    return mil, q, z, o, ms, reports, recon_ok


def _table_lines(title, table_by_arity, labels, render_value, sink):
    sink.append(f"{title}:")
    for n in sorted(table_by_arity):
        t = table_by_arity[n]
        for key in t.keys():
            label = ",".join(labels[i] for i in key)
            sink.append(f"  [{label}] -> {render_value(t.get(key))}")


def cmd_solve(job: JobSpec, sink: list, audit: bool, fault: bool = False):
    mil, q, z, o, ms, reports, recon_ok = _run_solve(job, fault)
    labels = [monomial_label(e, mil.n_vars) for e in mil.basis]
    # the quantized retract exists only when its anomaly vanishes
    sink.append(f"dimension {mil.dimension}; anomaly-free: True")

    def hv(v):
        if v.is_zero():
            return "0"
        return " + ".join(f"({c})*[{labels[i]}]" for i, c in v.sorted_items())

    wanted = set(job.outputs) if job.outputs is not None else {
        "pi0", "mhat", "phi0", "phim1"
    }
    if "pi0" in wanted:
        _table_lines("pi0 (iterated correlation products)", z.pi0, labels, hv, sink)
        for n in sorted(z.pi0):
            if n < 2:
                continue
            top = max(
                (z.pi0[n].get(k).h_degree() for k in z.pi0[n].keys()),
                default=-1,
            )
            sink.append(f"  arity {n}: max h-degree {max(top, 0)} (bound {n - 2})")
    if "mhat" in wanted:
        _table_lines("mhat (on-shell products)", o.mhat, labels, hv, sink)
    if "phi0" in wanted:
        _table_lines("phi0 (off-shell lifts)", z.phi0, labels, repr, sink)
    if "phim1" in wanted:
        _table_lines("phim1 (product homotopies)", o.phim1, labels, repr, sink)
    ok = True
    for name in sorted(reports):
        rep = reports[name]
        status = "pass" if rep.ok else "FAIL"
        sink.append(f"check {name}: {status} ({rep.checks} instances)")
        if not rep.ok:
            ok = False
            v = rep.violations[0]
            sink.append(f"  witness: arity {v.arity} at {v.where}: {v.residual}")
    sink.append(f"check pi0-reconstruction: {'pass' if recon_ok else 'FAIL'}")
    ok = ok and recon_ok
    bundle = {
        "command": "solve",
        "dimension": mil.dimension,
        "anomaly_free": True,
        "reports": {k: report_json(v) for k, v in sorted(reports.items())},
        "pi0_reconstruction_ok": recon_ok,
        "tables": {
            "pi0": _json_family(z.pi0, labels),
            "mhat": _json_family(o.mhat, labels),
        },
    }
    if audit:
        from .solver import build_M0

        fam = DescendantFamily(job.potential)
        m_family = {}
        for n in range(2, job.n_max + 1):
            rows = {}
            for key in o.mhat[n].keys():
                label = ",".join(labels[i] for i in key)
                rows[label] = poly_json(build_M0(o, n, key, fam))
            m_family[str(n)] = rows
        l_family = {}
        for n in range(1, job.n_max + 1):
            rows = {}
            for key in z.phi0[n].keys():
                label = ",".join(labels[i] for i in key)
                rows[label] = poly_json(-q.Khat(z.phi0[n].get(key)))
            l_family[str(n)] = rows
        bundle["audit"] = {
            "omega0": _json_family(z.omega0, labels, value=poly_json),
            "varpi1": _json_family(z.varpi1, labels),
            "omega1": _json_family(o.omega1, labels, value=poly_json),
            "varpi0": _json_family(o.varpi0, labels),
            "eta1": _json_family(z.eta1, labels, value=poly_json),
            "eta2": _json_family(o.eta2, labels, value=poly_json),
            "M0": m_family,
            "L": l_family,
        }
    return (EXIT_OK if ok else EXIT_VIOLATION), bundle


def _json_family(family, labels, value=None):
    """JSON rows of a family of tables: HVector values, unless `value` renders them."""
    out = {}
    for n in sorted(family):
        t = family[n]
        rows = {}
        for key in t.keys():
            label = ",".join(labels[i] for i in key)
            val = t.get(key)
            rows[label] = hvector_json(val, labels) if value is None else value(val)
        out[str(n)] = rows
    return out


def cmd_fmanifold(job: JobSpec, sink: list):
    # imported here so that the other commands do not load these modules
    from . import fmanifold
    from .retract import build_retract, quantize_retract
    from .solver import mhat_from_pi0, solve_level_zero

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
    sys.exit(main())
