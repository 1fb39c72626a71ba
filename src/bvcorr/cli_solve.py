"""The `bvcorr solve` command: both master-equation levels, every report,
and the rendering of the solution tables.

`cli.main` imports this module only when the command runs, so `basis` and
`fmanifold` compile neither it nor `bvcorr.solver`.
"""

from __future__ import annotations

from . import retract, solver
from .cli import (
    EXIT_OK, EXIT_VIOLATION, JobSpec, hpoly_json, monomial_label, report_json,
)
from .groebner import MilnorData
from .polyalg import DescendantFamily


def hvector_json(v, labels) -> dict:
    return {labels[i]: hpoly_json(c) for i, c in v.sorted_items()}


def poly_json(p) -> list:
    out = []
    for (exp, etas), coef in p.sorted_terms():
        out.append(
            {"x": list(exp), "eta": list(etas), "coeff": hpoly_json(coef)}
        )
    return out


def _run_solve(job: JobSpec, fault: bool = False):
    mil = MilnorData(job.potential)
    r = retract.build_retract(mil)
    q = retract.quantize_retract(r, order=job.h_order)
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
        fam = DescendantFamily(job.potential)
        m_family = {}
        for n in range(2, job.n_max + 1):
            rows = {}
            for key in o.mhat[n].keys():
                label = ",".join(labels[i] for i in key)
                rows[label] = poly_json(solver.build_M0(o, n, key, fam))
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
