"""The `bvcorr fmanifold` command: structure constants, WDVV, flat
coordinates, the generating function and the Maurer-Cartan check.

`cli.main` imports this module only when the command runs, so `basis` and
`solve` compile neither it nor `bvcorr.fmanifold`.  Level zero is read
through the `levelzero` module when the command runs, where a caller may
have replaced it.
"""

from __future__ import annotations

from . import fmanifold, levelzero
from .cli import (
    EXIT_OK, EXIT_VIOLATION, InputError, JobSpec, hpoly_json, monomial_label,
    report_json,
)
from .groebner import MilnorData
from .polyalg import DescendantFamily
from .retract import build_retract, quantize_retract


def cmd_fmanifold(job: JobSpec, sink: list):
    need = job.t_order + 2
    job_n = max(job.n_max, need)
    mil = MilnorData(job.potential)
    r = build_retract(mil)
    q = quantize_retract(r, order=job.h_order + job.t_order)
    z = levelzero.solve_level_zero(q, job_n)
    # mhat_n = (-1)^n [h^(n-2)] pi0_n: no level-one solve, and so none of its
    # identity checks; `bvcorr solve` runs them
    ms = levelzero.mhat_from_pi0(z.pi0, job_n)
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
