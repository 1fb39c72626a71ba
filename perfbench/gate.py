"""Correctness gate: runs after the timed region and decides which job runs failed.

A job run fails when it exits non-zero, prints a failing `check` line,
differs from the other runs of the same job or from the recorded output of
the default seed, or fails an oracle that does not go through the code path
under test:

- one variable: mu = deg S - 1; several variables: the weighted Bezout count
  prod (d - w_i) / w_i of the weighted-homogeneous leading form;
- ell_2 = bv_bracket and ell_n = 0 for n >= 3 (a BV algebra's descendants);
- the two sL-infinity oracles agree on the verdict and on the first failing
  arity; valid structures pass and corrupted ones fail;
- p - nf(p) = sum_i w_i dS/dx_i for the division witnesses w_i, with nf(p)
  supported on the standard monomials (recomputed here with plain dicts);
- the integration-by-parts moment tower <x^n S'(x)> = n h <x^(n-1)> of the
  canonical expectation of every fmanifold potential.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from worker import element, poly_rows, potential

CHECK_LINE = re.compile(r"^check [\w-]+: (pass|FAIL)")


def _cli_failures(job: dict, stdout: str) -> list:
    lines = stdout.splitlines()
    mu = job["oracle"]["mu"]
    out = []
    command = job["command"]
    if command in ("solve", "fmanifold"):
        checks = [CHECK_LINE.match(line) for line in lines]
        checks = [m.group(1) for m in checks if m]
        if not checks:
            out.append("no check lines")
        if any(c != "pass" for c in checks) or any("FAIL" in line for line in lines):
            out.append("a check failed")
    if command == "solve":
        dims = [line for line in lines if line.startswith("dimension ")]
        if not dims or not dims[0].startswith(f"dimension {mu};"):
            out.append(f"Milnor number differs from deg S - 1 = {mu}")
    elif command == "fmanifold":
        if sum(line.startswith("  That^[") for line in lines) != mu:
            out.append(f"flat coordinate count differs from mu = {mu}")
    elif command == "basis":
        if not lines or lines[0] != f"dimension {mu}" or len(lines) != mu + 2:
            out.append(f"dimension differs from the weighted Bezout count {mu}")
    return out


def _ell_failures(job: dict, stdout: str) -> list:
    from bvcorr.polyalg import bv_bracket

    rows = [json.loads(line) for line in stdout.splitlines()]
    tuples = [tup for case in job["input"]["cases"] for tup in case["tuples"]]
    if len(rows) != len(tuples):
        return ["wrong number of results"]
    for tup, row in zip(tuples, rows):
        if len(tup) == 2:
            want = poly_rows(bv_bracket(element(tup[0]), element(tup[1])))
        else:
            want = []
        if row["ell"] != want:
            return [f"ell_{len(tup)} differs from the BV oracle"]
    return []


def _slinf_failures(job: dict, stdout: str) -> list:
    rows = [json.loads(line) for line in stdout.splitlines()]
    valid = job["oracle"]["valid"]
    if len(rows) != len(valid):
        return ["wrong number of results"]
    for ok, row in zip(valid, rows):
        (r_ok, _, r_first), (c_ok, _, c_first) = row["relations"], row["coderivation"]
        if r_ok != ok or c_ok != ok:
            return [f"structure {row['structure']}: verdict differs from construction"]
        if r_first != c_first:
            return [f"structure {row['structure']}: oracles disagree on first arity"]
    return []


def _from_rows(rows) -> dict:
    return {tuple(e): Fraction(c) for e, c in rows}


def _mul_add(acc: dict, a: dict, b: dict) -> None:
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            acc[e] = acc.get(e, 0) + ca * cb


def _milnor_failures(job: dict, stdout: str) -> list:
    rows = [json.loads(line) for line in stdout.splitlines()]
    mu = job["oracle"]["mu"]
    head, rest = rows[0], rows[1:]
    if head["dimension"] != mu or len(head["basis"]) != mu:
        return [f"dimension differs from the weighted Bezout count {mu}"]
    basis = {tuple(e) for e in head["basis"]}
    pot = job["input"]["potential"]
    terms = {tuple(e): Fraction(c) for e, c in pot["terms"]}
    n = pot["n_vars"]
    grads = []
    for i in range(n):
        g = {}
        for e, c in terms.items():
            if e[i]:
                d = list(e)
                d[i] -= 1
                g[tuple(d)] = g.get(tuple(d), 0) + c * e[i]
        grads.append(g)
    if len(rest) != len(job["input"]["polys"]):
        return ["wrong number of results"]
    for p_rows, row in zip(job["input"]["polys"], rest):
        nf = _from_rows(row["nf"])
        if not set(nf) <= basis:
            return ["normal form leaves the standard monomials"]
        acc = dict(nf)
        for w, g in zip(row["witnesses"], grads):
            _mul_add(acc, _from_rows(w), g)
        p = _from_rows(p_rows)
        keys = set(acc) | set(p)
        if any(acc.get(k, 0) != p.get(k, 0) for k in keys):
            return ["p != nf(p) + sum w_i dS/dx_i"]
    return []


def ibp_failures(job: dict) -> list:
    """The integration-by-parts moment tower for a one-variable potential."""
    from bvcorr.groebner import MilnorData
    from bvcorr.polyalg import PolyElement
    from bvcorr.retract import build_retract, quantize_retract
    from bvcorr.scalars import HPoly
    from bvcorr.slinf import Expectation

    pot = potential(job["input"]["potential"])
    order = job["oracle"]["ibp_order"]
    q = quantize_retract(build_retract(MilnorData(pot)), order=order)
    expect = Expectation(q, [1] + [0] * (q.dim - 1))
    grad = PolyElement(1, {(e, ()): c for e, c in pot.jacobian()[0].items()})
    x = PolyElement.x(0, 1)
    power = PolyElement.one(1)  # x^(n-1)
    for n in range(1, 2 * q.dim + 3):
        lhs = expect(power * x * grad)
        rhs = HPoly({1: n}) * expect(power)
        if min(lhs.trunc, rhs.trunc) < order or lhs != rhs:
            return [f"<x^{n} S'> != {n} h <x^{n - 1}> through h^{order}"]
        power = power * x
    return []


CHECKERS = {"ell": _ell_failures, "slinf": _slinf_failures, "milnor": _milnor_failures}


def output_failures(job: dict, code: int | None, stdout: str) -> list:
    """Why one run of `job` failed; empty when it passed."""
    if code != 0:
        return [f"exit code {code}"]
    checker = CHECKERS.get(job["kind"], _cli_failures)
    try:
        return checker(job, stdout)
    except (ValueError, KeyError, IndexError, TypeError) as e:
        return [f"unreadable output: {e!r}"]
