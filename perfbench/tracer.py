"""In-memory span recorder that wraps bvcorr's public functions from outside.

`install()` replaces each target function or method with a wrapper, in every
loaded `bvcorr.*` module that holds it (modules import these names with
`from .x import f`, so each importing module has its own reference).  Layer
entry points record a span (name, start, end, parent); hot scalar and
partition functions only bump a counter, which keeps the overhead down.
Nothing in the library changes.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# span name -> public entry points "module:attribute" or "module:Class.method"
SPANS = {
    "solver.level0": ["solver:solve_level_zero"],
    "solver.level1": ["solver:solve_level_one", "solver:mhat_symmetric"],
    "solver.checks": [
        "solver:level_zero_report",
        "solver:level_one_report",
        "solver:verify_M_identity",
        "solver:mhat_unity_report",
        "solver:generalized_associativity_report",
        "solver:reconstruct_pi",
    ],
    "retract.build": ["retract:build_retract"],
    "retract.quantize": ["retract:quantize_retract"],
    "retract.hhat": ["retract:QuantizedRetract.hhat"],
    "retract.nabla": ["retract:nabla"],
    "fmanifold.A": ["fmanifold:structure_constants"],
    "fmanifold.wdvv": ["fmanifold:wdvv_report"],
    "fmanifold.flat": ["fmanifold:FlatCoords.__init__", "fmanifold:flat_coordinate_report"],
    "fmanifold.Z": ["fmanifold:generating_function"],
    "fmanifold.mc": ["fmanifold:theta_mc_report"],
    "polyalg.ell": ["polyalg:DescendantFamily.ell"],
    "slinf.relations": ["slinf:verify_sl_infinity"],
    "slinf.coderivation": ["slinf:coderivation_square"],
    "slinf.correlators": ["slinf:correlators"],
    "groebner.milnor": [
        "groebner:MilnorData.__init__",
        "groebner:MilnorData.normal_form",
        "groebner:MilnorData.witnesses",
    ],
}

# counter name -> hot functions counted per call
COUNTS = {
    "partitions.terms": ["partitions:koszul_sign"],
    "partitions.sort_sign_calls": ["partitions:sort_sign"],
    "hspace.table_gets": ["hspace:SymMap.get", "hspace:PairSymMap.get"],
    "polyalg.khat_calls": ["polyalg:quantum_K"],
    "groebner.nf_calls": ["groebner:MilnorData.normal_form_monomial"],
    "scalars.hpoly_mul": ["scalars:HPoly.__mul__", "scalars:HPoly.__rmul__"],
    "scalars.hpoly_add": ["scalars:HPoly._combine"],
}

# counters filled from return values rather than per call
DERIVED_COUNTS = ("partitions.enumerated", "solver.table_keys", "slinf.checks")
COUNTER_NAMES = tuple(COUNTS) + DERIVED_COUNTS

SOLUTION_TABLES = {
    "solve_level_zero": ("pi0", "eta1", "phi0", "lhat", "omega0", "varpi1"),
    "solve_level_one": ("pi1", "eta2", "mhat", "phim1", "omega1", "varpi0"),
}


def _resolve(target: str):
    mod_name, _, attr = target.partition(":")
    module = importlib.import_module(f"bvcorr.{mod_name}")
    owner_name, _, method = attr.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name)
        return owner, method, owner.__dict__[method]
    return module, attr, getattr(module, attr)


def _replace(target: str, make_wrapper) -> None:
    owner, attr, original = _resolve(target)
    wrapper = make_wrapper(original)
    if isinstance(owner, type):
        setattr(owner, attr, wrapper)
        return
    for name, module in list(sys.modules.items()):
        if name == "bvcorr" or name.startswith("bvcorr."):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


class Tracer:
    """Spans kept in memory as [name, start, end, parent index]."""

    def __init__(self):
        self.spans: list = []
        self._stack = [-1]
        self.counts = dict.fromkeys(COUNTER_NAMES, 0)

    def _span(self, name: str, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent)
                stack.pop()
            if after is not None:
                after(result)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_tables(self, fields):
        def after(solution):
            self.counts["solver.table_keys"] += sum(
                len(table.values)
                for f in fields
                for table in getattr(solution, f).values()
            )

        return after

    def _count_checks(self, report) -> None:
        self.counts["slinf.checks"] += report.checks

    def _partitions(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts["partitions.enumerated"] += len(result)
            return result

        return wrapper

    def install(self) -> None:
        after = {
            "solver:solve_level_zero": self._count_tables(SOLUTION_TABLES["solve_level_zero"]),
            "solver:solve_level_one": self._count_tables(SOLUTION_TABLES["solve_level_one"]),
            "slinf:verify_sl_infinity": self._count_checks,
            "slinf:coderivation_square": self._count_checks,
        }
        for name, targets in SPANS.items():
            for t in targets:
                _replace(t, lambda fn, n=name, t=t: self._span(n, fn, after.get(t)))
        for name, targets in COUNTS.items():
            for t in targets:
                _replace(t, lambda fn, n=name: self._counter(n, fn))
        _replace("partitions:set_partitions", self._partitions)

    def write(self, path: str) -> None:
        """Write the spans and counters as one JSON document."""
        with open(path, "w") as fh:
            json.dump({"counts": self.counts, "spans": self.spans}, fh)
