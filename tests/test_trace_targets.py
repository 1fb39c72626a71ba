"""The benchmark tracer (perfbench/tracer.py) wraps bvcorr functions by name.

A rename in the library would break `perfbench/run.py --trace 1`.  This runs
`Tracer().install()` against src/ in a fresh process and checks that every
target resolves and is replaced by its wrapper, also in modules loaded after
`install()` (the package namespace is lazy and `bvcorr fmanifold` imports its
layer when it runs), that a traced solve fills the table counter, which reads
the solution fields by name, and that traced `bvcorr solve` and
`bvcorr fmanifold` runs through the benchmark worker record their layer
spans.  perfbench/ is only read.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys
sys.path[:0] = [{perfbench!r}, {src!r}]
import bvcorr  # noqa: F401  (loads no layer: the tracer imports its targets)
import tracer

targets = [t for group in (tracer.SPANS, tracer.COUNTS) for ts in group.values() for t in ts]
targets.append("partitions:set_partitions")
before = {{t: tracer._resolve(t)[2] for t in targets}}
tracer.Tracer().install()
stale = [t for t in targets if tracer._resolve(t)[2] is before[t]]
# modules loaded after install() bind the wrappers, not the originals
import bvcorr.acceptance, bvcorr.cli  # noqa: E401, F401
stale += [
    f"{{name}}.{{key}}"
    for name, module in list(sys.modules.items()) if name.startswith("bvcorr")
    for key, value in vars(module).items()
    if any(value is original for original in before.values())
]
print(len(targets), "targets; not wrapped:", stale)
sys.exit(1 if stale else 0)
"""


SOLVE_SCRIPT = """
import sys
sys.path[:0] = [{perfbench!r}, {src!r}]
import bvcorr.cli  # noqa: F401
import tracer

t = tracer.Tracer()
t.install()
from bvcorr import solver
from bvcorr.groebner import MilnorData
from bvcorr.polyalg import Potential
from bvcorr.retract import build_retract, quantize_retract

q = quantize_retract(build_retract(MilnorData(Potential.a_k(2))))
solver.solve_level_one(q, solver.solve_level_zero(q, 3), 3)
print(t.counts["solver.table_keys"])
"""


def _run(script):
    code = script.format(perfbench=str(ROOT / "perfbench"), src=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=120)


def test_every_trace_target_resolves_and_is_wrapped():
    r = _run(SCRIPT)
    assert r.returncode == 0, (r.stdout + r.stderr).decode()


def test_traced_solve_counts_the_solution_tables():
    r = _run(SOLVE_SCRIPT)
    assert r.returncode == 0, (r.stdout + r.stderr).decode()
    assert int(r.stdout.split()[-1]) > 0


def _assert_traced_spans(tmp_path, command, names):
    report, trace = tmp_path / "report.json", tmp_path / "trace.json"
    r = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), command,
         str(ROOT / "tests" / "golden" / "a2.job.json"), str(report), str(trace)],
        capture_output=True, timeout=120,
    )
    assert r.returncode == 0, (r.stdout + r.stderr).decode()
    spans = json.loads(trace.read_text())["spans"]
    for name in names:
        times = [end - start for span, start, end, _ in spans if span == name]
        assert times and all(t > 0 for t in times), name


def test_traced_fmanifold_records_the_series_spans(tmp_path):
    _assert_traced_spans(tmp_path, "fmanifold", ("fmanifold.A", "fmanifold.Z"))


def test_traced_solve_records_the_solver_spans(tmp_path):
    _assert_traced_spans(
        tmp_path, "solve", ("solver.level0", "solver.checks", "polyalg.ell")
    )
