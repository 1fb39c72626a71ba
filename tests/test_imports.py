"""The import contract: each job loads only the bvcorr modules it runs.

`bvcorr` resolves its public names on first access (PEP 562), report types
live in `bvcorr.report`, the CLI's failure types in `bvcorr.errors`, the
gauge machinery in `bvcorr.gauge`, the solve command in `bvcorr.cli_solve`,
the fmanifold command in `bvcorr.cli_fmanifold`, and `bvcorr fmanifold`
imports its own layer and the level-zero core (`bvcorr.levelzero`) but
neither the sL-infinity layer nor the level-one solver and its reports.  The
command line is parsed without argparse.  Each check runs in a fresh interpreter with src/ on
the path, so no module loaded by another test leaks in.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# the public names before the namespace became lazy
PUBLIC = {
    "DescendantFamily", "Expectation", "GradedBasisElement", "HPoly",
    "LevelOneSolution", "LevelZeroSolution", "MasterEquationError", "MilnorData",
    "NonIsolatedError", "NotDivisibleError", "PerturbedRetract", "PolyElement",
    "Potential", "QuantizedRetract", "Retract", "RetractError", "SLInfStructure",
    "build_retract", "bv_bracket", "classical_K", "coderivation_square",
    "compare_retracts", "compose_morphisms", "correlators", "delta_op",
    "descendant_morphism", "milnor_basis", "mhat_symmetric",
    "moment_cumulant_report", "nabla", "probe_descendant", "quantize_retract",
    "quantum_K", "reconstruct_pi", "solve_level_one", "solve_level_zero",
    "verify_M_identity", "verify_sl_infinity",
}

LOADED = "print(json.dumps(sorted(m for m in sys.modules if m.startswith('bvcorr'))))"


def _cli_loads(*argv):
    """The bvcorr modules loaded by one CLI run that exits 0."""
    return _run(
        "import contextlib, io\n"
        "from bvcorr import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({list(argv)!r})\n"
        "assert code == 0, code\n"
        f"{LOADED}"
    )


def _run(body: str):
    code = f"import json, sys\nsys.path.insert(0, {str(ROOT / 'src')!r})\n{body}"
    r = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, cwd=ROOT, timeout=120
    )
    assert r.returncode == 0, r.stdout + r.stderr
    return json.loads(r.stdout.splitlines()[-1])


def test_import_bvcorr_loads_no_submodule():
    assert _run(f"import bvcorr\n{LOADED}") == ["bvcorr"]


def test_polyalg_loads_only_its_own_layer():
    assert _run(f"from bvcorr import polyalg\n{LOADED}") == [
        "bvcorr", "bvcorr.partitions", "bvcorr.polyalg", "bvcorr.scalars",
    ]


def test_the_cli_loads_no_argparse():
    assert _run(
        "from bvcorr import cli\n"
        "print(json.dumps('argparse' in sys.modules))"
    ) is False


def test_solve_leaves_the_series_and_sl_infinity_layers_unloaded():
    loaded = _cli_loads("solve", "--input", "tests/golden/a2.job.json")
    for name in ("bvcorr.solver", "bvcorr.levelzero", "bvcorr.cli_solve"):
        assert name in loaded
    for name in ("bvcorr.fmanifold", "bvcorr.cli_fmanifold", "bvcorr.slinf",
                 "bvcorr.acceptance", "bvcorr.gauge"):
        assert name not in loaded


def test_solve_under_dash_m_imports_the_cli_once():
    # `python -m bvcorr.cli` runs the module as __main__; bvcorr.cli_solve
    # must not import a second copy of it
    r = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "bvcorr.cli", "solve",
         "--input", "tests/golden/a2.job.json"],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert r.returncode == 0, r.stderr
    imported = [line.rsplit("|", 1)[-1].strip() for line in r.stderr.splitlines()
                if line.startswith("import time:")]
    assert "bvcorr.cli_solve" in imported
    assert "bvcorr.cli" not in imported


def test_fmanifold_loads_neither_slinf_nor_acceptance_nor_gauge():
    # the expectation iota . hhat is HVector.pair, not slinf.Expectation, and
    # mhat is read off level zero, whose core is bvcorr.levelzero
    loaded = _cli_loads("fmanifold", "--input", "tests/golden/quartic_iota.job.json")
    for name in ("bvcorr.fmanifold", "bvcorr.levelzero", "bvcorr.cli_fmanifold"):
        assert name in loaded
    for name in ("bvcorr.slinf", "bvcorr.acceptance", "bvcorr.gauge", "bvcorr.solver",
                 "bvcorr.cli_solve"):
        assert name not in loaded
    assert len(loaded) == 13, loaded


def test_basis_loads_neither_retract_nor_solver():
    # the CLI's failure types live in bvcorr.errors
    loaded = _cli_loads("basis", "--input", "tests/golden/two_var.job.json")
    assert "bvcorr.errors" in loaded
    for name in ("bvcorr.retract", "bvcorr.levelzero", "bvcorr.solver", "bvcorr.cli_solve",
                 "bvcorr.cli_fmanifold", "bvcorr.report", "bvcorr.hspace"):
        assert name not in loaded
    assert len(loaded) == 7, loaded


def test_expectation_imports_without_the_retract_or_series_layers():
    # the form perfbench's gate imports it in
    loaded = _run(f"from bvcorr.slinf import Expectation\n{LOADED}")
    assert "bvcorr.slinf" in loaded
    for name in ("bvcorr.retract", "bvcorr.fmanifold"):
        assert name not in loaded


def test_gauge_names_resolve_from_bvcorr_gauge():
    assert _run(
        "import bvcorr\n"
        "print(json.dumps([bvcorr.PerturbedRetract.__module__,\n"
        "                  bvcorr.compare_retracts.__module__]))"
    ) == ["bvcorr.gauge", "bvcorr.gauge"]


def test_level_zero_names_resolve_from_bvcorr_levelzero():
    # `bvcorr.solver` binds solve_level_zero too, for the benchmark tracer
    assert _run(
        "import bvcorr\n"
        "homes = [bvcorr.LevelZeroSolution.__module__, bvcorr.solve_level_zero.__module__]\n"
        "print(json.dumps(homes + ['bvcorr.solver' in sys.modules]))"
    ) == ["bvcorr.levelzero", "bvcorr.levelzero", False]


def test_slinf_does_not_load_dataclasses():
    assert _run(
        "from bvcorr import slinf\n"
        "print(json.dumps('dataclasses' in sys.modules))"
    ) is False


def test_every_public_name_resolves():
    found = _run(
        "import bvcorr\n"
        "missing = [n for n in bvcorr.__all__ if getattr(bvcorr, n, None) is None]\n"
        "assert not missing, missing\n"
        "print(json.dumps(bvcorr.__all__))"
    )
    assert set(found) == PUBLIC


def test_dir_star_import_and_unknown_names():
    listed = _run(
        "import bvcorr\n"
        "listed = dir(bvcorr)\n"
        "ns = {}\n"
        "exec('from bvcorr import *', ns)\n"
        "assert set(bvcorr.__all__) <= set(ns), set(bvcorr.__all__) - set(ns)\n"
        "try:\n"
        "    bvcorr.no_such_name\n"
        "except AttributeError as e:\n"
        "    assert 'no_such_name' in str(e)\n"
        "else:\n"
        "    raise AssertionError('unknown attribute resolved')\n"
        "print(json.dumps(listed))"
    )
    assert PUBLIC <= set(listed)
