"""Byte-for-byte contract on the command line's stdout and --json bundles,
and on the demos' stdout.

Each CLI case runs `python -m bvcorr.cli` on a job under tests/golden/ and
compares its stdout and its JSON bundle with the recorded files; each demo
case runs one script under demos/ and compares its stdout.  Every case also
checks the exit code.  A change meant to alter these outputs records them
again with

    PYTHONPATH=src python tests/test_golden.py --record

and says why in CHANGES.md.
"""

import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"
DEMOS = Path(__file__).resolve().parent.parent / "demos"

# case name -> (command, job file, extra arguments, expected exit code)
CASES = {
    # level zero and one, plus the audit bundle (build_M0, Omega, varpi, L)
    "solve_a2_audit": ("solve", "a2.job.json", ["--audit"], 0),
    "solve_quartic_iota": ("solve", "quartic_iota.job.json", [], 0),
    "fmanifold_a2": ("fmanifold", "a2.job.json", [], 0),
    # Z has h^-1 .. h^-3 coefficients: pins the printing of negative exponents
    "fmanifold_quartic_iota": ("fmanifold", "quartic_iota.job.json", [], 0),
    "basis_two_var": ("basis", "two_var.job.json", [], 0),
    # a corrupted mhat value: pins the (front, pair) shape of level-one witnesses
    "solve_a2_fault": ("solve", "a2.job.json", ["--inject-fault"], 3),
}
# the demos print PolyElement, HVector and TSeries reprs; no job, no bundle
CASES.update(
    {f"demo_{p.stem}": (p.name, None, [], 0) for p in sorted(DEMOS.glob("*.py"))}
)


def _run(name, out_dir):
    command, job, extra, _ = CASES[name]
    if job is None:
        r = subprocess.run(
            [sys.executable, str(DEMOS / command)], capture_output=True, timeout=300
        )
        return r, None
    bundle = Path(out_dir) / f"{name}.json"
    r = subprocess.run(
        [sys.executable, "-m", "bvcorr.cli", command,
         "--input", str(GOLDEN / job), "--json", str(bundle), *extra],
        capture_output=True,
        timeout=300,
    )
    return r, bundle.read_bytes() if bundle.exists() else None


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, tmp_path):
    r, bundle = _run(name, tmp_path)
    assert r.returncode == CASES[name][3], r.stderr.decode()
    assert r.stdout == (GOLDEN / f"{name}.stdout").read_bytes()
    if CASES[name][1] is not None:
        assert bundle == (GOLDEN / f"{name}.json").read_bytes()


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    for case in sorted(CASES):
        result, data = _run(case, GOLDEN)
        if result.returncode != CASES[case][3]:
            sys.exit(f"{case}: exit {result.returncode}\n{result.stderr.decode()}")
        if not result.stdout:
            sys.exit(f"{case}: no output")
        (GOLDEN / f"{case}.stdout").write_bytes(result.stdout)
        print(f"recorded {case}: {len(result.stdout)} + {len(data or b'')} bytes")
