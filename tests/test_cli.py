import copy
import json
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from bvcorr import cli
from bvcorr.cli import InputError, JobSpec
from bvcorr.partitions import ArityCapError

A2_JOB = {
    "schema": 1,
    "potential": {"n_vars": 1, "terms": [[[3], "1/3"]]},
    "n_max": 4,
    "h_order": 6,
    "t_order": 3,
}


def run_cli(*args, timeout=600):
    return subprocess.run(
        [sys.executable, "-m", "bvcorr.cli", *args],
        capture_output=True,
        timeout=timeout,
    )


def write_job(tmp_path, doc, name="job.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_basis_command(tmp_path):
    path = write_job(tmp_path, A2_JOB)
    r = run_cli("basis", "--input", path)
    assert r.returncode == 0
    assert b"dimension 2" in r.stdout
    assert b"x" in r.stdout


def test_basis_quartic(tmp_path):
    doc = dict(A2_JOB, potential={"n_vars": 1, "terms": [[[4], "1/4"]]})
    path = write_job(tmp_path, doc)
    r = run_cli("basis", "--input", path)
    assert r.returncode == 0
    assert b"dimension 3" in r.stdout


def test_non_isolated_rejeted(tmp_path):
    doc = dict(A2_JOB, potential={"n_vars": 2, "terms": [[[2, 1], "1"]]})
    path = write_job(tmp_path, doc)
    r = run_cli("basis", "--input", path)
    assert r.returncode == 2
    assert b"non-isolated" in r.stderr


def test_unit_ideal_rejected(tmp_path):
    # S = x0 + x1^2 has no critical point
    doc = dict(A2_JOB, potential={"n_vars": 2, "terms": [[[1, 0], "1"], [[0, 2], "1"]]})
    r = run_cli("basis", "--input", write_job(tmp_path, doc))
    assert r.returncode == 2
    assert r.stderr.decode().splitlines() == [
        "input rejected: the Jacobian ideal is the unit ideal: "
        "the potential has no critical point"
    ]


def test_invalid_schema_rejected(tmp_path):
    path = write_job(tmp_path, {"schema": 2})
    r = run_cli("basis", "--input", path)
    assert r.returncode == 2


def test_two_variable_splitting_rejected(tmp_path):
    # isolated singularity, but the shipped splitting homotopy fails its
    # side-condition verification in two variables: rejected, not computed
    doc = dict(
        A2_JOB,
        potential={"n_vars": 2, "terms": [[[3, 0], "1/3"], [[0, 3], "1/3"]]},
    )
    path = write_job(tmp_path, doc)
    assert run_cli("basis", "--input", path).returncode == 0  # Milnor layer fine
    r = run_cli("solve", "--input", path)
    assert r.returncode == 2


def test_solve_and_json_bundle(tmp_path):
    path = write_job(tmp_path, A2_JOB)
    out = tmp_path / "bundle.json"
    r = run_cli("solve", "--input", path, "--json", str(out), "--audit")
    assert r.returncode == 0
    assert b"anomaly-free: True" in r.stdout
    bundle = json.loads(out.read_text())
    assert bundle["anomaly_free"] is True
    assert bundle["reports"]["level-zero"]["ok"] is True
    assert "audit" in bundle
    # machine table agrees with a human line
    assert bundle["tables"]["mhat"]["3"]["x,x,x"] == {"1": {"h^0": "-1"}}
    assert b"[x,x,x] -> (-1)*[1]" in r.stdout


def test_solve_byte_stable(tmp_path):
    path = write_job(tmp_path, A2_JOB)
    r1 = run_cli("solve", "--input", path)
    r2 = run_cli("solve", "--input", path)
    assert r1.stdout == r2.stdout
    assert r1.returncode == r2.returncode == 0


def test_fault_injection_exits_3(tmp_path):
    path = write_job(tmp_path, A2_JOB)
    r = run_cli("solve", "--input", path, "--inject-fault")
    assert r.returncode == 3
    assert b"FAIL" in r.stdout


def test_resource_cap_exits_4(tmp_path):
    path = write_job(tmp_path, dict(A2_JOB, n_max=9))
    r = run_cli("solve", "--input", path)
    assert r.returncode == 4


def test_fmanifold_command(tmp_path):
    path = write_job(tmp_path, A2_JOB)
    r = run_cli("fmanifold", "--input", path)
    assert r.returncode == 0
    assert b"check wdvv: pass" in r.stdout
    assert b"PDE sign resolution: plus" in r.stdout
    assert b"check generating-function: pass" in r.stdout


def test_fmanifold_iota_validation(tmp_path):
    doc = dict(A2_JOB, iota=["1", "5"])
    path = write_job(tmp_path, doc)
    r = run_cli("fmanifold", "--input", path)
    assert r.returncode == 0
    bad = dict(A2_JOB, iota=["2", "0"])
    r = run_cli("fmanifold", "--input", write_job(tmp_path, bad, "bad.json"))
    assert r.returncode == 2


def test_fmanifold_iota_of_the_wrong_length_exits_2(tmp_path):
    path = write_job(tmp_path, dict(A2_JOB, iota=["1", "0", "0"]))
    r = run_cli("fmanifold", "--input", path)
    assert r.returncode == 2
    assert b"iota must list 2 values" in r.stderr
    assert b"Traceback" not in r.stderr
    assert r.stdout == b""


def test_threads_flag_rejected(tmp_path):
    # --threads was a no-op and is gone: argparse rejects it, no traceback
    path = write_job(tmp_path, A2_JOB)
    r = run_cli("basis", "--input", path, "--threads", "4")
    assert r.returncode == 2
    assert b"unrecognized arguments: --threads" in r.stderr
    assert b"Traceback" not in r.stderr


def test_audit_flag_only_on_solve(tmp_path):
    # --audit dumps solver intermediates; the other commands reject it
    path = write_job(tmp_path, A2_JOB)
    r = run_cli("fmanifold", "--input", path, "--audit")
    assert r.returncode == 2
    assert b"unrecognized arguments: --audit" in r.stderr
    assert b"Traceback" not in r.stderr


# -- the command-line contract: argparse's grammar and messages -------------


def run_main(capsys, *argv):
    """(exit code, stdout, stderr) of cli.main in this process."""
    try:
        code = cli.main(list(argv))
    except SystemExit as e:
        code = e.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("argv", [
    ["-h"], ["--help"], ["basis", "-h"], ["solve", "--help"], ["fmanifold", "-h"],
    ["solve", "--input", "missing.json", "-h"],
])
def test_help_exits_0_with_the_job_fields(capsys, argv):
    code, out, err = run_main(capsys, *argv)
    assert code == 0 and err == ""
    assert out.startswith("usage: bvcorr ")
    assert " ".join(out.split()).endswith(cli.JOB_FIELDS_HELP)


def test_command_help_lists_its_flags(capsys):
    _, out, _ = run_main(capsys, "solve", "-h")
    assert out.splitlines()[:7] == [
        "usage: bvcorr solve [-h] --input INPUT [--json JSON_PATH] [--audit]",
        "",
        "options:",
        "  -h, --help        show this help message and exit",
        "  --input INPUT     job JSON file",
        "  --json JSON_PATH  write the full bundle",
        "  --audit           dump intermediates",
    ]
    code, out, _ = run_main(capsys, "selftest", "-h")
    assert code == 0
    assert out.startswith("usage: bvcorr selftest [-h] [--input INPUT] [--json JSON_PATH]\n")
    assert "job fields" not in out


TOP_USAGE = "usage: bvcorr [-h] {basis,solve,fmanifold,selftest} ...\n"
SOLVE_USAGE = "usage: bvcorr solve [-h] --input INPUT [--json JSON_PATH] [--audit]\n"
USAGE_ERRORS = {
    "no-command": ([], TOP_USAGE + "bvcorr: error: the following arguments are required: command"),
    "unknown-command": (["bogus"], TOP_USAGE + "bvcorr: error: argument command: invalid "
                        "choice: 'bogus' (choose from 'basis', 'solve', 'fmanifold', 'selftest')"),
    "missing-input": (["solve"], SOLVE_USAGE
                      + "bvcorr solve: error: the following arguments are required: --input"),
    "input-without-value": (["solve", "--input"], SOLVE_USAGE
                            + "bvcorr solve: error: argument --input: expected one argument"),
    "json-without-value": (["solve", "--input", "{job}", "--json"], SOLVE_USAGE
                           + "bvcorr solve: error: argument --json: expected one argument"),
    "unknown-flag": (["basis", "--input", "{job}", "--threads", "4"],
                     TOP_USAGE + "bvcorr: error: unrecognized arguments: --threads 4"),
    "audit-on-fmanifold": (["fmanifold", "--input", "{job}", "--audit"],
                           TOP_USAGE + "bvcorr: error: unrecognized arguments: --audit"),
    "fault-on-basis": (["basis", "--input", "{job}", "--inject-fault"],
                       TOP_USAGE + "bvcorr: error: unrecognized arguments: --inject-fault"),
    "extra-positional": (["solve", "--input", "{job}", "extra"],
                         TOP_USAGE + "bvcorr: error: unrecognized arguments: extra"),
    # flags are matched in full: argparse's prefix abbreviations are gone
    "abbreviated-flag": (["solve", "--inp", "{job}"], SOLVE_USAGE
                         + "bvcorr solve: error: the following arguments are required: --input"),
}


@pytest.mark.parametrize("name", sorted(USAGE_ERRORS))
def test_usage_errors_exit_2(capsys, tmp_path, name):
    argv, message = USAGE_ERRORS[name]
    job = write_job(tmp_path, A2_JOB)
    code, out, err = run_main(capsys, *(a.format(job=job) for a in argv))
    assert (code, out, err) == (2, "", message + "\n")


def test_usage_error_exits_2_without_a_traceback(tmp_path):
    r = run_cli("solve", "--input", write_job(tmp_path, A2_JOB), "--bogus")
    assert r.returncode == 2
    assert r.stderr.startswith(b"usage: ")
    assert b"unrecognized arguments: --bogus" in r.stderr
    assert b"Traceback" not in r.stderr


def test_flag_values_after_an_equals_sign(capsys, tmp_path):
    job = write_job(tmp_path, A2_JOB)
    spaced, joined = tmp_path / "spaced.json", tmp_path / "joined.json"
    code, out, err = run_main(capsys, "solve", "--input", job, "--json", str(spaced))
    assert (code, err) == (0, "")
    assert run_main(capsys, "solve", f"--input={job}", f"--json={joined}") == (0, out, "")
    assert joined.read_bytes() == spaced.read_bytes()


def test_a_repeated_flag_keeps_its_last_value(capsys, tmp_path):
    job = write_job(tmp_path, A2_JOB)
    code, out, _ = run_main(capsys, "basis", "--input", "missing.json", "--input", job)
    assert code == 0 and out.startswith("dimension 2\n")


def test_outputs_filter(tmp_path):
    doc = dict(A2_JOB, outputs=["mhat"])
    path = write_job(tmp_path, doc)
    r = run_cli("solve", "--input", path)
    assert r.returncode == 0
    assert b"mhat (on-shell products)" in r.stdout
    assert b"pi0 (iterated correlation products)" not in r.stdout
    bad = dict(A2_JOB, outputs=["nope"])
    r = run_cli("solve", "--input", write_job(tmp_path, bad, "b.json"))
    assert r.returncode == 2


def test_fmanifold_byte_stable(tmp_path):
    path = write_job(tmp_path, A2_JOB)
    r1 = run_cli("fmanifold", "--input", path)
    r2 = run_cli("fmanifold", "--input", path)
    assert r1.stdout == r2.stdout
    assert r1.returncode == r2.returncode == 0


# Malformed documents that crashed `solve` with a traceback (the first six)
# or were silently coerced (the last three).
MALFORMED = {
    "n_max-string": dict(A2_JOB, n_max="abc"),
    "n_max-null": dict(A2_JOB, n_max=None),
    "term-exponent-not-a-list": dict(
        A2_JOB, potential={"n_vars": 1, "terms": [[3, "1/3"]]}
    ),
    "iota-number": dict(A2_JOB, iota=5),
    "outputs-nested": dict(A2_JOB, outputs=[["x"]]),
    "top-level-list": [1, 2],
    "n_max-fractional": dict(A2_JOB, n_max=2.7),
    "schema-boolean": dict(A2_JOB, schema=True),
    "exponent-boolean": dict(
        A2_JOB, potential={"n_vars": 1, "terms": [[[3], "1/3"], [[True], "1"]]}
    ),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_job_exits_2(tmp_path, name):
    r = run_cli("solve", "--input", write_job(tmp_path, MALFORMED[name]))
    assert r.returncode == 2, r.stderr
    assert b"input rejected" in r.stderr
    assert b"Traceback" not in r.stderr


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 12)
    | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=10,
)
FIELDS = ("schema", "n_max", "h_order", "t_order", "iota", "outputs",
          "potential", "n_vars", "terms", "term", "exponent", "coefficient")


@st.composite
def near_valid_jobs(draw):
    """A2_JOB with up to three fields replaced by arbitrary JSON values."""
    doc = copy.deepcopy(A2_JOB)
    pot, term = doc["potential"], doc["potential"]["terms"][0]
    for field in draw(st.lists(st.sampled_from(FIELDS), max_size=3)):
        value = draw(JSON_VALUES)
        if field in ("n_vars", "terms"):
            pot[field] = value
        elif field == "term":
            if isinstance(pot["terms"], list):  # "terms" may be replaced already
                pot["terms"].append(value)
        elif field in ("exponent", "coefficient"):
            term[field == "coefficient"] = value
        else:
            doc[field] = value
    return doc


@settings(max_examples=300, deadline=None)
@given(st.one_of(JSON_VALUES, near_valid_jobs()))
def test_jobspec_builds_or_rejects(doc):
    try:
        JobSpec(doc)
    except (InputError, ArityCapError):
        pass
