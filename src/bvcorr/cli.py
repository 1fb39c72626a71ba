"""Command-line front end: parse a job, run the pipeline, emit reports.

Input is a single JSON document (schema 1) describing the potential and the
truncation orders; rationals are "p/q" strings and polynomials are lists of
[exponent-vector, coefficient] pairs.  Output ordering is fixed everywhere,
so a given job always produces identical bytes.

Exit codes: 0 all checks pass, 2 input rejected, 3 a mathematical identity
failed, 4 a resource cap was exceeded.

The command line is read from one table, `COMMANDS`, with argparse's grammar
and messages (a usage error also exits 2), without the cost of importing
argparse in every process.  `solve` and `fmanifold` live in `cli_solve` and
`cli_fmanifold`, imported only when they run.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

from .errors import MasterEquationError, RetractError
from .groebner import MilnorData, NonIsolatedError
from .partitions import ArityCapError
from .polyalg import Potential
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


def cmd_selftest(sink: list):
    from .acceptance import run_selftest

    out, ok = run_selftest()
    sink.extend(out.splitlines())
    bundle = {"command": "selftest", "ok": ok, "lines": out.splitlines()}
    return (EXIT_OK if ok else EXIT_VIOLATION), bundle


# -- the command line -------------

# command -> (whether --input is required, the switches it takes besides
# --input and --json); --inject-fault is a test hook, left out of the help
COMMANDS = {
    "basis": (True, ()),
    "solve": (True, ("--audit", "--inject-fault")),
    "fmanifold": (True, ()),
    "selftest": (False, ()),
}
VALUE_FLAGS = ("--input", "--json")
FLAG_HELP = {
    "-h, --help": "show this help message and exit",
    "--input INPUT": "job JSON file",
    "--json JSON_PATH": "write the full bundle",
    "--audit": "dump intermediates",
}
CHOICES = "{" + ",".join(COMMANDS) + "}"
USAGE = f"bvcorr [-h] {CHOICES} ..."
TOP_HELP = f"""\
usage: {USAGE}

exact quantum correlation algebras of polynomial BV theories

positional arguments:
  {CHOICES}

options:
  -h, --help            show this help message and exit
"""


def _usage(command: str) -> str:
    needs_input, switches = COMMANDS[command]
    flags = "--input INPUT" if needs_input else "[--input INPUT]"
    extra = "".join(f" [{f}]" for f in switches if f in FLAG_HELP)
    return f"bvcorr {command} [-h] {flags} [--json JSON_PATH]{extra}"


def _help(command: str | None) -> str:
    from textwrap import fill

    if command is None:
        out = TOP_HELP
    else:
        switches = COMMANDS[command][1]
        rows = ["-h, --help", "--input INPUT", "--json JSON_PATH"]
        rows += [f for f in switches if f in FLAG_HELP]
        out = f"usage: {_usage(command)}\n\noptions:\n" + "".join(
            f"  {row:<16}  {FLAG_HELP[row]}\n" for row in rows
        )
    if command is None or COMMANDS[command][0]:
        out += "\n" + fill(JOB_FIELDS_HELP, 78) + "\n"
    return out


def _usage_error(usage: str, prog: str, message: str):
    sys.stderr.write(f"usage: {usage}\n{prog}: error: {message}\n")
    sys.exit(EXIT_REJECTED)


def parse_args(argv: list) -> dict:
    """The command and its flags: {"command", "--input", "--json", switch: bool}.

    Follows argparse's grammar and messages: `--flag VALUE` or
    `--flag=VALUE`, a repeated flag keeps its last value, `-h`/`--help`
    prints the help and exits 0, and a usage error prints the usage and the
    error and exits 2.  Flags are matched in full.
    """
    args = iter(argv)
    extras = []
    command = None
    for arg in args:
        if arg in ("-h", "--help"):
            sys.stdout.write(_help(None))
            sys.exit(EXIT_OK)
        if arg.startswith("-") and arg != "-":
            extras.append(arg)
            continue
        command = arg
        break
    if command is None:
        _usage_error(USAGE, "bvcorr", "the following arguments are required: command")
    if command not in COMMANDS:
        choices = ", ".join(map(repr, COMMANDS))
        _usage_error(USAGE, "bvcorr",
                     f"argument command: invalid choice: {command!r} (choose from {choices})")
    prog = f"bvcorr {command}"
    needs_input, switches = COMMANDS[command]
    out = {"command": command, "--input": None, "--json": None}
    out.update(dict.fromkeys(switches, False))
    for arg in args:
        if arg == "--":
            extras.extend(args)
            break
        if arg in ("-h", "--help"):
            sys.stdout.write(_help(command))
            sys.exit(EXIT_OK)
        name, eq, value = arg.partition("=")
        if name in VALUE_FLAGS:
            if not eq:
                value = next(args, None)
                if value is None or (value.startswith("-") and value != "-"):
                    _usage_error(_usage(command), prog, f"argument {name}: expected one argument")
            out[name] = value
        elif arg in switches:
            out[arg] = True
        else:
            extras.append(arg)
    if needs_input and out["--input"] is None:
        _usage_error(_usage(command), prog, "the following arguments are required: --input")
    if extras:
        _usage_error(USAGE, "bvcorr", f"unrecognized arguments: {' '.join(extras)}")
    return out


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    command = args["command"]
    sink: list = []
    try:
        if command == "selftest":
            code, bundle = cmd_selftest(sink)
        else:
            job = load_job(args["--input"])
            # each command's module is imported when it runs, so that the
            # others do not compile it
            if command == "basis":
                code, bundle = cmd_basis(job, sink)
            elif command == "solve":
                from .cli_solve import cmd_solve

                code, bundle = cmd_solve(job, sink, args["--audit"], args["--inject-fault"])
            else:
                from .cli_fmanifold import cmd_fmanifold

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
    if args["--json"]:
        with open(args["--json"], "w") as fh:
            json.dump(bundle, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return code


if __name__ == "__main__":
    # under `python -m bvcorr.cli`, `bvcorr.cli_solve` and
    # `bvcorr.cli_fmanifold` import this module rather than compiling and
    # running a second copy of it
    sys.modules.setdefault("bvcorr.cli", sys.modules[__name__])
    sys.exit(main())
