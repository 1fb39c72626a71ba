"""bvcorr benchmark: one client, closed loop, each job in a fresh process.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ./src.  The
seed generates the jobs (perfbench/jobs.py).  Jobs run one after another, each
as `python3 perfbench/worker.py ...` the way a user runs `bvcorr`, and whole
passes over the workload's jobs repeat while another pass fits in S seconds.

Every time is scaled to one host speed: perfbench/reference.py, a fixed
pure-Python process, runs before the first job and after every job, and each
job run's times are multiplied by REFERENCE_S over the mean reference time
around it (see `speed_factor`).  The medians below are over passes.
--trace 0 reports the end-to-end metrics: wall_s (one pass over the jobs,
scaled), setup_s (per job run, the scaled time from process start until the
job is parsed; the median over the job runs) and peak_rss_mb (the largest
job resident set of a pass).  fail_share is printed in the summary and
carried by `attempted` / `failed` in the JSON line.
--trace 1 runs each job untraced and then traced, pass after pass (at least
two of each), and reports the scaled per-layer self times and the counts of
the traced passes (see perfbench/tracer.py), their wall_s, the median
reference time, and trace.overhead_s: per job, the median over the pairs of
traced minus untraced wall time, summed over the jobs.
The exit code is 1 when a job or one of the benchmark's own checks failed.

The correctness gate (perfbench/gate.py) runs after the timed region.  The
last line of stdout is the JSON result; earlier lines are a readable summary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gate  # noqa: E402
from jobs import WORKLOADS, make_jobs  # noqa: E402
from tracer import COUNTER_NAMES, SPANS  # noqa: E402

JOB_TIMEOUT_S = 120
REFERENCE = os.path.join(HERE, "reference.py")
# perfbench/reference.py's process time on the host the baseline was recorded
# on (2 cores, Python 3.11) when nothing else loads it; see `speed_factor`
REFERENCE_S = 0.12
GOLDEN_SEED = 0
GOLDEN_PATH = os.path.join(HERE, "golden.json")
FAULT_JOB = {
    "name": "inject-fault", "kind": "cli", "command": "solve --inject-fault",
    "input": {"schema": 1, "potential": {"n_vars": 1, "terms": [[[3], "1/3"]]},
              "n_max": 4, "h_order": 4},
    "oracle": {"mu": 2},
}

# per-layer metrics: self time per span name, call counts of the spans
# that mark one unit of work, and the tracer's counters
SELF_TIMES = {f"{span}_s": span for span in SPANS}
SPAN_CALLS = {
    "retract.hhat_calls": "retract.hhat",
    "retract.nabla_calls": "retract.nabla",
    "polyalg.ell_calls": "polyalg.ell",
}


def _clock() -> float:
    # CLOCK_MONOTONIC is shared by all processes, so the worker's marks
    # compare with the parent's start time
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Runner:
    """Writes the job inputs once and runs single jobs in fresh processes."""

    def __init__(self, root: str, workload: str):
        self.root = root
        self.work = os.path.join(root, ".perfbench", workload)
        os.makedirs(self.work, exist_ok=True)
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )

    def prepare(self, job: dict) -> None:
        with open(self._path(job, "input"), "w") as fh:
            json.dump(job["input"], fh, indent=1)

    def _path(self, job: dict, what: str) -> str:
        return os.path.join(self.work, f"{job['name']}.{what}.json")

    def reference(self) -> float:
        """Wall time of one perfbench/reference.py process."""
        start = _clock()
        subprocess.run([sys.executable, REFERENCE], cwd=self.root, check=True,
                       stdout=subprocess.DEVNULL, timeout=JOB_TIMEOUT_S)
        return _clock() - start

    def run(self, job: dict, trace: bool = False) -> dict:
        """One job run: exit code, stdout, set-up, wall time, peak RSS, trace."""
        report = self._path(job, "report")
        if os.path.exists(report):
            os.remove(report)
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               job.get("command", job["kind"]), self._path(job, "input"), report]
        if trace:
            cmd.append(self._path(job, "trace"))
        start = _clock()
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            out, err = proc.communicate(timeout=JOB_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
        end = _clock()
        run = {"code": proc.returncode, "stdout": out.decode(), "wall": end - start,
               "stderr": err.decode()[-2000:]}
        try:
            with open(report) as fh:
                marks = json.load(fh)
        except (OSError, ValueError):
            if trace:
                run["layers"] = {}  # the job died; the gate fails it
            return run
        run["setup"] = marks["setup_end"] - start if "setup_end" in marks else None
        run["rss_mb"] = marks["maxrss_kb"] / 1024
        run["command_s"] = marks["main_end"] - marks.get("setup_end", start)
        if trace:
            with open(self._path(job, "trace")) as fh:
                run["layers"] = layer_figures(json.load(fh), run)
        return run


def layer_figures(doc: dict, run: dict) -> dict:
    """Self time per span name, span counts, and the counters of one job."""
    spans = doc["spans"]
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s: dict = {}
    calls: dict = {}
    covered = 0.0
    for (name, start, end, parent), inner in zip(spans, child):
        self_s[name] = self_s.get(name, 0.0) + (end - start) - inner
        calls[name] = calls.get(name, 0) + 1
        if parent < 0:
            covered += end - start
    figures = {m: self_s.get(span, 0.0) for m, span in SELF_TIMES.items()}
    figures.update({m: calls.get(span, 0) for m, span in SPAN_CALLS.items()})
    figures.update({c: doc["counts"][c] for c in COUNTER_NAMES})
    figures["cli.render_s"] = run["command_s"] - covered
    figures["cli.stdout_bytes"] = len(run["stdout"].encode())
    return figures


def run_passes(runner: Runner, jobs: list, deadline: float, trace: bool) -> list:
    """Whole passes over `jobs`: one, then more while another ends before `deadline`.

    A reference process runs before the first job and after every job, and
    each job run keeps the speed factor of the two around it.
    """
    passes, before = [], runner.reference()
    while not passes or _clock() + passes[-1]["wall"] <= deadline:
        t0 = _clock()
        runs = []
        for job in jobs:
            run = runner.run(job, trace)
            after = runner.reference()
            run["scale"] = speed_factor(before, after)
            runs.append(run)
            before = after
        passes.append({"wall": _clock() - t0, "runs": runs})
    return passes


def run_pairs(runner: Runner, jobs: list, deadline: float) -> tuple:
    """Passes in which each job runs untraced and then at once traced.

    Pairing the two runs of a job keeps a change of machine speed that
    lasts longer than one pair out of their difference, the tracing cost.
    Both runs of a pair share the speed factor of the references around it.
    Returns the untraced and the traced passes; at least two of each.
    """
    untraced, traced = [], []
    before = runner.reference()
    while len(traced) < 2 or _clock() + untraced[-1]["wall"] + traced[-1]["wall"] <= deadline:
        pairs = []
        for job in jobs:
            pair = (runner.run(job), runner.run(job, trace=True))
            after = runner.reference()
            for run in pair:
                run["scale"] = speed_factor(before, after)
            pairs.append(pair)
            before = after
        for passes, runs in zip((untraced, traced), zip(*pairs)):
            passes.append({"wall": sum(r["wall"] for r in runs), "runs": list(runs)})
    return untraced, traced


def speed_factor(before: float, after: float) -> float:
    """REFERENCE_S over the mean of the reference times around a job run.

    The host slows every process, in CPU time as well as in wall time, by up
    to 2.5x for stretches of seconds to minutes while other tenants load it,
    so an unscaled time says more about the host than about bvcorr.  The
    reference process slows with the jobs; scaling by it gives the run's
    time at the speed the host has when nothing else loads it.
    """
    return REFERENCE_S / ((before + after) / 2)


def scaled(passes: list, value) -> float:
    """Median over passes of the pass total of the scaled `value(run)`."""
    return median(sum(r["scale"] * value(r) for r in p["runs"]) for p in passes)


def load_golden(workload: str) -> dict:
    try:
        with open(GOLDEN_PATH) as fh:
            return json.load(fh).get(workload, {})
    except (OSError, ValueError):
        return {}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_runs(jobs: list, passes: list, golden: dict) -> list:
    """Mark every run with its failures; return the failure messages."""
    messages = []
    for i, job in enumerate(jobs):
        runs = [p["runs"][i] for p in passes]
        first = runs[0]["stdout"]
        verdict = gate.output_failures(job, runs[0]["code"], first)
        if not verdict and job["kind"] == "cli" and job["command"] == "fmanifold":
            verdict = gate.ibp_failures(job)
        if golden and golden.get(job["name"]) != digest(first):
            verdict = verdict + ["output differs from the recorded output"]
        for run in runs:
            fails = list(verdict)
            if run["stdout"] != first or run["code"] != runs[0]["code"]:
                fails.append("output differs between repeats")
            run["failures"] = fails
            if fails:
                messages.append(f"{job['name']}: {'; '.join(fails)} {run['stderr'][-300:]}")
    return messages


def self_checks(runner: Runner, workload: str, seed: int, traced: list) -> list:
    """The benchmark's own checks; returns the problems found."""
    problems = []
    if make_jobs(workload, seed) != make_jobs(workload, seed):
        problems.append("the same seed gave different jobs")
    if make_jobs(workload, seed) == make_jobs(workload, seed + 1):
        problems.append("two seeds gave the same jobs")
    runner.prepare(FAULT_JOB)
    fault = runner.run(FAULT_JOB)
    if fault["code"] != 3 or not gate.output_failures(FAULT_JOB, fault["code"], fault["stdout"]):
        problems.append("an injected fault was not counted as a failure")
    counted = COUNTER_NAMES + tuple(SPAN_CALLS) + ("cli.stdout_bytes",)
    for later in traced[1:]:
        for a, b in zip(traced[0]["runs"], later["runs"]):
            if any(a["layers"].get(c) != b["layers"].get(c) for c in counted):
                problems.append("a count differs between two traced passes")
    return problems


def end_to_end(passes: list) -> dict:
    setups = [r["scale"] * r["setup"]
              for p in passes for r in p["runs"] if r.get("setup") is not None]
    rss = [max(r.get("rss_mb", 0.0) for r in p["runs"]) for p in passes]
    return {
        "wall_s": (scaled(passes, lambda r: r["wall"]), "s"),
        "setup_s": (median(setups) if setups else 0.0, "s"),
        "peak_rss_mb": (median(rss), "MiB"),
    }


def per_layer(untraced: list, traced: list) -> dict:
    def pass_total(p, metric):
        return sum(r["layers"].get(metric, 0) for r in p["runs"])

    out = {}
    for m in SELF_TIMES:
        out[m] = (scaled(traced, lambda r: r["layers"].get(m, 0.0)), "s")
    for m in COUNTER_NAMES + tuple(SPAN_CALLS):
        out[m] = (pass_total(traced[0], m), "count")
    enumerated = out["partitions.enumerated"][0]
    out["partitions.useful_ratio"] = (
        out["partitions.terms"][0] / enumerated if enumerated else 0.0, "ratio")
    out["cli.render_s"] = (scaled(traced, lambda r: r["layers"].get("cli.render_s", 0.0)), "s")
    out["cli.stdout_bytes"] = (pass_total(traced[0], "cli.stdout_bytes"), "bytes")
    wall = scaled(traced, lambda r: r["wall"])
    setup = scaled(traced, lambda r: r.get("setup") or 0.0)
    layers = sum(out[m][0] for m in SELF_TIMES) + out["cli.render_s"][0]
    out["trace.wall_s"] = (wall, "s")
    out["trace.setup_s"] = (setup, "s")
    out["trace.other_s"] = (wall - setup - layers, "s")
    out["trace.overhead_s"] = (sum(
        median(t["runs"][i]["scale"] * (t["runs"][i]["wall"] - u["runs"][i]["wall"])
               for u, t in zip(untraced, traced))
        for i in range(len(traced[0]["runs"]))
    ), "s")
    out["host.reference_s"] = (median(REFERENCE_S / r["scale"] for p in traced for r in p["runs"]), "s")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=GOLDEN_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "bvcorr", "cli.py")):
        print("run.py: no src/bvcorr in the current directory; run it from the "
              "root of a bvcorr checkout", file=sys.stderr)
        return 2
    jobs = make_jobs(args.workload, args.seed)
    runner = Runner(root, args.workload)
    for job in jobs:
        runner.prepare(job)
    # bytecode compiled once per install, not per run: warm it before timing
    subprocess.run([sys.executable, "-c", "import bvcorr.cli, bvcorr.fmanifold"],
                   cwd=root, env=runner.env, check=True)

    deadline = _clock() + args.seconds
    if args.trace:
        untraced, traced = run_pairs(runner, jobs, deadline)
        passes = untraced + traced
    else:
        traced = []
        passes = run_passes(runner, jobs, deadline, trace=False)

    sys.path.insert(0, os.path.join(root, "src"))
    golden = load_golden(args.workload) if args.seed == GOLDEN_SEED else {}
    messages = check_runs(jobs, passes, golden)
    problems = self_checks(runner, args.workload, args.seed, traced)
    for line in messages + problems:
        print(f"run.py: {line}", file=sys.stderr)

    attempted = sum(len(p["runs"]) for p in passes)
    failed = sum(1 for p in passes for r in p["runs"] if r["failures"])
    metrics = per_layer(untraced, traced) if args.trace else end_to_end(passes)
    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes of "
          f"{len(jobs)} jobs, one client, closed loop; unscaled pass time "
          f"{median(p['wall'] for p in passes):.3f} s, reference "
          f"{median(REFERENCE_S / r['scale'] for p in passes for r in p['runs']):.3f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6f} {unit}")
    print(f"  {'fail_share':28s} {failed / attempted:14.6f} ratio ({failed}/{attempted})")
    print(json.dumps({
        "correct": not messages and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if messages or problems else 0


if __name__ == "__main__":
    sys.exit(main())
