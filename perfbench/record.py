"""Record the benchmark's reference data.

    python3 perfbench/record.py golden
        run every job of the default seed once and store the sha256 of its
        stdout in perfbench/golden.json (the byte-identity contract);
    python3 perfbench/record.py spread --seeds 10 --seconds 36 [--trace 1]
            [--out FILE --label TEXT] [W ...]
        run perfbench/run.py once per seed (1..N) on each workload and print,
        per metric, the median, quartiles, sample count and (Q3 - Q1) / median;
        with --out, append them to the list in FILE as one labelled entry of
        the bench trajectory (perfbench/baseline.json).

Run from the root of a checkout, like run.py.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gate  # noqa: E402
import run  # noqa: E402
from jobs import WORKLOADS, make_jobs  # noqa: E402


def record_golden() -> int:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    golden = {}
    for workload in WORKLOADS:
        runner = run.Runner(os.getcwd(), workload)
        golden[workload] = {}
        for job in make_jobs(workload, run.GOLDEN_SEED):
            runner.prepare(job)
            result = runner.run(job)
            problems = gate.output_failures(job, result["code"], result["stdout"])
            if problems:
                print(f"{workload} {job['name']}: {problems}", file=sys.stderr)
                return 1
            golden[workload][job["name"]] = run.digest(result["stdout"])
    with open(run.GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def spread(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else None}


def record_spread(seeds: int, seconds: int, trace: int, workloads: list,
                  out: str | None, label: str | None) -> int:
    entry = {"label": label, "date": time.strftime("%Y-%m-%d", time.gmtime()),
             "nproc": os.cpu_count(), "python": platform.python_version(),
             "seconds": seconds, "trace": trace, "seeds": list(range(1, seeds + 1)),
             "workloads": {}}
    for workload in workloads:
        values: dict = {}
        for seed in entry["seeds"]:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            if not result["correct"]:
                print(proc.stderr, file=sys.stderr)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(workload, seed, result["correct"], result["attempted"], result["failed"],
                  {k: round(v["value"], 4) for k, v in result["metrics"].items()}, flush=True)
        entry["workloads"][workload] = {k: spread(v) for k, v in values.items()}
        for name, s in entry["workloads"][workload].items():
            print(f"  {workload} {name}: median {s['median']:.4f} "
                  f"IQR/median {s['spread']} (n={s['n']})", flush=True)
    if out:
        trajectory = []
        if os.path.exists(out):
            with open(out) as fh:
                trajectory = json.load(fh)
        trajectory.append(entry)
        with open(out, "w") as fh:
            json.dump(trajectory, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description="record golden outputs or the seed spread")
    ap.add_argument("what", choices=("golden", "spread"))
    ap.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=36)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    ap.add_argument("--label")
    args = ap.parse_intermixed_args()
    if args.what == "golden":
        return record_golden()
    return record_spread(args.seeds, args.seconds, args.trace, args.workloads,
                         args.out, args.label)


if __name__ == "__main__":
    sys.exit(main())
