"""Maintainer commands for the benchmark: golden digests and the baseline.

    python3 perfbench/baseline.py golden
    python3 perfbench/baseline.py measure [--out perfbench/baseline.json]

`golden` runs every workload's jobs once with seed 0, checks them through
the gate and writes the sha256 of each job's stdout to golden.json.

`measure` runs run.py in child processes for each workload of
BENCHMARK.json and each seed 1..10: one untraced run with BENCHMARK.json's
run_seconds, then one traced run.  It records each end-to-end metric's
values, median, quartiles and spread (interquartile range over median, as
statistics.quantiles gives them) beside the metric's bound, and each
per-layer metric's values for the ten seeds, so that the work counts of
different seeds can be compared, and the raw pass times in seconds
(`raw_wall_s`, the median pass of each run) beside wall_refs.  Run it from the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = range(1, 11)


def run_once(workload, seed, trace):
    """One run.py child process; returns (info line, result line)."""
    cmd = list(BENCHMARK["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=True)
    info, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(info), json.loads(result)


def summarize(values, bound):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": statistics.median(values),
            "q1": q1, "q3": q3, "spread": (q3 - q1) / statistics.median(values),
            "bound": bound}


def measure(out):
    report = {"python": platform.python_version(), "nproc": os.cpu_count(),
              "machine": platform.machine(),
              "run_seconds": BENCHMARK["run_seconds"], "workloads": {}}
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    for workload in [w["name"] for w in BENCHMARK["workloads"]]:
        runs, traces = [], []
        for seed in SEEDS:
            for trace, into in ((0, runs), (1, traces)):
                info, result = run_once(workload, seed, trace)
                if not result["correct"]:
                    raise SystemExit("%s seed %d trace %d incorrect: %s"
                                     % (workload, seed, trace,
                                        info["problems"]))
                into.append((info, result))
            print(workload, seed, {k: round(v["value"], 4) for k, v
                                   in runs[-1][1]["metrics"].items()},
                  file=sys.stderr, flush=True)
        report["workloads"][workload] = {
            "seeds": list(SEEDS),
            "words": {str(seed): info["words"]
                      for seed, (info, _) in zip(SEEDS, runs)},
            "end_to_end": {
                name: summarize([r["metrics"][name]["value"]
                                 for _, r in runs], bound)
                for name, bound in bounds.items()},
            "raw_wall_s": summarize([statistics.median(info["pass_s"])
                                     for info, _ in runs], None),
            "per_layer": {
                name: [r["metrics"][name]["value"] for _, r in traces]
                for name in traces[0][1]["metrics"]},
        }
        for name, s in report["workloads"][workload]["end_to_end"].items():
            print("%-10s %-13s median %.4f spread %.3f (bound %.2f)"
                  % (workload, name, s["median"], s["spread"], s["bound"]),
                  file=sys.stderr, flush=True)
    Path(out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")


def golden():
    sys.path.insert(0, str(ROOT / "src"))
    import gate
    import run
    import workloads

    digests = {}
    with run.work_dir() as workdir:
        for workload in workloads.WORKLOADS:
            cli, jobs, _ = run.setup(workload, 0, workdir)
            _, results = run.run_pass(cli, jobs)
            digests[workload] = {}
            for job, (code, out) in zip(jobs, results):
                reason = gate.check(job, code, out)
                if reason is not None:
                    raise SystemExit("%s %s: %s" % (workload, job["name"],
                                                    reason))
                digests[workload][job["name"]] = gate.digest(out)
    run.GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("golden")
    m = sub.add_parser("measure")
    m.add_argument("--out", default=str(HERE / "baseline.json"))
    args = parser.parse_args()
    if args.command == "golden":
        golden()
    else:
        measure(args.out)


if __name__ == "__main__":
    main()
