"""qfold benchmark: one workload of real CLI jobs, end to end or traced.

    python3 perfbench/run.py --workload seed-init --seed 0 --seconds 30 --trace 0

Runs from the root of a qfold source checkout and imports qfold from its
`src/` directory.  The jobs run in this process and thread through
`qfold.cli.main`, as a closed loop: a job starts when the previous one has
ended.  A pass is one run of the workload's job list; the run repeats
passes while the next one still fits in --seconds (at least one pass).

--trace 0 prints the end-to-end metrics.  The CPU of a shared virtual
machine can drift in speed by up to 2x within seconds, so the claim
metric, wall_refs, gives each pass's time in units of a fixed reference
loop that a SIGALRM handler times every REF_PERIOD_S during the pass, on
the same CPU (see SpeedProbe).  --trace 1 runs one untraced
pass, then one pass with every layer wrapped (see layers.py), and prints
the per-layer metrics.  Every job's output goes through the gate
(gate.py); the last stdout line is the result object, and the line before
it records the words, Python version and CPU count of the run.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
SETUP_REPEATS = 11
REF_PERIOD_S = 0.05
REF_STEPS = 3000

import gate  # noqa: E402
import workloads  # noqa: E402


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup(workload, seed, workdir):
    """Import qfold afresh and generate the job configs; returns the cli
    module, the jobs and the setup time (median of SETUP_REPEATS)."""
    times = []
    for _ in range(SETUP_REPEATS):
        for name in [m for m in sys.modules
                     if m == "qfold" or m.startswith("qfold.")]:
            del sys.modules[name]
        t0 = time.perf_counter()
        import qfold.cli
        jobs = workloads.write_configs(workloads.make_jobs(workload, seed),
                                       workdir)
        times.append(time.perf_counter() - t0)
    return qfold.cli, jobs, statistics.median(times)


def work_dir():
    """A temporary directory for the job configs; it sits in the checkout,
    since the benchmark writes nothing outside it."""
    return tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT)


def run_pass(cli, jobs, before_job=None, probe=contextlib.nullcontext()):
    """Run the job list once: (seconds, [(code, stdout)]), timed end to end
    inside `probe`."""
    results = []
    gc.collect()
    with probe:
        t0 = time.perf_counter()
        for job in jobs:
            if before_job is not None:
                before_job()
            out, err = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    code = cli.main(list(job["argv"]))
            except (Exception, SystemExit) as exc:  # a crash is a failed job
                code = "raised %s: %s" % (type(exc).__name__, exc)
            results.append((code, out.getvalue()))
        elapsed = time.perf_counter() - t0
    return elapsed, results


def reference_loop():
    """Fixed pure-Python work, about 2 ms: dict updates keyed by small
    ints and multi-digit integer arithmetic, as in qfold's Laurent
    coefficient dicts.  Its one container is a dict of ints, which the
    garbage collector does not track, so it does not make collections of
    qfold's objects more frequent."""
    table = {}
    x = 1
    for i in range(REF_STEPS):
        key = (i & 63) << 8 | (x & 255)
        table[key] = table.get(key, 0) + x
        x = (x * 1103515245 + 12345) & 0xFFFFFFFFFFFF
    return x


class SpeedProbe:
    """Times reference_loop every REF_PERIOD_S of wall time while a pass
    runs, from a SIGALRM handler, so the samples share the pass's CPU and
    moment.  refs(elapsed) integrates the pass over the samples: the time
    between two samples, divided by the reference time measured there."""

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        reference_loop()
        self.samples.append(time.perf_counter() - t0)

    def refs(self, elapsed):
        """The pass's time without the samples, in reference-loop units."""
        busy = elapsed - sum(self.samples)
        return busy * statistics.fmean(1 / s for s in self.samples)


class Tally:
    """Runs the gate on every pass; counts attempted and failed jobs."""

    def __init__(self, jobs, golden):
        self.jobs = jobs
        self.golden = golden
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, results):
        outputs = [out for _, out in results]
        for k, (job, (code, out)) in enumerate(zip(self.jobs, results)):
            self.attempted += 1
            reason = gate.check(job, code, out)
            if reason is None and self.golden is not None \
                    and gate.digest(out) != self.golden[job["name"]]:
                reason = "stdout differs from the golden digest"
            if reason is None and self.first is not None \
                    and out != self.first[k]:
                reason = "stdout differs from the first pass"
            if reason is not None:
                self.failed += 1
                self.problems.append("%s: %s" % (job["name"], reason))
        if self.first is None:
            self.first = outputs
            self._negative_control(results)

    def _negative_control(self, results):
        """A corrupted copy of the first passing output must fail the gate."""
        for job, (code, out) in zip(self.jobs, results):
            if gate.check(job, code, out) is None:
                if gate.check(job, 0, gate.corrupt(job, out)) is None:
                    self.problems.append("%s: corrupted output passed the gate"
                                         % job["name"])
                return
        self.problems.append("no passing output for the negative control")


def load_golden(workload, seed):
    if seed != 0:
        return None
    return json.loads(GOLDEN.read_text())[workload]


def measure(cli, jobs, check, seconds):
    """Closed-loop passes for `seconds`; returns the pass times in seconds,
    the pass times in reference-loop units and the reference samples."""
    times, refs, samples = [], [], []
    start = time.perf_counter()
    while True:
        probe = SpeedProbe()
        elapsed, results = run_pass(cli, jobs, probe=probe)
        check.record(results)
        times.append(elapsed)
        refs.append(probe.refs(elapsed))
        samples.extend(probe.samples)
        if time.perf_counter() - start + statistics.median(times) > seconds:
            return times, refs, samples


def traced(cli, jobs, check):
    """One untraced and one traced pass; returns the per-layer metrics."""
    from layers import LayerTrace

    untraced_s, results = run_pass(cli, jobs)
    check.record(results)
    layer_trace = LayerTrace()
    layer_trace.install()
    try:
        traced_s, results = run_pass(cli, jobs, layer_trace.new_job)
    finally:
        layer_trace.uninstall()
    check.record(results)
    stdout_bytes = sum(len(out.encode()) for _, out in results)
    return layer_trace.metrics(stdout_bytes, traced_s / untraced_s)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "qfold" / "__init__.py").is_file():
        sys.stderr.write("perfbench: no qfold sources under %s\n" % SRC)
        return 2
    sys.path.insert(0, str(SRC))
    with work_dir() as workdir:
        cli, jobs, setup_s = setup(args.workload, args.seed, workdir)
        if not Path(cli.__file__).resolve().is_relative_to(SRC):
            sys.stderr.write("perfbench: qfold imported from %s\n"
                             % cli.__file__)
            return 2
        check = Tally(jobs, load_golden(args.workload, args.seed))
        info = {"workload": args.workload, "seed": args.seed,
                "words": {j["name"]: j["word"] for j in jobs},
                "python": platform.python_version(), "nproc": os.cpu_count()}
        if args.trace:
            metrics = traced(cli, jobs, check)
        else:
            times, refs, samples = measure(cli, jobs, check, args.seconds)
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics = {
                "wall_refs": (statistics.median(refs), "refs"),
                "setup_s": (setup_s, "s"),
                "peak_rss_mib": (peak_kib / 1024, "MiB"),
                "ok_frac": ((check.attempted - check.failed)
                            / check.attempted, "ratio"),
            }
            info["pass_s"] = times
            info["pass_refs"] = refs
            info["ref_sample_s"] = statistics.median(samples)
    info["problems"] = check.problems
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not check.problems,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
