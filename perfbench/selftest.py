"""Self-tests of the benchmark itself (not part of the qfold test suite).

    python3 perfbench/selftest.py

Covers the word generator, the output gate and its negative controls, the
reference-loop speed probe, the traced run (same stdout as untraced, counts that repeat exactly), the
metric names against BENCHMARK.json, and the refusal to run without the
qfold sources.  Uses small A2/A3 jobs, so it takes well under a minute.
"""

from __future__ import annotations

import json
import random
import shutil
import signal
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from qfold import cli  # noqa: E402
from qfold.rootdata import cartan_datum, is_reduced, weyl_equal  # noqa: E402
from qfold.verify import resolve_input  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
A3 = {"type": ["A", 3]}
C2_FROM_A3 = {"quiver": {"vertices": [1, 2, 3], "edges": [[1, 2], [3, 2]],
                         "automorphism": {"1": 3, "2": 2, "3": 1}}}


def _job(name, command, config=None, flags=(), word=None, expect=None):
    return {"name": name, "command": command, "flags": list(flags),
            "config": config, "word": word, "expect": expect or {}}


def mini_jobs():
    """One small job per command, with the gate's expectations."""
    w0 = [1, 2, 1, 3, 2, 1]
    return [
        _job("A3-seed", "seed-init", {"input": A3, "word": w0}, word=w0),
        _job("C2-seed", "seed-init", {"input": C2_FROM_A3,
                                      "word": [1, 2, 1, 2]},
             word=[1, 2, 1, 2]),
        _job("A3-enumerate", "enumerate", {"input": A3, "word": w0},
             word=w0, expect={"seeds": 14, "edges": 42,
                              "cluster_variables": 12}),
        _job("A2-monomials", "verify", {"checks": [
            {"check": "cluster_monomials", "input": {"type": ["A", 2]},
             "word": [1, 2, 1], "max_exponent": 1}]},
             expect={"total": 1}),
    ]


class GeneratorTest(unittest.TestCase):
    def test_rewrites_keep_the_element(self):
        cases = [(cartan_datum("A", 4), workloads.A4_W0,
                  workloads._reverse(4)),
                 (resolve_input(workloads.C3_FROM_A5)[0],
                  ((3,), (2, 4), (3,), (1, 5), (2, 4)), None)]
        for datum, word, flip in cases:
            seen = set()
            for seed in range(40):
                out = workloads.rewrite(datum, word, random.Random(seed), 12,
                                        flip=flip)
                self.assertTrue(is_reduced(datum, out))
                self.assertTrue(weyl_equal(datum, out, word))
                seen.add(out)
            self.assertGreater(len(seen), 1, datum)

    def test_g2_word_has_no_commutation_move(self):
        datum = cartan_datum("G", 2)
        self.assertEqual(workloads.commute_moves(datum, (1, 2, 1, 2)), [])

    def test_seeded_jobs(self):
        for workload in workloads.WORKLOADS:
            default = workloads.job_specs(workload)
            jobs0 = workloads.make_jobs(workload, 0)
            self.assertEqual([j["word"] for j in jobs0],
                             [None if s["word"] is None else list(s["word"])
                              for s in default])
            self.assertEqual(workloads.make_jobs(workload, 7),
                             workloads.make_jobs(workload, 7))
        words = {tuple(workloads.make_jobs("enumerate", s)[0]["word"])
                 for s in range(1, 11)}
        self.assertGreater(len(words), 1)


class GateTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with run.work_dir() as tmp:
            cls.jobs = workloads.write_configs(mini_jobs(), tmp)
            _, cls.results = run.run_pass(cli, cls.jobs)

    def test_outputs_pass(self):
        for job, (code, out) in zip(self.jobs, self.results):
            self.assertIsNone(gate.check(job, code, out), job["name"])

    def test_negative_controls_fail(self):
        for job, (_, out) in zip(self.jobs, self.results):
            self.assertIsNotNone(gate.check(job, 0, gate.corrupt(job, out)),
                                 job["name"])

    def test_flipped_lambda_entry_counts_as_failed(self):
        job, (code, out) = self.jobs[0], self.results[0]
        check = run.Tally([job], None)
        check.record([(code, out)])
        check.record([(code, gate.corrupt(job, out))])
        self.assertEqual((check.attempted, check.failed), (2, 1))

    def test_exit_code_and_crash_count_as_failed(self):
        job = self.jobs[0]
        self.assertIsNotNone(gate.check(job, 2, ""))
        self.assertIsNotNone(gate.check(job, "raised ValueError: x", ""))
        self.assertIsNotNone(gate.check(job, 0, "not json"))


class SpeedProbeTest(unittest.TestCase):
    def test_probed_pass_keeps_outputs_and_restores_the_timer(self):
        with run.work_dir() as tmp:
            jobs = workloads.write_configs(mini_jobs(), tmp)
            _, plain = run.run_pass(cli, jobs)
            probe = run.SpeedProbe()
            elapsed, probed = run.run_pass(cli, jobs, probe=probe)
        self.assertEqual(probed, plain)
        self.assertGreaterEqual(len(probe.samples),
                                int(elapsed / run.REF_PERIOD_S) - 1)
        self.assertGreater(probe.refs(elapsed), 0)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        self.assertIs(signal.getsignal(signal.SIGALRM), signal.SIG_DFL)

    def test_refs_integrates_over_the_samples(self):
        probe = run.SpeedProbe()
        probe.samples = [0.5, 0.25, 0.25]
        self.assertAlmostEqual(probe.refs(3.0), 2.0 * (2 + 4 + 4) / 3)


class TraceTest(unittest.TestCase):
    def traced_run(self, jobs):
        check = run.Tally(jobs, None)
        metrics = run.traced(cli, jobs, check)
        return check, metrics

    def test_traced_run(self):
        with run.work_dir() as tmp:
            jobs = workloads.write_configs(mini_jobs(), tmp)
            check1, first = self.traced_run(jobs)
            check2, second = self.traced_run(jobs)
        # Traced stdout equals untraced stdout: the gate compares every
        # pass with the first (untraced) one.
        self.assertEqual(check1.problems, [])
        self.assertEqual(check2.problems, [])
        counts = {name for name, (_, unit) in first.items() if unit != "s"
                  and name != "trace.overhead_ratio"}
        for name in counts:
            self.assertEqual(first[name], second[name], name)
        # A3 enumeration: 14 seeds x 3 directions; A2 monomials: 2 x 1.
        self.assertEqual(first["qcluster.mutate_seed.calls"][0], 42 + 2)
        self.assertEqual(first["qcluster.mutate_seed.useful_ratio"][0],
                         (13 + 1) / (42 + 2))
        self.assertGreater(first["uqn.shuffle_divide_left.calls"][0], 0)
        # The wrappers are gone after the run.
        self.assertEqual(cli.main.__module__, "qfold.cli")
        self.assertNotIn("wrapper", cli.main.__qualname__)

    def test_names_match_benchmark_json(self):
        declared = [(m["name"], m["unit"], m["better"])
                    for m in BENCHMARK["per_layer"]]
        self.assertEqual(declared, layers.metric_specs())


class ContractTest(unittest.TestCase):
    def run_py(self, cwd, *args):
        return subprocess.run(
            [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
            cwd=cwd, capture_output=True, text=True, timeout=170)

    def test_end_to_end_result_line(self):
        proc = self.run_py(ROOT, "--workload", "verify", "--seed", "0",
                           "--seconds", "1", "--trace", "0")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertEqual(sorted(result),
                         ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertEqual(
            {k: v["unit"] for k, v in result["metrics"].items()},
            {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]})

    def test_refuses_without_sources(self):
        with run.work_dir() as tmp:
            path = Path(tmp)
            shutil.copytree(HERE, path / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", path)
            proc = self.run_py(path, "--workload", "verify", "--seed", "1",
                               "--seconds", "1", "--trace", "0")
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
