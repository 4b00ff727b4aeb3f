"""Workload definitions and the seeded reduced-word generator.

A workload is a fixed list of qfold CLI jobs.  The workload seed rewrites
each job's reduced word by random moves that keep the Weyl group element;
seed 0 keeps the default words unchanged.

The workloads use only cost-neutral rewrites, so runs with different seeds
measure the same amount of work:

- commutation moves (s_i s_j = s_j s_i, where a_ij = 0), which keep the
  initial cluster and only relabel it;
- the Dynkin diagram automorphism, where the element is w0 (it maps w0 to
  itself and the computation to an isomorphic one).

Braid moves (m_ij >= 3) are left out: they change the initial cluster by a
mutation, and with it the cost of every job; seven A4 w0 words reached by
braid moves took between 2.2 s and 6.3 s each in seed-init on one 2-core
host.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

A4 = {"type": ["A", 4]}
A3 = {"type": ["A", 3]}
# C3 folded from A5 by its diagram flip; orbits {1,5}, {2,4}, {3}.
C3_FROM_A5 = {"quiver": {"vertices": [1, 2, 3, 4, 5],
                         "edges": [[1, 2], [3, 2], [3, 4], [5, 4]],
                         "automorphism": {"1": 5, "5": 1, "2": 4, "4": 2,
                                          "3": 3}}}
# G2 folded from D4 by triality; orbits {1,3,4}, {2}.
G2_FROM_D4 = {"quiver": {"vertices": [1, 2, 3, 4],
                         "edges": [[1, 2], [3, 2], [4, 2]],
                         "automorphism": {"1": 3, "3": 4, "4": 1, "2": 2}}}

A4_W0 = (1, 2, 1, 3, 2, 1, 4, 3, 2, 1)
A3_W0 = (1, 2, 1, 3, 2, 1)

# Steps of the lazy walk per rewritten word; enough to mix the class.
REWRITE_STEPS = 24

WORKLOADS = ("seed-init", "enumerate", "verify")


def _spec(name, command, input_spec=None, word=None, flip=None, flags=(),
          checks=None, expect=None):
    return {"name": name, "command": command, "input": input_spec,
            "word": word, "flip": flip, "flags": list(flags),
            "checks": checks, "expect": expect or {}}


def job_specs(workload):
    """The default job list of a workload, before the seed is applied.

    `flip` is the diagram automorphism as a letter map, given only where
    the job's element is w0.  `expect` holds the word-independent facts
    the output gate checks.
    """
    if workload == "seed-init":
        return [
            _spec("A4-w0", "seed-init", A4, A4_W0, flip=_reverse(4)),
            _spec("C3-from-A5", "seed-init", C3_FROM_A5, (3, 2, 3, 1, 2)),
            _spec("G2-from-D4", "seed-init", G2_FROM_D4, (1, 2, 1, 2)),
        ]
    if workload == "enumerate":
        return [_spec("A4-w0", "enumerate", A4, A4_W0, flip=_reverse(4),
                      expect={"seeds": 672, "edges": 4032,
                              "cluster_variables": 40})]
    if workload == "verify":
        return [
            _spec("catalog-slow", "verify", flags=["--slow"],
                  expect={"total": 20}),
            _spec("A3-w0-cluster-monomials", "verify", A3, A3_W0,
                  flip=_reverse(3), checks="cluster_monomials",
                  expect={"total": 1,
                          "details": "378 monomials over 14 seeds"}),
        ]
    raise ValueError("unknown workload %r" % (workload,))


def _reverse(rank):
    return {i: rank + 1 - i for i in range(1, rank + 1)}


# ---------------------------------------------------------------------------
# Reduced-word moves
# ---------------------------------------------------------------------------


def commute_moves(datum, word):
    """Positions p where word[p] and word[p + 1] commute (a_ij = 0)."""
    return [p for p in range(len(word) - 1)
            if word[p] != word[p + 1] and datum.a(word[p], word[p + 1]) == 0]


def rewrite(datum, word, rng, steps, flip=None):
    """A seeded rewrite of a reduced word that keeps its element.

    Applies `flip` (a diagram automorphism fixing the element) with
    probability 1/2, then `steps` steps of a lazy random walk over the
    commutation moves.
    Asserts that the result is reduced and gives the same element.
    """
    from qfold.rootdata import is_reduced, weyl_equal

    out = tuple(word)
    if flip is not None and rng.random() < 0.5:
        out = tuple(flip[x] for x in out)
    for _ in range(steps):
        # A lazy walk (it may stay put), so a word with a single move does
        # not just flip back and forth with the parity of `steps`.
        p = rng.choice(commute_moves(datum, out) + [None])
        if p is not None:
            out = out[:p] + (out[p + 1], out[p]) + out[p + 2:]
    if not (is_reduced(datum, out) and weyl_equal(datum, out, word)):
        raise AssertionError("rewrite of %r left the element: %r"
                             % (word, out))
    return out


# ---------------------------------------------------------------------------
# Job generation
# ---------------------------------------------------------------------------


def _seeded_word(spec, seed, workload, index):
    """The job's word for this seed, in the config's letter convention."""
    from qfold.verify import resolve_input

    datum, quiver = resolve_input(spec["input"])
    if quiver is None:
        to_datum = from_datum = lambda x: x
    else:
        orbit_of = {v: orbit for orbit in datum.indices for v in orbit}
        to_datum = orbit_of.__getitem__
        from_datum = min
    word = tuple(to_datum(x) for x in spec["word"])
    if seed == 0:
        return list(spec["word"])
    rng = random.Random("%s/%d/%d" % (workload, seed, index))
    flip = spec["flip"]
    if flip is not None and quiver is not None:
        raise ValueError("diagram flips are defined on unfolded types only")
    new = rewrite(datum, word, rng, REWRITE_STEPS, flip=flip)
    return [from_datum(x) for x in new]


def make_jobs(workload, seed):
    """The workload's jobs for a seed: CLI argv tail, config and checks."""
    jobs = []
    for index, spec in enumerate(job_specs(workload)):
        job = {"name": spec["name"], "command": spec["command"],
               "flags": spec["flags"], "expect": spec["expect"],
               "word": None, "config": None}
        if spec["word"] is not None:
            job["word"] = _seeded_word(spec, seed, workload, index)
            if spec["checks"] is None:
                job["config"] = {"input": spec["input"], "word": job["word"]}
            else:
                job["config"] = {"checks": [
                    {"check": spec["checks"], "input": spec["input"],
                     "word": job["word"], "max_exponent": 1}]}
        jobs.append(job)
    return jobs


def write_configs(jobs, workdir):
    """Write each job's config file and set its full CLI argv."""
    for k, job in enumerate(jobs):
        argv = [job["command"]] + job["flags"]
        if job["config"] is not None:
            path = Path(workdir) / ("job%d.json" % k)
            path.write_text(json.dumps(job["config"], sort_keys=True))
            argv += ["--config", str(path)]
        job["argv"] = argv
    return jobs
