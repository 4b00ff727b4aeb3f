"""Byte-for-byte regression test of the CLI against a recorded corpus.

`data_cli_golden.json` holds the stdout, stderr and exit code of every
command on three inputs (A2, A3 and C2 folded from A3), plus `verify`
on the fast catalog, on both catalogs, on both with `--max-steps 5` and
with `--max-steps 1`, on one `cluster_monomials` check over the A3 w0 exchange graph, and on one
inline list of checks that each fail; and `enumerate` with a `--max-steps`
below 1, an input error.
Regenerate it only for an intended output change:

    PYTHONPATH=src python3 tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from qfold import qcluster
from qfold.cli import main

CORPUS = Path(__file__).with_name("data_cli_golden.json")

INPUTS = {
    "A2": {"input": {"type": ["A", 2]}, "word": [1, 2, 1],
           "mutations": [1, 1]},
    "A3": {"input": {"type": ["A", 3]}, "word": [1, 2, 1, 3, 2, 1],
           "mutations": [1, 2, 3, 1]},
    "C2": {"input": {"quiver": {"vertices": [1, 2, 3],
                                "edges": [[1, 2], [3, 2]],
                                "automorphism": {"1": 3, "2": 2, "3": 1}}},
           "word": [1, 2, 1, 2], "mutations": [1, 2, 1]},
}

COMMANDS = [["fold"], ["roots"], ["initquiver"], ["initquiver", "--dot"],
            ["seed-init"], ["mutate"], ["enumerate"]]


def cases():
    """{case id: (argv without --config, config or None)}."""
    out = {}
    for name, config in INPUTS.items():
        for argv in COMMANDS:
            out["%s/%s" % (name, " ".join(argv))] = (argv, config)
    out["verify"] = (["verify"], None)
    out["verify --slow"] = (["verify", "--slow"], None)
    out["verify --slow --max-steps 5"] = (
        ["verify", "--slow", "--max-steps", "5"], None)
    out["verify --slow --max-steps 1"] = (
        ["verify", "--slow", "--max-steps", "1"], None)
    out["A3/verify cluster_monomials"] = (["verify"], {"checks": [
        {"check": "cluster_monomials", "input": {"type": ["A", 3]},
         "word": [1, 2, 1, 3, 2, 1], "max_exponent": 1}]})
    a2 = INPUTS["A2"]["input"]
    out["A2/verify failing checks"] = (["verify"], {"checks": [
        {"check": "word_independence", "input": a2, "words": [[1, 2], [2, 1]]},
        {"check": "word_independence", "input": a2, "words": [[1, 1], [1, 1]]},
        {"check": "restriction_factorization", "input": a2, "fundamental": 1,
         "chain_words": [[1], [1, 2, 1], []]},
        {"check": "exchange_relation", "input": a2, "word": [1, 2, 1],
         "direction": 3},
        {"check": "no_such_check", "input": a2}]})
    out["A2/enumerate --max-steps 0"] = (
        ["enumerate", "--max-steps", "0"], INPUTS["A2"])
    return out


def run_case(argv, config, workdir):
    """(exit code, stdout, stderr) of one in-process CLI run."""
    if config is not None:
        path = Path(workdir) / "config.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _record():
    corpus = {}
    with tempfile.TemporaryDirectory() as workdir:
        for case, (argv, config) in cases().items():
            code, out, err = run_case(argv, config, workdir)
            corpus[case] = {"exit": code,
                            "stdout": out.splitlines(keepends=True),
                            "stderr": err.splitlines(keepends=True)}
    CORPUS.write_text(json.dumps(corpus, indent=1) + "\n")


GOLDEN = json.loads(CORPUS.read_text()) if CORPUS.exists() else {}


@pytest.mark.parametrize("case", sorted(cases()))
def test_cli_output_matches_corpus(case, tmp_path):
    argv, config = cases()[case]
    expected = GOLDEN[case]
    code, out, err = run_case(argv, config, tmp_path)
    assert code == expected["exit"]
    assert out == "".join(expected["stdout"])
    assert err == "".join(expected["stderr"])


def test_c2_type_enumerates_like_its_folded_quiver(tmp_path):
    # The C2 type input and the A3 quiver it folds from give one exchange
    # graph: enumerate's output names positions, not letters.
    config = {"input": {"type": ["C", 2]}, "word": [1, 2, 1, 2]}
    code, out, err = run_case(["enumerate"], config, tmp_path)
    assert (code, err) == (0, "")
    assert out == "".join(GOLDEN["C2/enumerate"]["stdout"])


def test_a4_enumerate_output_and_work(tmp_path, monkeypatch):
    # The benchmark's enumerate job at seed 0.  Its 4032 edges are all
    # checked, but only the 672 stored seeds are built: one compatibility
    # check per seed, one exchange step per new variable, one mutated pair
    # per new seed.  Every edge computes its new row of Lambda once, and
    # the build of the mutated pair takes that row from the edge.
    names = ("check_compatible", "mutated_variable", "mutation_step",
             "mutate_pair", "mutated_lambda_row")
    calls = dict.fromkeys(names + ("seeds",), 0)

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in names:
        monkeypatch.setattr(qcluster, name,
                            counted(name, getattr(qcluster, name)))
    monkeypatch.setattr(qcluster.QuantumSeed, "__post_init__",
                        counted("seeds", qcluster.QuantumSeed.__post_init__))
    config = {"input": {"type": ["A", 4]},
              "word": [1, 2, 1, 3, 2, 1, 4, 3, 2, 1]}
    code, out, err = run_case(["enumerate"], config, tmp_path)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "436215e8267e491f19f91076ad9ca90f835bca4bf9b6c8f286796e70b3b3ca1a"
    graph = json.loads(out)
    assert (graph["seeds"], len(graph["edges"]),
            len(graph["cluster_variables"])) == (672, 4032, 40)
    assert calls == {"check_compatible": 672, "mutated_variable": 30,
                     "mutation_step": 4032, "mutate_pair": 671,
                     "mutated_lambda_row": 4032, "seeds": 672}


if __name__ == "__main__":
    _record()
