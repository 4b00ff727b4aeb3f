"""Byte-for-byte regression test of the CLI against a recorded corpus.

`data_cli_golden.json` holds the stdout, stderr and exit code of every
command on three inputs (A2, A3 and C2 folded from A3), plus plain
`verify`.  Regenerate it only for an intended output change:

    PYTHONPATH=src python3 tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

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


if __name__ == "__main__":
    _record()
