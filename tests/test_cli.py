"""End-to-end tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from qfold import rootdata, uqn
from qfold.cli import main

A3_QUIVER_CONFIG = {
    "input": {"quiver": {"vertices": [1, 2, 3], "edges": [[1, 2], [3, 2]],
                         "automorphism": {"1": 3, "2": 2, "3": 1}}},
}


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _write(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_fold_command(tmp_path, capsys):
    path = _write(tmp_path, A3_QUIVER_CONFIG)
    code, out, _ = _run(capsys, ["fold", "--config", path])
    assert code == 0
    data = json.loads(out)
    assert data["cartan"]["cartan"] == [[2, -1], [-2, 2]]
    assert data["cartan"]["symmetrizers"] == [2, 1]
    assert data["orbits"] == [[1, 3], [2]]


def test_fold_identity_echo(tmp_path, capsys):
    config = {"input": {"quiver": {"vertices": [1, 2],
                                   "edges": [[1, 2]]}}}
    path = _write(tmp_path, config)
    code, out, _ = _run(capsys, ["fold", "--config", path])
    assert code == 0
    assert json.loads(out)["cartan"]["cartan"] == [[2, -1], [-1, 2]]


def test_fold_rejects_intra_orbit_edge(tmp_path, capsys):
    config = {"input": {"quiver": {"vertices": [1, 2], "edges": [[1, 2]],
                                   "automorphism": {"1": 2, "2": 1}}}}
    path = _write(tmp_path, config)
    code, _, err = _run(capsys, ["fold", "--config", path])
    assert code == 2
    assert "orbit" in err


def test_schema_violation_is_input_error(tmp_path, capsys):
    path = _write(tmp_path, {"unexpected": 1})
    code, _, err = _run(capsys, ["fold", "--config", path])
    assert code == 2
    assert "schema" in err


def test_roots_command(tmp_path, capsys):
    path = _write(tmp_path, {"input": {"type": ["A", 2]}, "word": [1, 2, 1]})
    code, out, _ = _run(capsys, ["roots", "--config", path])
    assert code == 0
    data = json.loads(out)
    assert data["reduced"] is True
    assert data["inversion_roots"] == [[1, 0], [1, 1], [0, 1]]
    # A non-reduced word shows as a negative inversion root.
    path = _write(tmp_path, {"input": {"type": ["A", 2]}, "word": [1, 2, 2]})
    code, out, _ = _run(capsys, ["roots", "--config", path])
    assert code == 0
    data = json.loads(out)
    assert data["reduced"] is False
    assert data["inversion_roots"] == [[1, 0], [1, 1], [-1, -1]]


def test_initquiver_dot_and_json(tmp_path, capsys):
    path = _write(tmp_path, {"input": {"type": ["A", 2]}, "word": [1, 2, 1]})
    code, out, _ = _run(capsys, ["initquiver", "--config", path, "--dot"])
    assert code == 0
    assert out.startswith("digraph staircase {")
    assert 'peripheries=2' in out
    code, out2, _ = _run(capsys, ["initquiver", "--config", path])
    assert code == 0
    data = json.loads(out2)
    assert data["frozen"] == [2, 3]
    assert data["exchange"]["matrix"] == [[0], [-1], [1]]


def test_initquiver_non_reduced_word(tmp_path, capsys):
    path = _write(tmp_path, {"input": {"type": ["A", 2]}, "word": [1, 1]})
    code, _, err = _run(capsys, ["initquiver", "--config", path])
    assert code == 2
    assert "not reduced" in err


@pytest.mark.parametrize("command",
                         ["roots", "initquiver", "seed-init", "enumerate"])
@pytest.mark.parametrize("config", [
    {"input": {"type": ["A", 2]}, "word": [1, 2, 7]},
    dict(A3_QUIVER_CONFIG, word=[1, 2, 7]),
])
def test_unknown_word_letter_is_input_error(tmp_path, capsys, command, config):
    path = _write(tmp_path, config)
    code, out, err = _run(capsys, [command, "--config", path])
    assert code == 2
    assert out == ""
    assert err.startswith("input error: ") and "7" in err


def test_initquiver_folded_exchange(tmp_path, capsys):
    config = dict(A3_QUIVER_CONFIG, word=[1, 2, 1, 2])
    path = _write(tmp_path, config)
    code, out, _ = _run(capsys, ["initquiver", "--config", path])
    assert code == 0
    data = json.loads(out)
    assert data["exchange"]["matrix"] == [[0, 1], [-2, 0], [1, -1], [0, 1]]


def test_initquiver_refuses_a_symmetrizable_type(tmp_path, capsys):
    # A C2 staircase quiver lives on the unfolded word, which a type input
    # does not name: exit 2 rather than print a skew-symmetric matrix.
    path = _write(tmp_path, {"input": {"type": ["C", 2]},
                             "word": [1, 2, 1, 2]})
    code, out, err = _run(capsys, ["initquiver", "--config", path])
    assert code == 2
    assert out == ""
    assert err.startswith("input error: symmetrizable datum given without "
                          "its quiver-with-automorphism")


def test_seed_init_and_mutate_trace(tmp_path, capsys):
    base = {"input": {"type": ["A", 2]}, "word": [1, 2, 1]}
    path = _write(tmp_path, base)
    code, out, _ = _run(capsys, ["seed-init", "--config", path])
    assert code == 0
    seed = json.loads(out)
    assert seed["e"] == {"1": 1}
    assert seed["lambda"][0][1] == 1

    path = _write(tmp_path, dict(base, mutations=[]))
    code, out, _ = _run(capsys, ["mutate", "--config", path])
    assert json.loads(out)["trace"][0]["lambda"] == seed["lambda"]

    path = _write(tmp_path, dict(base, mutations=[1, 1]))
    code, out, _ = _run(capsys, ["mutate", "--config", path])
    assert code == 0
    trace = json.loads(out)["trace"]
    assert len(trace) == 3
    assert trace[0]["variables"] == trace[2]["variables"]
    assert trace[0]["lambda"] == trace[2]["lambda"]

    path = _write(tmp_path, dict(base, mutations=[2]))
    code, _, err = _run(capsys, ["mutate", "--config", path])
    assert code == 2


def test_enumerate_command(tmp_path, capsys):
    path = _write(tmp_path, {"input": {"type": ["A", 2]}, "word": [1, 2, 1]})
    code, out, _ = _run(capsys, ["enumerate", "--config", path])
    assert code == 0
    data = json.loads(out)
    assert data["seeds"] == 2
    assert data["complete"] is True
    assert len(data["cluster_variables"]) == 4
    code, out, _ = _run(capsys, ["enumerate", "--max-steps", "1",
                                 "--config", path])
    assert code == 0
    assert json.loads(out)["seeds"] == 1


@pytest.mark.parametrize("command", ["enumerate", "verify"])
@pytest.mark.parametrize("bound", ["0", "-3"])
def test_max_steps_below_one_is_input_error(tmp_path, capsys, command,
                                            bound):
    path = _write(tmp_path, {"input": {"type": ["A", 2]}, "word": [1, 2, 1]})
    code, out, err = _run(capsys, [command, "--max-steps", bound,
                                   "--config", path])
    assert (code, out) == (2, "")
    assert err == "input error: --max-steps must be at least 1, got %s\n" \
        % bound


def test_runs_share_no_pairing_images(tmp_path, capsys, monkeypatch):
    # Each run pairs roots over the Cartan data it builds itself, whose
    # memos of pairing images start empty: a second run of the same job
    # computes as many images as the first.
    computed = []
    image = rootdata.CartanDatum._image

    def counted(datum, coords):
        computed.append(coords)
        return image(datum, coords)

    monkeypatch.setattr(rootdata.CartanDatum, "_image", counted)
    path = _write(tmp_path, {"input": {"type": ["A", 3]},
                             "word": [1, 2, 1, 3, 2, 1]})
    counts = []
    for _ in range(2):
        computed.clear()
        code, out, _ = _run(capsys, ["enumerate", "--config", path])
        assert code == 0
        counts.append(len(computed))
    assert counts[0] == counts[1] > 0
    assert len(set(computed)) == counts[1]


def test_verify_runs_share_no_oracle(capsys, monkeypatch):
    # A verify run makes one oracle context per Cartan datum (A1, A2, A3
    # and C2 folded from A3), shares it across its checks and drops it at
    # the end: no minor is realized twice within a run, and a second run
    # realizes as many minors as the first.
    realized, made = [], []
    realize = uqn._realize_minor
    init = uqn.OracleContext.__init__

    def counted_realize(spec, context):
        realized.append(spec)
        return realize(spec, context)

    def counted_init(context, datum):
        made.append(datum)
        init(context, datum)

    monkeypatch.setattr(uqn, "_realize_minor", counted_realize)
    monkeypatch.setattr(uqn.OracleContext, "__init__", counted_init)
    counts = []
    for _ in range(2):
        realized.clear()
        made.clear()
        code, _, _ = _run(capsys, ["verify", "--slow"])
        assert code == 0
        assert len(set(realized)) == len(realized) > 0
        assert len(set(made)) == len(made) == 4
        counts.append(len(realized))
    assert counts[0] == counts[1]


def test_enumerate_stays_out_of_the_oracle(tmp_path, capsys, monkeypatch):
    # The torus seed comes from the word alone: no oracle context is made
    # and no shuffle element is built.
    def refuse(*args, **kwargs):
        raise AssertionError("enumerate entered the oracle")

    monkeypatch.setattr(uqn.OracleContext, "__init__", refuse)
    monkeypatch.setattr(uqn.ShuffleElement, "__post_init__", refuse)
    path = _write(tmp_path, {"input": {"type": ["A", 3]},
                             "word": [1, 2, 1, 3, 2, 1]})
    code, out, _ = _run(capsys, ["enumerate", "--config", path])
    assert code == 0
    data = json.loads(out)
    assert data["seeds"] == 14 and data["complete"] is True
    assert len(data["edges"]) == 42
    assert len(data["cluster_variables"]) == 12


def test_verify_command(tmp_path, capsys):
    checks = [{"check": "initial_lambda", "input": {"type": ["A", 2]},
               "word": [1, 2, 1]},
              {"check": "negative_control"}]
    path = _write(tmp_path, {"checks": checks})
    code, out, _ = _run(capsys, ["verify", "--config", path])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert json.loads(lines[-1])["summary"] == {"total": 2, "failed": 0}


def test_verify_failure_exit_code(tmp_path, capsys):
    checks = [{"check": "exchange_relation", "input": {"type": ["A", 2]},
               "word": [1, 2, 1], "direction": 3}]
    path = _write(tmp_path, {"checks": checks})
    code, out, _ = _run(capsys, ["verify", "--config", path])
    assert code == 1
    assert json.loads(out.strip().splitlines()[-1])["summary"]["failed"] == 1


def test_verify_reports_a_field_its_check_does_not_read(tmp_path, capsys):
    # A misspelt max_exponent is an error report naming the field and the
    # kind, not a pass under the default max_exponent 1.
    entry = {"check": "cluster_monomials", "input": {"type": ["A", 2]},
             "word": [1, 2, 1], "max_exponet": 2}
    path = _write(tmp_path, {"checks": [entry]})
    code, out, _ = _run(capsys, ["verify", "--config", path])
    report, summary = map(json.loads, out.splitlines())
    assert (code, report["status"], report["instance"]) == (1, "fail", entry)
    assert report["details"] == ("error: check kind 'cluster_monomials' "
                                 "reads no field 'max_exponet'")
    assert summary["summary"] == {"total": 1, "failed": 1}


def test_max_steps_caps_a_word_independence_entry_without_bound(
        tmp_path, capsys):
    # The entry takes the default bound 200, and --max-steps caps it: at 1
    # the walk stops at the first seed past the bound.
    entry = {"check": "word_independence", "input": {"type": ["A", 2]},
             "words": [[1, 2, 1], [2, 1, 2]]}
    path = _write(tmp_path, {"checks": [entry]})
    code, out, _ = _run(capsys, ["verify", "--config", path])
    report = json.loads(out.splitlines()[0])
    assert (code, report["instance"]["bound"]) == (0, 200)
    code, out, _ = _run(capsys, ["verify", "--config", path,
                                 "--max-steps", "1"])
    report = json.loads(out.splitlines()[0])
    assert report["instance"] == dict(entry, bound=1)
    assert (code, report["details"]) \
        == (1, "error: exchange graph exceeded bound")


def test_initquiver_worked_figure_golden_dot(tmp_path, capsys):
    from pathlib import Path
    config = {"input": {"indices": [1, 2, 3],
                        "cartan": [[2, -3, -4], [-3, 2, -2], [-4, -2, 2]],
                        "symmetrizers": [1, 1, 1]},
              "word": [1, 2, 1, 3, 1, 2, 1, 2, 3, 2]}
    path = _write(tmp_path, config)
    code, out, _ = _run(capsys, ["initquiver", "--config", path, "--dot"])
    assert code == 0
    golden = Path(__file__).with_name("data_staircase_golden.dot").read_text()
    assert out == golden


def test_verify_slow_catalog(tmp_path, capsys):
    code, out, _ = _run(capsys, ["verify", "--slow"])
    assert code == 0
    lines = out.strip().splitlines()
    summary = json.loads(lines[-1])["summary"]
    assert summary["failed"] == 0
    checks = [json.loads(line) for line in lines[:-1]]
    assert any(c["check"] == "word_independence"
               and c["instance"]["input"] == {"type": ["A", 3]}
               for c in checks)


def test_raw_cartan_datum_input(tmp_path, capsys):
    config = {"input": {"indices": [1, 2],
                        "cartan": [[2, -1], [-1, 2]],
                        "symmetrizers": [1, 1]},
              "word": [1, 2, 1]}
    path = _write(tmp_path, config)
    code, out, _ = _run(capsys, ["seed-init", "--config", path])
    assert code == 0
    assert json.loads(out)["e"] == {"1": 1}
    bad = dict(config, input={"indices": [1, 2],
                              "cartan": [[2, -1], [-2, 2]],
                              "symmetrizers": [1, 1]})
    path = _write(tmp_path, bad)
    code, _, err = _run(capsys, ["seed-init", "--config", path])
    assert code == 2
    assert "symmetrizable" in err


def test_singular_cartan_datum_is_accepted(tmp_path, capsys):
    # Affine A1 has a singular Cartan matrix.  The seed degrees are integer
    # roots read off the word, so no solve for root coordinates can fail.
    config = {"input": {"indices": [1, 2], "cartan": [[2, -2], [-2, 2]],
                        "symmetrizers": [1, 1]},
              "word": [1, 2, 1]}
    path = _write(tmp_path, config)
    code, out, err = _run(capsys, ["seed-init", "--config", path])
    assert (code, err) == (0, "")
    data = json.loads(out)
    degrees = [v["degree"] for v in data["variables"]]
    assert degrees == [[1, 0], [2, 1], [4, 2]]
    assert [data["minors"][t]["weight"] for t in "123"] == degrees
    code, out, err = _run(capsys, ["enumerate", "--config", path])
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert data["seeds"] == 2 and data["complete"] is True


@pytest.mark.parametrize("spec", [
    {"indices": [1, 2], "cartan": [[2, -1], [-1, 2]],
     "symmetrizers": [1.0, 1.0]},
    {"type": ["A", 2.5]},
])
def test_float_in_config_is_input_error(tmp_path, capsys, spec):
    # Neither is rounded to A2: the datum rejects the float symmetrizers,
    # which the schema admits, and the schema rejects the float rank.
    path = _write(tmp_path, {"input": spec, "word": [1, 2, 1]})
    code, out, err = _run(capsys, ["seed-init", "--config", path])
    assert code == 2
    assert out == ""
    assert err


def test_bool_rank_is_input_error(tmp_path, capsys):
    # A JSON true is not the rank 1.
    path = _write(tmp_path, {"input": {"type": ["A", True]}, "word": [1]})
    code, out, err = _run(capsys, ["roots", "--config", path])
    assert code == 2
    assert out == ""
    assert "schema violation" in err


def test_outputs_are_deterministic(tmp_path, capsys):
    path = _write(tmp_path, {"input": {"type": ["A", 2]}, "word": [1, 2, 1]})
    _, out1, _ = _run(capsys, ["seed-init", "--config", path])
    _, out2, _ = _run(capsys, ["seed-init", "--config", path])
    assert out1 == out2
