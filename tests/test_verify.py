"""Tests for the verification harness and its instance catalogs."""

from __future__ import annotations

import pytest

from qfold.laurent import LaurentScalar
from qfold.rootdata import bilinear_form, cartan_datum
from qfold.uqn import (
    MinorSpec,
    OracleContext,
    extremal_word,
    minor_to_shuffle,
    qcommute_exponent,
    shuffle_product,
)
from qfold.verify import (
    check_cluster_monomials,
    check_dual_canonical_conditions,
    check_exchange_relation,
    check_initial_lambda,
    check_negative_control,
    check_restriction_factorization,
    check_square_identity,
    check_word_independence,
    load_catalog,
    realized_exchange_graph,
    resolve_input,
    run_catalog,
    run_check,
)

A2_INPUT = {"type": ["A", 2]}
C2_QUIVER = {"quiver": {"vertices": [1, 2, 3], "edges": [[1, 2], [3, 2]],
                        "automorphism": {"1": 3, "2": 2, "3": 1}}}


def test_initial_lambda_pass():
    r = check_initial_lambda(A2_INPUT, (1, 2, 1))
    assert r.passed and "e = {'1': 1}" in r.details
    r = check_initial_lambda({"type": ["A", 1]}, (1,))
    assert r.passed
    r = check_initial_lambda(C2_QUIVER, (1, 2, 1, 2))
    assert r.passed and "'1': 2" in r.details


def test_symmetrizable_without_quiver_rejected():
    with pytest.raises(ValueError):
        check_initial_lambda({"type": ["C", 2]}, (1, 2, 1, 2))


def test_exchange_relation_a2():
    r = check_exchange_relation(A2_INPUT, (1, 2, 1), 1)
    assert r.passed
    assert "theta*_2" in r.details or "w_2" in r.details


def test_exchange_relation_c2_first_direction():
    r = check_exchange_relation(C2_QUIVER, (1, 2, 1, 2), 1)
    assert r.passed


def test_exchange_relation_frozen_direction_fails():
    r = check_exchange_relation(A2_INPUT, (1, 2, 1), 3)
    assert not r.passed


def test_square_identity_and_sign_negative_control():
    r = check_square_identity(A2_INPUT, 2, (1, 2))
    assert r.passed and "exponent -1" in r.details
    # mu = zeta: both sides are the unit, exponent 0.
    r = check_square_identity(A2_INPUT, 2, ())
    assert r.passed and "exponent 0" in r.details
    # Negative control: the opposite exponent sign genuinely fails.
    datum = cartan_datum("A", 2)
    ctx = OracleContext(datum)
    lam = datum.fundamental_weight(2)
    d = minor_to_shuffle(MinorSpec(lam, (1, 2)), ctx)
    doubled = minor_to_shuffle(MinorSpec(2 * lam, (1, 2)), ctx)
    n = bilinear_form(d.weight, d.weight) // 2
    assert shuffle_product(d, d) != doubled.scale(LaurentScalar.q_power(n))


def test_restriction_factorization():
    r = check_restriction_factorization(A2_INPUT, 2, [(1, 2), (2,), ()])
    assert r.passed
    # Wrong chain ordering is rejected.
    r = check_restriction_factorization(A2_INPUT, 2, [(), (2,), (1, 2)])
    assert not r.passed


def test_dual_canonical_and_extremal_word():
    datum = cartan_datum("C", 2)
    ctx = OracleContext(datum)
    d = minor_to_shuffle(MinorSpec(datum.fundamental_weight(1), (2, 1)), ctx)
    word, runs = extremal_word(d)
    assert word == (1, 2, 2)
    assert runs == [(1, 1), (2, 2)]
    assert check_dual_canonical_conditions(d).passed
    # The cuspidal minor with non-fundamental eta has the mirrored word.
    cusp = minor_to_shuffle(
        MinorSpec(datum.fundamental_weight(1), (1, 2, 1), (1,)), ctx)
    assert extremal_word(cusp)[0] == (2, 2, 1)
    assert check_dual_canonical_conditions(cusp).passed


def test_negative_control_check():
    assert check_negative_control().passed


def test_cluster_monomials_a2():
    r = check_cluster_monomials(A2_INPUT, (1, 2, 1))
    assert r.passed
    assert "2 seeds" in r.details


def test_word_independence_a2():
    r = check_word_independence(A2_INPUT, (1, 2, 1), (2, 1, 2))
    assert r.passed and "4 distinct" in r.details


def test_word_independence_rejects_distinct_elements():
    r = check_word_independence(A2_INPUT, (1, 2), (2, 1))
    assert not r.passed


@pytest.mark.parametrize("input_spec, word, slow", [
    (A2_INPUT, (1, 2, 1), False),
    (C2_QUIVER, (1, 2, 1, 2), False),
    ({"type": ["A", 3]}, (1, 2, 1, 3, 2, 1), True),
])
def test_realized_variables_qcommute_by_seed_lambda(input_spec, word, slow,
                                                    slow_enabled):
    # Cross-layer: the shuffle realizations of every seed q-commute exactly
    # as the seed's Lambda, mutated on the cluster side, says.
    if slow and not slow_enabled:
        pytest.skip("needs --slow")
    datum, quiver = resolve_input(input_spec)
    seeds, realizations = realized_exchange_graph(datum, word, quiver)
    for seed, real in zip(seeds, realizations):
        labels = seed.pair.labels
        for a, s in enumerate(labels):
            for t in labels[a + 1:]:
                assert qcommute_exponent(real[s], real[t]) \
                    == seed.pair.lam_entry(s, t), (s, t)


def test_realized_exchange_graph_bound():
    datum, quiver = resolve_input(C2_QUIVER)
    seeds, _ = realized_exchange_graph(datum, (1, 2, 1, 2), quiver, bound=6)
    assert len(seeds) == 6
    with pytest.raises(RuntimeError, match="exchange graph exceeded bound"):
        realized_exchange_graph(datum, (1, 2, 1, 2), quiver, bound=5)


def test_fast_catalog_all_pass():
    reports = run_catalog(load_catalog("catalog_fast.json"))
    assert reports, "catalog must not be empty"
    for r in reports:
        assert r.passed, (r.check, r.details)


def test_reports_are_replayable():
    reports = run_catalog(load_catalog("catalog_fast.json"))
    for r in reports[:6]:
        entry = dict(r.instance)
        again = run_check(entry)
        assert again.passed == r.passed
        assert again.to_json() == r.to_json()
