"""Tests for the verification harness and its instance catalogs."""

from __future__ import annotations

import itertools

import pytest

import realization_reference
from minor_search_reference import reference_name
from qfold.laurent import LaurentScalar
from qfold.qcluster import mutate_seed, normalized_monomial
from qfold.rootdata import bilinear_form, cartan_datum
from qfold.uqn import (
    MinorSpec,
    OracleContext,
    bar_element,
    extremal_word,
    minor_to_shuffle,
    qcommute_exponent,
    shuffle_product,
)
from qfold.verify import (
    _name_among_minors,
    check_cluster_monomials,
    check_dual_canonical_conditions,
    check_exchange_relation,
    check_initial_lambda,
    check_negative_control,
    check_restriction_factorization,
    check_square_identity,
    check_word_independence,
    load_catalog,
    normalized_shuffle_monomial,
    realized_exchange_graph,
    resolve_input,
    run_catalog,
    run_check,
)

A2_INPUT = {"type": ["A", 2]}
C2_QUIVER = {"quiver": {"vertices": [1, 2, 3], "edges": [[1, 2], [3, 2]],
                        "automorphism": {"1": 3, "2": 2, "3": 1}}}
# (input, word, needs --slow) of the exchange graphs realized in full.
REALIZED_GRAPHS = [
    (A2_INPUT, (1, 2, 1), False),
    (C2_QUIVER, (1, 2, 1, 2), False),
    ({"type": ["A", 3]}, (1, 2, 1, 3, 2, 1), True),
]


def test_initial_lambda_pass():
    r = check_initial_lambda(A2_INPUT, (1, 2, 1))
    assert r.passed and "e = {'1': 1}" in r.details
    r = check_initial_lambda({"type": ["A", 1]}, (1,))
    assert r.passed
    r = check_initial_lambda(C2_QUIVER, (1, 2, 1, 2))
    assert r.passed and "'1': 2" in r.details


def test_resolve_input_rejects_a_float_rank():
    with pytest.raises(TypeError):
        resolve_input({"type": ["A", 2.5]})
    with pytest.raises(TypeError):
        resolve_input({"type": ["A", 2.0]})


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


def test_exchange_relation_infinite_type_names_by_element():
    # A Cartan matrix of infinite type: no minor search over its Weyl group,
    # the details spell out the element.
    spec = {"indices": [1, 2, 3], "symmetrizers": [1, 1, 1],
            "cartan": [[2, -1, 0], [-1, 2, -2], [0, -2, 2]]}
    r = check_exchange_relation(spec, (2, 3, 2), 1)
    assert r.passed
    assert r.details == ("Y_1' = (q^2 + 2 + q^-2)*[3,2,3,2,2] + "
                         "(q^4 + 3*q^2 + 4 + 3*q^-2 + q^-4)*[3,3,2,2,2]")


@pytest.mark.parametrize("input_spec, word, slow", REALIZED_GRAPHS)
def test_minor_names_match_exhaustive_search(input_spec, word, slow,
                                             slow_enabled):
    if slow and not slow_enabled:
        pytest.skip("needs --slow")
    datum, quiver = resolve_input(input_spec)
    seeds = realized_exchange_graph(datum, word, quiver)
    context = OracleContext(datum)
    names = []
    for element in dict.fromkeys(el for seed in seeds
                                 for el in seed.variables.values()):
        name = _name_among_minors(datum, element, context)
        assert name == reference_name(datum, element, context), str(element)
        names.append(name)
    assert any(names)


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


def test_dual_canonical_coefficient_negative_control():
    # Twice a minor is still bar-invariant; only the extremal coefficient
    # tells it apart from a dual-canonical-type element.
    datum = cartan_datum("A", 2)
    d = minor_to_shuffle(MinorSpec(datum.fundamental_weight(2), (1, 2)),
                         OracleContext(datum))
    doubled = d.scale(LaurentScalar.from_rational(2))
    assert bar_element(doubled) == doubled
    r = check_dual_canonical_conditions(doubled)
    assert not r.passed
    assert r.details == "extremal word coefficient is 2, expected 1"


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


@pytest.mark.parametrize("input_spec, word, slow", REALIZED_GRAPHS)
def test_realized_variables_qcommute_by_seed_lambda(input_spec, word, slow,
                                                    slow_enabled):
    # Cross-layer: the shuffle realizations of every seed q-commute exactly
    # as the seed's Lambda, mutated on the cluster side, says.
    if slow and not slow_enabled:
        pytest.skip("needs --slow")
    datum, quiver = resolve_input(input_spec)
    for seed in realized_exchange_graph(datum, word, quiver):
        labels = seed.pair.labels
        real = seed.variables
        for a, s in enumerate(labels):
            for t in labels[a + 1:]:
                assert qcommute_exponent(real[s], real[t]) \
                    == seed.pair.lam_entry(s, t), (s, t)


@pytest.mark.parametrize("input_spec, word, slow", REALIZED_GRAPHS)
def test_realization_matches_reference(input_spec, word, slow, slow_enabled):
    # Differential: the one exchange step on torus and shuffle seeds against
    # the separate torus and shuffle copies in realization_reference.
    if slow and not slow_enabled:
        pytest.skip("needs --slow")
    datum, quiver = resolve_input(input_spec)
    realized = realized_exchange_graph(datum, word, quiver)
    seeds, realizations = realization_reference.realized_exchange_graph(
        datum, word, quiver)
    assert [(s.pair, s.degrees) for s in realized] \
        == [(s.pair, s.degrees) for s in seeds]
    assert [s.variables for s in realized] == realizations
    for torus_seed, seed in zip(seeds, realized):
        for k in seed.pair.exchangeable:
            assert mutate_seed(torus_seed, k) \
                == realization_reference.mutate_seed(torus_seed, k)
        labels = seed.pair.labels
        # Every monomial of degree at most 2, squares included.
        for chosen in itertools.chain.from_iterable(
                itertools.combinations_with_replacement(labels, size)
                for size in range(3)):
            e = dict.fromkeys(labels, 0)
            for s in chosen:
                e[s] += 1
            assert normalized_shuffle_monomial(e, seed) \
                == realization_reference.normalized_shuffle_monomial(
                    e, labels, seed.variables, seed.degrees, seed.pair.lam)
            assert normalized_monomial(e, torus_seed) \
                == realization_reference.normalized_monomial(e, torus_seed)


def test_realized_exchange_graph_bound():
    datum, quiver = resolve_input(C2_QUIVER)
    seeds = realized_exchange_graph(datum, (1, 2, 1, 2), quiver, bound=6)
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
