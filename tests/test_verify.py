"""Tests for the verification harness and its instance catalogs."""

from __future__ import annotations

import dataclasses
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cluster_monomials_reference
import realization_reference
from minor_search_reference import reference_name
from test_initquiver import _reduced_prefix
from qfold import verify
from qfold.initquiver import initial_pair, resolve_word
from qfold.laurent import LaurentScalar
from qfold.qcluster import CompatiblePair, mutate_seed, normalized_monomial
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
    CHECKS,
    CheckFailed,
    _name_among_minors,
    bounded_entry,
    check_dual_canonical_conditions,
    load_catalog,
    normalized_shuffle_monomial,
    oracle_seed_data,
    realized_exchange_graph,
    resolve_input,
    run_check,
)

A2_INPUT = {"type": ["A", 2]}
A3_INPUT = {"type": ["A", 3]}
A3_W0 = (1, 2, 1, 3, 2, 1)
C2_QUIVER = {"quiver": {"vertices": [1, 2, 3], "edges": [[1, 2], [3, 2]],
                        "automorphism": {"1": 3, "2": 2, "3": 1}}}
# (input, word, needs --slow) of the exchange graphs realized in full.
REALIZED_GRAPHS = [
    (A2_INPUT, (1, 2, 1), False),
    (C2_QUIVER, (1, 2, 1, 2), False),
    (A3_INPUT, A3_W0, True),
]


def run(kind, input_spec, contexts=None, **fields):
    """run_check on the entry of a kind with an input and fields, written
    as a JSON catalog holds it (tuples as lists)."""
    entry = {"check": kind, "input": input_spec, **fields}
    return run_check(json.loads(json.dumps(entry)), contexts)


def realized(input_spec, word, bound=200, context=None):
    """realized_exchange_graph of an input and a word over its letters, on
    a fresh oracle context unless one is given."""
    datum, quiver = resolve_input(input_spec)
    return realized_exchange_graph(datum, resolve_word(datum, word, quiver),
                                   bound, context or OracleContext(datum))


def test_initial_lambda_pass():
    r = run("initial_lambda", A2_INPUT, word=(1, 2, 1))
    assert r.passed and "e = {'1': 1}" in r.details
    r = run("initial_lambda", {"type": ["A", 1]}, word=(1,))
    assert r.passed
    r = run("initial_lambda", C2_QUIVER, word=(1, 2, 1, 2))
    assert r.passed and "'1': 2" in r.details


def test_resolve_input_rejects_a_float_rank():
    with pytest.raises(TypeError):
        resolve_input({"type": ["A", 2.5]})
    with pytest.raises(TypeError):
        resolve_input({"type": ["A", 2.0]})
    with pytest.raises(TypeError):
        resolve_input({"type": ["A", True]})


def test_initial_lambda_names_a_perturbed_entry(monkeypatch):
    # Negative control: Lambda off by 2 in one entry (parity kept) is caught
    # against the oracle's q-commutation, and the report names the pair.
    def perturbed(datum, word):
        pair, degrees = initial_pair(datum, word)
        lam = [list(row) for row in pair.lam]
        lam[0][2] += 2
        lam[2][0] -= 2
        return CompatiblePair(pair.labels, pair.exchangeable, lam,
                              pair.b), degrees

    monkeypatch.setattr(verify, "initial_pair", perturbed)
    r = run("initial_lambda", {"type": ["A", 3]}, word=(1, 2, 1, 3, 2, 1))
    assert not r.passed and r.status == "fail"
    assert r.details.startswith("initial minors 1 and 3:")
    assert r.witness["pair"] == [1, 3]
    assert r.witness["lambda"] == r.witness["oracle"] + 2


# Cartan data with singular Cartan matrices: affine A1 and A2^(2).
AFFINE_A1 = {"indices": [1, 2], "cartan": [[2, -2], [-2, 2]],
             "symmetrizers": [1, 1]}
TWISTED_A2 = {"indices": [1, 2], "cartan": [[2, -1], [-4, 2]],
              "symmetrizers": [4, 1]}
# (input, longest word drawn) of the formula-versus-oracle property test.
FORMULA_CASES = [
    (A2_INPUT, 3),
    ({"type": ["A", 3]}, 6),
    ({"type": ["A", 4]}, 7),
    (C2_QUIVER, 4),
    ({"quiver": {"vertices": [1, 2, 3, 4, 5],
                 "edges": [[1, 2], [3, 2], [3, 4], [5, 4]],
                 "automorphism": {"1": 5, "2": 4, "3": 3, "4": 2, "5": 1}}},
     5),
    ({"quiver": {"vertices": [1, 2, 3, 4],
                 "edges": [[1, 2], [3, 2], [4, 2]],
                 "automorphism": {"1": 3, "2": 2, "3": 4, "4": 1}}}, 5),
    ({"type": ["C", 2]}, 4),
    ({"type": ["G", 2]}, 5),
    (AFFINE_A1, 4),
]


@pytest.mark.parametrize("input_spec, length", FORMULA_CASES)
def test_initial_pair_matches_the_oracle(input_spec, length):
    # Differential and cross-layer: the word-only Lambda and degrees of
    # initial_pair (running sums of inversion roots) against the
    # q-commutation exponents and weights (letter contents of extremal
    # F-words) of the oracle's minors, label by label, over A2-A4, C2, B3,
    # G2 folded from A3, A5, D4, the C2 and G2 types, and affine A1.
    # In rank 2 the reduced words of a length up to the Coxeter number are
    # the two alternating ones, so both are checked (in affine A1 every
    # alternating word is reduced); in higher rank the words are drawn.
    datum, quiver = resolve_input(input_spec)

    def check(word):
        word = resolve_word(datum, word, quiver)
        pair, degrees = initial_pair(datum, word)
        minors = oracle_seed_data(datum, word).variables
        assert degrees == {t: y.weight for t, y in minors.items()}
        for a, s in enumerate(pair.labels):
            for t in pair.labels[a + 1:]:
                assert pair.lam_entry(s, t) \
                    == qcommute_exponent(minors[s], minors[t]), (word, s, t)

    if datum.rank == 2:
        for letters in (datum.indices, datum.indices[::-1]):
            check(tuple(letters[t % 2] for t in range(length)))
        return

    @settings(max_examples=6, deadline=None, database=None)
    @given(st.lists(st.sampled_from(datum.indices),
                    min_size=2 * length, max_size=4 * length))
    def drawn(letters):
        check(_reduced_prefix(datum, letters)[:length])

    drawn()


@pytest.mark.parametrize("input_spec", [AFFINE_A1, TWISTED_A2],
                         ids=["A1-affine", "A2-twisted"])
def test_initial_lambda_on_singular_cartan_data(input_spec):
    r = run("initial_lambda", input_spec, word=(1, 2, 1, 2))
    assert r.passed and r.status == "pass", r.details


def test_exchange_relation_on_affine_a1():
    r = run("exchange_relation", AFFINE_A1, word=(1, 2, 1, 2), direction=1)
    assert r.passed and r.status == "pass", r.details


def test_initial_lambda_on_symmetrizable_type_inputs():
    # A B, C or G type input needs no quiver: B comes from the word.
    for family_rank, word in [(["C", 2], (1, 2, 1, 2)),
                              (["B", 3], (3, 2, 3, 1, 2)),
                              (["G", 2], (1, 2, 1, 2, 1, 2))]:
        r = run("initial_lambda", {"type": family_rank}, word=word)
        assert r.passed and r.status == "pass", (family_rank, r.details)


def test_exchange_relation_a2():
    r = run("exchange_relation", A2_INPUT, word=(1, 2, 1), direction=1)
    assert r.passed
    assert "theta*_2" in r.details or "w_2" in r.details


def test_exchange_relation_c2_first_direction():
    r = run("exchange_relation", C2_QUIVER, word=(1, 2, 1, 2), direction=1)
    assert r.passed


def test_exchange_relation_infinite_type_names_by_element():
    # A Cartan matrix of infinite type: no minor search over its Weyl group,
    # the details spell out the element.
    spec = {"indices": [1, 2, 3], "symmetrizers": [1, 1, 1],
            "cartan": [[2, -1, 0], [-1, 2, -2], [0, -2, 2]]}
    r = run("exchange_relation", spec, word=(2, 3, 2), direction=1)
    assert r.passed
    assert r.details == ("Y_1' = (q^2 + 2 + q^-2)*[3,2,3,2,2] + "
                         "(q^4 + 3*q^2 + 4 + 3*q^-2 + q^-4)*[3,3,2,2,2]")


@pytest.mark.parametrize("input_spec, word, slow", REALIZED_GRAPHS)
def test_minor_names_match_exhaustive_search(input_spec, word, slow,
                                             slow_enabled):
    if slow and not slow_enabled:
        pytest.skip("needs --slow")
    datum, _ = resolve_input(input_spec)
    seeds = realized(input_spec, word)
    context = OracleContext(datum)
    names = []
    for element in dict.fromkeys(el for seed in seeds
                                 for el in seed.variables.values()):
        name = _name_among_minors(datum, element, context)
        assert name == reference_name(datum, element, context), str(element)
        names.append(name)
    assert any(names)


def test_exchange_relation_frozen_direction_fails():
    r = run("exchange_relation", A2_INPUT, word=(1, 2, 1), direction=3)
    assert not r.passed


def test_square_identity_and_sign_negative_control():
    r = run("square_identity", A2_INPUT, fundamental=2, word_mu=(1, 2))
    assert r.passed and "exponent -1" in r.details
    # mu = zeta: both sides are the unit, exponent 0.
    r = run("square_identity", A2_INPUT, fundamental=2, word_mu=())
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
    r = run("restriction_factorization", A2_INPUT, fundamental=2,
            chain_words=[(1, 2), (2,), ()])
    assert r.passed
    # Wrong chain ordering is rejected.
    r = run("restriction_factorization", A2_INPUT, fundamental=2,
            chain_words=[(), (2,), (1, 2)])
    assert not r.passed
    # So is a repeated weight: s2 s1 w2 = s2 w2, a link of weight zero.
    r = run("restriction_factorization", A2_INPUT, fundamental=2,
            chain_words=[(1, 2), (2,), (2, 1), ()])
    assert r.details == "chain is not strictly dominance-increasing"


def test_dual_canonical_and_extremal_word():
    datum = cartan_datum("C", 2)
    ctx = OracleContext(datum)
    d = minor_to_shuffle(MinorSpec(datum.fundamental_weight(1), (2, 1)), ctx)
    word, runs = extremal_word(d)
    assert word == (1, 2, 2)
    assert runs == [(1, 1), (2, 2)]
    assert check_dual_canonical_conditions(d) == "extremal word 1,2,2"
    # The cuspidal minor with non-fundamental eta has the mirrored word.
    cusp = minor_to_shuffle(
        MinorSpec(datum.fundamental_weight(1), (1, 2, 1), (1,)), ctx)
    assert extremal_word(cusp)[0] == (2, 2, 1)
    assert check_dual_canonical_conditions(cusp) == "extremal word 2,2,1"


def test_negative_control_check():
    assert run_check({"check": "negative_control"}).passed


def test_dual_canonical_coefficient_negative_control():
    # Twice a minor is still bar-invariant; only the extremal coefficient
    # tells it apart from a dual-canonical-type element.
    datum = cartan_datum("A", 2)
    d = minor_to_shuffle(MinorSpec(datum.fundamental_weight(2), (1, 2)),
                         OracleContext(datum))
    doubled = d.scale(2)
    assert bar_element(doubled) == doubled
    with pytest.raises(CheckFailed) as failure:
        check_dual_canonical_conditions(doubled)
    assert failure.value.details == "extremal word coefficient is 2, expected 1"


def test_cluster_monomials_a2():
    # The details count (seed, exponent) pairs, repeats included.
    r = run("cluster_monomials", A2_INPUT, word=(1, 2, 1))
    assert r.passed and r.details == "18 monomials over 2 seeds"
    # Total degree is capped at 2 and squares are always added, so every
    # max_exponent >= 1 checks one set; 0 checks the squares alone.
    for max_exponent, details in [(2, r.details),
                                  (0, "6 monomials over 2 seeds")]:
        again = run("cluster_monomials", A2_INPUT, word=(1, 2, 1),
                    max_exponent=max_exponent)
        assert again.passed and again.details == details


def test_cluster_monomials_c2():
    r = run("cluster_monomials", C2_QUIVER, word=(1, 2, 1, 2))
    assert r.passed and r.details == "84 monomials over 6 seeds"


@pytest.mark.parametrize("input_spec, word, distinct", [
    (A2_INPUT, (1, 2, 1), 13),
    (C2_QUIVER, (1, 2, 1, 2), 35),
    (A3_INPUT, A3_W0, 78),
])
def test_cluster_monomials_check_each_monomial_once(input_spec, word,
                                                    distinct, monkeypatch):
    # Differential: the same report as the per-(seed, exponent) reference
    # loop, from one dual-canonical check per distinct monomial.  A second
    # call repeats every check: nothing is remembered between calls.
    expected = cluster_monomials_reference.check_cluster_monomials(
        input_spec, word).to_json()
    calls = []

    def counted(element):
        calls[-1] += 1
        return check_dual_canonical_conditions(element)

    monkeypatch.setattr(verify, "check_dual_canonical_conditions", counted)
    for _ in range(2):
        calls.append(0)
        assert run("cluster_monomials", input_spec,
                   word=word).to_json() == expected
    assert calls == [distinct, distinct]


def test_cluster_monomials_tell_seeds_apart_by_lambda(monkeypatch):
    # Negative control: seed 1 keeps seed 0's variables at s and t, but its
    # lambda_st is moved by 2 (parity and skew-symmetry kept), so there
    # Y_s Y_t is a q-power times a bar-invariant element.  A verdict keyed
    # by the g-vectors alone would be seed 0's pass.
    seeds = realized(A3_INPUT, A3_W0)
    seed = seeds[1]
    s, t = [x for x in seed.pair.labels if seed.g[x] == seeds[0].g[x]][:2]
    lam = [list(row) for row in seed.pair.lam]
    lam[seed.pair.pos(s)][seed.pair.pos(t)] += 2
    lam[seed.pair.pos(t)][seed.pair.pos(s)] -= 2
    seeds[1] = dataclasses.replace(
        seed, pair=dataclasses.replace(seed.pair, lam=lam))
    monkeypatch.setattr(verify, "realized_exchange_graph",
                        lambda *args: seeds)
    r = run("cluster_monomials", A3_INPUT, word=A3_W0)
    assert (r.status, r.details) == ("fail", "not bar-invariant")
    assert r.check == r.instance["check"] == "cluster_monomials"
    exponents = {str(x): int(x in (s, t)) for x in seed.pair.labels}
    assert r.instance["exponents"] == exponents
    assert r.to_json() == cluster_monomials_reference.check_cluster_monomials(
        A3_INPUT, A3_W0).to_json()


def _pinned_report(details, input_spec, word, max_exponent, **extra):
    passed = "exponents" not in extra
    return {"check": "cluster_monomials", "details": details,
            "instance": {"check": "cluster_monomials", "input": input_spec,
                         "word": list(word), "max_exponent": max_exponent,
                         **extra},
            "passed": passed, "status": "pass" if passed else "fail"}


def test_cluster_monomial_exponents_do_not_depend_on_max_exponent(
        monkeypatch):
    # Pinned from the enumeration over every exponent up to max_exponent,
    # filtered to total degree 1 or 2: the same monomials in the same order
    # for every max_exponent, so the same counts and the same first failing
    # exponents.
    for max_exponent in (3, 50):
        assert run("cluster_monomials", A2_INPUT, word=(1, 2, 1),
                   max_exponent=max_exponent).to_json() == _pinned_report(
                "18 monomials over 2 seeds", A2_INPUT, (1, 2, 1), max_exponent)
    assert run("cluster_monomials", A3_INPUT, word=A3_W0,
               max_exponent=3).to_json() \
        == _pinned_report("378 monomials over 14 seeds", A3_INPUT, A3_W0, 3)
    # The Lambda-perturbed control of
    # test_cluster_monomials_tell_seeds_apart_by_lambda fails at the same
    # exponents with max_exponent 3.
    seeds = realized(A3_INPUT, A3_W0)
    seed = seeds[1]
    s, t = [x for x in seed.pair.labels if seed.g[x] == seeds[0].g[x]][:2]
    lam = [list(row) for row in seed.pair.lam]
    lam[seed.pair.pos(s)][seed.pair.pos(t)] += 2
    lam[seed.pair.pos(t)][seed.pair.pos(s)] -= 2
    seeds[1] = dataclasses.replace(
        seed, pair=dataclasses.replace(seed.pair, lam=lam))
    monkeypatch.setattr(verify, "realized_exchange_graph",
                        lambda *args: seeds)
    assert (s, t) == (2, 3)
    assert run("cluster_monomials", A3_INPUT, word=A3_W0,
               max_exponent=3).to_json() \
        == _pinned_report("not bar-invariant", A3_INPUT, A3_W0, 3,
                          exponents={"1": 0, "2": 1, "3": 1, "4": 0, "5": 0,
                                     "6": 0})


def test_word_independence_a2():
    r = run("word_independence", A2_INPUT, words=[(1, 2, 1), (2, 1, 2)])
    assert r.passed and "4 distinct" in r.details


def test_word_independence_rejects_distinct_elements():
    r = run("word_independence", A2_INPUT, words=[(1, 2), (2, 1)])
    assert not r.passed


def test_word_independence_reports_the_variables_that_differ(monkeypatch):
    # Only the initial seed is kept of the graphs of the second words, so
    # the A2 graph of (2, 1, 2) lacks the mutated variable theta*_1.  The
    # graph gets its word over the datum's indices, the orbits of C2.
    graph = verify.realized_exchange_graph
    trimmed = {(2, 1, 2), ((2,), (1, 3), (2,), (1, 3))}
    monkeypatch.setattr(
        verify, "realized_exchange_graph",
        lambda datum, word, bound, context:
            graph(datum, word, bound, context)[:1 if word in trimmed else None])
    r = run("word_independence", A2_INPUT, words=[(1, 2, 1), (2, 1, 2)])
    assert r.to_json() == {
        "check": "word_independence",
        "instance": {"check": "word_independence", "input": A2_INPUT,
                     "words": [[1, 2, 1], [2, 1, 2]], "bound": 200},
        "passed": False, "status": "fail",
        "details": "variable sets differ",
        "witness": {"only_first": [{"weight": [1, 0],
                                    "terms": [{"word": [1], "coeff": "1"}]}],
                    "only_second": []}}
    # Four variables of the C2 graph are missing; the witness lists them
    # in the order of their sorted JSON.
    r = run("word_independence", C2_QUIVER,
            words=[(1, 2, 1, 2), (2, 1, 2, 1)])
    assert r.details == "variable sets differ"
    assert r.witness == {"only_first": [
        {"weight": [1, 1], "terms": [{"word": [[1, 3], [2]], "coeff": "1"}]},
        {"weight": [1, 0], "terms": [{"word": [[1, 3]], "coeff": "1"}]},
        {"weight": [1, 1], "terms": [{"word": [[2], [1, 3]], "coeff": "1"}]},
        {"weight": [1, 2], "terms": [{"word": [[2], [2], [1, 3]],
                                      "coeff": "q + q^-1"}]}],
        "only_second": []}


@pytest.mark.parametrize("input_spec, word, slow", REALIZED_GRAPHS)
def test_realized_variables_qcommute_by_seed_lambda(input_spec, word, slow,
                                                    slow_enabled):
    # Cross-layer: the shuffle realizations of every seed q-commute exactly
    # as the seed's Lambda, mutated on the cluster side, says.
    if slow and not slow_enabled:
        pytest.skip("needs --slow")
    for seed in realized(input_spec, word):
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
    shuffle_seeds = realized(input_spec, word)
    seeds, realizations = realization_reference.realized_exchange_graph(
        datum, resolve_word(datum, word, quiver))
    assert [(s.pair, s.degrees) for s in shuffle_seeds] \
        == [(s.pair, s.degrees) for s in seeds]
    assert [s.variables for s in shuffle_seeds] == realizations
    for torus_seed, seed in zip(seeds, shuffle_seeds):
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
    seeds = realized(C2_QUIVER, (1, 2, 1, 2), bound=6)
    assert len(seeds) == 6
    with pytest.raises(RuntimeError, match="exchange graph exceeded bound"):
        realized(C2_QUIVER, (1, 2, 1, 2), bound=5)


def test_realized_exchange_graph_memo_keeps_the_bound():
    # A complete graph is kept on the context; a lookup with a smaller
    # bound raises as the enumeration does, and an incomplete graph is
    # not kept.
    datum, _ = resolve_input(C2_QUIVER)
    context = OracleContext(datum)
    with pytest.raises(RuntimeError, match="exchange graph exceeded bound"):
        realized(C2_QUIVER, (1, 2, 1, 2), 5, context)
    assert context.graphs == {}
    seeds = realized(C2_QUIVER, (1, 2, 1, 2), 6, context)
    assert realized(C2_QUIVER, (1, 2, 1, 2), 200, context) is seeds
    with pytest.raises(RuntimeError, match="exchange graph exceeded bound"):
        realized(C2_QUIVER, (1, 2, 1, 2), 5, context)
    assert len(context.graphs) == 1


def test_verify_call_realizes_each_exchange_graph_once(monkeypatch):
    # The fast catalog asks for the A2 (1,2,1) graph twice, from
    # cluster_monomials and from word_independence, and one verify call
    # builds it once.  Each report, under every bound, is the one the entry
    # gives on contexts of its own.
    requested, built = [], []
    realize = verify.realized_exchange_graph
    enumerate_graph = verify.enumerate_exchange_graph

    def counted_realize(datum, word, *args):
        requested.append(tuple(word))
        return realize(datum, word, *args)

    def counted_enumerate(seed, bound):
        built.append(requested[-1])
        return enumerate_graph(seed, bound)

    monkeypatch.setattr(verify, "realized_exchange_graph", counted_realize)
    monkeypatch.setattr(verify, "enumerate_exchange_graph", counted_enumerate)
    entries = load_catalog("catalog_fast.json")
    for entry in entries:
        run_check(entry, {})
    assert requested.count((1, 2, 1)) == built.count((1, 2, 1)) == 2
    requested.clear()
    built.clear()
    contexts = {}
    for entry in entries:
        run_check(entry, contexts)
    # The graph gets its word over the datum's indices, the orbits of C2.
    c2_word = ((1, 3), (2,), (1, 3), (2,))
    assert requested == [(1, 2, 1), c2_word, (1, 2, 1), (2, 1, 2)]
    assert built == [(1, 2, 1), c2_word, (2, 1, 2)]

    def report(entry, contexts):
        try:
            return run_check(entry, contexts).to_json()
        except RuntimeError as exc:
            return type(exc), str(exc)

    # The last entry asks for the A2 graph once more, so its bound meets a
    # stored graph.
    again = {"check": "word_independence", "input": A2_INPUT,
             "words": [[1, 2, 1], [1, 2, 1]], "bound": 16}
    for max_steps in (None, 1, 2):
        contexts = {}
        for entry in entries + load_catalog("catalog_slow.json") + [again]:
            entry = verify.bounded_entry(entry, max_steps)
            assert report(entry, contexts) == report(entry, None), entry


def test_graph_memo_is_keyed_by_the_index_word(monkeypatch):
    # C2 folded from A3 with opposite edge orientations, its word named by
    # different vertices of the same orbits: one datum and one word over
    # its indices, so one verify call builds the graph once.
    built = []
    enumerate_graph = verify.enumerate_exchange_graph
    monkeypatch.setattr(verify, "enumerate_exchange_graph",
                        lambda seed, bound: built.append(seed) or
                        enumerate_graph(seed, bound))
    flipped = {"quiver": dict(C2_QUIVER["quiver"], edges=[[2, 1], [2, 3]])}
    contexts = {}
    reports = [run("cluster_monomials", C2_QUIVER, contexts, word=(1, 2, 1, 2)),
               run("cluster_monomials", flipped, contexts, word=(3, 2, 3, 2))]
    assert [(r.status, r.details) for r in reports] \
        == [("pass", "84 monomials over 6 seeds")] * 2
    assert len(built) == 1


def entry_field_errors(entry) -> list:
    """What is wrong with a catalog entry's fields: an unknown kind, or
    fields other than "check" and exactly its kind's fields in CHECKS."""
    if entry.get("check") not in CHECKS:
        return ["unknown check kind %r" % (entry.get("check"),)]
    expected = {"check", *CHECKS[entry["check"]][1]}
    return ["missing %r" % name for name in sorted(expected - set(entry))] \
        + ["unknown %r" % name for name in sorted(set(entry) - expected)]


@pytest.mark.parametrize("catalog", ["catalog_fast.json", "catalog_slow.json"])
def test_catalog_entries_name_exactly_their_fields(catalog):
    for entry in load_catalog(catalog):
        assert entry_field_errors(entry) == [], entry


def test_field_check_catches_a_misspelt_field():
    # Negative control: a misspelt max_exponent is caught by the field
    # check, and run_check refuses it instead of taking the default.
    entry = {"check": "cluster_monomials", "input": A2_INPUT,
             "word": [1, 2, 1], "max_exponet": 2}
    assert entry_field_errors(entry) \
        == ["missing 'max_exponent'", "unknown 'max_exponet'"]
    with pytest.raises(ValueError, match="check kind 'cluster_monomials' "
                                         "reads no field 'max_exponet'"):
        run_check(entry)
    assert entry_field_errors({"check": "no_such_check"}) \
        == ["unknown check kind 'no_such_check'"]


def test_bounded_entry_caps_every_graph_bound():
    # A word_independence entry is capped whether it gives its bound or
    # leaves it to the CHECKS default; no other kind gains a bound.
    words = [[1, 2, 1], [2, 1, 2]]
    given = {"check": "word_independence", "input": A2_INPUT,
             "words": words, "bound": 16}
    default = {"check": "word_independence", "input": A2_INPUT,
               "words": words}
    assert bounded_entry(given, 5)["bound"] == 5
    assert bounded_entry(given, 1000)["bound"] == 16
    assert bounded_entry(default, 5)["bound"] == 5
    assert bounded_entry(default, 1000)["bound"] == 200
    assert bounded_entry(default, None) is default
    for entry in load_catalog("catalog_fast.json"):
        if entry["check"] != "word_independence":
            assert bounded_entry(entry, 1) is entry


def test_fast_catalog_all_pass():
    reports = [run_check(e) for e in load_catalog("catalog_fast.json")]
    assert reports, "catalog must not be empty"
    for r in reports:
        assert r.passed, (r.check, r.details)


def test_reports_are_replayable():
    reports = [run_check(e) for e in load_catalog("catalog_fast.json")]
    for r in reports[:6]:
        entry = dict(r.instance)
        again = run_check(entry)
        assert again.passed == r.passed
        assert again.to_json() == r.to_json()
