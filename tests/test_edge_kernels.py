"""Differential tests of the integer kernels of the exchange-graph edge
against the row-by-row versions in edge_kernels_reference: the Gram rows
and matrices of the degrees, the seed constructor's full parity check,
Lambda's skew-symmetry check, the compatibility check, the exchange
monomials, the mutated row of Lambda, the tropical mutation, and the
mutated seed that mutation_step and its build give, with the degree rule.
Results must be equal, field by field for a seed, and a failing check
must raise the same exception type with the same message."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import edge_kernels_reference as reference
from pair_generators import random_compatible_pair
from test_exchange_graph import G2_FROM_D4, _initial_seed
from test_verify import C2_QUIVER
from qfold.qcluster import (
    CompatiblePair,
    check_compatible,
    check_parity_row,
    enumerate_exchange_graph,
    exchange_monomials,
    initial_seed,
    mutate_seed,
    mutated_c_vectors,
    mutated_g_vector,
    mutated_lambda_row,
)
from qfold.rootdata import cartan_datum, gram_matrix, gram_row

DATA = [cartan_datum("A", 2), cartan_datum("C", 2), cartan_datum("G", 2),
        cartan_datum("B", 3)]
GRAPHS = [({"type": ["A", 3]}, (1, 2, 1, 3, 2, 1)),
          (C2_QUIVER, (1, 2, 1, 2)),
          ({"type": ["B", 3]}, (1, 2, 1, 3, 2, 1)),
          (G2_FROM_D4, (1, 2, 1, 2))]


def outcome(fn, *args):
    """(None, result) or (exception type, message)."""
    try:
        return None, fn(*args)
    except (KeyError, ValueError, ArithmeticError, TypeError) as exc:
        return type(exc), str(exc)


def failure(fn, *args):
    """(exception type, message), or None when fn(*args) returns."""
    kind, value = outcome(fn, *args)
    return (kind, value) if kind else None


def tropical_mutation(seed, k):
    """The mutated (g, c) of mutated_g_vector and mutated_c_vectors."""
    gk, eps = mutated_g_vector(seed, k)
    return {**seed.g, k: gk}, mutated_c_vectors(seed, k, eps)


def seed_fields(mutate, seed, k):
    """The pair, degrees, variables, g- and c-vectors of mutate(seed, k)."""
    mutated = mutate(seed, k)
    return (mutated.pair, mutated.degrees, mutated.variables, mutated.g,
            mutated.c)


def assert_same_edge(seed, ref_seed, k):
    """Every kernel of the edge from seed in direction k, and the mutated
    seed built from it, against the reference on ref_seed, an equal seed
    with a table of its own."""
    labels = seed.pair.labels
    degrees = [seed.degrees[s] for s in labels]
    assert outcome(gram_row, seed.degrees[k], degrees) \
        == outcome(reference.gram_row, seed.degrees[k], degrees)
    assert outcome(check_compatible, seed.pair) \
        == outcome(reference.check_compatible, ref_seed.pair)
    for new, old in ((exchange_monomials, reference.exchange_monomials),
                     (mutated_lambda_row, reference.mutated_lambda_row)):
        assert outcome(new, seed.pair, k) == outcome(old, ref_seed.pair, k)
    assert outcome(tropical_mutation, seed, k) \
        == outcome(reference.tropical_mutation, ref_seed, k)
    assert outcome(seed_fields, mutate_seed, seed, k) \
        == outcome(seed_fields, reference.mutate_seed, ref_seed, k)


@settings(max_examples=200, deadline=None, database=None)
@given(st.data())
def test_kernels_match_reference_on_random_pairs(data):
    # Lambda of a generated pair is even, and the degrees are Lambda v / 2
    # for roots v on the frozen labels: B^T Lambda = 2E makes every
    # exchange relation homogeneous, so each exchange step succeeds.  Over
    # A2 and G2 some forms are odd and the seed may fail its parity check.
    # A passing seed may get a drawn c-vector (mixed signs, zero or
    # coherent); once every edge has filled the table, a drawn degree
    # replaces one label's, which the row checks see.
    pair = random_compatible_pair(random.Random(data.draw(st.integers())))
    labels = pair.labels
    datum = data.draw(st.sampled_from(DATA))
    root = st.lists(st.integers(-3, 3), min_size=datum.rank,
                    max_size=datum.rank).map(datum.root)
    v = [(pair.pos(t), data.draw(root)) for t in labels
         if t not in pair.exchangeable]
    zero = datum.root((0,) * datum.rank)
    degrees = {s: sum((row[c] // 2 * v_c for c, v_c in v), zero)
               for s, row in zip(labels, pair.lam)}
    forms = [degrees[s] for s in labels]
    assert gram_matrix(forms) == reference.gram_matrix(forms)

    r, c = data.draw(st.tuples(st.integers(0, len(labels) - 1),
                               st.integers(0, len(labels) - 1)))
    delta = data.draw(st.sampled_from([0, 1, -2]))
    lam = [list(row) for row in pair.lam]
    lam[r][c] += delta
    assert failure(CompatiblePair, labels, pair.exchangeable, lam, pair.b) \
        == failure(reference.check_skew, lam)
    # The same change with its skew partner, or one changed entry of B,
    # keeps the pair well formed and may break Lambda B = -2E.
    if r != c:
        lam[c][r] -= delta
        skewed = CompatiblePair(labels, pair.exchangeable, lam, pair.b)
        assert outcome(check_compatible, skewed) \
            == outcome(reference.check_compatible, skewed)
    b = [list(row) for row in pair.b]
    b[r][c % len(pair.exchangeable)] += delta
    changed = CompatiblePair(labels, pair.exchangeable, pair.lam, b)
    assert outcome(check_compatible, changed) \
        == outcome(reference.check_compatible, changed)

    parity = failure(reference.check_parity, labels, pair.lam, degrees)
    assert failure(initial_seed, pair, degrees) == parity
    if parity:
        return
    seed, ref_seed = initial_seed(pair, degrees), initial_seed(pair, degrees)
    if data.draw(st.booleans()):
        k = data.draw(st.sampled_from(pair.exchangeable))
        c_k = tuple(data.draw(st.lists(st.integers(-1, 1),
                                       min_size=len(pair.exchangeable),
                                       max_size=len(pair.exchangeable))))
        seed.c[k] = ref_seed.c[k] = c_k
    for k in labels:
        assert_same_edge(seed, ref_seed, k)
    t = data.draw(st.sampled_from(labels))
    seed.degrees[t] = ref_seed.degrees[t] = data.draw(root)
    for k, row in zip(labels, pair.lam):
        assert failure(check_parity_row, labels, k, row, seed.degrees) \
            == failure(reference.check_parity_row, labels, k, row,
                       seed.degrees)
        assert_same_edge(seed, ref_seed, k)


@pytest.mark.parametrize("input_spec, word", GRAPHS)
def test_kernels_match_reference_on_every_edge(input_spec, word):
    # Every direction of every seed, frozen ones included (a KeyError on
    # both sides).  The graph's table holds every variable, so
    # mutation_step only reads it and both sides can share the seeds; each
    # side builds its own mutated seed.
    graph = enumerate_exchange_graph(_initial_seed(input_spec, word))
    assert graph.complete
    for seed in graph.seeds:
        labels = seed.pair.labels
        degrees = [seed.degrees[s] for s in labels]
        assert gram_matrix(degrees) == reference.gram_matrix(degrees)
        reference.check_parity(labels, seed.pair.lam, seed.degrees)
        for k in labels:
            assert_same_edge(seed, seed, k)
