"""Differential tests of the exchange graph keyed by g-vectors against the
reference search of exchange_graph_reference, which runs the full exchange
step on every edge and keys seeds by their serialized variables."""

from __future__ import annotations

import dataclasses

import pytest

import exchange_graph_reference as reference
from test_verify import C2_QUIVER, REALIZED_GRAPHS, realized
from qfold import qcluster
from qfold.initquiver import initial_pair, resolve_word
from qfold.qcluster import (
    CompatibilityError,
    ParityError,
    QuantumSeed,
    check_compatible,
    enumerate_exchange_graph,
    initial_seed,
    mutate_seed,
)
from qfold.verify import resolve_input
from weyl_reference import longest_word

G2_FROM_D4 = {"quiver": {"vertices": [1, 2, 3, 4],
                         "edges": [[1, 2], [3, 2], [4, 2]],
                         "automorphism": {"1": 3, "2": 2, "3": 4, "4": 1}}}
A4_W0 = ({"type": ["A", 4]}, (1, 2, 1, 3, 2, 1, 4, 3, 2, 1), True)
GRAPHS = REALIZED_GRAPHS + [
    ({"type": ["C", 2]}, (1, 2, 1, 2), False),
    (G2_FROM_D4, (1, 2, 1, 2), False),
    A4_W0,
]


def _initial_seed(input_spec, word):
    datum, quiver = resolve_input(input_spec)
    return initial_seed(*initial_pair(datum, resolve_word(datum, word, quiver)))


def _counted_enumeration(monkeypatch, seed):
    """The graph of enumerate_exchange_graph and its number of
    mutated_variable calls."""
    calls = []
    exchange_step = qcluster.mutated_variable
    monkeypatch.setattr(qcluster, "mutated_variable",
                        lambda s, k: calls.append(k) or exchange_step(s, k))
    return enumerate_exchange_graph(seed), len(calls)


def assert_pointed(graph):
    """Every variable's exponents are its g-vector plus B0 v with v >= 0,
    B0 the initial B.  Lambda B0 = -2E recovers v = -(Lambda d)_ex / 2E."""
    pair = graph.seeds[0].pair
    e = check_compatible(pair)
    for seed in graph.seeds:
        for s in pair.labels:
            g = seed.g[s]
            for exponent in seed.variables[s].terms:
                d = [a - b for a, b in zip(exponent, g)]
                v = []
                for t in pair.exchangeable:
                    lam_d = sum(x * y for x, y in zip(pair.lam[pair.pos(t)], d))
                    assert lam_d % (2 * e[t]) == 0, (s, exponent)
                    v.append(-lam_d // (2 * e[t]))
                assert min(v, default=0) >= 0, (s, exponent, g)
                assert [sum(x * y for x, y in zip(row, v))
                        for row in pair.b] == d, (s, exponent, g)


@pytest.mark.parametrize("input_spec, word, slow", GRAPHS)
def test_seeds_match_their_tropical_data(input_spec, word, slow,
                                         slow_enabled):
    # Every stored seed's Lambda and degrees follow from its g-vectors and
    # the initial seed: Lambda_t[s][u] = g_s^T Lambda_0 g_u and
    # deg_t(s) = sum_i g_s[i] deg_0(i).
    if slow and not slow_enabled:
        pytest.skip("needs --slow")
    graph = enumerate_exchange_graph(_initial_seed(input_spec, word))
    initial = graph.seeds[0]
    labels = initial.pair.labels
    lam0 = initial.pair.lam
    for seed in graph.seeds:
        g = [seed.g[s] for s in labels]
        assert seed.pair.lam == tuple(
            tuple(sum(gs[i] * lam0[i][j] * gu[j]
                      for i in range(len(labels)) for j in range(len(labels)))
                  for gu in g)
            for gs in g)
        for s, gs in zip(labels, g):
            zero = initial.degrees[s] - initial.degrees[s]
            assert seed.degrees[s] == sum(
                (x * initial.degrees[t] for x, t in zip(gs, labels)), zero)


@pytest.mark.parametrize("input_spec, word, slow", GRAPHS)
def test_graph_matches_reference(input_spec, word, slow, slow_enabled,
                                 monkeypatch):
    if slow and not slow_enabled:
        pytest.skip("needs --slow")
    seed = _initial_seed(input_spec, word)
    graph, materialized = _counted_enumeration(monkeypatch, seed)
    expected = reference.enumerate_exchange_graph(
        _initial_seed(input_spec, word))
    # Seed equality leaves out the tropical data: the reference seeds
    # carry identity g-vectors of their own.
    assert graph.seeds == expected.seeds
    assert graph.edges == expected.edges
    assert graph.complete == expected.complete
    variables = graph.cluster_variables()
    assert variables == reference.cluster_variables(expected)
    assert materialized == len(variables) - len(seed.pair.labels)
    assert_pointed(graph)


def test_graph_below_its_bound_matches_reference():
    # Once `bound` seeds are stored, edges to further seeds are dropped.
    for bound in range(1, 7):
        graph = enumerate_exchange_graph(
            _initial_seed(C2_QUIVER, (1, 2, 1, 2)), bound)
        expected = reference.enumerate_exchange_graph(
            _initial_seed(C2_QUIVER, (1, 2, 1, 2)), bound)
        assert (graph.seeds, graph.edges, graph.complete) \
            == (expected.seeds, expected.edges, expected.complete)
        assert graph.cluster_variables() \
            == reference.cluster_variables(expected)


@pytest.mark.parametrize("input_spec, word, materialized", [
    (REALIZED_GRAPHS[2][0], REALIZED_GRAPHS[2][1], 6),
    (A4_W0[0], A4_W0[1], 30),
])
def test_each_variable_is_computed_once(input_spec, word, materialized,
                                        monkeypatch):
    # A3 w0: 14 seeds, 42 edges, 12 variables over 6 labels; A4 w0: 672
    # seeds, 4032 edges, 40 variables over 10 labels.
    seed = _initial_seed(input_spec, word)
    graph, calls = _counted_enumeration(monkeypatch, seed)
    labels = len(seed.pair.labels)
    assert calls == materialized == len(graph.cluster_variables()) - labels
    assert len(seed.table) == materialized + labels
    assert_pointed(graph)


@pytest.mark.parametrize("input_spec, word, slow", REALIZED_GRAPHS)
def test_shuffle_side_computes_each_variable_once(input_spec, word, slow,
                                                  slow_enabled, monkeypatch):
    # The shuffle seeds share one table keyed by g-vectors: one shuffle
    # exchange step per variable that is not initial.
    if slow and not slow_enabled:
        pytest.skip("needs --slow")
    calls = []
    exchange_step = qcluster.mutated_variable
    monkeypatch.setattr(qcluster, "mutated_variable",
                        lambda s, k: calls.append(k) or exchange_step(s, k))
    seeds = realized(input_spec, word)
    labels = seeds[0].pair.labels
    distinct = {seed.g[s] for seed in seeds for s in labels}
    assert len(calls) == len(distinct) - len(labels)
    assert len(seeds[0].table) == len(distinct)


@pytest.mark.parametrize("input_spec, word", [
    ({"type": ["A", 3]}, (1, 2, 1, 3, 2, 1)),
    (C2_QUIVER, (1, 2, 1, 2)),
])
def test_shuffle_graph_is_the_torus_graph_without_torus_arithmetic(
        input_spec, word, monkeypatch):
    # The shuffle seeds are enumerated from the oracle's initial seed
    # itself: no torus product or division runs, and seed by seed they
    # carry the torus graph's pairs, degrees and tropical data.
    calls = {"torus_mul": 0, "left_divide": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    with monkeypatch.context() as patch:
        patch.setattr(qcluster.TorusElement, "__mul__", counted(
            "torus_mul", qcluster.TorusElement.__mul__))
        patch.setattr(qcluster, "left_divide",
                      counted("left_divide", qcluster.left_divide))
        seeds = realized(input_spec, word)
    assert calls == {"torus_mul": 0, "left_divide": 0}
    expected = enumerate_exchange_graph(_initial_seed(input_spec, word)).seeds
    assert [(s.pair, s.degrees, s.g, s.c) for s in seeds] \
        == [(s.pair, s.degrees, s.g, s.c) for s in expected]


def test_corrupted_table_entry_is_caught():
    # Mutating back to the initial variable finds it in the table; a stored
    # degree other than the degree rule's is a CompatibilityError.
    seed = _initial_seed({"type": ["A", 2]}, (1, 2, 1))
    degree, variable = seed.table[seed.g[1]]
    seed.table[seed.g[1]] = (degree + degree, variable)
    with pytest.raises(CompatibilityError, match="g-vector"):
        enumerate_exchange_graph(seed)


def test_corrupted_degree_is_caught_on_an_edge_that_builds_no_seed(
        monkeypatch):
    # The second A2 edge leads from the one built seed back to the initial
    # cluster, so it builds no seed; its row parity check still runs.  The
    # built seed's degree d_3 is corrupted after its full check, by alpha_2,
    # which leaves the degree rule on that edge alone: b_31 = -1 there.
    built = []

    class CorruptedAfterCheck(QuantumSeed):
        def __post_init__(self):
            super().__post_init__()
            built.append(self)
            self.degrees[3] += self.degrees[3].datum.simple_root(2)

    seed = _initial_seed({"type": ["A", 2]}, (1, 2, 1))
    monkeypatch.setattr(qcluster, "QuantumSeed", CorruptedAfterCheck)
    with pytest.raises(ParityError, match=r"lambda\(1,3\)"):
        enumerate_exchange_graph(seed)
    assert len(built) == 1


def test_mixed_sign_c_vector_is_caught():
    seed = _initial_seed(C2_QUIVER, (1, 2, 1, 2))
    corrupted = QuantumSeed(seed.pair, seed.degrees, seed.variables,
                            seed.unit, seed.g, {1: (1, -1), 2: (0, 1)},
                            seed.table)
    with pytest.raises(CompatibilityError, match="sign-coherent"):
        mutate_seed(corrupted, 1)
    assert mutate_seed(corrupted, 2) == mutate_seed(seed, 2)


B3_FROM_A5 = {"quiver": {"vertices": [1, 2, 3, 4, 5],
                         "edges": [[1, 2], [3, 2], [3, 4], [5, 4]],
                         "automorphism": {"1": 5, "2": 4, "3": 3, "4": 2,
                                          "5": 1}}}


def tropical_duality_failures(seed):
    """The entries (s, t) where G^T D C differs from D on a seed (Nakanishi
    and Zelevinsky, "On tropical dualities in cluster algebras"): D is the
    diagonal of pair.e over the exchangeable labels, the columns of G are
    the exchangeable labels' g-vectors restricted to the exchangeable
    coordinates, and the columns of C are their c-vectors."""
    pair = seed.pair
    e = pair.e
    rows = [pair.pos(r) for r in pair.exchangeable]
    return [(s, t) for s in pair.exchangeable for t in pair.exchangeable
            if sum(seed.g[s][row] * e[r] * c
                   for row, r, c in zip(rows, pair.exchangeable, seed.c[t]))
            != (e[s] if s == t else 0)]


@pytest.mark.parametrize("input_spec, size, bound, slow", [
    ({"type": ["A", 3]}, 14, 1000, False),
    (A4_W0[0], 672, 1000, False),
    (C2_QUIVER, 6, 1000, False),
    (G2_FROM_D4, 60, 60, True),
    (B3_FROM_A5, 60, 60, True),
], ids=["A3", "A4", "C2/A3", "G2/D4", "B3/A5"])
def test_g_and_c_vectors_are_tropically_dual(input_spec, size, bound, slow,
                                             slow_enabled):
    # The g-vectors and the c-vectors are separate records of every stored
    # seed of the exchange graph of w0 (its first `bound` seeds).
    if slow and not slow_enabled:
        pytest.skip("needs --slow")
    datum, _ = resolve_input(input_spec)
    seeds = enumerate_exchange_graph(
        initial_seed(*initial_pair(datum, longest_word(datum))), bound).seeds
    assert len(seeds) == size
    assert [k for k, seed in enumerate(seeds)
            if tropical_duality_failures(seed)] == []


def test_tropical_duality_check_catches_a_flipped_c_vector_entry():
    seeds = enumerate_exchange_graph(
        _initial_seed(C2_QUIVER, (1, 2, 1, 2))).seeds
    for seed in (seeds[0], seeds[-1]):
        assert tropical_duality_failures(seed) == []
        c = dict(seed.c)
        entry = next(i for i, x in enumerate(c[1]) if x)
        c[1] = tuple(-x if i == entry else x for i, x in enumerate(c[1]))
        assert tropical_duality_failures(dataclasses.replace(seed, c=c))
