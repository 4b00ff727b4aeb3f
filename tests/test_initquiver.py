"""Tests for the staircase quiver, including the worked three-row example."""

from __future__ import annotations

import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import staircase_reference
from pair_reference import b_entry, exchangeable, principal_part
from qfold.folding import QuiverWithAut, fold, underlying_datum, validate
from qfold.initquiver import (
    OrbitCompatibilityError,
    build_initial_quiver,
    exchange_to_json,
    fold_exchange_matrix,
    initial_cluster_variables,
    initial_pair,
    quiver_to_dot,
    staircase,
    vertex_orbits_from_unfolding,
)
from qfold.qcluster import CompatiblePair, mutate_pair
from qfold.rootdata import CartanDatum, cartan_datum, is_reduced
from weyl_reference import apply_word, longest_word

A2 = cartan_datum("A", 2)

# The three-row example: rows labelled 1, 2, 3 with pairing -1.2 = 3,
# -1.3 = 4, -2.3 = 2, and the word s1 s2 s1 s3 s1 s2 s1 s2 s3 s2.
WILD = CartanDatum((1, 2, 3),
                   ((2, -3, -4), (-3, 2, -2), (-4, -2, 2)),
                   (1, 1, 1))
WILD_WORD = (1, 2, 1, 3, 1, 2, 1, 2, 3, 2)

WILD_ARROWS = {
    (1, 2): 3, (3, 1): 1, (3, 4): 4, (5, 3): 1, (5, 6): 3,
    (7, 5): 1, (7, 9): 4, (7, 10): 3, (2, 4): 2, (2, 5): 3,
    (6, 2): 1, (6, 7): 3, (8, 6): 1, (8, 9): 2, (10, 8): 1,
    (4, 7): 4, (4, 8): 2, (9, 4): 1, (9, 10): 2,
}


def _successor_oracle(word, datum):
    """Independent successor-based scan of the zigzag rule."""
    m = len(word)
    rows = {i: [t for t in range(1, m + 1) if word[t - 1] == i]
            for i in datum.indices}

    def nxt(pos, row):
        laters = [t for t in rows[row] if t > pos]
        return min(laters) if laters else None

    arrows = {}
    for i, ts in rows.items():
        for prev, later in zip(ts, ts[1:]):
            arrows[(later, prev)] = 1
    for a in range(1, m + 1):
        i = word[a - 1]
        for b in range(a + 1, m + 1):
            j = word[b - 1]
            if i == j:
                continue
            a_plus = nxt(a, i)
            if a_plus is not None and b > a_plus:
                continue
            b_plus = nxt(b, j)
            if b_plus is not None and not any(b < d < b_plus for d in rows[i]):
                continue
            mult = -datum.d(i) * datum.a(i, j)
            if mult:
                arrows[(a, b)] = mult
    return arrows


def test_worked_example_reproduced_exactly():
    assert is_reduced(WILD, WILD_WORD)
    ice = build_initial_quiver(WILD_WORD, WILD)
    assert ice.arrow_multiset() == WILD_ARROWS
    assert ice.frozen == frozenset({7, 9, 10})


def test_a2_staircase():
    ice = build_initial_quiver((1, 2, 1), A2)
    assert ice.arrow_multiset() == {(3, 1): 1, (1, 2): 1, (2, 3): 1}
    assert ice.frozen == frozenset({2, 3})
    assert exchangeable(ice) == (1,)


def test_single_letter_word():
    ice = build_initial_quiver((1,), A2)
    assert ice.arrows == ()
    assert ice.frozen == frozenset({1})


def test_rejects_non_reduced():
    with pytest.raises(ValueError):
        build_initial_quiver((1, 1), A2)


def test_matches_successor_oracle_on_random_words():
    rng = random.Random(17)
    data = [A2, cartan_datum("A", 3), cartan_datum("C", 2),
            cartan_datum("G", 2), WILD]
    for datum in data:
        hits = 0
        while hits < 12:
            word = tuple(rng.choice(datum.indices)
                         for _ in range(rng.randint(1, 8)))
            if not is_reduced(datum, word):
                continue
            hits += 1
            ice = build_initial_quiver(word, datum)
            assert ice.arrow_multiset() == _successor_oracle(word, datum), \
                (datum.indices, word)


def test_build_is_deterministic():
    a = build_initial_quiver(WILD_WORD, WILD)
    b = build_initial_quiver(WILD_WORD, WILD)
    assert a == b


def test_horizontal_arrows_form_leftward_paths():
    ice = build_initial_quiver(WILD_WORD, WILD)
    for i in WILD.indices:
        ts = [t for t in ice.positions if ice.row(t) == i]
        horizontal = [(s, d) for s, d, m in ice.arrows
                      if ice.row(s) == ice.row(d) == i]
        assert sorted(horizontal) == sorted((b, a) for a, b in zip(ts, ts[1:]))


def test_initial_cluster_variable_labels():
    specs = initial_cluster_variables((1, 2, 1), A2)
    assert [s.word_mu for s in specs] == [(1,), (1, 2), (1, 2, 1)]
    assert [s.lam.coords for s in specs] == [(1, 0), (0, 1), (1, 0)]
    assert all(s.word_eta == () for s in specs)


def test_identity_fold_is_signed_adjacency():
    ice = build_initial_quiver((1, 2, 1), A2)
    data = fold_exchange_matrix(ice)
    assert data.labels == ((1,), (2,), (3,))
    assert data.exchangeable == ((1,),)
    assert data.matrix == ((0,), (-1,), (1,))


def test_c2_via_folded_a3():
    aut = QuiverWithAut((1, 2, 3), ((1, 2), (3, 2)), {1: 3, 2: 2, 3: 1})
    folded = fold(aut)
    j1, j2 = folded.orbits
    unfolded, orbits, perm = vertex_orbits_from_unfolding(
        (j1, j2, j1, j2), aut)
    assert unfolded == (1, 3, 2, 1, 3, 2)
    assert orbits == [(1, 2), (3,), (4, 5), (6,)]
    ice = build_initial_quiver(unfolded, underlying_datum(aut))
    # The position permutation preserves the staircase's arrow multiset and
    # its frozen set.
    arrows = [(s, d) for s, d, m in ice.arrows for _ in range(m)]
    assert validate(QuiverWithAut(ice.positions, arrows, perm)) == []
    assert {perm[t] for t in ice.frozen} == set(ice.frozen)
    data = fold_exchange_matrix(ice, orbits)
    assert data.labels == ((1, 2), (3,), (4, 5), (6,))
    assert data.exchangeable == ((1, 2), (3,))
    assert data.matrix == ((0, 1), (-2, 0), (1, -1), (0, 1))
    # Skew-symmetrizable principal part with the folded symmetrizers (2, 1).
    principal = principal_part(data)
    sizes = [data.sizes[data.labels.index(s)] for s in data.exchangeable]
    for r in range(2):
        for c in range(2):
            assert sizes[r] * principal[r][c] == -sizes[c] * principal[c][r]


def test_orbit_errors():
    ice = build_initial_quiver((1, 2, 1), A2)
    with pytest.raises(OrbitCompatibilityError):
        fold_exchange_matrix(ice, [(1, 2), (3,)])  # mixes frozen and mutable
    with pytest.raises(OrbitCompatibilityError):
        fold_exchange_matrix(ice, [(1,), (2,)])    # not a partition
    with pytest.raises(OrbitCompatibilityError):
        fold_exchange_matrix(ice, [(2, 3), (1,)])  # representatives disagree


def test_dot_emission():
    ice = build_initial_quiver((1, 2, 1), A2)
    dot = quiver_to_dot(ice)
    assert dot == quiver_to_dot(build_initial_quiver((1, 2, 1), A2))
    assert 'v1 [label="1:1", shape=box];' in dot
    assert 'v2 [label="2:2", shape=box, peripheries=2];' in dot
    assert "v3 -> v1;" in dot
    big = quiver_to_dot(build_initial_quiver(WILD_WORD, WILD))
    assert 'v1 -> v2 [label="3"];' in big


def test_exchange_json():
    ice = build_initial_quiver((1, 2, 1), A2)
    data = exchange_to_json(fold_exchange_matrix(ice))
    assert data["matrix"] == [[0], [-1], [1]]
    assert data["sizes"] == [1, 1, 1]


def _extends_reduced(datum, word, i):
    """word + (i,) is reduced, for a reduced word: w(alpha_i) > 0."""
    return apply_word(word, datum.simple_root(i)).is_positive()


def _reduced_words(datum, longest):
    """Every reduced word of length 1..longest."""
    layer = [()]
    for _ in range(longest):
        layer = [w + (i,) for w in layer for i in datum.indices
                 if _extends_reduced(datum, w, i)]
        yield from layer


def _reduced_prefix(datum, letters):
    """The letters that keep the word reduced, in order."""
    word = ()
    for i in letters:
        if _extends_reduced(datum, word, i):
            word += (i,)
    return word


# (datum, longest word compared): every reduced word of A2, A3, B3, C3 and
# G2, and the short ones of A4, D4 and the rank-3 datum of infinite type.
RULE_CASES = [
    (A2, 3), (cartan_datum("A", 3), 6), (cartan_datum("A", 4), 6),
    (cartan_datum("B", 3), 9), (cartan_datum("C", 3), 9),
    (cartan_datum("D", 4), 7), (cartan_datum("G", 2), 6), (WILD, 6),
]


@pytest.mark.parametrize("datum, longest", RULE_CASES, ids=[
    "A2", "A3", "A4", "B3", "C3", "D4", "G2", "WILD"])
def test_rule_matches_the_zigzag_scan(datum, longest):
    # Differential: the closed rule a < b < a+ <= b+ against the per-row
    # zigzag scan it replaced, arrows and frozen sets, word by word.
    count = 0
    for word in _reduced_words(datum, longest):
        ice = build_initial_quiver(word, datum)
        ref = staircase_reference.build_initial_quiver(word, datum)
        assert (ice.arrows, ice.frozen) == (ref.arrows, ref.frozen), word
        count += 1
    assert count > longest


def _path_flip(n):
    """A_{2n-1}, oriented towards its middle vertex n, with its flip."""
    edges = [(k, k + 1) if k < n else (k + 1, k) for k in range(1, 2 * n - 1)]
    return QuiverWithAut(tuple(range(1, 2 * n)), tuple(edges),
                         {k: 2 * n - k for k in range(1, 2 * n)})


def _tip_swap(n):
    """D_{n+1} (n >= 3): a path 1..n-1 with tips n, n+1 at n-1, swapped."""
    edges = [(k, k + 1) for k in range(1, n - 1)]
    edges += [(n - 1, n), (n - 1, n + 1)]
    aut = {k: k for k in range(1, n)}
    aut.update({n: n + 1, n + 1: n})
    return QuiverWithAut(tuple(range(1, n + 2)), tuple(edges), aut)


D4_TRIALITY = QuiverWithAut((1, 2, 3, 4), ((1, 2), (3, 2), (4, 2)),
                            {1: 3, 2: 2, 3: 4, 4: 1})

# Quivers with automorphism whose folded initial B is cross-checked against
# the orbit-summed unfolded staircase: C2/A3, B3/A5, G2/D4, C3/D4 and an
# identity automorphism.
FOLDINGS = {
    "C2/A3": _path_flip(2),
    "B3/A5": _path_flip(3),
    "G2/D4": D4_TRIALITY,
    "C3/D4": _tip_swap(3),
    "A3/identity": QuiverWithAut((1, 2, 3), ((1, 2), (2, 3))),
}


@pytest.mark.parametrize("name", sorted(FOLDINGS))
@settings(max_examples=20, deadline=None, database=None)
@given(data=st.data())
def test_initial_b_is_the_orbit_summed_staircase(name, data):
    quiver = FOLDINGS[name]
    datum = fold(quiver).datum
    word = _reduced_prefix(datum, data.draw(st.lists(
        st.sampled_from(datum.indices), min_size=1, max_size=12)))
    pair, _ = initial_pair(datum, word)
    exchange = fold_exchange_matrix(*staircase(datum, word, quiver))
    assert pair.exchangeable == tuple(exchange.labels.index(o) + 1
                                      for o in exchange.exchangeable)
    assert pair.b == exchange.matrix, word


def test_position_permutation_check_catches_a_wrong_permutation():
    # Negative control for the check in test_c2_via_folded_a3: with two
    # images of the position permutation swapped, the staircase's arrow
    # multiset is no longer preserved.
    aut = FOLDINGS["C2/A3"]
    unfolded, _, perm = vertex_orbits_from_unfolding(
        fold(aut).orbits * 2, aut)
    ice = build_initial_quiver(unfolded, underlying_datum(aut))
    arrows = [(s, d) for s, d, m in ice.arrows for _ in range(m)]
    assert validate(QuiverWithAut(ice.positions, arrows, perm)) == []
    perm[1], perm[3] = perm[3], perm[1]
    assert "edges-not-preserved" in [v.kind for v in validate(
        QuiverWithAut(ice.positions, arrows, perm))]


def fold_mismatches(folded, unfolded, orbits, sum_rows=False):
    """Where the unfolded pair fails to fold to the folded one: a B entry
    b_ij with i, j in one orbit, a folded b_IJ other than the sum of b_ij
    over j in J for a representative i of I (with sum_rows, the wrong
    convention: over i in I for a representative j of J), or a folded
    lambda_IJ other than the sum of lambda_ij over i in I and j in J.
    Folded label K is the position orbit orbits[K - 1]."""
    found = [("inside", i, j) for orbit in orbits for i in orbit
             for j in orbit if j in unfolded.exchangeable
             and b_entry(unfolded, i, j)]
    for big_i in folded.labels:
        for big_j in folded.exchangeable:
            rows, columns = orbits[big_i - 1], orbits[big_j - 1]
            if sum_rows:
                sums = [sum(b_entry(unfolded, i, j) for i in rows)
                        for j in columns]
            else:
                sums = [sum(b_entry(unfolded, i, j) for j in columns)
                        for i in rows]
            if any(x != b_entry(folded, big_i, big_j) for x in sums):
                found.append(("sum", big_i, big_j))
    # Lambda folds by the double sum; the sum over J alone, for each i in
    # I, fails at every pair of the lockstep walks.
    for big_i in folded.labels:
        for big_j in folded.labels:
            total = sum(unfolded.lam_entry(i, j) for i in orbits[big_i - 1]
                        for j in orbits[big_j - 1])
            if total != folded.lam_entry(big_i, big_j):
                found.append(("lambda", big_i, big_j))
    return found


def lockstep_pairs(quiver, cap, unfolded=None):
    """(folded pair, unfolded pair, position orbits), first the initial
    pairs of a reduced word of w0, then one for every mutation of a folded
    pair in the breadth-first walk over at most cap distinct folded pairs:
    the folded pair mutated at K, the unfolded one at every position of
    K's orbit."""
    datum = fold(quiver).datum
    word = longest_word(datum)
    unfolded_word, orbits, _ = vertex_orbits_from_unfolding(word, quiver)
    folded, _ = initial_pair(datum, word)
    if unfolded is None:
        unfolded, _ = initial_pair(underlying_datum(quiver), unfolded_word)
    yield folded, unfolded, orbits
    seen, queue = {folded}, deque([(folded, unfolded)])
    while queue:
        folded, unfolded = queue.popleft()
        for k in folded.exchangeable:
            pair = unfolded
            for position in orbits[k - 1]:
                pair = mutate_pair(pair, position)
            mutated = mutate_pair(folded, k)
            yield mutated, pair, orbits
            if mutated not in seen and len(seen) < cap:
                seen.add(mutated)
                queue.append((mutated, pair))


@pytest.mark.parametrize("name, cap, checked", [
    ("C2/A3", 10, 6), ("G2/D4", 500, 1091), ("B3/A5", 500, 1543),
    ("C3/D4", 500, 1543)])
def test_orbit_mutation_upstairs_is_one_mutation_downstairs(name, cap,
                                                            checked):
    # Folding through mutation: mutating every position of an orbit of the
    # unfolded pair keeps the orbits free of B entries and folds B and
    # Lambda to the folded pair mutated once, at every pair the walk
    # reaches.  C2/A3 is walked in full; the capped walks check the
    # neighbours of the pairs they expand too, so they check more distinct
    # pairs than the cap.
    pairs = set()
    for folded, unfolded, orbits in lockstep_pairs(FOLDINGS[name], cap):
        assert fold_mismatches(folded, unfolded, orbits) == [], \
            (name, len(pairs))
        pairs.add(folded)
    assert len(pairs) == checked


def test_folding_check_fails_on_a_broken_unfolding():
    # Negative controls, each caught at the initial pair: one unfolded
    # entry of B, or of Lambda, changed (with its skew partner) so that it
    # is no longer sigma-invariant, and B's rows summed instead of columns.
    quiver = FOLDINGS["C2/A3"]
    folded, unfolded, orbits = next(lockstep_pairs(quiver, 1))
    assert fold_mismatches(folded, unfolded, orbits) == []
    assert fold_mismatches(folded, unfolded, orbits, sum_rows=True) != []
    b = [list(row) for row in unfolded.b]
    b[unfolded.pos(3)][unfolded.ex_pos(1)] += 1
    b[unfolded.pos(1)][unfolded.ex_pos(3)] -= 1
    broken = CompatiblePair(unfolded.labels, unfolded.exchangeable,
                            unfolded.lam, b)
    walk = lockstep_pairs(quiver, 1, broken)
    assert fold_mismatches(*next(walk)) == [("sum", 1, 2), ("sum", 2, 1)]
    lam = [list(row) for row in unfolded.lam]
    lam[unfolded.pos(1)][unfolded.pos(2)] += 1
    lam[unfolded.pos(2)][unfolded.pos(1)] -= 1
    broken = CompatiblePair(unfolded.labels, unfolded.exchangeable, lam,
                            unfolded.b)
    walk = lockstep_pairs(quiver, 1, broken)
    assert fold_mismatches(*next(walk)) == [("lambda", 1, 2), ("lambda", 2, 1)]


# (type, its standard folded quiver): the flip of A_{2n-1} folds to B_n, the
# tip swap of D_{n+1} to C_n (D3 is A3, so C2 = B2 here), the triality of D4
# to G2; in each the i-th orbit is the index i.
STANDARD_FOLDINGS = [
    (("B", 2), _path_flip(2)), (("B", 3), _path_flip(3)),
    (("B", 4), _path_flip(4)), (("C", 2), _path_flip(2)),
    (("C", 3), _tip_swap(3)), (("C", 4), _tip_swap(4)),
    (("G", 2), D4_TRIALITY),
]


@pytest.mark.parametrize("family_rank, quiver", STANDARD_FOLDINGS,
                         ids=["%s%d" % fr for fr, _ in STANDARD_FOLDINGS])
@settings(max_examples=15, deadline=None, database=None)
@given(data=st.data())
def test_type_input_matches_its_folded_quiver(family_rank, quiver, data):
    datum = cartan_datum(*family_rank)
    folded = fold(quiver)
    assert (folded.datum.cartan, folded.datum.symmetrizers) \
        == (datum.cartan, datum.symmetrizers)
    word = _reduced_prefix(datum, data.draw(st.lists(
        st.sampled_from(datum.indices), min_size=1, max_size=20)))
    pair, degrees = initial_pair(datum, word)
    orbits = tuple(folded.orbits[i - 1] for i in word)
    folded_pair, folded_degrees = initial_pair(folded.datum, orbits)
    assert folded_pair == pair, word
    assert {t: b.coords for t, b in folded_degrees.items()} \
        == {t: b.coords for t, b in degrees.items()}
