"""Tests for quiver folding and word unfolding."""

from __future__ import annotations

import pytest

from qfold.folding import (
    InvalidQuiverError,
    QuiverWithAut,
    fold,
    quiver_from_json,
    quiver_to_json,
    underlying_datum,
    unfold_word,
    validate,
)
from qfold.rootdata import CartanDatum, cartan_datum, is_reduced


def a3_quiver():
    # Path 1 -> 2 <- 3 with the swap automorphism (1 3).
    return QuiverWithAut((1, 2, 3), ((1, 2), (3, 2)), {1: 3, 2: 2, 3: 1})


def d4_quiver():
    # Three-arm star, arms 1, 3, 4 around center 2, rotated by a 3-cycle.
    return QuiverWithAut((1, 2, 3, 4), ((1, 2), (3, 2), (4, 2)),
                         {1: 3, 3: 4, 4: 1, 2: 2})


def a5_quiver():
    # Path 1 -> 2 -> 3 <- 4 <- 5 with the diagram flip i -> 6 - i.
    return QuiverWithAut((1, 2, 3, 4, 5), ((1, 2), (2, 3), (5, 4), (4, 3)),
                         {1: 5, 2: 4, 3: 3, 4: 2, 5: 1})


def on_orbits(datum, orbits):
    """The datum with its index labels replaced by the folded orbits."""
    return CartanDatum(orbits, datum.cartan, datum.symmetrizers)


def test_validate_ok_cases():
    assert validate(a3_quiver()) == []
    assert validate(QuiverWithAut((1, 2), ((1, 2),))) == []


def test_validate_edge_inside_orbit():
    bad = QuiverWithAut((1, 2), ((1, 2),), {1: 2, 2: 1})
    issues = validate(bad)
    assert any(v.kind == "edge-inside-orbit" for v in issues)


def test_validate_rejects_loops_and_bad_permutations():
    assert any(v.kind == "loop"
               for v in validate(QuiverWithAut((1, 2), ((1, 1),))))
    assert any(v.kind == "not-a-permutation"
               for v in validate(QuiverWithAut((1, 2), (), {1: 1, 2: 1})))
    skew = QuiverWithAut((1, 2, 3), ((1, 2),), {1: 3, 2: 2, 3: 1})
    assert any(v.kind == "edges-not-preserved" for v in validate(skew))


def test_fold_a3_to_c2():
    folded = fold(a3_quiver())
    assert folded.orbits == ((1, 3), (2,))
    assert folded.pairing == ((4, -2), (-2, 2))
    assert folded.datum == on_orbits(cartan_datum("C", 2), folded.orbits)


def test_fold_identity_gives_symmetric_matrix():
    q = QuiverWithAut((1, 2, 3), ((1, 2), (2, 3)))
    folded = fold(q)
    assert folded.datum.cartan == cartan_datum("A", 3).cartan
    assert folded.datum.symmetrizers == (1, 1, 1)


def test_fold_d4_to_g2():
    folded = fold(d4_quiver())
    assert folded.orbits == ((1, 3, 4), (2,))
    assert folded.datum == on_orbits(cartan_datum("G", 2), folded.orbits)
    assert underlying_datum(d4_quiver()) == cartan_datum("D", 4)


def test_fold_a5_by_its_flip_to_b3():
    # With a_jk = (j.k)/|j| the long roots are the 2-element orbits, so the
    # flip of A5 folds to B3 (d = (2, 2, 1)).
    folded = fold(a5_quiver())
    assert folded.orbits == ((1, 5), (2, 4), (3,))
    assert folded.datum == on_orbits(cartan_datum("B", 3), folded.orbits)


def test_fold_rejects_invalid():
    with pytest.raises(InvalidQuiverError):
        fold(QuiverWithAut((1, 2), ((1, 2),), {1: 2, 2: 1}))


def test_fold_invariant_under_in_orbit_relabeling():
    # Same A3 path with vertex names 1 and 3 swapped in the edge list.
    relabeled = QuiverWithAut((1, 2, 3), ((3, 2), (1, 2)), {1: 3, 2: 2, 3: 1})
    assert fold(relabeled).datum == fold(a3_quiver()).datum


def test_unfold_word():
    q = a3_quiver()
    j1, j2 = fold(q).orbits
    assert unfold_word((j1, j2), q) == (1, 3, 2)
    assert unfold_word((), q) == ()
    assert unfold_word((j1, j2, j1, j2), q) == (1, 3, 2, 1, 3, 2)
    # Vertex representatives are accepted as letters too.
    assert unfold_word((3, 2), q) == (1, 3, 2)
    with pytest.raises(KeyError):
        unfold_word((9,), q)


def test_unfolded_reduced_words_stay_reduced():
    q = a3_quiver()
    folded = fold(q)
    symmetric = underlying_datum(q)
    j1, j2 = folded.orbits
    for word in ((j1,), (j1, j2), (j1, j2, j1), (j1, j2, j1, j2)):
        assert is_reduced(folded.datum, word)
        unfolded = unfold_word(word, q)
        assert is_reduced(symmetric, unfolded)
        assert len(unfolded) == sum(len(j) for j in word)


def test_folded_matrix_symmetrizability():
    for q in (a3_quiver(), d4_quiver()):
        datum = fold(q).datum
        for r in range(datum.rank):
            for c in range(datum.rank):
                assert (datum.symmetrizers[r] * datum.cartan[r][c]
                        == datum.symmetrizers[c] * datum.cartan[c][r])


def test_quiver_json_roundtrip():
    q = d4_quiver()
    back = quiver_from_json(quiver_to_json(q))
    assert back.vertices == q.vertices
    assert back.edges == q.edges
    assert back.automorphism == q.automorphism
