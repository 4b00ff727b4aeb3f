"""Tests for Cartan data, reflections, inversion sets and extremal exponents."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from qfold.rootdata import (
    CartanDatum,
    apply_word,
    bilinear_form,
    cartan_datum,
    datum_from_json,
    datum_to_json,
    dominance_leq,
    extremal_exponents,
    inversion_roots,
    is_finite_type,
    is_reduced,
    longest_word,
    positive_roots,
    reflect,
    weyl_elements,
    weyl_equal,
)

A2 = cartan_datum("A", 2)
A3 = cartan_datum("A", 3)
C2 = cartan_datum("C", 2)
G2 = cartan_datum("G", 2)


def test_datum_validation():
    with pytest.raises(ValueError):
        cartan_datum("A", 0)
    with pytest.raises(ValueError):
        datum_from_json({"indices": [1, 2], "cartan": [[2, 1], [1, 2]],
                         "symmetrizers": [1, 1]})
    with pytest.raises(ValueError):
        datum_from_json({"indices": [1, 2], "cartan": [[2, -1], [-2, 2]],
                         "symmetrizers": [1, 1]})


def test_datum_and_roots_reject_non_integers():
    # A float entry or symmetrizer is rejected, not rounded (to A2 here).
    for cartan, d in ((((2, -1.5), (-1, 2)), (1, 1)),
                      (((2, -1), (-1, 2)), (1.7, 1.2)),
                      (((2, -1), (-1, 2)), (1.0, 1.0))):
        with pytest.raises(TypeError):
            CartanDatum((1, 2), cartan, d)
    with pytest.raises(ValueError):
        CartanDatum((1, 2), ((2, -1), (-1, 2)), (Fraction(3, 2), 1))
    assert CartanDatum((1, 2), ((2, Fraction(-1)), (-1, 2)), (1, 1)) == A2
    with pytest.raises(TypeError):
        A2.root((1.9, 0))
    assert A2.root((Fraction(2), 0)).coords == (2, 0)


def test_reflect_simple_cases():
    alpha1, alpha2 = A2.simple_root(1), A2.simple_root(2)
    assert reflect(alpha2, 1) == alpha1 + alpha2
    assert reflect(alpha1, 1) == -alpha1
    omega1 = A2.fundamental_weight(1)
    assert reflect(omega1, 1) == omega1 - alpha1.to_weight()


def test_apply_word():
    omega2 = A2.fundamental_weight(2)
    expected = omega2 - (A2.simple_root(1) + A2.simple_root(2)).to_weight()
    assert apply_word((1, 2), omega2) == expected
    assert apply_word((), omega2) == omega2
    assert apply_word((1, 1), omega2) == omega2


def test_inversion_roots_a2():
    a1, a2 = A2.simple_root(1), A2.simple_root(2)
    assert inversion_roots(A2, (1, 2, 1)) == [a1, a1 + a2, a2]
    assert inversion_roots(A2, (1,)) == [a1]
    assert inversion_roots(A2, (1, 1)) == [a1, -a1]


def test_is_reduced():
    assert is_reduced(A2, (1, 2, 1))
    assert not is_reduced(A2, (1, 1))
    assert is_reduced(A2, ())
    assert is_reduced(A3, (1, 2, 1, 3, 2, 1))
    assert not is_reduced(A3, (1, 2, 1, 3, 2, 3))


def test_reduced_words_have_distinct_positive_inversions():
    for datum, word in ((A2, (1, 2, 1)), (A3, (1, 2, 1, 3, 2, 1)),
                        (C2, (1, 2, 1, 2)), (G2, (1, 2, 1, 2, 1, 2))):
        betas = inversion_roots(datum, word)
        assert len(betas) == len(word)
        assert len(set(betas)) == len(word)
        assert all(b.is_positive() for b in betas)


def test_is_reduced_stable_under_prefixes():
    word = (1, 2, 1, 3, 2, 1)
    for k in range(len(word) + 1):
        assert is_reduced(A3, word[:k])


def test_bilinear_form():
    assert bilinear_form(A2.simple_root(1), A2.simple_root(2)) == -1
    for datum in (A2, C2, G2):
        for i in datum.indices:
            ai = datum.simple_root(i)
            assert bilinear_form(ai, ai) == 2 * datum.d(i)
    assert bilinear_form(C2.simple_root(1), C2.simple_root(2)) == -2
    omega1 = A2.fundamental_weight(1)
    assert bilinear_form(omega1, A2.simple_root(1)) == 1
    assert bilinear_form(omega1, A2.simple_root(2)) == 0


def test_bilinear_form_weyl_invariance_random():
    rng = random.Random(11)
    for datum in (A2, A3, C2, G2):
        roots = [datum.simple_root(i) for i in datum.indices]
        weights = [datum.fundamental_weight(i) for i in datum.indices]
        for _ in range(60):
            word = tuple(rng.choice(datum.indices) for _ in range(rng.randint(0, 5)))
            u = rng.choice(roots + weights)
            v = rng.choice(roots + weights)
            assert bilinear_form(apply_word(word, u), apply_word(word, v)) \
                == bilinear_form(u, v)


def test_extremal_exponents():
    omega2 = A2.fundamental_weight(2)
    assert extremal_exponents(omega2, (1, 2)) == [1, 1]
    assert extremal_exponents(omega2, ()) == []
    a1 = cartan_datum("A", 1)
    assert extremal_exponents(2 * a1.fundamental_weight(1), (1,)) == [2]
    with pytest.raises(ValueError):
        extremal_exponents(omega2 - A2.fundamental_weight(1), (1,))
    with pytest.raises(ValueError):
        extremal_exponents(omega2, (1, 1))


def test_dominance():
    omega1, omega2 = A2.fundamental_weight(1), A2.fundamental_weight(2)
    assert dominance_leq(omega2, omega2)
    assert dominance_leq(apply_word((1, 2), omega2), omega2)
    assert not dominance_leq(omega1, omega2)
    assert not dominance_leq(omega2, apply_word((1, 2), omega2))


def test_weyl_group_sizes():
    assert len(weyl_elements(A2)) == 6
    assert len(weyl_elements(A3)) == 24
    assert len(weyl_elements(C2)) == 8
    assert len(weyl_elements(G2)) == 12
    assert len(weyl_elements(cartan_datum("B", 3))) == 48
    assert len(weyl_elements(cartan_datum("D", 4))) == 192


FINITE_FAMILIES = ([("A", n) for n in range(1, 6)]
                   + [("B", n) for n in (2, 3, 4)]
                   + [("C", n) for n in (2, 3, 4)]
                   + [("D", 4), ("D", 5), ("G", 2)])

# Affine A1, a hyperbolic rank 2 matrix, and the rank 3 matrix of the
# infinite-type exchange_relation check.
INFINITE_CARTANS = [((2, -2), (-2, 2)), ((2, -3), (-3, 2)),
                    ((2, -1, 0), (-1, 2, -2), (0, -2, 2))]


@pytest.mark.parametrize("family, rank", FINITE_FAMILIES)
def test_finite_families_are_finite_type(family, rank):
    assert is_finite_type(cartan_datum(family, rank))


@pytest.mark.parametrize("cartan", INFINITE_CARTANS)
def test_infinite_type_is_detected_up_front(cartan):
    datum = CartanDatum(tuple(range(1, len(cartan) + 1)), cartan,
                        (1,) * len(cartan))
    assert not is_finite_type(datum)
    for enumerate_group in (weyl_elements, longest_word, positive_roots):
        with pytest.raises(ValueError, match="Weyl group is infinite"):
            enumerate_group(datum)


def test_weyl_equal_and_longest():
    assert weyl_equal(A2, (1, 2, 1), (2, 1, 2))
    assert not weyl_equal(A2, (1, 2, 1), (1, 2))
    assert len(longest_word(A2)) == 3
    assert len(longest_word(A3)) == 6
    assert len(longest_word(G2)) == 6


def test_positive_roots_counts():
    assert len(positive_roots(A2)) == 3
    assert len(positive_roots(A3)) == 6
    assert len(positive_roots(C2)) == 4
    assert len(positive_roots(G2)) == 6
    assert len(positive_roots(cartan_datum("B", 3))) == 9


def test_datum_json_roundtrip():
    for datum in (A2, C2, G2):
        assert datum_from_json(datum_to_json(datum)) == datum
