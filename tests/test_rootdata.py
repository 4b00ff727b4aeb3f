"""Tests for Cartan data, reflections, inversion sets and extremal exponents."""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import finite_type_reference
from qfold.rootdata import (
    CartanDatum,
    bilinear_form,
    cartan_datum,
    datum_from_json,
    datum_to_json,
    extremal_exponents,
    gram_matrix,
    gram_row,
    inversion_roots,
    is_finite_type,
    is_reduced,
    longest_word,
    positive_roots,
    weyl_elements,
    weyl_equal,
)
from qfold.uqn import MinorSpec
from qfold.verify import load_catalog, resolve_input
from weyl_reference import apply_word, reflect, to_weight, weyl_key

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
    # A float or bool entry or symmetrizer is rejected, not rounded (to A2
    # here).
    for cartan, d in ((((2, -1.5), (-1, 2)), (1, 1)),
                      (((2, -1), (-1, 2)), (1.7, 1.2)),
                      (((2, -1), (-1, 2)), (1.0, 1.0)),
                      (((2, -1), (-1, 2)), (True, True))):
        with pytest.raises(TypeError):
            CartanDatum((1, 2), cartan, d)
    # So is a Fraction, integral or not.
    for cartan, d in ((((2, -1), (-1, 2)), (Fraction(3, 2), 1)),
                      (((2, Fraction(-1)), (-1, 2)), (1, 1))):
        with pytest.raises(TypeError):
            CartanDatum((1, 2), cartan, d)
    for coords in ((1.9, 0), (Fraction(2), 0)):
        with pytest.raises(TypeError):
            A2.root(coords)
    assert A2.root((2, 0)).coords == (2, 0)


def test_reflect_simple_cases():
    alpha1, alpha2 = A2.simple_root(1), A2.simple_root(2)
    assert reflect(alpha2, 1) == alpha1 + alpha2
    assert reflect(alpha1, 1) == -alpha1
    omega1 = A2.fundamental_weight(1)
    assert reflect(omega1, 1) == omega1 - to_weight(alpha1)


def test_apply_word():
    omega2 = A2.fundamental_weight(2)
    expected = omega2 - to_weight(A2.simple_root(1) + A2.simple_root(2))
    assert apply_word((1, 2), omega2) == expected
    assert apply_word((), omega2) == omega2
    assert apply_word((1, 1), omega2) == omega2


def test_inversion_roots_a2():
    a1, a2 = A2.simple_root(1), A2.simple_root(2)
    assert inversion_roots(A2, (1, 2, 1)) == [a1, a1 + a2, a2]
    assert inversion_roots(A2, (1,)) == [a1]
    assert inversion_roots(A2, (1, 1)) == [a1, -a1]


@pytest.mark.parametrize("datum", [
    A3, cartan_datum("B", 3), G2,
    CartanDatum((1, 2), ((2, -2), (-2, 2)), (1, 1)),
    CartanDatum((1, 2), ((2, -1), (-4, 2)), (4, 1))],
    ids=["A3", "B3", "G2", "affine-A1", "A2(2)"])
def test_inversion_roots_match_their_definition(datum):
    # Differential: the one-pass images against beta_k = s_{i1}...s_{i_{k-1}}
    # alpha_{i_k} applied from scratch, for every word of length <= 6,
    # reduced or not, in finite and affine type.
    for length in range(7):
        for word in itertools.product(datum.indices, repeat=length):
            assert inversion_roots(datum, word) == [
                apply_word(word[:k], datum.simple_root(i))
                for k, i in enumerate(word)], word


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
    # The form pairs roots only; a weight is never turned into a root.
    with pytest.raises(TypeError):
        bilinear_form(A2.fundamental_weight(1), A2.simple_root(1))


def test_bilinear_form_weyl_invariance_random():
    rng = random.Random(11)
    for datum in (A2, A3, C2, G2):
        roots = [datum.simple_root(i) for i in datum.indices]
        for _ in range(60):
            word = tuple(rng.choice(datum.indices) for _ in range(rng.randint(0, 5)))
            u = rng.choice(roots)
            v = rng.choice(roots)
            assert bilinear_form(apply_word(word, u), apply_word(word, v)) \
                == bilinear_form(u, v)


def test_gram_matrix_is_the_bilinear_form():
    rng = random.Random(5)
    b3 = cartan_datum("B", 3)
    for datum in (A2, A3, b3, C2, G2):
        roots = [datum.root([rng.randint(-3, 3) for _ in datum.indices])
                 for _ in range(8)]
        n = datum.rank
        # (u, v) = sum_{r,c} u_r v_c d_r a_rc, written out.
        explicit = [[sum(u.coords[r] * v.coords[c] * datum.symmetrizers[r]
                         * datum.cartan[r][c]
                         for r in range(n) for c in range(n))
                     for v in roots] for u in roots]
        assert gram_matrix(roots) == explicit
        assert [[bilinear_form(u, v) for v in roots]
                for u in roots] == explicit
    assert gram_matrix([]) == []
    with pytest.raises(TypeError):
        gram_matrix([A2.simple_root(1), A3.simple_root(1)])
    with pytest.raises(TypeError):
        gram_matrix([A2.simple_root(1), A2.fundamental_weight(1)])


def test_pairing_images_over_equal_data():
    # A datum memoizes pairing images on its own object.  A root over an
    # equal but distinct datum pairs as over the datum itself, in either
    # position; a root over another datum is still refused.
    g2 = cartan_datum("G", 2)
    twin = cartan_datum("G", 2)
    assert twin == g2 and twin is not g2
    u, v = g2.root((2, -1)), twin.root((1, 3))
    expected = sum(u.coords[r] * v.coords[c] * g2.symmetrizers[r]
                   * g2.cartan[r][c] for r in range(2) for c in range(2))
    assert gram_row(u, [v, u]) == [expected, bilinear_form(u, u)]
    assert gram_row(v, [u]) == [expected]
    assert bilinear_form(u, v) == bilinear_form(v, u) == expected
    assert gram_matrix([u, v]) \
        == [[bilinear_form(u, u), expected], [expected, bilinear_form(v, v)]]
    with pytest.raises(TypeError):
        gram_row(u, [C2.root((1, 3))])
    with pytest.raises(TypeError):
        gram_row(C2.root((1, 3)), [u])


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
    # mu <= eta exactly when the minor weight eta - mu has no negative
    # coordinate.
    def leq(lam, u, v):
        return all(c >= 0 for c in MinorSpec(lam, u, v).weight.coords)

    omega1, omega2 = A2.fundamental_weight(1), A2.fundamental_weight(2)
    assert leq(omega2, (), ())
    assert leq(omega2, (1, 2), ())
    assert not leq(omega1, (), (1,))
    assert not leq(omega2, (), (1, 2))


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


def _accepted_data(max_rank):
    for family, rank in itertools.product("ABCDEFG", range(1, max_rank + 1)):
        try:
            yield cartan_datum(family, rank)
        except ValueError:
            continue


def _rank2(a, b):
    # [[2, -a], [-b, 2]] with the smallest symmetrizers d_1 a = d_2 b.
    g = math.gcd(a, b) or 1
    return CartanDatum((1, 2), ((2, -a), (-b, 2)), (b // g or 1, a // g or 1))


def test_finite_type_matches_the_fraction_reference():
    # Every datum cartan_datum accepts up to rank 6, the data of both
    # catalogs (the folded C2 of A3 among them), and every rank 2 matrix
    # with ab <= 6: finite for ab < 4, affine (singular) for ab = 4,
    # indefinite beyond.
    data = list(_accepted_data(6))
    assert len(data) == 21
    specs = {json.dumps(entry["input"], sort_keys=True)
             for name in ("catalog_fast.json", "catalog_slow.json")
             for entry in load_catalog(name) if entry.get("input")}
    data += [resolve_input(json.loads(spec))[0] for spec in sorted(specs)]
    assert any(len(set(d.symmetrizers)) > 1 for d in data[21:])
    for a, b in itertools.product(range(7), repeat=2):
        if a * b <= 6 and (a == 0) == (b == 0):
            assert is_finite_type(_rank2(a, b)) == (a * b < 4), (a, b)
            data.append(_rank2(a, b))
    for datum in data:
        assert is_finite_type(datum) \
            == finite_type_reference.is_finite_type(datum), datum


@st.composite
def symmetrizable_data(draw):
    """A symmetrizable Cartan datum of rank 1 to 5: symmetrizers d_i, and
    for each pair a symmetrized entry d_i a_ij = d_j a_ji <= 0, a multiple
    of lcm(d_i, d_j) so that both Cartan entries are integers."""
    n = draw(st.integers(1, 5))
    d = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    a = [[2 if r == c else 0 for c in range(n)] for r in range(n)]
    for r, c in itertools.combinations(range(n), 2):
        s = -draw(st.integers(0, 2)) * math.lcm(d[r], d[c])
        a[r][c], a[c][r] = s // d[r], s // d[c]
    return CartanDatum(tuple(range(1, n + 1)), a, d)


@given(symmetrizable_data())
def test_finite_type_matches_the_fraction_reference_on_random_data(datum):
    assert is_finite_type(datum) \
        == finite_type_reference.is_finite_type(datum)


def test_weyl_equal_and_longest():
    assert weyl_equal(A2, (1, 2, 1), (2, 1, 2))
    assert not weyl_equal(A2, (1, 2, 1), (1, 2))
    assert len(longest_word(A2)) == 3
    assert len(longest_word(A3)) == 6
    assert len(longest_word(G2)) == 6


AFFINE_A1 = CartanDatum((0, 1), ((2, -2), (-2, 2)), (1, 1))


@pytest.mark.parametrize("family, rank", [("A", 3), ("B", 3), ("G", 2)])
def test_weyl_equal_matches_the_fundamental_weight_action(family, rank):
    # Differential: the images of the simple roots against the reference
    # action on every fundamental weight, on all pairs of BFS words, so
    # each element is equal to itself only.
    datum = cartan_datum(family, rank)
    words = list(weyl_elements(datum).values())
    keys = [weyl_key(datum, w) for w in words]
    for (u, ku), (v, kv) in itertools.product(zip(words, keys), repeat=2):
        assert weyl_equal(datum, u, v) == (ku == kv), (u, v)


def test_weyl_equal_matches_the_fundamental_weight_action_on_affine_a1():
    # Random words over affine A1, reduced or not, against the reference;
    # half the pairs insert a letter twice into the first word, so they
    # are equal elements.
    rng = random.Random(27)
    equal = 0
    for _ in range(400):
        u = tuple(rng.choice((0, 1)) for _ in range(rng.randint(0, 8)))
        if rng.random() < 0.5:
            k = rng.randint(0, len(u))
            v = u[:k] + (rng.choice((0, 1)),) * 2 + u[k:]
        else:
            v = tuple(rng.choice((0, 1)) for _ in range(rng.randint(0, 8)))
        expected = weyl_key(AFFINE_A1, u) == weyl_key(AFFINE_A1, v)
        assert weyl_equal(AFFINE_A1, u, v) == expected, (u, v)
        equal += expected
    assert 150 < equal < 250


def test_positive_roots_counts():
    assert len(positive_roots(A2)) == 3
    assert len(positive_roots(A3)) == 6
    assert len(positive_roots(C2)) == 4
    assert len(positive_roots(G2)) == 6
    assert len(positive_roots(cartan_datum("B", 3))) == 9


def test_datum_json_roundtrip():
    for datum in (A2, C2, G2):
        assert datum_from_json(datum_to_json(datum)) == datum
