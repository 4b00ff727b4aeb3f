"""Tests for convex orders and the brute-force convexity oracle."""

from __future__ import annotations

import random

import pytest

import convexorder_reference
from convexorder import (
    ConvexOrderError,
    FunctionalTieError,
    check_convexity,
    order_from_functional,
    order_from_word,
)
from qfold.rootdata import (
    CartanDatum,
    cartan_datum,
    inversion_roots,
    is_reduced,
    longest_word,
    positive_roots,
)
from weyl_reference import apply_word

A2 = cartan_datum("A", 2)
A3 = cartan_datum("A", 3)

RANK3_TYPES = (("A", 1), ("A", 2), ("A", 3), ("B", 2), ("C", 2),
               ("B", 3), ("C", 3), ("G", 2))


def a2_roots():
    a1, a2 = A2.simple_root(1), A2.simple_root(2)
    return a1, a2, a1 + a2


def test_functional_order_a2():
    a1, a2, a12 = a2_roots()
    assert order_from_functional(A2, (0, 1)) == (a1, a12, a2)


def test_functional_tie_is_an_error():
    with pytest.raises(FunctionalTieError):
        order_from_functional(A2, (1, 1))


def test_word_order_a2_full_inversion_set():
    a1, a2, a12 = a2_roots()
    assert order_from_word(A2, (1, 2, 1)) == (a1, a12, a2)


def test_word_order_single_letter():
    a1, a2, a12 = a2_roots()
    order = order_from_word(A2, (1,))
    assert order[0] == a1 and set(order) == {a1, a2, a12}


def test_word_order_complement_separation():
    order = order_from_word(A3, (1, 2))
    a1 = A3.simple_root(1)
    a12 = A3.simple_root(1) + A3.simple_root(2)
    a3 = A3.simple_root(3)
    assert order.index(a1) < order.index(a12) < order.index(a3)


def test_word_order_rejects_non_reduced():
    with pytest.raises(ConvexOrderError):
        order_from_word(A2, (1, 1))


def test_check_convexity_accepts_good_order():
    a1, a2, a12 = a2_roots()
    order = (a1, a12, a2)
    assert check_convexity(order, [a1, a12, a2]) is None
    assert check_convexity(order, [a1]) is None


def test_check_convexity_finds_violation():
    # The sum above both summands breaks the cone-separation axioms.
    a1, a2, a12 = a2_roots()
    violation = check_convexity((a1, a2, a12), [a1, a2, a12])
    assert violation is not None
    assert violation.condition in (1, 2)
    assert check_convexity((a2, a1, a12), [a1, a2, a12]) is not None


def test_functional_orders_convex_rank_le_3():
    rng = random.Random(3)
    for family, rank in RANK3_TYPES:
        datum = cartan_datum(family, rank)
        roots = positive_roots(datum)
        done = 0
        while done < 3:
            h = tuple(rng.randint(-20, 20) for _ in range(rank))
            try:
                order = order_from_functional(datum, h)
            except FunctionalTieError:
                continue
            assert check_convexity(order, roots) is None, (family, rank, h)
            done += 1


def test_word_orders_convex_rank_le_3():
    for family, rank in RANK3_TYPES:
        datum = cartan_datum(family, rank)
        roots = positive_roots(datum)
        order = order_from_word(datum, longest_word(datum))
        assert sorted(order, key=roots.index) == roots
        assert check_convexity(order, roots) is None, (family, rank)


def test_word_order_prefix_words_convex():
    for word in ((1,), (1, 2), (1, 2, 1), (1, 2, 1, 3), (1, 2, 1, 3, 2)):
        order = order_from_word(A3, word)
        assert check_convexity(order, positive_roots(A3)) is None, word


def _word_of_chain(datum, chain):
    """The word whose inversion sequence is chain: beta_k = w(alpha_i) for
    w the product of the letters before k, so each letter is the one simple
    root that w sends to beta_k."""
    word = ()
    for beta in chain:
        letters = [i for i in datum.indices
                   if apply_word(word, datum.simple_root(i)) == beta]
        assert len(letters) == 1, (word, beta)
        word += (letters[0],)
    return word


@pytest.mark.parametrize("family, rank, slow", [
    ("A", 1, False), ("A", 2, False), ("A", 3, False), ("B", 2, False),
    ("C", 2, False), ("G", 2, False), ("B", 3, True), ("C", 3, True)])
def test_word_orders_match_the_separating_functional(family, rank, slow,
                                                     slow_enabled):
    # Differential: for every prefix of a reduced word of w0, the order of
    # the extended word and the reference's separating-functional order
    # are both convex and both put the prefix's chain first.  The chain is
    # the inversion sequence of a reduced word of w0 that starts with the
    # prefix.
    if slow and not slow_enabled:
        pytest.skip("needs --slow")
    datum = cartan_datum(family, rank)
    roots = positive_roots(datum)
    longest = longest_word(datum)
    for k in range(len(longest) + 1):
        word = longest[:k]
        prefix_chain = inversion_roots(datum, word)
        order = order_from_word(datum, word)
        reference = convexorder_reference.order_from_word(datum, word)
        for each in (order, reference):
            assert sorted(each, key=roots.index) == roots, (word, each)
            assert list(each[:k]) == prefix_chain, (word, each)
            assert check_convexity(each, roots) is None, (word, each)
        extended = _word_of_chain(datum, order)
        assert extended[:k] == word and len(extended) == len(roots)
        assert is_reduced(datum, extended)
        assert list(order) == inversion_roots(datum, extended)


def test_word_chain_check_catches_a_foreign_order():
    # Negative control for _word_of_chain: the positive roots of A2 in the
    # order a1, a2, a1+a2 are no inversion sequence.
    a1, a2, a12 = a2_roots()
    with pytest.raises(AssertionError):
        _word_of_chain(A2, [a1, a2, a12])


def test_word_order_of_infinite_type_is_a_value_error():
    affine = CartanDatum((1, 2), ((2, -2), (-2, 2)), (1, 1))
    with pytest.raises(ValueError, match="Weyl group is infinite"):
        order_from_word(affine, (1, 2))
