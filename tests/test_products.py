"""Differential tests: the shuffle and torus products against the
per-interleaving and per-term-pair products in product_reference."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

import product_reference
from pair_generators import ungraded_torus
from qfold.laurent import LaurentScalar
from qfold.rootdata import Root, cartan_datum
from qfold.uqn import ShuffleElement, shuffle_product, words_of_weight

DATA = [cartan_datum("A", 2), cartan_datum("B", 2), cartan_datum("G", 2)]

_scalars = st.dictionaries(st.integers(-3, 3), st.integers(-4, 4),
                          max_size=3).map(LaurentScalar)


@st.composite
def shuffle_elements(draw, datum):
    coords = draw(st.tuples(*[st.integers(0, 2)] * datum.rank))
    weight = Root(datum, coords)
    words = words_of_weight(datum, weight)
    chosen = draw(st.lists(st.sampled_from(words), max_size=4, unique=True))
    return ShuffleElement(datum, weight, {w: draw(_scalars) for w in chosen})


@st.composite
def shuffle_pairs(draw):
    datum = draw(st.sampled_from(DATA))
    return draw(shuffle_elements(datum)), draw(shuffle_elements(datum))


@settings(max_examples=150, deadline=None)
@given(shuffle_pairs())
def test_shuffle_product_matches_reference(pair):
    x, y = pair
    product = shuffle_product(x, y)
    assert product == product_reference.shuffle_product(x, y)
    assert product.weight == x.weight + y.weight


@st.composite
def torus_pairs(draw):
    m = draw(st.integers(1, 3))
    lam = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            lam[i][j] = draw(st.integers(-3, 3))
            lam[j][i] = -lam[i][j]
    torus = ungraded_torus(tuple(range(1, m + 1)), tuple(map(tuple, lam)))
    exponents = st.tuples(*[st.integers(-2, 2)] * m)
    elements = st.dictionaries(exponents, _scalars, max_size=4).map(
        torus.element)
    return draw(elements), draw(elements)


@settings(max_examples=150, deadline=None)
@given(torus_pairs())
def test_torus_product_matches_reference(pair):
    a, b = pair
    assert a * b == product_reference.torus_product(a, b)
