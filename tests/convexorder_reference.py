"""Reference construction: the word-adapted convex order by a separating
functional, which convexorder.order_from_word replaces.

The word's inversion chain comes first; the complement of the inversion
set sits above it, in the slope order of a functional h that is negative
exactly on the inversion set, found by a seeded random search.  The
function bodies are kept as they were before the order came from Papi's
correspondence, except that the order is returned as a tuple of roots,
lowest first; they serve only the differential test (test_convexorder.py).
"""

from __future__ import annotations

import random
from fractions import Fraction

from convexorder import ConvexOrderError, _slope
from qfold.rootdata import inversion_roots, is_reduced, positive_roots
from weyl_reference import apply_word


def order_from_word(datum, word) -> tuple:
    """The convex order adapted to a reduced word.

    Inside the inversion set the order is the beta-chain; the inversion set
    sits below its complement; the complement carries the slope order of a
    functional h with h < 0 on the inversion set and h > 0 on the rest.
    Such an h is found as g(w(.)) for a generic positive g, retrying the
    perturbation until the slopes separate all positive roots.
    """
    word = tuple(word)
    if not is_reduced(datum, word):
        raise ConvexOrderError("word %r is not reduced" % (word,))
    chain = inversion_roots(datum, word)
    allpos = positive_roots(datum)
    rng = random.Random(1729)
    for _ in range(50):
        g = [Fraction(1) + Fraction(rng.randint(1, 10 ** 6), 10 ** 7)
             for _ in range(datum.rank)]
        h = _pullback_through_word(datum, word, g)
        slopes = [_slope(h, r) for r in allpos]
        if len(set(slopes)) == len(allpos):
            rest = sorted((r for r in allpos if r not in chain),
                          key=lambda r: _slope(h, r))
            return tuple(chain + rest)
    raise ConvexOrderError("could not find an injective separating functional")


def _pullback_through_word(datum, word, g):
    """Coordinates of beta -> g(w^-1(beta)) as a functional on the simple roots.

    The chain roots beta_k = s_{i1}...s_{i_{k-1}} alpha_{i_k} are exactly the
    positive roots sent negative by w^-1, so this pullback of a positive
    generic g is negative precisely on the chain set.
    """
    inverse = tuple(reversed(tuple(word)))
    h = []
    for i in datum.indices:
        image = apply_word(inverse, datum.simple_root(i))
        h.append(sum(gc * c for gc, c in zip(g, image.coords)))
    return h
