"""Convex orders on positive roots and a brute-force convexity checker.

An order is a tuple of roots, lowest first.  Two constructions are
provided: the slope order attached to an injective linear functional h
(alpha < beta iff h(alpha)/ht(alpha) < h(beta)/ht(beta)) and the order
adapted to a reduced word.  In finite type the convex orders are exactly
the inversion sequences of reduced words of w0 (Papi, Proc. AMS 1994), so
the word is extended letter by letter to a reduced word of w0 and the
order is the inversion chain beta_1 < ... < beta_N of the extension: the
word's own chain first, the rest of the positive roots above it.

The checker verifies the two cone-separation axioms of a convex (pre)order
on a finite root set by exhaustive small-coefficient search; it is meant as
an independent oracle, not an efficient algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from qfold.rootdata import Root, inversion_roots, is_reduced, positive_roots
from weyl_reference import apply_word


class ConvexOrderError(ValueError):
    pass


class FunctionalTieError(ConvexOrderError):
    """The functional fails to separate two distinct roots."""


@dataclass(frozen=True)
class ConvexityViolation:
    condition: int
    pivot: Root
    multiple: int
    combination: tuple          # (root, coefficient) pairs forming x
    target_side: tuple          # generators of the cone that absorbed pivot*m + x

    def __str__(self):
        combo = " + ".join("%d*%s" % (c, r.coords) for r, c in self.combination)
        return ("condition %d fails at %s: %d*pivot + %s lies in the opposite cone"
                % (self.condition, self.pivot.coords, self.multiple, combo))


def _slope(h, root):
    value = sum(Fraction(hc) * c for hc, c in zip(h, root.coords))
    return value / root.height()


def order_from_functional(datum, h) -> tuple:
    """The positive roots in the slope order of a rational functional given
    on the simple roots; FunctionalTieError when two of them share a slope."""
    h = tuple(Fraction(x) for x in h)
    if len(h) != datum.rank:
        raise ValueError("functional length does not match rank")
    slope = {r: _slope(h, r) for r in positive_roots(datum)}
    order = tuple(sorted(slope, key=slope.get))
    for a, b in zip(order, order[1:]):
        if slope[a] == slope[b]:
            raise FunctionalTieError(
                "functional not injective: roots %s and %s share slope %s"
                % (a.coords, b.coords, slope[a]))
    return order


def order_from_word(datum, word) -> tuple:
    """The convex order adapted to a reduced word.

    The word is extended to a reduced word of w0 by appending, one letter at
    a time, the first index that keeps it reduced: w s_i is longer than w
    exactly when w(alpha_i) is positive, and every w other than w0 has such
    an i, so the extension ends at length |Phi+|.  The order is the
    inversion chain of the extension, whose first len(word) entries are the
    word's own chain.
    """
    word = tuple(word)
    if not is_reduced(datum, word):
        raise ConvexOrderError("word %r is not reduced" % (word,))
    for _ in range(len(positive_roots(datum)) - len(word)):
        word += (next(i for i in datum.indices
                      if apply_word(word, datum.simple_root(i)).is_positive()),)
    return tuple(inversion_roots(datum, word))


def _in_nonneg_span(target, generators, memo):
    """Exact membership of an integer vector in the Z>=0-span of root vectors."""
    key = target
    if key in memo:
        return memo[key]
    if all(c == 0 for c in target):
        memo[key] = True
        return True
    if any(c < 0 for c in target):
        memo[key] = False
        return False
    for gen in generators:
        nxt = tuple(t - gc for t, gc in zip(target, gen))
        if all(c >= 0 for c in nxt) and _in_nonneg_span(nxt, generators, memo):
            memo[key] = True
            return True
    memo[key] = False
    return False


def _bounded_combinations(generators, bound):
    """Nonzero Z>=0-combinations of the generators with coefficient sum <= bound."""
    gens = list(generators)

    def rec(idx, remaining):
        if idx == len(gens):
            yield ()
            return
        for c in range(remaining + 1):
            for rest in rec(idx + 1, remaining - c):
                yield (c,) + rest

    for coeffs in rec(0, bound):
        if any(coeffs):
            vec = tuple(sum(c * g[k] for c, g in zip(coeffs, gens))
                        for k in range(len(gens[0]) if gens else 0))
            yield coeffs, vec


def check_convexity(order, roots, bound=None):
    """Search for a violation of the two convexity axioms on a finite root set.

    For every pivot root the integer cone of the roots strictly above it
    must not reach back (after adding a multiple of the pivot) into the cone
    of the roots below it, and symmetrically.  Coefficients are bounded by
    the maximal height in the test set (desk scale only).  Returns None if
    no violation is found, otherwise a ConvexityViolation witness.
    """
    roots = list(roots)
    if not roots:
        return None
    if bound is None:
        bound = max(r.height() for r in roots)
    position = {r: k for k, r in enumerate(order)}
    for pivot in roots:
        at = position[pivot]
        above = [r for r in roots if position[r] > at]
        below_eq = [r for r in roots if position[r] <= at]
        below = [r for r in roots if position[r] < at]
        above_eq = [r for r in roots if position[r] >= at]
        for condition, x_side, cone_side in (
                (1, above, below_eq), (2, below, above_eq)):
            if not x_side:
                continue
            memo = {}
            cone_vecs = [r.coords for r in cone_side]
            for coeffs, vec in _bounded_combinations([r.coords for r in x_side],
                                                     bound):
                for mult in range(bound + 1):
                    total = tuple(v + mult * p
                                  for v, p in zip(vec, pivot.coords))
                    if _in_nonneg_span(total, cone_vecs, memo):
                        witness = tuple((r, c) for r, c in zip(x_side, coeffs) if c)
                        return ConvexityViolation(
                            condition, pivot, mult, witness,
                            tuple(r.coords for r in cone_side))
    return None
