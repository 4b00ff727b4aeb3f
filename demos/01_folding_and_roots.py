"""Folding quivers with automorphism into symmetrizable Cartan data.

A walk through the combinatorial ground floor: quivers with a vertex
automorphism, the folded pairing on orbits, reduced words and their
inversion sets, and convex orders on positive roots.
"""

from qfold.convexorder import check_convexity, order_from_functional, order_from_word
from qfold.folding import QuiverWithAut, fold, unfold_word, validate
from qfold.rootdata import (
    cartan_datum,
    inversion_roots,
    is_reduced,
    longest_word,
    positive_roots,
)

# --- Folding the A3 path by its diagram flip -------------------------------
#
# Vertices 1 -> 2 <- 3 with the automorphism swapping 1 and 3.  The orbits
# {1,3} and {2} become the two indices of a rank-2 Cartan datum with
# symmetrizers (2, 1): the folded datum of type C2.

a3 = QuiverWithAut((1, 2, 3), ((1, 2), (3, 2)), {1: 3, 2: 2, 3: 1})
print("violations:", validate(a3))
folded = fold(a3)
print("orbits:", folded.orbits)
print("pairing:", folded.pairing)
print("Cartan matrix:", folded.datum.cartan, "d =", folded.datum.symmetrizers)

# Words over the folded index set unfold blockwise; reduced words stay
# reduced upstairs.
j1, j2 = folded.orbits
word = (j1, j2, j1, j2)
print("unfolded longest word:", unfold_word(word, a3))

# --- The three-arm star folds to G2 ----------------------------------------

d4 = QuiverWithAut((1, 2, 3, 4), ((1, 2), (3, 2), (4, 2)),
                   {1: 3, 3: 4, 4: 1, 2: 2})
print("\nD4 star folded:", fold(d4).datum.cartan, "d =",
      fold(d4).datum.symmetrizers)

# --- Inversion sets and reduced words --------------------------------------

c2 = cartan_datum("C", 2)
word = (1, 2, 1, 2)
print("\nC2 word", word, "reduced?", is_reduced(c2, word))
for beta in inversion_roots(c2, word):
    print("  inversion root", beta.coords, "height", beta.height())

# --- Convex orders ----------------------------------------------------------
#
# Slope orders from a linear functional are convex; so is the order adapted
# to a reduced word: the inversion sequence of the word extended to a
# reduced word of w0 (Papi), so the word's own chain comes first.  The
# checker searches the cone-separation axioms exhaustively at small scale.

a3_datum = cartan_datum("A", 3)
roots = positive_roots(a3_datum)
order = order_from_functional(a3_datum, (0, 1, 4))
print("\nslope order on A3 positive roots:")
print("  ", [r.coords for r in order.sort(roots)])
print("convex?", check_convexity(order, roots) is None)

word_order = order_from_word(a3_datum, longest_word(a3_datum))
print("word-adapted order agrees with its chain:",
      word_order.sort(roots)[: len(word_order.chain)] == list(word_order.chain))
print("convex?", check_convexity(word_order, roots) is None)
