"""Folding quivers with automorphism into symmetrizable Cartan data.

A walk through the combinatorial ground floor: quivers with a vertex
automorphism, the folded pairing on orbits, and reduced words and their
inversion sets.
"""

from qfold.folding import QuiverWithAut, fold, unfold_word, validate
from qfold.rootdata import cartan_datum, inversion_roots, is_reduced

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
