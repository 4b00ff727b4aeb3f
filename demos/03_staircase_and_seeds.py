"""Staircase quivers and initial seeds realized by the oracle's minors.

The staircase quiver of a reduced word draws its initial exchange matrix,
which initial_pair computes from the word alone for any symmetrizable datum;
for a folded type it equals the unfolded staircase summed over position
orbits, as below.
The commutation matrix Lambda comes from the degrees of the initial minors
(verify's initial_lambda check q-commutes the minors to confirm it), and
the two structures are compatible: Lambda B = -2E.
"""

from qfold.folding import QuiverWithAut, fold, underlying_datum
from qfold.initquiver import (
    build_initial_quiver,
    fold_exchange_matrix,
    quiver_to_dot,
    vertex_orbits_from_unfolding,
)
from qfold.qcluster import check_compatible
from qfold.rootdata import CartanDatum, cartan_datum
from qfold.verify import oracle_seed_data

# --- A rank-3 staircase with large multiplicities ----------------------------

wild = CartanDatum((1, 2, 3),
                   ((2, -3, -4), (-3, 2, -2), (-4, -2, 2)),
                   (1, 1, 1))
word = (1, 2, 1, 3, 1, 2, 1, 2, 3, 2)
ice = build_initial_quiver(word, wild)
print("frozen vertices:", sorted(ice.frozen))
print("a few arrows:", ice.arrows[:6])
print()
print(quiver_to_dot(build_initial_quiver((1, 2, 1), cartan_datum("A", 2))))

# --- Orbit-summed exchange matrix for the folded C2 ---------------------------

a3 = QuiverWithAut((1, 2, 3), ((1, 2), (3, 2)), {1: 3, 2: 2, 3: 1})
j1, j2 = fold(a3).orbits
unfolded, orbits, perm = vertex_orbits_from_unfolding((j1, j2, j1, j2), a3)
stair = build_initial_quiver(unfolded, underlying_datum(a3))
exchange = fold_exchange_matrix(stair, orbits)
print("unfolded word:", unfolded)
print("position orbits:", orbits)
print("orbit-summed B:")
for row in exchange.matrix:
    print("   ", row)

# --- The oracle seed -----------------------------------------------------------

seed = oracle_seed_data(fold(a3).datum, (j1, j2, j1, j2))
print("\noracle Lambda:")
for row in seed.pair.lam:
    print("   ", row)
print("compatibility: Lambda B = -2E with E =", check_compatible(seed.pair))
for t in sorted(seed.variables):
    print("Y%d = %s" % (t, seed.variables[t]))
