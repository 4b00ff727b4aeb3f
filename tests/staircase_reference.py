"""Reference staircase construction: the per-row zigzag scan that
`qfold.initquiver.build_initial_quiver` replaced by the closed rule
a < b < a+ <= b+.  The bodies are kept as they were; the differential
tests compare arrows and frozen sets word by word.
"""

from __future__ import annotations

from qfold.initquiver import IceQuiver
from qfold.rootdata import CartanDatum, is_reduced


def _interrow_arrow(rows, i, j, a, b):
    """The zigzag predicate: -i.j arrows from (a,i) to (b,j)?

    Requires a < b with no row-i vertex between a and b, and no row-j
    vertex c > b whose gap down to b is free of row-i vertices.  The first
    clause does not appear in the prose rule but is forced by the worked
    figure (without it every row would also shoot arrows at far-away
    vertices, e.g. 4 -> 10 in the figure).
    """
    if a >= b:
        return False
    if any(a < e < b for e in rows[i]):
        return False
    for c in rows[j]:
        if c > b and not any(b < d < c for d in rows[i]):
            return False
    return True


def build_initial_quiver(word, datum: CartanDatum) -> IceQuiver:
    """The staircase quiver Q(i_1, ..., i_m) of a reduced word."""
    word = tuple(word)
    if not is_reduced(datum, word):
        raise ValueError("word %r is not reduced" % (word,))
    m = len(word)
    rows = {i: [t for t in range(1, m + 1) if word[t - 1] == i]
            for i in datum.indices}
    arrows = []
    # Horizontal arrows point left between consecutive vertices of a row.
    for i, ts in rows.items():
        for prev, nxt in zip(ts, ts[1:]):
            arrows.append((nxt, prev, 1))
    # Inter-row arrows carry multiplicity -i.j = -d_i a_ij.
    for a in range(1, m + 1):
        i = word[a - 1]
        for b in range(1, m + 1):
            j = word[b - 1]
            if i == j:
                continue
            mult = -datum.d(i) * datum.a(i, j)
            if mult and _interrow_arrow(rows, i, j, a, b):
                arrows.append((a, b, mult))
    frozen = frozenset(ts[-1] for ts in rows.values() if ts)
    return IceQuiver(datum, word, tuple(sorted(arrows)), frozen)
