"""Readers that the engine never calls: CompatiblePair.b_entry,
ExchangeData.principal_part and IceQuiver.exchangeable, written as
functions of the pair, the exchange data and the staircase quiver.  The
bodies are kept as they were; they serve only the tests.
"""

from __future__ import annotations


def b_entry(pair, s, t):
    """b_st of a compatible pair, by labels (t exchangeable)."""
    return pair.b[pair.pos(s)][pair.ex_pos(t)]


def principal_part(data):
    """The exchangeable rows of an ExchangeData matrix."""
    rows = [data.labels.index(s) for s in data.exchangeable]
    return tuple(tuple(data.matrix[r][c]
                       for c in range(len(data.exchangeable)))
                 for r in rows)


def exchangeable(ice):
    """The positions of a staircase quiver that are not frozen."""
    return tuple(t for t in ice.positions if t not in ice.frozen)
