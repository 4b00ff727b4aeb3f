"""Quivers with admissible automorphism and folding to symmetrizable Cartan data.

Folding sends a quiver Q with automorphism a to the Cartan datum on the
orbit set J: the pairing has j.j = 2|j| on the diagonal, and -j.k counts
all edges of Q joining the two orbits.  Unfolding expands a word over J
back to a word over the vertices, one orbit block at a time.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .rootdata import CartanDatum


class InvalidQuiverError(ValueError):
    """Raised when folding is attempted on a quiver that fails validation."""


@dataclass(frozen=True)
class Violation:
    kind: str
    detail: str

    def __str__(self):
        return "%s: %s" % (self.kind, self.detail)


@dataclass
class QuiverWithAut:
    """A directed multigraph with a vertex permutation.

    edges is a multiset given by repetition; automorphism maps each vertex
    to its image (identity by default).  Vertex labels must be sortable.
    """

    vertices: tuple
    edges: tuple
    automorphism: dict = field(default_factory=dict)

    def __post_init__(self):
        self.vertices = tuple(self.vertices)
        self.edges = tuple((s, t) for s, t in self.edges)
        if not self.automorphism:
            self.automorphism = {v: v for v in self.vertices}

    def orbits(self):
        """Orbits of the automorphism, each ascending, sorted by least vertex."""
        seen = set()
        orbits = []
        for v in sorted(self.vertices):
            if v in seen:
                continue
            orbit = [v]
            seen.add(v)
            w = self.automorphism.get(v, v)
            while w not in seen:
                orbit.append(w)
                seen.add(w)
                w = self.automorphism.get(w, w)
            orbits.append(tuple(sorted(orbit)))
        return sorted(orbits, key=lambda o: o[0])

    def orbit_lookup(self) -> dict:
        """{letter: orbit} for every orbit and every vertex of one."""
        orbits = self.orbits()
        lookup = {orbit: orbit for orbit in orbits}
        lookup.update((v, orbit) for orbit in orbits for v in orbit)
        return lookup


def validate(quiver: QuiverWithAut):
    """Check all quiver-with-automorphism invariants.

    Returns a list of Violation records; an empty list means the quiver is
    admissible for folding.
    """
    violations = []
    verts = set(quiver.vertices)
    if len(verts) != len(quiver.vertices):
        violations.append(Violation("duplicate-vertex", "vertex labels repeat"))
    aut = quiver.automorphism
    if set(aut) != verts or set(aut.values()) != verts:
        violations.append(Violation(
            "not-a-permutation",
            "automorphism is not a permutation of the vertex set"))
        return violations
    for s, t in quiver.edges:
        if s not in verts or t not in verts:
            violations.append(Violation(
                "dangling-edge", "edge (%r, %r) leaves the vertex set" % (s, t)))
        if s == t:
            violations.append(Violation("loop", "loop at vertex %r" % (s,)))
    if violations:
        return violations
    if Counter(quiver.edges) != Counter((aut[s], aut[t]) for s, t in quiver.edges):
        violations.append(Violation(
            "edges-not-preserved",
            "the vertex permutation does not permute the edge multiset"))
    orbit_of = quiver.orbit_lookup()
    for s, t in quiver.edges:
        if orbit_of[s] == orbit_of[t]:
            violations.append(Violation(
                "edge-inside-orbit",
                "edge (%r, %r) joins two vertices of orbit %r" % (s, t, orbit_of[s])))
    return violations


@dataclass
class FoldedCartan:
    """Result of folding: the orbit set, its pairing, and the Cartan datum."""

    orbits: tuple
    pairing: tuple
    datum: CartanDatum


def fold(quiver: QuiverWithAut) -> FoldedCartan:
    """Fold an admissible quiver with automorphism into a Cartan datum.

    Orbits become the index set, d_j = |j|, and a_jk = (j.k) / |j|.
    """
    violations = validate(quiver)
    if violations:
        raise InvalidQuiverError("; ".join(str(v) for v in violations))
    orbits = quiver.orbits()
    orbit_of = quiver.orbit_lookup()
    m = len(orbits)
    index = {orbit: r for r, orbit in enumerate(orbits)}
    pairing = [[0] * m for _ in range(m)]
    for r, orbit in enumerate(orbits):
        pairing[r][r] = 2 * len(orbit)
    for s, t in quiver.edges:
        r, c = index[orbit_of[s]], index[orbit_of[t]]
        pairing[r][c] -= 1
        pairing[c][r] -= 1
    cartan = [[0] * m for _ in range(m)]
    for r in range(m):
        for c in range(m):
            num = 2 * pairing[r][c]
            if num % pairing[r][r]:
                raise InvalidQuiverError(
                    "pairing %d.%d not divisible; folded matrix not integral" % (r, c))
            cartan[r][c] = num // pairing[r][r]
    datum = CartanDatum(tuple(orbits),
                        tuple(tuple(row) for row in cartan),
                        tuple(len(orbit) for orbit in orbits))
    return FoldedCartan(tuple(orbits), tuple(tuple(row) for row in pairing), datum)


def underlying_datum(quiver: QuiverWithAut) -> CartanDatum:
    """The symmetric Cartan datum of the underlying graph: the fold under the
    identity automorphism, its orbits (v,) relabelled v."""
    datum = fold(QuiverWithAut(quiver.vertices, quiver.edges)).datum
    return CartanDatum(tuple(v for (v,) in datum.indices), datum.cartan,
                       datum.symmetrizers)


def orbit_word(word, quiver: QuiverWithAut):
    """The orbits a word names: each letter is an orbit tuple, or any vertex
    standing for its orbit.  Raises KeyError for any other letter."""
    known = quiver.orbit_lookup()
    for letter in word:
        if letter not in known:
            raise KeyError("letter %r is not an orbit of the automorphism" % (letter,))
    return tuple(known[letter] for letter in word)


def unfold_word(word, quiver: QuiverWithAut):
    """Expand a word over orbits to a word over vertices.

    Each letter is replaced by its orbit's vertices in ascending order.  The
    mathematical content does not depend on that order; the fixed
    convention keeps downstream quivers reproducible.
    """
    return tuple(v for orbit in orbit_word(word, quiver) for v in orbit)


def quiver_from_json(data: dict) -> QuiverWithAut:
    vertices = tuple(data["vertices"])
    by_name = {str(v): v for v in vertices}
    aut_raw = data.get("automorphism") or {}
    aut = {}
    for key, img in aut_raw.items():
        if key not in by_name:
            raise KeyError("automorphism key %r is not a vertex" % key)
        aut[by_name[key]] = img
    for v in vertices:
        aut.setdefault(v, v)
    return QuiverWithAut(vertices, tuple((s, t) for s, t in data["edges"]), aut)
