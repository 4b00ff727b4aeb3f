"""Reference folding code that qfold.folding no longer keeps.

underlying_datum is the function that wrote the symmetric Cartan matrix of
the underlying graph entry by entry, before it became the fold under the
identity automorphism; quiver_to_json is the serializer no engine code
calls.  The function bodies are kept as they were; they serve only the
tests.
"""

from __future__ import annotations

from qfold.folding import InvalidQuiverError, QuiverWithAut, validate
from qfold.rootdata import CartanDatum


def underlying_datum(quiver: QuiverWithAut) -> CartanDatum:
    """The symmetric Cartan datum of the underlying graph, indexed by vertices."""
    violations = validate(QuiverWithAut(quiver.vertices, quiver.edges))
    if violations:
        raise InvalidQuiverError("; ".join(str(v) for v in violations))
    verts = tuple(sorted(quiver.vertices))
    index = {v: r for r, v in enumerate(verts)}
    n = len(verts)
    cartan = [[2 if r == c else 0 for c in range(n)] for r in range(n)]
    for s, t in quiver.edges:
        cartan[index[s]][index[t]] -= 1
        cartan[index[t]][index[s]] -= 1
    return CartanDatum(verts, tuple(tuple(row) for row in cartan), (1,) * n)


def quiver_to_json(quiver: QuiverWithAut) -> dict:
    return {"vertices": list(quiver.vertices),
            "edges": [[s, t] for s, t in quiver.edges],
            "automorphism": {str(v): quiver.automorphism[v] for v in quiver.vertices}}
