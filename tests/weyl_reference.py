"""Reference Weyl-group action: simple reflections applied letter by letter
to Weight and Root objects, as qfold.rootdata did before its extremal
exponents and element keys were read off the one pass of inversion_roots,
and the longest word and positive roots of a finite Weyl group.

reflect and apply_word are kept as they were; coroot_pairing and to_weight
were the Root methods of the same names (a Weight keeps its own
coroot_pairing, its i-th coordinate); extremal_exponents and weyl_key are
the reflection-based rootdata.extremal_exponents and rootdata._weyl_key.
They serve only the tests: as the definitions the engine's one-pass
results are checked against, and to move weights and roots by a word.
longest_word and positive_roots are rootdata's functions of those names,
kept unchanged; no engine code calls them.
"""

from __future__ import annotations

from qfold.rootdata import (
    CartanDatum,
    Root,
    Weight,
    inversion_roots,
    is_reduced,
    weyl_elements,
)


def coroot_pairing(beta: Root, i) -> int:
    """<beta, alpha_i-check> = sum_j a_ij beta_j."""
    datum = beta.datum
    r = datum.pos(i)
    return sum(datum.cartan[r][c] * beta.coords[c] for c in range(datum.rank))


def to_weight(beta: Root) -> Weight:
    """Convert: omega-coordinates of beta are (A beta) with A the Cartan matrix."""
    datum = beta.datum
    coords = tuple(
        sum(datum.cartan[r][c] * beta.coords[c] for c in range(datum.rank))
        for r in range(datum.rank))
    return Weight(datum, coords)


def reflect(v, i):
    """Simple reflection s_i(v) = v - <v, alpha_i-check> alpha_i."""
    datum = v.datum
    if isinstance(v, Root):
        return v - coroot_pairing(v, i) * datum.simple_root(i)
    return v - v.coroot_pairing(i) * to_weight(datum.simple_root(i))


def apply_word(word, v):
    """Apply s_{i1}...s_{in} to v (leftmost letter acts last)."""
    for i in reversed(tuple(word)):
        v = reflect(v, i)
    return v


def extremal_exponents(lam: Weight, word):
    """Divided-power exponents c_k with v_{w lam} = F_{i1}^{(c1)}...F_{in}^{(cn)} v_lam.

    c_k is the coroot pairing of alpha_{i_k} against s_{i_{k+1}}...s_{i_n} lam,
    accumulated right to left.  Requires lam dominant and the word reduced.
    """
    datum = lam.datum
    word = tuple(word)
    if not lam.is_dominant():
        raise ValueError("extremal exponents need a dominant weight")
    if not is_reduced(datum, word):
        raise ValueError("word %r is not reduced" % (word,))
    exponents = [0] * len(word)
    v = lam
    for k in range(len(word) - 1, -1, -1):
        i = word[k]
        exponents[k] = v.coroot_pairing(i)
        v = reflect(v, i)
    if any(c < 0 for c in exponents):
        raise AssertionError("negative extremal exponent; input invariants broken")
    return exponents


def weyl_key(datum, word):
    """The action of a word on all fundamental weights."""
    return tuple(apply_word(word, datum.fundamental_weight(i)).coords
                 for i in datum.indices)


def positive_roots(datum: CartanDatum):
    """All positive roots of a finite-type datum, via the longest element;
    ValueError for an infinite Weyl group."""
    longest = longest_word(datum)
    return sorted(set(inversion_roots(datum, longest)),
                  key=lambda beta: (beta.height(), beta.coords))


def longest_word(datum: CartanDatum):
    """A reduced word for the longest element of a finite Weyl group;
    ValueError for an infinite one."""
    words = weyl_elements(datum).values()
    return max(words, key=len)
