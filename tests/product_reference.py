"""Reference products: the per-interleaving shuffle product and the
per-term-pair torus product that qfold.uqn.shuffle_product and
qfold.qcluster.TorusElement.__mul__ replace.

Both build one Laurent scalar per interleaving (per term pair) and add it
into the result, so they are slow; they serve only the differential test.
The function bodies are kept as they were.
"""

from __future__ import annotations

from qfold.laurent import ZERO, LaurentScalar
from qfold.qcluster import TorusElement
from qfold.uqn import ShuffleElement, _pairing_table


def shuffle_product(x: ShuffleElement, y: ShuffleElement) -> ShuffleElement:
    """The quantum shuffle product.

    For words u and v the product is the sum over interleavings w with
    coefficient q^(-s), where s adds the pairing (alpha_b, alpha_a) over
    every pair of a v-letter b placed before a u-letter a in w.  This twist
    sign makes the word realization multiplicative for the dual of the
    quantized enveloping algebra's coproduct; it is pinned down by the
    bar-product identity and the minor-squaring identity in the tests.
    """
    if x.datum != y.datum:
        raise TypeError("elements live over different Cartan data")
    datum = x.datum
    acc = {}
    pairing = _pairing_table(datum)
    for u, cu in x.terms.items():
        for v, cv in y.terms.items():
            base = cu * cv
            for word, exponent in _interleavings(datum, pairing, u, v):
                c = base * LaurentScalar.q_power(exponent)
                prev = acc.get(word, ZERO) + c
                if prev:
                    acc[word] = prev
                else:
                    acc.pop(word, None)
    weight = x.weight + y.weight
    return ShuffleElement(datum, weight, acc)


def _interleavings(datum, pairing, u, v):
    """Yield (word, twist exponent) over all interleavings of u and v."""

    def rec(iu, iv, exponent):
        if iu == len(u) and iv == len(v):
            yield (), exponent
            return
        if iu < len(u):
            # u-letter placed now; every remaining v-letter stays after it.
            for rest, e in rec(iu + 1, iv, exponent):
                yield (u[iu],) + rest, e
        if iv < len(v):
            # v-letter placed before all remaining u-letters.
            penalty = sum(pairing[(v[iv], u[k])] for k in range(iu, len(u)))
            for rest, e in rec(iu, iv + 1, exponent - penalty):
                yield (v[iv],) + rest, e

    return rec(0, 0, 0)


def torus_product(self: TorusElement, other: TorusElement) -> TorusElement:
    acc = {}
    for a, ca in self.terms.items():
        for b, cb in other.terms.items():
            key = tuple(x + y for x, y in zip(a, b))
            c = ca * cb * LaurentScalar.q_power(self.torus.sigma(a, b))
            s = acc.get(key, ZERO) + c
            if s:
                acc[key] = s
            else:
                acc.pop(key, None)
    return TorusElement(self.torus, acc)
