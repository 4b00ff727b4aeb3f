"""Reference finite-type test: the Fraction-pivot elimination that
qfold.rootdata.is_finite_type replaces.

It eliminates d_i a_ij with rational pivots and asks each pivot to be
positive.  The function body is kept as it was before the engine moved to
integer (Bareiss) leading principal minors; it serves only the
differential test (test_rootdata.py).
"""

from __future__ import annotations

from fractions import Fraction


def is_finite_type(datum) -> bool:
    """True when the symmetrized matrix d_i a_ij is positive definite, that
    is, when every pivot of its exact elimination is positive; exactly then
    the Weyl group is finite."""
    n = datum.rank
    m = [[Fraction(datum.symmetrizers[r] * datum.cartan[r][c])
          for c in range(n)] for r in range(n)]
    for k in range(n):
        if m[k][k] <= 0:
            return False
        for r in range(k + 1, n):
            factor = m[r][k] / m[k][k]
            m[r] = [v - factor * w for v, w in zip(m[r], m[k])]
    return True
