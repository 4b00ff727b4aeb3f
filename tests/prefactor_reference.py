"""Reference q-power exponents of monomials: the two hand-written forms
that qfold.qcluster replaces by the one integer form P(a)/2.

bar_twist is QuantumTorus.bar_twist (here a function of the torus): the
reordering exponent sigma(a, a) plus the degree pairing of every factor
pair.  monomial_prefactor is P/4 written with Root sums and the bilinear
form.  The function bodies are kept as they were; they serve only the
differential tests.
"""

from __future__ import annotations

from qfold.qcluster import ParityError
from qfold.rootdata import Root, bilinear_form


def bar_twist(torus, a):
    """Exponent of q picked up by the bar involution on X^a.

    The ambient bar satisfies bar(AB) = q^{(deg A, deg B)} bar(B) bar(A),
    so reversing the ordered monomial contributes the degree pairing of
    every factor pair, and restoring canonical order contributes
    sigma(a, a).
    """
    total = torus.sigma(a, a)
    g = torus.degree_pairing
    for i in range(len(a)):
        if not a[i]:
            continue
        total += g[i][i] * (a[i] * (a[i] - 1) // 2)
        for j in range(i):
            total += g[i][j] * a[i] * a[j]
    return total


def monomial_prefactor(a: dict, labels, degrees, lam) -> int:
    """The exponent P/4 of the q-power prefactor of the normalized monomial
    Y^a over ordered labels, with degrees d and q-commutation matrix lam:
    P = (sum a_i d_i, sum a_i d_i) - sum a_i (d_i, d_i)
        + 2 sum_{i>j} a_i a_j lambda_ij;
    the parity condition lambda_ij = (d_i, d_j) mod 2 makes P divisible by 4
    (ParityError otherwise), and the result does not depend on the ordering.
    """
    datum = next(iter(degrees.values())).datum
    total = Root(datum, (0,) * datum.rank)
    for s in labels:
        total = total + a[s] * degrees[s]
    p = bilinear_form(total, total)
    for s in labels:
        p -= a[s] * bilinear_form(degrees[s], degrees[s])
    for i in range(len(labels)):
        for j in range(i):
            p += 2 * a[labels[i]] * a[labels[j]] * lam[i][j]
    if p % 4:
        raise ParityError("prefactor exponent %d is not divisible by 4" % p)
    return p // 4
