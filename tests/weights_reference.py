"""Reference weight-to-root conversion: the Gauss-Jordan solve over Q that
qfold.rootdata used before every extremal weight's lambda - w lambda was
read off its word as an integer root.

_solve_root_coords is kept as it was; to_root and dominance_leq were the
Weight.to_root method and the rootdata function of the same name.  The
solve rejects a singular Cartan matrix, so these serve only the
differential tests on finite types (test_extremal_weights.py) and the
exhaustive minor search (minor_search_reference.py).
"""

from __future__ import annotations

from fractions import Fraction

from qfold.rootdata import Root


def _solve_root_coords(datum, omega_coords):
    """Solve A x = omega_coords over Q (A = Cartan matrix); None if inconsistent."""
    n = datum.rank
    aug = [[Fraction(datum.cartan[r][c]) for c in range(n)]
           + [Fraction(omega_coords[r])] for r in range(n)]
    pivots = []
    row = 0
    for col in range(n):
        piv = next((r for r in range(row, n) if aug[r][col] != 0), None)
        if piv is None:
            continue
        aug[row], aug[piv] = aug[piv], aug[row]
        inv = Fraction(1) / aug[row][col]
        aug[row] = [v * inv for v in aug[row]]
        for r in range(n):
            if r != row and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
    for r in range(row, n):
        if aug[r][n] != 0:
            return None
    if len(pivots) != n:
        raise ValueError("singular Cartan matrix: root coordinates not unique")
    sol = [Fraction(0)] * n
    for r, col in enumerate(pivots):
        sol[col] = aug[r][n]
    return sol


def to_root(weight):
    """Express in the simple-root basis: a Root, or None when the weight
    is outside the root lattice."""
    coords = _solve_root_coords(weight.datum, weight.coords)
    if coords is None or any(c.denominator != 1 for c in coords):
        return None
    return Root(weight.datum, tuple(int(c) for c in coords))


def dominance_leq(mu, eta) -> bool:
    """True iff eta - mu is a nonnegative integer combination of simple roots.

    Weights differing outside the root lattice compare as False.
    """
    diff = to_root(eta - mu)
    return diff is not None and all(c >= 0 for c in diff.coords)
