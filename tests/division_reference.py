"""Reference solver: the dense fraction-free elimination that
qfold.uqn._solve_laurent_system replaces.

It forms every update p*x - a*y of Bareiss elimination, zero products
included, and divides it by the previous pivot.  The function body is kept
as it was before the solver skipped zero products; it serves only the
differential test (test_division.py).
"""

from __future__ import annotations

from qfold.laurent import ONE, ZERO, LaurentDivisionError


def _solve_laurent_system(matrix, ncols):
    """Fraction-free Gaussian elimination for M z = rhs over the Laurent ring.

    matrix rows carry the rhs as their last entry.  Returns the solution
    list or None when inconsistent/underdetermined; divisions that fail to
    be exact also mean no Laurent solution and surface as None.
    """
    rows = [list(r) for r in matrix]
    nrows = len(rows)
    prev_pivot = ONE
    pivot_rows = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, nrows) if rows[i][col]), None)
        if piv is None:
            return None
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, nrows):
            for j in range(col + 1, ncols + 1):
                value = rows[r][col] * rows[i][j] - rows[i][col] * rows[r][j]
                try:
                    rows[i][j] = value.divexact(prev_pivot)
                except LaurentDivisionError:
                    return None
            rows[i][col] = ZERO
        prev_pivot = rows[r][col]
        pivot_rows.append(r)
        r += 1
    for i in range(r, nrows):
        if rows[i][ncols]:
            return None
    solution = [ZERO] * ncols
    for back in range(ncols - 1, -1, -1):
        acc = rows[back][ncols]
        for j in range(back + 1, ncols):
            acc = acc - rows[back][j] * solution[j]
        try:
            solution[back] = acc.divexact(rows[back][back])
        except LaurentDivisionError:
            return None
    return solution
