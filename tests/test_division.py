"""Exact shuffle division: the Bareiss solver that skips zero products
against the dense reference in division_reference, on random sparse
Laurent systems and on every division a verify run makes, and each way
shuffle_divide_left refuses a division; and the verdict on a quotient that
exists over Q but not over Z[q, q^-1], in every dividing layer."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import division_reference as reference
from pair_generators import ungraded_torus
from qfold import uqn
from qfold.cli import main
from qfold.laurent import ONE, ZERO, LaurentDivisionError, LaurentScalar
from qfold.qcluster import TorusDivisionError, left_divide
from qfold.rootdata import Root, cartan_datum
from qfold.uqn import (
    ShuffleDivisionError,
    ShuffleElement,
    shuffle_divide_left,
    shuffle_product,
    theta_star,
)

A2 = cartan_datum("A", 2)

# A nonzero Laurent polynomial of one to three terms, small exponents.
nonzero = st.dictionaries(st.integers(-2, 2),
                          st.integers(-3, 3).filter(bool),
                          min_size=1, max_size=3).map(LaurentScalar)
# About a third of the entries are nonzero.
entry = st.one_of(nonzero, st.just(ZERO), st.just(ZERO))


def _times(matrix, z):
    out = []
    for row in matrix:
        acc = ZERO
        for m, x in zip(row, z):
            acc = acc + m * x
        out.append(acc)
    return out


@st.composite
def laurent_systems(draw):
    """(rows with the rhs last, number of unknowns) of one of four kinds:
    consistent (rhs = M z), a random rhs (often inconsistent), a repeated
    column (rank-deficient), and M scaled by 1 + q against the rhs of M
    (a quotient that is generally not Laurent)."""
    nrows = draw(st.integers(1, 8))
    ncols = draw(st.integers(1, 5))
    matrix = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    z = [draw(entry) for _ in range(ncols)]
    kind = draw(st.sampled_from(("consistent", "random", "deficient",
                                 "not_laurent")))
    rhs = _times(matrix, z)
    if kind == "random":
        rhs = [draw(entry) for _ in range(nrows)]
    elif kind == "deficient" and ncols > 1:
        c = draw(st.integers(1, ncols - 1))
        scale = draw(nonzero)
        for row in matrix:
            row[c] = row[0] * scale
    elif kind == "not_laurent":
        one_plus_q = LaurentScalar({0: 1, 1: 1})
        matrix = [[m * one_plus_q for m in row] for row in matrix]
    return [row + [b] for row, b in zip(matrix, rhs)], ncols


@settings(max_examples=300, deadline=None, database=None)
@given(laurent_systems())
def test_solver_matches_the_dense_reference(system):
    matrix, ncols = system
    before = [list(row) for row in matrix]
    assert uqn._solve_laurent_system(matrix, ncols) \
        == reference._solve_laurent_system(matrix, ncols)
    assert matrix == before


def test_solver_verdicts_on_small_systems():
    q = LaurentScalar.q_power(1)
    one_plus_q = ONE + q
    # Consistent, overdetermined: (1, q) z = (q, q^2).
    assert uqn._solve_laurent_system([[ONE, q], [q, q * q]], 1) == [q]
    # Inconsistent, a zero column, and a quotient 1 / (1 + q).
    assert uqn._solve_laurent_system([[ONE, ONE], [q, ZERO]], 1) is None
    assert uqn._solve_laurent_system([[ONE, ZERO, ONE]], 2) is None
    assert uqn._solve_laurent_system([[one_plus_q, ONE]], 1) is None
    # Inconsistent after a pivot of 2 over two rows with multiplier zero,
    # which the update still rescales by the pivot: unscaled, the next
    # update divides -1 by 2.
    two = ONE + ONE
    assert uqn._solve_laurent_system(
        [[ZERO, ONE, ZERO], [ZERO, ONE, ONE], [two, ZERO, ZERO]], 2) is None


def test_verify_divisions_match_the_reference(monkeypatch, capsys, tmp_path):
    # Every system that verify --slow and the A3 w0 cluster_monomials job
    # solve, solved again by the reference: the quotients are equal.  The
    # fast catalog's two checks on the A2 (1,2,1) graph share one
    # realization of it, and with it one division.
    systems = []
    solve = uqn._solve_laurent_system

    def recorded(matrix, ncols):
        solution = solve(matrix, ncols)
        systems.append((matrix, ncols, solution))
        return solution

    monkeypatch.setattr(uqn, "_solve_laurent_system", recorded)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"checks": [
        {"check": "cluster_monomials", "input": {"type": ["A", 3]},
         "word": [1, 2, 1, 3, 2, 1], "max_exponent": 1}]}))
    assert main(["verify", "--slow"]) == 0
    assert main(["verify", "--config", str(config)]) == 0
    capsys.readouterr()
    assert len(systems) == 26
    for matrix, ncols, solution in systems:
        assert solution is not None
        assert reference._solve_laurent_system(matrix, ncols) == solution


def test_divide_by_zero_raises():
    zero = ShuffleElement(A2, Root(A2, (0, 0)), {})
    with pytest.raises(ShuffleDivisionError, match="division by zero"):
        shuffle_divide_left(zero, theta_star(A2, 1))


def test_quotient_weight_must_be_effective():
    with pytest.raises(ShuffleDivisionError,
                       match="quotient weight is not effective"):
        shuffle_divide_left(theta_star(A2, 2), theta_star(A2, 1))


def test_dividend_that_is_no_left_multiple_raises(monkeypatch):
    # theta*_1 * z = t([1,2] + q[2,1]) for z = t[2], so [1,2] alone is no
    # left multiple: the solver finds the system inconsistent.
    verdicts = []
    solve = uqn._solve_laurent_system

    def recorded(matrix, ncols):
        verdicts.append(solve(matrix, ncols))
        return verdicts[-1]

    monkeypatch.setattr(uqn, "_solve_laurent_system", recorded)
    dividend = ShuffleElement(A2, Root(A2, (1, 1)), {(1, 2): ONE})
    with pytest.raises(ShuffleDivisionError,
                       match="no exact quotient exists"):
        shuffle_divide_left(theta_star(A2, 1), dividend)
    assert verdicts == [None]


def test_wrong_solution_is_caught_by_the_product_check(monkeypatch):
    a, z = theta_star(A2, 1), theta_star(A2, 2)
    product = shuffle_product(a, z)
    assert shuffle_divide_left(a, product) == z
    monkeypatch.setattr(uqn, "_solve_laurent_system",
                        lambda matrix, ncols: [LaurentScalar.q_power(1)]
                        * ncols)
    with pytest.raises(ShuffleDivisionError,
                       match="no exact quotient exists"):
        shuffle_divide_left(a, product)


X1 = ungraded_torus((1, 2), ((0, 3), (-3, 0))).element({(1, 0): ONE})

# Four divisions whose only quotient is 1/2: none of them has a quotient in
# Z[q, q^-1], so each is refused (the solver by returning None).
HALF_QUOTIENTS = {
    "divexact": (lambda: ONE.divexact(2), LaurentDivisionError),
    "solver": (lambda: uqn._solve_laurent_system(
        [[LaurentScalar({0: 2}), ONE]], 1), None),
    "shuffle": (lambda: shuffle_divide_left(theta_star(A2, 1).scale(2),
                                            theta_star(A2, 1)),
                ShuffleDivisionError),
    "torus": (lambda: left_divide(X1.scale(2), X1), TorusDivisionError),
}


@pytest.mark.parametrize("case", sorted(HALF_QUOTIENTS))
def test_a_quotient_of_one_half_is_no_quotient(case):
    divide, error = HALF_QUOTIENTS[case]
    if error is None:
        assert divide() is None
    else:
        with pytest.raises(error):
            divide()
