"""Committed source mutations, each with the test that must kill it.

A mutant is one exact text replacement in one module of src/qfold.  Its
old text occurs exactly once in src/ (tests/test_mutants.py checks it in
tier-1), so a refactor that moves the mutated code must update this table
on purpose.  With --slow, test_mutants.py applies each mutant to a copy of
src/, tests/ and pyproject.toml, runs the killing test from that copy and
requires it to fail.  A mutant that survives is a finding; it stays in the
table.
"""

from __future__ import annotations

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    module: str     # path from the repository root
    old: str        # exact text, once in src/
    new: str
    test: str       # the killing test id, from the repository root


MUTANTS = [
    Mutant("mutate_pair ignores the step's row",
           "src/qfold/qcluster.py",
           "    if new_row is None:\n"
           "        new_row = mutated_lambda_row(pair, k)\n",
           "    new_row = mutated_lambda_row(pair, k)\n",
           "tests/test_cli_golden.py::test_a4_enumerate_output_and_work"),
    Mutant("Bareiss skips the rescale of an entry whose multiplier is zero",
           "src/qfold/uqn.py",
           "                elif x:\n",
           "                elif x and a:\n",
           "tests/test_division.py::test_solver_verdicts_on_small_systems"),
    Mutant("the g-vector rule flips the sign of b_ik",
           "src/qfold/qcluster.py",
           "        weight = -eps * row[kc]\n",
           "        weight = eps * row[kc]\n",
           "tests/test_edge_kernels.py::"
           "test_kernels_match_reference_on_random_pairs"),
    Mutant("the extremal exponent is not divided by d_{i_k}",
           "src/qfold/rootdata.py",
           "divmod(sum(map(mul, weights, gamma.coords)), datum.d(i))",
           "divmod(sum(map(mul, weights, gamma.coords)), 1)",
           "tests/test_extremal_weights.py::"
           "test_extremal_exponents_match_the_reflections[B3]"),
]
