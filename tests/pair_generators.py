"""Random compatible pairs for property tests, and ungraded quantum tori.

Construction: pick a random skew-symmetrizable principal part B0 (via
e_i b_ij = -e_j b_ji), append an identity block of frozen rows, and take
Lambda = [[0, -2E], [2E, -2E B0]] which satisfies Lambda B = -2E exactly.
Optionally scramble by a few random mutations (mutation preserves
compatibility, which the tests then re-verify step by step).
"""

from __future__ import annotations

import random

from qfold.qcluster import CompatiblePair, QuantumTorus, mutate_pair


def random_compatible_pair(rng: random.Random, max_rank: int = 3,
                           scramble: bool = True) -> CompatiblePair:
    n = rng.randint(1, max_rank)
    e = [rng.randint(1, 2) for _ in range(n)]
    b0 = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            t = rng.randint(-2, 2)
            b0[i][j] = e[j] * t
            b0[j][i] = -e[i] * t
    m = 2 * n
    b = [row[:] for row in b0] + [[1 if r == c else 0 for c in range(n)]
                                  for r in range(n)]
    lam = [[0] * m for _ in range(m)]
    for i in range(n):
        lam[i][n + i] = -2 * e[i]
        lam[n + i][i] = 2 * e[i]
    for i in range(n):
        for j in range(n):
            lam[n + i][n + j] = -2 * e[i] * b0[i][j]
    labels = tuple(range(1, m + 1))
    pair = CompatiblePair(labels, labels[:n], lam, b)
    if scramble:
        for _ in range(rng.randint(0, 3)):
            pair = mutate_pair(pair, rng.choice(pair.exchangeable))
    return pair


def ungraded_torus(labels, lam) -> QuantumTorus:
    """The quantum torus of labels and lam with a zero degree pairing, for
    a torus used without a grading."""
    return QuantumTorus(labels, lam, tuple((0,) * len(labels) for _ in labels))
