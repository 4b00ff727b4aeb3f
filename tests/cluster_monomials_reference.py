"""Reference cluster-monomial check: the per-(seed, exponent) loop that
qfold.verify.check_cluster_monomials replaces.

It builds and checks the normalized monomial of every exponent in every
seed, so a monomial shared by several seeds is checked once per seed.  The
function body is kept as it was before the check remembered its verdicts,
except that a failing report names the cluster_monomials check, as the
engine's does, and that it builds that report from the CheckFailed the
element check raises; it serves only the differential tests.  It calls
qfold.verify through the module, so a test that patches
realized_exchange_graph patches it here too.
"""

from __future__ import annotations

import itertools

from qfold import verify
from qfold.initquiver import resolve_word
from qfold.uqn import OracleContext


def check_cluster_monomials(input_spec, word, max_exponent=1):
    instance = {"check": "cluster_monomials", "input": input_spec,
                "word": list(word), "max_exponent": max_exponent}
    datum, quiver = verify.resolve_input(input_spec)
    seeds = verify.realized_exchange_graph(
        datum, resolve_word(datum, word, quiver), 200, OracleContext(datum))
    tested = 0
    for seed in seeds:
        labels = seed.pair.labels
        exponent_sets = []
        for s in labels:
            exponent_sets.append([(s, v) for v in range(max_exponent + 1)])
        combos = [{s: v for s, v in combo}
                  for combo in itertools.product(*exponent_sets)]
        combos = [c for c in combos if 0 < sum(c.values()) <= 2]
        for s in labels:
            c = dict.fromkeys(labels, 0)
            c[s] = 2
            if c not in combos:
                combos.append(c)
        for a in combos:
            monomial = verify.normalized_shuffle_monomial(a, seed)
            tested += 1
            try:
                verify.check_dual_canonical_conditions(monomial)
            except verify.CheckFailed as failure:
                return verify.VerificationReport(
                    "cluster_monomials",
                    dict(instance, exponents={str(k): v for k, v in a.items()}),
                    "fail", failure.details, failure.witness)
    return verify.VerificationReport("cluster_monomials", instance, "pass",
                                     "%d monomials over %d seeds"
                                     % (tested, len(seeds)))
