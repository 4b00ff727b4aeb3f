"""Quantum seed mutation, exchange graphs, and the verification harness.

Mutation happens twice in parallel: inside the based quantum torus (exact
left division) and inside the shuffle algebra (exact linear solve).  The
verification harness replays the structural identities on catalogued
instances and reports machine-readable results.
"""

from qfold.initquiver import initial_pair, resolve_word
from qfold.qcluster import (
    enumerate_exchange_graph,
    initial_seed,
    mutate_seed,
    specialize_classical,
)
from qfold.verify import load_catalog, resolve_input, run_check

# --- One mutation, concretely ---------------------------------------------

datum, _ = resolve_input({"type": ["A", 2]})
seed = initial_seed(*initial_pair(datum, (1, 2, 1)))
mutated = mutate_seed(seed, 1)
print("initial Y1:", seed.variables[1])
print("mutated Y1':", mutated.variables[1])
print("classical limit of Y1':",
      {k: str(v) for k, v in specialize_classical(mutated.variables[1]).items()})

# The exchange identity, verified in the shuffle algebra with the new
# variable identified among oracle-computable minors.
report = run_check({"check": "exchange_relation", "input": {"type": ["A", 2]},
                    "word": [1, 2, 1], "direction": 1})
print("exchange relation:", report.status, "|", report.details)

# --- Exchange graphs ---------------------------------------------------------

graph = enumerate_exchange_graph(seed)
print("\nA2 exchange graph: %d seeds, %d distinct cluster variables"
      % (len(graph.seeds), len(graph.cluster_variables())))

c2_input = {"quiver": {"vertices": [1, 2, 3], "edges": [[1, 2], [3, 2]],
                       "automorphism": {"1": 3, "2": 2, "3": 1}}}
c2_datum, c2_quiver = resolve_input(c2_input)
c2_word = resolve_word(c2_datum, (1, 2, 1, 2), c2_quiver)
c2_seed = initial_seed(*initial_pair(c2_datum, c2_word))
c2_graph = enumerate_exchange_graph(c2_seed)
print("C2 exchange graph: %d seeds, %d distinct cluster variables"
      % (len(c2_graph.seeds), len(c2_graph.cluster_variables())))

# Reduced-word independence: different initial words, identical variables.
print(run_check({"check": "word_independence", "input": c2_input,
                 "words": [[1, 2, 1, 2], [2, 1, 2, 1]]}).details)

# --- The catalogued verification suite ----------------------------------------

print("\nfast catalog:")
for r in map(run_check, load_catalog("catalog_fast.json")):
    print("  %-28s %-8s %s" % (r.check, r.status, r.details[:60]))
