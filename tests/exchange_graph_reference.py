"""Reference exchange graph: the breadth-first search that
qfold.qcluster.enumerate_exchange_graph replaces.

It runs the full quantum exchange step on every edge (mutated_variable, the
degree rule and mutate_pair) and keys seeds by seed_canonical_key, the
serialized variables with Lambda and B permuted to match.  The function
bodies are kept as they were before seeds carried g-vectors; they serve
only the differential test.
"""

from __future__ import annotations

from pair_reference import b_entry
from qfold.qcluster import (
    ExchangeGraph,
    QuantumSeed,
    mutate_pair,
    mutated_variable,
    seed_canonical_key,
)


def mutate_seed(seed, k):
    variables = dict(seed.variables)
    variables[k] = mutated_variable(seed, k)
    degrees = dict(seed.degrees)
    degrees[k] = sum((max(b_entry(seed.pair, t, k), 0) * seed.degrees[t]
                      for t in seed.pair.labels), -seed.degrees[k])
    return QuantumSeed(mutate_pair(seed.pair, k), degrees, variables,
                       seed.unit)


def enumerate_exchange_graph(seed, bound=1000):
    seeds = [seed]
    index = {seed_canonical_key(seed): 0}
    edges = []
    frontier = [0]
    complete = True
    while frontier:
        new_frontier = []
        for src in frontier:
            for k in seed.pair.exchangeable:
                mutated = mutate_seed(seeds[src], k)
                key = seed_canonical_key(mutated)
                if key not in index:
                    if len(seeds) >= bound:
                        complete = False
                        continue
                    index[key] = len(seeds)
                    seeds.append(mutated)
                    new_frontier.append(index[key])
                edges.append((src, k, index[key]))
        frontier = new_frontier
    return ExchangeGraph(seeds, edges, complete)


def cluster_variables(graph):
    seen = {}
    for seed in graph.seeds:
        for s in seed.pair.labels:
            var = seed.variables[s]
            seen[var.canonical_key()] = var
    return [seen[k] for k in sorted(seen)]
