"""Reference realization: the two copies of the quantum exchange step that
qfold.qcluster.mutated_variable and qfold.qcluster.normalized_monomial
replace.

The torus side builds each normalized monomial from binary powers of the
variables (torus_power is TorusElement.__pow__ for nonnegative exponents)
and mutates with its own exchange step.  The shuffle side writes the
normalized monomial and the exchange right-hand side with shuffle products
on explicit labels, variables, degrees and Lambda, and divides and
renormalizes inline while walking the exchange graph.  The function bodies
are kept as they were, apart from the seed's unit in place of its torus;
they serve only the differential test.
"""

from __future__ import annotations

from qfold.laurent import LaurentScalar, qpower_ratio
from qfold.qcluster import (
    CompatibilityError,
    QuantumSeed,
    bar_defect,
    enumerate_exchange_graph,
    exchange_monomials,
    left_divide,
    monomial_prefactor,
    mutate_pair,
)
from qfold.rootdata import Root
from qfold.uqn import (
    bar_element,
    shuffle_divide_left,
    shuffle_product,
    unit_element,
)
from qfold.verify import build_seed


def torus_power(x, n):
    result = x.torus.unit()
    base = x
    while n:
        if n & 1:
            result = result * base
        base = base * base
        n >>= 1
    return result


def normalized_monomial(a, seed):
    labels = seed.pair.labels
    a = {s: int(a[s]) if isinstance(a, dict) else int(a[labels.index(s)])
         for s in labels}
    if any(v < 0 for v in a.values()):
        raise ValueError("monomial exponents must be nonnegative")
    p4 = monomial_prefactor(a, labels, seed.degrees, seed.pair.lam)
    result = seed.unit.scale(LaurentScalar.q_power(p4))
    for s in labels:
        if a[s]:
            result = result * torus_power(seed.variables[s], a[s])
    return result


def mutate_seed(seed, k):
    a_plus, a_minus, e_k = exchange_monomials(seed.pair, k)
    rhs = normalized_monomial(a_plus, seed) \
        + normalized_monomial(a_minus, seed).scale(LaurentScalar.q_power(e_k))
    new_var = left_divide(seed.variables[k], rhs)
    defect = bar_defect(new_var)
    if defect is None or defect % 2:
        raise CompatibilityError(
            "mutated variable at %r is not a q-power multiple of a "
            "self-dual element" % (k,))
    if defect:
        new_var = new_var.scale(LaurentScalar.q_power(defect // 2))
    datum = seed.degrees[k].datum
    new_degree = Root(datum, (0,) * datum.rank)
    for t in seed.pair.labels:
        new_degree = new_degree + a_plus[t] * seed.degrees[t]
    new_degree = new_degree - seed.degrees[k]
    degrees = dict(seed.degrees)
    degrees[k] = new_degree
    variables = dict(seed.variables)
    variables[k] = new_var
    return QuantumSeed(mutate_pair(seed.pair, k), degrees, variables,
                       seed.unit)


def normalized_shuffle_monomial(a, labels, variables, degrees, lam):
    datum = next(iter(variables.values())).datum
    p4 = monomial_prefactor(a, labels, degrees, lam)
    result = unit_element(datum).scale(LaurentScalar.q_power(p4))
    for s in labels:
        for _ in range(a[s]):
            result = shuffle_product(result, variables[s])
    return result


def _exchange_rhs(pair, k, variables, degrees):
    a_plus, a_minus, e_k = exchange_monomials(pair, k)

    def monomial(a):
        return normalized_shuffle_monomial(a, pair.labels, variables,
                                           degrees, pair.lam)
    return monomial(a_plus) \
        + monomial(a_minus).scale(LaurentScalar.q_power(e_k))


def realized_exchange_graph(datum, word, quiver=None, bound=200):
    """(torus seeds of the exchange graph, one {label: shuffle element}
    per seed)."""
    seed, minors = build_seed(datum, word, quiver)
    graph = enumerate_exchange_graph(seed, bound)
    if not graph.complete:
        raise RuntimeError("exchange graph exceeded bound")
    realizations = [dict(minors)]
    for src, k, dst in graph.edges:
        if dst != len(realizations):
            continue
        real = realizations[src]
        rhs = _exchange_rhs(graph.seeds[src].pair, k, real,
                            graph.seeds[src].degrees)
        candidate = shuffle_divide_left(real[k], rhs)
        defect = qpower_ratio(bar_element(candidate).terms, candidate.terms)
        if defect is None or defect % 2:
            raise RuntimeError("realized variable has no self-dual "
                               "normalization")
        if defect:
            candidate = candidate.scale(LaurentScalar.q_power(defect // 2))
        new_real = dict(real)
        new_real[k] = candidate
        realizations.append(new_real)
    return graph.seeds, realizations
