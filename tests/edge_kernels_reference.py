"""Reference integer kernels of the exchange-graph edge: the row-by-row
versions that qfold.rootdata and qfold.qcluster replace.

gram_row sends its first root to its pairings on every call, and every
vector is built entry by entry or through Root arithmetic.  The function
bodies are kept as they were before the pairing images were memoized.
mutation_step returns the mutated seed's whole (degrees, variables, g, c),
built_seed builds it with mutate_pair computing the new row of Lambda
again, and check_compatible sums every entry of Lambda B over the whole
B column, as before the edge handed a step record to the build.  They
serve only the differential test (test_edge_kernels.py).
"""

from __future__ import annotations

from operator import mul

from qfold.qcluster import (
    CompatibilityError,
    ParityError,
    QuantumSeed,
    mutate_pair,
    mutated_variable,
)
from qfold.rootdata import Root


def gram_row(u, roots):
    roots = list(roots)
    datum = u.datum
    if any(type(v) is not Root or v.datum is not datum and v.datum != datum
           for v in [u] + roots):
        raise TypeError("gram_row takes Roots over one Cartan datum")
    image = tuple(d * sum(map(mul, row, u.coords))
                  for d, row in zip(datum.symmetrizers, datum.cartan))
    return [sum(map(mul, v.coords, image)) for v in roots]


def gram_matrix(roots):
    roots = list(roots)
    return [gram_row(u, roots) for u in roots]


def check_skew(lam):
    """CompatiblePair's skew-symmetry check, entry by entry."""
    m = len(lam)
    for r, row in enumerate(lam):
        for c in range(r, m):
            if row[c] != -lam[c][r]:
                raise ValueError("Lambda is not skew-symmetric")


def check_parity_row(labels, k, row, degrees):
    r = labels.index(k)
    forms = gram_row(degrees[k], [degrees[t] for t in labels])
    for c, (t, value, form) in enumerate(zip(labels, row, forms)):
        if (value - form) % 2:
            raise ParityError("lambda(%r,%r) and (d,d) parity mismatch"
                              % ((t, k) if c < r else (k, t)))


def check_parity(labels, lam, degrees):
    """The QuantumSeed constructor's full parity check, row by row."""
    for s, row in zip(labels, lam):
        check_parity_row(labels, s, row, degrees)


def check_compatible(pair):
    columns = tuple(zip(*pair.b))
    e = {}
    for s, row in zip(pair.labels, pair.lam):
        for t, column in zip(pair.exchangeable, columns):
            value = sum(map(mul, row, column))
            if s == t:
                if value >= 0 or value % 2:
                    raise CompatibilityError(
                        "diagonal entry for %r is %d, expected negative even"
                        % (t, value), entry=(s, t), value=value)
                e[t] = -value // 2
            elif value != 0:
                raise CompatibilityError(
                    "off-diagonal entry (%r, %r) is %d, expected 0"
                    % (s, t, value), entry=(s, t), value=value)
    return e


def exchange_monomials(pair, k):
    e = pair.e
    if k not in e:
        raise KeyError("direction %r is frozen" % (k,))
    kc = pair.ex_pos(k)
    column = {t: row[kc] for t, row in zip(pair.labels, pair.b)}
    return ({t: max(b, 0) for t, b in column.items()},
            {t: max(-b, 0) for t, b in column.items()}, e[k])


def mutated_lambda_row(pair, k):
    kp = pair.pos(k)
    kc = pair.ex_pos(k)
    positive = [(b[kc], row) for b, row in zip(pair.b, pair.lam) if b[kc] > 0]
    new_row = [sum((bik * row[t] for bik, row in positive), -value)
               for t, value in enumerate(pair.lam[kp])]
    new_row[kp] = 0
    return new_row


def mutated_degree(seed, k, a_plus):
    """The degree rule: deg(Y^{a+}) - deg(Y_k) by Root arithmetic."""
    return sum((a * seed.degrees[t] for t, a in a_plus.items() if a),
               -seed.degrees[k])


def tropical_mutation(seed, k):
    pair = seed.pair
    ck = seed.c[k]
    if min(ck) < 0 < max(ck) or not any(ck):
        raise CompatibilityError("c-vector of %r is not sign-coherent" % (k,))
    eps = 1 if max(ck) > 0 else -1
    kc = pair.ex_pos(k)
    gk = [-x for x in seed.g[k]]
    for s, row in zip(pair.labels, pair.b):
        weight = max(-eps * row[kc], 0)
        if weight:
            gk = [x + weight * y for x, y in zip(gk, seed.g[s])]
    g = dict(seed.g)
    g[k] = tuple(gk)
    c = dict(seed.c)
    c[k] = tuple(-x for x in ck)
    for j, bkj in zip(pair.exchangeable, pair.b[pair.pos(k)]):
        weight = max(eps * bkj, 0)
        if weight and j != k:
            c[j] = tuple(x + weight * y for x, y in zip(seed.c[j], ck))
    return g, c


def mutation_step(seed, k):
    """qcluster.mutation_step over the kernels above, checks in the same
    order, returning the mutated seed's (degrees, variables, g, c)."""
    a_plus, _, _ = exchange_monomials(seed.pair, k)
    row = mutated_lambda_row(seed.pair, k)
    degrees = dict(seed.degrees)
    degrees[k] = mutated_degree(seed, k, a_plus)
    g, c = tropical_mutation(seed, k)
    entry = seed.table.get(g[k])
    if entry is None:
        entry = seed.table[g[k]] = (degrees[k], mutated_variable(seed, k))
    elif entry[0] != degrees[k]:
        raise CompatibilityError(
            "variable of g-vector %r has degree %r, expected %r"
            % (g[k], entry[0], degrees[k]))
    variables = dict(seed.variables)
    variables[k] = entry[1]
    check_parity_row(seed.pair.labels, k, row, degrees)
    return degrees, variables, g, c


def built_seed(seed, k, step):
    """The mutated seed of a mutation_step; mutate_pair, called without
    the step's row, computes row k of Lambda again."""
    degrees, variables, g, c = step
    return QuantumSeed(mutate_pair(seed.pair, k), degrees, variables,
                       seed.unit, g, c, seed.table)


def mutate_seed(seed, k):
    return built_seed(seed, k, mutation_step(seed, k))
