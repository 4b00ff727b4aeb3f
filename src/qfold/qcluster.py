"""Quantum cluster calculus: compatible pairs, the based quantum torus,
normalized monomials, seed mutation and exchange-graph enumeration.

A compatible pair is a skew-symmetric integer matrix Lambda over a vertex
set S together with an exchange matrix B (rows S, columns the exchangeable
vertices) with Lambda B = -2E for a diagonal E positive exactly on the
exchangeable diagonal.  Cluster variables live in the based quantum torus
of the *initial* Lambda throughout; mutation divides inside that torus, so
the Laurent phenomenon is exercised on every step.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .laurent import (
    ONE,
    LaurentDivisionError,
    LaurentScalar,
    add_terms,
    exact_int,
    qpower_ratio,
    scale_terms,
)
from .rootdata import Root, bilinear_form


class CompatibilityError(ValueError):
    def __init__(self, message, entry=None, value=None):
        super().__init__(message)
        self.entry = entry
        self.value = value


@dataclass(frozen=True)
class CompatiblePair:
    """(Lambda, B) over ordered labels S with exchangeable subset ex."""

    labels: tuple
    exchangeable: tuple
    lam: tuple     # S x S skew-symmetric
    b: tuple       # S x ex

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "exchangeable", tuple(self.exchangeable))
        object.__setattr__(self, "lam", tuple(tuple(r) for r in self.lam))
        object.__setattr__(self, "b", tuple(tuple(r) for r in self.b))
        m = len(self.labels)
        if len(self.lam) != m or any(len(r) != m for r in self.lam):
            raise ValueError("Lambda shape does not match labels")
        if len(self.b) != m or any(len(r) != len(self.exchangeable)
                                   for r in self.b):
            raise ValueError("B shape does not match labels/exchangeables")
        if any(x not in self.labels for x in self.exchangeable):
            raise ValueError("exchangeable labels outside S")
        for r in range(m):
            for c in range(m):
                if self.lam[r][c] != -self.lam[c][r]:
                    raise ValueError("Lambda is not skew-symmetric")

    def pos(self, label):
        return self.labels.index(label)

    def ex_pos(self, label):
        return self.exchangeable.index(label)

    def lam_entry(self, s, t):
        return self.lam[self.pos(s)][self.pos(t)]

    def b_entry(self, s, t):
        return self.b[self.pos(s)][self.ex_pos(t)]


def check_compatible(pair: CompatiblePair):
    """Verify Lambda B = -2E; returns {exchangeable label: e > 0}.

    Raises CompatibilityError naming the first failing entry.
    """
    m = len(pair.labels)
    e = {}
    for r in range(m):
        for c, t in enumerate(pair.exchangeable):
            value = sum(pair.lam[r][i] * pair.b[i][c] for i in range(m))
            if pair.labels[r] == t:
                if value >= 0 or value % 2:
                    raise CompatibilityError(
                        "diagonal entry for %r is %d, expected negative even"
                        % (t, value), entry=(pair.labels[r], t), value=value)
                e[t] = -value // 2
            elif value != 0:
                raise CompatibilityError(
                    "off-diagonal entry (%r, %r) is %d, expected 0"
                    % (pair.labels[r], t, value),
                    entry=(pair.labels[r], t), value=value)
    return e


def mutate_pair(pair: CompatiblePair, k) -> CompatiblePair:
    """Mutation of a compatible pair in an exchangeable direction.

    B mutates by the standard matrix-mutation rule (the last factor is
    |b_kj|; the printed rule with |b_ij| fails involutivity).  Lambda
    mutates by lambda'_kt = -lambda_kt + sum_i max(b_ik, 0) lambda_it,
    extended by skew-symmetry; both preserve compatibility with the same E.
    """
    if k not in pair.exchangeable:
        raise KeyError("direction %r is not exchangeable" % (k,))
    m = len(pair.labels)
    kp = pair.pos(k)
    kc = pair.ex_pos(k)
    lam = [list(row) for row in pair.lam]
    new_row = []
    for t in range(m):
        if t == kp:
            new_row.append(0)
            continue
        value = -pair.lam[kp][t]
        for i in range(m):
            bik = pair.b[i][kc]
            if bik > 0:
                value += bik * pair.lam[i][t]
        new_row.append(value)
    for t in range(m):
        lam[kp][t] = new_row[t]
        lam[t][kp] = -new_row[t]
    b = [list(row) for row in pair.b]
    for i in range(m):
        for c in range(len(pair.exchangeable)):
            j = pair.pos(pair.exchangeable[c])
            if i == kp or j == kp:
                b[i][c] = -pair.b[i][c]
            else:
                bik = pair.b[i][kc]
                bkj = pair.b[kp][c]
                b[i][c] = pair.b[i][c] + (abs(bik) * bkj + bik * abs(bkj)) // 2
    return CompatiblePair(pair.labels, pair.exchangeable, lam, b)


# ---------------------------------------------------------------------------
# The based quantum torus
# ---------------------------------------------------------------------------


class TorusDivisionError(ArithmeticError):
    pass


@dataclass(frozen=True)
class QuantumTorus:
    """Ambient torus data: ordered labels, commutation matrix, and the
    degree pairing (d_i, d_j) of the generators in the ambient graded
    algebra (zero when the torus is used without a grading)."""

    labels: tuple
    lam: tuple
    degree_pairing: tuple = None

    def __post_init__(self):
        if self.degree_pairing is None:
            m = len(self.labels)
            object.__setattr__(self, "degree_pairing",
                               tuple((0,) * m for _ in range(m)))

    def sigma(self, a, b):
        """Reordering exponent: X^a X^b = q^sigma(a,b) X^(a+b)."""
        total = 0
        for i in range(len(self.labels)):
            if not a[i]:
                continue
            for j in range(i):
                if b[j]:
                    total += self.lam[i][j] * a[i] * b[j]
        return total

    def bar_twist(self, a):
        """Exponent of q picked up by the bar involution on X^a.

        The ambient bar satisfies bar(AB) = q^{(deg A, deg B)} bar(B) bar(A),
        so reversing the ordered monomial contributes the degree pairing of
        every factor pair, and restoring canonical order contributes
        sigma(a, a).
        """
        total = self.sigma(a, a)
        g = self.degree_pairing
        for i in range(len(a)):
            if not a[i]:
                continue
            total += g[i][i] * (a[i] * (a[i] - 1) // 2)
            for j in range(i):
                total += g[i][j] * a[i] * a[j]
        return total

    def element(self, terms) -> "TorusElement":
        return TorusElement(self, terms)

    def generator(self, label) -> "TorusElement":
        exp = [0] * len(self.labels)
        exp[self.labels.index(label)] = 1
        return TorusElement(self, {tuple(exp): ONE})

    def unit(self) -> "TorusElement":
        return TorusElement(self, {(0,) * len(self.labels): ONE})


@dataclass(frozen=True)
class TorusElement:
    """A Laurent element of the based quantum torus, stored on the ordered
    monomial basis X_1^{a_1} ... X_m^{a_m}."""

    torus: QuantumTorus
    terms: dict

    def __post_init__(self):
        object.__setattr__(
            self, "terms",
            {tuple(map(exact_int, k)): v for k, v in self.terms.items() if v})

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        return TorusElement(self.torus, add_terms(self.terms, other.terms))

    def __sub__(self, other):
        return self + other.scale(-ONE)

    def scale(self, scalar) -> "TorusElement":
        return TorusElement(self.torus, scale_terms(self.terms, scalar))

    def __mul__(self, other) -> "TorusElement":
        """Coefficients accumulate as {exponent: rational} per output
        exponent vector, which then gets one Laurent scalar."""
        sigma = self.torus.sigma
        acc = {}
        for a, ca in self.terms.items():
            for b, cb in other.terms.items():
                key = tuple(x + y for x, y in zip(a, b))
                coeffs = acc.get(key)
                if coeffs is None:
                    coeffs = acc[key] = {}
                shift = sigma(a, b)
                for k1, c1 in ca.terms:
                    for k2, c2 in cb.terms:
                        k = k1 + k2 + shift
                        coeffs[k] = coeffs.get(k, 0) + c1 * c2
        for key, coeffs in acc.items():
            acc[key] = LaurentScalar(coeffs)
        return TorusElement(self.torus, acc)

    def left_divide(self, dividend) -> "TorusElement":
        """The Z with self * Z = dividend; see left_divide."""
        return left_divide(self, dividend)

    def leading(self):
        exp = max(self.terms)
        return exp, self.terms[exp]

    def bar(self) -> "TorusElement":
        """The bar involution of the ambient graded algebra, restricted to
        the torus: bar(q) = q^{-1}, bar(X_i) = X_i, and the twisted
        anti-multiplicativity bar(AB) = q^{(deg A, deg B)} bar(B) bar(A).
        """
        return TorusElement(
            self.torus,
            {a: c.bar() * LaurentScalar.q_power(self.torus.bar_twist(a))
             for a, c in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, TorusElement):
            return NotImplemented
        return self.torus == other.torus and self.terms == other.terms

    def __hash__(self):
        return hash((self.torus.labels, self.canonical_key()))

    def canonical_key(self):
        return tuple(sorted((k, str(v)) for k, v in self.terms.items()))

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for exp in sorted(self.terms, reverse=True):
            mono = "*".join("X%d^%d" % (i + 1, e)
                            for i, e in enumerate(exp) if e) or "1"
            bits.append("(%s)*%s" % (self.terms[exp], mono))
        return " + ".join(bits)


def left_divide(divisor: TorusElement, dividend: TorusElement) -> TorusElement:
    """Solve divisor * Z = dividend exactly in the torus.

    Leading exponents (lex order) are multiplicative, so long division
    works, and its candidate terms strictly decrease in lex order.  The
    torus is a domain, so in each coordinate the extreme exponents of a
    product add: every term of an exact quotient lies in the box
    min(dividend) - min(divisor) <= t <= max(dividend) - max(divisor).  A
    candidate outside that finite box proves the division is not exact.
    """
    torus = divisor.torus
    if divisor.is_zero():
        raise TorusDivisionError("division by zero")
    if dividend.is_zero():
        return TorusElement(torus, {})
    coords = list(zip(zip(*dividend.terms), zip(*divisor.terms)))
    low = [min(c) - min(d) for c, d in coords]
    high = [max(c) - max(d) for c, d in coords]
    quotient = {}
    remainder = dividend
    v0, c0 = divisor.leading()
    while not remainder.is_zero():
        u, cu = remainder.leading()
        t_exp = tuple(x - y for x, y in zip(u, v0))
        if any(not lo <= t <= hi for lo, t, hi in zip(low, t_exp, high)):
            raise TorusDivisionError("division is not exact: quotient term "
                                     "outside the exponent box")
        try:
            coeff = cu.divexact(
                c0 * LaurentScalar.q_power(torus.sigma(v0, t_exp)))
        except LaurentDivisionError as exc:
            raise TorusDivisionError("leading coefficient not divisible") from exc
        quotient[t_exp] = coeff
        remainder = remainder - divisor * TorusElement(torus, {t_exp: coeff})
    return TorusElement(torus, quotient)


def torus_qcommute(x: TorusElement, y: TorusElement):
    """The integer m with x y = q^m y x, or None."""
    return qpower_ratio((x * y).terms, (y * x).terms)


# ---------------------------------------------------------------------------
# Quantum seeds
# ---------------------------------------------------------------------------


class ParityError(ValueError):
    """lambda_st and (d_s, d_t) disagree mod 2: corrupted seed data."""


@dataclass(frozen=True)
class QuantumSeed:
    """A compatible pair with degree data and cluster variables realized in
    one algebra: the initial quantum torus, or the shuffle algebra through
    quantum minors.  The variables are added, scaled, multiplied, barred
    (bar()) and left-divided (left_divide(dividend)) by their own methods;
    unit is the unit element of their algebra."""

    pair: CompatiblePair
    degrees: dict        # label -> Root (the weight of the cluster variable)
    variables: dict      # label -> TorusElement or ShuffleElement
    unit: object

    def __post_init__(self):
        for s in self.pair.labels:
            for t in self.pair.labels:
                ds, dt = self.degrees[s], self.degrees[t]
                if (self.pair.lam_entry(s, t) - bilinear_form(ds, dt)) % 2:
                    raise ParityError(
                        "lambda(%r,%r) and (d,d) parity mismatch" % (s, t))

    def lambda_from_variables(self):
        """Recompute the q-commutation matrix of the stored variables."""
        labels = self.pair.labels
        size = len(labels)
        out = [[0] * size for _ in range(size)]
        for i in range(size):
            for j in range(i + 1, size):
                m = torus_qcommute(self.variables[labels[i]],
                                   self.variables[labels[j]])
                if m is None:
                    return None
                out[i][j] = m
                out[j][i] = -m
        return tuple(tuple(r) for r in out)


def initial_seed(pair: CompatiblePair, degrees) -> QuantumSeed:
    """The seed whose variables are the torus generators themselves."""
    pairing = tuple(tuple(bilinear_form(degrees[s], degrees[t])
                          for t in pair.labels) for s in pair.labels)
    torus = QuantumTorus(pair.labels, pair.lam, pairing)
    variables = {s: torus.generator(s) for s in pair.labels}
    return QuantumSeed(pair, dict(degrees), variables, torus.unit())


def monomial_prefactor(a: dict, labels, degrees, lam) -> int:
    """The exponent P/4 of the q-power prefactor of the normalized monomial
    Y^a over ordered labels, with degrees d and q-commutation matrix lam:
    P = (sum a_i d_i, sum a_i d_i) - sum a_i (d_i, d_i)
        + 2 sum_{i>j} a_i a_j lambda_ij;
    the parity condition lambda_ij = (d_i, d_j) mod 2 makes P divisible by 4
    (ParityError otherwise), and the result does not depend on the ordering.
    """
    datum = next(iter(degrees.values())).datum
    total = Root(datum, (0,) * datum.rank)
    for s in labels:
        total = total + a[s] * degrees[s]
    p = bilinear_form(total, total)
    for s in labels:
        p -= a[s] * bilinear_form(degrees[s], degrees[s])
    for i in range(len(labels)):
        for j in range(i):
            p += 2 * a[labels[i]] * a[labels[j]] * lam[i][j]
    if p % 4:
        raise ParityError("prefactor exponent %d is not divisible by 4" % p)
    return p // 4


def normalized_monomial(a, seed: QuantumSeed):
    """The bar-invariant normalized monomial Y^a in the seed's variables,
    with the q-power prefactor of monomial_prefactor: the seed's unit
    times one variable at a time, in label order."""
    labels = seed.pair.labels
    a = {s: exact_int(a[s] if isinstance(a, dict) else a[labels.index(s)])
         for s in labels}
    if any(v < 0 for v in a.values()):
        raise ValueError("monomial exponents must be nonnegative")
    p4 = monomial_prefactor(a, labels, seed.degrees, seed.pair.lam)
    result = seed.unit.scale(LaurentScalar.q_power(p4))
    for s in labels:
        for _ in range(a[s]):
            result = result * seed.variables[s]
    return result


def bar_defect(x):
    """The integer m with bar(x) = q^m x, or None when x is not a q-power
    multiple of a self-dual element."""
    return qpower_ratio(x.bar().terms, x.terms)


def exchange_monomials(pair: CompatiblePair, k):
    """(a+, a-, e_k) of direction k: the positive and negative parts of
    column k of B as {label: exponent}, and e_k from Lambda B = -2E.  Raises
    CompatibilityError or, for a frozen direction, KeyError."""
    e = check_compatible(pair)
    if k not in e:
        raise KeyError("direction %r is frozen" % (k,))
    column = {t: pair.b_entry(t, k) for t in pair.labels}
    return ({t: max(b, 0) for t, b in column.items()},
            {t: max(-b, 0) for t, b in column.items()}, e[k])


def exchange_rhs(seed: QuantumSeed, k):
    """Y^{a+} + q^{e_k} Y^{a-} of direction k in the seed's variables (see
    exchange_monomials)."""
    a_plus, a_minus, e_k = exchange_monomials(seed.pair, k)
    return normalized_monomial(a_plus, seed) \
        + normalized_monomial(a_minus, seed).scale(LaurentScalar.q_power(e_k))


def mutated_variable(seed: QuantumSeed, k):
    """The exchange step: the new cluster variable Y_k' of direction k.

    The raw exchange Y_k^{-1} (Y^{a+} + q^{e_k} Y^{a-}) is an exact left
    division in the seed's algebra, then renormalized by the unique power
    of q making the new variable self-dual.  That power is zero for the
    small instances where the printed exchange relation is on the nose; in
    general the relation acquires an overall q-shift (the categorified
    sequence carries a grading twist), and self-duality of cluster
    variables is the invariant that pins the normalization.
    """
    rhs = exchange_rhs(seed, k)
    new_var = seed.variables[k].left_divide(rhs)
    defect = bar_defect(new_var)
    if defect is None or defect % 2:
        raise CompatibilityError(
            "mutated variable at %r is not a q-power multiple of a "
            "self-dual element" % (k,))
    if defect:
        new_var = new_var.scale(LaurentScalar.q_power(defect // 2))
    return new_var


def mutate_seed(seed: QuantumSeed, k) -> QuantumSeed:
    """Quantum seed mutation: the exchange step of mutated_variable, the
    degree deg(Y^{a+}) - deg(Y_k) of the new variable, and mutate_pair."""
    variables = dict(seed.variables)
    variables[k] = mutated_variable(seed, k)
    degrees = dict(seed.degrees)
    degrees[k] = sum((max(seed.pair.b_entry(t, k), 0) * seed.degrees[t]
                      for t in seed.pair.labels), -seed.degrees[k])
    return QuantumSeed(mutate_pair(seed.pair, k), degrees, variables,
                       seed.unit)


def specialize_classical(x: TorusElement) -> dict:
    """q = 1 specialization: a commutative Laurent polynomial as a dict."""
    out = {}
    for exp, coeff in x.terms.items():
        v = out.get(exp, Fraction(0)) + coeff.at_one()
        if v:
            out[exp] = v
        else:
            out.pop(exp, None)
    return out


# ---------------------------------------------------------------------------
# Exchange graph enumeration
# ---------------------------------------------------------------------------


@dataclass
class ExchangeGraph:
    seeds: list
    edges: list          # (source index, direction label, target index)
    complete: bool

    def cluster_variables(self):
        """All distinct cluster variables seen across seeds (as elements)."""
        seen = {}
        for seed in self.seeds:
            for s in seed.pair.labels:
                var = seed.variables[s]
                seen[var.canonical_key()] = var
        return [seen[k] for k in sorted(seen)]


def seed_canonical_key(seed: QuantumSeed):
    """Order-insensitive canonical form: exchangeable variables sorted by
    their canonical serialization, matrices permuted accordingly."""
    labels = seed.pair.labels
    ex = seed.pair.exchangeable
    keyed = sorted(ex, key=lambda s: seed.variables[s].canonical_key())
    frozen = [s for s in labels if s not in ex]
    order = keyed + frozen
    perm = [labels.index(s) for s in order]
    lam = tuple(tuple(seed.pair.lam[r][c] for c in perm) for r in perm)
    b = tuple(tuple(seed.pair.b[r][seed.pair.ex_pos(s)] for s in keyed)
              for r in perm)
    variables = tuple(seed.variables[s].canonical_key() for s in order)
    return (variables, lam, b)


def enumerate_exchange_graph(seed: QuantumSeed, bound: int = 1000) -> ExchangeGraph:
    """BFS over all mutation sequences with canonical-form deduplication.

    Stops when closed, or flags the graph incomplete once `bound` seeds
    have been expanded.
    """
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


def seed_to_json(seed: QuantumSeed) -> dict:
    labels = seed.pair.labels
    return {
        "labels": [list(s) if isinstance(s, tuple) else s for s in labels],
        "exchangeable": [list(s) if isinstance(s, tuple) else s
                         for s in seed.pair.exchangeable],
        "lambda": [list(r) for r in seed.pair.lam],
        "b": [list(r) for r in seed.pair.b],
        "variables": [{"label": list(s) if isinstance(s, tuple) else s,
                       "degree": list(seed.degrees[s].coords),
                       "terms": [{"exponents": list(k), "coeff": str(v)}
                                 for k, v in sorted(
                                     seed.variables[s].terms.items())]}
                      for s in labels],
    }
