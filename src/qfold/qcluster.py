"""Quantum cluster calculus: compatible pairs, the based quantum torus,
normalized monomials, seed mutation and exchange-graph enumeration.

A compatible pair is a skew-symmetric integer matrix Lambda over a vertex
set S together with an exchange matrix B (rows S, columns the exchangeable
vertices) with Lambda B = -2E for a diagonal E positive exactly on the
exchangeable diagonal.  Cluster variables live in the based quantum torus
of the *initial* Lambda throughout; mutation divides inside that torus, so
the Laurent phenomenon is exercised once per new cluster variable.  Seeds
also carry their tropical data, extended g-vectors and c-vectors, and the
seeds of one exchange graph share one table of variables keyed by
g-vector: a variable is computed by the exchange step only the first time
its g-vector appears.  Every edge of the exchange graph is checked
(mutation_step); only the seeds the graph stores are built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from bisect import insort
from functools import cached_property
from itertools import compress, count
from operator import add, mul, neg
from typing import NamedTuple

from .laurent import (
    ONE,
    LaurentDivisionError,
    LaurentScalar,
    add_terms,
    exact_int,
    qpower_ratio,
    scale_terms,
)
from .rootdata import Root, gram_matrix, gram_row


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
        if self.lam != tuple(tuple(map(neg, column))
                             for column in zip(*self.lam)):
            raise ValueError("Lambda is not skew-symmetric")

    def pos(self, label):
        return self.labels.index(label)

    def ex_pos(self, label):
        return self.exchangeable.index(label)

    def lam_entry(self, s, t):
        return self.lam[self.pos(s)][self.pos(t)]

    @cached_property
    def e(self):
        """check_compatible(self), run once per pair."""
        return check_compatible(self)


def check_compatible(pair: CompatiblePair):
    """Verify Lambda B = -2E; returns {exchangeable label: e > 0}.

    Column t of Lambda B is the sum of b_it times column i of Lambda over
    the nonzero b_it only; the entries are then checked row by row.
    Raises CompatibilityError naming the first failing entry.
    """
    lam_columns = tuple(zip(*pair.lam))
    zero = (0,) * len(pair.labels)
    products = []
    for column in zip(*pair.b):
        product = zero
        for b, lam_column in zip(column, lam_columns):
            if b:
                product = map(add, product, _scaled(b, lam_column))
        products.append(product)
    e = {}
    for s, row in zip(pair.labels, zip(*products)):
        for t, value in zip(pair.exchangeable, row):
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


def mutate_pair(pair: CompatiblePair, k, new_row=None) -> CompatiblePair:
    """Mutation of a compatible pair in an exchangeable direction.

    B mutates by the standard matrix-mutation rule (the last factor is
    |b_kj|; the printed rule with |b_ij| fails involutivity).  Lambda
    mutates by lambda'_kt = -lambda_kt + sum_i max(b_ik, 0) lambda_it,
    extended by skew-symmetry; both preserve compatibility with the same E.
    new_row is that row k of Lambda when the caller has it already
    (mutation_step's row); without it, mutated_lambda_row computes it.
    """
    if k not in pair.exchangeable:
        raise KeyError("direction %r is not exchangeable" % (k,))
    kp = pair.pos(k)
    kc = pair.ex_pos(k)
    column = [row[kc] for row in pair.b]
    if new_row is None:
        new_row = mutated_lambda_row(pair, k)
    lam = [list(row) for row in pair.lam]
    lam[kp] = new_row
    for row, value in zip(lam, new_row):
        row[kp] = -value
    bk = pair.b[kp]
    b = []
    for i, (row, bik) in enumerate(zip(pair.b, column)):
        if bik == 0 and i != kp:
            b.append(row)  # b_ik = 0 leaves row i as it is
            continue
        b.append([-bij if i == kp or c == kc else
                  bij + (abs(bik) * bkj + bik * abs(bkj)) // 2
                  for c, (bij, bkj) in enumerate(zip(row, bk))])
    return CompatiblePair(pair.labels, pair.exchangeable, lam, b)


def mutated_lambda_row(pair: CompatiblePair, k) -> list:
    """Row k of Lambda mutated in direction k (see mutate_pair)."""
    kp = pair.pos(k)
    kc = pair.ex_pos(k)
    new_row = map(neg, pair.lam[kp])
    for b, row in zip(pair.b, pair.lam):
        if b[kc] > 0:
            new_row = map(add, new_row, _scaled(b[kc], row))
    new_row = list(new_row)
    new_row[kp] = 0
    return new_row


def _scaled(factor, vector):
    return vector if factor == 1 else [factor * x for x in vector]


# ---------------------------------------------------------------------------
# The based quantum torus
# ---------------------------------------------------------------------------


class TorusDivisionError(ArithmeticError):
    pass


@dataclass(frozen=True)
class QuantumTorus:
    """Ambient torus data: ordered labels, commutation matrix, and the
    degree pairing (d_i, d_j) of the generators in the ambient graded
    algebra."""

    labels: tuple
    lam: tuple
    degree_pairing: tuple

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
        sigma(a, a): together P(a)/2, twice monomial_prefactor's P/4, so
        bar(q^{P/4} X^a) = q^{P/4} X^a.
        """
        return _half_prefactor(a, self.degree_pairing, self.lam)

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
        _check_same_torus(self, other)
        return TorusElement(self.torus, add_terms(self.terms, other.terms))

    def __sub__(self, other):
        return self + other.scale(-ONE)

    def scale(self, scalar) -> "TorusElement":
        return TorusElement(self.torus, scale_terms(self.terms, scalar))

    def __mul__(self, other) -> "TorusElement":
        """Coefficients accumulate as {exponent: int} per output
        exponent vector, which then gets one Laurent scalar."""
        _check_same_torus(self, other)
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


def _check_same_torus(x, y):
    """TypeError unless x and y live in one torus (an object or its equal)."""
    if x.torus is not y.torus and x.torus != y.torus:
        raise TypeError("elements live in different quantum tori")


def left_divide(divisor: TorusElement, dividend: TorusElement) -> TorusElement:
    """Solve divisor * Z = dividend exactly in the torus.

    Leading exponents (lex order) are multiplicative, so long division
    works, and its candidate terms strictly decrease in lex order.  The
    torus is a domain, so in each coordinate the extreme exponents of a
    product add: every term of an exact quotient lies in the box
    min(dividend) - min(divisor) <= t <= max(dividend) - max(divisor).  A
    candidate outside that finite box proves the division is not exact.
    """
    _check_same_torus(divisor, dividend)
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
    unit is the unit element of their algebra.

    The tropical data place the seed in the exchange graph of an initial
    seed: g maps each label to its variable's extended g-vector (over the
    initial labels), c each exchangeable label to its c-vector (over the
    initial exchangeable labels), and table maps a g-vector to the (degree,
    variable) computed for it, shared by all seeds of one graph.  A seed
    built without them is an initial seed: identity g- and c-vectors, and
    a table of its own variables.  They take no part in ==."""

    pair: CompatiblePair
    degrees: dict        # label -> Root (the weight of the cluster variable)
    variables: dict      # label -> TorusElement or ShuffleElement
    unit: object
    g: dict = field(default=None, compare=False)
    c: dict = field(default=None, compare=False)
    table: dict = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        labels = self.pair.labels
        if self.g is None:
            g = {s: _unit_vector(len(labels), r) for r, s in enumerate(labels)}
            ex = self.pair.exchangeable
            object.__setattr__(self, "g", g)
            object.__setattr__(self, "c", {s: _unit_vector(len(ex), r)
                                           for r, s in enumerate(ex)})
            object.__setattr__(self, "table", {
                g[s]: (self.degrees[s], self.variables[s]) for s in labels})
        # Row 0's gram_row type-checks every degree; the later rows pair
        # the memoized images directly.
        degrees = [self.degrees[s] for s in labels]
        for r, row in enumerate(self.pair.lam):
            forms = (gram_row(degrees[0], degrees[1:]) if r == 0
                     else _pairings(degrees[r], degrees[r + 1:]))
            _scan_parity(labels, r, row[r + 1:], forms, r + 1)


def _pairings(u, roots):
    """gram_row(u, roots) without its type check, for degrees that passed
    it."""
    image = u.datum.pairing_image(u.coords)
    return [sum(map(mul, v.coords, image)) for v in roots]


def check_parity_row(labels, k, row, degrees):
    """Raise ParityError at the first label t, in order, where row[t] =
    lambda_kt and (d_k, d_t) differ mod 2, named as in the upper triangle.
    Lambda is skew and the form symmetric, so the rows in label order scan
    the upper triangle in order: row k revisits only entries rows before
    it passed.  The constructor's full check therefore scans only the
    entries right of the diagonal, row by row: a mismatch left of it
    mirrors one found earlier, and the diagonal (0 against (d, d)) is even."""
    _scan_parity(labels, labels.index(k), row,
                 gram_row(degrees[k], [degrees[t] for t in labels]))


def _scan_parity(labels, r, row, forms, start=0):
    """check_parity_row on row r of Lambda against row r of the Gram
    matrix of the degrees, each given from column start on."""
    c = next(compress(count(start), map(_odd_difference, row, forms)), None)
    if c is not None:
        k, t = labels[r], labels[c]
        raise ParityError("lambda(%r,%r) and (d,d) parity mismatch"
                          % ((t, k) if c < r else (k, t)))


def _odd_difference(a, b):
    return (a - b) % 2


def _unit_vector(size, r):
    return tuple(int(i == r) for i in range(size))


def initial_seed(pair: CompatiblePair, degrees) -> QuantumSeed:
    """The seed whose variables are the torus generators themselves, with
    identity g- and c-vectors."""
    pairing = gram_matrix(degrees[s] for s in pair.labels)
    torus = QuantumTorus(pair.labels, pair.lam,
                         tuple(tuple(row) for row in pairing))
    variables = {s: torus.generator(s) for s in pair.labels}
    return QuantumSeed(pair, dict(degrees), variables, torus.unit())


def monomial_prefactor(a: dict, labels, degrees, lam) -> int:
    """The exponent P/4 of the q-power prefactor of the normalized monomial
    Y^a over ordered labels, with degrees d and q-commutation matrix lam:
    P = (sum a_i d_i, sum a_i d_i) - sum a_i (d_i, d_i)
        + 2 sum_{i>j} a_i a_j lambda_ij = 2 _half_prefactor(a);
    the parity condition lambda_ij = (d_i, d_j) mod 2 makes P divisible by 4
    (ParityError otherwise), and the result does not depend on the ordering.
    """
    support = [r for r, s in enumerate(labels) if a[s]]
    p = 2 * _half_prefactor([a[labels[r]] for r in support],
                            gram_matrix(degrees[labels[r]] for r in support),
                            [[lam[r][c] for c in support] for r in support])
    if p % 4:
        raise ParityError("prefactor exponent %d is not divisible by 4" % p)
    return p // 4


def _half_prefactor(a, g, lam) -> int:
    """P(a)/2 = sum_i g_ii a_i (a_i - 1)/2 + sum_{i>j} (g_ij + lam_ij) a_i a_j
    over the support of a, with g the degrees' Gram matrix, indexed like a."""
    support = [i for i, x in enumerate(a) if x]
    total = 0
    for n, i in enumerate(support):
        total += g[i][i] * (a[i] * (a[i] - 1) // 2)
        for j in support[:n]:
            total += (g[i][j] + lam[i][j]) * a[i] * a[j]
    return total


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
    column k of B as {label: exponent}, and e_k (see _exchange_column)."""
    column, e_k = _exchange_column(pair, k)
    a_plus, a_minus = {}, {}
    for t, b in zip(pair.labels, column):
        a_plus[t] = b if b > 0 else 0
        a_minus[t] = -b if b < 0 else 0
    return a_plus, a_minus, e_k


def _exchange_column(pair: CompatiblePair, k):
    """(column k of B, e_k from Lambda B = -2E) of direction k.  Raises
    CompatibilityError or, for a frozen direction, KeyError."""
    e = pair.e
    if k not in e:
        raise KeyError("direction %r is frozen" % (k,))
    kc = pair.ex_pos(k)
    return [row[kc] for row in pair.b], e[k]


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


def mutated_g_vector(seed: QuantumSeed, k):
    """(g'_k, eps) of the seed mutated in direction k: the tropical
    mutation of Nakanishi-Zelevinsky ("On tropical dualities in cluster
    algebras"), whose c-vector half is mutated_c_vectors.

    With eps the sign of c_k, g'_k = -g_k + sum_i [-eps b_ik]_+ g_i and
    c'_j = c_j + [eps b_kj]_+ c_k for j != k, c'_k = -c_k; the other
    g-vectors stay.  The general rule also subtracts
    sum_j [-eps c_jk]_+ b0_j (b0 the initial B); that term vanishes because
    c_k is sign-coherent (Gross-Hacking-Keel-Kontsevich), which is checked.
    """
    ck = seed.c[k]
    if min(ck) < 0 < max(ck) or not any(ck):
        raise CompatibilityError("c-vector of %r is not sign-coherent" % (k,))
    eps = 1 if max(ck) > 0 else -1
    kc = seed.pair.ex_pos(k)
    gk = map(neg, seed.g[k])
    for s, row in zip(seed.pair.labels, seed.pair.b):
        weight = -eps * row[kc]
        if weight > 0:
            gk = map(add, gk, _scaled(weight, seed.g[s]))
    return tuple(gk), eps


def mutated_c_vectors(seed: QuantumSeed, k, eps) -> dict:
    """The c-vectors of the seed mutated in direction k, with eps the sign
    of c_k (see mutated_g_vector)."""
    ck = seed.c[k]
    c = dict(seed.c)
    c[k] = tuple(map(neg, ck))
    for j, bkj in zip(seed.pair.exchangeable, seed.pair.b[seed.pair.pos(k)]):
        weight = eps * bkj
        if weight > 0 and j != k:
            c[j] = tuple(map(add, seed.c[j], _scaled(weight, ck)))
    return c


class MutationStep(NamedTuple):
    """What an edge in direction k hands to the build of the mutated
    seed: the new row k of Lambda, degree of k, variable of k and g-vector
    g'_k, and eps, the sign of c_k."""

    k: object
    row: list
    degree: Root
    variable: object
    g: tuple
    eps: int


def mutation_step(seed: QuantumSeed, k) -> MutationStep:
    """Every check of the mutation in direction k, with none of the work
    that only the mutated seed needs.  In order: the seed's compatibility
    (pair.e; a frozen direction is a KeyError), the degree rule
    deg(Y^{a+}) - deg(Y_k), the sign check of mutated_g_vector, the
    variable of g-vector g'_k in the seed's table (a hit checks its stored
    degree, a miss runs mutated_variable and stores the result with its
    degree), and check_parity_row on the new row k of Lambda.  That row
    gives the mutated seed's parity verdict and first mismatch: the seed
    passed the full check when it was built, and mutation changes only row
    and column k and degree k."""
    column, _ = _exchange_column(seed.pair, k)
    row = mutated_lambda_row(seed.pair, k)
    degree = map(neg, seed.degrees[k].coords)
    for t, b in zip(seed.pair.labels, column):
        if b > 0:
            degree = map(add, degree, _scaled(b, seed.degrees[t].coords))
    degree = Root(seed.degrees[k].datum, tuple(degree))
    gk, eps = mutated_g_vector(seed, k)
    entry = seed.table.get(gk)
    if entry is None:
        entry = seed.table[gk] = (degree, mutated_variable(seed, k))
    elif entry[0] != degree:
        raise CompatibilityError(
            "variable of g-vector %r has degree %r, expected %r"
            % (gk, entry[0], degree))
    check_parity_row(seed.pair.labels, k, row, {**seed.degrees, k: degree})
    return MutationStep(k, row, degree, entry[1], gk, eps)


def mutate_seed(seed: QuantumSeed, k) -> QuantumSeed:
    """Quantum seed mutation: the checks of mutation_step, then the
    mutated seed of _built_seed, whose constructor runs the full parity
    check."""
    return _built_seed(seed, mutation_step(seed, k))


def _built_seed(seed, step):
    """The seed of a checked mutation_step: the mutated pair (from the
    step's row of Lambda), the step's degree, variable and g-vector in
    place of k's, and the mutated c-vectors."""
    k = step.k
    return QuantumSeed(mutate_pair(seed.pair, k, step.row),
                       {**seed.degrees, k: step.degree},
                       {**seed.variables, k: step.variable}, seed.unit,
                       {**seed.g, k: step.g},
                       mutated_c_vectors(seed, k, step.eps), seed.table)


def specialize_classical(x: TorusElement) -> dict:
    """q = 1 specialization: a commutative Laurent polynomial as a dict
    {exponent vector: int}, zero coefficients dropped."""
    return {exp: v for exp, coeff in x.terms.items() if (v := coeff.at_one())}


# ---------------------------------------------------------------------------
# Exchange graph enumeration
# ---------------------------------------------------------------------------


@dataclass
class ExchangeGraph:
    seeds: list
    edges: list          # (source index, direction label, target index)
    complete: bool

    def cluster_variables(self):
        """All distinct cluster variables of the seeds (as elements), one per
        g-vector, sorted by their canonical serialization."""
        by_g = {}
        for seed in self.seeds:
            for s in seed.pair.labels:
                by_g.setdefault(seed.g[s], seed.variables[s])
        seen = {var.canonical_key(): var for var in by_g.values()}
        return [seen[k] for k in sorted(seen)]


def seed_canonical_key(seed: QuantumSeed):
    """Order-insensitive canonical form: exchangeable variables sorted by
    their canonical serialization, matrices permuted accordingly.  It tells
    seeds apart by their variables, for the tests and the benchmark's
    traced run; enumerate_exchange_graph keys seeds by g-vectors."""
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
    """BFS over all mutation sequences: every edge is checked by
    mutation_step, and only the seeds the graph stores are built.

    Seeds are keyed by the sorted g-vectors of their exchangeable
    variables, so each cluster is stored once; an edge's key is its
    source's with g_k taken out and g'_k put in.  Once `bound` seeds are
    stored, no new seed is stored: an edge to a seed that is not stored
    is dropped and the graph is flagged incomplete.
    """
    ex = seed.pair.exchangeable
    seeds = [seed]
    keys = [tuple(sorted(seed.g[s] for s in ex))]
    index = {keys[0]: 0}
    edges = []
    frontier = [0]
    complete = True
    while frontier:
        new_frontier = []
        for src in frontier:
            source = seeds[src]
            for k in ex:
                step = mutation_step(source, k)
                key = list(keys[src])
                key.remove(source.g[k])
                insort(key, step.g)
                key = tuple(key)
                target = index.get(key)
                if target is None:
                    if len(seeds) >= bound:
                        complete = False
                        continue
                    target = index[key] = len(seeds)
                    seeds.append(_built_seed(source, step))
                    keys.append(key)
                    new_frontier.append(target)
                edges.append((src, k, target))
        frontier = new_frontier
    return ExchangeGraph(seeds, edges, complete)


def torus_to_json(x: TorusElement) -> dict:
    return {"terms": [{"exponents": list(k), "coeff": str(v)}
                      for k, v in sorted(x.terms.items())]}


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
                       **torus_to_json(seed.variables[s])}
                      for s in labels],
    }
