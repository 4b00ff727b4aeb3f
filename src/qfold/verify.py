"""Identity-checking harness: executable desk-scale checks wiring the
cluster combinatorics to the quantum-group oracle.

A catalog entry names its check kind and that kind's fields; CHECKS says
which fields each kind reads, with each field's one default or marked
required.  run_check is the one place that reads them: it rejects any
other field, fills in the defaults (the report's instance), resolves the
input, picks the oracle context and turns the check's outcome into a
VerificationReport.  A check returns a pass's details or raises
CheckFailed.  All comparisons are exact equality of canonical
serializations; there are no tolerances anywhere.  Instance catalogs are
JSON data files shipped with the package.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from importlib import resources

from .folding import fold, quiver_from_json
from .initquiver import initial_cluster_variables, initial_pair, resolve_word
from .laurent import ONE, LaurentScalar, exact_int, q_factorial
from .qcluster import (
    CompatibilityError,
    QuantumSeed,
    enumerate_exchange_graph,
    exchange_rhs,
    normalized_monomial,
)
from .rootdata import (
    bilinear_form,
    cartan_datum,
    datum_from_json,
    is_finite_type,
    is_reduced,
    weyl_elements,
    weyl_equal,
)
from .uqn import (
    MinorSpec,
    OracleContext,
    ShuffleDivisionError,
    ShuffleElement,
    bar_element,
    coproduct_components,
    extremal_vector,
    extremal_word,
    minor_to_shuffle,
    qcommute_exponent,
    shuffle_divide_left,
    shuffle_product,
    shuffle_to_json,
    tensor_of_elements,
    theta_star,
    unit_element,
)


@dataclass
class VerificationReport:
    check: str
    instance: dict
    status: str                   # pass | fail
    details: str = ""
    witness: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> dict:
        out = {"check": self.check, "instance": self.instance,
               "passed": self.passed, "status": self.status}
        if self.details:
            out["details"] = self.details
        if self.witness:
            out["witness"] = self.witness
        return out


class CheckFailed(Exception):
    """The identity a check tests fails: the report's details and witness,
    and the fields the failure adds to the report's instance."""

    def __init__(self, details, witness=None, **instance):
        super().__init__(details)
        self.details = details
        self.witness = witness or {}
        self.instance = instance


# ---------------------------------------------------------------------------
# Instance resolution
# ---------------------------------------------------------------------------


def resolve_input(spec: dict):
    """Turn an instance's input descriptor into (datum, quiver-or-None).

    {"type": [family, rank]} names a finite-type Cartan datum; {"quiver":
    {...}} folds a quiver-with-automorphism (words are then given over
    orbit representatives); {"indices": ..., "cartan": ..., "symmetrizers":
    ...} is a raw Cartan datum.
    """
    if "type" in spec:
        family, rank = spec["type"]
        return cartan_datum(family, exact_int(rank)), None
    if "quiver" in spec:
        quiver = quiver_from_json(spec["quiver"])
        return fold(quiver).datum, quiver
    if "indices" in spec:
        return datum_from_json(spec), None
    raise ValueError("input descriptor needs 'type', 'quiver', or a raw "
                     "Cartan datum")


def oracle_seed_data(datum, word, context=None) -> QuantumSeed:
    """The initial quantum seed of initial_pair, for a word over the
    datum's indices, realized by the oracle: its variables are the initial
    minors as shuffle elements and its unit the shuffle algebra's."""
    pair, degrees = initial_pair(datum, word)
    context = context or OracleContext(datum)
    specs = initial_cluster_variables(word, datum)
    minors = {t: minor_to_shuffle(spec, context)
              for t, spec in zip(pair.labels, specs)}
    return QuantumSeed(pair, degrees, minors, unit_element(datum))


def realized_exchange_graph(datum, word, bound, context) -> list:
    """The seeds of the exchange graph of oracle_seed_data's seed, in
    enumerate_exchange_graph's order: its cluster variables are shuffle
    elements, each computed once by the exchange step mutated_variable.
    Raises RuntimeError when the graph has more than `bound` seeds.

    A complete graph is kept in context.graphs, keyed by the word over the
    datum's indices (the context is the datum's), so one verify call
    realizes each graph once; a later lookup raises as the enumeration
    would, when the stored graph has more seeds than its bound (the initial
    seed is stored whatever the bound)."""
    seeds = context.graphs.get(word)
    if seeds is None:
        graph = enumerate_exchange_graph(
            oracle_seed_data(datum, word, context), bound)
        if not graph.complete:
            raise RuntimeError("exchange graph exceeded bound")
        seeds = context.graphs[word] = graph.seeds
    elif len(seeds) > max(bound, 1):
        raise RuntimeError("exchange graph exceeded bound")
    return seeds


# ---------------------------------------------------------------------------
# Individual checks: check_<kind>(entry, datum, quiver, context), where
# entry holds the kind's fields, defaults filled in; a quiver input only
# names the letters of the entry's words.
# ---------------------------------------------------------------------------


def check_initial_lambda(entry, datum, quiver, context) -> str:
    """The initial minors q-commute exactly as initial_pair's Lambda says,
    and that Lambda is compatible with the B of the same word."""
    seed = oracle_seed_data(datum, resolve_word(datum, entry["word"], quiver),
                            context)
    pair = seed.pair
    for a, s in enumerate(pair.labels):
        for t in pair.labels[a + 1:]:
            m = qcommute_exponent(seed.variables[s], seed.variables[t])
            lam = pair.lam_entry(s, t)
            if m != lam:
                raise CheckFailed(
                    "initial minors %d and %d: q-commutation exponent %s, "
                    "Lambda %d" % (s, t, m, lam),
                    {"pair": [s, t], "oracle": m, "lambda": lam})
    try:
        e = pair.e
    except CompatibilityError as exc:
        raise CheckFailed(str(exc), {"lambda": [list(r) for r in pair.lam],
                                     "b": [list(r) for r in pair.b]}) from exc
    return "e = %s" % {str(k): v for k, v in sorted(e.items())}


def normalized_shuffle_monomial(a, seed: QuantumSeed) -> ShuffleElement:
    """The normalized monomial Y^a of a seed realized in the shuffle
    algebra.  The cluster-monomial check calls it under this name, which
    the benchmark's traced run times on its own."""
    return normalized_monomial(a, seed)


def check_exchange_relation(entry, datum, quiver, context) -> str:
    """The quantum exchange relation holds as an identity of shuffle
    elements after one mutation of the initial seed."""
    seed = oracle_seed_data(datum, resolve_word(datum, entry["word"], quiver),
                            context)
    k = entry["direction"]
    try:
        rhs = exchange_rhs(seed, k)
    except CompatibilityError as exc:
        raise CheckFailed("incompatible pair: %s" % exc) from exc
    except KeyError:
        raise CheckFailed("direction %r is frozen" % (k,)) from None
    try:
        candidate = shuffle_divide_left(seed.variables[k], rhs)
    except ShuffleDivisionError as exc:
        raise CheckFailed("no candidate matches: " + str(exc),
                          {"lhs_factor": shuffle_to_json(seed.variables[k]),
                           "rhs": shuffle_to_json(rhs)}) from exc
    if bar_element(candidate) != candidate:
        raise CheckFailed("mutated variable is not bar-invariant",
                          {"candidate": shuffle_to_json(candidate)})
    name = _name_among_minors(datum, candidate, context)
    return "Y_%d' = %s" % (k, name or str(candidate))


def _name_among_minors(datum, element, context):
    """Try to identify an element as a generalized minor D(u omega_i,
    v omega_i), or None (always for a datum of infinite type).

    Mutated cluster variables are often minors with non-fundamental eta
    (the dual PBW elements have eta = s_{i1}...s_{i_{k-1}} omega_{i_k}), so
    both Weyl elements range over the full group.  A minor depends only on
    the depths omega_i - mu and omega_i - eta, integer roots read off the
    extremal F-words, and wt(element) = eta - mu; so one lookup per depth
    of u finds v at that depth minus wt(element).  u and v are the first
    words of their depths in BFS order.
    """
    def wname(u):
        return "s" + "s".join(str(x) for x in u) if u else "1"

    for i in datum.indices:
        if element == theta_star(datum, i):
            return "theta*_%s" % (i,)
    if not is_finite_type(datum):
        return None
    words = weyl_elements(datum).values()
    for i in datum.indices:
        omega = datum.fundamental_weight(i)
        first = {}
        for u in words:
            first.setdefault(extremal_vector(omega, u).depth, u)
        for depth, u in first.items():
            v = first.get(depth - element.weight)
            if v is not None and \
                    minor_to_shuffle(MinorSpec(omega, u, v), context) == element:
                return "D(%s w_%s, %s w_%s)" % (wname(u), i, wname(v), i)
    return None


def check_square_identity(entry, datum, quiver, context) -> str:
    """Minor squaring: D(mu,zeta)^2 = q^{-(mu-zeta,mu-zeta)/2} D(2mu,2zeta).

    The printed statement carries the opposite exponent sign; the sign used
    here is the one forced by the bar-product identity with both sides
    bar-invariant, and is verified exactly.
    """
    word_mu = resolve_word(datum, entry["word_mu"], quiver)
    fundamental = resolve_word(datum, (entry["fundamental"],), quiver)[0]
    lam = datum.fundamental_weight(fundamental)
    d = minor_to_shuffle(MinorSpec(lam, word_mu), context)
    doubled = minor_to_shuffle(MinorSpec(2 * lam, word_mu), context)
    n = -bilinear_form(d.weight, d.weight) // 2
    lhs = shuffle_product(d, d)
    rhs = doubled.scale(LaurentScalar.q_power(n))
    if lhs != rhs:
        raise CheckFailed("sides differ",
                          {"difference": shuffle_to_json(lhs - rhs)})
    return "exponent %d" % n


def check_restriction_factorization(entry, datum, quiver, context) -> str:
    """Coproduct factorization across a dominance chain of extremal weights.

    chain_words lists reduced words for mu_1 < mu_2 < ... < mu_{n+1}
    (first word the longest).  The components of the coproduct are read
    top-down: the first tensor factor is D(mu_n, mu_{n+1})."""
    fundamental = resolve_word(datum, (entry["fundamental"],), quiver)[0]
    words = [resolve_word(datum, w, quiver) for w in entry["chain_words"]]
    lam = datum.fundamental_weight(fundamental)
    # The minors of consecutive links, top link first; each one's weight
    # eta - mu is the link's step.
    links = [MinorSpec(lam, lower, higher)
             for lower, higher in zip(words, words[1:])][::-1]
    for link in links:
        if link.weight.is_zero() or any(c < 0 for c in link.weight.coords):
            raise CheckFailed("chain is not strictly dominance-increasing")
    big = minor_to_shuffle(MinorSpec(lam, words[0], words[-1]), context)
    parts = [link.weight for link in links]
    factors = [minor_to_shuffle(link, context) for link in links]
    split = coproduct_components(big, parts)
    expected = tensor_of_elements(factors)
    if split != expected:
        raise CheckFailed("components differ from the tensor of minors",
                          {"split_terms": len(split),
                           "expected_terms": len(expected)})
    return "%d tensor factors" % len(links)


def check_dual_canonical_conditions(element: ShuffleElement) -> str:
    """Element-level shadows of the dual-canonical-type axioms.

    (a) bar invariance, (b) the coefficient of the extremal word is the
    product of quantum factorials over its runs.  Together with the strips
    of extremal_word this says the iterated left skew derivatives along
    that word end at the unit; weight homogeneity is structural
    (ShuffleElement enforces it).  Returns the details or raises
    CheckFailed, like a check."""
    datum = element.datum
    if element.is_zero():
        raise CheckFailed("zero element")
    if bar_element(element) != element:
        raise CheckFailed("not bar-invariant")
    word, runs = extremal_word(element)
    expected = ONE
    for letter, size in runs:
        expected = expected * q_factorial(size, datum.d(letter))
    if element.coefficient(word) != expected:
        raise CheckFailed("extremal word coefficient is %s, expected %s"
                          % (element.coefficient(word), expected),
                          {"word": list(word)})
    return "extremal word " + ",".join(str(x) for x in word)


def check_word_independence(entry, datum, quiver, context) -> str:
    """Two reduced words for the same element yield identical sets of
    cluster variables, compared as shuffle elements."""
    words = entry["words"]
    w1 = resolve_word(datum, words[0], quiver)
    w2 = resolve_word(datum, words[1], quiver)
    if not (is_reduced(datum, w1) and is_reduced(datum, w2)):
        raise CheckFailed("a word is not reduced")
    if not weyl_equal(datum, w1, w2):
        raise CheckFailed("words give different elements")
    first, second = (
        {el for seed in realized_exchange_graph(datum, w, entry["bound"],
                                                context)
         for el in seed.variables.values()}
        for w in (w1, w2))
    if first != second:
        raise CheckFailed("variable sets differ",
                          {"only_first": _sorted_json(first - second),
                           "only_second": _sorted_json(second - first)})
    return "%d distinct cluster variables" % len(first)


def _sorted_json(elements) -> list:
    """The elements' shuffle_to_json, ordered by its key-sorted dump."""
    return sorted(map(shuffle_to_json, elements),
                  key=lambda x: json.dumps(x, sort_keys=True))


def check_cluster_monomials(entry, datum, quiver, context) -> str:
    """Every cluster monomial from the full exchange graph passes the
    dual-canonical-type shadow conditions: exponents up to max_exponent of
    total degree at most 2, and the square of every variable.  So every
    max_exponent >= 1 checks the same monomials, of total degree 1 or 2,
    and 0 checks the squares alone.  The graph has at most as many seeds
    as word_independence's default bound.

    Seeds that share variables share monomials, and each distinct monomial
    is built and checked once per call.  It is keyed by the g-vectors and
    exponents of its support in label order and by the Lambda block on
    that support.  The key is exact: normalized_monomial is q^{p4} times
    the variables in label order, the seeds of one graph share one g-vector
    table (mutation_step checks each stored degree against it), so the
    g-vectors fix the variables and their degrees, and p4 depends only on
    those degrees and that Lambda block.  A failure ends the call, so only
    passing keys are kept; the first failing exponents are those of the
    seed-by-seed loop.  The details count every (seed, exponent) pair."""
    seeds = realized_exchange_graph(
        datum, resolve_word(datum, entry["word"], quiver),
        CHECKS["word_independence"][1]["bound"], context)
    top = min(entry["max_exponent"], 2)
    passed = set()
    tested = 0
    for seed in seeds:
        labels = seed.pair.labels
        combos = [dict(zip(labels, exps)) for exps in itertools.product(
            range(top + 1), repeat=len(labels)) if 0 < sum(exps) <= 2]
        for s in labels:
            c = dict.fromkeys(labels, 0)
            c[s] = 2
            if c not in combos:
                combos.append(c)
        for a in combos:
            tested += 1
            support = [i for i, s in enumerate(labels) if a[s]]
            key = (tuple((seed.g[labels[i]], a[labels[i]]) for i in support),
                   tuple(tuple(seed.pair.lam[i][j] for j in support)
                         for i in support))
            if key in passed:
                continue
            monomial = normalized_shuffle_monomial(a, seed)
            try:
                check_dual_canonical_conditions(monomial)
            except CheckFailed as failure:
                failure.instance["exponents"] = {str(k): v
                                                 for k, v in a.items()}
                raise
            passed.add(key)
    return "%d monomials over %d seeds" % (tested, len(seeds))


def check_negative_control(entry, datum, quiver, context) -> str:
    """A deliberately perturbed element must fail the dual-canonical check
    (guards against vacuous passes).  The kind has no input field, and
    run_check gives it A2: the element is a minor of A2 times q."""
    d = minor_to_shuffle(MinorSpec(datum.fundamental_weight(2), (1, 2)),
                         context)
    try:
        check_dual_canonical_conditions(d.scale(LaurentScalar.q_power(1)))
    except CheckFailed:
        return "perturbed element failed as expected"
    raise CheckFailed("perturbed element passed")


# ---------------------------------------------------------------------------
# Catalog runner
# ---------------------------------------------------------------------------

REQUIRED = object()

# kind -> (check, {field: default or REQUIRED}).  A missing required field
# is a KeyError naming it, and the fields are read in this order; a field
# the kind does not read is a ValueError.
CHECKS = {
    "initial_lambda": (check_initial_lambda,
                       {"input": REQUIRED, "word": REQUIRED}),
    "exchange_relation": (check_exchange_relation,
                          {"input": REQUIRED, "word": REQUIRED,
                           "direction": REQUIRED}),
    "square_identity": (check_square_identity,
                        {"input": REQUIRED, "fundamental": REQUIRED,
                         "word_mu": REQUIRED}),
    "restriction_factorization": (check_restriction_factorization,
                                  {"input": REQUIRED, "fundamental": REQUIRED,
                                   "chain_words": REQUIRED}),
    "cluster_monomials": (check_cluster_monomials,
                          {"input": REQUIRED, "word": REQUIRED,
                           "max_exponent": 1}),
    "word_independence": (check_word_independence,
                          {"input": REQUIRED, "words": REQUIRED,
                           "bound": 200}),
    "negative_control": (check_negative_control, {}),
}


def load_catalog(name: str) -> list:
    text = resources.files("qfold").joinpath("data").joinpath(name).read_text()
    return json.loads(text)["checks"]


def run_check(entry: dict, contexts=None) -> VerificationReport:
    """Run one catalog entry.  contexts maps a Cartan datum to the
    OracleContext that one verify call shares across its checks, made here
    on first use; without it the check gets a fresh context."""
    kind = entry["check"]
    if kind not in CHECKS:
        raise ValueError("unknown check kind %r" % kind)
    check, fields = CHECKS[kind]
    unknown = sorted(set(entry) - {"check", *fields})
    if unknown:
        raise ValueError("check kind %r reads no field %s"
                         % (kind, ", ".join(map(repr, unknown))))
    instance = {"check": kind}
    for name, default in fields.items():
        instance[name] = entry[name] if default is REQUIRED \
            else entry.get(name, default)
    # The one kind without an input field, the negative control, runs on A2.
    datum, quiver = resolve_input(instance.get("input", {"type": ["A", 2]}))
    if contexts is None:
        contexts = {}
    if datum not in contexts:
        contexts[datum] = OracleContext(datum)
    try:
        details = check(instance, datum, quiver, contexts[datum])
    except CheckFailed as failure:
        return VerificationReport(kind, dict(instance, **failure.instance),
                                  "fail", failure.details, failure.witness)
    return VerificationReport(kind, instance, "pass", details)


def bounded_entry(entry: dict, max_steps) -> dict:
    """The entry of a kind with a graph bound (word_independence) with
    that bound, given or the CHECKS default, capped at max_steps; any
    other entry, or max_steps None, leaves it as it is."""
    fields = CHECKS.get(entry.get("check"), (None, {}))[1]
    if max_steps is None or "bound" not in fields:
        return entry
    return dict(entry, bound=min(entry.get("bound", fields["bound"]),
                                 max_steps))
