"""Identity-checking harness: executable desk-scale checks wiring the
cluster combinatorics to the quantum-group oracle.

Every check consumes a small, fully replayable instance descriptor and
returns a VerificationReport.  All comparisons are exact equality of
canonical serializations; there are no tolerances anywhere.  Instance
catalogs are JSON data files shipped with the package.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field, replace
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
        from .rootdata import datum_from_json
        return datum_from_json(spec), None
    raise ValueError("input descriptor needs 'type', 'quiver', or a raw "
                     "Cartan datum")


def oracle_context(datum, contexts=None) -> OracleContext:
    """The oracle context of datum in contexts, a map from Cartan datum to
    OracleContext that one verify call shares across its checks, made
    there on first use; a fresh context when contexts is None."""
    if contexts is None:
        return OracleContext(datum)
    if datum not in contexts:
        contexts[datum] = OracleContext(datum)
    return contexts[datum]


def oracle_seed_data(datum, word, quiver=None, context=None) -> QuantumSeed:
    """The initial quantum seed of initial_pair realized by the oracle: its
    variables are the initial minors as shuffle elements and its unit the
    shuffle algebra's."""
    pair, degrees = initial_pair(datum, word, quiver)
    context = context or OracleContext(datum)
    specs = initial_cluster_variables(resolve_word(datum, word, quiver), datum)
    minors = {t: minor_to_shuffle(spec, context)
              for t, spec in zip(pair.labels, specs)}
    return QuantumSeed(pair, degrees, minors, unit_element(datum))


# ---------------------------------------------------------------------------
# Individual checks
# ---------------------------------------------------------------------------


def check_initial_lambda(input_spec, word, contexts=None) \
        -> VerificationReport:
    """The initial minors q-commute exactly as initial_pair's Lambda says,
    and that Lambda is compatible with the B of the same word."""
    instance = {"check": "initial_lambda", "input": input_spec,
                "word": list(word)}
    datum, quiver = resolve_input(input_spec)
    seed = oracle_seed_data(datum, word, quiver,
                            oracle_context(datum, contexts))
    pair = seed.pair
    for a, s in enumerate(pair.labels):
        for t in pair.labels[a + 1:]:
            m = qcommute_exponent(seed.variables[s], seed.variables[t])
            lam = pair.lam_entry(s, t)
            if m != lam:
                return VerificationReport(
                    "initial_lambda", instance, "fail",
                    "initial minors %d and %d: q-commutation exponent %s, "
                    "Lambda %d" % (s, t, m, lam),
                    {"pair": [s, t], "oracle": m, "lambda": lam})
    try:
        e = pair.e
    except CompatibilityError as exc:
        return VerificationReport(
            "initial_lambda", instance, "fail", str(exc),
            {"lambda": [list(r) for r in pair.lam],
             "b": [list(r) for r in pair.b]})
    return VerificationReport(
        "initial_lambda", instance, "pass",
        "e = %s" % {str(k): v for k, v in sorted(e.items())})


def normalized_shuffle_monomial(a, seed: QuantumSeed) -> ShuffleElement:
    """The normalized monomial Y^a of a seed realized in the shuffle
    algebra.  The cluster-monomial check calls it under this name, which
    the benchmark's traced run times on its own."""
    return normalized_monomial(a, seed)


def check_exchange_relation(input_spec, word, direction, contexts=None) \
        -> VerificationReport:
    """The quantum exchange relation holds as an identity of shuffle
    elements after one mutation of the initial seed."""
    instance = {"check": "exchange_relation", "input": input_spec,
                "word": list(word), "direction": direction}
    datum, quiver = resolve_input(input_spec)
    context = oracle_context(datum, contexts)
    seed = oracle_seed_data(datum, word, quiver, context)
    k = direction
    try:
        rhs = exchange_rhs(seed, k)
    except CompatibilityError as exc:
        return VerificationReport("exchange_relation", instance, "fail",
                                  "incompatible pair: %s" % exc)
    except KeyError:
        return VerificationReport("exchange_relation", instance, "fail",
                                  "direction %r is frozen" % (k,))
    try:
        candidate = shuffle_divide_left(seed.variables[k], rhs)
    except ShuffleDivisionError as exc:
        return VerificationReport(
            "exchange_relation", instance, "fail",
            "no candidate matches: " + str(exc),
            {"lhs_factor": shuffle_to_json(seed.variables[k]),
             "rhs": shuffle_to_json(rhs)})
    if bar_element(candidate) != candidate:
        return VerificationReport(
            "exchange_relation", instance, "fail",
            "mutated variable is not bar-invariant",
            {"candidate": shuffle_to_json(candidate)})
    name = _name_among_minors(datum, candidate, context)
    details = "Y_%d' = %s" % (k, name or str(candidate))
    return VerificationReport("exchange_relation", instance, "pass", details)


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


def check_square_identity(input_spec, fundamental, word_mu, contexts=None) \
        -> VerificationReport:
    """Minor squaring: D(mu,zeta)^2 = q^{-(mu-zeta,mu-zeta)/2} D(2mu,2zeta).

    The printed statement carries the opposite exponent sign; the sign used
    here is the one forced by the bar-product identity with both sides
    bar-invariant, and is verified exactly.
    """
    instance = {"check": "square_identity", "input": input_spec,
                "fundamental": fundamental, "word_mu": list(word_mu)}
    datum, quiver = resolve_input(input_spec)
    context = oracle_context(datum, contexts)
    word_mu = resolve_word(datum, word_mu, quiver)
    fundamental = resolve_word(datum, (fundamental,), quiver)[0]
    lam = datum.fundamental_weight(fundamental)
    d = minor_to_shuffle(MinorSpec(lam, word_mu), context)
    doubled = minor_to_shuffle(MinorSpec(2 * lam, word_mu), context)
    n = -bilinear_form(d.weight, d.weight) // 2
    lhs = shuffle_product(d, d)
    rhs = doubled.scale(LaurentScalar.q_power(n))
    if lhs == rhs:
        return VerificationReport("square_identity", instance, "pass",
                                  "exponent %d" % n)
    diff = lhs - rhs
    return VerificationReport(
        "square_identity", instance, "fail",
        "sides differ", {"difference": shuffle_to_json(diff)})


def check_restriction_factorization(input_spec, fundamental, chain_words,
                                    contexts=None) -> VerificationReport:
    """Coproduct factorization across a dominance chain of extremal weights.

    chain_words lists reduced words for mu_1 < mu_2 < ... < mu_{n+1}
    (first word the longest).  The components of the coproduct are read
    top-down: the first tensor factor is D(mu_n, mu_{n+1})."""
    instance = {"check": "restriction_factorization", "input": input_spec,
                "fundamental": fundamental,
                "chain_words": [list(w) for w in chain_words]}
    datum, quiver = resolve_input(input_spec)
    context = oracle_context(datum, contexts)
    fundamental = resolve_word(datum, (fundamental,), quiver)[0]
    words = [resolve_word(datum, w, quiver) for w in chain_words]
    lam = datum.fundamental_weight(fundamental)
    # The minors of consecutive links, top link first; each one's weight
    # eta - mu is the link's step.
    links = [MinorSpec(lam, lower, higher)
             for lower, higher in zip(words, words[1:])][::-1]
    for link in links:
        if link.weight.is_zero() or any(c < 0 for c in link.weight.coords):
            return VerificationReport(
                "restriction_factorization", instance, "fail",
                "chain is not strictly dominance-increasing")
    big = minor_to_shuffle(MinorSpec(lam, words[0], words[-1]), context)
    parts = [link.weight for link in links]
    factors = [minor_to_shuffle(link, context) for link in links]
    split = coproduct_components(big, parts)
    expected = tensor_of_elements(factors)
    if split == expected:
        return VerificationReport("restriction_factorization", instance,
                                  "pass", "%d tensor factors" % len(links))
    return VerificationReport(
        "restriction_factorization", instance, "fail",
        "components differ from the tensor of minors",
        {"split_terms": len(split), "expected_terms": len(expected)})


def check_dual_canonical_conditions(element: ShuffleElement) \
        -> VerificationReport:
    """Element-level shadows of the dual-canonical-type axioms.

    (a) bar invariance, (b) the coefficient of the extremal word is the
    product of quantum factorials over its runs.  Together with the strips
    of extremal_word this says the iterated left skew derivatives along
    that word end at the unit; weight homogeneity is structural
    (ShuffleElement enforces it)."""
    instance = {"check": "dual_canonical"}
    datum = element.datum
    if element.is_zero():
        return VerificationReport("dual_canonical", instance, "fail",
                                  "zero element")
    if bar_element(element) != element:
        return VerificationReport("dual_canonical", instance, "fail",
                                  "not bar-invariant")
    word, runs = extremal_word(element)
    expected = ONE
    for letter, size in runs:
        expected = expected * q_factorial(size, datum.d(letter))
    if element.coefficient(word) != expected:
        return VerificationReport(
            "dual_canonical", instance, "fail",
            "extremal word coefficient is %s, expected %s"
            % (element.coefficient(word), expected),
            {"word": list(word)})
    return VerificationReport("dual_canonical", instance, "pass",
                              "extremal word " + ",".join(str(x) for x in word))


def realized_exchange_graph(datum, word, quiver=None, bound=200,
                            context=None) -> list:
    """The seeds of the exchange graph of oracle_seed_data's seed, in
    enumerate_exchange_graph's order: its cluster variables are shuffle
    elements, each computed once by the exchange step mutated_variable.
    Raises RuntimeError when the graph has more than `bound` seeds.

    A complete graph is kept in context.graphs, keyed by the word (its
    letters resolved as initial_pair resolves them) and the quiver, so one
    verify call realizes each graph once; a later lookup raises as the
    enumeration would, when the stored graph has more seeds than its bound
    (the initial seed is stored whatever the bound)."""
    graphs = {} if context is None else context.graphs
    key = (resolve_word(datum, word, quiver), None if quiver is None else (
        quiver.vertices, quiver.edges,
        frozenset(quiver.automorphism.items())))
    seeds = graphs.get(key)
    if seeds is None:
        graph = enumerate_exchange_graph(
            oracle_seed_data(datum, word, quiver, context), bound)
        if not graph.complete:
            raise RuntimeError("exchange graph exceeded bound")
        seeds = graphs[key] = graph.seeds
    elif len(seeds) > max(bound, 1):
        raise RuntimeError("exchange graph exceeded bound")
    return seeds


def check_word_independence(input_spec, word1, word2, bound=200,
                            contexts=None) -> VerificationReport:
    """Two reduced words for the same element yield identical sets of
    cluster variables, compared as shuffle elements."""
    instance = {"check": "word_independence", "input": input_spec,
                "words": [list(word1), list(word2)], "bound": bound}
    datum, quiver = resolve_input(input_spec)
    w1 = resolve_word(datum, word1, quiver)
    w2 = resolve_word(datum, word2, quiver)
    if not (is_reduced(datum, w1) and is_reduced(datum, w2)):
        return VerificationReport("word_independence", instance, "fail",
                                  "a word is not reduced")
    if not weyl_equal(datum, w1, w2):
        return VerificationReport("word_independence", instance, "fail",
                                  "words give different elements")
    context = oracle_context(datum, contexts)
    first, second = (
        {el for seed in realized_exchange_graph(datum, w, quiver, bound,
                                                context)
         for el in seed.variables.values()}
        for w in (word1, word2))
    if first == second:
        return VerificationReport(
            "word_independence", instance, "pass",
            "%d distinct cluster variables" % len(first))
    return VerificationReport(
        "word_independence", instance, "fail",
        "variable sets differ",
        {"only_first": _sorted_json(first - second),
         "only_second": _sorted_json(second - first)})


def _sorted_json(elements) -> list:
    """The elements' shuffle_to_json, ordered by its key-sorted dump."""
    return sorted(map(shuffle_to_json, elements),
                  key=lambda x: json.dumps(x, sort_keys=True))


def check_cluster_monomials(input_spec, word, max_exponent=1, contexts=None) \
        -> VerificationReport:
    """Every cluster monomial from the full exchange graph passes the
    dual-canonical-type shadow conditions: exponents up to max_exponent of
    total degree at most 2, and the square of every variable.  So every
    max_exponent >= 1 checks the same monomials, of total degree 1 or 2,
    and 0 checks the squares alone.

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
    instance = {"check": "cluster_monomials", "input": input_spec,
                "word": list(word), "max_exponent": max_exponent}
    datum, quiver = resolve_input(input_spec)
    seeds = realized_exchange_graph(datum, word, quiver, 200,
                                    oracle_context(datum, contexts))
    passed = set()
    tested = 0
    for seed in seeds:
        labels = seed.pair.labels
        combos = [dict(zip(labels, exps)) for exps in itertools.product(
            range(min(max_exponent, 2) + 1), repeat=len(labels))
            if 0 < sum(exps) <= 2]
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
            report = check_dual_canonical_conditions(monomial)
            if not report.passed:
                return replace(report, check="cluster_monomials",
                               instance=dict(instance, exponents={
                                   str(k): v for k, v in a.items()}))
            passed.add(key)
    return VerificationReport("cluster_monomials", instance, "pass",
                              "%d monomials over %d seeds"
                              % (tested, len(seeds)))


def check_negative_control(contexts=None) -> VerificationReport:
    """A deliberately perturbed element must fail the dual-canonical check
    (guards against vacuous passes)."""
    instance = {"check": "negative_control"}
    datum = cartan_datum("A", 2)
    d = minor_to_shuffle(MinorSpec(datum.fundamental_weight(2), (1, 2)),
                         oracle_context(datum, contexts))
    bad = d.scale(LaurentScalar.q_power(1))
    report = check_dual_canonical_conditions(bad)
    if report.passed:
        return VerificationReport("negative_control", instance, "fail",
                                  "perturbed element passed")
    return VerificationReport("negative_control", instance, "pass",
                              "perturbed element failed as expected")


# ---------------------------------------------------------------------------
# Catalog runner
# ---------------------------------------------------------------------------


def load_catalog(name: str) -> list:
    text = resources.files("qfold").joinpath("data").joinpath(name).read_text()
    return json.loads(text)["checks"]


def run_check(entry: dict, contexts=None) -> VerificationReport:
    """Run one catalog entry, on the oracle contexts of one verify call
    (see oracle_context); without them the check makes its own."""
    kind = entry["check"]
    if kind == "initial_lambda":
        return check_initial_lambda(entry["input"], entry["word"], contexts)
    if kind == "exchange_relation":
        return check_exchange_relation(entry["input"], entry["word"],
                                       entry["direction"], contexts)
    if kind == "square_identity":
        return check_square_identity(entry["input"], entry["fundamental"],
                                     entry["word_mu"], contexts)
    if kind == "restriction_factorization":
        return check_restriction_factorization(
            entry["input"], entry["fundamental"], entry["chain_words"],
            contexts)
    if kind == "cluster_monomials":
        return check_cluster_monomials(entry["input"], entry["word"],
                                       entry.get("max_exponent", 1), contexts)
    if kind == "word_independence":
        return check_word_independence(entry["input"], entry["words"][0],
                                       entry["words"][1],
                                       entry.get("bound", 200), contexts)
    if kind == "negative_control":
        return check_negative_control(contexts)
    raise ValueError("unknown check kind %r" % kind)


def bounded_entry(entry: dict, max_steps) -> dict:
    """The catalog entry with its graph bound capped at max_steps (None
    leaves it as it is)."""
    if max_steps is not None and "bound" in entry:
        return dict(entry, bound=min(entry["bound"], max_steps))
    return entry
