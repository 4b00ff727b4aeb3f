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
from dataclasses import dataclass, field
from importlib import resources

from .folding import fold, orbit_word, quiver_from_json, underlying_datum
from .initquiver import (
    build_initial_quiver,
    fold_exchange_matrix,
    initial_cluster_variables,
    vertex_orbits_from_unfolding,
)
from .laurent import ONE, LaurentScalar, exact_int, q_factorial
from .qcluster import (
    CompatiblePair,
    CompatibilityError,
    QuantumSeed,
    check_compatible,
    enumerate_exchange_graph,
    exchange_rhs,
    initial_seed,
    mutated_variable,
    normalized_monomial,
)
from .rootdata import (
    apply_word,
    bilinear_form,
    cartan_datum,
    dominance_leq,
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
    passed: bool
    status: str = "pass"          # pass | fail | skipped
    details: str = ""
    witness: dict = field(default_factory=dict)

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


def _orbit_word(datum, quiver, word):
    """Normalize word letters to the datum's index labels; KeyError for a
    letter outside them."""
    if quiver is not None:
        return orbit_word(word, quiver)
    for letter in word:
        datum.pos(letter)
    return tuple(word)


def oracle_seed_data(datum, word, quiver=None, context=None) -> QuantumSeed:
    """The initial quantum seed realized by the oracle's minors.

    Its labels are the word positions 1..n over the (possibly folded)
    datum, its variables the initial minors as shuffle elements (degrees
    their weights, unit the shuffle algebra's), Lambda their q-commutation
    matrix; the exchange matrix comes from the staircase quiver of the
    unfolded word, orbit-summed when a quiver with automorphism is in play.
    """
    context = context or OracleContext(datum)
    if quiver is None and any(d != 1 for d in datum.symmetrizers):
        raise ValueError(
            "symmetrizable datum given without its quiver-with-automorphism: "
            "the exchange matrix must be orbit-summed from the unfolded "
            "staircase, so pass the quiver input instead")
    word = _orbit_word(datum, quiver, word)
    if not is_reduced(datum, word):
        raise ValueError("word %r is not reduced" % (word,))
    specs = initial_cluster_variables(word, datum)
    minors = {t + 1: minor_to_shuffle(specs[t], context)
              for t in range(len(word))}
    n = len(word)
    lam = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            m = qcommute_exponent(minors[a + 1], minors[b + 1])
            if m is None:
                raise QCommutationFailure(a + 1, b + 1)
            lam[a][b] = m
            lam[b][a] = -m
    ice, orbits = staircase(datum, word, quiver)
    exchange = fold_exchange_matrix(ice, orbits)
    labels = tuple(minors)
    ex_labels = tuple(labels[exchange.labels.index(o)]
                      for o in exchange.exchangeable)
    pair = CompatiblePair(labels, ex_labels, lam, exchange.matrix)
    degrees = {t: minors[t].weight for t in labels}
    return QuantumSeed(pair, degrees, minors, unit_element(datum))


def staircase(datum, word, quiver=None):
    """(staircase quiver, position orbits to sum it over) of a word; with a
    quiver with automorphism the staircase is built on the unfolded word."""
    if quiver is None:
        return build_initial_quiver(word, datum), None
    unfolded, orbits, _ = vertex_orbits_from_unfolding(word, quiver)
    return build_initial_quiver(unfolded, underlying_datum(quiver)), orbits


class QCommutationFailure(Exception):
    def __init__(self, s, t):
        super().__init__("initial minors %d and %d do not q-commute" % (s, t))
        self.pair = (s, t)


def build_seed(datum, word, quiver=None):
    """The oracle-backed initial quantum seed in the torus plus its minors."""
    realized = oracle_seed_data(datum, word, quiver)
    return initial_seed(realized.pair, realized.degrees), realized.variables


# ---------------------------------------------------------------------------
# Individual checks
# ---------------------------------------------------------------------------


def check_initial_lambda(input_spec, word) -> VerificationReport:
    """All initial minors q-commute and the oracle Lambda is compatible
    with the staircase/orbit-summed B."""
    instance = {"check": "initial_lambda", "input": input_spec,
                "word": list(word)}
    datum, quiver = resolve_input(input_spec)
    try:
        pair = oracle_seed_data(datum, word, quiver).pair
    except QCommutationFailure as exc:
        return VerificationReport("initial_lambda", instance, False, "fail",
                                  str(exc), {"pair": list(exc.pair)})
    try:
        e = check_compatible(pair)
    except CompatibilityError as exc:
        return VerificationReport(
            "initial_lambda", instance, False, "fail", str(exc),
            {"lambda": [list(r) for r in pair.lam],
             "b": [list(r) for r in pair.b]})
    details = "e = %s" % {str(k): v for k, v in sorted(e.items())}
    if e and min(e.values()) <= 0:
        return VerificationReport("initial_lambda", instance, False, "fail",
                                  "nonpositive diagonal: " + details)
    return VerificationReport("initial_lambda", instance, True, "pass",
                              details)


def normalized_shuffle_monomial(a, seed: QuantumSeed) -> ShuffleElement:
    """The normalized monomial Y^a of a seed realized in the shuffle
    algebra.  The cluster-monomial check calls it under this name, which
    the benchmark's traced run times on its own."""
    return normalized_monomial(a, seed)


def check_exchange_relation(input_spec, word, direction) -> VerificationReport:
    """The quantum exchange relation holds as an identity of shuffle
    elements after one mutation of the initial seed."""
    instance = {"check": "exchange_relation", "input": input_spec,
                "word": list(word), "direction": direction}
    datum, quiver = resolve_input(input_spec)
    context = OracleContext(datum)
    seed = oracle_seed_data(datum, word, quiver, context)
    k = direction
    try:
        rhs = exchange_rhs(seed, k)
    except CompatibilityError as exc:
        return VerificationReport("exchange_relation", instance, False,
                                  "fail", "incompatible pair: %s" % exc)
    except KeyError:
        return VerificationReport("exchange_relation", instance, False,
                                  "fail", "direction %r is frozen" % (k,))
    if not any(row[seed.pair.ex_pos(k)] for row in seed.pair.b):
        return VerificationReport("exchange_relation", instance, True,
                                  "skipped", "not realizable in A_q(n): "
                                  "empty exchange monomials")
    try:
        candidate = shuffle_divide_left(seed.variables[k], rhs)
    except ShuffleDivisionError as exc:
        return VerificationReport(
            "exchange_relation", instance, False, "fail",
            "no candidate matches: " + str(exc),
            {"lhs_factor": shuffle_to_json(seed.variables[k]),
             "rhs": shuffle_to_json(rhs)})
    if bar_element(candidate) != candidate:
        return VerificationReport(
            "exchange_relation", instance, False, "fail",
            "mutated variable is not bar-invariant",
            {"candidate": shuffle_to_json(candidate)})
    name = _name_among_minors(datum, candidate, context)
    details = "Y_%d' = %s" % (k, name or str(candidate))
    return VerificationReport("exchange_relation", instance, True, "pass",
                              details)


def _name_among_minors(datum, element, context):
    """Try to identify an element as a generalized minor D(u omega_i,
    v omega_i), or None (always for a datum of infinite type).

    Mutated cluster variables are often minors with non-fundamental eta
    (the dual PBW elements have eta = s_{i1}...s_{i_{k-1}} omega_{i_k}), so
    both Weyl elements range over the full group.  A minor depends only on
    (mu, eta) and eta = mu + wt(element), so one lookup per extremal weight
    mu = u omega_i finds the candidate; u and v are the first words of their
    weights in BFS order.
    """
    def wname(u):
        return "s" + "s".join(str(x) for x in u) if u else "1"

    for i in datum.indices:
        if element == theta_star(datum, i):
            return "theta*_%s" % (i,)
    if not is_finite_type(datum):
        return None
    words = weyl_elements(datum).values()
    shift = element.weight.to_weight()
    for i in datum.indices:
        omega = datum.fundamental_weight(i)
        first = {}
        for u in words:
            first.setdefault(apply_word(u, omega), u)
        for mu, u in first.items():
            v = first.get(mu + shift)
            if v is not None and \
                    minor_to_shuffle(MinorSpec(omega, u, v), context) == element:
                return "D(%s w_%s, %s w_%s)" % (wname(u), i, wname(v), i)
    return None


def check_square_identity(input_spec, fundamental, word_mu) -> VerificationReport:
    """Minor squaring: D(mu,zeta)^2 = q^{-(mu-zeta,mu-zeta)/2} D(2mu,2zeta).

    The printed statement carries the opposite exponent sign; the sign used
    here is the one forced by the bar-product identity with both sides
    bar-invariant, and is verified exactly.
    """
    instance = {"check": "square_identity", "input": input_spec,
                "fundamental": fundamental, "word_mu": list(word_mu)}
    datum, quiver = resolve_input(input_spec)
    context = OracleContext(datum)
    word_mu = _orbit_word(datum, quiver, word_mu)
    fundamental = _orbit_word(datum, quiver, (fundamental,))[0]
    lam = datum.fundamental_weight(fundamental)
    d = minor_to_shuffle(MinorSpec(lam, word_mu), context)
    doubled = minor_to_shuffle(MinorSpec(2 * lam, word_mu), context)
    n = -bilinear_form(d.weight, d.weight) // 2
    lhs = shuffle_product(d, d)
    rhs = doubled.scale(LaurentScalar.q_power(n))
    if lhs == rhs:
        return VerificationReport("square_identity", instance, True, "pass",
                                  "exponent %d" % n)
    diff = lhs - rhs
    return VerificationReport(
        "square_identity", instance, False, "fail",
        "sides differ", {"difference": shuffle_to_json(diff)})


def check_restriction_factorization(input_spec, fundamental, chain_words) \
        -> VerificationReport:
    """Coproduct factorization across a dominance chain of extremal weights.

    chain_words lists reduced words for mu_1 < mu_2 < ... < mu_{n+1}
    (first word the longest).  The components of the coproduct are read
    top-down: the first tensor factor is D(mu_n, mu_{n+1})."""
    instance = {"check": "restriction_factorization", "input": input_spec,
                "fundamental": fundamental,
                "chain_words": [list(w) for w in chain_words]}
    datum, quiver = resolve_input(input_spec)
    context = OracleContext(datum)
    fundamental = _orbit_word(datum, quiver, (fundamental,))[0]
    words = [_orbit_word(datum, quiver, w) for w in chain_words]
    lam = datum.fundamental_weight(fundamental)
    mus = [apply_word(w, lam) for w in words]
    for lower, higher in zip(mus, mus[1:]):
        if not dominance_leq(lower, higher) or lower == higher:
            return VerificationReport(
                "restriction_factorization", instance, False, "fail",
                "chain is not strictly dominance-increasing")
    n = len(words) - 1
    big = minor_to_shuffle(MinorSpec(lam, words[0], words[-1]), context)
    parts = []
    factors = []
    for k in range(n):
        lo, hi = n - 1 - k, n - k
        parts.append((mus[hi] - mus[lo]).to_root())
        factors.append(minor_to_shuffle(
            MinorSpec(lam, words[lo], words[hi]), context))
    split = coproduct_components(big, parts)
    expected = tensor_of_elements(factors)
    if split == expected:
        return VerificationReport("restriction_factorization", instance,
                                  True, "pass",
                                  "%d tensor factors" % n)
    return VerificationReport(
        "restriction_factorization", instance, False, "fail",
        "components differ from the tensor of minors",
        {"split_terms": len(split.terms), "expected_terms": len(expected.terms)})


def check_dual_canonical_conditions(element: ShuffleElement,
                                    instance=None) -> VerificationReport:
    """Element-level shadows of the dual-canonical-type axioms.

    (a) bar invariance, (b) the coefficient of the extremal word is the
    product of quantum factorials over its runs.  Together with the strips
    of extremal_word this says the iterated left skew derivatives along
    that word end at the unit; weight homogeneity is structural
    (ShuffleElement enforces it)."""
    instance = instance or {"check": "dual_canonical"}
    datum = element.datum
    if element.is_zero():
        return VerificationReport("dual_canonical", instance, False, "fail",
                                  "zero element")
    if bar_element(element) != element:
        return VerificationReport("dual_canonical", instance, False, "fail",
                                  "not bar-invariant")
    word, runs = extremal_word(element)
    expected = ONE
    for letter, size in runs:
        expected = expected * q_factorial(size, datum.d(letter))
    if element.coefficient(word) != expected:
        return VerificationReport(
            "dual_canonical", instance, False, "fail",
            "extremal word coefficient is %s, expected %s"
            % (element.coefficient(word), expected),
            {"word": list(word)})
    return VerificationReport("dual_canonical", instance, True, "pass",
                              "extremal word " + ",".join(str(x) for x in word))


def realized_exchange_graph(datum, word, quiver=None, bound=200) -> list:
    """The seeds of enumerate_exchange_graph's graph, in its order, realized
    in the shuffle algebra: each new seed takes the pair and degrees of the
    torus seed and mirrors the torus mutation along its discovery edge (its
    first edge in graph.edges) by the same exchange step, mutated_variable,
    on shuffle elements.  Raises RuntimeError when the graph has more than
    `bound` seeds."""
    realized = [oracle_seed_data(datum, word, quiver)]
    graph = enumerate_exchange_graph(
        initial_seed(realized[0].pair, realized[0].degrees), bound)
    if not graph.complete:
        raise RuntimeError("exchange graph exceeded bound")
    for src, k, dst in graph.edges:
        if dst != len(realized):
            continue
        variables = dict(realized[src].variables)
        variables[k] = mutated_variable(realized[src], k)
        seed = graph.seeds[dst]
        realized.append(QuantumSeed(seed.pair, seed.degrees, variables,
                                    realized[0].unit))
    return realized


def check_word_independence(input_spec, word1, word2, bound=200) \
        -> VerificationReport:
    """Two reduced words for the same element yield identical sets of
    cluster variables, compared as shuffle elements."""
    instance = {"check": "word_independence", "input": input_spec,
                "words": [list(word1), list(word2)], "bound": bound}
    datum, quiver = resolve_input(input_spec)
    w1 = _orbit_word(datum, quiver, word1)
    w2 = _orbit_word(datum, quiver, word2)
    if not (is_reduced(datum, w1) and is_reduced(datum, w2)):
        return VerificationReport("word_independence", instance, False,
                                  "fail", "a word is not reduced")
    if not weyl_equal(datum, w1, w2):
        return VerificationReport("word_independence", instance, False,
                                  "fail", "words give different elements")
    sets = []
    for w in (word1, word2):
        variables = {}
        for seed in realized_exchange_graph(datum, w, quiver, bound):
            for el in seed.variables.values():
                variables[_canonical_shuffle_key(el)] = el
        sets.append(variables)
    only1 = sorted(set(sets[0]) - set(sets[1]))
    only2 = sorted(set(sets[1]) - set(sets[0]))
    if not only1 and not only2:
        return VerificationReport(
            "word_independence", instance, True, "pass",
            "%d distinct cluster variables" % len(sets[0]))
    return VerificationReport(
        "word_independence", instance, False, "fail",
        "variable sets differ",
        {"only_first": [json.loads(json.dumps(shuffle_to_json(sets[0][k])))
                        for k in only1],
         "only_second": [shuffle_to_json(sets[1][k]) for k in only2]})


def _canonical_shuffle_key(x: ShuffleElement):
    return json.dumps(shuffle_to_json(x), sort_keys=True)


def check_cluster_monomials(input_spec, word, max_exponent=1) \
        -> VerificationReport:
    """Every cluster monomial from the full exchange graph passes the
    dual-canonical-type shadow conditions: exponents up to max_exponent of
    total degree at most 2, and the square of every variable."""
    instance = {"check": "cluster_monomials", "input": input_spec,
                "word": list(word), "max_exponent": max_exponent}
    datum, quiver = resolve_input(input_spec)
    seeds = realized_exchange_graph(datum, word, quiver)
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
            monomial = normalized_shuffle_monomial(a, seed)
            report = check_dual_canonical_conditions(monomial)
            tested += 1
            if not report.passed:
                report.instance = dict(instance, exponents={str(k): v
                                                            for k, v in a.items()})
                return report
    return VerificationReport("cluster_monomials", instance, True, "pass",
                              "%d monomials over %d seeds"
                              % (tested, len(seeds)))


def check_negative_control() -> VerificationReport:
    """A deliberately perturbed element must fail the dual-canonical check
    (guards against vacuous passes)."""
    instance = {"check": "negative_control"}
    datum = cartan_datum("A", 2)
    context = OracleContext(datum)
    d = minor_to_shuffle(MinorSpec(datum.fundamental_weight(2), (1, 2)),
                         context)
    bad = d.scale(LaurentScalar.q_power(1))
    report = check_dual_canonical_conditions(bad)
    if report.passed:
        return VerificationReport("negative_control", instance, False,
                                  "fail", "perturbed element passed")
    return VerificationReport("negative_control", instance, True, "pass",
                              "perturbed element failed as expected")


# ---------------------------------------------------------------------------
# Catalog runner
# ---------------------------------------------------------------------------


def load_catalog(name: str) -> list:
    text = resources.files("qfold").joinpath("data").joinpath(name).read_text()
    return json.loads(text)["checks"]


def run_check(entry: dict) -> VerificationReport:
    kind = entry["check"]
    if kind == "initial_lambda":
        return check_initial_lambda(entry["input"], entry["word"])
    if kind == "exchange_relation":
        return check_exchange_relation(entry["input"], entry["word"],
                                       entry["direction"])
    if kind == "square_identity":
        return check_square_identity(entry["input"], entry["fundamental"],
                                     entry["word_mu"])
    if kind == "restriction_factorization":
        return check_restriction_factorization(
            entry["input"], entry["fundamental"], entry["chain_words"])
    if kind == "cluster_monomials":
        return check_cluster_monomials(entry["input"], entry["word"],
                                       entry.get("max_exponent", 1))
    if kind == "word_independence":
        return check_word_independence(entry["input"], entry["words"][0],
                                       entry["words"][1],
                                       entry.get("bound", 200))
    if kind == "negative_control":
        return check_negative_control()
    raise ValueError("unknown check kind %r" % kind)


def run_catalog(entries, max_steps=None) -> list:
    reports = []
    for entry in entries:
        reports.append(run_check(bounded_entry(entry, max_steps)))
    return reports


def bounded_entry(entry: dict, max_steps) -> dict:
    """The catalog entry with its graph bound capped at max_steps (None
    leaves it as it is)."""
    if max_steps is not None and "bound" in entry:
        return dict(entry, bound=min(entry["bound"], max_steps))
    return entry
