"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`; add `--slow` to include
the larger A3 word-independence enumeration in criterion 10.  Every
comparison is exact; there are no tolerances anywhere.
"""

from __future__ import annotations

import itertools
import random
import time
from functools import lru_cache

from classical_mutation import classical_mutate, cl_generator
from pair_generators import random_compatible_pair
from test_initquiver import WILD, WILD_ARROWS, WILD_WORD

from qfold.convexorder import check_convexity, order_from_word
from qfold.initquiver import build_initial_quiver
from qfold.laurent import ONE, LaurentScalar, q_factorial
from qfold.qcluster import (
    check_compatible,
    enumerate_exchange_graph,
    mutate_pair,
    specialize_classical,
)
from qfold.rootdata import (
    apply_word,
    bilinear_form,
    cartan_datum,
    longest_word,
    positive_roots,
)
from qfold.uqn import (
    OracleContext,
    bar_element,
    extremal_word,
    shuffle_product,
)
from qfold.verify import (
    build_seed,
    check_cluster_monomials,
    check_exchange_relation,
    check_initial_lambda,
    check_restriction_factorization,
    check_square_identity,
    check_word_independence,
    resolve_input,
)

C2_INPUT = {"quiver": {"vertices": [1, 2, 3], "edges": [[1, 2], [3, 2]],
                       "automorphism": {"1": 3, "2": 2, "3": 1}}}

INSTANCES = (
    ("A2", {"type": ["A", 2]}, (1, 2, 1)),
    ("A3", {"type": ["A", 3]}, (1, 2, 1, 3, 2, 1)),
    ("C2", C2_INPUT, (1, 2, 1, 2)),
)


def _line(num, name, ok):
    print("ACCEPTANCE %02d %-26s %s" % (num, name, "PASS" if ok else "FAIL"))


@lru_cache(maxsize=None)
def _instance(tag):
    for name, input_spec, word in INSTANCES:
        if name == tag:
            datum, quiver = resolve_input(input_spec)
            context = OracleContext(datum)
            from qfold.verify import _orbit_word, oracle_seed_data
            oword = _orbit_word(datum, quiver, word)
            seed = oracle_seed_data(datum, word, quiver, context)
            return dict(input=input_spec, word=word, datum=datum,
                        quiver=quiver, oword=oword, minors=seed.variables,
                        context=context)
    raise KeyError(tag)


def test_criterion_01_figure_reproduction():
    # The worked three-row staircase quiver, reproduced arrow-for-arrow.
    ok = False
    try:
        start = time.time()
        ice = build_initial_quiver(WILD_WORD, WILD)
        elapsed = time.time() - start
        assert ice.arrow_multiset() == WILD_ARROWS
        assert ice.frozen == frozenset({7, 9, 10})
        assert elapsed < 1.0, "took %.3fs" % elapsed
        ok = True
    finally:
        _line(1, "staircase figure", ok)


def test_criterion_02_compatible_pair_calculus():
    ok = False
    try:
        start = time.time()
        rng = random.Random(20260811)
        count = 0
        while count < 1000:
            pair = random_compatible_pair(rng)
            if not pair.exchangeable:
                continue
            count += 1
            e = check_compatible(pair)
            for k in pair.exchangeable:
                mutated = mutate_pair(pair, k)
                assert check_compatible(mutated) == e
                assert mutate_pair(mutated, k) == pair
        elapsed = time.time() - start
        assert elapsed < 30.0, "took %.1fs" % elapsed
        ok = True
    finally:
        _line(2, "compatible-pair calculus", ok)


def test_criterion_03_oracle_qcommutation():
    ok = False
    try:
        start = time.time()
        for tag, input_spec, word in INSTANCES:
            report = check_initial_lambda(input_spec, word)
            assert report.passed, (tag, report.details)
        elapsed = time.time() - start
        assert elapsed < 300.0, "took %.1fs" % elapsed
        ok = True
    finally:
        _line(3, "oracle q-commutation", ok)


def test_criterion_04_exchange_relation():
    ok = False
    try:
        for input_spec, word in (({"type": ["A", 2]}, (1, 2, 1)),
                                 (C2_INPUT, (1, 2, 1, 2))):
            report = check_exchange_relation(input_spec, word, 1)
            assert report.passed and report.status == "pass", report.details
        ok = True
    finally:
        _line(4, "exchange relation", ok)


def test_criterion_05_minor_squaring():
    ok = False
    try:
        for tag, _, _ in INSTANCES:
            inst = _instance(tag)
            word = inst["word"]
            for t in range(1, len(word) + 1):
                report = check_square_identity(inst["input"], word[t - 1],
                                               word[:t])
                assert report.passed, (tag, t, report.details)
        ok = True
    finally:
        _line(5, "minor squaring", ok)


def test_criterion_06_coproduct_factorization():
    ok = False
    try:
        checked = 0
        for tag, _, _ in INSTANCES:
            inst = _instance(tag)
            datum, oword = inst["datum"], inst["oword"]
            for t in range(1, len(oword) + 1):
                lam = datum.fundamental_weight(oword[t - 1])
                chain = []
                last = None
                for s in range(t, -1, -1):
                    weight = apply_word(oword[:s], lam)
                    if weight != last:
                        chain.append(list(oword[:s]))
                        last = weight
                if len(chain) < 2:
                    continue
                report = check_restriction_factorization(
                    inst["input"], inst["word"][t - 1],
                    [_refold(inst, w) for w in chain])
                assert report.passed, (tag, t, report.details)
                checked += 1
        assert checked >= 6
        ok = True
    finally:
        _line(6, "coproduct factorization", ok)


def _refold(inst, unfolded_letters):
    # Translate datum-level letters back to the instance's word alphabet
    # (orbit representatives when a quiver is in play).
    if inst["quiver"] is None:
        return list(unfolded_letters)
    reps = {}
    for letter in inst["oword"]:
        reps[letter] = min(letter)
    return [reps[x] for x in unfolded_letters]


def test_criterion_07_bar_calculus():
    ok = False
    try:
        for tag, _, _ in INSTANCES:
            inst = _instance(tag)
            minors = list(inst["minors"].values())
            for d in minors:
                assert bar_element(d) == d, tag
            for a, b in itertools.product(minors, repeat=2):
                e = bilinear_form(a.weight, b.weight)
                lhs = bar_element(shuffle_product(a, b))
                rhs = shuffle_product(bar_element(b), bar_element(a)) \
                    .scale(LaurentScalar.q_power(e))
                assert lhs == rhs, tag
        ok = True
    finally:
        _line(7, "bar calculus", ok)


def test_criterion_08_extremal_words():
    ok = False
    try:
        for tag, _, _ in INSTANCES:
            inst = _instance(tag)
            datum = inst["datum"]
            for d in inst["minors"].values():
                word, runs = extremal_word(d)
                expected = ONE
                for letter, size in runs:
                    expected = expected * q_factorial(size, datum.d(letter))
                assert d.coefficient(word) == expected, (tag, word)
        ok = True
    finally:
        _line(8, "extremal words", ok)


def test_criterion_09_cluster_monomials():
    ok = False
    try:
        report = check_cluster_monomials({"type": ["A", 2]}, (1, 2, 1))
        assert report.passed, report.details
        assert "2 seeds" in report.details
        ok = True
    finally:
        _line(9, "cluster monomials", ok)


def test_criterion_10_word_independence(slow_enabled):
    ok = False
    suffix = ""
    try:
        report = check_word_independence({"type": ["A", 2]},
                                         (1, 2, 1), (2, 1, 2))
        assert report.passed and "4 distinct" in report.details
        if slow_enabled:
            report = check_word_independence(
                {"type": ["A", 3]},
                (1, 2, 1, 3, 2, 1), (2, 1, 2, 3, 2, 1), bound=64)
            assert report.passed, report.details
            suffix = " (incl. slow A3)"
        ok = True
    finally:
        _line(10, "word independence" + suffix, ok)


def test_criterion_11_convexity():
    ok = False
    try:
        for family, rank in (("A", 1), ("A", 2), ("A", 3), ("B", 2),
                             ("C", 2), ("B", 3), ("C", 3), ("G", 2)):
            datum = cartan_datum(family, rank)
            order = order_from_word(datum, longest_word(datum))
            assert check_convexity(order, positive_roots(datum)) is None, \
                (family, rank)
        ok = True
    finally:
        _line(11, "convexity", ok)


def test_criterion_12_classical_limit():
    ok = False
    try:
        datum, quiver = resolve_input({"type": ["A", 2]})
        seed, _ = build_seed(datum, (1, 2, 1), quiver)
        graph = enumerate_exchange_graph(seed)
        assert graph.complete and len(graph.seeds) == 2

        m = len(seed.pair.labels)
        classical_b = [list(row) for row in seed.pair.b]
        classical_vars = [cl_generator(m, i) for i in range(m)]
        ex_cols = [seed.pair.labels.index(s) for s in seed.pair.exchangeable]

        quantum = graph.seeds[1]
        nb, nvars = classical_mutate(classical_b, ex_cols, classical_vars, 0)
        for idx, label in enumerate(seed.pair.labels):
            assert specialize_classical(quantum.variables[label]) \
                == nvars[idx], label
        # Classical involutivity mirrors the quantum double mutation.
        nb2, nvars2 = classical_mutate(nb, ex_cols, nvars, 0)
        assert nvars2 == classical_vars
        assert nb2 == [list(row) for row in seed.pair.b]
        ok = True
    finally:
        _line(12, "classical limit", ok)
