"""Extremal weights as integer roots: lambda - w lambda read off the word,
against the reference solve over Q, and the passes over a word it costs."""

from __future__ import annotations

import itertools

import pytest

import weyl_reference
from qfold import initquiver, rootdata, uqn
from qfold.folding import QuiverWithAut, fold
from qfold.initquiver import initial_pair
from qfold.rootdata import CartanDatum, cartan_datum, longest_word, weyl_elements
from qfold.uqn import MinorSpec, OracleContext, minor_to_shuffle
from weights_reference import dominance_leq, to_root
from weyl_reference import apply_word

# (family, rank, needs --slow) of the differential tests.
TYPES = [("A", 1, False), ("A", 2, False), ("A", 3, False), ("B", 2, False),
         ("C", 2, False), ("G", 2, False),
         ("A", 4, True), ("B", 3, True), ("C", 3, True), ("D", 4, True)]


def _dominant_weights(datum):
    for i in datum.indices:
        omega = datum.fundamental_weight(i)
        yield omega
        yield 2 * omega


@pytest.mark.parametrize("family, rank, slow", TYPES)
def test_minor_weight_is_the_solved_root(family, rank, slow, slow_enabled):
    # MinorSpec(lambda, u) is D(u lambda, lambda): its weight is
    # lambda - u lambda, which the reference solves for over Q.
    if slow and not slow_enabled:
        pytest.skip("needs --slow")
    datum = cartan_datum(family, rank)
    for u in weyl_elements(datum).values():
        for lam in _dominant_weights(datum):
            assert MinorSpec(lam, u).weight \
                == to_root(lam - apply_word(u, lam)), (lam, u)


@pytest.mark.parametrize("family, rank", [("A", 2), ("C", 2), ("G", 2),
                                          ("A", 3)])
def test_minor_weight_sign_is_dominance(family, rank):
    # D(u lambda, v lambda) vanishes by its weight's sign exactly when the
    # reference dominance order says u lambda is not <= v lambda.
    datum = cartan_datum(family, rank)
    words = list(weyl_elements(datum).values())
    for lam in _dominant_weights(datum):
        for u, v in itertools.product(words, repeat=2):
            nonnegative = min(MinorSpec(lam, u, v).weight.coords) >= 0
            assert nonnegative == dominance_leq(apply_word(u, lam),
                                                apply_word(v, lam)), (lam, u, v)


@pytest.mark.parametrize("family, rank, slow", TYPES)
def test_seed_degrees_are_the_solved_roots(family, rank, slow, slow_enabled):
    # The running sums of inversion roots give omega - w_{<=t} omega at
    # every prefix of a longest word.
    if slow and not slow_enabled:
        pytest.skip("needs --slow")
    datum = cartan_datum(family, rank)
    word = longest_word(datum)
    _, degrees = initial_pair(datum, word)
    for t, i in enumerate(word, 1):
        omega = datum.fundamental_weight(i)
        assert degrees[t] == to_root(omega - apply_word(word[:t], omega)), t


def _count_word_passes(monkeypatch):
    """Count calls of inversion_roots and is_reduced, wherever the package
    names them."""
    calls = dict.fromkeys(("inversion_roots", "is_reduced"), 0)
    for name in calls:
        def counted(*args, _name=name, _original=getattr(rootdata, name)):
            calls[_name] += 1
            return _original(*args)

        for module in (rootdata, initquiver, uqn):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    return calls


def test_initial_pair_makes_one_inversion_root_pass(monkeypatch):
    calls = _count_word_passes(monkeypatch)
    initial_pair(cartan_datum("A", 3), (1, 2, 1, 3, 2, 1))
    assert calls == {"inversion_roots": 1, "is_reduced": 0}


def test_realizing_a_built_spec_checks_no_word(monkeypatch):
    # MinorSpec checks its words once; realizing it reuses its F-words.
    datum = cartan_datum("A", 3)
    spec = MinorSpec(datum.fundamental_weight(2), (2, 1, 3, 2), (2,))
    calls = _count_word_passes(monkeypatch)
    assert not minor_to_shuffle(spec, OracleContext(datum)).is_zero()
    assert calls == {"inversion_roots": 0, "is_reduced": 0}


# The data of the extremal-exponent differential test, by name: finite
# types, and the C2 and G2 that fold from A3 and D4.
FOLDED = {
    "C2/A3": QuiverWithAut((1, 2, 3), ((1, 2), (3, 2)), {1: 3, 2: 2, 3: 1}),
    "G2/D4": QuiverWithAut((1, 2, 3, 4), ((1, 2), (3, 2), (4, 2)),
                           {1: 3, 3: 4, 4: 1, 2: 2}),
}
EXPONENT_DATA = dict(
    [("%s%d" % fr, cartan_datum(*fr)) for fr in
     [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 3), ("C", 2), ("C", 3),
      ("D", 4), ("G", 2)]]
    + [(name, fold(quiver).datum) for name, quiver in FOLDED.items()])


@pytest.mark.parametrize("name", sorted(EXPONENT_DATA))
def test_extremal_exponents_match_the_reflections(name):
    # Differential: c_k = (lambda, gamma_k) / d_{i_k} from the reversed
    # word's inversion roots, against the coroot pairings of the reflected
    # weight, for every BFS word and every omega_i and 2 omega_i.
    datum = EXPONENT_DATA[name]
    for word in weyl_elements(datum).values():
        for lam in _dominant_weights(datum):
            assert rootdata.extremal_exponents(lam, word) \
                == weyl_reference.extremal_exponents(lam, word), (lam, word)


def _outcome(function, *args):
    try:
        return function(*args)
    except ValueError as exc:
        return "ValueError: %s" % exc


def test_extremal_exponents_match_the_reflections_on_affine_a1():
    # Every word of length <= 6 over affine A1 (singular), reduced or not:
    # the same exponents, or the same ValueError for a non-reduced word.
    datum = CartanDatum((0, 1), ((2, -2), (-2, 2)), (1, 1))
    weights = list(_dominant_weights(datum)) \
        + [datum.fundamental_weight(0) + datum.fundamental_weight(1)]
    refused = 0
    for length in range(7):
        for word in itertools.product(datum.indices, repeat=length):
            for lam in weights:
                outcome = _outcome(rootdata.extremal_exponents, lam, word)
                assert outcome == _outcome(weyl_reference.extremal_exponents,
                                           lam, word), (lam, word)
                refused += isinstance(outcome, str)
    assert refused
