"""Extremal weights as integer roots: lambda - w lambda read off the word,
against the reference solve over Q, and the passes over a word it costs."""

from __future__ import annotations

import itertools

import pytest

from qfold import initquiver, rootdata, uqn
from qfold.initquiver import initial_pair
from qfold.rootdata import apply_word, cartan_datum, longest_word, weyl_elements
from qfold.uqn import MinorSpec, OracleContext, minor_to_shuffle
from weights_reference import dominance_leq, to_root

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
