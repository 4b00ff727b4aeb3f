"""Tests for compatible pairs, the quantum torus, seeds and mutation."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from pair_generators import random_compatible_pair
from qfold.laurent import ONE, parse_scalar
from qfold.qcluster import (
    CompatiblePair,
    CompatibilityError,
    ParityError,
    QuantumTorus,
    TorusDivisionError,
    check_compatible,
    enumerate_exchange_graph,
    initial_seed,
    left_divide,
    mutate_pair,
    mutate_seed,
    normalized_monomial,
    seed_canonical_key,
    seed_to_json,
    specialize_classical,
    torus_qcommute,
)
from qfold.rootdata import cartan_datum

A2 = cartan_datum("A", 2)
C2 = cartan_datum("C", 2)


def a2_pair():
    # Lambda from the oracle's pairwise q-commutation of the initial minors
    # of the word (1,2,1); B is the staircase quiver's signed adjacency.
    return CompatiblePair(
        (1, 2, 3), (1,),
        ((0, 1, -1), (-1, 0, 0), (1, 0, 0)),
        ((0,), (-1,), (1,)))


def a2_seed():
    degrees = {1: A2.root((1, 0)), 2: A2.root((1, 1)), 3: A2.root((1, 1))}
    return initial_seed(a2_pair(), degrees)


def c2_pair():
    # Oracle lambda for the C2 word (1,2,1,2); B from folding the A3 quiver.
    return CompatiblePair(
        (1, 2, 3, 4), (1, 2),
        ((0, 2, 0, 0), (-2, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)),
        ((0, 1), (-2, 0), (1, -1), (0, 1)))


def c2_seed():
    degrees = {1: C2.root((1, 0)), 2: C2.root((1, 1)),
               3: C2.root((2, 2)), 4: C2.root((1, 2))}
    return initial_seed(c2_pair(), degrees)


def test_check_compatible():
    empty = CompatiblePair((), (), (), ())
    assert check_compatible(empty) == {}
    assert check_compatible(a2_pair()) == {1: 1}
    assert check_compatible(c2_pair()) == {1: 2, 2: 1}
    bad = CompatiblePair((1, 2), (1,), ((0, 0), (0, 0)), ((0,), (-1,)))
    with pytest.raises(CompatibilityError) as err:
        check_compatible(bad)
    assert err.value.entry == (1, 1)


def test_mutate_pair_rank2_involutive():
    pair = CompatiblePair((1, 2), (1, 2),
                          ((0, 1), (-1, 0)),
                          ((0, 2), (-2, 0)))
    e = check_compatible(pair)
    once = mutate_pair(pair, 1)
    assert check_compatible(once) == e
    assert mutate_pair(once, 1) == pair


def test_mutate_pair_zero_column_keeps_lambda():
    pair = CompatiblePair((1, 2), (1,),
                          ((0, -2), (2, 0)),
                          ((0,), (1,)))
    # Mutating where the column has no positive entries above only flips B.
    mutated = mutate_pair(pair, 1)
    assert mutated.b == ((0,), (-1,))
    assert check_compatible(mutated) == check_compatible(pair)


def test_mutate_pair_random_property():
    rng = random.Random(2024)
    for _ in range(300):
        pair = random_compatible_pair(rng)
        e = check_compatible(pair)
        for k in pair.exchangeable:
            mutated = mutate_pair(pair, k)
            assert check_compatible(mutated) == e
            assert mutate_pair(mutated, k) == pair


def test_mutate_pair_frozen_direction_rejected():
    with pytest.raises(KeyError):
        mutate_pair(a2_pair(), 2)


def test_torus_arithmetic():
    torus = QuantumTorus((1, 2), ((0, 3), (-3, 0)))
    x1, x2 = torus.generator(1), torus.generator(2)
    assert x1 * x2 == torus.element({(1, 1): ONE})
    # X2 X1 = q^{lambda_21} X1 X2.
    assert x2 * x1 == torus.element({(1, 1): parse_scalar("q^-3")})
    assert torus_qcommute(x1, x2) == 3
    inverse = x1.left_divide(torus.unit())
    assert inverse == torus.element({(-1, 0): ONE})
    assert x1 * inverse == torus.unit()
    assert (x1 + x2) * (x1 + x2) == x1 * x1 + x1 * x2 + x2 * x1 + x2 * x2


def test_torus_exponents_must_be_integers():
    torus = QuantumTorus((1, 2), ((0, 3), (-3, 0)))
    for bad, error in (((1.0, 0), TypeError), ((0.5, 1), TypeError),
                       ((Fraction(1, 2), 0), ValueError)):
        with pytest.raises(error):
            torus.element({bad: ONE})
    x = torus.element({(Fraction(2), 1): ONE})
    assert x == torus.element({(2, 1): ONE})
    assert all(type(e) is int for key in x.terms for e in key)


def test_torus_bar_plain():
    # Without a grading the bar is the plain reversing antiautomorphism.
    torus = QuantumTorus((1, 2), ((0, 1), (-1, 0)))
    x1, x2 = torus.generator(1), torus.generator(2)
    prod = x1 * x2
    assert prod.bar() == torus.element({(1, 1): parse_scalar("q^-1")})
    assert prod.bar().bar() == prod
    scaled = x1.scale(parse_scalar("q^2"))
    assert scaled.bar() == x1.scale(parse_scalar("q^-2"))


def test_torus_bar_with_degree_twist():
    # bar(AB) = q^{(deg A, deg B)} bar(B) bar(A): X1 X2 here picks up
    # q^{(d1,d2)} q^{lambda_21} = q^{2} q^{-1} = q.
    torus = QuantumTorus((1, 2), ((0, 1), (-1, 0)), ((2, 2), (2, 2)))
    prod = torus.generator(1) * torus.generator(2)
    assert prod.bar() == torus.element({(1, 1): parse_scalar("q")})
    assert prod.bar().bar() == prod


def test_left_divide():
    torus = QuantumTorus((1, 2), ((0, 1), (-1, 0)))
    x1, x2 = torus.generator(1), torus.generator(2)
    rng = random.Random(31)
    for _ in range(25):
        a = torus.element({(rng.randint(-2, 2), rng.randint(-2, 2)):
                           parse_scalar("q^%d" % rng.randint(-2, 2))
                           for _ in range(rng.randint(1, 3))})
        z = torus.element({(rng.randint(-2, 2), rng.randint(-2, 2)): ONE
                           for _ in range(rng.randint(1, 3))})
        if a.is_zero() or z.is_zero():
            continue
        assert left_divide(a, a * z) == z
    with pytest.raises(TorusDivisionError):
        left_divide(torus.unit() + x1, torus.generator(2))


def _three_generator_torus():
    torus = QuantumTorus((1, 2, 3), ((0, 1, 0), (-1, 0, 1), (0, -1, 0)))
    return torus, [torus.generator(i) for i in (1, 2, 3)]


def test_left_divide_rejects_by_exponent_box():
    # Lex long division never ends here.  An exact quotient would have x2
    # exponents at most max(dividend) - max(divisor) = 0 - 1, so the first
    # candidate term, 1, is already outside the box.
    torus, (x1, x2, x3) = _three_generator_torus()
    with pytest.raises(TorusDivisionError, match="exponent box"):
        left_divide(x1 + x2, x3 * x3 + x1)
    assert left_divide(x1 + x2, torus.element({})).is_zero()


def test_left_divide_long_exact_quotient(slow_enabled):
    # (1 - x1^n) / (1 - x1) = 1 + x1 + ... + x1^(n-1): more quotient terms
    # than any fixed step cap would allow.
    if not slow_enabled:
        pytest.skip("needs --slow")
    torus, (x1, _, _) = _three_generator_torus()
    one = torus.unit()
    n = 20001
    quotient = left_divide(one - x1, one - torus.element({(n, 0, 0): ONE}))
    assert quotient == torus.element({(k, 0, 0): ONE for k in range(n)})


def test_normalized_monomial_units():
    seed = a2_seed()
    for s in (1, 2, 3):
        unit = {t: 1 if t == s else 0 for t in (1, 2, 3)}
        assert normalized_monomial(unit, seed) == seed.variables[s]
    zero = {t: 0 for t in (1, 2, 3)}
    assert normalized_monomial(zero, seed) == seed.unit


def test_normalized_monomial_rejects_non_integer_exponents():
    seed = a2_seed()
    with pytest.raises(TypeError):
        normalized_monomial({1: 1.0, 2: 0, 3: 0}, seed)
    with pytest.raises(ValueError):
        normalized_monomial({1: Fraction(1, 2), 2: 0, 3: 0}, seed)
    assert normalized_monomial((0, 1, 0), seed) == seed.variables[2]


def test_normalized_monomial_bar_invariant():
    seed = a2_seed()
    for a in ({1: 1, 2: 1, 3: 0}, {1: 0, 2: 1, 3: 1}, {1: 2, 2: 0, 3: 1}):
        y = normalized_monomial(a, seed)
        assert y.bar() == y
    c2 = c2_seed()
    for a in ({1: 1, 2: 2, 3: 0, 4: 0}, {1: 1, 2: 1, 3: 1, 4: 1}):
        y = normalized_monomial(a, c2)
        assert y.bar() == y


def test_normalized_monomial_order_independence():
    seed = a2_seed()
    # Same data with the label order permuted; Y^a must agree after moving
    # exponent vectors through the permutation.
    perm = (3, 1, 2)
    lam = tuple(tuple(seed.pair.lam[seed.pair.pos(r)][seed.pair.pos(c)]
                      for c in perm) for r in perm)
    b = tuple((seed.pair.b[seed.pair.pos(r)][0],) for r in perm)
    pair2 = CompatiblePair(perm, (1,), lam, b)
    seed2 = initial_seed(pair2, {s: seed.degrees[s] for s in perm})
    for a in ({1: 1, 2: 1, 3: 1}, {1: 2, 2: 1, 3: 0}, {1: 0, 2: 2, 3: 1}):
        y1 = normalized_monomial(a, seed)
        y2 = normalized_monomial(a, seed2)
        # Rebuild each ordered monomial of the permuted torus inside the
        # original torus (ordered bases differ by reordering q-powers).
        remapped = seed.unit.torus.element({})
        for exp, c in y2.terms.items():
            elem = seed.unit.scale(c)
            for idx, label in enumerate(perm):
                for _ in range(exp[idx]):
                    elem = elem * seed.variables[label]
            remapped = remapped + elem
        assert remapped == y1


def test_parity_violation_detected():
    degrees = {1: A2.root((1, 0)), 2: A2.root((1, 0)), 3: A2.root((1, 1))}
    with pytest.raises(ParityError):
        initial_seed(a2_pair(), degrees)


def test_mutate_seed_a2():
    seed = a2_seed()
    mutated = mutate_seed(seed, 1)
    x = seed.unit.torus
    expected = x.element({(-1, 0, 1): ONE,
                          (-1, 1, 0): parse_scalar("q")})
    assert mutated.variables[1] == expected
    assert mutated.degrees[1] == A2.root((0, 1))
    # Exchange relation inside the torus.
    lhs = seed.variables[1] * mutated.variables[1]
    rhs = seed.variables[3] + seed.variables[2].scale(parse_scalar("q"))
    assert lhs == rhs
    # Mutating back restores the initial variable and pair.
    back = mutate_seed(mutated, 1)
    assert back.variables == seed.variables
    assert back.pair == seed.pair
    assert back.degrees == seed.degrees


def test_mutated_lambda_matches_variable_commutation():
    for seed in (a2_seed(), c2_seed()):
        for k in seed.pair.exchangeable:
            mutated = mutate_seed(seed, k)
            assert mutated.lambda_from_variables() == mutated.pair.lam


def test_mutate_seed_frozen_rejected():
    with pytest.raises(KeyError):
        mutate_seed(a2_seed(), 3)


def test_enumerate_no_exchangeables():
    pair = CompatiblePair((1, 2), (), ((0, 5), (-5, 0)),
                          ((), ()))
    seed = initial_seed(pair, {1: A2.root((1, 0)), 2: A2.root((1, 1))})
    graph = enumerate_exchange_graph(seed)
    assert len(graph.seeds) == 1
    assert graph.complete


def test_enumerate_a2():
    graph = enumerate_exchange_graph(a2_seed())
    assert graph.complete
    assert len(graph.seeds) == 2
    assert len(graph.cluster_variables()) == 4


def test_enumerate_c2():
    graph = enumerate_exchange_graph(c2_seed())
    assert graph.complete
    # Regression constants from the exhaustive run: finite type, 6 seeds.
    assert len(graph.seeds) == 6
    assert len(graph.cluster_variables()) == 8


def test_enumerate_respects_bound():
    graph = enumerate_exchange_graph(c2_seed(), bound=2)
    assert not graph.complete
    assert len(graph.seeds) == 2


def test_seed_canonical_key_order_insensitive():
    seed = a2_seed()
    graph = enumerate_exchange_graph(seed)
    keys = {seed_canonical_key(s) for s in graph.seeds}
    assert len(keys) == len(graph.seeds)
    assert seed_canonical_key(mutate_seed(mutate_seed(seed, 1), 1)) \
        == seed_canonical_key(seed)


def test_specialize_classical():
    torus = QuantumTorus((1, 2), ((0, 1), (-1, 0)))
    x = torus.element({(1, 0): parse_scalar("q^5")})
    assert specialize_classical(x) == {(1, 0): 1}
    seed = a2_seed()
    mutated = mutate_seed(seed, 1)
    lhs = specialize_classical(seed.variables[1] * mutated.variables[1])
    assert lhs == {(0, 0, 1): 1, (0, 1, 0): 1}


def test_c2_graph_classical_limit_matches_commutative_oracle():
    # Replay every quantum mutation classically (independent commutative
    # code) and compare the q = 1 limits of all variables, seed by seed.
    from classical_mutation import cl_generator, classical_mutate

    seed = c2_seed()
    labels = seed.pair.labels
    m = len(labels)
    ex_cols = [labels.index(s) for s in seed.pair.exchangeable]
    start_classical = (tuple(tuple(r) for r in seed.pair.b),
                       [cl_generator(m, i) for i in range(m)])
    frontier = [(seed, start_classical)]
    seen = {seed_canonical_key(seed)}
    while frontier:
        nxt = []
        for qseed, (cb, cvars) in frontier:
            for idx, k in enumerate(qseed.pair.exchangeable):
                mutated = mutate_seed(qseed, k)
                nb, nvars = classical_mutate([list(r) for r in cb],
                                             ex_cols, cvars, idx)
                for pos, label in enumerate(labels):
                    assert specialize_classical(mutated.variables[label]) \
                        == nvars[pos], (label,)
                assert tuple(tuple(r) for r in mutated.pair.b) \
                    == tuple(tuple(r) for r in nb)
                key = seed_canonical_key(mutated)
                if key not in seen:
                    seen.add(key)
                    nxt.append((mutated, (nb, nvars)))
        frontier = nxt
    assert len(seen) == 6


def test_seed_json_deterministic():
    a = seed_to_json(mutate_seed(a2_seed(), 1))
    b = seed_to_json(mutate_seed(a2_seed(), 1))
    assert a == b
    assert a["lambda"][0][1] == -1
