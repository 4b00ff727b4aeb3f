"""Tests for the quantum-group oracle: Shapovalov pairing, minors, shuffles."""

from __future__ import annotations

import itertools
import random

import pytest

from scalar_parser import parse_scalar
from qfold import uqn
from qfold.laurent import ONE, ZERO, LaurentScalar, q_factorial
from qfold.rootdata import (
    CartanDatum,
    Weight,
    bilinear_form,
    cartan_datum,
    weyl_elements,
)
from qfold.uqn import (
    FWord,
    MinorSpec,
    OracleContext,
    ShuffleElement,
    bar_element,
    coproduct_components,
    extremal_vector,
    minor_to_shuffle,
    qcommute_exponent,
    shapovalov,
    shuffle_product,
    shuffle_to_json,
    skew_derivative_left,
    skew_derivative_right,
    tensor_of_elements,
    theta_star,
    unit_element,
    words_of_weight,
)
from qfold.verify import resolve_input
from weyl_reference import apply_word

A1 = cartan_datum("A", 1)
A2 = cartan_datum("A", 2)
A3 = cartan_datum("A", 3)
C2 = cartan_datum("C", 2)
A1xA1 = CartanDatum((1, 2), ((2, 0), (0, 2)), (1, 1))


def initial_minors(datum, word, context):
    out = []
    for t in range(1, len(word) + 1):
        lam = datum.fundamental_weight(word[t - 1])
        out.append(minor_to_shuffle(MinorSpec(lam, word[:t]), context))
    return out


def test_shapovalov_basic():
    ctx = OracleContext(A1)
    om = A1.fundamental_weight(1)
    fv = FWord(om, ((1, 1),))
    empty = FWord(om, ())
    assert shapovalov(fv, fv, ctx) == ONE
    assert shapovalov(empty, empty, ctx) == ONE
    assert shapovalov(empty, fv, ctx) == ZERO
    ctx2 = OracleContext(A2)
    v = extremal_vector(A2.fundamental_weight(2), (1, 2))
    assert shapovalov(v, v, ctx2) == ONE


def test_fword_rejects_non_integer_exponents():
    omega = A2.fundamental_weight(1)
    with pytest.raises(TypeError):
        FWord(omega, ((1, 1.5),))
    with pytest.raises(TypeError):
        FWord(omega, ((1, 1.0),))
    assert FWord(omega, ((1, 1),)).letters == ((1, 1),)


def test_shapovalov_mismatched_weights():
    with pytest.raises(ValueError):
        shapovalov(FWord(A2.fundamental_weight(1), ()),
                   FWord(A2.fundamental_weight(2), ()))


def test_shapovalov_symmetry_random():
    rng = random.Random(41)
    ctx = OracleContext(A2)
    lam = Weight(A2, (1, 1))
    for _ in range(40):
        letters = tuple((rng.choice((1, 2)), rng.randint(1, 2))
                        for _ in range(rng.randint(0, 3)))
        letters2 = tuple((rng.choice((1, 2)), rng.randint(1, 2))
                         for _ in range(rng.randint(0, 3)))
        x, y = FWord(lam, letters), FWord(lam, letters2)
        assert shapovalov(x, y, ctx) == shapovalov(y, x, ctx)


def test_extremal_vectors():
    assert extremal_vector(A2.fundamental_weight(2), ()).letters == ()
    assert extremal_vector(A2.fundamental_weight(2), (1, 2)).letters \
        == ((1, 1), (2, 1))
    assert extremal_vector(2 * A1.fundamental_weight(1), (1,)).letters \
        == ((1, 2),)


def test_extremal_norms_are_one():
    # (v_mu, v_mu) = 1 for every extremal vector; rank <= 3, small lambda.
    for datum, bound in ((A2, 2), (C2, 2), (cartan_datum("G", 2), 1)):
        ctx = OracleContext(datum)
        for word in weyl_elements(datum).values():
            for coords in itertools.product(range(bound + 1),
                                            repeat=datum.rank):
                lam = Weight(datum, coords)
                v = extremal_vector(lam, word)
                assert shapovalov(v, v, ctx) == ONE, (datum.cartan, word, coords)
    ctx3 = OracleContext(A3)
    for word in ((), (1,), (1, 2), (1, 2, 1, 3), (1, 2, 1, 3, 2, 1)):
        for i in A3.indices:
            v = extremal_vector(A3.fundamental_weight(i), word)
            assert shapovalov(v, v, ctx3) == ONE


def test_extremal_vector_word_independence():
    # v_mu does not depend on the reduced word: the Gram matrix of the two
    # candidate vectors is all ones, so their difference has norm zero.
    cases = ((A2, (1, 2, 1), (2, 1, 2), Weight(A2, (1, 1))),
             (C2, (1, 2, 1, 2), (2, 1, 2, 1), Weight(C2, (1, 1))))
    for datum, w1, w2, lam in cases:
        ctx = OracleContext(datum)
        v1 = extremal_vector(lam, w1)
        v2 = extremal_vector(lam, w2)
        assert shapovalov(v1, v1, ctx) == ONE
        assert shapovalov(v2, v2, ctx) == ONE
        assert shapovalov(v1, v2, ctx) == ONE


def test_minor_rank_one():
    ctx = OracleContext(A1)
    om = A1.fundamental_weight(1)
    d = minor_to_shuffle(MinorSpec(om, (1,)), ctx)
    assert d.terms == {(1,): ONE}
    assert minor_to_shuffle(MinorSpec(om, (), ()), ctx) == unit_element(A1)


def test_minor_a2():
    ctx = OracleContext(A2)
    d = minor_to_shuffle(MinorSpec(A2.fundamental_weight(2), (1, 2)), ctx)
    assert d.coefficient((2, 1)) == ONE
    assert d.coefficient((1, 2)) == ZERO
    assert d.terms == {(2, 1): ONE}


def test_zero_minor_has_warning_note():
    ctx = OracleContext(A2)
    spec = MinorSpec(A2.fundamental_weight(1), (), (1,))
    z = minor_to_shuffle(spec, ctx)
    assert z.is_zero()
    assert "zero minor" in z.note


def test_minor_context_of_another_datum_is_refused():
    # An A2 context that has realized A2 minors refuses all 128 C2 specs
    # over words up to length 4, rather than reading its A2 memo or
    # running A2's E-action on C2 weights.
    ctx = OracleContext(A2)
    minor_to_shuffle(MinorSpec(A2.fundamental_weight(2), (1, 2)), ctx)
    words = list(weyl_elements(C2).values())
    specs = [MinorSpec(C2.fundamental_weight(i), u, v)
             for i in C2.indices for u in words for v in words]
    assert len(specs) == 128
    for spec in specs:
        with pytest.raises(ValueError,
                           match="context belongs to a different Cartan "
                                 "datum"):
            minor_to_shuffle(spec, ctx)


def test_minor_context_realizes_each_spec_once():
    # A context of an equal datum built on its own serves A2's specs, and
    # it realizes each spec once: asking again returns the same element.
    datum = cartan_datum("A", 2)
    assert datum is not A2
    ctx = OracleContext(datum)
    spec = MinorSpec(A2.fundamental_weight(1), (1, 2, 1))
    d = minor_to_shuffle(spec, ctx)
    assert not d.is_zero() and d == minor_to_shuffle(spec)
    assert minor_to_shuffle(MinorSpec(A2.fundamental_weight(1), [1, 2, 1]),
                            ctx) is d


def _reduced_words(datum, length):
    """Every reduced word of length at most length, shortest first."""
    words, frontier = [()], [()]
    for _ in range(length):
        frontier = [w + (i,) for w in frontier for i in datum.indices
                    if apply_word(w, datum.simple_root(i)).is_positive()]
        words += frontier
    return words


C2_FOLDED = resolve_input({"quiver": {
    "vertices": [1, 2, 3], "edges": [[1, 2], [3, 2]],
    "automorphism": {"1": 3, "2": 2, "3": 1}}})[0]


@pytest.mark.parametrize("datum, length", [
    (A2, 3), (C2, 4), (C2_FOLDED, 4), (cartan_datum("G", 2), 6), (A3, 4)],
    ids=["A2", "C2", "C2-folded", "G2", "A3"])
def test_reduced_words_of_one_minor_realize_one_element(datum, length):
    # Differential for the minor memo's key (lambda, mu, eta): every pair of
    # reduced words (up to length) with the same mu and eta realizes the
    # same element, each realized on its own, and a context hands the
    # element of one spec to every other spec of its (lambda, mu, eta).
    words = _reduced_words(datum, length)
    groups = {}
    for i in datum.indices:
        lam = datum.fundamental_weight(i)
        for u, v in itertools.product(words, repeat=2):
            spec = MinorSpec(lam, u, v)
            key = (lam, apply_word(u, lam), apply_word(v, lam))
            groups.setdefault(key, []).append(spec)
    ctx, memo = OracleContext(datum), OracleContext(datum)
    nonzero = 0
    for specs in groups.values():
        assert len(specs) > 1
        first = uqn._realize_minor(specs[0], ctx)
        nonzero += not first.is_zero()
        for spec in specs[1:]:
            assert uqn._realize_minor(spec, ctx) == first, (specs[0], spec)
        realized = minor_to_shuffle(specs[0], memo)
        assert realized == first
        assert all(minor_to_shuffle(spec, memo) is realized for spec in specs)
    assert nonzero >= len(datum.indices) * 2


def test_shuffle_unit_and_orthogonal_letters():
    x = theta_star(A1xA1, 1)
    y = theta_star(A1xA1, 2)
    assert shuffle_product(unit_element(A1xA1), x) == x
    assert shuffle_product(x, unit_element(A1xA1)) == x
    prod = shuffle_product(x, y)
    assert prod.terms == {(1, 2): ONE, (2, 1): ONE}
    assert qcommute_exponent(x, y) == 0


def test_shuffle_a2_adjacent_letters():
    prod = shuffle_product(theta_star(A2, 1), theta_star(A2, 2))
    assert prod.terms == {(1, 2): ONE, (2, 1): parse_scalar("q")}


def _product_by_free_coproduct(x, y):
    """Independent oracle: multiply functionals through the twisted
    coproduct of the free algebra, expanded letter by letter."""
    datum = x.datum
    out = {}
    words = words_of_weight(datum, x.weight + y.weight)
    for w in words:
        # r(theta_w): split states (left, right) with twist
        # (x1 (x) x2)(theta_i (x) 1) = q^{-(|x2|, alpha_i)} x1 theta_i (x) x2.
        states = {((), ()): ONE}
        for letter in w:
            nxt = {}
            for (left, right), coeff in states.items():
                pairing = -sum(datum.d(a) * datum.a(a, letter) for a in right)
                c1 = coeff * LaurentScalar.q_power(pairing)
                key1 = (left + (letter,), right)
                nxt[key1] = nxt.get(key1, ZERO) + c1
                key2 = (left, right + (letter,))
                nxt[key2] = nxt.get(key2, ZERO) + coeff
            states = nxt
        total = ZERO
        for (left, right), coeff in states.items():
            fx = x.terms.get(left)
            gy = y.terms.get(right)
            if fx and gy:
                total = total + coeff * fx * gy
        if total:
            out[w] = total
    return ShuffleElement(datum, x.weight + y.weight, out)


def test_shuffle_product_matches_free_coproduct_oracle():
    ctx = OracleContext(A2)
    d21 = minor_to_shuffle(MinorSpec(A2.fundamental_weight(2), (1, 2)), ctx)
    d121 = minor_to_shuffle(MinorSpec(A2.fundamental_weight(1), (1, 2, 1)),
                            ctx)
    c2ctx = OracleContext(C2)
    c2m = minor_to_shuffle(MinorSpec(C2.fundamental_weight(1), (2, 1)), c2ctx)
    pairs = [(theta_star(A2, 1), theta_star(A2, 2)),
             (theta_star(A2, 2), theta_star(A2, 1)),
             (d21, theta_star(A2, 1)), (d21, d121), (d121, d21),
             (c2m, theta_star(C2, 2)), (theta_star(C2, 2), c2m)]
    for x, y in pairs:
        assert shuffle_product(x, y) == _product_by_free_coproduct(x, y)


def test_shuffle_associative_on_oracle_elements():
    ctx = OracleContext(A2)
    xs = [theta_star(A2, 1), theta_star(A2, 2),
          minor_to_shuffle(MinorSpec(A2.fundamental_weight(2), (1, 2)), ctx),
          minor_to_shuffle(MinorSpec(A2.fundamental_weight(1), (1, 2, 1)), ctx)]
    rng = random.Random(8)
    for _ in range(12):
        a, b, c = (rng.choice(xs) for _ in range(3))
        assert shuffle_product(shuffle_product(a, b), c) \
            == shuffle_product(a, shuffle_product(b, c))


def test_coproduct_trivial_split():
    ctx = OracleContext(A2)
    d = minor_to_shuffle(MinorSpec(A2.fundamental_weight(2), (1, 2)), ctx)
    zero = A2.root((0, 0))
    split = coproduct_components(d, (d.weight, zero))
    assert split == tensor_of_elements([d, unit_element(A2)])


def test_coproduct_minor_split():
    # Splitting D(s1 s2 w2, w2) at (alpha2, alpha1) gives theta2* (x) theta1*.
    ctx = OracleContext(A2)
    d = minor_to_shuffle(MinorSpec(A2.fundamental_weight(2), (1, 2)), ctx)
    split = coproduct_components(d, (A2.simple_root(2), A2.simple_root(1)))
    assert split == tensor_of_elements([theta_star(A2, 2), theta_star(A2, 1)])


def test_coproduct_coassociative():
    ctx = OracleContext(A3)
    d = minor_to_shuffle(MinorSpec(A3.fundamental_weight(2), (1, 2, 1, 3, 2)),
                         ctx)
    a1, a2, a3 = (A3.simple_root(i) for i in (1, 2, 3))
    parts3 = (a2, a1 + a3, a2)
    direct = coproduct_components(d, parts3)
    first = coproduct_components(d, (a2, a1 + a3 + a2))
    nested = {}
    for (w1, w2), c in first.items():
        inner = coproduct_components(
            ShuffleElement(A3, a1 + a3 + a2, {w2: ONE}), (a1 + a3, a2))
        for (u1, u2), c2 in inner.items():
            key = (w1, u1, u2)
            nested[key] = nested.get(key, ZERO) + c * c2
    assert {k: v for k, v in nested.items() if v} == direct


def test_skew_derivative_right():
    ctx = OracleContext(A2)
    d = minor_to_shuffle(MinorSpec(A2.fundamental_weight(2), (1, 2)), ctx)
    assert skew_derivative_right(d, 1, 1) == theta_star(A2, 2)
    assert skew_derivative_right(d, 2, 1).is_zero()
    assert skew_derivative_left(d, 2, 1) == theta_star(A2, 1)


def test_skew_derivative_composition_rule():
    # r_{i^p} r_{i^s} = [p+s choose p] r_{i^{p+s}} on oracle elements.
    from qfold.laurent import q_binomial
    ctx = OracleContext(A1)
    d = minor_to_shuffle(MinorSpec(3 * A1.fundamental_weight(1), (1,)), ctx)
    lhs = skew_derivative_right(skew_derivative_right(d, 1, 1), 1, 2)
    rhs = skew_derivative_right(d, 1, 3).scale(q_binomial(3, 2, 1))
    assert lhs == rhs


def test_bar_fixes_minors():
    for datum, word in ((A2, (1, 2, 1)), (C2, (1, 2, 1, 2))):
        ctx = OracleContext(datum)
        for d in initial_minors(datum, word, ctx):
            assert bar_element(d) == d
    assert bar_element(theta_star(A2, 1)) == theta_star(A2, 1)


def test_bar_product_identity():
    # bar(ab) = q^{(wt a, wt b)} bar(b) bar(a) on pairs of computed minors.
    for datum, word in ((A2, (1, 2, 1)), (C2, (1, 2, 1, 2))):
        ctx = OracleContext(datum)
        minors = initial_minors(datum, word, ctx)
        for a, b in itertools.product(minors, repeat=2):
            e = bilinear_form(a.weight, b.weight)
            lhs = bar_element(shuffle_product(a, b))
            rhs = shuffle_product(bar_element(b), bar_element(a)) \
                .scale(LaurentScalar.q_power(e))
            assert lhs == rhs


def test_bar_negative_control():
    x = theta_star(A2, 1).scale(parse_scalar("q"))
    assert bar_element(x) != x


def test_qcommute_exponents_a2():
    ctx = OracleContext(A2)
    y1, y2, y3 = initial_minors(A2, (1, 2, 1), ctx)
    assert qcommute_exponent(y1, y1) == 0
    # Regression constants from the oracle run.
    assert qcommute_exponent(y1, y2) == 1
    assert qcommute_exponent(y1, y3) == -1
    assert qcommute_exponent(y2, y3) == 0


def test_qcommute_failure_is_none():
    assert qcommute_exponent(theta_star(A2, 1), theta_star(A2, 2)) is None


def test_minor_squares():
    # D(mu,zeta)^2 = q^{-(mu-zeta,mu-zeta)/2} D(2mu,2zeta); the exponent sign
    # is forced by the bar-product identity since all three elements are
    # bar-invariant (see the rank-one computation in the module docs).
    for datum, word in ((A1, (1,)), (A2, (1, 2, 1)), (C2, (1, 2, 1, 2))):
        ctx = OracleContext(datum)
        for t in range(1, len(word) + 1):
            i_t = word[t - 1]
            lam = datum.fundamental_weight(i_t)
            d = minor_to_shuffle(MinorSpec(lam, word[:t]), ctx)
            doubled = minor_to_shuffle(MinorSpec(2 * lam, word[:t]), ctx)
            n = -bilinear_form(d.weight, d.weight) // 2
            assert shuffle_product(d, d) \
                == doubled.scale(LaurentScalar.q_power(n))


def test_extremal_word_coefficients():
    # The lexicographically least word of a minor carries coefficient
    # [a1]_{i1}! [a2]_{i2}! ... over its runs.
    for datum, word in ((A2, (1, 2, 1)), (C2, (1, 2, 1, 2)),
                        (A3, (1, 2, 1, 3, 2, 1))):
        ctx = OracleContext(datum)
        for d in initial_minors(datum, word, ctx):
            least = d.support()[0]
            expected = ONE
            for letter, run in itertools.groupby(least):
                expected = expected * q_factorial(len(tuple(run)),
                                                  datum.d(letter))
            assert d.terms[least] == expected, (datum.cartan, least)


def test_words_of_weight_order():
    nu = A2.root((2, 1))
    words = words_of_weight(A2, nu)
    assert words == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]


def test_shuffle_json_shape():
    ctx = OracleContext(A2)
    d = minor_to_shuffle(MinorSpec(A2.fundamental_weight(2), (1, 2)), ctx)
    data = shuffle_to_json(d)
    assert data["weight"] == [1, 1]
    assert data["terms"] == [{"word": [2, 1], "coeff": "1"}]
