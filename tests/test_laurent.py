"""Tests for exact Laurent scalar arithmetic."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from scalar_parser import parse_scalar
from qfold.laurent import (
    ONE,
    ZERO,
    LaurentDivisionError,
    LaurentScalar,
    bar,
    exact_int,
    q_binomial,
    q_factorial,
    q_int,
    qpower_ratio,
)


def _random_scalar(rng, max_terms=4, max_exp=5):
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        terms.append((rng.randint(-max_exp, max_exp), rng.randint(-6, 6)))
    return LaurentScalar(terms)


def _q_int_by_division(n, d):
    # Independent oracle: literally expand (q_i^n - q_i^-n)/(q_i - q_i^-1).
    num = LaurentScalar([(d * n, 1), (-d * n, -1)])
    den = LaurentScalar([(d, 1), (-d, -1)])
    return num.divexact(den)


def test_q_int_basic():
    assert q_int(2, 1) == parse_scalar("q + q^-1")
    assert q_int(0, 3) == ZERO
    assert q_int(1, 5) == ONE
    assert q_int(-3, 1) == -q_int(3, 1)


def test_q_int_matches_division_oracle():
    assert q_int(3, 2) == parse_scalar("q^4 + 1 + q^-4")
    for n in range(1, 9):
        for d in (1, 2, 3):
            assert q_int(n, d) == _q_int_by_division(n, d)


def test_q_factorial():
    assert q_factorial(0, 1) == ONE
    assert q_factorial(2, 1) == q_int(2, 1)
    assert q_factorial(3, 1) == q_int(2, 1) * parse_scalar("q^2 + 1 + q^-2")


def test_bar_involution():
    x = parse_scalar("q^2 + 3")
    assert bar(x) == parse_scalar("q^-2 + 3")
    assert bar(ZERO) == ZERO
    for n in range(11):
        assert bar(q_int(n, 2)) == q_int(n, 2)


def test_bar_is_multiplicative_and_involutive():
    rng = random.Random(7)
    for _ in range(200):
        x = _random_scalar(rng)
        y = _random_scalar(rng)
        assert bar(bar(x)) == x
        assert bar(x * y) == bar(x) * bar(y)


def test_ring_axioms_random():
    rng = random.Random(23)
    for _ in range(200):
        x = _random_scalar(rng)
        y = _random_scalar(rng)
        z = _random_scalar(rng)
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x * y == y * x
        assert x + ZERO == x
        assert x * ONE == x


def test_specialization_at_one():
    for n in range(-6, 7):
        for d in (1, 2, 3):
            assert q_int(n, d).at_one() == n


def test_gaussian_binomial_positive_integral():
    for a in range(9):
        for b in range(9):
            g = q_binomial(a + b, a, 1)
            assert all(type(c) is int and c > 0 for _, c in g.terms)


def test_divexact_errors():
    with pytest.raises(LaurentDivisionError):
        parse_scalar("q + 1").divexact(parse_scalar("q + 2"))
    with pytest.raises(LaurentDivisionError):
        ONE.divexact(ZERO)
    with pytest.raises(LaurentDivisionError):
        ONE.divexact(0)


@pytest.mark.parametrize("divisor", [Fraction(1, 2), Fraction(2), 2.0, "q"],
                         ids=["fraction", "integral-fraction", "float", "str"])
def test_divexact_rejects_a_divisor_outside_the_ring(divisor):
    # A divisor that is not in Z[q, q^-1] is a type error, not a division
    # by zero.
    with pytest.raises(TypeError):
        ONE.divexact(divisor)


def test_divexact_roundtrip_random():
    rng = random.Random(99)
    for _ in range(200):
        x = _random_scalar(rng)
        y = _random_scalar(rng)
        if y.is_zero():
            continue
        assert (x * y).divexact(y) == x


def test_render_parse_roundtrip():
    rng = random.Random(5)
    samples = [ZERO, ONE, -ONE, LaurentScalar.q_power(-3, -7)]
    samples += [_random_scalar(rng) for _ in range(100)]
    for x in samples:
        assert parse_scalar(str(x)) == x


def test_rendering_is_descending_and_canonical():
    x = LaurentScalar([(2, 1), (-2, 1), (0, 3)])
    assert str(x) == "q^2 + 3 + q^-2"
    assert str(LaurentScalar([(1, -1), (0, 2)])) == "-q + 2"
    assert str(LaurentScalar([(-1, -3)])) == "-3*q^-1"


def test_parser_rejects_rational_coefficients():
    for text in ("1/2*q", "q + 1/2", "-2/3*q^-1"):
        with pytest.raises(ValueError):
            parse_scalar(text)


_coeffs = st.integers(1, 5) | st.integers(-5, -1)
_scalars = st.dictionaries(st.integers(-4, 4), _coeffs, min_size=1,
                           max_size=3).map(LaurentScalar)
_term_dicts = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                              _scalars, min_size=2, max_size=4)


@given(_term_dicts, st.integers(-6, 6), st.data())
def test_qpower_ratio_recovers_the_shift(den, m, data):
    # Two or more terms: with one, a changed coefficient can still be a
    # unit q-power multiple of the old one.
    num = {k: c * LaurentScalar.q_power(m) for k, c in den.items()}
    assert qpower_ratio(num, den) == m
    assert qpower_ratio(den, num) == -m
    key = data.draw(st.sampled_from(sorted(num)))
    changed = dict(num)
    changed[key] = num[key] + data.draw(_scalars)
    if not changed[key]:
        del changed[key]
    assert qpower_ratio(changed, den) is None


def test_qpower_ratio_zero_and_non_units():
    x = {(0,): LaurentScalar.q_power(1), (1,): ONE}
    assert qpower_ratio({}, {}) == 0
    assert qpower_ratio({}, x) is None
    assert qpower_ratio(x, {}) is None
    assert qpower_ratio({k: c * 2 for k, c in x.items()}, x) is None
    assert qpower_ratio({k: c * (ONE + LaurentScalar.q_power(1))
                         for k, c in x.items()}, x) is None
    assert qpower_ratio({(0,): ONE}, {(1,): ONE}) is None


# -- the canonical coefficient form: int, never Fraction ---------------------

_int_scalars = st.dictionaries(st.integers(-4, 4), st.integers(-6, 6),
                               max_size=4).map(LaurentScalar)


def _assert_int_terms(x):
    for k, c in x.terms:
        assert type(k) is int
        assert type(c) is int and c


@given(_int_scalars, _int_scalars)
def test_operations_keep_the_canonical_form(x, y):
    for value in (x, y, x + y, x - y, -x, x * y, x * 2, x + 3, bar(x),
                  parse_scalar(str(x))):
        _assert_int_terms(value)
    assert type(x.at_one()) is int
    if y:
        _assert_int_terms((x * y).divexact(y))
        for k, c in (x * y).divexact(y).terms:
            assert dict(x.terms)[k] == c


def test_repeated_exponents_sum_to_int_coefficients():
    pairs = [
        (LaurentScalar([(2, 3), (0, -1)]),
         LaurentScalar([(2, 1), (0, -1), (2, 2)])),
        (LaurentScalar([(1, 1), (1, 2)]), LaurentScalar({1: 3})),
        (LaurentScalar([(0, 5), (3, 1), (0, -4), (3, -1)]), ONE),
    ]
    for a, b in pairs:
        assert a == b
        assert hash(a) == hash(b)
        assert str(a) == str(b)
        assert a.terms == b.terms
        _assert_int_terms(a)
        _assert_int_terms(b)
    assert ONE.terms == ((0, 1),) and type(ONE.terms[0][1]) is int


def test_fraction_coefficients_are_rejected():
    # Integral or not, a Fraction is not an int: the constructor raises, and
    # arithmetic with a Fraction operand is unsupported.
    for c in (Fraction(1, 2), Fraction(6, 2), Fraction(0)):
        with pytest.raises(TypeError):
            LaurentScalar([(0, c)])
        with pytest.raises(TypeError):
            LaurentScalar.q_power(1, c)
        with pytest.raises(TypeError):
            ONE + c
        with pytest.raises(TypeError):
            c * ONE
    assert ONE != Fraction(1)


@given(_int_scalars)
def test_render_parse_roundtrip_property(x):
    assert parse_scalar(str(x)) == x


def test_divexact_with_non_integral_quotient():
    # Over Q these quotients exist ((q + 1)/2, (2/3)q - 2/3 and q/2); in
    # Z[q, q^-1] they do not.
    for num, den in (("q + 1", "2"), ("2*q^2 - 2", "3*q + 3"),
                     ("q^3 + q^2", "2*q^2 + 2*q")):
        with pytest.raises(LaurentDivisionError):
            parse_scalar(num).divexact(parse_scalar(den))
    whole = parse_scalar("2*q + 2").divexact(2)
    assert whole.terms == ((1, 1), (0, 1))
    assert all(type(c) is int for _, c in whole.terms)
    assert parse_scalar("6*q^2 - 6").divexact(parse_scalar("3*q + 3")) \
        == parse_scalar("2*q - 2")


def test_non_integral_exponents_and_float_coefficients_raise():
    with pytest.raises(TypeError):
        LaurentScalar([(1.5, 1)])
    with pytest.raises(TypeError):
        LaurentScalar([(1.0, 1)])
    for exponent in (Fraction(3, 2), Fraction(4, 2)):
        with pytest.raises(TypeError):
            LaurentScalar([(exponent, 1)])
    with pytest.raises(TypeError):
        LaurentScalar([(0, 0.1)])
    with pytest.raises(TypeError):
        LaurentScalar({0: 1.0})
    with pytest.raises(TypeError):
        ONE + 0.5
    for terms in ([(True, 1)], [(0, True)]):
        with pytest.raises(TypeError):
            LaurentScalar(terms)


def test_exact_int():
    assert exact_int(3) == 3 and type(exact_int(-0)) is int
    for bad in (2.0, Fraction(1, 2), Fraction(6, 2), "2", True):
        with pytest.raises(TypeError):
            exact_int(bad)
