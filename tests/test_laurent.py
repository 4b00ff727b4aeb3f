"""Tests for exact Laurent scalar arithmetic."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qfold.laurent import (
    ONE,
    ZERO,
    LaurentDivisionError,
    LaurentScalar,
    bar,
    parse_scalar,
    q_binomial,
    q_factorial,
    q_int,
    qpower_ratio,
)


def _random_scalar(rng, max_terms=4, max_exp=5):
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        terms.append((rng.randint(-max_exp, max_exp),
                      Fraction(rng.randint(-6, 6), rng.randint(1, 4))))
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
            assert g.is_integral()
            assert all(c > 0 for _, c in g.terms)


def test_divexact_errors():
    with pytest.raises(LaurentDivisionError):
        parse_scalar("q + 1").divexact(parse_scalar("q + 2"))
    with pytest.raises(LaurentDivisionError):
        ONE.divexact(ZERO)


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
    samples = [ZERO, ONE, -ONE, LaurentScalar.q_power(-3, Fraction(1, 2))]
    samples += [_random_scalar(rng) for _ in range(100)]
    for x in samples:
        assert parse_scalar(str(x)) == x


def test_rendering_is_descending_and_canonical():
    x = LaurentScalar([(2, 1), (-2, 1), (0, 3)])
    assert str(x) == "q^2 + 3 + q^-2"
    assert str(LaurentScalar([(1, -1), (0, Fraction(1, 2))])) == "-q + 1/2"


_coeffs = st.builds(Fraction, st.integers(1, 5) | st.integers(-5, -1),
                    st.integers(1, 3))
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
