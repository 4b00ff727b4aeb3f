"""Exact Laurent polynomials in q with rational coefficients.

This is the universal scalar for everything else in the package: quantum
integers [n]_i, quantum factorials, Gaussian binomials and the bar
involution q -> q^-1.  All arithmetic is exact; there is no floating point
anywhere.  Values are immutable and hashable, so they can be shared freely.
"""

from __future__ import annotations

import re
from fractions import Fraction


class LaurentDivisionError(ArithmeticError):
    """Raised when an exact Laurent division leaves a remainder."""


class LaurentScalar:
    """A Laurent polynomial sum_k c_k q^k with Fraction coefficients.

    Terms are stored as a tuple of (exponent, coefficient) pairs sorted by
    descending exponent, with no zero coefficients.  Equality is structural.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        acc = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for k, c in items:
                c = Fraction(c)
                if c:
                    acc[int(k)] = acc.get(int(k), Fraction(0)) + c
        self._terms = tuple(sorted(((k, c) for k, c in acc.items() if c),
                                   key=lambda t: -t[0]))

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "LaurentScalar":
        return LaurentScalar()

    @staticmethod
    def one() -> "LaurentScalar":
        return LaurentScalar([(0, 1)])

    @staticmethod
    def q_power(k: int, coeff=1) -> "LaurentScalar":
        return LaurentScalar([(k, coeff)])

    @staticmethod
    def from_rational(c) -> "LaurentScalar":
        return LaurentScalar([(0, Fraction(c))])

    # -- inspection ---------------------------------------------------

    @property
    def terms(self):
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def is_one(self) -> bool:
        return self._terms == ((0, Fraction(1)),)

    def is_integral(self) -> bool:
        """True when every coefficient is an integer."""
        return all(c.denominator == 1 for _, c in self._terms)

    def is_monomial(self) -> bool:
        return len(self._terms) == 1

    def max_exponent(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no degree")
        return self._terms[0][0]

    def min_exponent(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no valuation")
        return self._terms[-1][0]

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        acc = dict(self._terms)
        for k, c in other._terms:
            acc[k] = acc.get(k, Fraction(0)) + c
        return LaurentScalar(acc)

    __radd__ = __add__

    def __neg__(self):
        return LaurentScalar([(k, -c) for k, c in self._terms])

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        acc = {}
        for k1, c1 in self._terms:
            for k2, c2 in other._terms:
                k = k1 + k2
                acc[k] = acc.get(k, Fraction(0)) + c1 * c2
        return LaurentScalar(acc)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            if not self.is_monomial():
                raise LaurentDivisionError("negative power of a non-monomial")
            k, c = self._terms[0]
            return LaurentScalar([(-k, Fraction(1) / c)]) ** (-n)
        result = LaurentScalar.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(self._terms)

    def __bool__(self):
        return bool(self._terms)

    # -- involutions and evaluation -------------------------------------

    def bar(self) -> "LaurentScalar":
        """The bar involution q -> q^-1 (negate every exponent)."""
        return LaurentScalar([(-k, c) for k, c in self._terms])

    def at_one(self) -> Fraction:
        """Specialize q = 1 (the classical limit); sum of all coefficients."""
        return sum((c for _, c in self._terms), Fraction(0))

    # -- exact division -------------------------------------------------

    def divexact(self, divisor) -> "LaurentScalar":
        """Exact division by another Laurent polynomial.

        Raises LaurentDivisionError when the quotient is not itself a
        Laurent polynomial.  Shifts both operands so the divisor becomes an
        ordinary polynomial with nonzero constant term, then long-divides.
        """
        divisor = _coerce(divisor)
        if divisor is NotImplemented or divisor.is_zero():
            raise LaurentDivisionError("division by zero")
        if self.is_zero():
            return LaurentScalar.zero()
        va = self.min_exponent()
        vb = divisor.min_exponent()
        num = {k - va: c for k, c in self._terms}
        den = {k - vb: c for k, c in divisor._terms}
        den_deg = max(den)
        den_lead = den[den_deg]
        quot = {}
        while num:
            deg = max(num)
            if deg < den_deg:
                raise LaurentDivisionError(
                    "%s is not divisible by %s" % (self, divisor))
            shift = deg - den_deg
            factor = num[deg] / den_lead
            quot[shift] = factor
            for k, c in den.items():
                kk = k + shift
                v = num.get(kk, Fraction(0)) - factor * c
                if v:
                    num[kk] = v
                else:
                    num.pop(kk, None)
        return LaurentScalar([(k + va - vb, c) for k, c in quot.items()])

    # -- rendering ------------------------------------------------------

    def __str__(self):
        if not self._terms:
            return "0"
        pieces = []
        for idx, (k, c) in enumerate(self._terms):
            sign = "-" if c < 0 else "+"
            mag = -c if c < 0 else c
            if k == 0:
                body = str(mag)
            else:
                qpart = "q" if k == 1 else "q^%d" % k
                body = qpart if mag == 1 else "%s*%s" % (mag, qpart)
            if idx == 0:
                pieces.append(body if sign == "+" else "-" + body)
            else:
                pieces.append("%s %s" % (sign, body))
        return " ".join(pieces)

    def __repr__(self):
        return "LaurentScalar(%s)" % str(self)


def _coerce(x):
    if isinstance(x, LaurentScalar):
        return x
    if isinstance(x, (int, Fraction)):
        return LaurentScalar.from_rational(x)
    return NotImplemented


ZERO = LaurentScalar.zero()
ONE = LaurentScalar.one()
Q = LaurentScalar.q_power(1)


def q_int(n: int, d: int = 1) -> LaurentScalar:
    """Quantum integer [n] with q_i = q^d: (q_i^n - q_i^-n)/(q_i - q_i^-1).

    [0] = 0, [-n] = -[n]; for n > 0 this is q_i^(n-1) + q_i^(n-3) + ...
    """
    if d < 1:
        raise ValueError("symmetrizer d must be >= 1")
    if n == 0:
        return ZERO
    if n < 0:
        return -q_int(-n, d)
    return LaurentScalar([(d * (n - 1 - 2 * j), 1) for j in range(n)])


def q_factorial(n: int, d: int = 1) -> LaurentScalar:
    """Quantum factorial [n]! = [n][n-1]...[1]; [0]! = 1."""
    if n < 0:
        raise ValueError("quantum factorial needs n >= 0")
    result = ONE
    for m in range(2, n + 1):
        result = result * q_int(m, d)
    return result


def q_binomial(n: int, k: int, d: int = 1) -> LaurentScalar:
    """Gaussian binomial [n choose k] = [n]!/([k]![n-k]!) for 0 <= k <= n."""
    if k < 0 or k > n:
        return ZERO
    num = ONE
    for m in range(n - k + 1, n + 1):
        num = num * q_int(m, d)
    return num.divexact(q_factorial(k, d))


def bar(x: LaurentScalar) -> LaurentScalar:
    """Free-standing bar involution (exponent negation)."""
    return _coerce(x).bar()


# Term dicts {key: LaurentScalar} with no zero values store the coefficients
# of shuffle elements (keyed by words) and torus elements (exponent vectors).


def add_terms(x: dict, y: dict) -> dict:
    """The term-by-term sum of two term dicts, zero sums dropped."""
    acc = dict(x)
    for key, c in y.items():
        v = acc.get(key, ZERO) + c
        if v:
            acc[key] = v
        else:
            acc.pop(key, None)
    return acc


def scale_terms(x: dict, scalar) -> dict:
    """Every term of x multiplied by a Laurent (or rational) scalar."""
    scalar = _coerce(scalar)
    if not scalar:
        return {}
    return {key: c * scalar for key, c in x.items()}


def qpower_ratio(num: dict, den: dict):
    """The integer m with num == q^m * den term by term, or None.

    Two zero (empty) dicts give 0; zero against nonzero gives None.
    """
    if not num or not den:
        return None if num or den else 0
    key = next(iter(den))
    target = num.get(key)
    if target is None or len(num) != len(den):
        return None
    try:
        ratio = target.divexact(den[key])
    except LaurentDivisionError:
        return None
    if len(ratio.terms) != 1 or ratio.terms[0][1] != 1:
        return None
    m = ratio.terms[0][0]
    power = LaurentScalar.q_power(m)
    if all(num.get(k) == c * power for k, c in den.items()):
        return m
    return None


_TERM_RE = re.compile(
    r"""^\s*
        (?P<coeff>[+-]?\s*\d+(?:/\d+)?|[+-])? # optional rational coefficient
        \s*\*?\s*
        (?P<q>q(?:\^(?P<exp>[+-]?\d+))?)?     # optional q power
        \s*$""",
    re.VERBOSE,
)


def parse_scalar(text: str) -> LaurentScalar:
    """Parse the rendering grammar "a*q^k + ..." back into a scalar."""
    text = text.strip()
    if text == "0":
        return ZERO
    # Split on top-level +/- while keeping the sign with the term.
    chunks = re.split(r"\s+(?=[+-])", re.sub(r"([+-])\s+", r"\1", text))
    terms = []
    for chunk in chunks:
        m = _TERM_RE.match(chunk)
        if not m or (m.group("coeff") is None and m.group("q") is None):
            raise ValueError("cannot parse Laurent term %r" % chunk)
        coeff_text = m.group("coeff")
        if coeff_text is None:
            coeff = Fraction(1)
        elif coeff_text in ("+", "-"):
            coeff = Fraction(1 if coeff_text == "+" else -1)
        else:
            coeff = Fraction(coeff_text.replace(" ", ""))
        if m.group("q") is None:
            exp = 0
        elif m.group("exp") is None:
            exp = 1
        else:
            exp = int(m.group("exp"))
        terms.append((exp, coeff))
    return LaurentScalar(terms)
