"""Small-rank quantum-group oracle.

This module computes inside irreducible highest-weight modules V(lambda) of
a symmetrizable quantized enveloping algebra, entirely through the
contravariant (q-Shapovalov) form: vectors are divided-power F-words acting
on a highest weight vector, pairings are evaluated by commuting E's past
F's, and generalized minors are realized concretely as elements of the
quantum shuffle algebra (finite sums of words with Laurent coefficients).

Everything is exact.  The Shapovalov recursion is memoized inside an
OracleContext; contexts are not thread-safe and should be confined to one
thread or shared read-only after warm-up.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .laurent import (
    ONE,
    ZERO,
    LaurentDivisionError,
    LaurentScalar,
    add_terms,
    exact_int,
    q_binomial,
    q_factorial,
    q_int,
    qpower_ratio,
    scale_terms,
)
from .rootdata import (
    Root,
    Weight,
    apply_word,
    dominance_leq,
    extremal_exponents,
    is_reduced,
)


@dataclass(frozen=True)
class FWord:
    """A vector F_{i1}^{(c1)}...F_{in}^{(cn)} v_lambda given by its letters."""

    lam: Weight
    letters: tuple  # ((index, exponent), ...) with all exponents >= 1

    def __post_init__(self):
        object.__setattr__(self, "letters",
                           tuple((i, exact_int(c)) for i, c in self.letters))
        if any(c < 1 for _, c in self.letters):
            raise ValueError("divided-power exponents must be positive")


class OracleContext:
    """Memo tables for the Shapovalov engine, one per Cartan datum."""

    def __init__(self, datum):
        self.datum = datum
        self._e_apply = {}
        self._pair = {}

    # -- E-action on F-words -------------------------------------------

    def _prepended(self, letter, word, coeff, out):
        """Accumulate coeff * F_letter(word) into out, merging equal neighbours.

        F_i^(a) F_i^(b) = [a+b choose a]_i F_i^(a+b), so a merge multiplies
        the coefficient by a Gaussian binomial.
        """
        i, c = letter
        if word and word[0][0] == i:
            c2 = word[0][1]
            coeff = coeff * q_binomial(c + c2, c, self.datum.d(i))
            word = ((i, c + c2),) + word[1:]
        else:
            word = (letter,) + word
        if coeff:
            out[word] = out.get(word, ZERO) + coeff

    def apply_e(self, lam: Weight, i, letters):
        """E_i applied to the vector 'letters . v_lam', as a dict word -> scalar.

        Uses E_i F_j^(d) = F_j^(d) E_i for j != i and, on a vector u of
        weight mu with m = <mu, alpha_i-check>,
        E_i F_i^(d) u = F_i^(d) E_i u + [m - d + 1]_i F_i^(d-1) u.
        """
        key = (lam.coords, i, letters)
        cached = self._e_apply.get(key)
        if cached is not None:
            return cached
        datum = self.datum
        out = {}
        if letters:
            (j, d), rest = letters[0], letters[1:]
            for word, coeff in self.apply_e(lam, i, rest).items():
                self._prepended((j, d), word, coeff, out)
            if j == i:
                mu = lam
                for jj, cc in rest:
                    mu = mu - cc * datum.simple_root(jj).to_weight()
                m = mu.coroot_pairing(i)
                coeff = q_int(m - d + 1, datum.d(i))
                if coeff:
                    if d == 1:
                        out[rest] = out.get(rest, ZERO) + coeff
                    else:
                        self._prepended((i, d - 1), rest, coeff, out)
        out = {w: c for w, c in out.items() if c}
        self._e_apply[key] = out
        return out

    def apply_e_power(self, lam: Weight, i, c, terms):
        """Divided power E_i^(c) applied to a dict of F-words."""
        for _ in range(c):
            nxt = {}
            for word, coeff in terms.items():
                for w2, c2 in self.apply_e(lam, i, word).items():
                    v = nxt.get(w2, ZERO) + coeff * c2
                    if v:
                        nxt[w2] = v
                    else:
                        nxt.pop(w2, None)
            terms = nxt
        if c > 1:
            fact = q_factorial(c, self.datum.d(i))
            terms = {w: cc.divexact(fact) for w, cc in terms.items()}
        return terms

    # -- the pairing -----------------------------------------------------

    def pair(self, lam: Weight, x, y) -> LaurentScalar:
        """(x v_lam, y v_lam) for two F-letter tuples."""
        key = (lam.coords, x, y)
        cached = self._pair.get(key)
        if cached is not None:
            return cached
        if not x:
            result = ONE if not y else ZERO
        else:
            (i, c), x_rest = x[0], x[1:]
            lowered = self.apply_e_power(lam, i, c, {y: ONE})
            result = ZERO
            for word, coeff in lowered.items():
                result = result + coeff * self.pair(lam, x_rest, word)
        self._pair[key] = result
        return result


def shapovalov(x: FWord, y: FWord, context: OracleContext | None = None) -> LaurentScalar:
    """The q-Shapovalov pairing (x v_lambda, y v_lambda), normalized to
    (v_lambda, v_lambda) = 1."""
    if x.lam != y.lam:
        raise ValueError("operands act on different highest weights")
    if context is None:
        context = OracleContext(x.lam.datum)
    elif context.datum != x.lam.datum:
        raise ValueError("context belongs to a different Cartan datum")
    return context.pair(x.lam, x.letters, y.letters)


def extremal_vector(lam: Weight, word) -> FWord:
    """The canonical extremal weight vector v_{w lam} as a divided-power F-word."""
    exponents = extremal_exponents(lam, word)
    letters = tuple((i, c) for i, c in zip(word, exponents) if c > 0)
    return FWord(lam, letters)


# ---------------------------------------------------------------------------
# The quantum shuffle algebra
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShuffleElement:
    """A weight-homogeneous element of the shuffle algebra.

    terms maps words (tuples over the index set) to nonzero Laurent scalars;
    all words have letter content equal to the declared weight.  The note
    field carries warnings (for zero minors) and is ignored by equality.
    """

    datum: object
    weight: Root
    terms: dict
    note: str = field(default="", compare=False)

    def __post_init__(self):
        object.__setattr__(self, "terms",
                           {tuple(w): c for w, c in self.terms.items() if c})
        for word in self.terms:
            if _word_content(self.datum, word) != self.weight.coords:
                raise ValueError("word %r has the wrong letter content" % (word,))

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, word) -> LaurentScalar:
        return self.terms.get(tuple(word), ZERO)

    def support(self):
        return sorted(self.terms, key=_word_sort_key(self.datum))

    def __eq__(self, other):
        if not isinstance(other, ShuffleElement):
            return NotImplemented
        if self.datum != other.datum:
            return False
        if self.is_zero() and other.is_zero():
            return True
        return self.weight == other.weight and self.terms == other.terms

    def __hash__(self):
        return hash((self.datum.indices,
                     None if self.is_zero() else self.weight.coords,
                     tuple(sorted(self.terms.items(),
                                  key=lambda t: _word_sort_key(self.datum)(t[0])))))

    def __add__(self, other):
        if self.datum != other.datum:
            raise TypeError("elements live over different Cartan data")
        if not (self.is_zero() or other.is_zero()) and self.weight != other.weight:
            raise ValueError("cannot add elements of different weights")
        weight = other.weight if self.is_zero() else self.weight
        return ShuffleElement(self.datum, weight,
                              add_terms(self.terms, other.terms))

    def __sub__(self, other):
        return self + other.scale(-ONE)

    def scale(self, scalar) -> "ShuffleElement":
        return ShuffleElement(self.datum, self.weight,
                              scale_terms(self.terms, scalar))

    # These call the module functions by name instead of aliasing them, so
    # that rebinding a module function (as a tracer does) reaches them too.

    def __mul__(self, other) -> "ShuffleElement":
        return shuffle_product(self, other)

    def bar(self) -> "ShuffleElement":
        return bar_element(self)

    def left_divide(self, dividend) -> "ShuffleElement":
        """The z with self * z = dividend; see shuffle_divide_left."""
        return shuffle_divide_left(self, dividend)

    def __str__(self):
        if self.is_zero():
            return "0"
        bits = []
        for w in self.support():
            bits.append("(%s)*[%s]" % (self.terms[w],
                                       ",".join(str(x) for x in w)))
        return " + ".join(bits)


def _word_content(datum, word):
    content = [0] * datum.rank
    for letter in word:
        content[datum.pos(letter)] += 1
    return tuple(content)


def _word_sort_key(datum):
    return lambda word: tuple(datum.pos(x) for x in word)


def unit_element(datum) -> ShuffleElement:
    return ShuffleElement(datum, Root(datum, (0,) * datum.rank), {(): ONE})


def theta_star(datum, i) -> ShuffleElement:
    return ShuffleElement(datum, datum.simple_root(i), {(i,): ONE})


def words_of_weight(datum, weight: Root):
    """All words with the given letter content, in index-lexicographic order."""
    letters = []
    for i, c in zip(datum.indices, weight.coords):
        letters.extend([i] * c)

    def rec(remaining):
        if not remaining:
            yield ()
            return
        seen = []
        for k, letter in enumerate(remaining):
            if letter in seen:
                continue
            seen.append(letter)
            for rest in rec(remaining[:k] + remaining[k + 1:]):
                yield (letter,) + rest

    ordered = sorted(letters, key=lambda x: datum.pos(x))
    return list(rec(tuple(ordered)))


def shuffle_product(x: ShuffleElement, y: ShuffleElement) -> ShuffleElement:
    """The quantum shuffle product.

    For words u and v the product is the sum over interleavings w with
    coefficient q^(-s), where s adds the pairing (alpha_b, alpha_a) over
    every pair of a v-letter b placed before a u-letter a in w.  This twist
    sign makes the word realization multiplicative for the dual of the
    quantized enveloping algebra's coproduct; it is pinned down by the
    bar-product identity and the minor-squaring identity in the tests.

    Coefficients accumulate as {exponent: rational} per output word, and
    each output word gets one Laurent scalar at the end.
    """
    if x.datum != y.datum:
        raise TypeError("elements live over different Cartan data")
    datum = x.datum
    pairing = _pairing_table(datum)
    acc = {}
    for u, cu in x.terms.items():
        for v, cv in y.terms.items():
            base = (cu * cv).terms
            for word, twists in _interleaving_table(pairing, u, v).items():
                coeffs = acc.get(word)
                if coeffs is None:
                    coeffs = acc[word] = {}
                for e, m in twists.items():
                    for k, c in base:
                        k += e
                        coeffs[k] = coeffs.get(k, 0) + m * c
    for word, coeffs in acc.items():
        acc[word] = LaurentScalar(coeffs)
    return ShuffleElement(datum, x.weight + y.weight, acc)


def _pairing_table(datum):
    n = datum.rank
    return {(datum.indices[r], datum.indices[c]):
            datum.symmetrizers[r] * datum.cartan[r][c]
            for r in range(n) for c in range(n)}


def _interleaving_table(pairing, u, v):
    """{word: {twist exponent: multiplicity}} over all interleavings of u, v.

    The quantum shuffle recursion (Leclerc 2004), filled bottom-up over
    suffix positions: the entry for (i, j) covers the interleavings of
    u[i:] and v[j:].  Such a word starts with u[i], or with v[j], which then
    precedes every remaining u-letter and lowers the exponent by their
    pairings with it.  Equal words merge as soon as they meet.
    """
    lu, lv = len(u), len(v)
    below = None  # the row of entries for i + 1
    for i in range(lu, -1, -1):
        row = [None] * (lv + 1)
        for j in range(lv, -1, -1):
            if i == lu and j == lv:
                row[j] = {(): {0: 1}}
                continue
            # Entries of other cells are shared, never modified in place.
            table = {}
            if i < lu:
                a = (u[i],)
                for w, twists in below[j].items():
                    table[a + w] = twists
            if j < lv:
                b = v[j]
                shift = -sum(pairing[(b, u[k])] for k in range(i, lu))
                for w, twists in row[j + 1].items():
                    w = (b,) + w
                    merged = dict(table.get(w, ()))
                    for e, m in twists.items():
                        e += shift
                        merged[e] = merged.get(e, 0) + m
                    table[w] = merged
            row[j] = table
        below = row
    return below[0]


def bar_element(x: ShuffleElement) -> ShuffleElement:
    """The induced bar involution: bar every coefficient."""
    return ShuffleElement(x.datum, x.weight,
                          {w: c.bar() for w, c in x.terms.items()}, note=x.note)


def skew_derivative_right(x: ShuffleElement, i, p: int) -> ShuffleElement:
    """Adjoint of right multiplication by theta_i^(p): strip i^p suffixes."""
    datum = x.datum
    fact = q_factorial(p, datum.d(i))
    suffix = (i,) * p
    acc = {}
    for word, coeff in x.terms.items():
        if len(word) >= p and word[len(word) - p:] == suffix:
            acc[word[: len(word) - p]] = coeff.divexact(fact)
    weight = x.weight - p * datum.simple_root(i)
    return ShuffleElement(datum, weight, acc)


def skew_derivative_left(x: ShuffleElement, i, p: int) -> ShuffleElement:
    """Adjoint of left multiplication by theta_i^(p): strip i^p prefixes."""
    datum = x.datum
    fact = q_factorial(p, datum.d(i))
    prefix = (i,) * p
    acc = {}
    for word, coeff in x.terms.items():
        if len(word) >= p and word[:p] == prefix:
            acc[word[p:]] = coeff.divexact(fact)
    weight = x.weight - p * datum.simple_root(i)
    return ShuffleElement(datum, weight, acc)


def extremal_word(x: ShuffleElement):
    """The extremal word of x and its run exponents.

    Walks the fixed sequence (i_1, i_2, ...) = (1, 2, ..., n, 1, 2, ...)
    cycling through the index set; at each stage the exponent is the
    largest p such that the left skew derivative by i^p is nonzero (the
    longest leading i-run over the support), and the element is replaced by
    that derivative.  Returns (word, [(letter, exponent), ...]) where zero
    exponents are omitted.  For an element of a dual-canonical-type basis
    the coefficient of this word is the product of the [exponent]! factors.

    Each pass through the index set strips at least one letter (some word
    of the nonzero current element starts with some index), and a strip by
    the longest run never gives zero, so the loop ends after at most
    height(x) passes.
    """
    if x.is_zero():
        raise ValueError("zero element has no extremal word")
    datum = x.datum
    runs = []
    current = x
    while current.weight.height() > 0:
        for i in datum.indices:
            best = 0
            for word in current.terms:
                run = 0
                for letter in word:
                    if letter != i:
                        break
                    run += 1
                best = max(best, run)
            if best:
                runs.append((i, best))
                current = skew_derivative_left(current, i, best)
    word = tuple(itertools.chain.from_iterable(
        (i,) * a for i, a in runs))
    return word, runs


def qcommute_exponent(x: ShuffleElement, y: ShuffleElement):
    """The integer m with x*y = q^m y*x, or None when no such integer exists."""
    if x.is_zero() or y.is_zero():
        raise ValueError("q-commutation needs nonzero elements")
    return qpower_ratio(shuffle_product(x, y).terms,
                        shuffle_product(y, x).terms)


class ShuffleDivisionError(ArithmeticError):
    pass


def shuffle_divide_left(a: ShuffleElement, c: ShuffleElement) -> ShuffleElement:
    """Solve a * z = c exactly in the shuffle algebra.

    z is weight-homogeneous of weight wt(c) - wt(a), so the equation is a
    finite linear system over the Laurent ring, solved by fraction-free
    (Bareiss) elimination with exact divisions.  Raises when no shuffle
    element satisfies the equation.
    """
    if a.is_zero():
        raise ShuffleDivisionError("division by zero")
    datum = a.datum
    if c.is_zero():
        zero = Root(datum, (0,) * datum.rank)
        return ShuffleElement(datum, zero, {})
    nu = c.weight - a.weight
    if any(x < 0 for x in nu.coords):
        raise ShuffleDivisionError("quotient weight is not effective")
    unknowns = words_of_weight(datum, nu)
    rows = words_of_weight(datum, c.weight)
    columns = [shuffle_product(a, ShuffleElement(datum, nu, {w: ONE}))
               for w in unknowns]
    matrix = [[col.terms.get(u, ZERO) for col in columns]
              + [c.terms.get(u, ZERO)] for u in rows]
    solution = _solve_laurent_system(matrix, len(unknowns))
    if solution is None:
        raise ShuffleDivisionError("no exact quotient exists")
    z = ShuffleElement(datum, nu,
                       {w: s for w, s in zip(unknowns, solution) if s})
    if shuffle_product(a, z) != c:
        raise ShuffleDivisionError("no exact quotient exists")
    return z


def _solve_laurent_system(matrix, ncols):
    """Fraction-free Gaussian elimination for M z = rhs over the Laurent ring.

    matrix rows carry the rhs as their last entry.  Returns the solution
    list or None when inconsistent/underdetermined; divisions that fail to
    be exact also mean no Laurent solution and surface as None.
    """
    rows = [list(r) for r in matrix]
    nrows = len(rows)
    prev_pivot = ONE
    pivot_rows = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, nrows) if rows[i][col]), None)
        if piv is None:
            return None
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, nrows):
            for j in range(col + 1, ncols + 1):
                value = rows[r][col] * rows[i][j] - rows[i][col] * rows[r][j]
                try:
                    rows[i][j] = value.divexact(prev_pivot)
                except LaurentDivisionError:
                    return None
            rows[i][col] = ZERO
        prev_pivot = rows[r][col]
        pivot_rows.append(r)
        r += 1
    for i in range(r, nrows):
        if rows[i][ncols]:
            return None
    solution = [ZERO] * ncols
    for back in range(ncols - 1, -1, -1):
        acc = rows[back][ncols]
        for j in range(back + 1, ncols):
            acc = acc - rows[back][j] * solution[j]
        try:
            solution[back] = acc.divexact(rows[back][back])
        except LaurentDivisionError:
            return None
    return solution


# ---------------------------------------------------------------------------
# Generalized minors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MinorSpec:
    """D(mu, eta) specified by a dominant weight and reduced words u, v with
    mu = u lambda, eta = v lambda."""

    lam: Weight
    word_mu: tuple
    word_eta: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "word_mu", tuple(self.word_mu))
        object.__setattr__(self, "word_eta", tuple(self.word_eta))
        datum = self.lam.datum
        if not self.lam.is_dominant():
            raise ValueError("lambda must be dominant")
        for word in (self.word_mu, self.word_eta):
            if not is_reduced(datum, word):
                raise ValueError("word %r is not reduced" % (word,))

    @property
    def mu(self) -> Weight:
        return apply_word(self.word_mu, self.lam)

    @property
    def eta(self) -> Weight:
        return apply_word(self.word_eta, self.lam)


def minor_to_shuffle(spec: MinorSpec, context: OracleContext | None = None) -> ShuffleElement:
    """Realize D(mu, eta) as a shuffle element.

    The coefficient on a word [i1, ..., in] is (theta_{i1}...theta_{in} v_mu,
    v_eta), the letters acting as E's with the rightmost letter first.  For
    mu not <= eta the minor vanishes; the zero element is returned with a
    warning note instead of an error.
    """
    datum = spec.lam.datum
    if context is None:
        context = OracleContext(datum)
    mu, eta = spec.mu, spec.eta
    if not dominance_leq(mu, eta):
        zero_w = Root(datum, (0,) * datum.rank)
        return ShuffleElement(datum, zero_w, {},
                              note="mu is not <= eta: zero minor")
    nu = (eta - mu).to_root()
    v_mu = extremal_vector(spec.lam, spec.word_mu)
    v_eta = extremal_vector(spec.lam, spec.word_eta)
    acc = {}
    for word in words_of_weight(datum, nu):
        terms = {v_mu.letters: ONE}
        for letter in reversed(word):
            terms = context.apply_e_power(spec.lam, letter, 1, terms)
            if not terms:
                break
        value = ZERO
        for fword, coeff in terms.items():
            value = value + coeff * context.pair(spec.lam, fword, v_eta.letters)
        if value:
            acc[word] = value
    return ShuffleElement(datum, nu, acc)


# ---------------------------------------------------------------------------
# Coproduct components
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShuffleTensor:
    """A finite sum of pure tensors of words, the image of a coproduct split."""

    datum: object
    parts: tuple  # tuple of Root weights, one per tensor factor
    terms: dict   # (word, ..., word) -> LaurentScalar

    def __post_init__(self):
        object.__setattr__(self, "terms",
                           {tuple(tuple(w) for w in ws): c
                            for ws, c in self.terms.items() if c})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, ShuffleTensor):
            return NotImplemented
        if self.datum != other.datum:
            return False
        if self.is_zero() and other.is_zero():
            return True
        return self.parts == other.parts and self.terms == other.terms

    def __hash__(self):
        return hash((self.datum.indices, self.parts,
                     tuple(sorted(self.terms.items(), key=lambda t: t[0]))))


def coproduct_components(x: ShuffleElement, parts) -> ShuffleTensor:
    """Split every word of x into consecutive blocks with the given weights.

    parts is a sequence of Root weights summing to the weight of x; block k
    must have letter content parts[k], otherwise the word contributes
    nothing.  This is the graded-dual description of multiplication on the
    enveloping side: deconcatenation.
    """
    datum = x.datum
    parts = tuple(parts)
    total = Root(datum, (0,) * datum.rank)
    for p in parts:
        total = total + p
    if not x.is_zero() and total != x.weight:
        raise ValueError("part weights do not sum to the element weight")
    sizes = [p.height() for p in parts]
    acc = {}
    for word, coeff in x.terms.items():
        blocks = []
        pos = 0
        ok = True
        for size, part in zip(sizes, parts):
            block = word[pos: pos + size]
            pos += size
            if _word_content(datum, block) != part.coords:
                ok = False
                break
            blocks.append(block)
        if ok:
            acc[tuple(blocks)] = coeff
    return ShuffleTensor(datum, parts, acc)


def tensor_of_elements(factors) -> ShuffleTensor:
    """The pure tensor x_1 (x) ... (x) x_n of shuffle elements."""
    factors = list(factors)
    datum = factors[0].datum
    terms = {(): ONE}
    for f in factors:
        nxt = {}
        for words, c in terms.items():
            for w, cw in f.terms.items():
                nxt[words + (w,)] = c * cw
        terms = nxt
    return ShuffleTensor(datum, tuple(f.weight for f in factors), terms)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def shuffle_to_json(x: ShuffleElement) -> dict:
    return {"weight": list(x.weight.coords),
            "terms": [{"word": [list(l) if isinstance(l, tuple) else l
                                for l in w],
                       "coeff": str(x.terms[w])}
                      for w in x.support()],
            **({"note": x.note} if x.note else {})}
