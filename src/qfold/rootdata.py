"""Symmetrizable Cartan data, weights, roots and Weyl-word machinery.

Weights are stored in fundamental-weight coordinates, roots in simple-root
coordinates; the bilinear form and reflections convert between the two as
needed.  Weyl group elements are only ever represented by words; equality
of elements is equality of the action on all fundamental weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .laurent import exact_int


@dataclass(frozen=True)
class CartanDatum:
    """A symmetrizable generalized Cartan matrix with symmetrizers.

    indices is an ordered tuple of hashable labels; cartan[r][c] is the
    entry a_{ij} for i = indices[r], j = indices[c]; symmetrizers[r] is
    the positive integer d_i.  The pairing is (alpha_i, alpha_j) = d_i a_ij.
    """

    indices: tuple
    cartan: tuple
    symmetrizers: tuple

    def __post_init__(self):
        n = len(self.indices)
        object.__setattr__(self, "indices", tuple(self.indices))
        object.__setattr__(self, "cartan",
                           tuple(tuple(map(exact_int, row)) for row in self.cartan))
        object.__setattr__(self, "symmetrizers",
                           tuple(map(exact_int, self.symmetrizers)))
        if len(set(self.indices)) != n:
            raise ValueError("duplicate index labels")
        if len(self.cartan) != n or any(len(r) != n for r in self.cartan):
            raise ValueError("Cartan matrix shape does not match index set")
        if len(self.symmetrizers) != n:
            raise ValueError("symmetrizer length does not match index set")
        if any(d < 1 for d in self.symmetrizers):
            raise ValueError("symmetrizers must be positive")
        for r in range(n):
            if self.cartan[r][r] != 2:
                raise ValueError("diagonal Cartan entries must equal 2")
            for c in range(n):
                if r != c:
                    if self.cartan[r][c] > 0:
                        raise ValueError("off-diagonal Cartan entries must be <= 0")
                    if (self.cartan[r][c] == 0) != (self.cartan[c][r] == 0):
                        raise ValueError("Cartan zero pattern must be symmetric")
                if (self.symmetrizers[r] * self.cartan[r][c]
                        != self.symmetrizers[c] * self.cartan[c][r]):
                    raise ValueError("matrix is not symmetrizable by the given d")

    @property
    def rank(self) -> int:
        return len(self.indices)

    def pos(self, i) -> int:
        try:
            return self.indices.index(i)
        except ValueError:
            raise KeyError("unknown index %r" % (i,)) from None

    def a(self, i, j) -> int:
        return self.cartan[self.pos(i)][self.pos(j)]

    def d(self, i) -> int:
        return self.symmetrizers[self.pos(i)]

    def simple_root(self, i) -> "Root":
        coords = [0] * self.rank
        coords[self.pos(i)] = 1
        return Root(self, tuple(coords))

    def fundamental_weight(self, i) -> "Weight":
        coords = [0] * self.rank
        coords[self.pos(i)] = 1
        return Weight(self, tuple(coords))

    def root(self, coords) -> "Root":
        return Root(self, tuple(map(exact_int, coords)))


def cartan_datum(family: str, rank: int) -> CartanDatum:
    """Finite-type constructors for desk-scale experiments (A, B, C, D, G)."""
    family = family.upper()
    idx = tuple(range(1, rank + 1))
    if family == "A" and rank >= 1:
        a = [[2 if r == c else (-1 if abs(r - c) == 1 else 0)
              for c in range(rank)] for r in range(rank)]
        return CartanDatum(idx, a, (1,) * rank)
    if family == "B" and rank >= 2:
        a = [[2 if r == c else (-1 if abs(r - c) == 1 else 0)
              for c in range(rank)] for r in range(rank)]
        a[rank - 1][rank - 2] = -2
        return CartanDatum(idx, a, (2,) * (rank - 1) + (1,))
    if family == "C" and rank == 2:
        # Matches the fold of the A3 path by its diagram flip: the first
        # index is the folded 2-element orbit, so d = (2, 1).
        return CartanDatum(idx, ((2, -1), (-2, 2)), (2, 1))
    if family == "C" and rank >= 3:
        a = [[2 if r == c else (-1 if abs(r - c) == 1 else 0)
              for c in range(rank)] for r in range(rank)]
        a[rank - 2][rank - 1] = -2
        return CartanDatum(idx, a, (1,) * (rank - 1) + (2,))
    if family == "D" and rank >= 3:
        a = [[2 if r == c else 0 for c in range(rank)] for r in range(rank)]
        for r in range(rank - 3):
            a[r][r + 1] = a[r + 1][r] = -1
        for tip in (rank - 2, rank - 1):
            a[rank - 3][tip] = a[tip][rank - 3] = -1
        return CartanDatum(idx, a, (1,) * rank)
    if family == "G" and rank == 2:
        return CartanDatum(idx, ((2, -1), (-3, 2)), (3, 1))
    raise ValueError("unsupported type %s%d" % (family, rank))


class _Vector:
    """Shared implementation for coordinate vectors tied to a datum."""

    __slots__ = ("datum", "coords")

    def __init__(self, datum: CartanDatum, coords):
        self.datum = datum
        self.coords = tuple(coords)
        if len(self.coords) != datum.rank:
            raise ValueError("coordinate length does not match rank")

    def _check(self, other):
        if type(other) is not type(self) or other.datum != self.datum:
            raise TypeError("incompatible operands")

    def __add__(self, other):
        self._check(other)
        return type(self)(self.datum,
                          tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        self._check(other)
        return type(self)(self.datum,
                          tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return type(self)(self.datum, tuple(-a for a in self.coords))

    def __mul__(self, n: int):
        return type(self)(self.datum, tuple(n * a for a in self.coords))

    __rmul__ = __mul__

    def __eq__(self, other):
        return (type(other) is type(self) and other.datum == self.datum
                and other.coords == self.coords)

    def __hash__(self):
        return hash((type(self).__name__, self.datum.indices, self.coords))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)


class Weight(_Vector):
    """A weight in fundamental-weight coordinates."""

    def coroot_pairing(self, i) -> int:
        """<v, alpha_i-check>; in this basis just the i-th coordinate."""
        return self.coords[self.datum.pos(i)]

    def is_dominant(self) -> bool:
        return all(c >= 0 for c in self.coords)

    def to_root(self):
        """Express in the simple-root basis: a Root, or None when the weight
        is outside the root lattice."""
        coords = _solve_root_coords(self.datum, self.coords)
        if coords is None or any(c.denominator != 1 for c in coords):
            return None
        return Root(self.datum, tuple(int(c) for c in coords))

    def __repr__(self):
        return "Weight%s" % (self.coords,)


class Root(_Vector):
    """A root-lattice vector in simple-root coordinates."""

    def height(self) -> int:
        return sum(self.coords)

    def is_positive(self) -> bool:
        return all(c >= 0 for c in self.coords) and any(c > 0 for c in self.coords)

    def coroot_pairing(self, i) -> int:
        """<beta, alpha_i-check> = sum_j a_ij beta_j."""
        datum = self.datum
        r = datum.pos(i)
        return sum(datum.cartan[r][c] * self.coords[c] for c in range(datum.rank))

    def to_weight(self) -> Weight:
        """Convert: omega-coordinates of beta are (A beta) with A the Cartan matrix."""
        datum = self.datum
        coords = tuple(
            sum(datum.cartan[r][c] * self.coords[c] for c in range(datum.rank))
            for r in range(datum.rank))
        return Weight(datum, coords)

    def __repr__(self):
        return "Root%s" % (self.coords,)


def _solve_root_coords(datum, omega_coords):
    """Solve A x = omega_coords over Q (A = Cartan matrix); None if inconsistent."""
    n = datum.rank
    aug = [[Fraction(datum.cartan[r][c]) for c in range(n)]
           + [Fraction(omega_coords[r])] for r in range(n)]
    pivots = []
    row = 0
    for col in range(n):
        piv = next((r for r in range(row, n) if aug[r][col] != 0), None)
        if piv is None:
            continue
        aug[row], aug[piv] = aug[piv], aug[row]
        inv = Fraction(1) / aug[row][col]
        aug[row] = [v * inv for v in aug[row]]
        for r in range(n):
            if r != row and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
    for r in range(row, n):
        if aug[r][n] != 0:
            return None
    if len(pivots) != n:
        raise ValueError("singular Cartan matrix: root coordinates not unique")
    sol = [Fraction(0)] * n
    for r, col in enumerate(pivots):
        sol[col] = aug[r][n]
    return sol


def reflect(v, i):
    """Simple reflection s_i(v) = v - <v, alpha_i-check> alpha_i."""
    datum = v.datum
    pairing = v.coroot_pairing(i)
    if isinstance(v, Root):
        return v - pairing * datum.simple_root(i)
    return v - pairing * datum.simple_root(i).to_weight()


def apply_word(word, v):
    """Apply s_{i1}...s_{in} to v (leftmost letter acts last)."""
    for i in reversed(tuple(word)):
        v = reflect(v, i)
    return v


def inversion_roots(datum, word):
    """The sequence beta_k = s_{i1}...s_{i_{k-1}} alpha_{i_k}.

    For a reduced word these are the distinct positive roots of Phi(w).
    A non-reduced word shows up as a negative entry.
    """
    word = tuple(word)
    betas = []
    for k, i in enumerate(word):
        betas.append(apply_word(word[:k], datum.simple_root(i)))
    return betas


def is_reduced(datum, word) -> bool:
    """A word is reduced iff every inversion root is positive."""
    word = tuple(word)
    for k, i in enumerate(word):
        if not apply_word(word[:k], datum.simple_root(i)).is_positive():
            return False
    return True


def bilinear_form(u, v):
    """The W-invariant form with (alpha_i,alpha_j) = d_i a_ij, (omega_i,alpha_j) = delta_ij d_j.

    Mixed bases are converted internally; returns an int when the value is
    integral, otherwise an exact Fraction (possible only for weight/weight
    pairs outside the root lattice).
    """
    if u.datum != v.datum:
        raise TypeError("operands live over different Cartan data")
    datum = u.datum
    n = datum.rank
    if isinstance(u, Weight) and isinstance(v, Root):
        u, v = v, u
    if isinstance(u, Root) and isinstance(v, Root):
        total = 0
        for r in range(n):
            if u.coords[r]:
                dr = datum.symmetrizers[r]
                for c in range(n):
                    total += u.coords[r] * v.coords[c] * dr * datum.cartan[r][c]
        return total
    if isinstance(u, Root) and isinstance(v, Weight):
        return sum(u.coords[c] * v.coords[c] * datum.symmetrizers[c]
                   for c in range(n))
    # weight/weight: route one argument through the root basis
    coords = _solve_root_coords(datum, u.coords)
    if coords is None:
        raise ValueError("weight outside the rational root span")
    total = sum(coords[c] * v.coords[c] * datum.symmetrizers[c] for c in range(n))
    return int(total) if total.denominator == 1 else total


def extremal_exponents(lam: Weight, word):
    """Divided-power exponents c_k with v_{w lam} = F_{i1}^{(c1)}...F_{in}^{(cn)} v_lam.

    c_k is the coroot pairing of alpha_{i_k} against s_{i_{k+1}}...s_{i_n} lam,
    accumulated right to left.  Requires lam dominant and the word reduced.
    """
    datum = lam.datum
    word = tuple(word)
    if not lam.is_dominant():
        raise ValueError("extremal exponents need a dominant weight")
    if not is_reduced(datum, word):
        raise ValueError("word %r is not reduced" % (word,))
    exponents = [0] * len(word)
    v = lam
    for k in range(len(word) - 1, -1, -1):
        i = word[k]
        exponents[k] = v.coroot_pairing(i)
        v = reflect(v, i)
    if any(c < 0 for c in exponents):
        raise AssertionError("negative extremal exponent; input invariants broken")
    return exponents


def dominance_leq(mu: Weight, eta: Weight) -> bool:
    """True iff eta - mu is a nonnegative integer combination of simple roots.

    Weights differing outside the root lattice compare as False.
    """
    diff = (eta - mu).to_root()
    return diff is not None and all(c >= 0 for c in diff.coords)


def weyl_equal(datum: CartanDatum, word1, word2) -> bool:
    """Equality of Weyl group elements given by words (action on all omega_i)."""
    return all(apply_word(word1, datum.fundamental_weight(i))
               == apply_word(word2, datum.fundamental_weight(i))
               for i in datum.indices)


def _weyl_key(datum, word):
    return tuple(apply_word(word, datum.fundamental_weight(i)).coords
                 for i in datum.indices)


def is_finite_type(datum: CartanDatum) -> bool:
    """True when the symmetrized matrix d_i a_ij is positive definite, that
    is, when every pivot of its exact elimination is positive; exactly then
    the Weyl group is finite."""
    n = datum.rank
    m = [[Fraction(datum.symmetrizers[r] * datum.cartan[r][c])
          for c in range(n)] for r in range(n)]
    for k in range(n):
        if m[k][k] <= 0:
            return False
        for r in range(k + 1, n):
            factor = m[r][k] / m[k][k]
            m[r] = [v - factor * w for v, w in zip(m[r], m[k])]
    return True


def weyl_elements(datum: CartanDatum):
    """BFS over the Weyl group returning {action-key: reduced word}.

    Words found by BFS from the identity are automatically reduced, and the
    dict lists them in BFS order.  Raises ValueError up front when the
    datum is not of finite type (the group is then infinite).
    """
    if not is_finite_type(datum):
        raise ValueError("Weyl group is infinite")
    identity = tuple()
    elements = {_weyl_key(datum, identity): identity}
    frontier = [identity]
    while frontier:
        new_frontier = []
        for word in frontier:
            for i in datum.indices:
                candidate = (i,) + word
                key = _weyl_key(datum, candidate)
                if key not in elements:
                    elements[key] = candidate
                    new_frontier.append(candidate)
        frontier = new_frontier
    return elements


def positive_roots(datum: CartanDatum):
    """All positive roots of a finite-type datum, via the longest element;
    ValueError for an infinite Weyl group."""
    longest = longest_word(datum)
    return sorted(set(inversion_roots(datum, longest)),
                  key=lambda beta: (beta.height(), beta.coords))


def longest_word(datum: CartanDatum):
    """A reduced word for the longest element of a finite Weyl group;
    ValueError for an infinite one."""
    words = weyl_elements(datum).values()
    return max(words, key=len)


def datum_to_json(datum: CartanDatum) -> dict:
    return {"indices": list(datum.indices),
            "cartan": [list(row) for row in datum.cartan],
            "symmetrizers": list(datum.symmetrizers)}


def datum_from_json(data: dict) -> CartanDatum:
    indices = [tuple(i) if isinstance(i, list) else i for i in data["indices"]]
    return CartanDatum(tuple(indices),
                       tuple(tuple(row) for row in data["cartan"]),
                       tuple(data["symmetrizers"]))
