"""Symmetrizable Cartan data, weights, roots and Weyl-word machinery.

Weights are stored in fundamental-weight coordinates, roots in simple-root
coordinates; the bilinear form pairs roots only.  Weights never turn back
into roots: every weight the package handles is an extremal weight w lambda,
and lambda - w lambda is read off the word as an integer root (the letter
content of its extremal F-word, or running sums of inversion roots).  Weyl
group elements are only ever represented by words.  One pass along a word
carries the images w(alpha_j) of the simple roots: it gives the inversion
roots, reducedness and the extremal exponents, and its final images are the
element's key, since W acts faithfully on the root lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .laurent import exact_int


@dataclass(frozen=True)
class CartanDatum:
    """A symmetrizable generalized Cartan matrix with symmetrizers.

    indices is an ordered tuple of hashable labels; cartan[r][c] is the
    entry a_{ij} for i = indices[r], j = indices[c]; symmetrizers[r] is
    the positive integer d_i.  The pairing is (alpha_i, alpha_j) = d_i a_ij.
    The symmetrized rows d_i a_ij are computed once, and the pairing image
    of each root once per datum object (pairing_image); neither takes part
    in == or the hash.
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
        object.__setattr__(self, "_symmetrized", tuple(
            tuple(d * a for a in row)
            for d, row in zip(self.symmetrizers, self.cartan)))
        object.__setattr__(self, "_images", {})

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

    def pairing_image(self, coords) -> tuple:
        """((alpha_i, u) for i in indices) = (d_i sum_j a_ij u_j) for the
        root u with these simple-root coordinates, memoized by them."""
        image = self._images.get(coords)
        if image is None:
            image = self._images[coords] = self._image(coords)
        return image

    def _image(self, coords):
        return tuple(sum(map(mul, row, coords)) for row in self._symmetrized)


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

    def __repr__(self):
        return "Weight%s" % (self.coords,)


class Root(_Vector):
    """A root-lattice vector in simple-root coordinates."""

    def height(self) -> int:
        return sum(self.coords)

    def is_positive(self) -> bool:
        return all(c >= 0 for c in self.coords) and any(c > 0 for c in self.coords)

    def __repr__(self):
        return "Root%s" % (self.coords,)


def inversion_roots(datum, word):
    """The sequence beta_k = s_{i1}...s_{i_{k-1}} alpha_{i_k}.

    For a reduced word these are the distinct positive roots of Phi(w).
    A non-reduced word shows up as a negative entry.
    """
    return [Root(datum, beta) for beta in _word_pass(datum, word)[0]]


def _word_pass(datum, word):
    """(the coordinates of inversion_roots, the images w(alpha_j)) of a
    word w = s_{i1}...s_{in}, in one pass that carries the images of the
    simple roots under the prefix: beta_k is the image of alpha_{i_k}, and
    appending s_i sends w(alpha_j) to w(alpha_j) - a_ij w(alpha_i)."""
    images = [datum.simple_root(j).coords for j in datum.indices]
    betas = []
    for i in word:
        r = datum.pos(i)
        image = images[r]
        betas.append(image)
        images = [tuple(x - a * y for x, y in zip(old, image))
                  for a, old in zip(datum.cartan[r], images)]
    return betas, tuple(images)


def is_reduced(datum, word) -> bool:
    """A word is reduced iff every inversion root is positive."""
    return all(b.is_positive() for b in inversion_roots(datum, word))


def bilinear_form(u, v):
    """The W-invariant form (alpha_i, alpha_j) = d_i a_ij on two Roots over
    one Cartan datum; anything else is a TypeError."""
    return gram_row(u, [v])[0]


def gram_row(u, roots) -> list:
    """[bilinear_form(u, v) for v in roots] for Roots over one Cartan datum:
    after one type check, every entry is the dot product of v with the
    pairing image of u."""
    roots = list(roots)
    _check_roots(u.datum, [u] + roots)
    image = u.datum.pairing_image(u.coords)
    return [sum(map(mul, v.coords, image)) for v in roots]


def gram_matrix(roots) -> list:
    """[gram_row(u, roots) for u in roots], with one type check and each
    root's pairing image taken once."""
    roots = list(roots)
    if not roots:
        return []
    datum = roots[0].datum
    _check_roots(datum, roots)
    coords = [v.coords for v in roots]
    return [[sum(map(mul, v, image)) for v in coords]
            for image in map(datum.pairing_image, coords)]


def _check_roots(datum, roots):
    for v in roots:
        if type(v) is not Root or v.datum is not datum and v.datum != datum:
            raise TypeError("gram_row takes Roots over one Cartan datum")


def extremal_exponents(lam: Weight, word):
    """Divided-power exponents c_k with v_{w lam} = F_{i1}^{(c1)}...F_{in}^{(cn)} v_lam.

    c_k = <s_{i_{k+1}}...s_{i_n} lam, alpha_{i_k}-check> = sum_j lam_j d_j
    gamma_kj / d_{i_k}, where gamma_k = s_{i_n}...s_{i_{k+1}} alpha_{i_k} are
    the inversion roots of the reversed word, all positive exactly when the
    word is reduced.  Requires lam dominant and the word reduced.
    """
    datum = lam.datum
    word = tuple(word)
    if not lam.is_dominant():
        raise ValueError("extremal exponents need a dominant weight")
    gammas = inversion_roots(datum, word[::-1])[::-1]
    if not all(gamma.is_positive() for gamma in gammas):
        raise ValueError("word %r is not reduced" % (word,))
    weights = tuple(map(mul, lam.coords, datum.symmetrizers))
    exponents = []
    for i, gamma in zip(word, gammas):
        c, remainder = divmod(sum(map(mul, weights, gamma.coords)), datum.d(i))
        if remainder or c < 0:
            raise AssertionError("non-integral or negative extremal exponent; "
                                 "input invariants broken")
        exponents.append(c)
    return exponents


def weyl_equal(datum: CartanDatum, word1, word2) -> bool:
    """Equality of Weyl group elements given by words (action on all alpha_j)."""
    return _weyl_key(datum, word1) == _weyl_key(datum, word2)


def _weyl_key(datum, word):
    return _word_pass(datum, word)[1]


def is_finite_type(datum: CartanDatum) -> bool:
    """True when the symmetrized matrix d_i a_ij is positive definite;
    exactly then the Weyl group is finite.

    Sylvester's criterion: every leading principal minor is positive.
    Bareiss (fraction-free) elimination without pivoting leaves the k-th
    leading principal minor as the k-th pivot, and each update
    (p*v - a*w) // prev is an exact integer division.
    """
    n = datum.rank
    m = list(datum._symmetrized)
    prev = 1
    for k in range(n):
        p = m[k][k]
        if p <= 0:
            return False
        for r in range(k + 1, n):
            a = m[r][k]
            m[r] = [(p * v - a * w) // prev for v, w in zip(m[r], m[k])]
        prev = p
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


def datum_to_json(datum: CartanDatum) -> dict:
    return {"indices": list(datum.indices),
            "cartan": [list(row) for row in datum.cartan],
            "symmetrizers": list(datum.symmetrizers)}


def datum_from_json(data: dict) -> CartanDatum:
    indices = [tuple(i) if isinstance(i, list) else i for i in data["indices"]]
    return CartanDatum(tuple(indices),
                       tuple(tuple(row) for row in data["cartan"]),
                       tuple(data["symmetrizers"]))
