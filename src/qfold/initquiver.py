"""The staircase quiver of a reduced word, frozen vertices, initial cluster
variable labels, the orbit-summed exchange matrix, and the initial
compatible pair built from the word alone.

Vertices sit at (t, i_t) for the letters of a word of length n.  Write t+
for the next position of t's row, or n + 1 when t is the last one; t is
frozen when t+ = n + 1.  Horizontal arrows run t+ -> t.  The rule pairs are
the positions a < b in distinct rows with a < b < a+ <= b+, and each
carries -d_i a_ij arrows from (a, i) to (b, j).  The same rule gives the
initial exchange matrix of a reduced word for any symmetrizable datum
(Berenstein-Fomin-Zelevinsky 2005, Geiss-Leclerc-Schroer 2011); on a
folded datum it equals the unfolded staircase summed over position orbits.
"""

from __future__ import annotations

from dataclasses import dataclass

from .folding import QuiverWithAut, orbit_word, underlying_datum
from .qcluster import CompatiblePair
from .rootdata import CartanDatum, bilinear_form, inversion_roots, is_reduced
from .uqn import MinorSpec


@dataclass(frozen=True)
class IceQuiver:
    """A staircase quiver: positions 1..m with rows, arrows, and frozen set."""

    datum: CartanDatum
    word: tuple
    arrows: tuple        # ((src, dst, multiplicity), ...) sorted
    frozen: frozenset

    @property
    def positions(self):
        return tuple(range(1, len(self.word) + 1))

    def row(self, t):
        return self.word[t - 1]

    def arrow_multiset(self):
        return {(s, d): m for s, d, m in self.arrows}


def _staircase_rule(word):
    """({t: t+}, rule pairs) of a word: t+ is the next position of t's row,
    or n + 1; the rule pairs are the (a, b) with a < b < a+ <= b+, whose
    rows differ because no position of a's row lies strictly inside
    (a, a+)."""
    n = len(word)
    plus, after = {}, {}
    for t in range(n, 0, -1):
        plus[t] = after.get(word[t - 1], n + 1)
        after[word[t - 1]] = t
    pairs = [(a, b) for a in range(1, n + 1)
             for b in range(a + 1, plus[a]) if plus[a] <= plus[b]]
    return plus, pairs


def build_initial_quiver(word, datum: CartanDatum) -> IceQuiver:
    """The staircase quiver Q(i_1, ..., i_m) of a reduced word."""
    word = tuple(word)
    if not is_reduced(datum, word):
        raise ValueError("word %r is not reduced" % (word,))
    m = len(word)
    plus, pairs = _staircase_rule(word)
    arrows = [(plus[t], t, 1) for t in plus if plus[t] <= m]
    # Inter-row arrows carry multiplicity -i.j = -d_i a_ij.
    for a, b in pairs:
        i, j = word[a - 1], word[b - 1]
        mult = -datum.d(i) * datum.a(i, j)
        if mult:
            arrows.append((a, b, mult))
    frozen = frozenset(t for t in plus if plus[t] > m)
    return IceQuiver(datum, word, tuple(sorted(arrows)), frozen)


def initial_cluster_variables(word, datum: CartanDatum):
    """The minor labels Y_t = D(s_{i1}...s_{it} w_{it}, w_{it}), one per vertex."""
    word = tuple(word)
    return [MinorSpec(datum.fundamental_weight(word[t - 1]), word[:t])
            for t in range(1, len(word) + 1)]


@dataclass(frozen=True)
class ExchangeData:
    """Orbit-labelled exchange matrix with rows S and exchangeable columns."""

    labels: tuple        # orbit labels (tuples of positions), full vertex set S
    exchangeable: tuple  # the subset of labels that index columns
    matrix: tuple        # rows aligned with labels, columns with exchangeable
    sizes: tuple         # orbit sizes (skew-symmetrizers of the principal part)


class OrbitCompatibilityError(ValueError):
    pass


def fold_exchange_matrix(quiver: IceQuiver, orbits=None) -> ExchangeData:
    """Orbit-sum the staircase quiver into an exchange matrix.

    b_{ts} counts arrows from one element of orbit t to all elements of
    orbit s, arrows into s positive and arrows out of s negative.  Columns
    are the exchangeable orbits.  Every representative of t must give the
    same count, otherwise the partition is not automorphism-compatible.
    Frozen and mutable vertices may not share an orbit.
    """
    positions = quiver.positions
    if orbits is None:
        orbits = [(t,) for t in positions]
    orbits = [tuple(sorted(o)) for o in orbits]
    covered = sorted(p for o in orbits for p in o)
    if covered != sorted(positions):
        raise OrbitCompatibilityError("orbits do not partition the positions")
    mult = quiver.arrow_multiset()

    def signed_count(rep, orbit):
        total = 0
        for v in orbit:
            total += mult.get((rep, v), 0) - mult.get((v, rep), 0)
        return total

    labels = tuple(sorted(orbits))
    for orbit in labels:
        flags = {t in quiver.frozen for t in orbit}
        if len(flags) > 1:
            raise OrbitCompatibilityError(
                "orbit %r mixes frozen and exchangeable vertices" % (orbit,))
    exchangeable = tuple(o for o in labels if o[0] not in quiver.frozen)
    matrix = []
    for t in labels:
        row = []
        for s in exchangeable:
            counts = {signed_count(rep, s) for rep in t}
            if len(counts) > 1:
                raise OrbitCompatibilityError(
                    "representatives of %r disagree against %r" % (t, s))
            row.append(counts.pop())
        matrix.append(tuple(row))
    return ExchangeData(labels, exchangeable, tuple(matrix),
                        tuple(len(o) for o in labels))


def vertex_orbits_from_unfolding(j_word, quiver: QuiverWithAut):
    """Position orbits of the automorphism acting on an unfolded word's quiver.

    Each letter of the word over orbits expands to a block of positions;
    inside a block, the position holding vertex v maps to the position
    holding a(v).  The automorphism cycles through the vertices of an
    orbit, so each block is one position orbit.  Returns (unfolded word,
    position orbit list, position permutation).
    """
    unfolded = []
    orbits = []
    perm = {}
    for orbit in orbit_word(j_word, quiver):
        spot = {v: pos for pos, v in enumerate(orbit, len(unfolded) + 1)}
        unfolded.extend(orbit)  # ascending, matching unfold_word's convention
        orbits.append(tuple(spot.values()))
        for v, pos in spot.items():
            perm[pos] = spot[quiver.automorphism[v]]
    return tuple(unfolded), orbits, perm


def staircase(datum, word, quiver=None):
    """(staircase quiver, position orbits to sum it over) of a word; with a
    quiver with automorphism the staircase is built on the unfolded word.
    A symmetrizable datum has no quiver of its own, so it needs one."""
    if quiver is None:
        if any(d != 1 for d in datum.symmetrizers):
            raise ValueError(
                "symmetrizable datum given without its "
                "quiver-with-automorphism: the staircase quiver lives on the "
                "unfolded word, so pass the quiver input instead")
        return build_initial_quiver(word, datum), None
    unfolded, orbits, _ = vertex_orbits_from_unfolding(word, quiver)
    return build_initial_quiver(unfolded, underlying_datum(quiver)), orbits


def resolve_word(datum, word, quiver=None):
    """A word's letters as the datum's index labels (orbits of a quiver
    input); KeyError for a letter outside them."""
    if quiver is not None:
        return orbit_word(word, quiver)
    for letter in word:
        datum.pos(letter)
    return tuple(word)


def initial_pair(datum, word):
    """(initial compatible pair over positions 1..n, {t: beta_t}) of a
    reduced word over the datum's indices, from the word alone.

    beta_t = w_{i_t} - s_{i_1}...s_{i_t} w_{i_t} is the degree of Y_t.  It
    is the sum of the inversion roots gamma_k over the positions k <= t of
    t's row, since w_{k-1} w_i - w_k w_i is gamma_k when i_k = i and 0
    otherwise; one inversion-root pass gives these running sums and checks
    that the word is reduced (every gamma_k positive), for any
    symmetrizable datum.  For s < t,
    Lambda_st = (beta_s, beta_t) - 2 d_{i_t} [beta_s : alpha_{i_t}], where
    [beta : alpha] is the coefficient of alpha in beta (Geiss-Leclerc-
    Schroer 2013, Kimura 2012, in this package's conventions).  B is the
    staircase rule: b_{t+,t} = 1 = -b_{t,t+}, and b_ab = -a_{i_a i_b},
    b_ba = a_{i_b i_a} for each rule pair (a, b); the positions t with
    t+ <= n are exchangeable.  On a folded datum this is the unfolded
    staircase summed over position orbits.
    """
    gammas = inversion_roots(datum, word)
    if not all(gamma.is_positive() for gamma in gammas):
        raise ValueError("word %r is not reduced" % (word,))
    n = len(word)
    labels = tuple(range(1, n + 1))
    betas, row_sums = [], {}
    for i, gamma in zip(word, gammas):
        row_sums[i] = row_sums[i] + gamma if i in row_sums else gamma
        betas.append(row_sums[i])
    lam = [[0] * n for _ in word]
    for t, i in enumerate(word):
        for s in range(t):
            value = bilinear_form(betas[s], betas[t]) \
                - 2 * datum.d(i) * betas[s].coords[datum.pos(i)]
            lam[s][t] = value
            lam[t][s] = -value
    plus, pairs = _staircase_rule(word)
    b = {}
    for t, u in plus.items():
        if u <= n:
            b[u, t], b[t, u] = 1, -1
    for s, t in pairs:
        i, j = word[s - 1], word[t - 1]
        b[s, t], b[t, s] = -datum.a(i, j), datum.a(j, i)
    ex_labels = tuple(t for t in labels if plus[t] <= n)
    matrix = [[b.get((s, t), 0) for t in ex_labels] for s in labels]
    pair = CompatiblePair(labels, ex_labels, lam, matrix)
    return pair, dict(zip(labels, betas))


def quiver_to_dot(ice: IceQuiver) -> str:
    """DOT text: vertices "t:i", frozen vertices double-boxed, multiplicities
    as edge labels."""
    lines = ["digraph staircase {", "  rankdir=LR;"]
    for t in ice.positions:
        label = "%d:%s" % (t, _label(ice.row(t)))
        shape = 'shape=box, peripheries=2' if t in ice.frozen else 'shape=box'
        lines.append('  v%d [label="%s", %s];' % (t, label, shape))
    for s, d, m in ice.arrows:
        suffix = ' [label="%d"]' % m if m > 1 else ""
        lines.append("  v%d -> v%d%s;" % (s, d, suffix))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _label(i):
    if isinstance(i, tuple):
        return "{%s}" % ",".join(str(x) for x in i)
    return str(i)


def exchange_to_json(data: ExchangeData) -> dict:
    return {"labels": [list(o) for o in data.labels],
            "exchangeable": [list(o) for o in data.exchangeable],
            "matrix": [list(row) for row in data.matrix],
            "sizes": list(data.sizes)}
