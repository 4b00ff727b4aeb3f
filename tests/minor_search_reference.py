"""Reference minor naming: the exhaustive search over all pairs of Weyl
elements that the weight-indexed lookup in qfold.verify replaces.

For every fundamental weight omega_i and every pair (u, v) of BFS words it
compares D(u omega_i, v omega_i) with the element whenever the weights
match, and returns the first hit.  O(|W|^2 rank) minors, so only for the
differential test on small types.
"""

from __future__ import annotations

from qfold.rootdata import weyl_elements
from qfold.uqn import MinorSpec, minor_to_shuffle, theta_star
from weights_reference import to_root
from weyl_reference import apply_word


def reference_name(datum, element, context):
    def wname(u):
        return "s" + "s".join(str(x) for x in u) if u else "1"

    for i in datum.indices:
        if element == theta_star(datum, i):
            return "theta*_%s" % (i,)
    elements = list(weyl_elements(datum).values())
    for i in datum.indices:
        omega = datum.fundamental_weight(i)
        for u in elements:
            mu = apply_word(u, omega)
            for v in elements:
                diff = to_root(apply_word(v, omega) - mu)
                if diff is None or diff.coords != element.weight.coords:
                    continue
                if minor_to_shuffle(MinorSpec(omega, u, v), context) == element:
                    return "D(%s w_%s, %s w_%s)" % (wname(u), i, wname(v), i)
    return None
