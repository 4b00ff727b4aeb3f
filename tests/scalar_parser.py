"""The rendering grammar of Laurent scalars, "a*q^k + ...", parsed back:
a test helper for writing expected scalars as str(LaurentScalar) prints
them.  Coefficients are ints, as in the ring Z[q, q^-1]; a rational
coefficient such as "1/2*q" is a parse error."""

from __future__ import annotations

import re

from qfold.laurent import ZERO, LaurentScalar


_TERM_RE = re.compile(
    r"""^\s*
        (?P<coeff>[+-]?\s*\d+|[+-])?           # optional integer coefficient
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
        if coeff_text is None or coeff_text == "+":
            coeff = 1
        elif coeff_text == "-":
            coeff = -1
        else:
            coeff = int(coeff_text.replace(" ", ""))
        if m.group("q") is None:
            exp = 0
        elif m.group("exp") is None:
            exp = 1
        else:
            exp = int(m.group("exp"))
        terms.append((exp, coeff))
    return LaurentScalar(terms)
