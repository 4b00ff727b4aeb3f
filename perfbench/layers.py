"""Which qfold functions the traced run wraps, and the per-layer metrics.

Every metric is named <module>.<function>.<stat>.  `calls` and the size
counts repeat exactly for a seed; `self_s` is span time minus child time.
A ratio whose base is zero (no calls on this workload) reads 0.
"""

from __future__ import annotations

import math

from tracer import Tracer

# (metric prefix, defining module, qualname, wrapper kind, extra stats).
# Kinds: span (calls, self_s), leaf (calls, self_s), counter (calls).
LAYERS = [
    ("laurent.scalar_new", "qfold.laurent", "LaurentScalar.__init__",
     "counter", ()),
    ("laurent.mul", "qfold.laurent", "LaurentScalar.__mul__", "leaf", ()),
    ("laurent.add", "qfold.laurent", "LaurentScalar.__add__", "leaf", ()),
    ("laurent.divexact", "qfold.laurent", "LaurentScalar.divexact", "leaf",
     ("failed",)),
    ("rootdata.is_reduced", "qfold.rootdata", "is_reduced", "span", ()),
    ("rootdata.bilinear_form", "qfold.rootdata", "bilinear_form", "span", ()),
    ("rootdata.weyl_elements", "qfold.rootdata", "weyl_elements", "span", ()),
    ("folding.fold", "qfold.folding", "fold", "span", ()),
    ("initquiver.build_initial_quiver", "qfold.initquiver",
     "build_initial_quiver", "span", ()),
    ("initquiver.fold_exchange_matrix", "qfold.initquiver",
     "fold_exchange_matrix", "span", ()),
    ("uqn.shuffle_product", "qfold.uqn", "shuffle_product", "span",
     ("term_pairs", "interleavings", "out_terms", "merge_ratio")),
    ("uqn.qcommute_exponent", "qfold.uqn", "qcommute_exponent", "span",
     ("none",)),
    ("uqn.minor_to_shuffle", "qfold.uqn", "minor_to_shuffle", "span",
     ("out_terms",)),
    ("uqn.pair", "qfold.uqn", "OracleContext.pair", "span", ("hit_ratio",)),
    ("uqn.apply_e", "qfold.uqn", "OracleContext.apply_e", "counter",
     ("hit_ratio",)),
    ("uqn.shuffle_divide_left", "qfold.uqn", "shuffle_divide_left", "span",
     ("system_cells", "failed")),
    ("uqn.skew_derivative_left", "qfold.uqn", "skew_derivative_left", "span",
     ()),
    ("uqn.extremal_word", "qfold.uqn", "extremal_word", "span", ()),
    ("uqn.bar_element", "qfold.uqn", "bar_element", "span", ()),
    ("qcluster.mutate_seed", "qfold.qcluster", "mutate_seed", "span",
     ("useful_ratio",)),
    ("qcluster.normalized_monomial", "qfold.qcluster", "normalized_monomial",
     "span", ("out_terms",)),
    ("qcluster.torus_mul", "qfold.qcluster", "TorusElement.__mul__", "span",
     ("term_pairs",)),
    ("qcluster.left_divide", "qfold.qcluster", "left_divide", "span",
     ("quotient_terms", "failed")),
    ("qcluster.seed_canonical_key", "qfold.qcluster", "seed_canonical_key",
     "span", ()),
    ("qcluster.seed_post_init", "qfold.qcluster", "QuantumSeed.__post_init__",
     "span", ()),
    ("qcluster.check_compatible", "qfold.qcluster", "check_compatible",
     "span", ()),
    ("qcluster.mutate_pair", "qfold.qcluster", "mutate_pair", "span", ()),
    ("qcluster.bar_defect", "qfold.qcluster", "bar_defect", "span", ()),
    ("verify.oracle_seed_data", "qfold.verify", "oracle_seed_data", "span",
     ()),
    ("verify.normalized_shuffle_monomial", "qfold.verify",
     "normalized_shuffle_monomial", "span", ()),
    ("verify.realized_exchange_graph", "qfold.verify",
     "realized_exchange_graph", "span", ()),
    ("verify.run_check", "qfold.verify", "run_check", "span", ()),
    ("cli.main", "qfold.cli", "main", "span", ()),
]

_HIGHER_IS_BETTER = {"hit_ratio", "useful_ratio", "merge_ratio"}


def _unit(stat):
    if stat == "self_s":
        return "s"
    if stat.endswith("_ratio"):
        return "ratio"
    if stat == "stdout_bytes":
        return "bytes"
    return "count"


def metric_specs():
    """[(name, unit, better)] for every per-layer metric, in report order."""
    out = []
    for prefix, _, _, kind, stats in LAYERS:
        base = ("calls",) if kind == "counter" else ("calls", "self_s")
        for stat in base + stats:
            better = "higher" if stat in _HIGHER_IS_BETTER else "lower"
            out.append(("%s.%s" % (prefix, stat), _unit(stat), better))
    out.append(("cli.stdout_bytes", "bytes", "lower"))
    out.append(("trace.overhead_ratio", "ratio", "lower"))
    return out


def _multinomial(content):
    out = math.factorial(sum(content))
    for c in content:
        out //= math.factorial(c)
    return out


class LayerTrace:
    """Installs the tracer on the loaded qfold modules and reports metrics."""

    def __init__(self):
        import qfold.laurent
        import qfold.qcluster
        import qfold.uqn

        self.tracer = Tracer()
        self.counts = self.tracer.counts
        self._key_of = qfold.qcluster.seed_canonical_key
        self._errors = {
            "laurent.divexact": qfold.laurent.LaurentDivisionError,
            "uqn.shuffle_divide_left": qfold.uqn.ShuffleDivisionError,
            "qcluster.left_divide": qfold.qcluster.TorusDivisionError,
        }
        self.new_job()

    def new_job(self):
        """Reset the seed-novelty state: a seed is new once per job."""
        self._seen = set()
        self._kept = {}

    # -- hooks: sizes and ratios from arguments and results ---------------

    def _hooks(self, prefix):
        counts = self.counts
        if prefix == "uqn.shuffle_product":
            def after(args, result):
                x, y = args[0], args[1]
                pairs = len(x.terms) * len(y.terms)
                if pairs:
                    lx = len(next(iter(x.terms)))
                    ly = len(next(iter(y.terms)))
                    counts[prefix + ".interleavings"] += \
                        pairs * math.comb(lx + ly, lx)
                counts[prefix + ".term_pairs"] += pairs
                counts[prefix + ".out_terms"] += len(result.terms)
            return None, after
        if prefix == "uqn.qcommute_exponent":
            def after(args, result):
                counts[prefix + ".none"] += result is None
            return None, after
        if prefix in ("uqn.minor_to_shuffle", "qcluster.normalized_monomial"):
            def after(args, result):
                counts[prefix + ".out_terms"] += len(result.terms)
            return None, after
        if prefix == "qcluster.left_divide":
            def after(args, result):
                counts[prefix + ".quotient_terms"] += len(result.terms)
            return None, after
        if prefix == "qcluster.torus_mul":
            def before(args):
                counts[prefix + ".term_pairs"] += \
                    len(args[0].terms) * len(args[1].terms)
            return before, None
        if prefix == "uqn.pair":
            def before(args):
                context, lam, x, y = args[:4]
                counts[prefix + ".hits"] += (lam.coords, x, y) in context._pair
            return before, None
        if prefix == "uqn.apply_e":
            def before(args):
                context, lam, i, letters = args[:4]
                counts[prefix + ".hits"] += \
                    (lam.coords, i, letters) in context._e_apply
            return before, None
        if prefix == "uqn.shuffle_divide_left":
            def before(args):
                a, c = args[0], args[1]
                if a.is_zero() or c.is_zero():
                    return
                nu = [x - y for x, y in zip(c.weight.coords, a.weight.coords)]
                if min(nu) >= 0:
                    rows = _multinomial(c.weight.coords)
                    counts[prefix + ".system_cells"] += \
                        rows * (_multinomial(nu) + 1)
            return before, None
        if prefix == "qcluster.mutate_seed":
            return self._note_source_seed, self._count_new_seed
        return None, None

    def _note_source_seed(self, args):
        seed = args[0]
        kept = self._kept.get(id(seed))
        if kept is None:
            kept = self._kept[id(seed)] = (seed, self._key_of(seed))
            self._seen.add(kept[1])

    def _count_new_seed(self, args, result):
        key = self._key_of(result)
        if key not in self._seen:
            self._seen.add(key)
            self._kept[id(result)] = (result, key)
            self.counts["qcluster.mutate_seed.new"] += 1

    # -- install / report -------------------------------------------------

    def install(self):
        tracer = self.tracer
        for prefix, module, qualname, kind, _ in LAYERS:
            before, after = self._hooks(prefix)
            errors = self._errors.get(prefix, ())
            if kind == "span":
                wrap = (lambda fn, p=prefix, b=before, a=after, e=errors:
                        tracer.span(p, fn, before=b, after=a, errors=e))
            elif kind == "leaf":
                wrap = (lambda fn, p=prefix, e=errors:
                        tracer.leaf(p, fn, errors=e))
            else:
                wrap = (lambda fn, p=prefix, b=before:
                        tracer.counter(p, fn, before=b))
            tracer.patch(module, qualname, wrap)

    def uninstall(self):
        self.tracer.unpatch()

    def metrics(self, stdout_bytes, overhead_ratio):
        """{name: value} for every metric in metric_specs()."""
        counts = self.counts
        values = {}
        for name, (calls, self_s) in self.tracer.span_totals().items():
            values[name + ".calls"] = calls
            values[name + ".self_s"] = self_s
        for name, (calls, seconds) in self.tracer.leaves.items():
            values[name + ".calls"] = calls
            values[name + ".self_s"] = seconds

        def ratio(num, den):
            return num / den if den else 0.0

        for key, value in counts.items():
            values.setdefault(key, value)
        values["uqn.shuffle_product.merge_ratio"] = ratio(
            counts["uqn.shuffle_product.out_terms"],
            counts["uqn.shuffle_product.interleavings"])
        values["uqn.pair.hit_ratio"] = ratio(
            counts["uqn.pair.hits"], values["uqn.pair.calls"])
        values["uqn.apply_e.hit_ratio"] = ratio(
            counts["uqn.apply_e.hits"], counts["uqn.apply_e.calls"])
        values["qcluster.mutate_seed.useful_ratio"] = ratio(
            counts["qcluster.mutate_seed.new"],
            values["qcluster.mutate_seed.calls"])
        values["cli.stdout_bytes"] = stdout_bytes
        values["trace.overhead_ratio"] = overhead_ratio
        return {name: (values.get(name, 0), unit)
                for name, unit, _ in metric_specs()}
