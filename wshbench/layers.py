"""Per-layer metrics, derived from the tracer's per-function stats.

Each metric sums over every command of a workload pass.  A ratio whose
base is zero reads 0.  ``calls`` counts calls across a module boundary for
module-level functions and every call for methods (see ``tracer.py``).
"""

from __future__ import annotations


class Totals:
    """Per-function stats and counters summed over several commands."""

    def __init__(self, stats_list):
        self.functions = {}
        self.counters = {}
        self.wall_s = 0.0
        for stats in stats_list:
            self.wall_s += stats["wall_s"]
            for name, row in stats["functions"].items():
                acc = self.functions.setdefault(
                    name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0}
                )
                for key in acc:
                    acc[key] += row[key]
            for key, n in stats["counters"].items():
                self.counters[key] = self.counters.get(key, 0) + n

    def _sum(self, key, names):
        return sum(self.functions.get(n, {}).get(key, 0) for n in names)

    def calls(self, *names):
        return self._sum("calls", names)

    def incl(self, *names):
        return self._sum("incl_s", names)

    def layer_self(self, layer):
        prefix = layer + "."
        return sum(
            row["self_s"] for n, row in self.functions.items() if n.startswith(prefix)
        )

    def counter(self, key):
        return self.counters.get(key, 0)


def _ratio(num, den):
    return num / den if den else 0.0


FIELD_MUL = ("field.FieldElem.__mul__", "field.FieldElem.__rmul__")
# __rsub__ and __rtruediv__ delegate to __sub__ and __truediv__
FIELD_ADD = (
    "field.FieldElem.__add__", "field.FieldElem.__radd__", "field.FieldElem.__sub__"
)
FIELD_DIV = ("field.FieldElem.__truediv__",)
JACK_BUILD = "symfunc.SymmetricFunctions._compute_jack"
SPAN_ADD = "linalg.SpanBasis.add_row"
MP_MUL = ("multipoly.MultiPoly.__mul__", "multipoly.MultiPoly.__rmul__")

# layers whose self time is reported, in the order of the README table
LAYERS = (
    "poly", "field", "symfunc", "linalg", "operators", "multipoly", "shuffle",
    "presentation", "shc", "series", "report",
)

# (name, unit, better, value from Totals); trace.overhead_ratio is added by
# the harness, which knows the untraced wall time
PER_LAYER = [
    ("poly.pgcd.calls", "count", "lower", lambda t: t.calls("poly.pgcd")),
    (
        "poly.pgcd.unit_ratio", "ratio", "lower",
        lambda t: _ratio(t.counter("poly.pgcd.unit"), t.calls("poly.pgcd")),
    ),
    ("poly.pmul.calls", "count", "lower", lambda t: t.calls("poly.pmul")),
    ("poly.pdivexact.calls", "count", "lower", lambda t: t.calls("poly.pdivexact")),
    ("field.mul.calls", "count", "lower", lambda t: t.calls(*FIELD_MUL)),
    ("field.add.calls", "count", "lower", lambda t: t.calls(*FIELD_ADD)),
    ("field.div.calls", "count", "lower", lambda t: t.calls(*FIELD_DIV)),
    (
        "field.mul.z_ratio", "ratio", "higher",
        lambda t: _ratio(t.counter("field.mul.z"), t.calls(*FIELD_MUL)),
    ),
    ("symfunc.jack_build.calls", "count", "lower", lambda t: t.calls(JACK_BUILD)),
    ("symfunc.jack_build_s", "s", "lower", lambda t: t.incl(JACK_BUILD)),
    ("linalg.mat_mul.calls", "count", "lower", lambda t: t.calls("linalg.mat_mul")),
    ("linalg.mat_mul_s", "s", "lower", lambda t: t.incl("linalg.mat_mul")),
    ("linalg.mat_inv_s", "s", "lower", lambda t: t.incl("linalg.mat_inv")),
    ("linalg.span_add.calls", "count", "lower", lambda t: t.calls(SPAN_ADD)),
    (
        "linalg.span_add.accept_ratio", "ratio", "higher",
        lambda t: _ratio(t.counter("linalg.span_add.accept"), t.calls(SPAN_ADD)),
    ),
    ("linalg.fraction_rank_s", "s", "lower", lambda t: t.incl("linalg.fraction_rank")),
    ("linalg.kernel_s", "s", "lower", lambda t: t.incl("linalg.kernel_of_vectors")),
    (
        "operators.sekiguchi_s", "s", "lower",
        lambda t: t.incl("operators.OpContext.sekiguchi"),
    ),
    (
        "operators.gen_hit_ratio", "ratio", "higher",
        lambda t: _ratio(
            t.counter("operators.gen.calls") - t.counter("operators.gen.distinct"),
            t.counter("operators.gen.calls"),
        ),
    ),
    (
        "operators.compose.calls", "count", "lower",
        lambda t: t.calls("operators.GradedOp.compose"),
    ),
    (
        "operators.compose_s", "s", "lower",
        lambda t: t.incl("operators.GradedOp.compose"),
    ),
    ("multipoly.mul.calls", "count", "lower", lambda t: t.calls(*MP_MUL)),
    (
        "multipoly.divexact.calls", "count", "lower",
        lambda t: t.calls("multipoly.MultiPoly.divexact"),
    ),
    (
        "multipoly.divexact_s", "s", "lower",
        lambda t: t.incl("multipoly.MultiPoly.divexact"),
    ),
    (
        "shuffle.star_product.calls", "count", "lower",
        lambda t: t.calls("shuffle.star_product"),
    ),
    ("shuffle.star_product_s", "s", "lower", lambda t: t.incl("shuffle.star_product")),
    (
        "presentation.evaluate.calls", "count", "lower",
        lambda t: t.calls("presentation.FreeElement.evaluate"),
    ),
    (
        "presentation.evaluate_s", "s", "lower",
        lambda t: t.incl("presentation.FreeElement.evaluate"),
    ),
    (
        "presentation.normal_order_s", "s", "lower",
        lambda t: t.incl("presentation.FreeElement.normal_order"),
    ),
    (
        "shc.e_operator_s", "s", "lower",
        lambda t: t.incl("shc.ShcContext.e_operator"),
    ),
    ("shc.central_series_s", "s", "lower", lambda t: t.incl("shc.central_series")),
    ("series.exp.calls", "count", "lower", lambda t: t.calls("series.series_exp")),
    ("report.render_s", "s", "lower", lambda t: t.incl("report.Report.render")),
] + [
    ("%s.self_s" % layer, "s", "lower", lambda t, layer=layer: t.layer_self(layer))
    for layer in LAYERS
] + [
    ("trace.wall_s", "s", "lower", lambda t: t.wall_s),
]

OVERHEAD = ("trace.overhead_ratio", "ratio", "lower")


def layer_metrics(stats_list):
    """{name: value} for every PER_LAYER metric over the given stats."""
    totals = Totals(stats_list)
    return {name: value(totals) for name, _, _, value in PER_LAYER}


def units():
    return {name: unit for name, unit, _, _ in PER_LAYER} | {OVERHEAD[0]: OVERHEAD[1]}
