"""Per-layer metrics: which recorded spans and counters make up each one.

Span names are "<module>.<function>" or "<module>.<Class>.<method>", named
after the module that defines the code.  `per_layer(ctx)` turns one traced
session (plus the kernel results and the run's job outcomes) into the
metrics BENCHMARK.json declares under per_layer, in that order.
"""


def _irreducibles_returned(rec, result):
    rec.add("fields.irreducibles_returned", len(result))


def _tower_degree(rec, result):
    rec.gauge_max("towers.max_degree", result.degree())


def _place_route(rec, result):
    rec.add("carlitz.via_series", int(result.via_series))


RESULT_HOOKS = {
    "fields.monic_irreducibles": _irreducibles_returned,
    "towers.LocalFieldTower.extend_eisenstein": _tower_degree,
    "towers.LocalFieldTower.extend_unramified": _tower_degree,
    "carlitz.carlitz_v_log_abs": _place_route,
}


class Context:
    """What one traced run measured: span summary, kernels, job outcomes."""

    def __init__(self, summary, kernels, exit_codes, overhead_ratio, fail_ratio):
        self.spans = summary["spans"]
        self.counts = summary["counts"]
        self.gauges = summary["gauges"]
        self.kernels = kernels
        self.exit_codes = exit_codes
        self.overhead_ratio = overhead_ratio
        self.fail_ratio = fail_ratio

    def self_s(self, *names):
        return sum(self.spans.get(n, {}).get("self_s", 0.0) for n in names)

    def calls(self, *names):
        return sum(self.spans.get(n, {}).get("calls", 0) for n in names)

    def module_self_s(self, module):
        return sum(v["self_s"] for k, v in self.spans.items() if k.startswith(module + "."))

    def module_calls(self, module):
        return sum(v["calls"] for k, v in self.spans.items() if k.startswith(module + "."))


def _ratio(num, den):
    return num / den if den else 0.0


def _calls_and_self(metric, span):
    return [(metric + ".calls", "count", lambda c: c.calls(span)),
            (metric + ".self_s", "s", lambda c: c.self_s(span))]


def _kernel(name, unit):
    return (name, unit, lambda c: c.kernels[name])


TOWER = "towers.LocalFieldTower."
METRICS = (
    # fields
    [("fields.self_s", "s", lambda c: c.module_self_s("fields")),
     ("fields.monic_irreducibles.self_s", "s", lambda c: c.self_s("fields.monic_irreducibles")),
     ("fields.monic_irreducibles.total_s", "s",
      lambda c: c.spans.get("fields.monic_irreducibles", {}).get("total_s", 0.0)),
     ("fields.is_irreducible.calls", "count", lambda c: c.calls("fields.PolyFq.is_irreducible")),
     ("fields.irreducible_yield", "ratio",
      lambda c: _ratio(c.counts.get("fields.irreducibles_returned", 0),
                       c.calls("fields.PolyFq.is_irreducible"))),
     ("fields.divmod.calls", "count", lambda c: c.calls("fields.PolyFq.divmod")),
     ("fields.mul.calls", "count", lambda c: c.counts.get("fields.FqElem.__mul__", 0)),
     ("fields.add.calls", "count", lambda c: c.counts.get("fields.FqElem.__add__", 0)),
     ("fields.generator.self_s", "s",
      lambda c: c.self_s("fields.FqField._build_tables",
                         "fields.FqField.multiplicative_generator",
                         "fields.FqField.root_of_unity")),
     ("fields.embedding.self_s", "s", lambda c: c.self_s("fields.FqField.embedding")),
     _kernel("fields.k.mul_F9_ns", "ns"),
     _kernel("fields.k.add_F9_ns", "ns"),
     _kernel("fields.k.mul_F256_ns", "ns"),
     _kernel("fields.k.irreducibles_F4_d5_s", "s"),
     # series
     ("series.self_s", "s", lambda c: c.module_self_s("series"))]
    + [m for op, attr in (("mul", "__mul__"), ("inv", "inv"), ("compose", "compose"),
                          ("pow_int", "pow_int"))
       for m in _calls_and_self("series." + op, "series.TruncSeries." + attr)]
    + [_kernel("series.k.mul_n50_ms", "ms"),
       _kernel("series.k.mul_n200_ms", "ms"),
       _kernel("series.k.inv_n50_ms", "ms"),
       _kernel("series.k.inv_n200_ms", "ms"),
       # coeffseries
       ("coeffseries.self_s", "s", lambda c: c.module_self_s("coeffseries")),
       ("coeffseries.mul.self_s", "s", lambda c: c.self_s("coeffseries.CoeffSeries.__mul__")),
       ("coeffseries.pow.self_s", "s", lambda c: c.self_s("coeffseries.CoeffSeries.pow")),
       ("coeffseries.substitute.self_s", "s",
        lambda c: c.self_s("coeffseries.CoeffSeries.substitute")),
       ("coeffseries.reversion.self_s", "s", lambda c: c.self_s("coeffseries.reversion")),
       # towers
       ("towers.self_s", "s", lambda c: c.module_self_s("towers"))]
    + [m for op, span in (("extend_eisenstein", TOWER + "extend_eisenstein"),
                          ("extend_unramified", TOWER + "extend_unramified"),
                          ("lift", TOWER + "lift"),
                          ("solve_frobenius_recursion", "towers.solve_frobenius_recursion"),
                          ("solve_kummer", "towers.solve_kummer"),
                          ("newton_root", "towers.newton_root"))
       for m in _calls_and_self("towers." + op, span)]
    + [("towers.elem_mul.calls", "count", lambda c: c.counts.get("towers.TowerElem.__mul__", 0)),
       ("towers.max_degree", "degree", lambda c: c.gauges.get("towers.max_degree", 0)),
       _kernel("towers.k.extend_lift_ms", "ms"),
       _kernel("towers.k.recursion_ms", "ms"),
       # lfunctions
       ("lfunctions.self_s", "s", lambda c: c.module_self_s("lfunctions"))]
    + _calls_and_self("lfunctions.tame", "lfunctions.LocalGaloisDatum.tame")
    + [("lfunctions.%s.self_s" % fn, "s", lambda c, fn=fn: c.self_s("lfunctions." + fn))
       for fn in ("z_v_rational", "mu_art_v", "regularized_sum")]
    + [_kernel("lfunctions.k.tame_ms", "ms"),
       # ratfunc
       ("ratfunc.self_s", "s", lambda c: c.module_self_s("ratfunc")),
       # cmshtuka
       ("cmshtuka.self_s", "s", lambda c: c.module_self_s("cmshtuka"))]
    + [m for fn in ("omega_period", "omega_valuation_closed", "omega_valuation_via_L")
       for m in _calls_and_self("cmshtuka." + fn, "cmshtuka." + fn)]
    # amotive: no CLI path reaches it yet, so its span time is always 0; the
    # kernel times the bridge that ROADMAP item 4 will put on the carlitz path
    + [("amotive.calls", "count", lambda c: c.module_calls("amotive")),
       _kernel("amotive.k.bridge_ms", "ms"),
       # carlitz
       ("carlitz.self_s", "s", lambda c: c.module_self_s("carlitz")),
       ("carlitz.places", "count", lambda c: c.calls("carlitz.carlitz_v_log_abs")),
       ("carlitz.series_route_ratio", "ratio",
        lambda c: _ratio(c.counts.get("carlitz.via_series", 0),
                         c.calls("carlitz.carlitz_v_log_abs"))),
       ("carlitz.finite_places.self_s", "s", lambda c: c.self_s("carlitz.finite_places")),
       ("carlitz.carlitz_v_log_abs.self_s", "s",
        lambda c: c.self_s("carlitz.carlitz_v_log_abs")),
       # cli
       ("cli.self_s", "s", lambda c: c.module_self_s("cli"))]
    + [("cli.exit.%d" % code, "count", lambda c, code=code: c.exit_codes.count(code))
       for code in (0, 1, 2)]
    + [("trace.overhead_ratio", "ratio", lambda c: c.overhead_ratio),
       ("fail_ratio", "ratio", lambda c: c.fail_ratio)]
)


def per_layer(ctx):
    return {name: {"value": fn(ctx), "unit": unit} for name, unit, fn in METRICS}
