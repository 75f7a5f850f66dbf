"""Which nullkit functions the traced run wraps, and the per-layer
metrics computed from what the wrappers recorded.

Layer names are nullkit's module names.  Counts must repeat exactly
between runs; times are reported but never compared.
"""

from tracer import Tracer

FIELD_OPS = ("__add__", "__sub__", "__neg__", "__mul__", "inv", "__pow__")


def _mul_pairs(tracer, rec, frame, args, result):
    other = args[1]
    rec.bump("term_pairs",
             len(args[0].terms) * len(getattr(other, "terms", (1,))))


def _reduce_after(tracer, rec, frame, args, result):
    if tracer.parent_name() != "groebner.buchberger":
        return
    if result.is_zero:
        rec.bump("zero_in_buchberger")
    else:
        parent = tracer.stack[-1]
        parent.extra = (parent.extra or 0) + 1


def _buchberger_after(tracer, rec, frame, args, result):
    # Nonzero reductions inside the call are S-pair reductions plus
    # the final interreduction of each kept element; a unit result
    # returns early and interreduces nothing.
    nonzero = frame.extra or 0
    useful = nonzero - (0 if result.is_unit else len(result))
    rec.bump("useful", useful)
    inputs = sum(1 for g in args[0] if not g.is_zero)
    rec.extra["basis_max"] = max(rec.extra.get("basis_max", 0),
                                 inputs + useful)


def _saturate_after(tracer, rec, frame, args, result):
    rec.bump("rounds", result[1])


def _zero_set_after(tracer, rec, frame, args, result):
    q, n = result.spec.q, result.n
    size = q ** n if result.kind == "affine" else (q ** (n + 1) - 1) // (q - 1)
    rec.bump("points", size)


def _oracle_after(tracer, rec, frame, args, result):
    rec.bump("intersections", len(args[0].points) - 1)


def _search_after(tracer, rec, frame, args, result):
    candidates = getattr(result, "candidates", None)
    if candidates is not None:
        rec.bump("candidates", candidates)


def _method_label(tracer, args, kwargs):
    method = args[2] if len(args) > 2 else kwargs.get("method")
    if method is None:
        method = args[1].method
    # certify_membership recomputes the colon result; keep that cost
    # under certify_s instead of inflating the colon method's time.
    if tracer.parent_name() == "nullstellensatz.certify_membership":
        return f"{method}/certify"
    return method


def install():
    """Wrap nullkit's layer boundaries; returns the live Tracer.

    Spans go on module boundaries; hot inner operations only aggregate."""
    from nullkit import (cli, conjectures, field, groebner, ideals,
                         nullstellensatz, poly, varieties)
    t = Tracer()
    for op in FIELD_OPS:
        t.wrap_method(field.FieldElement, op, f"field.op.{op}")
    t.wrap_function(field, "make_field", "field.make_field", span=True)

    t.wrap_method(poly.Polynomial, "__mul__", "poly.mul", after=_mul_pairs)
    t.wrap_method(poly.MonomialOrder, "key", "poly.order_key")
    for attr in ("__add__", "__neg__", "scale", "evaluate", "compose"):
        t.wrap_method(poly.Polynomial, attr, f"poly.{attr}")
    t.wrap_function(poly, "parse_polynomial", "poly.parse_polynomial")

    t.wrap_function(groebner, "buchberger", "groebner.buchberger",
                    span=True, after=_buchberger_after)
    t.wrap_function(groebner, "s_polynomial", "groebner.s_polynomial")
    t.wrap_function(groebner, "_reduce_full", "groebner._reduce_full",
                    after=_reduce_after)
    t.wrap_function(groebner, "normal_form", "groebner.normal_form")
    t.wrap_function(groebner, "divide_exact", "groebner.divide_exact")

    for attr in ("ideal_intersect", "ideal_quotient", "eliminate",
                 "radical_membership"):
        t.wrap_function(ideals, attr, f"ideals.{attr}", span=True)
    t.wrap_function(ideals, "ideal_saturate", "ideals.ideal_saturate",
                    span=True, after=_saturate_after)
    for attr in ("ideal_sum", "reduced", "is_homogeneous_ideal"):
        t.wrap_function(ideals, attr, f"ideals.{attr}")

    t.wrap_function(varieties, "zero_set", "varieties.zero_set",
                    span=True, after=_zero_set_after)
    t.wrap_function(varieties, "oracle_vanishing_ideal",
                    "varieties.oracle_vanishing_ideal", span=True,
                    after=_oracle_after)
    for attr in ("enumerate_space", "point_ideal"):
        t.wrap_function(varieties, attr, f"varieties.{attr}")

    t.wrap_function(nullstellensatz, "projective_vanishing",
                    "nullstellensatz.projective_vanishing", span=True,
                    label=_method_label)
    for attr in ("affine_vanishing", "certify_membership",
                 "make_certificate", "classify_empty"):
        t.wrap_function(nullstellensatz, attr, f"nullstellensatz.{attr}",
                        span=True)
    for attr in ("_certificate_parts", "_verify_certificate",
                 "gamma_q_star", "gamma_q"):
        t.wrap_function(nullstellensatz, attr, f"nullstellensatz.{attr}")

    for attr in ("counterexample_suite", "enumerate_forms",
                 "find_nonradical_instance"):
        t.wrap_function(conjectures, attr, f"conjectures.{attr}", span=True)
    t.wrap_function(conjectures, "search_witness",
                    "conjectures.search_witness", span=True,
                    after=_search_after)
    ctx = getattr(conjectures, "_SearchContext", None)
    t.wrap_method(ctx, "compose_mod", "conjectures.compose_mod")
    t.wrap_method(ctx, "__init__", "conjectures.search_context")
    for attr in ("check_form_class", "verify_kradical_witness",
                 "argument_pool"):
        t.wrap_function(conjectures, attr, f"conjectures.{attr}")

    t.wrap_function(cli, "main", "cli.main", span=True)
    t.wrap_function(cli, "parse_problem", "cli.parse_problem", span=True)
    return t


# Each per-layer metric: name -> (unit, function of the tracer).  A
# metric whose source target is missing is reported as missing.
def _calls(name):
    return lambda t: t.records[name].calls if name in t.records else 0


def _total(name):
    return lambda t: t.records[name].total if name in t.records else 0.0


def _extra(name, key):
    return lambda t: (t.records[name].extra.get(key, 0)
                      if name in t.records else 0)


def _self(layer):
    return lambda t: t.totals(layer + ".")[2]


def _useful_ratio(t):
    spairs = _calls("groebner.s_polynomial")(t)
    return _extra("groebner.buchberger", "useful")(t) / spairs if spairs else 0.0


def _candidates_per_s(t):
    search_s = _total("conjectures.search_witness")(t)
    cands = _extra("conjectures.search_witness", "candidates")(t)
    return cands / search_s if search_s else 0.0


METRICS = {
    "field.ops": ("count", lambda t: sum(
        _calls(f"field.op.{op}")(t) for op in FIELD_OPS)),
    "field.self_s": ("s", _self("field")),
    "field.make_field_s": ("s", _total("field.make_field")),
    "poly.mul_calls": ("count", _calls("poly.mul")),
    "poly.mul_term_pairs": ("count", _extra("poly.mul", "term_pairs")),
    "poly.order_key_calls": ("count", _calls("poly.order_key")),
    "poly.self_s": ("s", _self("poly")),
    "groebner.buchberger_calls": ("count", _calls("groebner.buchberger")),
    "groebner.spairs": ("count", _calls("groebner.s_polynomial")),
    "groebner.reductions": ("count", _calls("groebner._reduce_full")),
    "groebner.zero_reductions": (
        "count", _extra("groebner._reduce_full", "zero_in_buchberger")),
    "groebner.useful_reduction_ratio": ("1", _useful_ratio),
    "groebner.basis_max": ("count", _extra("groebner.buchberger",
                                           "basis_max")),
    "groebner.normal_form_calls": ("count", _calls("groebner.normal_form")),
    "groebner.self_s": ("s", _self("groebner")),
    "ideals.intersect_calls": ("count", _calls("ideals.ideal_intersect")),
    "ideals.quotient_calls": ("count", _calls("ideals.ideal_quotient")),
    "ideals.saturate_rounds": ("count", _extra("ideals.ideal_saturate",
                                               "rounds")),
    "ideals.quotient_s": ("s", _total("ideals.ideal_quotient")),
    "ideals.self_s": ("s", _self("ideals")),
    "varieties.zero_set_calls": ("count", _calls("varieties.zero_set")),
    "varieties.points_evaluated": ("count", _extra("varieties.zero_set",
                                                   "points")),
    "varieties.oracle_intersections": (
        "count", _extra("varieties.oracle_vanishing_ideal",
                        "intersections")),
    "varieties.oracle_s": ("s", _total("varieties.oracle_vanishing_ideal")),
    "varieties.self_s": ("s", _self("varieties")),
    "nullstellensatz.colon_s": (
        "s", _total("nullstellensatz.projective_vanishing[colon]")),
    "nullstellensatz.saturation_s": (
        "s", _total("nullstellensatz.projective_vanishing[saturation]")),
    "nullstellensatz.oracle_s": (
        "s", _total("nullstellensatz.projective_vanishing[oracle]")),
    "nullstellensatz.certify_s": (
        "s", _total("nullstellensatz.certify_membership")),
    "nullstellensatz.self_s": ("s", _self("nullstellensatz")),
    "conjectures.candidates": ("count", _extra("conjectures.search_witness",
                                               "candidates")),
    "conjectures.compose_mod_calls": ("count",
                                      _calls("conjectures.compose_mod")),
    "conjectures.search_s": ("s", _total("conjectures.search_witness")),
    "conjectures.form_enum_s": ("s", _total("conjectures.enumerate_forms")),
    "conjectures.candidates_per_s": ("1/s", _candidates_per_s),
    "conjectures.self_s": ("s", _self("conjectures")),
}

# The wrapped target each metric depends on, for missing-target reports.
SOURCES = {
    "field.ops": "field.op.__mul__",
    "groebner.reductions": "groebner._reduce_full",
    "groebner.zero_reductions": "groebner._reduce_full",
    "groebner.useful_reduction_ratio": "groebner._reduce_full",
    "groebner.basis_max": "groebner._reduce_full",
    "conjectures.compose_mod_calls": "conjectures.compose_mod",
}


def layer_metrics(tracer):
    """{name: (value, unit)} for every metric whose source exists."""
    out = {}
    for name, (unit, fn) in METRICS.items():
        if SOURCES.get(name) in tracer.missing:
            continue
        out[name] = (fn(tracer), unit)
    return out


def span_counts(tracer):
    counts = {}
    for name, *_ in tracer.spans:
        counts[name] = counts.get(name, 0) + 1
    return counts
