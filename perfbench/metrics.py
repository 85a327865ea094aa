"""Names and units of the metrics the benchmark reports.

BENCHMARK.json lists the same names; a test keeps the two in step.
"""

from __future__ import annotations

COMMAND_METRIC = {"gen-curve": "gen_curve_s", "verify": "verify_s",
                  "spans": "spans_s", "hessian": "hessian_s",
                  "reconstruct": "reconstruct_s"}

END_TO_END = {**{name: "s" for name in COMMAND_METRIC.values()},
              "setup_s": "s", "peak_rss_mb": "MB"}

# function -> stats reported for it, summed over one traced unit.  calls and
# raised are counts; self_s excludes time in wrapped callees; total_s counts
# only the outermost call when a function is re-entered.
LAYERS = {
    "monomials.restrict": ("calls", "self_s", "total_s"),
    "monomials.restrict_to_line": ("calls", "total_s"),
    "monomials.mul_forms": ("calls", "self_s"),
    "monomials.eval_matrix": ("calls", "self_s"),
    "algebra.distinct_roots": ("calls", "self_s", "total_s"),
    "algebra.poly_pow_mod": ("calls", "self_s"),
    "algebra.resultant_bivariate": ("calls", "self_s", "total_s"),
    "algebra.rref": ("calls", "self_s"),
    "algebra.rank": ("calls", "total_s"),
    "algebra.kernel_basis": ("calls", "total_s"),
    "algebra.det": ("calls", "total_s"),
    "curve.generate_curve": ("total_s",),
    "curve.sample_points": ("calls", "total_s"),
    "curve.on_curve": ("calls", "self_s"),
    "canring.build_context": ("calls", "total_s"),
    "canring.CurveContext.ideal": ("calls", "total_s"),
    "canring.CurveContext.in_ideal": ("calls", "total_s"),
    "canring.CurveContext.vanishes_on_curve": ("calls", "total_s"),
    "pencil.build_pencil": ("calls", "total_s", "raised"),
    "pencil.cup_gram": ("calls", "total_s"),
    "net.random_net": ("calls", "total_s", "raised"),
    "net.build_net": ("calls", "total_s"),
    "net.gamma_equation": ("calls", "total_s"),
    "net.oracle_witness": ("calls", "total_s", "raised"),
    "net.fw_oracle": ("calls", "total_s"),
    "net.polar_oracle": ("calls", "total_s", "raised"),
    "cone.reconstruct_quartic": ("calls", "total_s", "raised"),
    "cone.split_fiber": ("calls", "total_s", "raised"),
    "cone.constrained_space": ("total_s",),
    "cone.vertex_condition_matrix": ("calls", "total_s"),
    "cone.points_on_form": ("calls", "total_s"),
    "cone.oracle_agreement": ("calls", "total_s"),
    "cone.verify_cone": ("total_s",),
    "cone.polar_cubic": ("total_s",),
    "cone.lw_space": ("total_s",),
    "cone.secant_criterion": ("calls", "total_s"),
    "cone.contained_double_secant": ("total_s",),
    "cone.degenerate_net": ("calls", "total_s", "raised"),
    "bundle.hessian_scan": ("total_s",),
    "bundle.fiber_quadric": ("calls", "total_s"),
    "bundle.node_count": ("total_s",),
    "spanlab.collect_cones": ("total_s",),
    "spanlab.SpanAccumulator.add": ("calls", "total_s"),
    "spanlab.accumulate_f4": ("total_s",),
    "spanlab.accumulate_f3": ("total_s",),
    "spanlab.squares_containment": ("total_s",),
    "spanlab.base_locus_probe": ("total_s",),
    # criterion 13 (determinism) runs only under verify --full, i.e. only
    # on g4-suite; its time is in result.json, not a metric that would read
    # 0 on the other workloads
    **{f"acceptance.criterion_{c}": ("total_s",) for c in (
        "ideal_dims", "petri", "gamma", "corank_law", "reconstruction",
        "double_quadric", "polars", "hessian", "node_count", "secant",
        "spans", "base_locus")},
    "acceptance.run_criteria": ("calls", "total_s"),
}

# target shapes (degree n, variables m) of monomials.restrict that the
# genus-4 workloads reach: quadrics on the vertex line, cubics and quartics
# on lines
RESTRICT_SHAPES = ("n2m1", "n3m2", "n4m2")

DERIVED = {
    "algebra.distinct_roots.roots_per_call": "1/call",
    "algebra.rref.cells": "count",
    "curve.sample_points.points_per_slice": "1/slice",
    "cone.oracle_agreement.zero_yield": "ratio",
}

KERNELS = {"kernel.restrict_g5n4m2_us": "us",
           "kernel.restrict_g5n4m3_us": "us",
           "kernel.restrict_g4n3m2_us": "us",
           "kernel.distinct_roots_d4_us": "us",
           "kernel.distinct_roots_d8_us": "us",
           "kernel.rref_280x70_us": "us",
           "kernel.build_pencil_us": "us",
           "kernel.oracle_witness_us": "us",
           "kernel.reconstruct_quartic_ms": "ms",
           "kernel.genus5_slice_ms": "ms"}

STAT_UNITS = {"calls": "count", "self_s": "s", "total_s": "s",
              "raised": "count"}

PER_LAYER = {
    **{f"{fn}.{stat}": STAT_UNITS[stat]
       for fn, stats in LAYERS.items() for stat in stats},
    **{f"monomials.restrict.calls.{shape}": "count"
       for shape in RESTRICT_SHAPES},
    **DERIVED,
    **KERNELS,
    "host.calibration_s": "s",
    "trace_overhead": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(profile, kernel: dict) -> dict:
    """Per-layer metric values from a tracer.Profile and kernel timings."""
    tables = {"calls": profile.calls, "self_s": profile.self_s,
              "total_s": profile.total_s, "raised": profile.raised}
    out = {}
    for fn, stats in LAYERS.items():
        for stat in stats:
            out[f"{fn}.{stat}"] = tables[stat].get(fn, 0)
    c = profile.counters
    for shape in RESTRICT_SHAPES:
        out[f"monomials.restrict.calls.{shape}"] = c.get(
            f"monomials.restrict.calls.{shape}", 0)
    out["algebra.distinct_roots.roots_per_call"] = _ratio(
        c.get("algebra.distinct_roots.roots", 0),
        profile.calls.get("algebra.distinct_roots", 0))
    out["algebra.rref.cells"] = c.get("algebra.rref.cells", 0)
    out["curve.sample_points.points_per_slice"] = _ratio(
        c.get("curve.sample_points.points", 0),
        c.get("curve.sample_points.slices", 0))
    out["cone.oracle_agreement.zero_yield"] = _ratio(
        c.get("cone.oracle_agreement.zero_half", 0),
        c.get("cone.oracle_agreement.zeros_returned", 0))
    for name in KERNELS:
        out[name] = kernel.get(name, 0.0)
    return out
