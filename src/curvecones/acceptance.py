"""Acceptance suite: every verification criterion as a callable check.

Each criterion function returns a CriterionResult with a pass flag and the
measured quantities; the runner prints one line per criterion and builds a
deterministic JSON report.  The same functions back both the test suite and
the command-line verify subcommand.

A criterion takes exactly the inputs it reads.  The expensive ones that
several criteria share (the reconstructed cones, the span cones and the
quartic span) are the cached properties of a `SuiteInputs`, each built on
first use from the curve context and the config alone, so no result
depends on which criterion ran first.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from . import __version__
from . import algebra as alg
from . import bundle as bd
from . import canring
from . import cone as cn
from . import curve as cv
from . import monomials as mono
from . import net as nt
from . import pencil as pc
from . import spanlab as sl
from .errors import (ConfigError, CurveConesError, DegenerateInput,
                     Draws, value_of)
from .rng import Stream, derive_key

# the quartic span's rank, the one value per genus that is measured, not
# derived
F4_RANKS = {4: 5, 5: 16}


def node_count(g: int) -> int:
    """Nodes of the plane image of a general net, a curve of degree 2g - 2
    and geometric genus g: (2g - 3)(2g - 4)/2 - g = 2(g - 1)(g - 3)."""
    return 2 * (g - 1) * (g - 3)


@dataclass
class SuiteConfig:
    """Sample sizes for one full run; every value is part of the report."""
    seed: int = 0
    corank_samples: int = 50
    corank_engineered: int = 5
    reconstructions: int = 10
    oracle_points: int = 50
    double_quadrics: int = 5
    polar_oracle_points: int = 50
    fibers_on: int = 50
    fibers_off: int = 50
    secant_random: int = 100
    secant_engineered: int = 5
    span_samples: int = 25
    off_curve_probes: int = 500

    def validate(self) -> None:
        for name, value in asdict(self).items():
            if not isinstance(value, int) or value < 0:
                raise ConfigError(f"config field '{name}' must be a "
                                  f"nonnegative integer, got {value!r}")


@dataclass
class CriterionResult:
    number: int
    name: str
    ok: bool
    details: dict = field(default_factory=dict)

    def line(self) -> str:
        flag = "PASS" if self.ok else "FAIL"
        return f"[{flag}] criterion {self.number:2d} ({self.name}): " \
            + ", ".join(f"{k}={v}" for k, v in self.details.items())


@dataclass
class SuiteInputs:
    """Artifacts shared by criteria 3-12, each built on first use.

    `cones` holds the `reconstructions` cones of criteria 3-10; the span
    criteria 11 and 12 share `span_cones` (`cones` topped up to
    `span_samples`) and their quartic span `f4`.
    """
    ctx: canring.CurveContext
    cfg: SuiteConfig

    @cached_property
    def cones(self) -> list[cn.QuarticCone]:
        return sl.collect_cones(self.ctx, self.cfg.reconstructions,
                                self.cfg.seed, oracle_points=0)

    @cached_property
    def span_cones(self) -> list[cn.QuarticCone]:
        missing = self.cfg.span_samples - len(self.cones)
        if missing <= 0:
            return self.cones
        return self.cones + sl.collect_cones(self.ctx, missing,
                                             self.cfg.seed + 1)

    @cached_property
    def f4(self) -> sl.SpanAccumulator:
        return sl.accumulate_f4(self.ctx, self.span_cones, self.cfg.seed)


# -- criteria ----------------------------------------------------------------


def criterion_ideal_dims(ctx) -> CriterionResult:
    found = {}
    main_ok = held = True
    for n in (2, 3, 4):
        main = ctx.ideal(n)
        hold = canring.ideal_piece_from_holdout(ctx, n)
        same_span = all(map(alg.RowSpace(main.basis, ctx.p).contains,
                            hold.basis))
        found[f"dim_I{n}"] = main.dim
        expected = canring.ideal_dim(ctx.g, n)
        main_ok = main_ok and main.dim == expected
        held = held and hold.dim == expected and same_span
    return CriterionResult(1, "ideal dimensions", main_ok and held,
                           {**found, "holdout_confirmed": held})


def criterion_petri(ctx) -> CriterionResult:
    value = ctx.petri_check()
    expected = ctx.g >= 5
    return CriterionResult(2, "Petri dichotomy", value == expected,
                           {"surjective": value, "expected": expected})


def criterion_gamma(ctx, net: nt.Net) -> CriterionResult:
    gamma = nt.gamma_equation(ctx, net)
    holdout_val = mono.form_eval_one(
        gamma.coeffs, nt.project(net, ctx.holdout[:1], ctx.p)[0],
        3, gamma.degree, ctx.p)
    ok = gamma.degree == 2 * ctx.g - 2 and holdout_val == 0
    return CriterionResult(3, "plane image degree", ok,
                           {"degree": gamma.degree,
                            "holdout_zero": holdout_val == 0})


def criterion_corank_law(ctx, cfg: SuiteConfig) -> CriterionResult:
    p = ctx.p
    stream = Stream(derive_key(ctx.curve.seed, f"corank|{cfg.seed}"), "vw")
    dstream = stream.spawn("deg")

    def law(v: np.ndarray, w: np.ndarray) -> bool:
        """Whether the corank law holds on the net <v, w>."""
        pen = pc.build_pencil(ctx, v)
        corank = pc.corank(pc.cup_gram(ctx, pen, w).gram, p)
        net_obj = nt.build_net(ctx, np.concatenate([pen.v, w[None, :]]))
        return corank == 2 and not net_obj.in_d \
            or corank >= 3 and net_obj.in_d

    def random_sample(_):
        v = stream.field_mat(p, 2, ctx.g)
        return law(v, stream.field_vec(p, ctx.g))

    def engineered_sample(k: int):
        w = cn.degenerate_net(ctx, dstream.spawn(str(k))).w
        return law(w[:2], w[2])

    random_laws = Draws("corank samples", 30 * cfg.corank_samples,
                        random_sample).take(cfg.corank_samples)
    engineered_laws = Draws("engineered corank nets", cfg.corank_engineered,
                            engineered_sample).take(cfg.corank_engineered)
    disagreements = random_laws.count(False) + engineered_laws.count(False)
    ok = len(random_laws) >= cfg.corank_samples \
        and len(engineered_laws) >= cfg.corank_engineered \
        and disagreements == 0
    return CriterionResult(4, "corank law", ok,
                           {"random_checked": len(random_laws),
                            "engineered_checked": len(engineered_laws),
                            "disagreements": disagreements})


def criterion_reconstruction(ctx, cfg: SuiteConfig,
                             cones: list[cn.QuarticCone]) -> CriterionResult:
    stream = Stream(derive_key(ctx.curve.seed, f"recon-cert|{cfg.seed}"), "v")
    ok = True
    details = {"reconstructions": len(cones)}
    total_disagreements = 0
    certs = cn.verify_cones(ctx, cones, [stream.spawn(f"c{k}")
                                         for k in range(len(cones))],
                            oracle_points=cfg.oracle_points)
    for cert in map(value_of, certs):
        ok = ok and cert["contains_curve"] and cert["vertex_singular"] \
            and cert["holdout_pencil"] \
            and cert["oracle_points"] >= cfg.oracle_points \
            and cert["oracle_disagreements"] == 0 \
            and cert["points_vanished"] >= sum(cv.panel_sizes(ctx.g))
        total_disagreements += cert["oracle_disagreements"]
    ok = ok and len(cones) >= cfg.reconstructions
    details["oracle_disagreements"] = total_disagreements
    details["points_per_form"] = int(ctx.panel.shape[0]
                                     + ctx.holdout.shape[0])
    return CriterionResult(5, "reconstruction certificate", ok, details)


def criterion_double_quadric(ctx, cfg: SuiteConfig) -> CriterionResult:
    p = ctx.p
    i2 = ctx.ideal(2)
    stream = Stream(derive_key(ctx.curve.seed, f"dq|{cfg.seed}"), "q")

    def engineer(k: int) -> bool:
        """Whether the k-th engineered net obeys the double-quadric law."""
        if ctx.g == 4:
            quadric = i2.basis[0]
        else:
            combo = stream.field_vec(p, i2.dim)
            if not combo.any():
                combo[0] = 1
            quadric = combo @ i2.basis % p
        net_obj = cn.degenerate_net(ctx, stream.spawn(f"n{k}"),
                                    quadric=quadric)
        cone_obj = cn.double_quadric_quartic(ctx, net_obj)
        expected = alg.normalize_rows(
            mono.mul_forms(quadric, 2, quadric, 2, ctx.g, p), p)
        return cone_obj.coeffs.tolist() == expected.tolist() \
            and net_obj.d_certificate is not None

    laws = Draws("double-quadric nets", cfg.double_quadrics,
                 engineer).take(cfg.double_quadrics)
    ok = all(laws) and len(laws) >= cfg.double_quadrics
    return CriterionResult(6, "double-quadric law", ok,
                           {"engineered": len(laws)})


def criterion_polars(ctx, cfg: SuiteConfig,
                     cones: list[cn.QuarticCone]) -> CriterionResult:
    """All polars of all cones certified in one `certify_polars`; failures
    are raised in cone order, a cone's polar space before its polars."""
    stream = Stream(derive_key(ctx.curve.seed, f"polar|{cfg.seed}"), "b")
    polars = [cn.polar_cubics(ctx, c, c.net.wperp) for c in cones]
    # polar j of cone k draws its probes from its own stream
    certs = iter(cn.certify_polars(ctx, [
        (c.net, x, coeffs, stream.spawn(f"{k}.{j}" if j else f"{k}"))
        for k, c in enumerate(cones)
        for j, (x, coeffs) in enumerate(zip(c.net.wperp, polars[k]))],
        cfg.polar_oracle_points))
    ok = True
    checked = 0
    disagreements = 0
    for cone_obj, cubics in zip(cones, polars):
        basis, polar_rank = cn.lw_space(ctx, cone_obj, cubics)
        ok = ok and basis.shape[0] == ctx.g - 3 and polar_rank == ctx.g - 3
        for cert in (value_of(next(certs)) for _ in cubics):
            ok = ok and cert["in_cubic_ideal"] and cert["vertex_singular"] \
                and cert["oracle_disagreements"] == 0 \
                and cert["oracle_points"] >= cfg.polar_oracle_points
            checked += cert["oracle_points"]
            disagreements += cert["oracle_disagreements"]
    return CriterionResult(7, "polar cubics", ok,
                           {"dim_lw": ctx.g - 3,
                            "oracle_points": checked,
                            "oracle_disagreements": disagreements})


def criterion_hessian(ctx, cfg: SuiteConfig,
                      cone: cn.QuarticCone) -> CriterionResult:
    stream = Stream(derive_key(ctx.curve.seed, f"hess|{cfg.seed}"), "u")
    scan = bd.hessian_scan(ctx, cone.net, cone, cfg.fibers_on,
                           cfg.fibers_off, stream)
    ok = scan["on_singular"] == scan["on_checked"] \
        and scan["kernel_matches"] == scan["on_checked"] \
        and scan["off_checked"] >= cfg.fibers_off \
        and scan["off_nonsingular"] == scan["off_checked"]
    details = {k: v for k, v in scan.items() if k != "rows"}
    return CriterionResult(8, "Hessian and Steinerian", ok, details)


def criterion_node_count(ctx, cfg: SuiteConfig,
                         net: nt.Net) -> CriterionResult:
    gamma = nt.gamma_equation(ctx, net)
    count = bd.node_count(gamma, ctx.p, seed=cfg.seed)
    expected = node_count(ctx.g)
    return CriterionResult(9, "node count", count == expected,
                           {"nodes": count, "expected": expected})


def criterion_secant(ctx, cfg: SuiteConfig,
                     cone: cn.QuarticCone) -> CriterionResult:
    """Each loop makes the draws of one secant at a time, in rounds
    (`Draws.rounds`) checked on one stack, errors raised in draw order."""
    stream = Stream(derive_key(ctx.curve.seed, f"secant|{cfg.seed}"), "pq")
    n = ctx.panel.shape[0]

    def random_pair(_):
        i = stream.integer(0, n)
        j = stream.integer(0, n)
        return None if i == j else (ctx.panel[i], ctx.panel[j])

    def false_false(pairs: list) -> list:
        """Whether the criterion fails both ways on each random secant."""
        return [v if isinstance(v, CurveConesError) else v == (False, False)
                for v in cn.secant_criteria(ctx, [cone] * len(pairs), pairs)]

    randoms = Draws("random secants", 30 * cfg.secant_random,
                    random_pair).rounds(cfg.secant_random, false_false)
    random_ok = sum(holds for _, holds in randoms)

    # a secant whose cone fails the criterion gives no result, and each
    # draw is taken in the first round
    vertex_ok = len(Draws(
        "vertex secants", cfg.secant_engineered,
        lambda k: cn.secant_through_vertex(ctx, stream.spawn(f"v{k}"))
    ).rounds(cfg.secant_engineered, lambda drawn: cn.contained_secants(
        ctx, [d[:2] for d in drawn], [d[2] for d in drawn])))
    try:
        found = cn.contained_double_secant(ctx, stream.spawn("dbl"),
                                           count=cfg.secant_engineered)
        double_ok = list(map(value_of, cn.secant_criteria(
            ctx, [f[3] for f in found], [f[:2] for f in found]))).count(
                (True, True))
    except DegenerateInput:
        double_ok = 0
    ok = random_ok == cfg.secant_random \
        and vertex_ok >= cfg.secant_engineered \
        and double_ok >= cfg.secant_engineered \
        and ctx.vanishes_on_curve(cone.coeffs, 4)
    return CriterionResult(10, "secant criterion", ok,
                           {"random_false_false": random_ok,
                            "vertex_branch": vertex_ok,
                            "double_section_branch": double_ok})


def criterion_spans(ctx, cfg: SuiteConfig,
                    f4: sl.SpanAccumulator) -> CriterionResult:
    squares_ok = sl.squares_containment(ctx, f4, seed=cfg.seed)
    expected = F4_RANKS[ctx.g]
    proper = f4.rank < ctx.ideal(4).dim
    ok = f4.rank == expected and squares_ok and proper
    return CriterionResult(11, "span dimensions", ok,
                           {"f4_rank": f4.rank, "expected": expected,
                            "squares_contained": squares_ok,
                            "proper_subsystem": proper})


def criterion_base_locus(ctx, cfg: SuiteConfig,
                         span_cones: list[cn.QuarticCone],
                         f4: sl.SpanAccumulator) -> CriterionResult:
    f3 = sl.accumulate_f3(ctx, span_cones)
    report = sl.base_locus_probe(ctx, [f4, f3], cfg.off_curve_probes,
                                 seed=cfg.seed)
    ok = report["curve_points_contained"] \
        and len(report["violations"]) == 0 \
        and report["off_curve_checked"] >= cfg.off_curve_probes \
        and f3.rank == canring.ideal_dim(ctx.g, 3)
    return CriterionResult(12, "base locus", ok,
                           {"off_curve": report["off_curve_checked"],
                            "structured": report["structured_checked"],
                            "violations": len(report["violations"]),
                            "f3_rank_observed": f3.rank})


def reduced_config(seed: int) -> SuiteConfig:
    """The sizes at which criterion 13 runs the suite.  The span samples
    still cover the saturated rank (16 at genus 5, of which 6 come from
    quadric squares), so the embedded runs stay green."""
    return SuiteConfig(seed=seed, corank_samples=6, corank_engineered=1,
                       reconstructions=2, oracle_points=6, double_quadrics=1,
                       polar_oracle_points=6, fibers_on=6, fibers_off=6,
                       secant_random=6, secant_engineered=1, span_samples=14,
                       off_curve_probes=30)


def criterion_determinism(ctx_builder, cfg: SuiteConfig) -> CriterionResult:
    """Run a reduced suite twice from scratch; reports must be identical."""
    small = reduced_config(cfg.seed)
    blobs = []
    for _ in range(2):
        ctx = ctx_builder()
        results = run_criteria(ctx, small)
        blobs.append(report_json(ctx, small, results))
    return CriterionResult(13, "determinism", blobs[0] == blobs[1],
                           {"bytes": len(blobs[0]),
                            "identical": blobs[0] == blobs[1]})


# -- runners -----------------------------------------------------------------


def run_criteria(ctx, cfg: SuiteConfig, echo=None) -> list[CriterionResult]:
    """Criteria 1-12 in order.  Each criterion is looked up as a module
    global at call time, so a wrapper installed on this module is called."""
    cfg.validate()
    inputs = SuiteInputs(ctx, cfg)
    results = [
        criterion_ideal_dims(ctx),
        criterion_petri(ctx),
        criterion_gamma(ctx, inputs.cones[0].net),
        criterion_corank_law(ctx, cfg),
        criterion_reconstruction(ctx, cfg, inputs.cones),
        criterion_double_quadric(ctx, cfg),
        criterion_polars(ctx, cfg, inputs.cones),
        criterion_hessian(ctx, cfg, inputs.cones[0]),
        criterion_node_count(ctx, cfg, inputs.cones[0].net),
        criterion_secant(ctx, cfg, inputs.cones[0]),
        criterion_spans(ctx, cfg, inputs.f4),
        criterion_base_locus(ctx, cfg, inputs.span_cones, inputs.f4),
    ]
    if echo:
        for r in results:
            echo(r.line())
    return results


def run_full(ctx, cfg: SuiteConfig, ctx_builder=None,
             echo=None) -> list[CriterionResult]:
    results = run_criteria(ctx, cfg, echo=echo)
    if ctx_builder is not None:
        det = criterion_determinism(ctx_builder, cfg)
        results.append(det)
        if echo:
            echo(det.line())
    return results


def report_json(ctx, cfg: SuiteConfig,
                results: list[CriterionResult]) -> str:
    payload = {
        "version": __version__,
        "config": asdict(cfg),
        "curve": {"genus": ctx.g, "prime": ctx.p,
                  "seed": ctx.curve.seed},
        "criteria": [{"number": r.number, "name": r.name, "ok": r.ok,
                      "details": r.details} for r in results],
        "ok": all(r.ok for r in results),
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
