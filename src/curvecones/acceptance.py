"""Acceptance suite: every verification criterion as a callable check.

Each criterion function returns a CriterionResult with a pass flag and the
measured quantities; the runner prints one line per criterion and builds a
deterministic JSON report.  The same functions back both the test suite and
the command-line verify subcommand.

A criterion takes exactly the inputs it reads.  The expensive ones that
several criteria share (the reconstructed cones, the span cones and the
quartic span) are the cached properties of a `SuiteInputs`, each built on
first use from the curve context and the config alone, so no result
depends on which criterion ran first.  Each certificate is decided once,
where it is made: a cone's by its reconstruction, which criterion 5
reads, and a polar's by `cone.certify_polars`, which criterion 7 reads.

What a criterion expects is derived from the genus (`canring.ideal_dim`,
`node_count`, every point of the context vanished by a cone) or read from
the genus's `curve.MODELS` entry: criterion 2 expects I(2) to generate
I(3) exactly when the model is not `trigonal`, and criterion 11 expects
the model's measured `f4_rank`.

`PRESETS` holds the sample sizes of each way the suite is run: `verify`,
`verify --quick`, and the reduced runs of criterion 13.
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
from .errors import (CurveConesError, DegenerateInput, Draws, check_counts,
                     value_of)
from .rng import Stream, derive_key

def node_count(g: int) -> int:
    """Nodes of the plane image of a general net, a curve of degree 2g - 2
    and geometric genus g: (2g - 3)(2g - 4)/2 - g = 2(g - 1)(g - 3)."""
    return 2 * (g - 1) * (g - 3)


@dataclass
class SuiteConfig:
    """Sample sizes for one run, the defaults being the full preset; every
    value is part of the report, and a value that is not a nonnegative int
    is a ConfigError where the config is made (`errors.check_counts`)."""
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

    def __post_init__(self) -> None:
        check_counts(asdict(self))


# The sample sizes of `verify` (full), `verify --quick` (quick) and the two
# embedded runs of criterion 13 (reduced), over the SuiteConfig defaults.
# Every preset's span samples plus the quadric squares the span starts from
# (`spanlab.square_count`) must reach the model's `f4_rank`, so criterion
# 11 can pass: at genus 5, 14 samples and 6 squares reach 16.
PRESETS = {
    "full": {},
    "quick": dict(corank_samples=10, corank_engineered=2, reconstructions=3,
                  oracle_points=10, double_quadrics=2, polar_oracle_points=10,
                  fibers_on=10, fibers_off=10, secant_random=10,
                  secant_engineered=1, span_samples=14, off_curve_probes=60),
    "reduced": dict(corank_samples=6, corank_engineered=1, reconstructions=2,
                    oracle_points=6, double_quadrics=1, polar_oracle_points=6,
                    fibers_on=6, fibers_off=6, secant_random=6,
                    secant_engineered=1, span_samples=14, off_curve_probes=30),
}


def preset(name: str, seed: int) -> SuiteConfig:
    """The SuiteConfig of the named `PRESETS` entry at this seed."""
    return SuiteConfig(seed=seed, **PRESETS[name])


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

    `cones` holds the `reconstructions` cones of criteria 3-10, each
    certified with `oracle_points` oracle probes where it is
    reconstructed; the span criteria 11 and 12 share `span_cones` (`cones`
    topped up to `span_samples`) and their quartic span `f4`.
    """
    ctx: canring.CurveContext
    cfg: SuiteConfig

    @cached_property
    def cones(self) -> list[cn.QuarticCone]:
        return sl.collect_cones(self.ctx, self.cfg.reconstructions,
                                self.cfg.seed,
                                oracle_points=self.cfg.oracle_points)

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
    expected = not cv.MODELS[ctx.g].trigonal
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
    """Random and engineered nets <v, w> drawn in rounds (`Draws.rounds`),
    the draws of the loop that checks one net at a time.  A round is one
    `rref_batch` of the pencil bases v, one `pencil.admissibility`, one
    `pencil.cup_grams`, one `pencil.corank` of the stacked Grams and one
    `net.build_nets`.  An inadmissible pencil, or a lift w inside it,
    skips its draw, as the InadmissiblePencil of `build_pencil` and
    `cup_gram` does in that loop."""
    p = ctx.p
    stream = Stream(derive_key(ctx.curve.seed, f"corank|{cfg.seed}"), "vw")
    dstream = stream.spawn("deg")

    def laws(drawn: list) -> list:
        """Per net <v, w>, whether the corank law holds on it (corank 2
        off D, at least 3 on it), or None to skip the draw."""
        v, w = (np.stack(col) % p for col in zip(*drawn))
        vr, _ = alg.rref_batch(v, p)
        vbar, failed = pc.admissibility(ctx, vr)
        coranks = pc.corank(pc.cup_grams(ctx, vbar, w), p)
        nets = nt.build_nets(ctx, np.concatenate([vr, w[:, None]], axis=1))
        # a lift w inside its pencil leaves a basis of rank 2
        skip = failed.any(axis=0) | [not isinstance(n, nt.Net) for n in nets]
        in_d = [not s and net.in_d for s, net in zip(skip, nets)]
        holds = np.where(in_d, coranks >= 3, coranks == 2)
        return [None if s else bool(h) for s, h in zip(skip, holds)]

    def random_sample(_):
        return stream.field_mat(p, 2, ctx.g), stream.field_vec(p, ctx.g)

    def engineered_sample(k: int):
        w = cn.degenerate_net(ctx, dstream.spawn(str(k))).w
        return w[:2], w[2]

    random_laws = [law for _, law in Draws(
        "corank samples", 30 * cfg.corank_samples,
        random_sample).rounds(cfg.corank_samples, laws)]
    engineered_laws = [law for _, law in Draws(
        "engineered corank nets", cfg.corank_engineered,
        engineered_sample).rounds(cfg.corank_engineered, laws)]
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
    """Each cone was certified where it was reconstructed
    (`SuiteInputs.cones`), which raises `VerificationFailed` on a cone
    whose certificate does not hold, so the criterion only counts the
    cones and sums their oracle disagreements."""
    disagreements = sum(c.certificate["oracle_disagreements"] for c in cones)
    return CriterionResult(5, "reconstruction certificate",
                           len(cones) >= cfg.reconstructions,
                           {"reconstructions": len(cones),
                            "oracle_disagreements": disagreements,
                            "points_per_form": len(ctx.points)})


def criterion_double_quadric(ctx, cfg: SuiteConfig) -> CriterionResult:
    p = ctx.p
    i2 = ctx.ideal(2)
    stream = Stream(derive_key(ctx.curve.seed, f"dq|{cfg.seed}"), "q")

    def engineer(k: int) -> bool:
        """Whether the k-th engineered net obeys the double-quadric law."""
        quadric = stream.combination(p, i2.basis)
        if quadric is None:
            quadric = i2.basis[0]
        net_obj = cn.degenerate_net(ctx, stream.spawn(f"n{k}"),
                                    quadric=quadric)
        cone_obj = cn.double_quadric_quartic(ctx, net_obj)
        expected = alg.normalize_rows(
            mono.mul_forms(quadric, 2, quadric, 2, ctx.g, p), p)
        return cone_obj.coeffs.tolist() == expected.tolist()

    laws = Draws("double-quadric nets", cfg.double_quadrics,
                 engineer).take(cfg.double_quadrics)
    ok = all(laws) and len(laws) >= cfg.double_quadrics
    return CriterionResult(6, "double-quadric law", ok,
                           {"engineered": len(laws)})


def criterion_polars(ctx, cfg: SuiteConfig,
                     cones: list[cn.QuarticCone]) -> CriterionResult:
    """All polars of all cones certified in one `certify_polars`, whose
    membership and vertex checks decide that each polar lies in the
    cone's L_W space (`lw_space`); failures are raised in cone order.
    `dim_lw` is that of the first cone whose L_W space does not have
    dimension g - 3, else g - 3."""
    stream = Stream(derive_key(ctx.curve.seed, f"polar|{cfg.seed}"), "b")
    polars = [cn.polar_cubics(ctx, c, c.net.wperp) for c in cones]
    # polar j of cone k draws its probes from its own stream
    certs = iter(cn.certify_polars(ctx, [
        (c.net, x, coeffs, stream.spawn(f"{k}.{j}" if j else f"{k}"))
        for k, c in enumerate(cones)
        for j, (x, coeffs) in enumerate(zip(c.net.wperp, polars[k]))],
        cfg.polar_oracle_points))
    ok = True
    dim_lw = ctx.g - 3
    checked = 0
    disagreements = 0
    for cone_obj, cubics in zip(cones, polars):
        basis, polar_rank = cn.lw_space(ctx, cone_obj, cubics)
        if dim_lw == ctx.g - 3:
            dim_lw = basis.shape[0]
        ok = ok and basis.shape[0] == ctx.g - 3 and polar_rank == ctx.g - 3
        for cert in (value_of(next(certs)) for _ in cubics):
            ok = ok and cert["in_cubic_ideal"] and cert["vertex_singular"] \
                and cert["oracle_disagreements"] == 0 \
                and cert["oracle_points"] >= cfg.polar_oracle_points
            checked += cert["oracle_points"]
            disagreements += cert["oracle_disagreements"]
    return CriterionResult(7, "polar cubics", ok,
                           {"dim_lw": dim_lw,
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


def criterion_node_count(ctx, net: nt.Net) -> CriterionResult:
    gamma = nt.gamma_equation(ctx, net)
    count = bd.node_count(gamma, ctx.p)
    expected = node_count(ctx.g)
    return CriterionResult(9, "node count", count == expected,
                           {"nodes": count, "expected": expected})


def criterion_secant(ctx, cfg: SuiteConfig,
                     cone: cn.QuarticCone) -> CriterionResult:
    """Each loop makes the draws of one secant at a time, in rounds
    (`Draws.rounds`) checked on one stack, errors raised in draw order."""
    stream = Stream(derive_key(ctx.curve.seed, f"secant|{cfg.seed}"), "pq")

    def false_false(pairs: list) -> list:
        """Whether the criterion fails both ways on each random secant."""
        return [v if isinstance(v, CurveConesError) else v == (False, False)
                for v in cn.secant_criteria(ctx, [cone] * len(pairs), pairs)]

    randoms = Draws("random secants", 30 * cfg.secant_random,
                    lambda _: ctx.panel_pair(stream))
    random_ok = sum(holds for _, holds in randoms.rounds(
        cfg.secant_random, false_false))

    # a secant whose cone fails the criterion gives no result, and each
    # draw is taken in the first round
    vertex_ok = len(Draws(
        "vertex secants", cfg.secant_engineered,
        lambda k: cn.secant_through_vertex(ctx, stream.spawn(f"v{k}"))
    ).rounds(cfg.secant_engineered, lambda drawn: cn.contained_secants(
        ctx, [d[:2] for d in drawn], [d[2] for d in drawn])))
    # every secant found has held both ways in `contained_secants`
    try:
        double_ok = len(cn.contained_double_secant(
            ctx, stream.spawn("dbl"), count=cfg.secant_engineered))
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


def criterion_spans(ctx, f4: sl.SpanAccumulator) -> CriterionResult:
    squares_ok = sl.squares_containment(ctx, f4)
    expected = cv.MODELS[ctx.g].f4_rank
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


def criterion_determinism(ctx_builder, cfg: SuiteConfig) -> CriterionResult:
    """Run the reduced preset twice from scratch; reports must be
    identical."""
    small = preset("reduced", cfg.seed)
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
        criterion_node_count(ctx, inputs.cones[0].net),
        criterion_secant(ctx, cfg, inputs.cones[0]),
        criterion_spans(ctx, inputs.f4),
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
