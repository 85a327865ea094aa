"""Linear systems swept out by the quartic cones and their polar cubics.

Accumulators stack normalized coefficient vectors from many reconstructions
(plus the squares of ideal quadrics reachable through degenerate nets,
which the quartic system provably contains) and watch the rank saturate.
The base-locus probe then checks, set-theoretically over the sample panels,
that the accumulated system cuts out exactly the curve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import algebra as alg
from . import cone as cn
from . import curve as cv
from . import monomials as mono
from . import net as nt
from .canring import CurveContext, ideal_dim
from .errors import Draws, exhausted, lockstep, unwrap
from .rng import Stream, derive_key


@dataclass
class SpanAccumulator:
    """Forms of one degree added one at a time; `rows` is the reduced
    echelon basis of their span, not the forms as added."""

    degree: int
    span: alg.RowSpace
    provenance: list = field(default_factory=list)   # one tag per add
    trajectory: list = field(default_factory=list)
    sources: list = field(default_factory=list)   # nets behind the rows

    @property
    def rows(self) -> np.ndarray:
        return self.span.rows

    @property
    def rank(self) -> int:
        return len(self.span.pivots)

    def add(self, row: np.ndarray, tag: str,
            source: nt.Net | None = None) -> None:
        self.span.add(row)
        self.provenance.append(tag)
        if source is not None:
            self.sources.append(source)


def collect_cones(ctx: CurveContext, count: int, seed: int,
                  oracle_points: int = 4) -> list[cn.QuarticCone]:
    """Reconstructed quartics for `count` random generic nets; a degenerate
    net is resampled, within 4 * count + 20 failures over all cones.

    Cone i draws its net from the stream net{i}-{failures so far}.  The
    nets of the missing cones are drawn and reconstructed as one round
    (`random_nets`, `reconstruct_quartics`), walked in draw order; its
    first failure drops the rest, whose keys counted too few failures."""
    stream = Stream(derive_key(ctx.curve.seed, f"span-cones|{seed}"), "w")
    budget = 4 * count + 20
    cones: list[cn.QuarticCone] = []
    failures = before = 0       # before: failures ahead of the next cone
    while len(cones) < count:
        nets = nt.random_nets(ctx, [stream.spawn(f"net{i}-{failures}")
                                    for i in range(len(cones), count)])
        drawn = next((k for k, net in enumerate(nets)
                      if not isinstance(net, nt.Net)), len(nets))
        for result in cn.reconstruct_quartics(
                ctx, nets[:drawn], oracle_points=oracle_points) \
                + nets[drawn:drawn + 1]:
            cone_obj = unwrap(result)
            if cone_obj is None:
                failures += 1
                if failures == budget:
                    raise exhausted("span cones", budget - before)
                break
            cones.append(cone_obj)
            before = failures
    return cones


def square_count(g: int) -> int:
    """Squares of ideal quadrics that span all of them: the products of
    pairs of quadrics of a basis of I(2)."""
    dim = ideal_dim(g, 2)
    return dim * (dim + 1) // 2


def _square_rows(ctx: CurveContext, seed: int) -> list[tuple[np.ndarray,
                                                             nt.Net]]:
    """Squares of ideal quadrics realized through degenerate nets; enough
    independent combinations to span all squares (`square_count`)."""
    i2 = ctx.ideal(2)
    wanted = square_count(ctx.g)
    stream = Stream(derive_key(ctx.curve.seed, f"span-squares|{seed}"), "q")

    def draw(k: int):
        quadric = stream.combination(ctx.p, i2.basis)
        if quadric is None:
            return None
        net_obj = cn.degenerate_net(ctx, stream.spawn(f"dn{k + 1}"),
                                    quadric=quadric)
        return cn.double_quadric_quartic(ctx, net_obj).coeffs, net_obj

    draws = Draws("quadric squares", 8 * wanted + 8, draw)
    rows = draws.take(wanted)
    if len(rows) < wanted:
        raise draws.exhausted()
    return rows


def _saturate(acc: SpanAccumulator, cones: list[cn.QuarticCone], tag: str,
              rows) -> SpanAccumulator:
    """Add the rows of five cones at a time until three consecutive batches
    leave the rank unchanged or the cones run out.  `rows(cone)` lists the
    coefficient vectors of a cone; those of cones[k] are tagged f"{tag}-{k}".
    """
    stable = used = 0
    while used < len(cones) and stable < 3:
        before = acc.rank
        for cone_obj in cones[used:used + 5]:
            for coeffs in rows(cone_obj):
                acc.add(coeffs, f"{tag}-{used}", source=cone_obj.net)
            used += 1
        acc.trajectory.append(acc.rank)
        stable = stable + 1 if acc.rank == before else 0
    return acc


def accumulate_f4(ctx: CurveContext, cones: list[cn.QuarticCone],
                  seed: int) -> SpanAccumulator:
    """Span of quartic cones: the given reconstructions plus double-quadric
    rows from engineered degenerate nets.

    Saturation policy: stop after three consecutive rank-stable batches of
    five reconstructions, or when the cones run out."""
    acc = SpanAccumulator(4, alg.RowSpace(
        np.zeros((0, mono.count(ctx.g, 4)), dtype=np.int64), ctx.p))
    for coeffs, net_obj in _square_rows(ctx, seed):
        acc.add(coeffs, "double-quadric", source=net_obj)
    acc.trajectory.append(acc.rank)
    return _saturate(acc, cones, "reconstruction", lambda c: [c.coeffs])


def accumulate_f3(ctx: CurveContext, cones: list[cn.QuarticCone]
                  ) -> SpanAccumulator:
    """Span of the polar cubics, one per vertex basis vector per net."""
    acc = SpanAccumulator(3, alg.RowSpace(
        np.zeros((0, mono.count(ctx.g, 3)), dtype=np.int64), ctx.p))
    acc.trajectory.append(0)
    return _saturate(acc, cones, "polar", lambda c: cn.polar_cubics(
        ctx, c, c.net.wperp))


def squares_containment(ctx: CurveContext, f4: SpanAccumulator) -> bool:
    """Every product q_i q_j (i <= j) of the I(2) basis, and so every
    square of an ideal quadric, lies inside the quartic span: the
    products are one stacked `monomials.mul_forms`."""
    basis = ctx.ideal(2).basis
    i, j = np.triu_indices(len(basis))
    return all(map(f4.span.contains, mono.mul_forms(
        basis[i], 2, basis[j], 2, ctx.g, ctx.p)))


def base_locus_probe(ctx: CurveContext, spans: list[SpanAccumulator],
                     off_curve_count: int, seed: int = 0) -> dict:
    """Set-theoretic base-locus test for the accumulated systems.

    Every sampled curve point must annihilate every row; every off-curve
    probe (random plus structured: ambient quadric points, vertex points,
    secant points) must be separated by at least one row of each system.
    The random probes are tested in rounds (`Draws.rounds`), the
    structured ones as one stack: one `curve.off_curve` and one
    evaluation per system each."""
    p = ctx.p
    g = ctx.g
    stream = Stream(derive_key(ctx.curve.seed, f"probe|{seed}"), "pts")
    report: dict = {"off_curve_checked": 0, "violations": [],
                    "curve_points_contained": all(
                        ctx.vanishes_on_curve(acc.rows, acc.degree).all()
                        for acc in spans),
                    "structured_checked": 0}

    def probe(points: list, labels: list) -> list:
        """Each point off the curve, else None; an off-curve point that no
        row of a system separates is a violation of that system."""
        pts = np.reshape(points, (-1, g))
        off = cv.off_curve(ctx.curve, pts)
        separated = [(mono.eval_matrix(pts, g, acc.degree, p) @ acc.rows.T
                      % p).any(axis=1) for acc in spans]
        for k in np.nonzero(off)[0]:
            report["violations"] += [
                {"label": labels[k], "degree": acc.degree,
                 "point": [int(v) for v in pts[k]]}
                for acc, sep in zip(spans, separated) if not sep[k]]
        return [pt if keep else None for pt, keep in zip(points, off)]

    report["off_curve_checked"] = len(Draws(
        "off-curve probes", 20 * off_curve_count,
        lambda _: stream.nonzero_vec(p, g)).rounds(
        off_curve_count, lambda pts: probe(pts, ["random"] * len(pts))))
    # points on an ambient ideal quadric, harvested side by side
    i2 = ctx.ideal(2)
    harvests = []
    for k in range(10):
        quadric = stream.combination(p, i2.basis)
        if quadric is not None:
            harvests.append(cv.ZeroHarvest(quadric, 2, g, p,
                                           stream.spawn(f"q{k}"), 1, 60))
    candidates = [(got[0], "quadric") for got in lockstep(
        [harvest.take(1) for harvest in harvests]) if got]
    # points on vertices of nets used by the spans
    for acc in spans:
        for net_obj in acc.sources[:5]:
            pt = stream.combination(p, net_obj.wperp)
            if pt is not None:
                candidates.append((pt, "vertex"))
    # points on secant lines of panel points
    for _ in range(10):
        pair = ctx.panel_pair(stream)
        if pair is not None:
            candidates.append(((stream.nonzero(p) * pair[0]
                                + stream.nonzero(p) * pair[1]) % p,
                               "secant"))
    pts, labels = zip(*candidates) if candidates else ((), ())
    report["structured_checked"] = sum(
        pt is not None for pt in probe(list(pts), list(labels)))
    return report


def trajectory_csv(acc: SpanAccumulator) -> str:
    lines = ["batch,rank"]
    for k, r in enumerate(acc.trajectory):
        lines.append(f"{k},{r}")
    return "\n".join(lines) + "\n"
