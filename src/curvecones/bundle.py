"""Quadric-bundle structure of the quartic over the plane of the net.

Blowing up the vertex turns the quartic into a family of quadrics in g-2
variables indexed by the plane.  The family is read off the reconstructed
form directly: restrict to the orthogonal space of the pencil over a plane
point, check divisibility by the square of the vertex form, divide.  The
discriminant locus of the family is the plane image of the curve, and the
singular point of the fiber over a smooth image point is the curve point
itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import algebra as alg
from . import monomials as mono
from . import net as nt
from .canring import CurveContext
from .cone import QuarticCone
from .curve import quadric_gram
from .errors import (CurveConesError, Draws, NodeFiber,
                     NonGenericCoordinates, RankDeficientW, SplittingViolation,
                     outcomes, resample)
from .rng import Stream, derive_key


@dataclass
class FiberQuadric:
    u: np.ndarray          # plane point, normalized
    gram: np.ndarray       # (g-2) x (g-2) Gram of the residual quadric
    basis: np.ndarray      # g x (g-2); columns: vertex-complement, vertex


# what fiber_quadric gives a plane point that fails, in the order it tests
# them
_QUADRIC_FAILURES = (
    (RankDeficientW, "plane point cannot be zero"),
    (RankDeficientW, "fiber space collapsed onto the vertex"),
    (SplittingViolation,
     "restricted quartic is not divisible by the vertex form squared"),
)


def fiber_quadric(ctx: CurveContext, net_obj: nt.Net, cone: QuarticCone,
                  us) -> list[FiberQuadric | CurveConesError]:
    """Residual quadric of the quartic over each plane point of an N x 3
    stack.

    Every monomial of the restriction must carry the vertex-cutting
    coordinate with exponent at least two; failure falsifies the
    vertex-singularity certificate of the cone.  A point that fails gets,
    in place of its fiber, the exception of the one-point chain.  The
    stack goes through one `pencil_at`, one `kernel_batch` for the
    annihilators of the pencils, one reduction modulo the vertex and one
    `restrict`."""
    p = ctx.p
    g = ctx.g
    m = g - 2
    us = np.asarray(us, dtype=np.int64).reshape(-1, 3) % p
    n = us.shape[0]
    vperp, _ = alg.kernel_batch(nt.pencil_at(net_obj.w, us, p), p, m)
    # the first annihilator row off the vertex leads the fiber basis
    off_vertex = alg.RowSpace(net_obj.wperp, p).reduce(vperp).any(axis=2)
    lead = vperp[np.arange(n), off_vertex.argmax(axis=1)]
    basis = np.concatenate([lead[:, :, None], np.broadcast_to(
        net_obj.wperp.T, (n, g, g - 3))], axis=2)     # N x g x (g-2)
    restricted = mono.restrict(cone.coeffs, 4, g, basis, p)
    # the monomials divisible by z0^2 come first, and dividing them by
    # z0^2 lists exponents(m, 2) in order
    divisible = np.array(mono.exponents(m, 4))[:, 0] >= 2
    grams = quadric_gram(restricted[:, divisible], m, p)
    failed = np.stack([~us.any(axis=1), ~off_vertex.any(axis=1),
                       restricted[:, ~divisible].any(axis=1)])
    u = alg.normalize_rows(us, p)
    return outcomes(failed, _QUADRIC_FAILURES, lambda i: FiberQuadric(
        u=u[i], gram=grams[i], basis=basis[i]))


def steinerian_check(fibers: list[FiberQuadric], pts, p: int
                     ) -> np.ndarray:
    """Per fiber, whether it is singular at exactly one point and that
    point is the curve point pts[i] (meaningful over smooth image points
    only), from one `kernel_batch` of the Grams; pts is N x g."""
    pts = np.asarray(pts, dtype=np.int64)
    g = pts.shape[1]
    grams = np.array([fq.gram for fq in fibers], dtype=np.int64
                     ).reshape(-1, g - 2, g - 2)
    bases = np.array([fq.basis for fq in fibers], dtype=np.int64
                     ).reshape(-1, g, g - 2)
    kern, corank_one = alg.kernel_batch(grams, p, 1)
    ambient = (bases @ kern.transpose(0, 2, 1))[:, :, 0] % p
    same = alg.normalize_rows(ambient, p) == alg.normalize_rows(pts, p)
    return corank_one & ambient.any(axis=1) & same.all(axis=1)


def hessian_scan(ctx: CurveContext, net_obj: nt.Net, cone: QuarticCone,
                 on_count: int, off_count: int, stream: Stream) -> dict:
    """Sample the discriminant both on and off the plane image.

    Fibers over smooth image points of curve points must be singular with
    the curve point as kernel; fibers over random points off the image must
    be nonsingular.  An image point that several panel points share, or at
    which the image is singular, is skipped: the Steinerian is undefined
    there.  When the panel has fewer than on_count usable points, the scan
    raises the exhaustion of its on-image draws.  Returns counts and the
    per-fiber rows for export.

    The fibers are split in rounds (`Draws.rounds`), exactly the draws of
    a loop that splits one fiber at a time; the determinants of all Grams
    come from one `det_batch`."""
    p = ctx.p
    gamma = nt.gamma_equation(ctx, net_obj)
    # the projected panel (no point of it is zero, as the net has no base
    # point), how many panel points share each image, the image's gradient
    # there and gamma there
    proj = nt.project(net_obj, ctx.panel, p)
    _, image, sharing = nt.plane_points(proj, p)
    grad = mono.form_eval(mono.gradient(gamma.coeffs, 3, gamma.degree, p).T,
                          proj, 3, gamma.degree - 1, p)
    on_values = mono.form_eval(gamma.coeffs, proj, 3, gamma.degree, p)

    def on_image(k: int) -> int:
        if sharing[image[k]] != 1:
            raise NodeFiber("several panel points share this fiber")
        if not grad[k].any():
            raise NodeFiber("plane image is singular at this fiber")
        return k

    def off_image(_):
        u = stream.field_vec(p, 3)
        gval = mono.form_eval_one(gamma.coeffs, u, 3, gamma.degree, p)
        # zero when u is zero or on the image
        return None if gval == 0 else (u, gval)

    on_draws = Draws("on-image fibers", len(ctx.panel), on_image)
    on = on_draws.rounds(on_count, lambda ks: fiber_quadric(
        ctx, net_obj, cone, proj[ks]))
    if len(on) < on_count:
        raise on_draws.exhausted()
    off = Draws("off-image fibers", 40 * off_count, off_image).rounds(
        off_count, lambda drawn: fiber_quadric(ctx, net_obj, cone,
                                               [u for u, _ in drawn]))
    on_fibers = [fq for _, fq in on]
    matches = steinerian_check(on_fibers, ctx.panel[[k for k, _ in on]], p)
    fibers = on_fibers + [fq for _, fq in off]
    m = ctx.g - 2
    dets = alg.det_batch(np.array([fq.gram for fq in fibers],
                                  dtype=np.int64).reshape(-1, m, m), p)
    on_rows = [(fq.u, int(on_values[k]), int(d), bool(match))
               for (k, fq), d, match in zip(on, dets, matches)]
    off_rows = [(fq.u, gval, int(d), None)
                for ((_, gval), fq), d in zip(off, dets[len(on):])]
    rows = on_rows + off_rows
    return {
        "rows": rows,
        "on_checked": len(on_rows),
        "on_singular": sum(1 for r in rows if r[1] == 0 and r[2] == 0),
        "kernel_matches": sum(1 for r in on_rows if r[3]),
        "off_checked": len(off_rows),
        "off_nonsingular": sum(1 for r in off_rows if r[2] != 0),
    }


# ---------------------------------------------------------------------------
# node counting


def _chart_with_partials(coeffs: np.ndarray, degree: int, p: int
                         ) -> list[np.ndarray]:
    """A ternary form and its partials in z0 and z1, as bivariate arrays
    in the chart z2 = 1 (entry [i, j] the coefficient of z0^i z1^j)."""
    chart = [[1, 0], [0, 1], [0, 0]]
    return [mono.collect(coeffs, degree, 3, chart, p)] + [
        mono.collect(partial, degree - 1, 3, chart, p)
        for partial in mono.gradient(coeffs, 3, degree, p)[:2]]


def node_count(gamma: nt.PlaneCurve, p: int, seed: int = 0) -> int:
    """Distinct singular points of the plane curve over the algebraic
    closure.

    A random frame change makes singular-point abscissae distinct; the two
    resultants of the curve with its partials share exactly the singular
    abscissae.  Rational candidates are validated against all three
    equations; candidates over extensions are counted through the degree of
    the squarefree part."""
    degree = gamma.degree

    def count_in_frame(attempt: int) -> int | None:
        stream = Stream(derive_key(seed, f"node-count|{attempt}"), "frame")
        frame = stream.field_mat(p, 3, 3)
        if alg.rank(frame, p) != 3:
            return None
        changed = mono.restrict(gamma.coeffs, degree, 3, frame, p)
        f, fx, fy = _chart_with_partials(changed, degree, p)
        if int(f[0, degree]) == 0 or int(f[degree, 0]) == 0:
            return None  # need full y-degree and x-degree with constant leads
        r1 = alg.resultant_bivariate(f, fx, p)
        r2 = alg.resultant_bivariate(f, fy, p)
        if alg.poly_deg(r1) < 0 or alg.poly_deg(r2) < 0:
            return None
        h = alg.poly_gcd(r1, r2, p)
        if alg.poly_deg(h) <= 0:
            return 0
        h_free = alg.squarefree_part(h, p)
        rational = alg.distinct_roots(h_free, p)
        count = alg.poly_deg(h_free) - len(rational)
        at = [[alg.poly_trim(row) for row in alg.p2_eval_x(e, rational, p)]
              for e in (f, fx, fy)]
        for fy_a, fxy_a, fyy_a in zip(*at):
            if not (len(fy_a) and len(fxy_a) and len(fyy_a)):
                raise NonGenericCoordinates("partials collapse at a "
                                            "candidate abscissa")
            common = alg.poly_gcd(alg.poly_gcd(fy_a, fxy_a, p), fyy_a, p)
            if alg.poly_deg(common) < 1:
                continue  # fake candidate from unrelated branch points
            if alg.poly_deg(alg.squarefree_part(common, p)) > 1:
                raise NonGenericCoordinates(
                    "two singular points share an abscissa")
            count += 1
        return count

    return resample("node-count frame", 6, count_in_frame)


def scan_rows_to_csv(rows) -> str:
    lines = ["u0,u1,u2,gamma_u,det_gram,kernel_match"]
    for u, gval, dval, match in rows:
        flag = "" if match is None else str(int(match))
        lines.append(f"{int(u[0])},{int(u[1])},{int(u[2])},"
                     f"{int(gval)},{int(dval)},{flag}")
    return "\n".join(lines) + "\n"
