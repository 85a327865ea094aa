"""Quadric-bundle structure of the quartic over the plane of the net.

Blowing up the vertex turns the quartic into a family of quadrics in g-2
variables indexed by the plane.  The family is read off the reconstructed
form directly: restrict to the fiber over a plane point in the adapted
coordinates of `fibers.fiber_bases`, where the vertex form is y0, check
that only the monomials y0^2 m survive, and read q off them
(`fibers.on_fibers`), as the reconstruction and its holdout certificate
do.  The discriminant locus of the family is the plane image of the curve,
and the singular point of the fiber over a smooth image point is the curve
point itself.  The nodes of the image are counted as the length of the
scheme that the partials of its equation cut out, read off the ranks of
their multiples (`node_count`), with no draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from . import algebra as alg
from . import fibers as fb
from . import monomials as mono
from . import net as nt
from .canring import CurveContext
from .cone import QuarticCone
from .curve import quadric_gram
from .errors import (CurveConesError, Draws, NodeFiber, RankDeficientW,
                     SplittingViolation, VerificationFailed, outcomes)
from .rng import Stream


@dataclass
class FiberQuadric:
    u: np.ndarray          # plane point, normalized
    gram: np.ndarray       # (g-2) x (g-2) Gram of the residual quadric
    basis: np.ndarray      # g x (g-2); columns: vertex-complement, vertex


# what fiber_quadric gives a plane point that fails, in the order it tests
# them
_QUADRIC_FAILURES = (
    (RankDeficientW, "plane point cannot be zero"),
    (SplittingViolation,
     "restricted quartic is not divisible by the vertex form squared"),
)


def fiber_quadric(ctx: CurveContext, net_obj: nt.Net, cone: QuarticCone,
                  us) -> list[FiberQuadric | CurveConesError]:
    """Residual quadric of the quartic over each plane point of an N x 3
    stack.

    Every monomial of the restriction must carry the vertex-cutting
    coordinate y0 with exponent at least two; failure falsifies the
    vertex-singularity certificate of the cone.  A point that fails gets,
    in place of its fiber, the exception of the one-point chain.  The
    stack goes through one `fibers.fiber_bases`, the basis `split_fibers`
    builds, and one `restrict`."""
    p = ctx.p
    us = np.asarray(us, dtype=np.int64).reshape(-1, 3) % p
    _, basis, _ = fb.fiber_bases(net_obj.w, net_obj.wperp, us, p)
    quotients, rest = fb.on_fibers(cone.coeffs, ctx.g, basis, p)
    grams = quadric_gram(quotients, ctx.g - 2, p)
    failed = np.stack([~us.any(axis=1), rest.any(axis=1)])
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


def node_count(gamma: nt.PlaneCurve, p: int) -> int:
    """Length of the singular scheme of the plane curve: the sum of its
    Tjurina numbers, so its number of singular points when every one is a
    node; a cusp counts 2.

    Let J be the ideal of the partials of f, of degree D - 1; by Euler's
    relation D f lies in J, so J cuts out the singular scheme (p > D, as
    everywhere in the engine).  H(d) = count(3, d) - the rank of the
    degree-d multiples of the partials is the Hilbert function of S/J.
    Once H(d + 1) = H(d) <= d at a d >= D - 1, H grows maximally from d
    to d + 1, so by Gotzmann's persistence theorem (G. Gotzmann, Math. Z.
    158, 1978; Bruns-Herzog, Cohen-Macaulay Rings, Thm 4.3.3) H keeps that
    value for good: it is the Hilbert polynomial of S/J, the length
    sought, over any field and with no draw.  The degrees are read upward
    from 2D - 1, H(d + 1) first, as H(d) matters only when H(d + 1) <= d,
    and a failed test steps d to max(d + 1, H(d + 1)), where it holds once
    H has settled (any d that passes gives the length): a general net's
    image stops at d = 11 at genus 4 (H = 6) and at 16 at genus 5
    (H = 16), two ranks each, and 8 general lines (length 28) read degrees
    16, 29 and 28.

    A reduced curve has finitely many singular points, and its singular
    scheme lies in the complete intersection of two general combinations
    of the partials, of length (D - 1)^2; the H of a curve with isolated
    singularities is constant from degree 3D - 5 on (classical over the
    complex numbers).  So the test holds by d = max(2D - 1, (D - 1)^2), and
    no step passes that cap, as H(d) <= (D - 1)^2 from d = 2D - 3 on.
    A curve with a multiple component has a singular scheme of dimension
    one, whose H grows without end: past that cap the count raises
    VerificationFailed naming the degrees read."""
    degree = gamma.degree
    partials = mono.gradient(gamma.coeffs, 3, degree, p)

    @cache
    def hilbert(d: int) -> int:
        rows = mono.multiples(partials, degree - 1, d, 3, p)
        return mono.count(3, d) - alg.rank(rows.reshape(-1, rows.shape[-1]),
                                           p)

    start = d = 2 * degree - 1
    cap = max(start, (degree - 1) ** 2)
    while d <= cap:
        if hilbert(d + 1) <= d and hilbert(d) == hilbert(d + 1):
            return hilbert(d)
        d = max(d + 1, hilbert(d + 1))
    raise VerificationFailed(
        f"the Hilbert function of the singular scheme of a degree-{degree} "
        f"curve still grows at degrees {start} to {cap + 1}: the curve has "
        "a multiple component")


def scan_rows_to_csv(rows) -> str:
    lines = ["u0,u1,u2,gamma_u,det_gram,kernel_match"]
    for u, gval, dval, match in rows:
        flag = "" if match is None else str(int(match))
        lines.append(f"{int(u[0])},{int(u[1])},{int(u[2])},"
                     f"{int(gval)},{int(dval)},{flag}")
    return "\n".join(lines) + "\n"
