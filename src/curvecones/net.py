"""Nets of canonical sections: vertex, plane projection, degeneracy test,
and the pointwise membership oracles for the quartic cone and its polars.

A net is a 3-plane W of sections.  Its vertex is the annihilator subspace
of the dual projective space, the center of the projection onto the plane
of the net.  The degeneracy divisor is detected by restricting the quadric
ideal piece to the vertex: the source and target have the same dimension
(g-2)(g-3)/2, and membership is exactly failure of invertibility.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import algebra as alg
from . import monomials as mono
from . import pencil as pc
from .canring import CurveContext
from .errors import (AmbiguousFit, CorankJump, InVertex, OnGammaFiber,
                     RankDeficientW, resample)
from .rng import Stream


@dataclass
class PlaneCurve:
    degree: int
    coeffs: np.ndarray     # ternary form, echelon-normalized


@dataclass
class Net:
    w: np.ndarray          # 3 x g echelon-normalized
    wperp: np.ndarray      # (g-3) x g vertex basis
    in_b: bool
    in_d: bool
    d_certificate: np.ndarray | None   # quadric coefficients when in_d
    gamma: PlaneCurve | None = field(default=None, repr=False)


@dataclass
class OracleWitness:
    b: np.ndarray
    v_b: np.ndarray        # 2 x g pencil cut by b inside the net
    y: np.ndarray          # solution of gram y = b, defined mod the pencil
    gram: np.ndarray


def res_matrix(ctx: CurveContext, wperp: np.ndarray) -> np.ndarray:
    """Restriction of the quadric ideal piece to the vertex.

    Rows are ideal basis quadrics written in the (g-3)-variable coordinates
    of the parametrized vertex; both sides have dimension (g-2)(g-3)/2.
    """
    basis = ctx.ideal(2).basis
    rows = [mono.restrict(q, 2, ctx.g, wperp.T, ctx.p) for q in basis]
    return np.stack(rows)


def build_net(ctx: CurveContext, w: np.ndarray, with_gamma: bool = True
              ) -> Net:
    p = ctx.p
    w = np.asarray(w, dtype=np.int64) % p
    wr, pivots = alg.rref(w, p)
    if w.shape != (3, ctx.g) or len(pivots) != 3:
        raise RankDeficientW("net basis must have rank 3")
    wr = wr[:3]
    wperp = alg.kernel_basis(wr, p)
    panel_vals = ctx.panel @ wr.T % p
    in_b = bool((~panel_vals.any(axis=1)).any()) or bool(
        (~(ctx.holdout @ wr.T % p).any(axis=1)).any())
    res = res_matrix(ctx, wperp)
    certificate = None
    in_d = alg.rank(res, p) < res.shape[0]
    if in_d:
        left_kernel = alg.kernel_basis(res.T, p)
        if left_kernel.shape[0] == 1:
            combo = left_kernel[0]
            certificate = alg.normalize_scalar(
                combo @ ctx.ideal(2).basis % p, p)
    net = Net(w=wr, wperp=wperp, in_b=in_b, in_d=in_d,
              d_certificate=certificate)
    if with_gamma and not in_b:
        net.gamma = gamma_equation(ctx, net)
    return net


def net_from_vertex(ctx: CurveContext, vertex_rows: np.ndarray) -> Net:
    """Net annihilating the given vertex spanning vectors."""
    w = alg.kernel_basis(np.atleast_2d(vertex_rows), ctx.p)
    if w.shape[0] != 3:
        raise RankDeficientW("vertex span does not cut a 3-plane of sections")
    return build_net(ctx, w)


def random_net(ctx: CurveContext, stream: Stream) -> Net:
    """A net off the base locus and off the degeneracy divisor."""
    def draw(_):
        net = build_net(ctx, stream.field_mat(ctx.p, 3, ctx.g))
        return None if net.in_b or net.in_d else net

    return resample("generic net", 200, draw)


def pencil_at(net: Net, u: np.ndarray, p: int) -> np.ndarray:
    """Pencil of net sections over the plane point u: the combinations
    c @ net.w with c orthogonal to u."""
    u = np.asarray(u, dtype=np.int64).reshape(1, 3)
    return alg.kernel_basis(u, p) @ net.w % p


def project(net: Net, pts: np.ndarray, p: int) -> np.ndarray:
    """Images of points under the projection from the vertex, row-wise."""
    return np.atleast_2d(pts) @ net.w.T % p


def gamma_equation(ctx: CurveContext, net: Net) -> PlaneCurve:
    """Fit the unique plane image equation of degree 2g-2 through the
    projected panel; a fresh holdout point then validates the fit."""
    if net.gamma is not None:
        return net.gamma
    if net.in_b:
        raise AmbiguousFit("projection is not a morphism: net has a "
                           "base point")
    p = ctx.p
    degree = 2 * ctx.g - 2
    projected = project(net, ctx.panel, p)
    seen = {}
    for row in projected:
        if row.any():
            seen[tuple(alg.normalize_scalar(row, p).tolist())] = row
    pts = np.stack([np.array(k, dtype=np.int64) for k in sorted(seen)])
    needed = mono.count(3, degree) + 10
    if pts.shape[0] < needed:
        raise AmbiguousFit(
            f"only {pts.shape[0]} projected points, need {needed}")
    e = mono.eval_matrix(pts, 3, degree, p)
    kernel = alg.kernel_basis(e, p)
    if kernel.shape[0] != 1:
        raise AmbiguousFit(
            f"plane-curve fit kernel has dimension {kernel.shape[0]}")
    gamma = PlaneCurve(degree=degree,
                       coeffs=alg.normalize_scalar(kernel[0], p))
    net.gamma = gamma
    return gamma


def oracle_witness(ctx: CurveContext, net: Net, b: np.ndarray,
                   check_gamma: bool = True) -> OracleWitness:
    """Shared setup of the pointwise membership oracles.

    Cuts the pencil of net sections vanishing at b, builds the cup Gram for
    a lift, and solves gram y = b; y is well defined modulo the pencil and
    all downstream pairings are insensitive to that ambiguity.
    """
    p = ctx.p
    b = np.asarray(b, dtype=np.int64) % p
    if not b.any():
        raise InVertex("zero probe vector")
    if alg.RowSpace(net.wperp, p).contains(b):
        raise InVertex("probe lies on the vertex")
    u = net.w @ b % p
    if check_gamma:
        gamma = gamma_equation(ctx, net)
        if mono.form_eval_one(gamma.coeffs, u, 3, gamma.degree, p) == 0:
            raise OnGammaFiber("probe projects onto the plane image")
    pen = pc.build_pencil(ctx, pencil_at(net, u, p))
    lift_idx = alg.first_nonzero(u)
    wlift = net.w[lift_idx]
    cg = pc.cup_gram(ctx, pen, wlift)
    if pc.corank(cg.gram, p) != 2:
        raise CorankJump("cup Gram corank is not 2")
    y, _ = alg.solve_consistent(cg.gram, b, p)
    return OracleWitness(b=b, v_b=pen.v, y=y, gram=cg.gram)


def oracle_value(ctx: CurveContext, net: Net, b: np.ndarray,
                 check_gamma: bool = True) -> int:
    """Witness pairing <b, y>; zero exactly on the quartic cone."""
    wit = oracle_witness(ctx, net, b, check_gamma=check_gamma)
    return int(wit.b @ wit.y % ctx.p)


def fw_oracle(ctx: CurveContext, net: Net, b: np.ndarray) -> bool:
    """Membership of b in the quartic cone, via the witness pairing."""
    return oracle_value(ctx, net, b) == 0


def polar_oracle(ctx: CurveContext, net: Net, x: np.ndarray,
                 b: np.ndarray) -> bool:
    """Membership of b in the polar cubic with respect to vertex vector x."""
    p = ctx.p
    x = np.asarray(x, dtype=np.int64) % p
    if not x.any():
        raise ValueError("x must be a nonzero vertex vector")
    if not alg.RowSpace(net.wperp, p).contains(x):
        raise ValueError("x must lie in the vertex span")
    wit = oracle_witness(ctx, net, b)
    return int(x @ wit.y % p) == 0
