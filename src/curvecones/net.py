"""Nets of canonical sections: vertex, plane projection, degeneracy test,
and the pointwise membership oracles for the quartic cone and its polars.

A net is a 3-plane W of sections.  Its vertex is the annihilator subspace
of the dual projective space, the center of the projection onto the plane
of the net.  The degeneracy divisor is detected by restricting the quadric
ideal piece to the vertex: the source and target have the same dimension
(g-2)(g-3)/2, and membership is exactly failure of invertibility.

The plane image of a net is a curve of degree d = 2g-2, fitted through the
projected panel.  Bezout fixes it from d**2 + 1 of its points, so
`gamma_equations` takes the kernel of the first max(count(3, d) + 10,
d**2 + 1) rows of the evaluation matrix (38 at genus 4, 65 at genus 5, of
140 panel points), checks the kernel vector against every row, and falls
back to the kernel of all rows when the subset kernel is not
one-dimensional or the check fails; the fit is that of all rows.  A check
sums count(3, d) <= 45 products below p**2 at g <= 5, below 2**56 at
p < 2**25.

The membership oracle cuts the pencil of the net vanishing at a probe;
whether that pencil is admissible is `pencil.admissibility`, whose
failures the oracle's own failure table splices in.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import algebra as alg
from . import monomials as mono
from . import pencil as pc
from .canring import CurveContext
from .errors import (AmbiguousFit, CorankJump, CurveConesError,
                     DegenerateInput, InconsistentSystem, InVertex,
                     OnGammaFiber, RankDeficientW, exhausted, outcomes,
                     value_of)
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
    v_b: np.ndarray        # 2 x g basis of the pencil cut by b in the net
    y: np.ndarray          # solution of gram y = b, defined mod the pencil
    gram: np.ndarray


def res_matrix(ctx: CurveContext, wperp: np.ndarray) -> np.ndarray:
    """Restriction of the quadric ideal piece to the vertex.

    Rows are ideal basis quadrics written in the (g-3)-variable coordinates
    of the parametrized vertex; both sides have dimension (g-2)(g-3)/2.  A
    stack of vertex bases gives a stack of matrices, from one `restrict`.
    """
    restricted = mono.restrict(ctx.ideal(2).basis.T, 2, ctx.g,
                               np.swapaxes(wperp, -1, -2), ctx.p)
    return np.swapaxes(restricted, -1, -2)


def build_nets(ctx: CurveContext, ws) -> list[Net | RankDeficientW]:
    """The net of each 3 x g basis of a stack, or `RankDeficientW` in the
    slot of a basis that does not have rank 3.

    One `rref_batch` echelon-normalizes the bases, and the vertices are
    read off the same pass; three products with the context's points, one
    per section, find the base points.  res is square, so the net is in D
    exactly when one `rref_batch` of the stacked res^T finds a free column,
    and a one-dimensional left kernel of res gives the quadric certifying
    it.
    """
    p = ctx.p
    g = ctx.g
    ws = np.asarray(ws, dtype=np.int64) % p
    if ws.shape[1:] != (3, g):
        return [RankDeficientW("net basis must have rank 3") for _ in ws]
    wr, pivots = alg.rref_batch(ws, p)
    wperp, _ = alg.special_solutions_batch(wr, pivots, g - 3, p)
    # a point of the context where all three sections vanish, one section
    # at a time so that a round keeps one N x points array
    pts_t = ctx.points.T
    vanish = np.ones((len(ws), pts_t.shape[1]), dtype=bool)
    for k in range(3):
        values = wr[:, k] @ pts_t
        values %= p
        vanish &= values == 0
    in_b = vanish.any(axis=1)
    reduced, res_pivots = alg.rref_batch(
        res_matrix(ctx, wperp).transpose(0, 2, 1), p)
    left, one = alg.special_solutions_batch(reduced, res_pivots, 1, p)
    certificates = alg.normalize_rows(left[:, 0] @ ctx.ideal(2).basis % p, p)
    return [Net(w=wr[i], wperp=wperp[i], in_b=bool(in_b[i]),
                in_d=bool(res_pivots[i, -1] < 0),
                d_certificate=certificates[i] if one[i] else None)
            if pivots[i, 2] >= 0
            else RankDeficientW("net basis must have rank 3")
            for i in range(len(ws))]


def build_net(ctx: CurveContext, w: np.ndarray) -> Net:
    """`build_nets` on one basis, raising its exception."""
    return value_of(build_nets(ctx, np.asarray(w)[None])[0])


def net_from_vertex(ctx: CurveContext, vertex_rows: np.ndarray) -> Net:
    """Net annihilating the given vertex spanning vectors."""
    w = alg.kernel_basis(np.atleast_2d(vertex_rows), ctx.p)
    if w.shape[0] != 3:
        raise RankDeficientW("vertex span does not cut a 3-plane of sections")
    return build_net(ctx, w)


def random_nets(ctx: CurveContext, streams: list[Stream]
                ) -> list[Net | DegenerateInput]:
    """`random_net` of each stream, or the exhaustion it raises, drawn in
    rounds: each net still missing draws its next basis from its own
    stream, and one `build_nets` and one `usable` serve a round."""
    out: list = [None] * len(streams)
    for _ in range(200):
        missing = [i for i, net in enumerate(out) if net is None]
        if not missing:
            return out
        nets = build_nets(ctx, [streams[i].field_mat(ctx.p, 3, ctx.g)
                                for i in missing])
        for i, net, ok in zip(missing, nets, usable(ctx, nets)):
            if ok:
                out[i] = net
    return [net or exhausted("generic net", 200) for net in out]


def usable(ctx: CurveContext, nets: list) -> list[bool]:
    """Whether each net (or the exception in its place) is off B and D and
    `gamma_equations` fits its plane image, from one `gamma_equations` of
    the nets off B and D."""
    out = [False] * len(nets)
    live = [k for k, net in enumerate(nets)
            if isinstance(net, Net) and not net.in_b and not net.in_d]
    for k, fit in zip(live, gamma_equations(ctx, [nets[k] for k in live])):
        out[k] = isinstance(fit, PlaneCurve)
    return out


def random_net(ctx: CurveContext, stream: Stream) -> Net:
    """A net off the base locus and off the degeneracy divisor, with the
    equation of its plane image fitted (`gamma_equation`)."""
    return value_of(random_nets(ctx, [stream])[0])


def pencil_at(w: np.ndarray, u: np.ndarray, p: int) -> np.ndarray:
    """Pencils of net sections over nonzero plane points: the combinations
    c @ w with c orthogonal to u, as the kernel basis of u.

    w is a net basis (3 x g) or one per point (... x 3 x g), u is ... x 3,
    the result ... x 2 x g, from one `kernel_batch` pass over the points.
    A pencil has rank 2 as w has rank 3; a zero point gets zero rows."""
    u = np.asarray(u, dtype=np.int64) % p
    c, _ = alg.kernel_batch(u.reshape(-1, 1, 3), p, 2)
    return c.reshape(u.shape[:-1] + (2, 3)) @ w % p


def project(net: Net, pts: np.ndarray, p: int) -> np.ndarray:
    """Images of points under the projection from the vertex, row-wise."""
    return np.atleast_2d(pts) @ net.w.T % p


def gamma_equation(ctx: CurveContext, net: Net) -> PlaneCurve:
    """`gamma_equations` on one net, raising its exception."""
    return value_of(gamma_equations(ctx, [net])[0])


# nets per array pass of gamma_equations: a pass holds the evaluation
# matrix of each of its nets at every projected panel point (140 x 28 int64
# at genus 4, 140 x 45 at genus 5).  Under tracemalloc a pass of 8 peaks
# at 0.8 MB at genus 4 and 2.3 MB at genus 5, against 0.12 and 0.31 MB for
# one net; 25 genus-4 fits take 27 ms in passes of 8 and 37 ms one net at
# a time (48 ms from all rows).  With all the nets of a call in one pass, a
# genus-4 seed 1 `spans` peaked at 33.9-34.0 MB RSS against 32.4-32.5 MB
# (5 alternating runs each, 2-core host)
GAMMA_PASS = 8


def gamma_equations(ctx: CurveContext, nets: list[Net]
                    ) -> list[PlaneCurve | AmbiguousFit]:
    """The plane image equation of each net, kept in `net.gamma`, or an
    `AmbiguousFit` for a net with a base point, with fewer than
    count(3, d) + 10 distinct projected points, or whose fit kernel is not
    one-dimensional.  Nets without a fit go in passes of up to GAMMA_PASS,
    each one `kernel_batch` of the Bezout-sized subsets and one product
    checking every row (module docstring)."""
    out: list = [net.gamma if net.gamma is not None
                 else AmbiguousFit("projection is not a morphism: net has "
                                   "a base point") if net.in_b
                 else None for net in nets]
    todo = [k for k, fit in enumerate(out) if fit is None]
    for lo in range(0, len(todo), GAMMA_PASS):
        part = todo[lo:lo + GAMMA_PASS]
        for k, fit in zip(part, _gamma_pass(ctx, [nets[k] for k in part])):
            out[k] = fit
            if isinstance(fit, PlaneCurve):
                nets[k].gamma = fit
    return out


def _gamma_pass(ctx: CurveContext, nets: list[Net]
                ) -> list[PlaneCurve | AmbiguousFit]:
    """`gamma_equations` on nets off B without a fit, as one array pass."""
    p = ctx.p
    degree = 2 * ctx.g - 2
    needed = mono.count(3, degree) + 10
    rows = max(needed, degree ** 2 + 1)
    w = np.stack([net.w for net in nets])
    projected = alg.normalize_rows(
        (ctx.panel @ w.transpose(0, 2, 1) % p).reshape(-1, 3), p)
    # asking for counts keeps np.unique off its hash path, whose check for
    # masked input imports numpy.ma (about 30 ms and 0.6 MB per process)
    pts = [np.unique(proj[proj.any(axis=1)], axis=0, return_counts=True)[0]
           for proj in projected.reshape(len(nets), -1, 3)]
    sizes = np.array([len(x) for x in pts])
    starts = np.cumsum(sizes) - sizes
    e = mono.eval_matrix(np.concatenate(pts), 3, degree, p)
    # the subset fit of each net with enough points, checked on all rows
    sub = np.nonzero(sizes >= rows)[0]
    kernel, one = alg.kernel_batch(e[starts[sub, None] + np.arange(rows)],
                                   p, 1)
    v = np.zeros((len(nets), e.shape[1]), dtype=np.int64)
    v[sub] = kernel[:, 0]
    fitted = np.zeros(len(nets), dtype=bool)
    fitted[sub] = one
    owner = np.repeat(np.arange(len(nets)), sizes)
    off = (e @ v.T)[np.arange(len(owner)), owner] % p != 0
    fitted &= np.bincount(owner[off], minlength=len(nets)) == 0
    coeffs = alg.normalize_rows(v, p)
    out: list = []
    for k, x in enumerate(pts):
        if len(x) < needed:
            out.append(AmbiguousFit(
                f"only {len(x)} projected points, need {needed}"))
            continue
        if not fitted[k]:
            kernel = alg.kernel_basis(e[starts[k]:starts[k] + sizes[k]], p)
            if kernel.shape[0] != 1:
                out.append(AmbiguousFit("plane-curve fit kernel has "
                                        f"dimension {kernel.shape[0]}"))
                continue
            coeffs[k] = alg.normalize_rows(kernel[0], p)
        out.append(PlaneCurve(degree=degree, coeffs=coeffs[k]))
    return out


# what oracle_witness raises for a probe, in the order it tests them; the
# rank test of `pencil.INADMISSIBLE` never decides, as the pencil over a
# nonzero plane point has rank 2 and a zero one fails on the vertex first
_WITNESS_FAILURES = (
    (InVertex, "zero probe vector"),
    (InVertex, "probe lies on the vertex"),
    (OnGammaFiber, "probe projects onto the plane image"),
) + pc.INADMISSIBLE + (
    (CorankJump, "cup Gram corank is not 2"),
    (InconsistentSystem, "rhs is not in the column space"),
)


def _on_gamma(ctx: CurveContext, nets: list[Net], u: np.ndarray
              ) -> tuple[np.ndarray, dict]:
    """Which plane points u[n] lie on the plane image of nets[n], and the
    exception of each probe whose net has no plane image equation; one
    `gamma_equations` fits the distinct nets."""
    hits = np.zeros(len(nets), dtype=bool)
    unfit: dict = {}
    keys = np.array([id(net) for net in nets])
    distinct = list({id(net): net for net in nets}.values())
    for net, gamma in zip(distinct, gamma_equations(ctx, distinct)):
        mine = keys == id(net)
        if isinstance(gamma, AmbiguousFit):
            hits[mine] = True
            unfit.update(dict.fromkeys(np.nonzero(mine)[0].tolist(), gamma))
            continue
        hits[mine] = mono.form_eval(gamma.coeffs, u[mine], 3, gamma.degree,
                                    ctx.p) == 0
    return hits, unfit


# probes per array pass of oracle_batch: the stacks of a pass take about
# 8 kB per probe at genus 4, and their peak adds to the process's RSS.
# With all the probes of a call in one pass, a genus-4 seed 1
# `verify --full` peaked at 34.2 MB RSS against 32.6-32.7 MB (5
# alternating runs each, 2-core host)
WITNESS_PASS = 32


def oracle_batch(ctx: CurveContext, nets: list[Net], probes,
                 check_gamma: bool = True
                 ) -> list[OracleWitness | CurveConesError]:
    """The membership-oracle witness of each probe b[n] in nets[n].

    Cuts the pencil of net sections vanishing at b, builds the cup Gram for
    a lift, and solves gram y = b; y is well defined modulo the pencil and
    all downstream pairings are insensitive to that ambiguity.  A probe
    that fails gets, in place of its witness, the exception that
    `oracle_witness` raises for it: the first of `_WITNESS_FAILURES` that
    applies (the plane-image test only when check_gamma), the pencil's
    from `pencil.admissibility`.  Every step runs on a stack of up to
    WITNESS_PASS probes, failed ones included, through the `pencil`
    contractions and `algebra.rref_batch`.
    """
    b = np.asarray(probes, dtype=np.int64).reshape(-1, ctx.g) % ctx.p
    return [wit for lo in range(0, b.shape[0], WITNESS_PASS)
            for wit in _witness_pass(ctx, nets[lo:lo + WITNESS_PASS],
                                     b[lo:lo + WITNESS_PASS], check_gamma)]


def _witness_pass(ctx: CurveContext, nets: list[Net], b: np.ndarray,
                  check_gamma: bool) -> list[OracleWitness | CurveConesError]:
    """`oracle_batch` on reduced probes, as one array pass."""
    p = ctx.p
    g = ctx.g
    n = b.shape[0]
    w = np.stack([net.w for net in nets])
    u = np.einsum("nkj,nj->nk", w, b) % p      # zero exactly on the vertex
    on_gamma, unfit = _on_gamma(ctx, nets, u) if check_gamma \
        else (np.zeros(n, dtype=bool), {})
    v = pencil_at(w, u, p)
    vbar, inadmissible = pc.admissibility(ctx, v)
    # the lift w[j], u[j] != 0, never lies in the pencil orthogonal to u
    lift = w[np.arange(n), (u != 0).argmax(axis=1)]
    grams = pc.cup_grams(ctx, vbar, lift)
    y, rank, consistent = alg.solve_batch(grams, b[:, :, None], p)
    failed = np.concatenate([
        np.stack([~b.any(axis=1), ~u.any(axis=1), on_gamma]), inadmissible,
        np.stack([rank != g - 2, ~consistent])])
    out = outcomes(failed, _WITNESS_FAILURES, lambda i: OracleWitness(
        b=b[i], v_b=v[i], y=y[i, :, 0], gram=grams[i]))
    # a net without a plane image equation gives its AmbiguousFit instead
    return [unfit.get(i, wit) if isinstance(wit, OnGammaFiber) else wit
            for i, wit in enumerate(out)]


def oracle_witness(ctx: CurveContext, net: Net, b: np.ndarray,
                   check_gamma: bool = True) -> OracleWitness:
    """Shared setup of the pointwise membership oracles: `oracle_batch` on
    the one probe, raising its exception."""
    return value_of(oracle_batch(ctx, [net], [b], check_gamma)[0])


def oracle_value(ctx: CurveContext, net: Net, b: np.ndarray,
                 check_gamma: bool = True) -> int:
    """Witness pairing <b, y>; zero exactly on the quartic cone."""
    wit = oracle_witness(ctx, net, b, check_gamma=check_gamma)
    return int(wit.b @ wit.y % ctx.p)


def fw_oracle(ctx: CurveContext, net: Net, b: np.ndarray) -> bool:
    """Membership of b in the quartic cone, via the witness pairing."""
    return oracle_value(ctx, net, b) == 0


def vertex_direction(net: Net, x: np.ndarray, p: int) -> np.ndarray:
    """x reduced mod p, checked to be a nonzero vector of the vertex span."""
    x = np.asarray(x, dtype=np.int64) % p
    if not x.any():
        raise ValueError("x must be a nonzero vertex vector")
    if not alg.RowSpace(net.wperp, p).contains(x):
        raise ValueError("x must lie in the vertex span")
    return x


def polar_oracle(ctx: CurveContext, net: Net, x: np.ndarray,
                 b: np.ndarray) -> bool:
    """Membership of b in the polar cubic with respect to vertex vector x."""
    x = vertex_direction(net, x, ctx.p)
    wit = oracle_witness(ctx, net, b)
    return int(x @ wit.y % ctx.p) == 0
