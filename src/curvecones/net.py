"""Nets of canonical sections: vertex, plane projection, degeneracy test,
and the pointwise membership oracles for the quartic cone and its polars.

A net is a 3-plane W of sections.  Its vertex is the annihilator subspace
of the dual projective space, the center of the projection onto the plane
of the net.  The degeneracy divisor is detected by restricting the quadric
ideal piece to the vertex: the source and target have the same dimension
(g-2)(g-3)/2, and membership is exactly failure of invertibility.

The plane image of a net is a curve of degree d = 2g-2, fitted through the
projected panel.  The curve is irreducible, so Bezout fixes its image
from d**2 + 1 distinct points, and `gamma_equations` takes the kernel of
the first max(count(3, d) + 10, d**2 + 1) rows of the evaluation matrix
(38 at genus 4 of 140 panel points, 65 at genus 5 of 280) and checks
the kernel vector against every row.  Fewer distinct points, a subset
kernel that is not one-dimensional or a projected point off the fitted
curve give the net no fit.  A check sums count(3, d) <= 45 products
below p**2 at g <= 5, below 2**56 at p < 2**25.

The membership oracle cuts the pencil of the net vanishing at a probe;
whether that pencil is admissible is `pencil.admissibility`, whose
failures the oracle's own failure table splices in.

The fits and the oracle run in array passes that one cell budget,
`PASS_CELLS`, sizes: a pass holds as many nets or probes as fit in it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import algebra as alg
from . import monomials as mono
from . import pencil as pc
from .canring import CurveContext
from .errors import (AmbiguousFit, CorankJump, CurveConesError,
                     DegenerateInput, Draws, InconsistentSystem, InVertex,
                     OnGammaFiber, RankDeficientW, lockstep, outcomes,
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


# int64 cells that the main stack of one array pass may hold.  A pass of
# `oracle_batch` counts the admissibility product space, 2 d2 d3 cells a
# probe (270 at genus 4, 480 at genus 5), and a pass of `gamma_equations`
# the evaluation matrix, len(panel) count(3, 2g - 2) cells a net (3920 and
# 12600): passes of 116 and 65 probes, of 8 and 2 nets.  The stacks of a
# pass add to the process's peak RSS.  Under perfbench's launcher, a
# genus-4 seed 1 `verify --full` peaked at 32.8-32.9 MB with 8640 cells (32
# probes a pass), 33.1-33.3 MB with this budget, 33.6 MB with 47040 and
# 34.2-34.3 MB with 62720, against 33.8-34.0 MB for the benchmark's
# `peak_rss_mb` on both workloads, which first rose with 94080 cells, to
# 34.1-34.5 MB: this budget keeps the command 0.5 MB below that peak (3
# alternating runs each, 2-core host)
PASS_CELLS = 31360


def _passes(n: int, cells: int) -> list[slice]:
    """The passes over n elements of `cells` cells each: as many elements
    as PASS_CELLS cells hold, and at least one."""
    step = max(1, PASS_CELLS // cells)
    return [slice(lo, lo + step) for lo in range(0, n, step)]


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
    """`random_net` of each stream, or the exhaustion it raises.  Each
    stream's draws are one `Draws.chain` and the chains run in
    `lockstep`: a round draws the next basis of each net still missing,
    and one `build_nets` and one `usable` serve it."""
    def serve(ws):
        return usable(ctx, build_nets(ctx, ws))

    draws = [Draws("generic net", 200,
                   lambda _, s=s: s.field_mat(ctx.p, 3, ctx.g))
             for s in streams]
    found = lockstep([d.chain(1, lambda ws: (serve, list(zip(ws))))
                      for d in draws])
    return [got[0][1] if got else d.exhausted()
            for d, got in zip(draws, found)]


def usable(ctx: CurveContext, nets: list) -> list[Net | None]:
    """Each net of the list that is off B and D and whose plane image
    `gamma_equations` fits, and None in place of any other net or
    exception, from one `gamma_equations` of the nets off B and D."""
    out: list = [None] * len(nets)
    live = [k for k, net in enumerate(nets)
            if isinstance(net, Net) and not net.in_b and not net.in_d]
    for k, fit in zip(live, gamma_equations(ctx, [nets[k] for k in live])):
        out[k] = nets[k] if isinstance(fit, PlaneCurve) else None
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


def plane_points(u: np.ndarray, p: int
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct normalized points of an N x 3 stack of plane vectors in
    lexicographic order, the index of each row's point among them and the
    rows at each point, as `np.unique(normalize_rows(u), axis=0,
    return_inverse=True, return_counts=True)` gives them.

    A normalized point (x, y, z) is keyed by (x p + y) p + z: its first
    nonzero coordinate is 1, so keys stay below 2 p**2 < 2**51 at
    p < 2**25, and sorted keys are sorted points.  Asking for the inverse
    keeps np.unique off its hash path, whose check for masked input
    imports numpy.ma (about 30 ms and 0.6 MB per process)."""
    keys, inv, counts = np.unique(alg.normalize_rows(u, p) @ [p * p, p, 1],
                                  return_inverse=True, return_counts=True)
    return keys[:, None] // [p * p, p, 1] % p, inv, counts


def gamma_equation(ctx: CurveContext, net: Net) -> PlaneCurve:
    """`gamma_equations` on one net, raising its exception."""
    return value_of(gamma_equations(ctx, [net])[0])


def gamma_equations(ctx: CurveContext, nets: list[Net]
                    ) -> list[PlaneCurve | AmbiguousFit]:
    """The plane image equation of each net, kept in `net.gamma`, or an
    `AmbiguousFit` for a net with a base point, with fewer than
    max(count(3, d) + 10, d**2 + 1) distinct projected points, or without
    one fit through all of them.  Nets without a fit go in passes of
    PASS_CELLS cells of evaluation matrix, each one `kernel_batch` of the
    Bezout-sized subsets and one product checking every row (module
    docstring)."""
    out: list = [net.gamma if net.gamma is not None
                 else AmbiguousFit("projection is not a morphism: net has "
                                   "a base point") if net.in_b
                 else None for net in nets]
    todo = [k for k, fit in enumerate(out) if fit is None]
    cells = len(ctx.panel) * mono.count(3, 2 * ctx.g - 2)
    for part in (todo[s] for s in _passes(len(todo), cells)):
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
    rows = max(mono.count(3, degree) + 10, degree ** 2 + 1)
    pts = [plane_points(u[u.any(axis=1)], p)[0]
           for u in (project(net, ctx.panel, p) for net in nets)]
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
    return [AmbiguousFit(f"only {len(x)} projected points, need {rows}")
            if len(x) < rows
            else PlaneCurve(degree=degree, coeffs=coeffs[k]) if fitted[k]
            else AmbiguousFit(f"no unique plane curve of degree {degree} "
                              "through the projected points")
            for k, x in enumerate(pts)]


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
    from `pencil.admissibility`.  Every step runs on a stack of probes,
    failed ones included, through the `pencil` contractions and
    `algebra.rref_batch`, in passes of PASS_CELLS cells of the
    admissibility product space, 2 d2 d3 a probe.
    """
    b = np.asarray(probes, dtype=np.int64).reshape(-1, ctx.g) % ctx.p
    return [wit for s in _passes(len(b), 2 * ctx.times_linear[0].size)
            for wit in _witness_pass(ctx, nets[s], b[s], check_gamma)]


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
