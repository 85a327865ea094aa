"""Reconstruction of the quartic cone of a net as an explicit form, its
polar cubics, and the geometric verifications attached to them.

The quartic attached to a generic net is pinned down inside the degree-4
ideal piece by two families of exact linear conditions: all partials vanish
on the vertex, and the restriction to the orthogonal space of each pencil
inside the net splits as (vertex linear form)^2 times the quadric whose
Gram is the inverse of the cup-product Gram on that space.  The membership
oracle of the net module never enters the reconstruction; it serves as an
independent verification channel.

The fibers of a reconstruction are split in rounds: `split_fibers` runs
every step on an N x 2 x g stack of pencils through the `pencil`
contractions and `algebra.kernel_batch`/`solve_batch`.  Its own
contractions (the residual Gram vperp y, and the tests of net.w and the
pencil against vperp and the vertex) sum g products of two entries below
p per entry, below 5 * 2**50 < 2**53 at genus 5 and p < 2**25.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from . import algebra as alg
from . import curve as cv
from . import monomials as mono
from . import net as nt
from . import pencil as pc
from .canring import CurveContext
from .errors import (CorankJump, CurveConesError, DegenerateInput, Draws,
                     InconsistentReconstruction, InconsistentSystem,
                     InadmissiblePencil, NonGenericD,
                     UnderdeterminedReconstruction, VerificationFailed,
                     resample, unwrap)
from .rng import Stream, derive_key

# pencils a reconstruction starts from, and the most it draws before the
# solution space must be one-dimensional
PENCILS_START = 6
PENCILS_MAX = 20


@dataclass
class SplitFiber:
    vperp: np.ndarray      # (g-2) x g basis of the annihilator
    ell: np.ndarray        # linear form on vperp coordinates cutting the vertex
    gram: np.ndarray       # (g-2) x (g-2) residual quadric Gram


@dataclass
class QuarticCone:
    net: nt.Net
    coeffs: np.ndarray     # degree-4 coefficient vector, first nonzero = 1
    certificate: dict = field(default_factory=dict)


@dataclass
class CubicPolar:
    x: np.ndarray
    coeffs: np.ndarray
    certificate: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# pencil fibers


# what split_fibers gives a pencil that fails, in the order it tests them;
# the codimension message names the codimension found
_FIBER_FAILURES = (
    (InadmissiblePencil, "pencil basis must have rank 2"),
    (InadmissiblePencil, "pencil has a base point on the panel"),
    (InadmissiblePencil, "pencil has a base point on the holdout panel"),
    (InadmissiblePencil, "product space has codimension {}, expected 1"),
    (InadmissiblePencil, "pencil does not sit inside the net"),
    (CorankJump, "pencil fiber meets the degeneracy divisor"),
    (InconsistentSystem, "rhs is not in the column space"),
    (VerificationFailed, "residual Gram failed exact symmetry"),
    (InconsistentSystem, "rhs is not in the column space"),
    (CorankJump, "vertex does not cut a hyperplane of the fiber"),
)


def split_fibers(ctx: CurveContext, net_obj: nt.Net, vs: np.ndarray
                 ) -> list[SplitFiber | CurveConesError]:
    """Residual-quadric data of the quartic on the orthogonal space of each
    pencil of an N x 2 x g stack inside the net.

    The Gram entries are G[i][j] = <v_i, y_j> with gram y_j = v_j, i.e. the
    inverse Gram of the cup product on the annihilator of the pencil;
    symmetry of the cup Gram makes G symmetric exactly.  The cup Gram is
    built for the first row of net.w outside the pencil.  A pencil that
    fails gets, in place of its fiber, the first of `_FIBER_FAILURES` that
    applies.  Every step runs on the whole stack: one reduction of
    [gram | vperp^T] gives the g - 2 solves and the corank, one of
    [vperp^T | wperp^T] the vertex coordinates.
    """
    p = ctx.p
    g = ctx.g
    v = np.asarray(vs, dtype=np.int64).reshape(-1, 2, g) % p
    n = v.shape[0]
    vperp, rank_two = alg.kernel_batch(v, p, g - 2)
    vperp_t = vperp.transpose(0, 2, 1)
    prods = pc.product_space(ctx, v)
    functionals, codim_one = alg.kernel_batch(prods, p, 1)
    in_net = ~(v @ net_obj.wperp.T % p).any(axis=(1, 2))
    # a row of net.w lies in the pencil when vperp annihilates it
    outside = (net_obj.w @ vperp_t % p).any(axis=2)
    lift = net_obj.w[outside.argmax(axis=1)]
    grams = pc.cup_grams(ctx, alg.normalize_rows(functionals[:, 0], p), lift)
    ys, gram_rank, solved = alg.solve_batch(grams, vperp_t, p)
    residual = vperp @ ys % p
    coords, _, on_fiber = alg.solve_batch(
        vperp_t, np.broadcast_to(net_obj.wperp.T, (n, g, g - 3)), p)
    ell, hyperplane = alg.kernel_batch(coords.transpose(0, 2, 1), p, 1)
    ell = alg.normalize_rows(ell[:, 0], p)
    failed = np.stack([~rank_two, pc.base_points(ctx.panel, v, p),
                       pc.base_points(ctx.holdout, v, p), ~codim_one,
                       ~in_net, gram_rank != g - 2, ~solved,
                       (residual != residual.transpose(0, 2, 1)).any(
                           axis=(1, 2)),
                       ~on_fiber, ~hyperplane])
    out: list = []
    for i, test in enumerate(failed.argmax(axis=0).tolist()):
        if not failed[test, i]:
            out.append(SplitFiber(vperp=vperp[i], ell=ell[i],
                                  gram=residual[i]))
            continue
        cls, message = _FIBER_FAILURES[test]
        if test == 3:
            message = message.format(prods.shape[2] - alg.rank(prods[i], p))
        out.append(cls(message))
    return out


def split_fiber(ctx: CurveContext, net_obj: nt.Net, v: np.ndarray
                ) -> SplitFiber:
    """`split_fibers` on one pencil, raising its exception."""
    fiber = split_fibers(ctx, net_obj, np.asarray(v)[None])[0]
    if isinstance(fiber, CurveConesError):
        raise fiber
    return fiber


def fiber_quadric_form(fiber: SplitFiber, p: int) -> np.ndarray:
    """Degree-2 coefficient vector of c -> c^T G c on fiber coordinates,
    the inverse of `curve.quadric_gram` (same monomial order)."""
    i, j = np.triu_indices(fiber.gram.shape[0])
    return fiber.gram[i, j] * np.where(i == j, 1, 2) % p


def split_product_form(fiber: SplitFiber, p: int) -> np.ndarray:
    """ell^2 times the residual quadric, a quartic on fiber coordinates."""
    m = fiber.gram.shape[0]
    ell2 = mono.mul_forms(fiber.ell, 1, fiber.ell, 1, m, p)
    return mono.mul_forms(ell2, 2, fiber_quadric_form(fiber, p), 2, m, p)


def form_matches_split(ctx: CurveContext, coeffs: np.ndarray,
                       fiber: SplitFiber) -> bool:
    """Exact proportionality of the restricted quartic with the splitting."""
    p = ctx.p
    restricted = mono.restrict(coeffs, 4, ctx.g, fiber.vperp.T, p)
    lhs = alg.normalize_scalar(restricted, p)
    rhs = alg.normalize_scalar(split_product_form(fiber, p), p)
    return lhs.tolist() == rhs.tolist()


# ---------------------------------------------------------------------------
# vertex-singularity conditions


def vertex_condition_matrix(ctx: CurveContext, net_obj: nt.Net,
                            forms: np.ndarray, deg: int) -> np.ndarray:
    """Linear conditions on combinations of the given forms expressing that
    every partial derivative vanishes identically on the vertex.

    Each partial restricted to the vertex must vanish as a form in the
    vertex coordinates, contributing one coefficient for a point vertex and
    deg for a line vertex.  Rows run over the variables, and within each
    variable over those coefficients; the partials of all forms are
    restricted at once."""
    p = ctx.p
    g = ctx.g
    # partials[var, f] = d forms[f] / d z_var, of degree deg - 1
    partials = np.stack([mono.partial(forms, var, g, deg, p)
                         for var in range(g)])
    flat = partials.reshape(-1, partials.shape[2]).T   # count x (g * forms)
    restricted = mono.restrict(flat, deg - 1, g, net_obj.wperp.T, p)
    rows = restricted.shape[0]
    return restricted.reshape(rows, g, -1).transpose(1, 0, 2).reshape(
        g * rows, -1)


def constrained_space(ctx: CurveContext, net_obj: nt.Net, deg: int
                      ) -> np.ndarray:
    """Basis of ideal forms of the given degree singular along the vertex."""
    basis = ctx.ideal(deg).basis
    conditions = vertex_condition_matrix(ctx, net_obj, basis, deg)
    combos = alg.kernel_basis(conditions, ctx.p)
    if combos.shape[0] == 0:
        return np.zeros((0, basis.shape[1]), dtype=np.int64)
    return combos @ basis % ctx.p


# ---------------------------------------------------------------------------
# reconstruction


def _fresh_fibers(ctx: CurveContext, net_obj: nt.Net, stream: Stream,
                  count: int) -> list[SplitFiber]:
    """Fibers over `count` random plane points.

    The points are those of a loop that splits one pencil at a time: up to
    120 draws, a zero point or a pencil that fails with a `DegenerateInput`
    giving no fiber.  They are drawn in rounds of as many as fibers are
    still needed, each round one `split_fibers` call.
    """
    p = ctx.p

    def plane_point(_):
        u = stream.field_vec(p, 3)
        return u if u.any() else None

    draws = Draws("admissible pencils", 120, plane_point)
    fibers = draws.rounds(count, lambda us: split_fibers(
        ctx, net_obj, nt.pencil_at(net_obj.w, np.reshape(us, (-1, 3)), p)))
    if len(fibers) < count:
        raise draws.exhausted()
    return [fiber for _, fiber in fibers]


def _fiber_equations(ctx: CurveContext, fiber: SplitFiber, s_basis: np.ndarray,
                     stream: Stream) -> tuple[np.ndarray, np.ndarray]:
    """Per-fiber data for the equations F(b) - c_k ell(b)^2 q(b) = 0.

    Returns the evaluations of the constrained-space basis at the sample
    points and the split-product values those equations subtract."""
    p = ctx.p
    g = ctx.g
    m = g - 2
    npts = 2 * (g - 2) + 3
    cs = np.stack([stream.field_vec(p, m) for _ in range(npts)])
    pts = cs @ fiber.vperp % p
    e4 = mono.eval_matrix(pts, g, 4, p)
    f_block = e4 @ s_basis.T % p
    rhs = mono.form_eval(split_product_form(fiber, p), cs, m, 4, p)
    return f_block, rhs


def reconstruct_quartic(ctx: CurveContext, net_obj: nt.Net, seed: int = 0,
                        oracle_points: int = 50) -> QuarticCone:
    """Solve for the quartic cone of a net away from the degeneracy divisor.

    Stacks the vertex-singularity constraints with splitting equations over
    adaptively many pencils, demands a one-dimensional solution space, and
    verifies the result against fresh points, the membership oracle, and a
    holdout pencil."""
    if net_obj.in_d:
        raise DegenerateInput("net lies on the degeneracy divisor")
    p = ctx.p
    tag = "reconstruct|%d|%s" % (seed, ",".join(
        str(int(v)) for v in net_obj.w.reshape(-1)))
    stream = Stream(derive_key(ctx.curve.seed, tag), "pencils")
    s_basis = constrained_space(ctx, net_obj, 4)
    dim_s = s_basis.shape[0]
    if dim_s == 0:
        raise InconsistentReconstruction("constrained space is empty")
    fibers = _fresh_fibers(ctx, net_obj, stream.spawn("draw"),
                           PENCILS_START)
    blocks: list[tuple[np.ndarray, np.ndarray]] = []
    solution = None
    while True:
        k = len(fibers)
        while len(blocks) < k:
            idx = len(blocks)
            blocks.append(_fiber_equations(ctx, fibers[idx], s_basis,
                                           stream.spawn(f"pts{idx}")))
        total = dim_s + k
        rows = []
        for idx, (f_block, rhs) in enumerate(blocks):
            block = np.zeros((f_block.shape[0], total), dtype=np.int64)
            block[:, :dim_s] = f_block
            block[:, dim_s + idx] = (-rhs) % p
            rows.append(block)
        system = np.concatenate(rows, axis=0)
        kernel = alg.kernel_basis(system, p)
        if kernel.shape[0] == 0:
            raise InconsistentReconstruction(
                "splitting equations admit no common quartic")
        if kernel.shape[0] == 1:
            solution = kernel[0]
            break
        if k >= PENCILS_MAX:
            raise UnderdeterminedReconstruction(
                f"solution space still {kernel.shape[0]}-dimensional "
                f"after {k} pencils")
        fibers.extend(_fresh_fibers(ctx, net_obj, stream.spawn(f"more{k}"), 2))
    beta = solution[:dim_s]
    coeffs = alg.normalize_scalar(beta @ s_basis % p, p)
    if not coeffs.any():
        raise InconsistentReconstruction("solution collapsed to zero")
    cone = QuarticCone(net=net_obj, coeffs=coeffs)
    cone.certificate = verify_cone(ctx, cone, stream.spawn("verify"),
                                   oracle_points=oracle_points)
    cone.certificate["dim_constrained_space"] = int(dim_s)
    cone.certificate["pencils_used"] = len(fibers)
    cone.certificate["solution_dim"] = 1
    return cone


def double_quadric_quartic(ctx: CurveContext, net_obj: nt.Net) -> QuarticCone:
    """Quartic of a degenerate net: the square of its certificate quadric."""
    if not net_obj.in_d:
        raise NonGenericD("net is not on the degeneracy divisor")
    if net_obj.d_certificate is None:
        raise NonGenericD("restriction kernel is not one-dimensional")
    p = ctx.p
    q = net_obj.d_certificate
    coeffs = alg.normalize_scalar(mono.mul_forms(q, 2, q, 2, ctx.g, p), p)
    cone = QuarticCone(net=net_obj, coeffs=coeffs)
    cert = {
        "points_vanished": int(ctx.panel.shape[0] + ctx.holdout.shape[0]),
        "contains_curve": ctx.vanishes_on_curve(coeffs, 4),
        "vertex_singular": bool(not vertex_condition_matrix(
            ctx, net_obj, coeffs[None, :], 4).any()),
        "double_quadric": True,
    }
    if not cert["contains_curve"] or not cert["vertex_singular"]:
        raise VerificationFailed("double-quadric certificate failed")
    cone.certificate = cert
    return cone


# ---------------------------------------------------------------------------
# verification helpers


def points_on_form(ctx: CurveContext, coeffs: np.ndarray, deg: int,
                   stream: Stream, count: int, budget: int = 400
                   ) -> Iterator[np.ndarray]:
    """Rational points of the hypersurface, harvested on random lines.

    Lazy: a line is drawn only when the caller asks for a point its
    predecessors did not supply, and at most `count` points come out."""
    p = ctx.p
    g = ctx.g
    found = 0
    while found < count and budget:
        budget -= 1
        a = stream.field_vec(p, g)
        b = stream.field_vec(p, g)
        for pt in cv.line_zeros(coeffs, deg, g, a[None], b[None], p)[0]:
            yield pt
            found += 1
            if found == count:
                return


def oracle_agreement(ctx: CurveContext, net_obj: nt.Net, coeffs: np.ndarray,
                     stream: Stream, count: int,
                     x: np.ndarray | None = None) -> tuple[int, int]:
    """Compare the membership oracle with explicit evaluation.

    Half the probes are harvested from the zero set of the form (oracle must
    say yes), half are random (almost surely off the form, oracle must agree
    with the evaluation).  Returns (checked, disagreements).

    The probes are those of a loop that asks the oracle one probe at a time:
    up to 3 * (count // 2) zero draws until count // 2 verdicts, then up to
    40 * count random draws until count verdicts, a probe the oracle finds
    degenerate giving no verdict.  They are drawn in rounds of as many as
    verdicts are still needed, each round one `oracle_batch` call; the two
    kinds draw from separate streams, so the first round takes both.
    """
    p = ctx.p
    deg = 4 if x is None else 3
    zero_half = count // 2
    zeros = points_on_form(ctx, coeffs, deg, stream.spawn("zeros"),
                           3 * zero_half)
    if x is not None:
        x = nt.vertex_direction(net_obj, x, p)
    verdicts: list[bool] = []   # oracle agrees with the evaluation

    def random_probe(_):
        b = stream.field_vec(p, ctx.g)
        return b if b.any() else None

    def judge(probes: list, wits: list, on_form: bool) -> None:
        if not on_form and probes:
            expected = mono.form_eval(coeffs, np.stack(probes), ctx.g, deg,
                                      p) == 0
        else:
            expected = [True] * len(probes)
        for b, wit, want in zip(probes, wits, expected):
            wit = unwrap(wit)
            if wit is not None:
                pair = wit.b if x is None else x
                verdicts.append((int(pair @ wit.y % p) == 0) == want)

    def oracle(probes: list) -> list:
        return nt.oracle_batch(ctx, [net_obj] * len(probes), probes)

    zero_draws = Draws("zero probes", 3 * zero_half,
                       lambda _: next(zeros, None))
    random_draws = Draws("random probes", 40 * count, random_probe)
    first_zeros = zero_draws.take(zero_half)
    first_randoms = random_draws.take(count - zero_half)
    wits = oracle(first_zeros + first_randoms)
    judge(first_zeros, wits[:len(first_zeros)], True)
    while len(verdicts) < zero_half and zero_draws.left:
        more = zero_draws.take(zero_half - len(verdicts))
        judge(more, oracle(more), True)
    judge(first_randoms, wits[len(first_zeros):], False)
    while len(verdicts) < count and random_draws.left:
        more = random_draws.take(count - len(verdicts))
        judge(more, oracle(more), False)
    return len(verdicts), verdicts.count(False)


def verify_cone(ctx: CurveContext, cone: QuarticCone, stream: Stream,
                oracle_points: int = 50) -> dict:
    """Certificate of a reconstructed quartic: containment, vertex
    singularity, oracle agreement, and a fresh holdout pencil splitting."""
    p = ctx.p
    net_obj = cone.net
    cert: dict = {}
    cert["points_vanished"] = int(ctx.panel.shape[0] + ctx.holdout.shape[0])
    cert["contains_curve"] = ctx.vanishes_on_curve(cone.coeffs, 4)
    cert["vertex_singular"] = bool(not vertex_condition_matrix(
        ctx, net_obj, cone.coeffs[None, :], 4).any())
    checked, bad = oracle_agreement(ctx, net_obj, cone.coeffs,
                                    stream.spawn("oracle"), oracle_points)
    cert["oracle_points"] = int(checked)
    cert["oracle_disagreements"] = int(bad)
    holdout = _fresh_fibers(ctx, net_obj, stream.spawn("holdout"), 1)[0]
    cert["holdout_pencil"] = form_matches_split(ctx, cone.coeffs, holdout)
    if not (cert["contains_curve"] and cert["vertex_singular"]
            and cert["holdout_pencil"] and bad == 0
            and checked >= oracle_points):
        raise VerificationFailed(f"cone certificate failed: {cert}")
    return cert


# ---------------------------------------------------------------------------
# polars


def polar_cubic(ctx: CurveContext, cone: QuarticCone, x: np.ndarray,
                stream: Stream | None = None,
                oracle_points: int = 0) -> CubicPolar:
    """Polar cubic sum x_i dF/dz_i, with membership and vertex certificates."""
    p = ctx.p
    g = ctx.g
    x = np.asarray(x, dtype=np.int64) % p
    if not x.any():
        raise ValueError("x must be a nonzero vertex vector")
    coeffs = np.zeros(mono.count(g, 3), dtype=np.int64)
    for var in range(g):
        if int(x[var]):
            coeffs = (coeffs + int(x[var])
                      * mono.partial(cone.coeffs, var, g, 4, p)) % p
    polar = CubicPolar(x=x, coeffs=coeffs)
    cert: dict = {
        "in_cubic_ideal": ctx.in_ideal(coeffs, 3),
        "vertex_singular": bool(not vertex_condition_matrix(
            ctx, cone.net, coeffs[None, :], 3).any()),
    }
    if stream is not None and oracle_points:
        checked, bad = oracle_agreement(ctx, cone.net, coeffs,
                                        stream, oracle_points, x=x)
        cert["oracle_points"] = int(checked)
        cert["oracle_disagreements"] = int(bad)
    polar.certificate = cert
    return polar


def lw_space(ctx: CurveContext, cone: QuarticCone) -> tuple[np.ndarray, int]:
    """Cubic ideal forms singular along the vertex of the cone's net, and
    the rank of the polar map from the vertex span into that space."""
    p = ctx.p
    basis = constrained_space(ctx, cone.net, 3)
    polars = [polar_cubic(ctx, cone, x).coeffs for x in cone.net.wperp]
    polar_rank = alg.rank(np.stack(polars), p)
    if not all(map(alg.RowSpace(basis, p).contains, polars)):
        raise VerificationFailed("polar cubic escapes the singular space")
    return basis, polar_rank


# ---------------------------------------------------------------------------
# secant checks


def secant_criterion(ctx: CurveContext, net_obj: nt.Net, cone: QuarticCone,
                     pt_p: np.ndarray, pt_q: np.ndarray
                     ) -> tuple[bool, bool]:
    """(contained, predicted) for the secant line through two curve points.

    contained: the quartic restricts to zero on the line.  predicted: the
    line meets the vertex, or the net holds a section vanishing doubly at
    both points."""
    p = ctx.p
    g = ctx.g
    binary = mono.restrict_to_line(cone.coeffs, 4, g, pt_p, pt_q, p)
    contained = not binary.any()
    # the line meets the vertex when it adds at most one dimension to it
    vertex = alg.RowSpace(net_obj.wperp, p)
    meets_vertex = vertex.add(pt_p) + vertex.add(pt_q) < 2
    tp = ctx.tangent(pt_p)
    tq = ctx.tangent(pt_q)
    conds = np.stack([tp.point, tp.direction, tq.point, tq.direction])
    system = conds @ net_obj.w.T % p
    double_section = alg.rank(system, p) <= 2
    return contained, bool(meets_vertex or double_section)


# ---------------------------------------------------------------------------
# engineered configurations


def secant_through_vertex(ctx: CurveContext, stream: Stream
                          ) -> tuple[np.ndarray, np.ndarray, nt.Net]:
    """Two panel points and a generic net whose vertex meets their secant."""
    p = ctx.p
    n = ctx.panel.shape[0]

    def draw(_):
        i = stream.integer(0, n)
        j = stream.integer(0, n)
        if i == j:
            return None
        pt_p, pt_q = ctx.panel[i], ctx.panel[j]
        x1 = (stream.nonzero(p) * pt_p + stream.nonzero(p) * pt_q) % p
        vertex = np.stack([x1] + [stream.field_vec(p, ctx.g)
                                  for _ in range(ctx.g - 4)])
        if alg.rank(vertex, p) != ctx.g - 3:
            return None
        net_obj = nt.net_from_vertex(ctx, vertex)
        if net_obj.in_b or net_obj.in_d:
            return None
        nt.gamma_equation(ctx, net_obj)
        return pt_p, pt_q, net_obj

    return resample("vertex secant", 120, draw)


def double_vanishing_section(ctx: CurveContext, pt_p: np.ndarray,
                             pt_q: np.ndarray) -> np.ndarray | None:
    """Section vanishing doubly at both points, when one exists."""
    p = ctx.p
    tp = ctx.tangent(pt_p)
    tq = ctx.tangent(pt_q)
    conds = np.stack([tp.point, tp.direction, tq.point, tq.direction])
    kernel = alg.kernel_basis(conds, p)
    if kernel.shape[0] == 0:
        return None
    return alg.normalize_scalar(kernel[0], p)


def sweep_discriminant(chart: cv.RulingChart, s1: np.ndarray,
                       s2: np.ndarray, p: int
                       ) -> tuple[np.ndarray, np.ndarray] | None:
    """The residual section polynomials R(lam, u) of the planes s1 + lam s2
    through a tangent line, and their discriminant Res_u(R, dR/du).

    `section_poly` is cubic in the plane, so one `interpolate` fits the
    sweep from lam = 0..3.  Its gcd at lam = 101, 202, 303 is the factor
    that every plane through the line shares, and R is the sweep divided by
    it, entry [i, j] the coefficient of lam^i u^j.  None when the gcd does
    not divide the sweep or R has u-degree below 2.
    """
    samples = [chart.section_poly((s1 + lam * s2) % p) for lam in range(4)]
    width = max(len(f) for f in samples)
    fit = alg.interpolate(range(4), [np.pad(f, (0, width - len(f)))
                                     for f in samples], p)
    common = alg.poly_gcd(alg.p2_eval_x(fit, 101, p), alg.poly_gcd(
        alg.p2_eval_x(fit, 202, p), alg.p2_eval_x(fit, 303, p), p), p)
    quots = [alg.poly_divmod(row, common, p) for row in fit]
    width = max(len(quot) for quot, _ in quots)
    if width < 3 or any(len(rem) for _, rem in quots):
        return None
    residual = np.array([np.pad(quot, (0, width - len(quot)))
                         for quot, _ in quots])
    d_du = residual[:, 1:] * np.arange(1, width) % p
    return residual, alg.resultant_bivariate(residual, d_du, p)


def bitangent_pair(ctx: CurveContext, stream: Stream
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A pair of genus-4 curve points with a section double-vanishing at
    both, located by sweeping the pencil of planes through one tangent line
    and finding the roots of the discriminant of the residual section
    polynomial (`sweep_discriminant`)."""
    if ctx.g != 4:
        raise ValueError("the sweep construction is specific to genus 4")
    p = ctx.p
    chart = cv.ruling_chart(ctx.curve)
    n = ctx.panel.shape[0]

    def draw(_):
        pt = ctx.panel[stream.integer(0, n)]
        if chart.param_of(pt) is None:
            return None
        td = ctx.tangent(pt)
        forms = alg.kernel_basis(np.stack([td.point, td.direction]), p)
        s1, s2 = forms[0], forms[1]
        swept = sweep_discriminant(chart, s1, s2, p)
        if swept is None or alg.poly_deg(swept[1]) < 1:
            return None
        residual, disc = swept
        for lam_star in alg.distinct_roots(disc, p):
            section = (s1 + lam_star * s2) % p
            quot = alg.p2_eval_x(residual, lam_star, p)
            repeated = alg.poly_gcd(quot, alg.poly_deriv(quot, p), p)
            if alg.poly_deg(repeated) < 1:
                continue
            for line in chart.line_at(alg.distinct_roots(repeated, p)):
                if isinstance(line, DegenerateInput):
                    raise line
                a, b = line
                for cand in cv.line_zeros(section, 1, 4, a[None], b[None],
                                          p)[0]:
                    if cand.tolist() == td.point.tolist():
                        continue
                    if not (cv.on_curve(ctx.curve, cand)
                            and cv.smooth_at(ctx.curve, [cand])):
                        continue
                    tq = ctx.tangent(cand)
                    if int(section @ cand % p) == 0 \
                            and int(section @ tq.direction % p) == 0:
                        return td.point, cand, section
        return None

    return resample("bitangent pair", 24, draw)


def contained_double_secant(ctx: CurveContext, stream: Stream,
                            count: int = 1
                            ) -> list[tuple[np.ndarray, np.ndarray, nt.Net,
                                            QuarticCone]]:
    """Engineer secants carried by a section vanishing doubly at both ends
    AND genuinely contained in the quartic.

    Double vanishing alone forces the restricted quartic into the square of
    the product of the two root forms but does not kill its remaining
    coefficient (the square-of-quadric picture on the degeneracy divisor
    shows that coefficient survives specialization, so it is nonzero for
    generic nets through the section).  The net family through the section
    is swept along one parameter, the oracle value at a fixed line point is
    interpolated as a rational function of the parameter, and the numerator
    roots are verified exactly."""
    p = ctx.p
    results: list = []

    def draw(trial: int):
        sub = stream.spawn(f"pair{trial}")
        if ctx.g == 4:
            pt_p, pt_q, section = bitangent_pair(ctx, sub.spawn("bit"))
        else:
            n = ctx.panel.shape[0]
            i = sub.integer(0, n)
            j = sub.integer(0, n)
            if i == j:
                return None
            pt_p, pt_q = ctx.panel[i], ctx.panel[j]
            section = double_vanishing_section(ctx, pt_p, pt_q)
            if section is None:
                return None
        b0 = (pt_p + sub.nonzero(p) * pt_q) % p
        for fam in range(4):
            if len(results) >= count:
                break
            results.extend(_family_secants(
                ctx, section, pt_p, pt_q, b0, sub.spawn(f"family{fam}"),
                count - len(results)))
        return results if len(results) >= count else None

    return resample("contained double secants", 16, draw)


def _family_secants(ctx: CurveContext, section: np.ndarray, pt_p: np.ndarray,
                    pt_q: np.ndarray, b0: np.ndarray, stream: Stream,
                    wanted: int) -> list:
    """Up to `wanted` contained double secants on the nets
    <section, r1, r2 + t r3> of one random family."""
    p = ctx.p
    r1 = stream.field_vec(p, ctx.g)
    r2 = stream.field_vec(p, ctx.g)
    r3 = stream.field_vec(p, ctx.g)

    def family(t: int) -> np.ndarray:
        return np.stack([section, r1, (r2 + t * r3) % p])

    samples = _family_samples(ctx, family, b0)
    if len(samples) < 100:
        return []
    ts, vs = zip(*samples)
    fit = alg.rational_interpolate(list(ts[:94]), list(vs[:94]), p, 45, 45)
    if fit is None:
        return []
    num, den = fit
    if not all(alg.poly_eval(num, ts[94 + k], p)
               == vs[94 + k] * alg.poly_eval(den, ts[94 + k], p) % p
               for k in range(6)):
        return []
    roots = alg.distinct_roots(num, p)

    def contained(k: int):
        net_r = nt.build_net(ctx, family(roots[k]))
        if net_r.in_b or net_r.in_d:
            return None
        nt.gamma_equation(ctx, net_r)
        cone_r = reconstruct_quartic(ctx, net_r, oracle_points=4)
        if secant_criterion(ctx, net_r, cone_r, pt_p, pt_q) != (True, True):
            return None
        return pt_p, pt_q, net_r, cone_r

    return Draws("family roots", len(roots), contained).take(wanted)


def _family_samples(ctx: CurveContext, family, b0: np.ndarray
                    ) -> list[tuple[int, int]]:
    """(t, oracle value at b0) on the first 100 nets family(t), t = 1, 2,
    ..., 500, that are off B and D and have a witness at b0.

    The values of t are those of a loop that builds one net at a time.
    They are taken in rounds of as many as samples are still missing, each
    round one `build_nets` and one `oracle_batch`.
    """
    def sample(ts: list) -> list:
        nets = nt.build_nets(ctx, np.stack([family(t) for t in ts]))
        ok = [k for k, net in enumerate(nets)
              if isinstance(net, nt.Net) and not (net.in_b or net.in_d)]
        wits = dict(zip(ok, nt.oracle_batch(
            ctx, [nets[k] for k in ok], [b0] * len(ok), check_gamma=False)))
        return [wits.get(k) for k in range(len(ts))]

    sweep = Draws("family sweep", 500, lambda k: k + 1)
    return [(t, int(wit.b @ wit.y % ctx.p))
            for t, wit in sweep.rounds(100, sample)]


def degenerate_net(ctx: CurveContext, stream: Stream,
                   quadric: np.ndarray | None = None) -> nt.Net:
    """Engineer a net on the degeneracy divisor: its vertex lies inside a
    quadric of the ideal (the whole vertex line for genus 5)."""
    p = ctx.p
    g = ctx.g
    i2 = ctx.ideal(2)

    def draw(_):
        if quadric is None:
            combo = stream.field_vec(p, i2.dim)
            if not combo.any():
                return None
            q = combo @ i2.basis % p
        else:
            q = np.asarray(quadric, dtype=np.int64) % p
        q1 = next(points_on_form(ctx, q, 2, stream, 1, budget=60), None)
        if q1 is None:
            return None
        if g == 4:
            vertex = q1[None, :]
        else:
            polar = 2 * q1 @ cv.quadric_gram(q, g, p) % p
            hb = alg.kernel_basis(polar.reshape(1, g), p)
            c1 = hb.T @ stream.field_vec(p, hb.shape[0]) % p
            c2 = hb.T @ stream.field_vec(p, hb.shape[0]) % p
            zeros = cv.line_zeros(q, 2, g, c1[None], c2[None], p)[0]
            if not zeros or alg.rank(np.stack([q1, zeros[0]]), p) != 2:
                return None
            vertex = np.stack([q1, zeros[0]])
        net_obj = nt.net_from_vertex(ctx, vertex)
        if net_obj.in_b or not net_obj.in_d or net_obj.d_certificate is None:
            return None
        return net_obj

    return resample("degenerate net", 200, draw)


# ---------------------------------------------------------------------------
# serialization


def cone_to_json(cone: QuarticCone, g: int) -> dict:
    return {
        "W": [[int(v) for v in row] for row in cone.net.w],
        "coeffs": mono.form_to_pairs(cone.coeffs, g, 4),
        "certificate": cone.certificate,
    }
