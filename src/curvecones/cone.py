"""Reconstruction of the quartic cone of a net as an explicit form, its
polar cubics, and the geometric verifications attached to them.

The quartic attached to a generic net is pinned down inside the degree-4
ideal piece by two families of exact linear conditions: all partials vanish
on the vertex, and the restriction to the orthogonal space of each pencil
inside the net splits as (vertex linear form)^2 times the quadric whose
Gram is the inverse of the cup-product Gram on that space.  The membership
oracle of the net module never enters the reconstruction; it serves as an
independent verification channel.

A stack of nets is reconstructed and certified in lockstep
(`errors.lockstep`): each net runs the one-net chain, and the requests of
a round are served together, the fibers of all nets by one
`fibers.split_fibers`.

The contractions of `vertex_condition_matrix` sum g products of two
entries below p per entry, below 5 * 2**50 < 2**53 at genus 5 and
p < 2**25.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from . import algebra as alg
from . import curve as cv
from . import monomials as mono
from . import net as nt
from .canring import CurveContext
from .errors import (CurveConesError, DegenerateInput, Draws,
                     InconsistentReconstruction, NonGenericD,
                     UnderdeterminedReconstruction, VerificationFailed,
                     lockstep, resample, unwrap, value_of)
from .fibers import SplitFiber, form_matches_split, split_fibers
from .rng import Stream, derive_key

# pencils a reconstruction starts from, and the most it draws before the
# solution space must be one-dimensional
PENCILS_START = 6
PENCILS_MAX = 20
# samples past the fit that test the family sweep's rational function
SWEEP_HOLDOUT = 6


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
# pencil fibers (see `fibers`)


def split_fiber(ctx: CurveContext, net_obj: nt.Net, v: np.ndarray
                ) -> SplitFiber:
    """`split_fibers` on one pencil, raising its exception."""
    return value_of(split_fibers(ctx, net_obj, np.asarray(v)[None])[0])


# ---------------------------------------------------------------------------
# vertex-singularity conditions


def vertex_condition_matrix(ctx: CurveContext, nets, forms: np.ndarray,
                            deg: int) -> np.ndarray:
    """Linear conditions on combinations of the given forms expressing that
    every partial derivative vanishes identically on the vertex.

    Each partial restricted to the vertex must vanish as a form in the
    vertex coordinates, contributing one coefficient for a point vertex and
    deg for a line vertex.  Rows run over the variables, and within each
    variable over those coefficients; the partials of all forms are
    restricted at once.  For a list of N nets the result is a stack of N
    matrices, from one stacked restriction, of the forms shared by all
    nets or of an N x k x count stack of forms, one set per net."""
    p = ctx.p
    g = ctx.g
    wperp = nets.wperp if isinstance(nets, nt.Net) \
        else np.stack([net.wperp for net in nets])
    # partials[..., var, f] = d forms[..., f] / d z_var, of degree deg - 1
    partials = mono.gradient(forms, g, deg, p).swapaxes(-3, -2)
    flat = partials.reshape(partials.shape[:-3] + (-1, partials.shape[-1]))
    restricted = mono.restrict(flat.swapaxes(-1, -2), deg - 1, g,
                               wperp.swapaxes(-1, -2), p)
    rows = restricted.shape[-2]
    return restricted.reshape(restricted.shape[:-2] + (rows, g, -1)) \
        .swapaxes(-3, -2).reshape(restricted.shape[:-2] + (g * rows, -1))


def constrained_spaces(ctx: CurveContext, nets: list[nt.Net], deg: int
                       ) -> list[np.ndarray]:
    """Basis of the ideal forms of the given degree singular along the
    vertex of each net, from one stacked `vertex_condition_matrix` and one
    `rref_batch`."""
    p = ctx.p
    basis = ctx.ideal(deg).basis
    reduced, pivots = alg.rref_batch(
        vertex_condition_matrix(ctx, nets, basis, deg), p)
    nullity = basis.shape[0] - (pivots >= 0).sum(axis=1)
    out: list = [None] * len(nets)
    for k in set(nullity.tolist()):
        mine = np.nonzero(nullity == k)[0]
        combos, _ = alg.special_solutions_batch(reduced[mine], pivots[mine],
                                                k, p)
        for i, combo in zip(mine, combos):
            out[i] = combo @ basis % p
    return out


def constrained_space(ctx: CurveContext, net_obj: nt.Net, deg: int
                      ) -> np.ndarray:
    """Basis of ideal forms of the given degree singular along the vertex."""
    return constrained_spaces(ctx, [net_obj], deg)[0]


# ---------------------------------------------------------------------------
# requests of the chains (see `errors.lockstep`)


def _split(ctx: CurveContext, nets: tuple, us: tuple) -> list:
    """The fiber over each plane point us[k] of nets[k]: one
    `split_fibers` of the round's pencils."""
    return split_fibers(ctx, nets, nt.pencil_at(
        np.array([net.w for net in nets]), np.array(us), ctx.p))


def _kernels(ctx: CurveContext, shape: tuple, f_blocks: tuple, rhs: tuple
             ) -> list:
    """Per net, the kernel of the system of its fiber equations (see
    `_fiber_equations`) in the constrained-space coordinates and one
    multiplier per fiber: its dimension, and its vector when it is 1.  The
    systems of a round are built as one stack and reduced by one
    `rref_batch`."""
    k, npts, dim_s = shape
    # the multiplier of fiber j enters the rows of fiber j only
    multipliers = (-np.stack(rhs) % ctx.p)[..., None] \
        * np.eye(k, dtype=np.int64)[:, None]
    system = np.concatenate([np.stack(f_blocks), multipliers], axis=3)
    reduced, pivots = alg.rref_batch(
        system.reshape(len(system), k * npts, -1), ctx.p)
    basis, _ = alg.special_solutions_batch(reduced, pivots, 1, ctx.p)
    return list(zip(dim_s + k - (pivots >= 0).sum(axis=1), basis[:, 0]))


# ---------------------------------------------------------------------------
# reconstruction


def _fresh_fibers(ctx: CurveContext, net_obj: nt.Net, stream: Stream,
                  count: int):
    """Chain (see `errors.lockstep`) of the fibers over `count` random plane
    points.

    The points are those of a loop that splits one pencil at a time: up to
    120 draws, a zero point or a pencil that fails with a `DegenerateInput`
    giving no fiber.  They are drawn in rounds of as many as fibers are
    still needed, each round one request for `split_fibers`.
    """
    p = ctx.p

    def plane_point(_):
        u = stream.field_vec(p, 3)
        return u if u.any() else None

    draws = Draws("admissible pencils", 120, plane_point)
    fibers = yield from draws.chain(count, lambda us: (
        _split, ctx, [(net_obj, u) for u in us]))
    if len(fibers) < count:
        raise draws.exhausted()
    return [fiber for _, fiber in fibers]


def _fiber_equations(ctx: CurveContext, fibers: list[SplitFiber],
                     s_basis: np.ndarray, stream: Stream, first: int
                     ) -> tuple[np.ndarray, np.ndarray]:
    """The equations F(b) - c_k ell(b)^2 q(b) = 0 of each fiber k, numbered
    from `first`, at 2(g-2) + 3 points of its stream: the evaluations of
    the constrained-space basis at the points (fibers x points x basis)
    and the values ell(c)^2 c^T G c of the split product at their fiber
    coordinates c, which those equations subtract (fibers x points)."""
    p = ctx.p
    g = ctx.g
    cs = np.array([stream.spawn(f"pts{first + k}").field_mat(
        p, 2 * g - 1, g - 2) for k in range(len(fibers))], dtype=np.int64)
    pts = cs @ np.stack([fiber.vperp for fiber in fibers]) % p
    f_blocks = mono.eval_matrix(pts.reshape(-1, g), g, 4, p) @ s_basis.T % p
    ell = (cs @ np.stack([fiber.ell for fiber in fibers])[:, :, None])[..., 0]
    quad = (cs @ np.stack([fiber.gram for fiber in fibers]) % p * cs % p
            ).sum(axis=2) % p
    rhs = (ell % p) ** 2 % p * quad % p
    return f_blocks.reshape(cs.shape[:2] + (-1,)), rhs


def _reconstruct(ctx: CurveContext, net_obj: nt.Net, s_basis: np.ndarray,
                 stream: Stream, oracle_points: int):
    """Chain (see `errors.lockstep`) of `reconstruct_quartic`."""
    if net_obj.in_d:
        raise DegenerateInput("net lies on the degeneracy divisor")
    p = ctx.p
    dim_s = s_basis.shape[0]
    if dim_s == 0:
        raise InconsistentReconstruction("constrained space is empty")
    fibers = yield from _fresh_fibers(ctx, net_obj, stream.spawn("draw"),
                                      PENCILS_START)
    f_blocks, rhs = _fiber_equations(ctx, fibers, s_basis, stream, 0)
    while True:
        k = len(rhs)
        (nullity, kernel), = yield (_kernels, ctx, f_blocks.shape,
                                    [(f_blocks, rhs)])
        if nullity == 0:
            raise InconsistentReconstruction(
                "splitting equations admit no common quartic")
        if nullity == 1:
            break
        if k >= PENCILS_MAX:
            raise UnderdeterminedReconstruction(
                f"solution space still {nullity}-dimensional "
                f"after {k} pencils")
        fibers = yield from _fresh_fibers(ctx, net_obj,
                                          stream.spawn(f"more{k}"), 2)
        f_blocks, rhs = (np.concatenate(pair) for pair in zip(
            (f_blocks, rhs), _fiber_equations(ctx, fibers, s_basis, stream,
                                              k)))
    coeffs = alg.normalize_rows(kernel[:dim_s] @ s_basis % p, p)
    del fibers, f_blocks, rhs, s_basis   # a round verifies with less held
    if not coeffs.any():
        raise InconsistentReconstruction("solution collapsed to zero")
    cone = QuarticCone(net=net_obj, coeffs=coeffs)
    cone.certificate = yield from _verify(ctx, cone, stream.spawn("verify"),
                                          oracle_points)
    cone.certificate.update(dim_constrained_space=int(dim_s),
                            pencils_used=k, solution_dim=1)
    return cone


def reconstruct_quartics(ctx: CurveContext, nets: list[nt.Net],
                         seed: int = 0, oracle_points: int = 50
                         ) -> list[QuarticCone | CurveConesError]:
    """`reconstruct_quartic` of each net, or the exception it raises for
    the net: one `constrained_spaces`, then the fibers, splitting systems
    and certificates of all nets in rounds (`lockstep`)."""
    if not nets:
        return []
    streams = [Stream(derive_key(ctx.curve.seed, "reconstruct|%d|%s" % (
        seed, ",".join(str(int(v)) for v in net.w.reshape(-1)))), "pencils")
        for net in nets]
    return lockstep([
        _reconstruct(ctx, *args, oracle_points)
        for args in zip(nets, constrained_spaces(ctx, nets, 4), streams)])


def reconstruct_quartic(ctx: CurveContext, net_obj: nt.Net, seed: int = 0,
                        oracle_points: int = 50) -> QuarticCone:
    """Solve for the quartic cone of a net away from the degeneracy divisor.

    Stacks the vertex-singularity constraints with splitting equations over
    adaptively many pencils, demands a one-dimensional solution space, and
    verifies the result against fresh points, the membership oracle, and a
    holdout pencil (`reconstruct_quartics` on the one net)."""
    return value_of(reconstruct_quartics(ctx, [net_obj], seed,
                                         oracle_points)[0])


def double_quadric_quartic(ctx: CurveContext, net_obj: nt.Net) -> QuarticCone:
    """Quartic of a degenerate net: the square of its certificate quadric."""
    if not net_obj.in_d:
        raise NonGenericD("net is not on the degeneracy divisor")
    if net_obj.d_certificate is None:
        raise NonGenericD("restriction kernel is not one-dimensional")
    p = ctx.p
    q = net_obj.d_certificate
    coeffs = alg.normalize_rows(mono.mul_forms(q, 2, q, 2, ctx.g, p), p)
    cone = QuarticCone(net=net_obj, coeffs=coeffs)
    (zeros, contains, singular), = _checks(ctx, 4, [net_obj], [coeffs])
    cert = {"points_vanished": zeros, "contains_curve": contains,
            "vertex_singular": singular, "double_quadric": True}
    if not contains or not singular:
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
    harvest = cv.ZeroHarvest(coeffs, deg, ctx.g, ctx.p, stream, count, budget)
    while harvest.left:
        yield from lockstep([harvest.take(1)])[0]


def _agreement(ctx: CurveContext, net_obj: nt.Net, coeffs: np.ndarray,
               stream: Stream, count: int, x: np.ndarray | None = None):
    """Chain (see `errors.lockstep`) of `oracle_agreement`."""
    p = ctx.p
    deg = 4 if x is None else 3
    zero_half = count // 2
    zeros = cv.ZeroHarvest(coeffs, deg, ctx.g, p, stream.spawn("zeros"),
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

    def oracle(probes: list) -> tuple:
        return nt.oracle_batch, ctx, [(net_obj, b) for b in probes]

    random_draws = Draws("random probes", 40 * count, random_probe)
    first_zeros = yield from zeros.take(zero_half)
    first_randoms = random_draws.take(count - zero_half)
    wits = yield oracle(first_zeros + first_randoms)
    judge(first_zeros, wits[:len(first_zeros)], True)
    while len(verdicts) < zero_half and zeros.left:
        more = yield from zeros.take(zero_half - len(verdicts))
        judge(more, (yield oracle(more)), True)
    judge(first_randoms, wits[len(first_zeros):], False)
    while len(verdicts) < count and random_draws.left:
        more = random_draws.take(count - len(verdicts))
        judge(more, (yield oracle(more)), False)
    return len(verdicts), verdicts.count(False)


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
    kinds draw from separate streams, so the first round takes both.  The
    zero draws come from a `curve.ZeroHarvest` on the `zeros` stream,
    which reads lines ahead on it and hands out the loop's zeros.
    """
    return value_of(lockstep([_agreement(ctx, net_obj, coeffs, stream,
                                         count, x)])[0])


def _checks(ctx: CurveContext, deg: int, nets: tuple, forms: tuple) -> list:
    """How many of the context's points each form of degree deg is zero
    at, whether that is all of them (the form vanishes on the curve, which
    certifies ideal membership), and whether it is singular along the
    vertex of its net."""
    coeffs = np.stack(forms)
    singular = ~vertex_condition_matrix(
        ctx, nets, coeffs[:, None], deg).any(axis=(1, 2))
    zeros = ctx.zeros_on_curve(coeffs, deg)
    return list(zip(zeros.tolist(), (zeros == len(ctx.points)).tolist(),
                    singular.tolist()))


def _verify(ctx: CurveContext, cone: QuarticCone, stream: Stream,
            oracle_points: int):
    """Chain (see `errors.lockstep`) of `verify_cone`."""
    (zeros, contains, singular), = yield (_checks, ctx, 4,
                                          [(cone.net, cone.coeffs)])
    cert = {"points_vanished": zeros, "contains_curve": contains,
            "vertex_singular": singular}
    checked, bad = yield from _agreement(ctx, cone.net, cone.coeffs,
                                         stream.spawn("oracle"),
                                         oracle_points)
    cert["oracle_points"] = int(checked)
    cert["oracle_disagreements"] = int(bad)
    holdout, = yield from _fresh_fibers(ctx, cone.net,
                                        stream.spawn("holdout"), 1)
    cert["holdout_pencil"] = form_matches_split(ctx, cone.coeffs, holdout)
    if not (contains and singular and cert["holdout_pencil"] and bad == 0
            and checked >= oracle_points):
        raise VerificationFailed(f"cone certificate failed: {cert}")
    return cert


def verify_cones(ctx: CurveContext, cones: list[QuarticCone],
                 streams: list[Stream], oracle_points: int = 50
                 ) -> list[dict | CurveConesError]:
    """`verify_cone` of each cone with its stream, or the exception it
    raises, all in rounds (`lockstep`): the checks of containment and
    vertex singularity on the stack of forms, the oracle probes and their
    zero harvest (`curve.ZeroHarvest`: as many lines a round as a cone
    still misses zeros, read ahead on the cone's own `zeros` stream, so
    the zeros are those of the one-line loop), and the holdout pencils."""
    return lockstep([_verify(ctx, cone, stream, oracle_points)
                     for cone, stream in zip(cones, streams)])


def verify_cone(ctx: CurveContext, cone: QuarticCone, stream: Stream,
                oracle_points: int = 50) -> dict:
    """Certificate of a reconstructed quartic: containment, vertex
    singularity, oracle agreement, and a fresh holdout pencil splitting."""
    return value_of(verify_cones(ctx, [cone], [stream], oracle_points)[0])


# ---------------------------------------------------------------------------
# polars


def polar_cubics(ctx: CurveContext, cone: QuarticCone, xs: np.ndarray
                 ) -> np.ndarray:
    """The polar cubic sum x_i dF/dz_i of the cone's quartic F for each row
    x of xs, from one stack of the partials of F."""
    partials = mono.gradient(cone.coeffs, ctx.g, 4, ctx.p)
    return np.asarray(xs, dtype=np.int64) % ctx.p @ partials % ctx.p


def certify_polars(ctx: CurveContext, polars: list, oracle_points: int
                   ) -> list[dict | CurveConesError]:
    """The certificate of `polar_cubic` for each (net, x, coeffs, stream)
    of `polars`, or the exception it raises, in rounds (`lockstep`): the
    membership and vertex checks on the stack of cubics, then the oracle
    probes, as in `verify_cones`."""
    def chain(net_obj, x, coeffs, stream):
        (_, in_ideal, singular), = yield _checks, ctx, 3, [(net_obj, coeffs)]
        cert = {"in_cubic_ideal": in_ideal, "vertex_singular": singular}
        if stream is not None and oracle_points:
            checked, bad = yield from _agreement(ctx, net_obj, coeffs, stream,
                                                 oracle_points, x=x)
            cert["oracle_points"] = int(checked)
            cert["oracle_disagreements"] = int(bad)
        return cert

    return lockstep([chain(*polar) for polar in polars])


def polar_cubic(ctx: CurveContext, cone: QuarticCone, x: np.ndarray,
                stream: Stream | None = None,
                oracle_points: int = 0) -> CubicPolar:
    """Polar cubic sum x_i dF/dz_i, with membership and vertex certificates."""
    x = np.asarray(x, dtype=np.int64) % ctx.p
    if not x.any():
        raise ValueError("x must be a nonzero vertex vector")
    coeffs = polar_cubics(ctx, cone, x[None])[0]
    cert = certify_polars(ctx, [(cone.net, x, coeffs, stream)],
                          oracle_points)[0]
    return CubicPolar(x=x, coeffs=coeffs, certificate=value_of(cert))


def lw_space(ctx: CurveContext, cone: QuarticCone,
             polars: np.ndarray) -> tuple[np.ndarray, int]:
    """Cubic ideal forms singular along the vertex of the cone's net, and
    the rank of the polar map from the vertex span into that space; polars
    are the `polar_cubics` of the vertex basis."""
    p = ctx.p
    basis = constrained_space(ctx, cone.net, 3)
    if alg.RowSpace(basis, p).reduce(polars).any():
        raise VerificationFailed("polar cubic escapes the singular space")
    return basis, alg.rank(polars, p)


# ---------------------------------------------------------------------------
# secant checks


def secant_criteria(ctx: CurveContext, cones: list, lines: list) -> list:
    """`secant_criterion` of each secant (pt_p, pt_q) of `lines` with the
    net of the cone of the same index, or the SingularPoint it raises: one
    `restrict_to_line` for all the lines, their tangents from one
    `curve.tangent_vectors`, and the ranks that test whether a line meets
    the vertex and whether the net holds a double section from one
    `rref_batch` each."""
    if not cones:
        return []
    p = ctx.p
    n = len(cones)
    pts = np.array(lines, dtype=np.int64).reshape(n, 2, ctx.g)
    binary = mono.restrict_to_line(np.stack([c.coeffs for c in cones]), 4,
                                   ctx.g, pts[:, 0], pts[:, 1], p)
    # the line meets the vertex when it adds at most one dimension to its
    # g - 3 independent rows
    wperp = np.stack([c.net.wperp for c in cones])
    _, pivots = alg.rref_batch(np.concatenate([wperp, pts], axis=1), p)
    meets = (pivots >= 0).sum(axis=1) - wperp.shape[1] < 2
    tangents = cv.tangent_vectors(ctx.curve, pts.reshape(-1, ctx.g))
    conds = np.array([[t.point, t.direction] if isinstance(
        t, cv.TangentData) else np.zeros((2, ctx.g)) for t in tangents],
        dtype=np.int64).reshape(n, 4, ctx.g)
    w = np.stack([c.net.w for c in cones])
    _, pivots = alg.rref_batch(conds @ w.swapaxes(1, 2) % p, p)
    double = (pivots >= 0).sum(axis=1) <= 2
    return [next((t for t in tangents[2 * k:2 * k + 2]
                  if not isinstance(t, cv.TangentData)), None)
            or (not binary[k].any(), bool(meets[k] or double[k]))
            for k in range(n)]


def secant_criterion(ctx: CurveContext, net_obj: nt.Net, cone: QuarticCone,
                     pt_p: np.ndarray, pt_q: np.ndarray
                     ) -> tuple[bool, bool]:
    """(contained, predicted) for the secant line through two curve points.

    contained: the quartic restricts to zero on the line.  predicted: the
    line meets the vertex, or the net holds a section vanishing doubly at
    both points (`secant_criteria` on the one line)."""
    return value_of(secant_criteria(
        ctx, [QuarticCone(net_obj, cone.coeffs)], [(pt_p, pt_q)])[0])


def contained_secants(ctx: CurveContext, lines: list, nets: list) -> list:
    """Per secant (pt_p, pt_q) of `lines` and net of the same index: the
    net's cone (4 oracle points) when the net is `nt.usable` and
    `secant_criterion` holds both ways, else None, or the exception of the
    reconstruction or of the check; one `reconstruct_quartics` and one
    `secant_criteria` for all."""
    out: list = [None] * len(nets)
    live = [k for k, ok in enumerate(nt.usable(ctx, nets)) if ok]
    for k, cone in zip(live, reconstruct_quartics(
            ctx, [nets[k] for k in live], oracle_points=4)):
        out[k] = cone
    live = [k for k in live if isinstance(out[k], QuarticCone)]
    for k, verdict in zip(live, secant_criteria(
            ctx, [out[k] for k in live], [lines[k] for k in live])):
        if verdict != (True, True):
            out[k] = verdict if isinstance(verdict, CurveConesError) else None
    return out


# ---------------------------------------------------------------------------
# engineered configurations


def secant_through_vertex(ctx: CurveContext, stream: Stream
                          ) -> tuple[np.ndarray, np.ndarray, nt.Net]:
    """Two panel points and a generic net whose vertex meets their secant."""
    p = ctx.p

    def draw(_):
        pair = ctx.panel_pair(stream)
        if pair is None:
            return None
        pt_p, pt_q = pair
        x1 = (stream.nonzero(p) * pt_p + stream.nonzero(p) * pt_q) % p
        vertex = np.stack([x1] + [stream.field_vec(p, ctx.g)
                                  for _ in range(ctx.g - 4)])
        if alg.rank(vertex, p) != ctx.g - 3:
            return None
        net_obj = nt.net_from_vertex(ctx, vertex)
        return (pt_p, pt_q, net_obj) if nt.usable(ctx, [net_obj])[0] \
            else None

    return resample("vertex secant", 120, draw)


def double_vanishing_section(ctx: CurveContext, pt_p: np.ndarray,
                             pt_q: np.ndarray) -> np.ndarray | None:
    """Section vanishing doubly at both points, when one exists."""
    p = ctx.p
    tp, tq = map(value_of, cv.tangent_vectors(ctx.curve, [pt_p, pt_q]))
    conds = np.stack([tp.point, tp.direction, tq.point, tq.direction])
    kernel = alg.kernel_basis(conds, p)
    if kernel.shape[0] == 0:
        return None
    return alg.normalize_rows(kernel[0], p)


def sweep_discriminant(chart: cv.RulingChart, s1: np.ndarray,
                       s2: np.ndarray, p: int
                       ) -> tuple[np.ndarray, np.ndarray] | None:
    """The residual section polynomials R(lam, u) of the planes s1 + lam s2
    through a tangent line, and their discriminant Res_u(R, dR/du).

    `section_poly` is cubic in the plane, so one `interpolate` fits the
    sweep from lam = 0..3.  Its gcd at lam = 101, 202, 303 (one evaluation)
    is the factor that every plane through the line shares, and R is the
    sweep divided by it (one `exact_quotients`), entry [i, j] the
    coefficient of lam^i u^j.  None when the gcd does not divide the sweep
    or R has u-degree below 2.
    """
    samples = [chart.section_poly((s1 + lam * s2) % p) for lam in range(4)]
    fit = alg.interpolate(range(4), alg.poly_stack(samples), p)
    at = alg.p2_eval_x(fit, [101, 202, 303], p)
    common = alg.poly_gcd(at[0], alg.poly_gcd(at[1], at[2], p), p)
    quots, divides = alg.exact_quotients(fit, common, p)
    residual = alg.p2_trim(quots)
    width = residual.shape[1]
    if width < 3 or not divides:
        return None
    d_du = residual[:, 1:] * np.arange(1, width) % p
    return residual, alg.resultant_bivariate(residual, d_du, p)


def bitangent_pair(ctx: CurveContext, stream: Stream
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A pair of genus-4 curve points with a section double-vanishing at
    both, located by sweeping the pencil of planes through one tangent line
    and finding the roots of the discriminant of the residual section
    polynomial (`sweep_discriminant`)."""
    p = ctx.p
    chart = ctx.curve.ruling_chart
    n = ctx.panel.shape[0]

    def draw(_):
        pt = ctx.panel[stream.integer(0, n)]
        if not chart.h2 @ pt % p:
            return None
        td = value_of(cv.tangent_vectors(ctx.curve, [pt])[0])
        forms = alg.kernel_basis(np.stack([td.point, td.direction]), p)
        s1, s2 = forms[0], forms[1]
        swept = sweep_discriminant(chart, s1, s2, p)
        if swept is None or alg.poly_deg(swept[1]) < 1:
            return None
        residual, disc = swept
        roots = alg.distinct_roots(disc, p)
        for lam_star, quot in zip(roots, alg.p2_eval_x(residual, roots, p)):
            section = (s1 + lam_star * s2) % p
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
                    tq = cv.tangent_vectors(ctx.curve, [cand])[0]
                    if not isinstance(tq, cv.TangentData):
                        continue
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
    is swept along one parameter, the oracle value at a fixed line point b0
    is interpolated as a rational function of the parameter, and the
    numerator roots are verified exactly.

    A trial takes up to four families lazily, in order, and their
    `_family_candidates` form one sequence, walked by one `Draws.rounds`
    with one `contained_secants` per round: a family is swept only while
    the candidates so far are fewer than the secants still missing.  The
    candidates hold every contained root in order, so the secants found
    are those of the loop that reconstructs each root of each family in
    turn; the roots the second-point test drops are never reconstructed."""
    p = ctx.p
    results: list = []

    def draw(trial: int):
        sub = stream.spawn(f"pair{trial}")
        if ctx.g == 4:
            pt_p, pt_q, section = bitangent_pair(ctx, sub.spawn("bit"))
        else:
            pair = ctx.panel_pair(sub)
            if pair is None:
                return None
            pt_p, pt_q = pair
            section = double_vanishing_section(ctx, pt_p, pt_q)
            if section is None:
                return None
        b0 = (pt_p + sub.nonzero(p) * pt_q) % p
        # the second line point of the test, drawn from no stream
        b1 = (b0 + pt_q) % p
        families = range(4)
        candidates = chain.from_iterable(
            _family_candidates(ctx, section, b0, b1,
                               sub.spawn(f"family{fam}"))
            for fam in families)

        def contained(nets: list) -> list:
            """The candidates of a round: one `contained_secants`."""
            return [(pt_p, pt_q, net, c) if isinstance(c, QuarticCone) else c
                    for net, c in zip(nets, contained_secants(
                        ctx, [(pt_p, pt_q)] * len(nets), nets))]

        # a family has at most sweep_degree roots
        draws = Draws("family roots",
                      len(families) * cv.MODELS[ctx.g].sweep_degree,
                      lambda _: next(candidates, None))
        results.extend(found for _, found in draws.rounds(
            count - len(results), contained))
        return results if len(results) >= count else None

    return resample("contained double secants", 16, draw)


def _family_candidates(ctx: CurveContext, section: np.ndarray,
                       b0: np.ndarray, b1: np.ndarray, stream: Stream
                       ) -> list:
    """The nets <section, r1, r2 + t r3> of one random family at the roots
    t of `_family_roots` that pass the second-point test, in root order:
    one `build_nets` and one `oracle_batch` at b1, a second point of the
    secant line.

    The witness pairing is zero exactly on the quartic cone, so a net
    whose cone contains the line has a zero pairing at b1: a root is
    dropped only when its pairing at b1 is nonzero, and then
    `contained_secants` would judge it not contained.  A root whose net
    does not build, or whose witness at b1 fails, is kept (in place of the
    net, the exception of `build_nets`)."""
    p = ctx.p
    r1 = stream.field_vec(p, ctx.g)
    r2 = stream.field_vec(p, ctx.g)
    r3 = stream.field_vec(p, ctx.g)

    def family(t: int) -> np.ndarray:
        return np.stack([section, r1, (r2 + t * r3) % p])

    roots = _family_roots(ctx, family, b0)
    if not roots:
        return []
    nets = nt.build_nets(ctx, np.stack([family(t) for t in roots]))
    built = [k for k, net in enumerate(nets) if isinstance(net, nt.Net)]
    wits = dict(zip(built, nt.oracle_batch(
        ctx, [nets[k] for k in built], [b1] * len(built), check_gamma=False)))
    return [net for k, net in enumerate(nets)
            if not isinstance(wits.get(k), nt.OracleWitness)
            or int(wits[k].b @ wits[k].y % p) == 0]


def _family_roots(ctx: CurveContext, family, b0: np.ndarray) -> list:
    """The values of t at which the oracle value at b0 on the nets
    family(t) vanishes, by a rational fit in t; [] when the sweep runs
    short or the fit fails its holdout.

    The fit has numerator and denominator of degree at most d, the
    model's measured `sweep_degree` (`curve.GenusModel`), from the first
    2d + 1 samples, the fewest that fix such a pair (von zur Gathen and
    Gerhard, *Modern Computer Algebra*, 5.7), and is tested on the next
    `SWEEP_HOLDOUT`.  A sweep of higher degree fails the holdout, which
    costs its family and cannot forge a secant: a root is a secant only
    once `contained_secants` has reconstructed its net and checked it both
    ways, and the second-point test of `_family_candidates` drops only
    roots that check would refuse."""
    p = ctx.p
    deg = cv.MODELS[ctx.g].sweep_degree
    fit_count = 2 * deg + 1
    samples = _family_samples(ctx, family, b0, fit_count + SWEEP_HOLDOUT)
    if len(samples) < fit_count + SWEEP_HOLDOUT:
        return []
    ts, vs = zip(*samples)
    fit = alg.rational_interpolate(ts[:fit_count], vs[:fit_count], p, deg,
                                   deg)
    if fit is None:
        return []
    num, den = fit
    held = alg.p2_eval_x(alg.poly_stack([num, den]).T, ts[fit_count:], p)
    if (held[:, 0] != np.array(vs[fit_count:]) * held[:, 1] % p).any():
        return []
    return alg.distinct_roots(num, p)


def _family_samples(ctx: CurveContext, family, b0: np.ndarray, count: int
                    ) -> list[tuple[int, int]]:
    """(t, oracle value at b0) on the first `count` nets family(t), t = 1,
    2, ..., 500, that are off B and D and have a witness at b0.

    The values of t are those of a loop that builds one net at a time, and
    draw from no stream, so a smaller count gives a prefix of the samples
    of a larger one.  They are taken in rounds of as many as samples are
    still missing, each round one `build_nets` and one `oracle_batch`.
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
            for t, wit in sweep.rounds(count, sample)]


def degenerate_net(ctx: CurveContext, stream: Stream,
                   quadric: np.ndarray | None = None) -> nt.Net:
    """Engineer a net on the degeneracy divisor: its vertex is an isotropic
    (g - 3)-space of a quadric of the ideal, so the quadric contains it.

    The vertex grows one point at a time.  The first point is a zero of the
    quadric q on a random line; each further point is a zero of q on a
    random line inside the polar hyperplanes of the points so far, so it
    is orthogonal to them and to itself.  Genus 4 takes no further point
    and genus 5 one.  At genus 6 the vertex is an isotropic plane, which a
    quadric of elliptic type in six variables over F_p does not have: for
    such a q the last step finds no new isotropic point and the draw
    resamples."""
    p = ctx.p
    g = ctx.g
    i2 = ctx.ideal(2)

    def draw(_):
        if quadric is None:
            q = stream.combination(p, i2.basis)
            if q is None:
                return None
        else:
            q = np.asarray(quadric, dtype=np.int64) % p
        first = next(points_on_form(ctx, q, 2, stream, 1, budget=60), None)
        if first is None:
            return None
        vertex = first[None, :]
        for _ in range(g - 4):
            hb = alg.kernel_basis(2 * vertex @ cv.quadric_gram(q, g, p) % p, p)
            ends = stream.field_mat(p, 2, len(hb)) @ hb % p
            zeros = cv.line_zeros(q, 2, g, ends[:1], ends[1:], p)[0]
            if not zeros:
                return None
            vertex = np.vstack([vertex, zeros[0]])
            if alg.rank(vertex, p) != len(vertex):
                return None
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
