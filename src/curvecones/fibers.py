"""Fibers of the quadric bundle of a net: the residual-quadric data of its
quartic cone over plane points.

Over a nonzero plane point u the net holds the pencil of its sections
orthogonal to u, and the fiber is the annihilator of that pencil: a
(g - 2)-space through the vertex.  `fiber_bases` is the one builder of
its adapted basis [a fiber point off the vertex; the vertex basis], in
whose coordinates y the vertex form is y0.  There the restriction of the
quartic cone is y0^2 times the quadric whose Gram is the inverse of the
cup-product Gram on the fiber.  That identity is the system the
reconstruction solves (`cone._kernels`), the holdout certificate
(`form_matches_split`) and the Hessian scan's reading of the cone
(`bundle.fiber_quadric`), all three on the coefficients of y0^2 m that
`on_fibers` splits off.
`split_fibers` runs every step on an N x 3 stack of plane points through
`fiber_bases`, the `pencil` contractions and `algebra.solve_batch`.  A
pencil is first tested by `pencil.admissibility`, whose failures open the
fiber's failure table; the tests that follow are the fiber's own.  The
contractions of this module (the pairing of the net with the annihilator
and the residual Gram) sum g products of two entries below p per entry,
below 5 * 2**50 < 2**53 at genus 5 and p < 2**25.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import algebra as alg
from . import monomials as mono
from . import net as nt
from . import pencil as pc
from .canring import CurveContext
from .errors import (CorankJump, CurveConesError, InconsistentSystem,
                     VerificationFailed, outcomes)


@dataclass
class SplitFiber:
    basis: np.ndarray      # g x (g-2); columns: off-vertex point, vertex
    gram: np.ndarray       # (g-2) x (g-2) residual quadric Gram


# what split_fibers gives a pencil that fails, in the order it tests them
_FIBER_FAILURES = pc.INADMISSIBLE + (
    (CorankJump, "pencil fiber meets the degeneracy divisor"),
    (InconsistentSystem, "rhs is not in the column space"),
    (VerificationFailed, "residual Gram failed exact symmetry"),
)


def fiber_bases(w: np.ndarray, wperp: np.ndarray, us: np.ndarray, p: int
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pencils, adapted fiber bases and lifts over an N x 3 stack of
    plane points: w and wperp are one net's (3 x g and (g-3) x g) or one
    per point.

    The pencil over u and its lift, N x 2 x g and N x g, are
    `net.pencil_at`'s.  The basis, N x g x (g-2) by columns, is the first
    row of the pencil's annihilator off the vertex, then wperp: a row of
    the annihilator is off the vertex when some row of w pairs nonzero
    with it.  A nonzero point gives a rank-2 pencil inside the net, so the
    row exists; a zero point gets meaningless rows.
    """
    us = np.asarray(us, dtype=np.int64).reshape(-1, 3) % p
    n = us.shape[0]
    g = np.shape(w)[-1]
    v, lift = nt.pencil_at(w, us, p)
    vperp, _ = alg.kernel_batch(v, p, g - 2)
    pairing = w @ vperp.transpose(0, 2, 1) % p            # N x 3 x (g-2)
    lead = vperp[np.arange(n), pairing.any(axis=1).argmax(axis=1)]
    basis = np.concatenate([lead[:, :, None], np.broadcast_to(
        np.swapaxes(wperp, -1, -2), (n, g, g - 3))], axis=2)
    return v, basis, lift


def on_fibers(coeffs: np.ndarray, g: int, bases: np.ndarray, p: int
              ) -> tuple[np.ndarray, np.ndarray]:
    """`monomials.restrict` of a quartic to each adapted basis of an N x g
    x (g-2) stack (or of an N x count(g, 4) x k stack of quartics, k per
    basis), split along the coefficient axis into the monomials y0^2 m,
    listed by their quadrics m in `exponents(g - 2, 2)` order, and the
    rest, where a form singular along the vertex is zero.  Both lists are
    in the exponent order, where y0^2 m comes first."""
    restricted = mono.restrict(coeffs, 4, g, bases, p)
    split = mono.count(bases.shape[-1], 2)
    return restricted[:, :split], restricted[:, split:]


def split_fibers(ctx: CurveContext, nets, us: np.ndarray
                 ) -> list[SplitFiber | CurveConesError]:
    """Residual-quadric data of the quartic on the fiber over each plane
    point of an N x 3 stack: nets is one net for every point, or a list of
    N nets, one per point.

    The Gram entries are G[i][j] = <b_i, y_j> with gram y_j = b_j, over
    the columns b of the adapted basis (`fiber_bases`), i.e. the inverse
    Gram of the cup product on the annihilator of the pencil; symmetry of
    the cup Gram makes G symmetric exactly.  The cup Gram is built for the
    lift of `fiber_bases`.  A point whose pencil fails gets, in place of
    its fiber, the first of `_FIBER_FAILURES` that applies.  Every step
    runs on the whole stack: one reduction of [gram | basis] gives the
    g - 2 solves and the corank.
    """
    p = ctx.p
    g = ctx.g
    us = np.asarray(us, dtype=np.int64).reshape(-1, 3)
    n = us.shape[0]
    if isinstance(nets, nt.Net):
        nets = [nets] * n
    w = np.array([net.w for net in nets], dtype=np.int64).reshape(n, 3, g)
    wperp = np.array([net.wperp for net in nets],
                     dtype=np.int64).reshape(n, g - 3, g)
    v, basis, lift = fiber_bases(w, wperp, us, p)
    vbar, inadmissible = pc.admissibility(ctx, v)
    grams = pc.cup_grams(ctx, vbar, lift)
    ys, gram_rank, solved = alg.solve_batch(grams, basis, p)
    residual = basis.transpose(0, 2, 1) @ ys % p
    failed = np.concatenate([inadmissible, np.stack([
        gram_rank != g - 2, ~solved,
        (residual != residual.transpose(0, 2, 1)).any(axis=(1, 2))])])
    return outcomes(failed, _FIBER_FAILURES, lambda i: SplitFiber(
        basis=basis[i], gram=residual[i]))


def fiber_quadric_form(gram: np.ndarray, p: int) -> np.ndarray:
    """Degree-2 coefficient vector of c -> c^T G c on fiber coordinates,
    the inverse of `curve.quadric_gram` (same monomial order); for a stack
    of Grams, one vector each."""
    i, j = np.triu_indices(gram.shape[-1])
    return gram[..., i, j] * np.where(i == j, 1, 2) % p


def form_matches_split(ctx: CurveContext, coeffs: np.ndarray,
                       fiber: SplitFiber) -> bool:
    """Whether the quartic restricted to the fiber is y0^2 times a nonzero
    multiple of its residual quadric: zero off the monomials y0^2 m, and
    proportional to the quadric on them, the identity whose coefficients
    are the reconstruction's equations (`cone._kernels`)."""
    p = ctx.p
    (quotient,), (rest,) = on_fibers(coeffs, ctx.g, fiber.basis[None], p)
    lhs, rhs = alg.normalize_rows(np.stack([
        quotient, fiber_quadric_form(fiber.gram, p)]), p)
    return not rest.any() and lhs.tolist() == rhs.tolist()
