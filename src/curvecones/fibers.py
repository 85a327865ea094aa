"""Pencil fibers of a net: the residual-quadric data of its quartic cone.

The restriction of the quartic cone of a net to the orthogonal space of a
pencil inside the net splits as (vertex linear form)^2 times the quadric
whose Gram is the inverse of the cup-product Gram on that space.
`split_fibers` runs every step on an N x 2 x g stack of pencils through
the `pencil` contractions and `algebra.kernel_batch`/`solve_batch`.  A
pencil is first tested by `pencil.admissibility`, whose failures open the
fiber's failure table; the tests that follow are the fiber's own.  Its
own contractions (the residual Gram vperp y, and the tests of net.w and
the pencil against vperp and the vertex) sum g products of two entries
below p per entry, below 5 * 2**50 < 2**53 at genus 5 and p < 2**25.
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
                     InadmissiblePencil, VerificationFailed)


@dataclass
class SplitFiber:
    vperp: np.ndarray      # (g-2) x g basis of the annihilator
    ell: np.ndarray        # linear form on vperp coordinates cutting the vertex
    gram: np.ndarray       # (g-2) x (g-2) residual quadric Gram


# what split_fibers gives a pencil that fails, in the order it tests them
_FIBER_FAILURES = pc.INADMISSIBLE + (
    (InadmissiblePencil, "pencil does not sit inside the net"),
    (CorankJump, "pencil fiber meets the degeneracy divisor"),
    (InconsistentSystem, "rhs is not in the column space"),
    (VerificationFailed, "residual Gram failed exact symmetry"),
    (InconsistentSystem, "rhs is not in the column space"),
    (CorankJump, "vertex does not cut a hyperplane of the fiber"),
)


def split_fibers(ctx: CurveContext, nets, vs: np.ndarray
                 ) -> list[SplitFiber | CurveConesError]:
    """Residual-quadric data of the quartic on the orthogonal space of each
    pencil of an N x 2 x g stack inside its net: nets is one net for every
    pencil, or a list of N nets, one per pencil.

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
    if isinstance(nets, nt.Net):
        nets = [nets] * n
    w = np.array([net.w for net in nets], dtype=np.int64).reshape(n, 3, g)
    wperp_t = np.array([net.wperp.T for net in nets],
                       dtype=np.int64).reshape(n, g, g - 3)
    vperp, _ = alg.kernel_batch(v, p, g - 2)
    vperp_t = vperp.transpose(0, 2, 1)
    vbar, inadmissible = pc.admissibility(ctx, v)
    in_net = ~(v @ wperp_t % p).any(axis=(1, 2))
    # a row of net.w lies in the pencil when vperp annihilates it
    outside = (w @ vperp_t % p).any(axis=2)
    lift = w[np.arange(n), outside.argmax(axis=1)]
    grams = pc.cup_grams(ctx, vbar, lift)
    ys, gram_rank, solved = alg.solve_batch(grams, vperp_t, p)
    residual = vperp @ ys % p
    coords, _, on_fiber = alg.solve_batch(vperp_t, wperp_t, p)
    ell, hyperplane = alg.kernel_batch(coords.transpose(0, 2, 1), p, 1)
    ell = alg.normalize_rows(ell[:, 0], p)
    failed = np.concatenate([inadmissible, np.stack([
        ~in_net, gram_rank != g - 2, ~solved,
        (residual != residual.transpose(0, 2, 1)).any(axis=(1, 2)),
        ~on_fiber, ~hyperplane])])
    out: list = []
    for i, test in enumerate(failed.argmax(axis=0).tolist()):
        if failed[test, i]:
            cls, message = _FIBER_FAILURES[test]
            out.append(cls(message))
        else:
            out.append(SplitFiber(vperp=vperp[i], ell=ell[i],
                                  gram=residual[i]))
    return out


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
    lhs, rhs = alg.normalize_rows(
        np.stack([restricted, split_product_form(fiber, p)]), p)
    return lhs.tolist() == rhs.tolist()
