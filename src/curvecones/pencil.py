"""Pencils of canonical sections and their cup-product geometry.

A two-dimensional subspace V of the space of sections determines a
hyperplane of the cubic graded piece, namely the image of V times the
quadratic piece.  The functional vbar cutting that hyperplane pairs two
sections through a third into the cup-product Gram matrices used
everywhere downstream: corank 2 is the generic law, and corank jumps
detect the degeneracy divisor.

Both are contractions with structure constants that the curve context
builds on first use: the product space of a pencil is its basis times
`CurveContext.times_linear` (R1 x R2 -> R3 in cubic-piece coordinates), and
a cup Gram is `CurveContext.cubic_tensor` (z_i z_j z_k -> R3) contracted
with the functional and the lift.  Every contraction is reduced mod p
after it: the longest sums d3 = 5g - 5 products of two entries below p (20
at genus 5), below 20 * 2**50 < 2**55 at p < 2**25.

This module owns the admissibility of a pencil: rank 2, no base point on
either panel, and a product space of codimension one.  `admissibility`
tests a stack of pencils and `INADMISSIBLE` names what each failure
raises; `build_pencil`, the membership oracle of the net module, the
fibers module and the corank law of `acceptance` all read both, so the
condition and its messages live here alone.  `build_pencil` and
`cup_gram` are the one-pencil forms; the corank law evaluates its nets
in rounds, on stacks (`admissibility`, `cup_grams`, `corank`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import algebra as alg
from .canring import CurveContext
from .errors import InadmissiblePencil, outcomes, value_of


@dataclass
class PencilData:
    v: np.ndarray                  # 2 x g echelon-normalized basis
    vbar: np.ndarray               # functional on cubic-piece coordinates


@dataclass
class CupGram:
    w: np.ndarray
    gram: np.ndarray               # symmetric g x g


def corank(m: np.ndarray, p: int) -> np.ndarray:
    """Corank of each matrix of a ... x rows x cols stack (an array of
    the stack's leading shape), from one `rref_batch`."""
    m = np.asarray(m, dtype=np.int64)
    _, pivots = alg.rref_batch(m.reshape((-1,) + m.shape[-2:]), p)
    return m.shape[-1] - (pivots >= 0).sum(axis=1).reshape(m.shape[:-2])


def product_space(ctx: CurveContext, v: np.ndarray) -> np.ndarray:
    """Cubic-piece coordinates of the products of the two sections of each
    pencil with the quadratic basis: (..., 2, g) -> (..., 2 d2, d3)."""
    v = np.asarray(v, dtype=np.int64)
    prods = np.tensordot(v, ctx.times_linear, axes=(-1, 0))
    prods %= ctx.p
    return prods.reshape(v.shape[:-2] + (v.shape[-2] * prods.shape[-2],
                                         prods.shape[-1]))


def base_points(pts: np.ndarray, v: np.ndarray, p: int) -> np.ndarray:
    """Whether some point (row of pts) is a common zero of each pencil of a
    (..., 2, g) stack."""
    vals = np.asarray(v, dtype=np.int64) @ pts.T
    vals %= p
    return (~vals.any(axis=-2)).any(axis=-1)


# what an inadmissible pencil raises, in the order `admissibility` tests
# them; the failure tables of the stacked chains splice it in
INADMISSIBLE = (
    (InadmissiblePencil, "pencil basis must have rank 2"),
    (InadmissiblePencil, "pencil has a base point on the panel"),
    (InadmissiblePencil, "pencil has a base point on the holdout panel"),
    (InadmissiblePencil, "product space does not have codimension 1"),
)


def admissibility(ctx: CurveContext, v: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """The normalized cutting functional of each pencil of an N x 2 x g
    stack of reduced bases, and the 4 x N masks of the failures of
    `INADMISSIBLE`.

    A pencil has rank 2 when one of its 2 x 2 minors is nonzero (each a
    difference of two products below p**2).  The codimension test alone
    does not see base points, so both panels are scanned.  The functional
    of a pencil that fails is meaningless.
    """
    p = ctx.p
    minors = v[:, 0, :, None] * v[:, 1, None, :] % p
    functionals, codim_one = alg.kernel_batch(product_space(ctx, v), p, 1)
    failed = np.stack([
        ~(minors != minors.transpose(0, 2, 1)).any(axis=(1, 2)),
        base_points(ctx.panel, v, p), base_points(ctx.holdout, v, p),
        ~codim_one])
    return alg.normalize_rows(functionals[:, 0], p), failed


def build_pencil(ctx: CurveContext, v: np.ndarray) -> PencilData:
    """Pencil data with its cutting functional: the echelon basis and
    `admissibility` of the one pencil, raising its first failure."""
    p = ctx.p
    v = np.asarray(v, dtype=np.int64) % p
    if v.shape != (2, ctx.g):
        raise InadmissiblePencil(INADMISSIBLE[0][1])
    vr, _ = alg.rref(v, p)
    vbar, failed = admissibility(ctx, vr[None])
    return value_of(outcomes(failed, INADMISSIBLE,
                             lambda _: PencilData(v=vr, vbar=vbar[0]))[0])


def cup_grams(ctx: CurveContext, vbar: np.ndarray, w: np.ndarray
              ) -> np.ndarray:
    """Cup Grams gram[n](s, t) = vbar[n](w[n] s t) of N functionals and
    lifts: (N, d3), (N, g) -> (N, g, g)."""
    p = ctx.p
    g = ctx.g
    cubic = ctx.cubic_tensor.reshape(g ** 3, -1)
    on_vbar = (cubic @ np.asarray(vbar, dtype=np.int64).T % p).T
    return np.einsum("nijk,nk->nij", on_vbar.reshape(-1, g, g, g),
                     np.asarray(w, dtype=np.int64)) % p


def cup_gram(ctx: CurveContext, pencil: PencilData, w: np.ndarray) -> CupGram:
    """Polar Gram matrix gram(s, t) = vbar(w s t) on section coefficients.

    Symmetric by construction; its kernel always contains the pencil, and
    equals it exactly away from the degeneracy divisor.
    """
    p = ctx.p
    w = np.asarray(w, dtype=np.int64) % p
    if alg.RowSpace(pencil.v, p).contains(w):
        raise InadmissiblePencil("lift vector lies in the pencil")
    return CupGram(w=w, gram=cup_grams(ctx, pencil.vbar[None], w[None])[0])
