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
at genus 5), below 20 * 2**50 < 2**55 at p < 2**25.  The functions on
stacks serve the batched membership oracle of the net module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import algebra as alg
from .canring import CurveContext
from .errors import InadmissiblePencil


@dataclass
class PencilData:
    v: np.ndarray                  # 2 x g echelon-normalized basis
    vbar: np.ndarray               # functional on cubic-piece coordinates


@dataclass
class CupGram:
    w: np.ndarray
    gram: np.ndarray               # symmetric g x g


def corank(m: np.ndarray, p: int) -> int:
    return m.shape[1] - alg.rank(m, p)


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


def build_pencil(ctx: CurveContext, v: np.ndarray) -> PencilData:
    """Pencil data with its cutting functional.

    Admissibility demands both that the product space has codimension
    exactly one in the cubic piece and that no panel point is a common zero
    of the pencil; the codimension test alone does not see base points.
    """
    p = ctx.p
    v = np.asarray(v, dtype=np.int64) % p
    vr, pivots = alg.rref(v, p)
    if v.shape != (2, ctx.g) or len(pivots) != 2:
        raise InadmissiblePencil("pencil basis must have rank 2")
    vr = vr[:2]
    if base_points(ctx.panel, vr, p):
        raise InadmissiblePencil("pencil has a base point on the panel")
    if base_points(ctx.holdout, vr, p):
        raise InadmissiblePencil(
            "pencil has a base point on the holdout panel")
    functionals = alg.kernel_basis(product_space(ctx, vr), p)
    if functionals.shape[0] != 1:
        raise InadmissiblePencil(
            f"product space has codimension {functionals.shape[0]}, "
            "expected 1")
    return PencilData(v=vr, vbar=alg.normalize_scalar(functionals[0], p))


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
