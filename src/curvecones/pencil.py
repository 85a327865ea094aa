"""Pencils of canonical sections and their cup-product geometry.

A two-dimensional subspace V of the space of sections determines a
hyperplane of the cubic graded piece, namely the image of V times the
quadratic piece.  The functional vbar cutting that hyperplane pairs two
sections through a third into the cup-product Gram matrices used
everywhere downstream: corank 2 is the generic law, and corank jumps
detect the degeneracy divisor.
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
    panel_vals = ctx.panel @ vr.T % p
    base_hits = ~panel_vals.any(axis=1)
    if base_hits.any():
        raise InadmissiblePencil("pencil has a base point on the panel")
    hold_vals = ctx.holdout @ vr.T % p
    if (~hold_vals.any(axis=1)).any():
        raise InadmissiblePencil("pencil has a base point on the panel")
    piece2 = ctx.piece(2)
    basis2 = piece2.eval_matrix[:, piece2.basis_cols]
    rows = []
    for k in range(2):
        svals = ctx.panel @ vr[k] % p
        rows.append(basis2 * svals[:, None] % p)
    products = np.concatenate(rows, axis=1).T  # (2 d2) x panel
    coords = ctx.coords_many(3, products)
    functionals = alg.kernel_basis(coords, p)
    if functionals.shape[0] != 1:
        raise InadmissiblePencil(
            f"product space has codimension {functionals.shape[0]}, "
            "expected 1")
    return PencilData(v=vr, vbar=alg.normalize_scalar(functionals[0], p))


def cup_gram(ctx: CurveContext, pencil: PencilData, w: np.ndarray) -> CupGram:
    """Polar Gram matrix gram(s, t) = vbar(w s t) on section coefficients.

    Symmetric by construction; its kernel always contains the pencil, and
    equals it exactly away from the degeneracy divisor.
    """
    p = ctx.p
    g = ctx.g
    w = np.asarray(w, dtype=np.int64) % p
    if alg.RowSpace(pencil.v, p).contains(w):
        raise InadmissiblePencil("lift vector lies in the pencil")
    iu, ju = np.triu_indices(g)
    prods = (ctx.panel @ w % p)[:, None] * ctx.panel[:, iu] % p \
        * ctx.panel[:, ju] % p
    gram = np.zeros((g, g), dtype=np.int64)
    gram[iu, ju] = gram[ju, iu] = ctx.coords_many(3, prods.T) @ pencil.vbar % p
    return CupGram(w=w, gram=gram)

