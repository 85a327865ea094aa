"""Evaluation model of the canonical coordinate ring.

Sections of the n-th power of the canonical bundle are represented by their
value vectors on a fixed panel of rational curve points.  The panel always
exceeds the degree of any section of weight up to six, so a section is zero
exactly when its value vector is, multiplication is pointwise, and graded
pieces of the ideal fall out as kernels of monomial evaluation matrices.
The context keeps one point set, the main panel followed by a disjoint
holdout panel, and one monomial table per degree over all of it.  One row
reduction of the main-panel rows of each table gives both halves of the
map: its nonzero rows hold the coordinates of every monomial in the pivot
monomials, which span the graded piece (the image), and its special
solutions are the ideal piece (the kernel).  The holdout rows of the same
table back an independent recomputation of every kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import algebra as alg
from . import curve as cv
from . import monomials as mono
from .errors import InsufficientPoints, RankDeficiency
from .rng import Stream


def ring_dim(g: int, n: int) -> int:
    """Riemann-Roch dimension of the degree-n graded piece."""
    if n == 0:
        return 1
    if n == 1:
        return g
    return (2 * n - 1) * (g - 1)


def ideal_dim(g: int, n: int) -> int:
    return mono.count(g, n) - ring_dim(g, n)


@dataclass
class GradedPiece:
    n: int
    dim: int
    eval_matrix: np.ndarray      # panel x monomials: the main-panel rows
                                 # of the context's table
    basis_cols: list[int]        # pivot monomial columns spanning the piece
    rows: np.ndarray             # dim x monomials: the nonzero rows of the
                                 # echelon form of eval_matrix; column j
                                 # holds the coordinates of monomial j


@dataclass
class IdealPiece:
    n: int
    dim: int
    basis: np.ndarray            # dim x monomial-count, echelon-normalized


class CurveContext:
    """A curve with its point set and graded-ring evaluation tables.

    `points` is the main panel followed by the holdout panel; `panel` and
    `holdout` are views into it."""

    def __init__(self, curve: cv.CurveModel, points: list[np.ndarray]):
        self.curve = curve
        self.g = curve.genus
        self.p = curve.prime
        main_size, holdout_size = cv.panel_sizes(self.g)
        if len(points) < main_size + holdout_size:
            raise InsufficientPoints(
                f"need {main_size + holdout_size} points, got {len(points)}")
        self.points = np.stack(points[: main_size + holdout_size]) % self.p
        self.panel = self.points[:main_size]
        self.holdout = self.points[main_size:]
        self._tables: dict[int, np.ndarray] = {}
        self._pieces: dict[int, GradedPiece] = {}
        self._ideals: dict[int, IdealPiece] = {}
        for n in (1, 2, 3, 4):
            self.piece(n)

    # -- graded pieces ----------------------------------------------------

    def table(self, n: int) -> np.ndarray:
        """Values of the degree-n monomials at every point, main panel rows
        first; one table per degree, built on first use."""
        if n not in self._tables:
            self._tables[n] = mono.eval_matrix(self.points, self.g, n, self.p)
        return self._tables[n]

    def piece(self, n: int) -> GradedPiece:
        if n not in self._pieces:
            e = self.table(n)[: len(self.panel)]
            expected = ring_dim(self.g, n)
            r, col_pivots = alg.rref(e, self.p)
            if len(col_pivots) != expected:
                raise RankDeficiency(
                    f"panel separates a {len(col_pivots)}-dimensional space "
                    f"in degree {n}, expected {expected}")
            self._pieces[n] = GradedPiece(
                n=n, dim=expected, eval_matrix=e, basis_cols=col_pivots,
                rows=r[:expected])
        return self._pieces[n]

    def ideal(self, n: int) -> IdealPiece:
        if n not in self._ideals:
            self._ideals[n] = ideal_piece(self, n)
        return self._ideals[n]

    @cached_property
    def cubic_tensor(self) -> np.ndarray:
        """g x g x g x d3: cubic-piece coordinates of z_i z_j z_k, read
        off the echelon rows of the cubic piece on first use through the
        product tables of z_i times z_j z_k and of z_j times z_k."""
        t11, t12 = (mono._product_table(self.g, 1, n) for n in (1, 2))
        return self.piece(3).rows.T[t12[:, t11]]

    @cached_property
    def times_linear(self) -> np.ndarray:
        """g x d2 x d3: cubic-piece coordinates of z_i times each basis
        monomial of the quadratic piece (R1 x R2 -> R3), built on first
        use through the product table of z_i times a quadratic monomial."""
        t12 = mono._product_table(self.g, 1, 2)
        return self.piece(3).rows.T[t12[:, self.piece(2).basis_cols]]

    def panel_pair(self, stream: Stream) -> tuple | None:
        """Two panel points drawn by index, or None when the indices
        agree: the one draw of two panel points (the random and vertex
        secants of criterion 10, the genus-5 double-secant pairs and the
        secant probes of the base-locus probe)."""
        n = len(self.panel)
        i = stream.integer(0, n)
        j = stream.integer(0, n)
        return None if i == j else (self.panel[i], self.panel[j])

    # -- checks -----------------------------------------------------------

    def zeros_on_curve(self, coeffs: np.ndarray, n: int):
        """How many of the context's points the form is zero at, for one
        form or each row of a stack of forms (an array of counts)."""
        forms = np.asarray(coeffs, dtype=np.int64).T
        zeros = (self.table(n) @ forms % self.p == 0).sum(axis=0)
        return int(zeros) if forms.ndim == 1 else zeros

    def vanishes_on_curve(self, coeffs: np.ndarray, n: int):
        """Zero at every point, for one form or each row of a stack of
        forms (an array of verdicts); for degree <= 6 this certifies ideal
        membership because the points outnumber the section degree."""
        return self.zeros_on_curve(coeffs, n) == len(self.points)

    def in_ideal(self, coeffs: np.ndarray, n: int) -> bool:
        return alg.RowSpace(self.ideal(n).basis, self.p).contains(coeffs)

    def petri_check(self) -> bool:
        """True when degree-2 ideal elements generate the degree-3 piece."""
        products = mono.multiples(self.ideal(2).basis, 2, 3, self.g, self.p)
        rank = alg.rank(products.reshape(-1, products.shape[-1]), self.p)
        return rank == self.ideal(3).dim


def ideal_piece(ctx: CurveContext, n: int) -> IdealPiece:
    """Kernel of the degree-n evaluation matrix: the special solutions of
    the echelon rows of its graded piece, whose rank `piece` has checked
    against the Riemann-Roch count."""
    if not 2 <= n <= 4:
        raise ValueError("ideal pieces are kept for degrees 2 through 4")
    piece = ctx.piece(n)
    basis = alg.special_solutions_batch(
        piece.rows[None], np.array([piece.basis_cols]),
        piece.rows.shape[1] - piece.dim, ctx.p)[0][0]
    return IdealPiece(n=n, dim=basis.shape[0], basis=basis)


def ideal_piece_from_holdout(ctx: CurveContext, n: int) -> IdealPiece:
    """Same kernel computed on the disjoint holdout rows of the table."""
    basis = alg.kernel_basis(ctx.table(n)[len(ctx.panel):], ctx.p)
    return IdealPiece(n=n, dim=basis.shape[0], basis=basis)


def build_context(curve: cv.CurveModel, points: list[np.ndarray] | None = None
                  ) -> CurveContext:
    if points is None:
        points = cv.sample_points(curve, sum(cv.panel_sizes(curve.genus)))
    return CurveContext(curve, points)
