"""Graded pieces, ideal kernels, pointwise multiplication, Petri dichotomy."""

from itertools import product

import numpy as np
import pytest
import sympy
from sympy.polys.matrices import DomainMatrix

from curvecones import acceptance as acc, algebra as alg
from curvecones import canring, curve as cv, monomials as mono
from curvecones.errors import SingularPoint
from curvecones.rng import Stream

import reference
from reference import solve_consistent

P = 1000003

# Riemann-Roch oracles, frozen: dim I(n) = C(g-1+n, n) - (2n-1)(g-1)
EXPECTED_IDEAL_DIMS = {4: {2: 1, 3: 5, 4: 14}, 5: {2: 3, 3: 15, 4: 42}}
EXPECTED_RING_DIMS = {4: {1: 4, 2: 9, 3: 15, 4: 21}, 5: {1: 5, 2: 12, 3: 20, 4: 28}}


class TestDimensions:
    def test_ring_dims_match_riemann_roch(self, ctx4, ctx5):
        for ctx in (ctx4, ctx5):
            for n in (1, 2, 3, 4):
                assert ctx.piece(n).dim == EXPECTED_RING_DIMS[ctx.g][n]

    def test_ideal_dims(self, ctx4, ctx5):
        for ctx in (ctx4, ctx5):
            for n in (2, 3, 4):
                assert ctx.ideal(n).dim == EXPECTED_IDEAL_DIMS[ctx.g][n]

    def test_ideal_confirmed_on_holdout(self, ctx4, ctx5):
        for ctx in (ctx4, ctx5):
            for n in (2, 3, 4):
                main = ctx.ideal(n)
                hold = canring.ideal_piece_from_holdout(ctx, n)
                assert hold.dim == main.dim
                stacked = np.concatenate([main.basis, hold.basis])
                assert alg.rank(stacked, P) == main.dim

    def test_ideal_vanishes_at_points(self, ctx4, ctx5):
        for ctx in (ctx4, ctx5):
            for n in (2, 3, 4):
                for row in ctx.ideal(n).basis:
                    assert ctx.vanishes_on_curve(row, n)


class TestOneElimination:
    """The ideal pieces (the kernel of each panel evaluation matrix) and
    the structure constants (the coordinates of its image) against
    independent computations."""

    @pytest.mark.parametrize("name", ["ctx4", "ctx5", "ctx4_max", "ctx5_max"])
    def test_ideal_is_the_special_kernel(self, name, request):
        # a kernel vector is fixed by its entries in the free columns of
        # sympy's echelon form, so these three checks pin the basis
        ctx = request.getfixturevalue(name)
        field = sympy.GF(ctx.p)
        for n in (2, 3, 4):
            e = ctx.piece(n).eval_matrix
            _, pivots = DomainMatrix([[field(int(v)) for v in row]
                                      for row in e], e.shape, field).rref()
            free = [c for c in range(e.shape[1]) if c not in pivots]
            piece = ctx.ideal(n)
            assert piece.dim == len(free) == EXPECTED_IDEAL_DIMS[ctx.g][n]
            assert not (e @ piece.basis.T % ctx.p).any()
            assert piece.basis[:, free].tolist() == \
                np.eye(len(free), dtype=np.int64).tolist()

    @pytest.mark.parametrize("name", ["ctx4", "ctx5", "ctx4_max", "ctx5_max"])
    def test_structure_constants_are_panel_product_coordinates(self, name,
                                                               request):
        ctx = request.getfixturevalue(name)
        g, p, pts = ctx.g, ctx.p, ctx.panel
        cubes = np.stack([pts[:, i] * pts[:, j] % p * pts[:, k] % p
                          for i, j, k in product(range(g), repeat=3)])
        assert ctx.cubic_tensor.tolist() == \
            reference.coords(ctx, 3, cubes).reshape(g, g, g, -1).tolist()
        piece2 = ctx.piece(2)
        basis2 = piece2.eval_matrix[:, piece2.basis_cols]
        products = np.concatenate([(basis2 * pts[:, [i]] % p).T
                                   for i in range(g)])
        assert ctx.times_linear.tolist() == reference.coords(
            ctx, 3, products).reshape(g, piece2.dim, -1).tolist()


class TestOnePointSet:
    """The context's one point set and its one table per degree."""

    def test_panels_are_views_of_the_points(self, ctx4, ctx5):
        for ctx in (ctx4, ctx5):
            assert len(ctx.points) == len(ctx.panel) + len(ctx.holdout)
            assert np.shares_memory(ctx.panel, ctx.points)
            assert np.shares_memory(ctx.holdout, ctx.points)
            assert ctx.points.tolist() == \
                ctx.panel.tolist() + ctx.holdout.tolist()
            for n in (2, 3, 4):
                assert ctx.table(n).tolist() == \
                    mono.eval_matrix(ctx.points, ctx.g, n, P).tolist()
                assert ctx.piece(n).eval_matrix.tolist() == \
                    ctx.table(n)[:len(ctx.panel)].tolist()

    def test_holdout_is_evaluated_once_per_degree(self, ctx4, monkeypatch):
        # a reduced suite on a fresh context evaluates each holdout point
        # once in each degree: in the context's table
        held = {tuple(pt) for pt in ctx4.holdout.tolist()}
        evaluated = {}
        real = mono.eval_matrix

        def counting(pts, g, n, p):
            if g == ctx4.g:
                evaluated[n] = evaluated.get(n, 0) + sum(
                    tuple(pt) in held for pt in np.asarray(pts).tolist())
            return real(pts, g, n, p)

        monkeypatch.setattr(mono, "eval_matrix", counting)
        ctx = canring.CurveContext(ctx4.curve, list(ctx4.points))
        acc.run_criteria(ctx, acc.preset("reduced", 0))
        assert evaluated == {n: len(ctx4.holdout) for n in (1, 2, 3, 4)}


class TestMultiplication:
    def test_ideal_elements_evaluate_to_zero(self, ctx4):
        q = ctx4.ideal(2).basis[0]
        assert not mono.form_eval(q, ctx4.panel, 4, 2, P).any()

    def test_coords_roundtrip(self, ctx4):
        stream = Stream(6, "coords")
        piece = ctx4.piece(3)
        coeffs = stream.field_vec(P, mono.count(4, 3))
        values = mono.form_eval(coeffs, ctx4.panel, 4, 3, P)
        # column j of the echelon rows: the coordinates of monomial j
        coords = piece.rows @ coeffs % P
        assert coords.tolist() == \
            reference.coords(ctx4, 3, values[None, :])[0].tolist()
        rebuilt = piece.eval_matrix[:, piece.basis_cols] @ coords % P
        assert rebuilt.tolist() == values.tolist()

    def test_evaluation_interpolation_roundtrip(self, ctx4):
        # reduce a coefficient vector on the holdout panel, re-interpolate,
        # and compare classes on the main panel
        stream = Stream(8, "roundtrip")
        coeffs = stream.field_vec(P, mono.count(4, 2))
        e_hold = ctx4.table(2)[len(ctx4.panel):]
        hold_vals = e_hold @ coeffs % P
        x = solve_consistent(e_hold, hold_vals, P)
        main_a = mono.form_eval(coeffs, ctx4.panel, 4, 2, P)
        main_b = mono.form_eval(x, ctx4.panel, 4, 2, P)
        assert main_a.tolist() == main_b.tolist()


class TestIdealStructure:
    def test_degree_shift_containment(self, ctx4, ctx5):
        # I(m) times the linear piece stays inside I(m+1)
        for ctx in (ctx4, ctx5):
            for m in (2, 3):
                target = ctx.ideal(m + 1)
                for row in ctx.ideal(m).basis:
                    for k in range(ctx.g):
                        unit = np.zeros(ctx.g, dtype=np.int64)
                        unit[k] = 1
                        prod = mono.mul_forms(unit, 1, row, m, ctx.g, P)
                        assert ctx.in_ideal(prod, m + 1)

    def test_petri_dichotomy(self, ctx4, ctx5):
        assert ctx4.petri_check() is False
        assert ctx5.petri_check() is True

    def test_petri_rank_value(self, ctx5):
        # the 5 x 3 products span the full 15-dimensional cubic ideal piece
        i2 = ctx5.ideal(2)
        products = []
        for k in range(5):
            unit = np.zeros(5, dtype=np.int64)
            unit[k] = 1
            for q in i2.basis:
                products.append(mono.mul_forms(unit, 1, q, 2, 5, P))
        assert alg.rank(np.stack(products), P) == 15


class TestTangents:
    def test_stack_matches_one_point_at_a_time(self, ctx4, ctx5):
        """`curve.tangent_vectors` of a stack against the scalar reference
        and against one point at a time, with an off-curve point and a
        repeat in the stack."""
        for ctx in (ctx4, ctx5):
            off = (ctx.panel[0] + 1) % P
            pts = np.concatenate([ctx.panel[3:8], off[None], ctx.panel[3:4]])
            got = cv.tangent_vectors(ctx.curve, pts)
            assert len(got) == 7
            for pt, td in zip(pts, got):
                one = cv.tangent_vectors(ctx.curve, [pt])[0]
                try:
                    want = reference.tangent_vector(ctx.curve, pt)
                except SingularPoint as exc:
                    assert (type(td), str(td)) == (SingularPoint, str(exc))
                    assert (type(one), str(one)) == (SingularPoint, str(exc))
                    continue
                assert td.point.tolist() == want.point.tolist()
                assert td.direction.tolist() == want.direction.tolist()
                assert one.point.tolist() == want.point.tolist()
                assert one.direction.tolist() == want.direction.tolist()
            assert str(got[5]) == "point is not on the curve"
            assert got[6].point.tolist() == got[0].point.tolist()
            assert got[6].direction.tolist() == got[0].direction.tolist()
            assert cv.tangent_vectors(ctx.curve, pts[:0]) == []
