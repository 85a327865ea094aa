"""Pencils: cutting functionals and cup Grams."""

import numpy as np
import pytest

from curvecones import algebra as alg, monomials as mono, pencil as pc
from curvecones.errors import InadmissiblePencil
from curvecones.rng import Stream

import reference
from reference import solve_consistent

P = 1000003


def random_pencil(ctx, stream):
    while True:
        try:
            return pc.build_pencil(ctx, stream.field_mat(P, 2, ctx.g))
        except InadmissiblePencil:
            continue


def vbar_of(ctx, pen, values):
    """The cutting functional on a cubic class given by its panel values."""
    return int(reference.coords(ctx, 3, values[None, :])[0] @ pen.vbar % P)


class TestBuildPencil:
    def test_generic_codimension_one(self, ctx4):
        pen = random_pencil(ctx4, Stream(1, "bp"))
        # product space has dimension 2 * dim R_2 - g = 14 inside the
        # 15-dimensional cubic piece
        piece2 = ctx4.piece(2)
        basis2 = piece2.eval_matrix[:, piece2.basis_cols]
        rows = []
        for k in range(2):
            svals = ctx4.panel @ pen.v[k] % P
            rows.append((basis2 * svals[:, None] % P).T)
        coords = reference.coords(ctx4, 3, np.concatenate(rows))
        assert alg.rank(coords, P) == 14

    def test_rank_deficient_rejected(self, ctx4):
        v = np.array([[1, 2, 3, 4], [2, 4, 6, 8]], dtype=np.int64)
        with pytest.raises(InadmissiblePencil):
            pc.build_pencil(ctx4, v)

    def test_base_point_rejected(self, ctx4):
        # two sections vanishing at a panel point share a base point; the
        # codimension test alone cannot see it, the panel scan must
        forms = alg.kernel_basis(ctx4.panel[0].reshape(1, 4), P)
        with pytest.raises(InadmissiblePencil):
            pc.build_pencil(ctx4, forms[:2])

    @pytest.mark.parametrize("name", ["ctx4", "ctx5"])
    def test_matches_scalar_chain(self, name, request):
        """`build_pencil` and one stacked `admissibility` against the scalar
        chain of `reference.build_pencil`, on generic pencils and on each
        kind of failure."""
        ctx = request.getfixturevalue(name)
        g = ctx.g
        stream = Stream(30, f"adm{g}")
        vs = np.stack([stream.field_mat(P, 2, g) for _ in range(4)] + [
            alg.kernel_basis(ctx.panel[3].reshape(1, g), P)[:2],
            alg.kernel_basis(ctx.holdout[1].reshape(1, g), P)[:2],
            np.stack([ctx.panel[1], 5 * ctx.panel[1] % P])])

        def outcome(build, v):
            try:
                pen = build(ctx, v)
            except InadmissiblePencil as exc:
                return str(exc)
            return pen.v.tolist(), pen.vbar.tolist()

        want = [outcome(reference.build_pencil, v) for v in vs]
        assert [outcome(pc.build_pencil, v) for v in vs] == want
        vbar, failed = pc.admissibility(ctx, vs)
        assert failed.shape == (len(pc.INADMISSIBLE), len(vs))
        for k, expected in enumerate(want):
            if isinstance(expected, str):
                first = pc.INADMISSIBLE[failed[:, k].argmax()]
                assert failed[:, k].any() and first[1] == expected
            else:
                assert not failed[:, k].any()
                assert vbar[k].tolist() == expected[1]
        assert {"pencil basis must have rank 2",
                "pencil has a base point on the panel",
                "pencil has a base point on the holdout panel"} \
            <= {e for e in want if isinstance(e, str)}

    def test_vbar_kills_products(self, ctx4):
        pen = random_pencil(ctx4, Stream(2, "bp"))
        stream = Stream(3, "q")
        piece2 = ctx4.piece(2)
        for s in pen.v:
            q = stream.field_vec(P, piece2.dim)
            qvals = piece2.eval_matrix[:, piece2.basis_cols] @ q % P
            svals = ctx4.panel @ s % P
            assert vbar_of(ctx4, pen, svals * qvals % P) == 0


class TestCupGram:
    def test_symmetric_and_kernel_contains_pencil(self, ctx4):
        pen = random_pencil(ctx4, Stream(10, "cg"))
        stream = Stream(11, "w")
        cg = pc.cup_gram(ctx4, pen, stream.field_vec(P, 4))
        assert (cg.gram == cg.gram.T).all()
        assert not (cg.gram @ pen.v.T % P).any()

    def test_generic_corank_two_with_kernel_equal_pencil(self, ctx4, ctx5):
        for ctx in (ctx4, ctx5):
            pen = random_pencil(ctx, Stream(12, "cg"))
            cg = pc.cup_gram(ctx, pen, Stream(13, "w").field_vec(P, ctx.g))
            assert pc.corank(cg.gram, P) == 2
            kern = alg.kernel_basis(cg.gram, P)
            assert alg.rank(np.concatenate([pen.v, kern]), P) == 2

    def test_corank_never_below_two(self, ctx4):
        stream = Stream(14, "dich")
        for _ in range(12):
            pen = random_pencil(ctx4, stream.spawn("p"))
            cg = pc.cup_gram(ctx4, pen, stream.field_vec(P, 4))
            assert pc.corank(cg.gram, P) >= 2

    def test_corank_of_a_stack(self, ctx4, ctx5):
        # coranks of a 2 x 3 stack of Grams, a zero and a rank-1 Gram
        # planted among them, against one `rank` each
        for ctx in (ctx4, ctx5):
            stream = Stream(19, "stack")
            grams = np.stack([pc.cup_gram(
                ctx, random_pencil(ctx, stream.spawn(str(k))),
                stream.field_vec(P, ctx.g)).gram for k in range(6)])
            grams[1] = 0
            grams[4] = np.outer(grams[4, 0], grams[4, 0]) % P
            grams = grams.reshape(2, 3, ctx.g, ctx.g)
            want = [[ctx.g - alg.rank(m, P) for m in row] for row in grams]
            assert pc.corank(grams, P).tolist() == want
            assert want[0][1] == ctx.g and want[1][1] == ctx.g - 1
            assert pc.corank(grams[0, 0], P) == want[0][0] == 2

    def test_polar_identity(self, ctx4):
        # the Gram assembled from monomial products agrees with vbar of
        # the product of the three sections, taken pointwise on the panel
        pen = random_pencil(ctx4, Stream(15, "cg"))
        stream = Stream(16, "w")
        w = stream.field_vec(P, 4)
        cg = pc.cup_gram(ctx4, pen, w)
        for _ in range(6):
            s = stream.field_vec(P, 4)
            t = stream.field_vec(P, 4)
            wv, sv, tv = (ctx4.panel @ x % P for x in (w, s, t))
            assert int(s @ cg.gram @ t % P) \
                == vbar_of(ctx4, pen, wv * sv % P * tv % P)

    def test_scalar_robustness(self, ctx4):
        pen = random_pencil(ctx4, Stream(17, "cg"))
        w = Stream(18, "w").field_vec(P, 4)
        base = pc.corank(pc.cup_gram(ctx4, pen, w).gram, P)
        scaled = pc.corank(pc.cup_gram(ctx4, pen, 7 * w % P).gram, P)
        assert base == scaled


class TestHessianMembership:
    def test_hessian_determinant_has_degree_genus_minus_two(self, ctx4, ctx5):
        # the determinant of the cup Gram on the coordinates off the
        # pencil's pivots is a form of degree g - 2 in the lift: fit it
        # exactly and cross-validate
        for ctx in (ctx4, ctx5):
            pen = random_pencil(ctx, Stream(21, "deg" + str(ctx.g)))
            m = ctx.g - 2
            _, pivots = alg.rref(pen.v, P)
            cols = [c for c in range(ctx.g) if c not in pivots]
            units = []
            for col in cols:
                e = np.zeros(ctx.g, dtype=np.int64)
                e[col] = 1
                units.append(np.array(e))
            stream = Stream(22, "y")
            ys, vals = [], []
            for _ in range(mono.count(m, m) + 6):
                y = stream.field_vec(P, m)
                w = np.zeros(ctx.g, dtype=np.int64)
                for k in range(m):
                    w = (w + int(y[k]) * units[k]) % P
                gram = pc.cup_gram(ctx, pen, w).gram[np.ix_(cols, cols)]
                ys.append(y)
                vals.append(reference.det(gram, P))
            e = mono.eval_matrix(np.stack(ys[:-3]), m, m, P)
            coeffs = solve_consistent(e, np.array(vals[:-3]), P)
            assert coeffs.any()
            for y, v in zip(ys[-3:], vals[-3:]):
                assert mono.form_eval_one(coeffs, y, m, m, P) == v


class TestStructureConstants:
    def test_contractions_match_panel_products(self, ctx4, ctx5):
        """The product space and the cup Gram from the context's structure
        constants equal the panel products read back through
        `reference.coords`."""
        for ctx in (ctx4, ctx5):
            g = ctx.g
            stream = Stream(40, f"sc{g}")
            v = stream.field_mat(P, 2, g)
            w = stream.field_vec(P, g)
            vbar = stream.field_vec(P, ctx.piece(3).dim)
            piece2 = ctx.piece(2)
            basis2 = piece2.eval_matrix[:, piece2.basis_cols]
            products = np.concatenate(
                [(basis2 * (ctx.panel @ s % P)[:, None] % P).T for s in v])
            assert pc.product_space(ctx, v).tolist() == \
                reference.coords(ctx, 3, products).tolist()
            i, j = np.triu_indices(g)
            values = (ctx.panel @ w % P)[:, None] * ctx.panel[:, i] % P \
                * ctx.panel[:, j] % P
            gram = np.zeros((g, g), dtype=np.int64)
            gram[i, j] = gram[j, i] = \
                reference.coords(ctx, 3, values.T) @ vbar % P
            assert pc.cup_grams(ctx, vbar[None], w[None])[0].tolist() == \
                gram.tolist()
