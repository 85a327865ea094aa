"""Quartic reconstruction, polars, secants, tangent lines."""

import numpy as np
import pytest

from curvecones import algebra as alg, cone as cn
from curvecones import monomials as mono, net as nt
from curvecones.errors import DegenerateInput, NonGenericD
from curvecones.rng import Stream

P = 1000003


@pytest.fixture(scope="module")
def net4(ctx4):
    return nt.random_net(ctx4, Stream(100, "cone-tests"))


@pytest.fixture(scope="module")
def cone4(ctx4, net4):
    return cn.reconstruct_quartic(ctx4, net4, oracle_points=20)


class TestSplitFiber:
    def test_gram_symmetric_and_sized(self, ctx4, net4):
        fiber = cn.split_fiber(ctx4, net4,
                               nt.pencil_at(net4, np.array([1, 2, 3]), P))
        assert fiber.gram.shape == (2, 2)
        assert (fiber.gram == fiber.gram.T).all()
        assert fiber.ell.shape == (2,)

    def test_oracle_matches_residual_quadric(self, ctx4, net4):
        # dual routes: the membership oracle against the fiber quadric value
        fiber = cn.split_fiber(ctx4, net4,
                               nt.pencil_at(net4, np.array([1, 1, 2]), P))
        stream = Stream(101, "c")
        checked = 0
        while checked < 10:
            c = stream.field_vec(P, 2)
            if int(fiber.ell @ c % P) == 0:
                continue
            b = c @ fiber.vperp % P
            if not b.any():
                continue
            try:
                val = nt.fw_oracle(ctx4, net4, b)
            except DegenerateInput:
                continue
            assert val == (int(c @ fiber.gram @ c % P) == 0)
            checked += 1


class TestReconstruction:
    def test_certificate(self, cone4):
        cert = cone4.certificate
        assert cert["contains_curve"] and cert["vertex_singular"]
        assert cert["holdout_pencil"]
        assert cert["oracle_disagreements"] == 0
        assert cert["solution_dim"] == 1

    def test_idempotent_across_pencil_seeds(self, ctx4, net4, cone4):
        again = cn.reconstruct_quartic(ctx4, net4, seed=99, oracle_points=4)
        assert again.coeffs.tolist() == cone4.coeffs.tolist()

    def test_euler_identity(self, ctx4, cone4):
        total = np.zeros(mono.count(4, 4), dtype=np.int64)
        for var in range(4):
            unit = np.zeros(4, dtype=np.int64)
            unit[var] = 1
            total = (total + mono.mul_forms(
                unit, 1, mono.partial(cone4.coeffs, var, 4, 4, P), 3, 4, P)) \
                % P
        assert total.tolist() == (4 * cone4.coeffs % P).tolist()

    def test_degenerate_net_rejected(self, ctx4):
        dnet = cn.degenerate_net(ctx4, Stream(102, "d"))
        with pytest.raises(DegenerateInput):
            cn.reconstruct_quartic(ctx4, dnet)

    def test_splitting_on_fresh_pencils(self, ctx4, net4, cone4):
        # consistency beyond the pencils used by the solver
        stream = Stream(103, "f")
        done = 0
        while done < 3:
            u = stream.field_vec(P, 3)
            if not u.any():
                continue
            try:
                fiber = cn.split_fiber(ctx4, net4, nt.pencil_at(net4, u, P))
            except DegenerateInput:
                continue
            assert cn.form_matches_split(ctx4, cone4.coeffs, fiber)
            done += 1


class TestDoubleQuadric:
    def test_square_of_certificate_quadric(self, ctx4):
        quadric = ctx4.ideal(2).basis[0]
        dnet = cn.degenerate_net(ctx4, Stream(104, "d"), quadric=quadric)
        cone = cn.double_quadric_quartic(ctx4, dnet)
        expected = alg.normalize_scalar(
            mono.mul_forms(quadric, 2, quadric, 2, 4, P), P)
        assert cone.coeffs.tolist() == expected.tolist()

    def test_generic_net_rejected(self, ctx4, net4):
        with pytest.raises(NonGenericD):
            cn.double_quadric_quartic(ctx4, net4)


class TestPolars:
    def test_linearity_in_x(self, ctx5):
        net = nt.random_net(ctx5, Stream(105, "p5"))
        cone = cn.reconstruct_quartic(ctx5, net, oracle_points=4)
        x1, x2 = net.wperp
        lhs = cn.polar_cubic(ctx5, cone, (x1 + x2) % P).coeffs
        rhs = (cn.polar_cubic(ctx5, cone, x1).coeffs
               + cn.polar_cubic(ctx5, cone, x2).coeffs) % P
        assert lhs.tolist() == rhs.tolist()

    def test_membership_and_vertex(self, ctx4, cone4, net4):
        polar = cn.polar_cubic(ctx4, cone4, net4.wperp[0],
                               stream=Stream(106, "po"), oracle_points=20)
        assert polar.certificate["in_cubic_ideal"]
        assert polar.certificate["vertex_singular"]
        assert polar.certificate["oracle_disagreements"] == 0
        vals = mono.form_eval(polar.coeffs, ctx4.panel, 4, 3, P)
        assert not vals.any()

    def test_lw_dimensions(self, ctx4, cone4):
        basis, rank = cn.lw_space(ctx4, cone4)
        assert basis.shape[0] == 1
        assert rank == 1

    def test_zero_x_rejected(self, ctx4, cone4):
        with pytest.raises(ValueError):
            cn.polar_cubic(ctx4, cone4, np.zeros(4, dtype=np.int64))


class TestSecant:
    def test_random_pairs_false_false(self, ctx4, net4, cone4):
        stream = Stream(107, "pq")
        n = ctx4.panel.shape[0]
        for _ in range(25):
            i = stream.integer(0, n)
            j = stream.integer(0, n)
            if i == j:
                continue
            assert cn.secant_criterion(ctx4, net4, cone4, ctx4.panel[i],
                                       ctx4.panel[j]) == (False, False)

    def test_vertex_branch(self, ctx4):
        pt_p, pt_q, net = cn.secant_through_vertex(ctx4, Stream(108, "sv"))
        cone = cn.reconstruct_quartic(ctx4, net, oracle_points=4)
        assert cn.secant_criterion(ctx4, net, cone, pt_p, pt_q) \
            == (True, True)

    def test_double_section_branch(self, ctx4):
        found = cn.contained_double_secant(ctx4, Stream(109, "ds"), count=1)
        pt_p, pt_q, net, cone = found[0]
        assert cn.secant_criterion(ctx4, net, cone, pt_p, pt_q) \
            == (True, True)
        # the engineered net really holds a section double-vanishing at both
        section = cn.double_vanishing_section(ctx4, pt_p, pt_q)
        assert section is not None
        assert alg.rank(np.concatenate([net.w, section[None, :]]), P) == 3


class TestTangentSpace:
    def test_gradient_annihilates_tangent_line(self, ctx4, net4, cone4):
        pt = ctx4.panel[5]
        td = ctx4.tangent(pt)
        grad = np.array([mono.form_eval_one(
            mono.partial(cone4.coeffs, var, 4, 4, P), pt, 4, 3, P)
            for var in range(4)], dtype=np.int64)
        assert grad.any()
        assert int(grad @ td.point % P) == 0
        assert int(grad @ td.direction % P) == 0
