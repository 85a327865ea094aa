"""Fiber quadrics, Hessian/Steinerian, node counting."""

import numpy as np
import pytest
import sympy

from curvecones import algebra as alg, bundle as bd, cone as cn
from curvecones import monomials as mono, net as nt
from curvecones.errors import (NodeFiber, RankDeficientW,
                               SplittingViolation)
from curvecones.rng import Stream

P = 1000003


@pytest.fixture(scope="module")
def setup4(ctx4):
    net = nt.random_net(ctx4, Stream(200, "bundle"))
    cone = cn.reconstruct_quartic(ctx4, net, oracle_points=4)
    return net, cone


class TestFiberQuadric:
    def test_dimensions_and_discriminant_on_image(self, ctx4, setup4):
        net, cone = setup4
        u = net.w @ ctx4.panel[0] % P
        fq = bd.fiber_quadric(ctx4, net, cone, u)
        assert fq.gram.shape == (2, 2)
        assert alg.det(fq.gram, P) == 0

    def test_nonsingular_off_image(self, ctx4, setup4):
        net, cone = setup4
        gamma = nt.gamma_equation(ctx4, net)
        stream = Stream(201, "u")
        checked = 0
        while checked < 15:
            u = stream.field_vec(P, 3)
            if not u.any() or mono.form_eval_one(gamma.coeffs, u, 3,
                                                 gamma.degree, P) == 0:
                continue
            fq = bd.fiber_quadric(ctx4, net, cone, u)
            assert alg.det(fq.gram, P) != 0
            checked += 1

    def test_splitting_violation_on_corrupted_form(self, ctx4, setup4):
        net, cone = setup4
        bad = cn.QuarticCone(net=net, coeffs=(cone.coeffs.copy()))
        bad.coeffs[0] = (bad.coeffs[0] + 1) % P  # breaks vertex singularity
        u = np.array([1, 2, 3], dtype=np.int64)
        with pytest.raises(SplittingViolation):
            bd.fiber_quadric(ctx4, net, bad, u)


class TestHessianScan:
    """Off the plane image only a degenerate plane point is skipped; a
    failed splitting certificate ends the scan."""

    @staticmethod
    def scan_with(monkeypatch, ctx4, setup4, exc):
        def failing(*args, **kwargs):
            raise exc("injected")
        monkeypatch.setattr(bd, "fiber_quadric", failing)
        net, cone = setup4
        return bd.hessian_scan(ctx4, net, cone, 0, 5, Stream(204, "u"))

    def test_splitting_violation_propagates(self, ctx4, setup4, monkeypatch):
        with pytest.raises(SplittingViolation):
            self.scan_with(monkeypatch, ctx4, setup4, SplittingViolation)

    def test_rank_deficient_point_skipped(self, ctx4, setup4, monkeypatch):
        scan = self.scan_with(monkeypatch, ctx4, setup4, RankDeficientW)
        assert scan["off_checked"] == 0 and scan["rows"] == []


class TestSteinerian:
    def test_kernel_is_curve_point(self, ctx4, setup4):
        net, cone = setup4
        ok = 0
        for pt in ctx4.panel[:12]:
            try:
                assert bd.steinerian_check(ctx4, net, cone, pt)
                ok += 1
            except NodeFiber:
                continue
        assert ok >= 10

    def test_node_fiber_on_vertex_secant(self, ctx4):
        # a secant through the vertex maps both ends to one plane point,
        # which is then a node of the image curve
        pt_p, pt_q, net = cn.secant_through_vertex(ctx4, Stream(202, "sv"))
        cone = cn.reconstruct_quartic(ctx4, net, oracle_points=4)
        with pytest.raises(NodeFiber):
            bd.steinerian_check(ctx4, net, cone, pt_p)


class TestNodeCount:
    def test_counts_match_secant_formula(self, ctx4, ctx5):
        for ctx, expected in ((ctx4, 6), (ctx5, 16)):
            net = nt.random_net(ctx, Stream(203, f"nc{ctx.g}"))
            gamma = nt.gamma_equation(ctx, net)
            assert bd.node_count(gamma, P) == expected

    def test_frame_independence(self, ctx4):
        net = nt.random_net(ctx4, Stream(204, "nc"))
        gamma = nt.gamma_equation(ctx4, net)
        assert bd.node_count(gamma, P, seed=0) \
            == bd.node_count(gamma, P, seed=17)

    @pytest.mark.parametrize("p", [P, 33554393])
    @pytest.mark.parametrize("degree", [6, 8])   # Gamma at genus 4 and 5
    def test_partial_charts_are_derivatives_of_the_chart(self, p, degree):
        coeffs = Stream(206, "nc").field_vec(p, mono.count(3, degree))
        x, y = sympy.symbols("x y")
        chart = sum(int(c) * x ** e[0] * y ** e[1] for e, c in
                    zip(mono.exponents(3, degree), coeffs))   # z2 = 1
        refs = (chart, sympy.diff(chart, x), sympy.diff(chart, y))
        for got, ref in zip(bd._chart_with_partials(coeffs, degree, p),
                            refs):
            want = {e: int(c) % p for e, c in sympy.Poly(ref, x, y).terms()
                    if int(c) % p}
            assert {(int(i), int(j)): int(got[i, j])
                    for i, j in zip(*np.nonzero(got))} == want

    def test_arithmetic_genus_bookkeeping(self):
        # (2g-3)(g-2) - g counts nodes of a degree 2g-2 plane curve of
        # geometric genus g, and matches the secant-line formula
        for g in range(4, 10):
            assert (2 * g - 3) * (g - 2) - g == 2 * (g - 1) * (g - 3)


class TestScan:
    def test_csv_shape(self, ctx4, setup4):
        net, cone = setup4
        scan = bd.hessian_scan(ctx4, net, cone, 5, 5, Stream(205, "s"))
        csv = bd.scan_rows_to_csv(scan["rows"])
        lines = csv.strip().split("\n")
        assert lines[0] == "u0,u1,u2,gamma_u,det_gram,kernel_match"
        assert len(lines) == 1 + len(scan["rows"])
