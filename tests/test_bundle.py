"""Fiber quadrics, Hessian/Steinerian, node counting."""

import copy
import hashlib

import numpy as np
import pytest

from curvecones import acceptance as acc, algebra as alg, bundle as bd
from curvecones import cone as cn
from curvecones import monomials as mono, net as nt
from curvecones.curve import quadric_gram
from curvecones.errors import (CurveConesError, DegenerateInput,
                               RankDeficientW, SplittingViolation,
                               VerificationFailed)
from curvecones.rng import Stream

import reference
from reference import divide_by_vertex_square, stream_draws

P = 1000003


@pytest.fixture(scope="module")
def setup4(ctx4):
    net = nt.random_net(ctx4, Stream(200, "bundle"))
    cone = cn.reconstruct_quartic(ctx4, net, oracle_points=4)
    return net, cone


@pytest.fixture(scope="module")
def setup5(ctx5):
    net = nt.random_net(ctx5, Stream(207, "bundle"))
    cone = cn.reconstruct_quartic(ctx5, net, oracle_points=4)
    return net, cone


class TestFiberQuadric:
    def test_dimensions_and_discriminant_on_image(self, ctx4, setup4):
        net, cone = setup4
        u = net.w @ ctx4.panel[0] % P
        fq, = bd.fiber_quadric(ctx4, net, cone, u[None])
        assert fq.gram.shape == (2, 2)
        assert reference.det(fq.gram, P) == 0

    def test_nonsingular_off_image(self, ctx4, setup4):
        net, cone = setup4
        gamma = nt.gamma_equation(ctx4, net)
        stream = Stream(201, "u")
        us = []
        while len(us) < 15:
            u = stream.field_vec(P, 3)
            if u.any() and mono.form_eval_one(gamma.coeffs, u, 3,
                                              gamma.degree, P) != 0:
                us.append(u)
        for fq in bd.fiber_quadric(ctx4, net, cone, us):
            assert reference.det(fq.gram, P) != 0

    def test_splitting_violation_on_corrupted_form(self, ctx4, setup4):
        net, cone = setup4
        bad = cn.QuarticCone(net=net, coeffs=(cone.coeffs.copy()))
        bad.coeffs[0] = (bad.coeffs[0] + 1) % P  # breaks vertex singularity
        u = np.array([1, 2, 3], dtype=np.int64)
        assert isinstance(bd.fiber_quadric(ctx4, net, bad, u[None])[0],
                          SplittingViolation)

    @pytest.mark.parametrize("m", [2, 3])   # genus 4 and 5
    def test_square_divisible_monomials_lead(self, m):
        # dividing the monomials of z0 degree >= 2 by z0^2 lists
        # exponents(m, 2) in order, and they come first
        quartics = mono.exponents(m, 4)
        quotients = [(e[0] - 2,) + e[1:] for e in quartics if e[0] >= 2]
        assert quotients == list(mono.exponents(m, 2))
        assert all(e[0] >= 2 for e in quartics[:len(quotients)])

    @pytest.mark.parametrize("genus", [4, 5])
    def test_matches_per_monomial_division(self, genus, request):
        ctx = request.getfixturevalue(f"ctx{genus}")
        net, cone = request.getfixturevalue(f"setup{genus}")
        m = genus - 2
        stream = Stream(209, "u")
        us = [net.w @ ctx.panel[0] % P] \
            + [stream.field_vec(P, 3) for _ in range(4)]
        for fq in bd.fiber_quadric(ctx, net, cone, us):
            restricted = mono.restrict(cone.coeffs, 4, genus, fq.basis, P)
            want = quadric_gram(divide_by_vertex_square(restricted, m), m, P)
            assert fq.gram.tolist() == want.tolist()
        # the fiber basis does not depend on the form, so a corrupted form
        # restricts along the same basis in both
        bad = cone.coeffs.copy()
        bad[0] = (bad[0] + 1) % P
        assert isinstance(bd.fiber_quadric(
            ctx, net, cn.QuarticCone(net=net, coeffs=bad), us[1:2])[0],
            SplittingViolation)
        with pytest.raises(SplittingViolation):
            divide_by_vertex_square(
                mono.restrict(bad, 4, genus, fq.basis, P), m)


class TestBundleIdentity:
    """The reconstruction's fibers (`cone.split_fibers`) and the Hessian
    scan's (`bundle.fiber_quadric`) are one quadric bundle: over each plane
    point both build the same adapted basis, and the inverse cup-product
    Gram of the one is proportional to the Gram that the other reads off
    the reconstructed cone."""

    @pytest.mark.parametrize("name", ["ctx4", "ctx5", "ctx4_max",
                                      "ctx5_max"])
    def test_cup_gram_is_the_cone_quadric(self, name, request):
        ctx = request.getfixturevalue(name)
        p = ctx.p
        net = nt.random_net(ctx, Stream(215, name))
        cone = cn.reconstruct_quartic(ctx, net, oracle_points=4)
        stream = Stream(216, name)
        us = np.stack([stream.field_vec(p, 3) for _ in range(8)])
        pairs = [(split, read) for split, read in zip(
            cn.split_fibers(ctx, net, us), bd.fiber_quadric(ctx, net, cone,
                                                            us))
            if not isinstance(split, CurveConesError)]
        assert len(pairs) >= 6
        for split, read in pairs:
            assert split.basis.tolist() == read.basis.tolist()
            assert reference.normalize(split.gram.reshape(-1), p).tolist() \
                == reference.normalize(read.gram.reshape(-1), p).tolist()


@pytest.fixture(scope="module")
def setup4_max(ctx4_max):
    net = nt.random_net(ctx4_max, Stream(212, "bundle"))
    cone = cn.reconstruct_quartic(ctx4_max, net, oracle_points=4)
    return net, cone


def fiber_values(fibers):
    return [(type(f), str(f)) if isinstance(f, CurveConesError)
            else (f.u.tolist(), f.gram.tolist(), f.basis.tolist())
            for f in fibers]


def reference_fibers(ctx, net, cone, us):
    out = []
    for u in us:
        try:
            fq = reference.fiber_quadric(ctx, net, cone, u)
        except CurveConesError as exc:
            out.append((type(exc), str(exc)))
            continue
        out.append(tuple(a.tolist() for a in fq))
    return out


class TestStackedFibers:
    """The stacked fibers, their determinants and Steinerian matches
    against the one-point chain, point by point."""

    @pytest.mark.parametrize("name", ["4", "5", "4_max"])
    def test_against_one_point_chain(self, name, request):
        ctx = request.getfixturevalue(f"ctx{name}")
        net, cone = request.getfixturevalue(f"setup{name}")
        p = ctx.p
        stream = Stream(210, f"stack{name}")
        pts = ctx.panel[:6]
        us = np.concatenate([pts @ net.w.T % p, stream.field_mat(p, 4, 3),
                             np.zeros((1, 3), dtype=np.int64)])
        bad = cone.coeffs.copy()
        bad[0] = (bad[0] + 1) % p
        for form in (cone, cn.QuarticCone(net=net, coeffs=bad)):
            want = reference_fibers(ctx, net, form, us)
            assert fiber_values(bd.fiber_quadric(ctx, net, form, us)) == want
            assert [fiber_values(bd.fiber_quadric(ctx, net, form, u[None]))[0]
                    for u in us] == want
        assert want[-1] == (RankDeficientW, "plane point cannot be zero")
        assert {w[0] for w in want} == {SplittingViolation, RankDeficientW}
        fibers = bd.fiber_quadric(ctx, net, cone, us)[:-1]
        grams = np.stack([fq.gram for fq in fibers])
        dets = alg.det_batch(grams, p).tolist()
        assert dets == [reference.det(gram, p) for gram in grams]
        assert dets[:6] == [0] * 6 and 0 not in dets[6:]
        for shift in range(3):
            others = np.roll(pts, shift, axis=0)
            got = bd.steinerian_check(fibers[:6], others, p).tolist()
            assert got == [reference.steinerian_check(fq.gram, fq.basis, pt,
                                                      p)
                           for fq, pt in zip(fibers, others)]
            assert (sum(got) >= 5) == (shift == 0)
        assert bd.fiber_quadric(ctx, net, cone, np.zeros((0, 3))) == []


class TestScanRounds:
    """`hessian_scan` splits its fibers in rounds and makes exactly the
    draws and rows of the scan that splits one fiber at a time."""

    @pytest.mark.parametrize("every", [2, 3, 10 ** 9])
    def test_rows_and_draws_match(self, ctx4, setup4, monkeypatch, every):
        net, cone = setup4

        def planted(u):
            return int(np.sum(np.asarray(u) % P)) % every == 0

        def one(u):
            if planted(u):
                raise RankDeficientW("planted")
            return reference.fiber_quadric(ctx4, net, cone, u)

        real = bd.fiber_quadric
        rounds = []

        def fiber_quadric(ctx, net_obj, form, us):
            us = np.asarray(us, dtype=np.int64).reshape(-1, 3)
            rounds.append(len(us))
            return [RankDeficientW("planted") if planted(u) else fq
                    for u, fq in zip(us, real(ctx, net_obj, form, us))]

        tag = f"rounds{every}"
        want, want_draws = stream_draws(monkeypatch, lambda: reference
                                        .hessian_scan(ctx4, net, cone, 30,
                                                      30, Stream(211, tag),
                                                      one))
        monkeypatch.setattr(bd, "fiber_quadric", fiber_quadric)
        scan, got_draws = stream_draws(monkeypatch, lambda: bd.hessian_scan(
            ctx4, net, cone, 30, 30, Stream(211, tag)))
        assert [(r[0].tolist(),) + r[1:] for r in scan["rows"]] == want
        assert got_draws == want_draws == {tag: got_draws[tag]}
        assert len(want) == 60
        assert (len(rounds) > 2) == (every < 10 ** 9)


class TestHessianScan:
    """Off the plane image only a degenerate plane point is skipped; a
    failed splitting certificate ends the scan."""

    @staticmethod
    def scan_with(monkeypatch, ctx4, setup4, exc):
        def failing(ctx, net_obj, cone, us):
            return [exc("injected") for _ in us]
        monkeypatch.setattr(bd, "fiber_quadric", failing)
        net, cone = setup4
        return bd.hessian_scan(ctx4, net, cone, 0, 5, Stream(204, "u"))

    def test_splitting_violation_propagates(self, ctx4, setup4, monkeypatch):
        with pytest.raises(SplittingViolation):
            self.scan_with(monkeypatch, ctx4, setup4, SplittingViolation)

    def test_rank_deficient_point_skipped(self, ctx4, setup4, monkeypatch):
        scan = self.scan_with(monkeypatch, ctx4, setup4, RankDeficientW)
        assert scan["off_checked"] == 0 and scan["rows"] == []

    def test_shared_image_skipped(self, ctx4, setup4):
        # a panel point listed twice shares its image, a smooth point of
        # the plane curve, with itself: the gradient test alone passes it
        net, cone = setup4
        twice = copy.copy(ctx4)
        twice.panel = np.concatenate([ctx4.panel[:1], ctx4.panel[:4]])
        scan = bd.hessian_scan(twice, net, cone, 3, 0, Stream(204, "u"))
        assert [r[0].tolist() for r in scan["rows"]] == [
            reference.normalize(net.w @ pt % P, P).tolist()
            for pt in ctx4.panel[1:4]]
        # so the five panel points give three fibers and no more
        with pytest.raises(DegenerateInput, match="on-image fibers: no "
                           "usable draw in 5 attempts"):
            bd.hessian_scan(twice, net, cone, 4, 0, Stream(204, "u"))


class TestSteinerian:
    def test_kernel_is_curve_point(self, ctx4, setup4):
        # the singular point of the fiber over a panel point's image is that
        # panel point and no other
        net, cone = setup4
        pts = ctx4.panel[:12]
        fibers = bd.fiber_quadric(ctx4, net, cone, pts @ net.w.T % P)
        matches = [bd.steinerian_check(fibers, np.roll(pts, -k, axis=0), P)
                   for k in range(len(pts))]
        assert matches[0].sum() >= 10
        assert not any(m.any() for m in matches[1:])
        # a nonsingular fiber has no singular point to match
        u = np.array([1, 2, 3], dtype=np.int64)
        off = bd.fiber_quadric(ctx4, net, cone, u[None])
        assert reference.det(off[0].gram, P) != 0
        assert not bd.steinerian_check(off, pts[:1], P)[0]

    def test_node_fiber_on_vertex_secant(self, ctx4):
        # a secant through the vertex maps both ends to one plane point,
        # which is then a node of the image curve: a full scan of the panel
        # emits a row for every panel point but these two
        pt_p, pt_q, net = cn.secant_through_vertex(ctx4, Stream(202, "sv"))
        cone = cn.reconstruct_quartic(ctx4, net, oracle_points=4)
        n = len(ctx4.panel)
        scan = bd.hessian_scan(ctx4, net, cone, n - 2, 0, Stream(202, "u"))
        node = reference.normalize(net.w @ pt_p % P, P).tolist()
        assert reference.normalize(net.w @ pt_q % P, P).tolist() == node
        assert node not in [r[0].tolist() for r in scan["rows"]]
        assert scan["on_checked"] == n - 2
        assert scan["kernel_matches"] == n - 2
        with pytest.raises(DegenerateInput, match="on-image fibers"):
            bd.hessian_scan(ctx4, net, cone, n - 1, 0, Stream(202, "u"))


def plane_form(terms, degree, p):
    """A ternary form from {exponent: coefficient}."""
    idx = mono.index_map(3, degree)
    out = np.zeros(mono.count(3, degree), dtype=np.int64)
    for e, c in terms.items():
        out[idx[e]] = c % p
    return out


def lines_curve(count, p):
    """The product of `count` random lines."""
    stream = Stream(210, f"lines{count}")
    coeffs = stream.field_vec(p, 3)
    for degree in range(1, count):
        coeffs = mono.mul_forms(coeffs, degree, stream.field_vec(p, 3), 1, 3,
                                p)
    return nt.PlaneCurve(count, coeffs)


class TestNodeCount:
    def test_counts_match_secant_formula(self, ctx4, ctx5):
        for ctx, expected in ((ctx4, 6), (ctx5, 16)):
            net = nt.random_net(ctx, Stream(203, f"nc{ctx.g}"))
            gamma = nt.gamma_equation(ctx, net)
            assert bd.node_count(gamma, P) == expected

    @pytest.mark.parametrize("context", ["ctx4", "ctx4_max", "ctx5",
                                         "ctx5_max"])
    def test_matches_the_resultant_count(self, request, context):
        # 12 random nets per genus and prime: the Hilbert-function count,
        # the frame-and-resultant walk of tests/reference.py and the
        # secant-line formula agree
        ctx = request.getfixturevalue(context)
        for k in range(12):
            net = nt.random_net(ctx, Stream(209, f"{context}|{k}"))
            gamma = nt.gamma_equation(ctx, net)
            assert bd.node_count(gamma, ctx.p) \
                == reference.node_count(gamma, ctx.p) == acc.node_count(ctx.g)

    def test_perturbed_image_has_no_singular_point(self, ctx4):
        net = nt.random_net(ctx4, Stream(203, "nc4"))
        gamma = nt.gamma_equation(ctx4, net)
        coeffs = gamma.coeffs.copy()
        coeffs[0] = (coeffs[0] + 1) % P
        smooth = nt.PlaneCurve(gamma.degree, coeffs)
        assert bd.node_count(smooth, P) == reference.node_count(smooth, P) \
            == 0

    @pytest.mark.parametrize("count, nodes", [(6, 15), (8, 28)])
    def test_general_lines(self, count, nodes, monkeypatch):
        # H(2D) is above 2D - 1, so d steps to H(2D), where H has settled:
        # three ranks in all
        degrees = {6: [12, 16, 15], 8: [16, 29, 28]}[count]
        curve = lines_curve(count, P)
        read = []
        multiples = mono.multiples

        def record(forms, e, d, g, p):
            read.append(d)
            return multiples(forms, e, d, g, p)

        monkeypatch.setattr(mono, "multiples", record)
        assert bd.node_count(curve, P) == nodes
        assert read == degrees

    def test_cusp_counts_two(self):
        # y^2 z = x^3 + x^2 z has a node at (0:0:1), y^2 z = x^3 a cusp
        nodal = plane_form({(0, 2, 1): 1, (3, 0, 0): -1, (2, 0, 1): -1}, 3, P)
        cuspidal = plane_form({(0, 2, 1): 1, (3, 0, 0): -1}, 3, P)
        assert bd.node_count(nt.PlaneCurve(3, nodal), P) == 1
        assert bd.node_count(nt.PlaneCurve(3, cuspidal), P) == 2

    def test_multiple_component_reaches_the_cap(self):
        # a squared cubic is singular along the cubic: H(d) grows by 3 a
        # degree, and the count gives up after (D - 1)^2 = 25
        cubic = Stream(211, "cubic").field_vec(P, mono.count(3, 3))
        squared = nt.PlaneCurve(6, mono.mul_forms(cubic, 3, cubic, 3, 3, P))
        with pytest.raises(VerificationFailed, match="degrees 11 to 26"):
            bd.node_count(squared, P)

    def test_hilbert_degrees_read(self, ctx4, ctx5, monkeypatch):
        # H(d + 1) is read first: at genus 4, H(12) = 6 <= 11 and then
        # H(11) = 6 stop at d = 11; at genus 5, H(16) = 16 > 15 skips
        # d = 15, and H(17) = 16 stops at d = 16
        read = []
        multiples = mono.multiples

        def record(forms, e, d, g, p):
            read.append(d)
            return multiples(forms, e, d, g, p)

        monkeypatch.setattr(mono, "multiples", record)
        for ctx, degrees in ((ctx4, [12, 11]), (ctx5, [16, 17])):
            net = nt.random_net(ctx, Stream(203, f"nc{ctx.g}"))
            gamma = nt.gamma_equation(ctx, net)
            read.clear()
            bd.node_count(gamma, P)
            assert read == degrees
            for d in degrees:
                rows = multiples(mono.gradient(gamma.coeffs, 3, gamma.degree,
                                               P), gamma.degree - 1, d, 3, P)
                _, pivots = reference.rref(rows.reshape(-1, mono.count(3, d)),
                                           P)
                assert mono.count(3, d) - len(pivots) == acc.node_count(ctx.g)

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

    def test_rows_are_pinned(self, ctx4, setup4, ctx5, setup5):
        for ctx, (net, cone), counts, seed in ((ctx4, setup4, 5, 205),
                                               (ctx5, setup5, 3, 208)):
            scan = bd.hessian_scan(ctx, net, cone, counts, counts,
                                   Stream(seed, "s"))
            csv = bd.scan_rows_to_csv(scan["rows"])
            assert hashlib.sha256(csv.encode()).hexdigest() \
                == SCAN_DIGESTS[ctx.g]


# sha256 of scan_rows_to_csv for the two scans of
# TestScan.test_rows_are_pinned, recorded when each on-image fiber was split
# twice and the panel was projected again for every on-image point
SCAN_DIGESTS = {
    4: "f76fc26d643d6fadb798b6f5f5c1d3e5a7118d27b0c07ee175406f4f863a9eb1",
    5: "ee3539f8beb0658fbcf3ca51b4eba0b4f1a7e2782371297e1731f642cbc0115a",
}
