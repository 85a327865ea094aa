"""Negative controls: a criterion fails on a planted fault.

Each control plants one fault at genus 4 with the reduced config of
criterion 13, or at genus 5 where the fault needs a span of more than one
quadric product, and asserts the FAIL (or the named exception), next to
the same criterion passing on the sound inputs.  Criteria without a control
here are listed with their blind spots in the README's criteria table.
"""

import copy
import dataclasses
import itertools

import numpy as np
import pytest

from curvecones import acceptance as acc
from curvecones import algebra as alg, canring, cone as cn, curve as cv
from curvecones import fibers as fb
from curvecones import monomials as mono, net as nt, pencil as pc
from curvecones import spanlab as sl
from curvecones.errors import (DegenerateInput, SplittingViolation,
                               VerificationFailed)
from curvecones.rng import Stream

CFG = acc.preset("reduced", 0)


@pytest.fixture(scope="module")
def inputs(ctx4):
    return acc.SuiteInputs(ctx4, CFG)


@pytest.fixture(scope="module")
def off_holdout(ctx4):
    """ctx4 with its first holdout point moved off the curve."""
    stray = Stream(7, "negative-controls").field_vec(ctx4.p, ctx4.g)
    assert any(mono.form_eval_one(c, stray, ctx4.g, d, ctx4.p)
               for d, c in ctx4.curve.generator_arrays())
    holdout = np.concatenate([stray[None], ctx4.holdout[1:]])
    return canring.CurveContext(ctx4.curve,
                                list(np.concatenate([ctx4.panel, holdout])))


def perturbed(cone, p):
    """The cone with 1 added to its first coefficient."""
    coeffs = cone.coeffs.copy()
    coeffs[0] = (coeffs[0] + 1) % p
    return cn.QuarticCone(net=cone.net, coeffs=coeffs)


@pytest.fixture(scope="module")
def off_image_net(ctx4, inputs):
    """A copy of the first cone's net whose cached plane image equation
    has 1 added to its first coefficient."""
    net_obj = copy.copy(inputs.cones[0].net)
    gamma = nt.gamma_equation(ctx4, net_obj)
    coeffs = gamma.coeffs.copy()
    coeffs[0] = (coeffs[0] + 1) % ctx4.p
    net_obj.gamma = nt.PlaneCurve(degree=gamma.degree, coeffs=coeffs)
    return net_obj


class TestCriterion1:
    def test_sound(self, ctx4):
        result = acc.criterion_ideal_dims(ctx4)
        assert result.ok and result.details["holdout_confirmed"]

    def test_holdout_fault_is_not_confirmed(self, off_holdout):
        result = acc.criterion_ideal_dims(off_holdout)
        assert not result.ok
        assert result.details["holdout_confirmed"] is False
        assert [result.details[f"dim_I{n}"] for n in (2, 3, 4)] == [1, 5, 14]

    def test_main_panel_fault_leaves_holdout_confirmed(self, ctx4):
        # an extra cubic in the main panel's I(3): the holdout piece still
        # has the right dimension and lies in the main span
        faulty = copy.copy(ctx4)
        extra = Stream(8, "negative-controls").field_vec(ctx4.p, 20)
        real = ctx4.ideal

        def ideal(n):
            piece = real(n)
            if n != 3:
                return piece
            return canring.IdealPiece(n=3, dim=piece.dim + 1,
                                      basis=np.vstack([piece.basis, extra]))

        faulty.ideal = ideal
        result = acc.criterion_ideal_dims(faulty)
        assert not result.ok
        assert result.details["holdout_confirmed"] is True
        assert result.details["dim_I3"] == 6


class TestCriterion2:
    def test_sound(self, ctx4):
        result = acc.criterion_petri(ctx4)
        assert result.ok and result.details["surjective"] is False

    def test_flipped_petri_value_fails(self, ctx4, monkeypatch):
        real = canring.CurveContext.petri_check
        monkeypatch.setattr(canring.CurveContext, "petri_check",
                            lambda self: not real(self))
        result = acc.criterion_petri(ctx4)
        assert not result.ok, result.line()
        assert result.details["surjective"] is True

    def test_model_not_trigonal_fails(self, ctx4, monkeypatch):
        monkeypatch.setitem(cv.MODELS, 4, dataclasses.replace(
            cv.MODELS[4], trigonal=False))
        result = acc.criterion_petri(ctx4)
        assert not result.ok, result.line()
        assert result.details == {"surjective": False, "expected": True}


class TestCriterion3:
    def test_sound(self, ctx4, inputs):
        result = acc.criterion_gamma(ctx4, inputs.cones[0].net)
        assert result.ok and result.details["holdout_zero"] is True

    def test_image_equation_off_the_holdout_fails(self, ctx4, off_image_net):
        result = acc.criterion_gamma(ctx4, off_image_net)
        assert not result.ok, result.line()
        assert result.details == {"degree": 6, "holdout_zero": False}


class TestCriterion4:
    def test_sound(self, ctx4):
        result = acc.criterion_corank_law(ctx4, CFG)
        assert result.ok and result.details["disagreements"] == 0

    def test_corank_stuck_at_three_fails(self, ctx4, monkeypatch):
        # corank 3 is the law on the engineered net only: each of the
        # random nets, off the degeneracy divisor, disagrees
        monkeypatch.setattr(pc, "corank", lambda m, p: 3)
        result = acc.criterion_corank_law(ctx4, CFG)
        assert not result.ok, result.line()
        assert result.details["disagreements"] == CFG.corank_samples == 6


class TestCriterion5:
    def test_sound_cone_vanishes_on_every_point(self, ctx4, inputs):
        total = sum(cv.panel_sizes(4))
        assert total == 210
        cert = inputs.cones[0].certificate
        assert cert["points_vanished"] == 210
        assert cert["contains_curve"] is True
        assert cert["oracle_points"] >= CFG.oracle_points
        assert ctx4.zeros_on_curve(inputs.cones[0].coeffs, 4) == 210

    def test_double_quadric_counts_its_zeros(self, ctx4):
        net_obj = cn.degenerate_net(ctx4, Stream(10, "negative-controls"))
        cert = cn.double_quadric_quartic(ctx4, net_obj).certificate
        assert cert["points_vanished"] == 210 and cert["contains_curve"]

    def test_missed_point_is_counted(self, off_holdout, inputs):
        # the fault is planted before reconstruction, which certifies
        # each cone where it makes it
        coeffs = inputs.cones[0].coeffs
        assert off_holdout.zeros_on_curve(coeffs, 4) == 209
        assert off_holdout.zeros_on_curve(np.stack([coeffs] * 2),
                                          4).tolist() == [209, 209]
        assert not off_holdout.vanishes_on_curve(coeffs, 4)
        with pytest.raises(VerificationFailed,
                           match="'points_vanished': 209, "
                                 "'contains_curve': False"):
            acc.SuiteInputs(off_holdout, CFG).cones

    def test_holdout_pencil_refuses_a_wrong_quartic(self, ctx4, inputs):
        # the holdout certificate (`fibers.form_matches_split`) of a cone
        # on a fiber, and of two faults: an ideal quartic not singular
        # along the vertex added (its restriction keeps monomials off
        # y0^2), and another form of the constrained space added (y0^2
        # divides it, but by the wrong quadric)
        p = ctx4.p
        cone = inputs.cones[0]
        fiber = cn.split_fiber(ctx4, cone.net, np.array([1, 2, 3]))
        stream = Stream(13, "negative-controls")
        space = cn.constrained_space(ctx4, cone.net, 4)
        assert space.shape[0] > 1
        off_vertex = stream.field_vec(p, ctx4.ideal(4).dim) \
            @ ctx4.ideal(4).basis % p
        in_space = stream.field_vec(p, space.shape[0]) @ space % p
        assert cn.form_matches_split(ctx4, cone.coeffs, fiber)
        for fault, divisible in ((off_vertex, False), (in_space, True)):
            coeffs = (cone.coeffs + fault) % p
            _, rest = fb.on_fibers(coeffs, ctx4.g, fiber.basis[None], p)
            assert (not rest.any()) == divisible
            assert not cn.form_matches_split(ctx4, coeffs, fiber)

    def test_too_few_cones_fail(self, ctx4, inputs):
        # the one check the criterion makes itself: each cone it is given
        # was certified (or raised) where it was reconstructed
        assert acc.criterion_reconstruction(ctx4, CFG, inputs.cones).ok
        result = acc.criterion_reconstruction(ctx4, CFG, inputs.cones[:1])
        assert not result.ok, result.line()
        assert result.details["reconstructions"] == 1


class TestCriterion6:
    def test_sound(self, ctx4):
        result = acc.criterion_double_quadric(ctx4, CFG)
        assert result.ok and result.details["engineered"] == 1

    def test_quartic_off_the_square_fails(self, ctx4, monkeypatch):
        real = cn.double_quadric_quartic
        monkeypatch.setattr(cn, "double_quadric_quartic",
                            lambda ctx, net_obj: perturbed(
                                real(ctx, net_obj), ctx.p))
        result = acc.criterion_double_quadric(ctx4, CFG)
        assert not result.ok, result.line()


class TestCriterion7:
    def test_sound(self, ctx4, inputs):
        result = acc.criterion_polars(ctx4, CFG, inputs.cones[:1])
        assert result.ok and result.details["oracle_disagreements"] == 0

    def test_cone_off_the_curve_fails(self, ctx4, inputs):
        cone = perturbed(inputs.cones[0], ctx4.p)
        result = acc.criterion_polars(ctx4, CFG, [cone])
        assert not result.ok, result.line()
        assert result.details["oracle_disagreements"] == 3


class TestCriterion8:
    def test_sound(self, ctx4, inputs):
        result = acc.criterion_hessian(ctx4, CFG, inputs.cones[0])
        assert result.ok
        assert result.details["kernel_matches"] == CFG.fibers_on

    def test_cone_off_the_curve_fails(self, ctx4, inputs):
        cone = perturbed(inputs.cones[0], ctx4.p)
        with pytest.raises(SplittingViolation, match="not divisible"):
            acc.criterion_hessian(ctx4, CFG, cone)


class TestCriterion9:
    def test_sound(self, ctx4, inputs):
        result = acc.criterion_node_count(ctx4, inputs.cones[0].net)
        assert result.ok and result.details["nodes"] == 6

    def test_perturbed_image_equation_fails(self, ctx4, off_image_net):
        # a perturbed sextic is smooth: it has no nodes to count
        result = acc.criterion_node_count(ctx4, off_image_net)
        assert not result.ok, result.line()
        assert result.details["nodes"] == 0


class TestCriterion10:
    def test_sound(self, ctx4, inputs):
        assert acc.criterion_secant(ctx4, CFG, inputs.cones[0]).ok

    def test_cone_off_the_curve_fails(self, ctx4, inputs):
        cone = perturbed(inputs.cones[0], ctx4.p)
        assert not ctx4.vanishes_on_curve(cone.coeffs, 4)
        result = acc.criterion_secant(ctx4, CFG, cone)
        assert not result.ok, result.line()

    def test_sweep_below_the_measured_degree_finds_no_roots(
            self, ctx4, monkeypatch):
        """A family sweep fitted one degree below the model's
        `sweep_degree` fails its holdout where the measured degree finds
        the roots, so the double-section branch would find no secant."""
        real = cn._family_roots
        swept = []

        def record(ctx, family, b0):
            roots = real(ctx, family, b0)
            swept.append((family, b0, roots))
            return roots

        monkeypatch.setattr(cn, "_family_roots", record)
        cn.contained_double_secant(ctx4, Stream(0, "sized fit"), count=1)
        family, b0, _ = next(s for s in swept if s[2])
        monkeypatch.setitem(cv.MODELS, 4, dataclasses.replace(
            cv.MODELS[4], sweep_degree=cv.MODELS[4].sweep_degree - 1))
        assert real(ctx4, family, b0) == []

    def test_wrong_meeting_cubic_finds_no_pair(self, ctx4, monkeypatch):
        """With the tangent-meets-tangent cubic built from a random vector
        in place of the tangent direction, its zeros on the ruling sweep
        are curve points whose tangent line misses that of p: the exact
        `double_vanishing_section` refuses every one, and `bitangent_pair`
        raises after its 24 draws where the sound cubic finds a pair."""
        stream = Stream(0, "meeting cubic")
        assert cn.bitangent_pair(ctx4, stream) is not None
        real_cubic = cn.tangent_meet_cubic
        real_section = cn.double_vanishing_section
        wrong = Stream(12, "negative-controls")
        sections = []

        def wrong_cubic(curve, td):
            return real_cubic(curve, cv.TangentData(
                td.point, wrong.field_vec(ctx4.p, ctx4.g)))

        def double_vanishing_section(ctx, pt_p, pt_q):
            sections.append(real_section(ctx, pt_p, pt_q))
            return sections[-1]

        monkeypatch.setattr(cn, "tangent_meet_cubic", wrong_cubic)
        monkeypatch.setattr(cn, "double_vanishing_section",
                            double_vanishing_section)
        with pytest.raises(DegenerateInput,
                           match="bitangent pair: no usable draw in 24"):
            cn.bitangent_pair(ctx4, Stream(0, "meeting cubic"))
        assert sections and all(s is None for s in sections)


class TestCriterion11:
    def test_sound(self, ctx4, inputs):
        result = acc.criterion_spans(ctx4, inputs.f4)
        assert result.ok
        assert result.details["f4_rank"] == cv.MODELS[4].f4_rank == 5

    def test_rank_above_the_measured_one_fails(self, ctx4, inputs,
                                               monkeypatch):
        monkeypatch.setitem(cv.MODELS, 4, dataclasses.replace(
            cv.MODELS[4], f4_rank=6))
        result = acc.criterion_spans(ctx4, inputs.f4)
        assert not result.ok, result.line()
        assert result.details["f4_rank"] == 5
        assert result.details["expected"] == 6

    def test_quartic_outside_the_span_fails(self, ctx4, inputs):
        rows = inputs.f4.rows
        extra = Stream(11, "negative-controls").field_vec(ctx4.p,
                                                          rows.shape[1])
        assert not inputs.f4.span.contains(extra)
        f4 = sl.SpanAccumulator(4, alg.RowSpace(np.vstack([rows, extra]),
                                                ctx4.p))
        result = acc.criterion_spans(ctx4, f4)
        assert not result.ok, result.line()
        assert result.details["f4_rank"] == 6

    def test_span_short_of_a_row_fails(self, ctx4, inputs):
        f4 = sl.SpanAccumulator(4, alg.RowSpace(inputs.f4.rows[:-1], ctx4.p))
        result = acc.criterion_spans(ctx4, f4)
        assert not result.ok, result.line()
        assert result.details["f4_rank"] == 4

    def test_span_missing_a_quadric_product_fails(self, ctx5):
        # at genus 5 the cones of the quick preset alone reach rank 14 and
        # miss a product of I(2); random ideal quartics top them up to the
        # model's rank, so the squares are the one test left to fail
        cones = acc.SuiteInputs(ctx5, acc.preset("quick", 0)).span_cones
        span = alg.RowSpace(np.stack([c.coeffs for c in cones]), ctx5.p)
        assert len(span.pivots) == 14
        stream = Stream(12, "negative-controls")
        while len(span.pivots) < cv.MODELS[5].f4_rank:
            span.add(stream.combination(ctx5.p, ctx5.ideal(4).basis))
        result = acc.criterion_spans(ctx5, sl.SpanAccumulator(4, span))
        assert not result.ok, result.line()
        assert result.details == {"f4_rank": 16, "expected": 16,
                                  "squares_contained": False,
                                  "proper_subsystem": True}


class TestCriterion12:
    def test_sound(self, ctx4, inputs):
        result = acc.criterion_base_locus(ctx4, CFG, inputs.span_cones,
                                          inputs.f4)
        assert result.ok
        assert result.details["f3_rank_observed"] \
            == canring.ideal_dim(4, 3) == 5

    def test_f3_short_of_the_cubic_ideal_fails(self, ctx4, inputs,
                                               monkeypatch):
        real = sl.accumulate_f3

        def dropped(ctx, cones):
            f3 = real(ctx, cones)
            return sl.SpanAccumulator(3, alg.RowSpace(f3.rows[:-1], ctx.p))

        monkeypatch.setattr(sl, "accumulate_f3", dropped)
        result = acc.criterion_base_locus(ctx4, CFG, inputs.span_cones,
                                          inputs.f4)
        assert not result.ok, result.line()
        assert result.details["f3_rank_observed"] == 4


class TestCriterion13:
    @staticmethod
    def rebuild(ctx):
        """A builder of fresh contexts on the points of ctx."""
        points = list(ctx.points)
        return lambda: canring.CurveContext(ctx.curve, points)

    def test_sound(self, ctx4):
        result = acc.criterion_determinism(self.rebuild(ctx4), CFG)
        assert result.ok and result.details["identical"] is True

    def test_runs_that_differ_fail(self, ctx4, monkeypatch):
        # run_criteria looks criterion 2 up at call time: a call counter
        # in its details makes the second run's report differ
        real = acc.criterion_petri
        calls = itertools.count()

        def counted(ctx):
            result = real(ctx)
            result.details["call"] = next(calls)
            return result

        monkeypatch.setattr(acc, "criterion_petri", counted)
        result = acc.criterion_determinism(self.rebuild(ctx4), CFG)
        assert not result.ok, result.line()
        assert result.details["identical"] is False
