"""Negative controls: a criterion fails on a planted fault.

Each control plants one fault at genus 4 with the reduced config of
criterion 13 and asserts the FAIL (or the named exception), next to the
same criterion passing on the sound inputs.  Criteria without a control
here are listed with their blind spots in the README's criteria table.
"""

import copy

import numpy as np
import pytest

from curvecones import acceptance as acc
from curvecones import algebra as alg, canring, cone as cn, curve as cv
from curvecones import monomials as mono, net as nt, spanlab as sl
from curvecones.errors import VerificationFailed
from curvecones.rng import Stream

CFG = acc.reduced_config(0)


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


class TestCriterion3:
    def test_sound(self, ctx4, inputs):
        result = acc.criterion_gamma(ctx4, inputs.cones[0].net)
        assert result.ok and result.details["holdout_zero"] is True

    def test_image_equation_off_the_holdout_fails(self, ctx4, off_image_net):
        result = acc.criterion_gamma(ctx4, off_image_net)
        assert not result.ok, result.line()
        assert result.details == {"degree": 6, "holdout_zero": False}


class TestCriterion5:
    def test_sound_cone_vanishes_on_every_point(self, ctx4, inputs):
        total = sum(cv.panel_sizes(4))
        assert total == 210
        certs = cn.verify_cones(ctx4, inputs.cones[:1],
                                [Stream(9, "negative-controls")],
                                oracle_points=CFG.oracle_points)
        assert certs[0]["points_vanished"] == 210
        assert certs[0]["contains_curve"] is True
        assert ctx4.zeros_on_curve(inputs.cones[0].coeffs, 4) == 210

    def test_double_quadric_counts_its_zeros(self, ctx4):
        net_obj = cn.degenerate_net(ctx4, Stream(10, "negative-controls"))
        cert = cn.double_quadric_quartic(ctx4, net_obj).certificate
        assert cert["points_vanished"] == 210 and cert["contains_curve"]

    def test_missed_point_is_counted(self, off_holdout, inputs):
        coeffs = inputs.cones[0].coeffs
        assert off_holdout.zeros_on_curve(coeffs, 4) == 209
        assert off_holdout.zeros_on_curve(np.stack([coeffs] * 2),
                                          4).tolist() == [209, 209]
        assert not off_holdout.vanishes_on_curve(coeffs, 4)
        with pytest.raises(VerificationFailed,
                           match="'points_vanished': 209, "
                                 "'contains_curve': False"):
            acc.criterion_reconstruction(off_holdout, CFG,
                                         inputs.cones[:1])


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


class TestCriterion9:
    def test_sound(self, ctx4, inputs):
        result = acc.criterion_node_count(ctx4, CFG, inputs.cones[0].net)
        assert result.ok and result.details["nodes"] == 6

    def test_perturbed_image_equation_fails(self, ctx4, off_image_net):
        # a perturbed sextic is smooth: it has no nodes to count
        result = acc.criterion_node_count(ctx4, CFG, off_image_net)
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


class TestCriterion11:
    def test_sound(self, ctx4, inputs):
        result = acc.criterion_spans(ctx4, CFG, inputs.f4)
        assert result.ok
        assert result.details["f4_rank"] == acc.F4_RANKS[4] == 5

    def test_quartic_outside_the_span_fails(self, ctx4, inputs):
        rows = inputs.f4.rows
        extra = Stream(11, "negative-controls").field_vec(ctx4.p,
                                                          rows.shape[1])
        assert not inputs.f4.span.contains(extra)
        f4 = sl.SpanAccumulator(4, alg.RowSpace(np.vstack([rows, extra]),
                                                ctx4.p))
        result = acc.criterion_spans(ctx4, CFG, f4)
        assert not result.ok, result.line()
        assert result.details["f4_rank"] == 6

    def test_span_short_of_a_row_fails(self, ctx4, inputs):
        f4 = sl.SpanAccumulator(4, alg.RowSpace(inputs.f4.rows[:-1], ctx4.p))
        result = acc.criterion_spans(ctx4, CFG, f4)
        assert not result.ok, result.line()
        assert result.details["f4_rank"] == 4


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
