"""Acceptance suite: every criterion at its stated sample sizes.

One line is printed per criterion and genus (run pytest with -s to stream
them); the same checks back the `verify` subcommand of the command line.
"""

import numpy as np
import pytest

from curvecones import acceptance as acc
from curvecones import canring, curve as cv

PRIME = 1000003
CFG = acc.SuiteConfig()


@pytest.fixture(scope="session", params=[4, 5])
def ctx(request):
    return request.getfixturevalue(f"ctx{request.param}")


@pytest.fixture(scope="session")
def inputs(ctx):
    return acc.SuiteInputs(ctx, CFG)


def _check(result, genus):
    print(f"g={genus} " + result.line())
    assert result.ok, result.line()


class TestAcceptance:
    def test_criterion_01_ideal_dimensions(self, ctx):
        _check(acc.criterion_ideal_dims(ctx), ctx.g)

    def test_criterion_02_petri_dichotomy(self, ctx):
        _check(acc.criterion_petri(ctx), ctx.g)

    def test_criterion_03_plane_image_degree(self, ctx, inputs):
        _check(acc.criterion_gamma(ctx, inputs.cones[0].net), ctx.g)

    def test_criterion_04_corank_law(self, ctx):
        _check(acc.criterion_corank_law(ctx, CFG), ctx.g)

    def test_criterion_05_reconstruction_certificate(self, ctx, inputs):
        _check(acc.criterion_reconstruction(ctx, CFG, inputs.cones), ctx.g)

    def test_criterion_06_double_quadric_law(self, ctx):
        _check(acc.criterion_double_quadric(ctx, CFG), ctx.g)

    def test_criterion_07_polar_cubics(self, ctx, inputs):
        _check(acc.criterion_polars(ctx, CFG, inputs.cones), ctx.g)

    def test_criterion_08_hessian_steinerian(self, ctx, inputs):
        _check(acc.criterion_hessian(ctx, CFG, inputs.cones[0]), ctx.g)

    def test_criterion_09_node_count(self, ctx, inputs):
        _check(acc.criterion_node_count(ctx, CFG, inputs.cones[0].net), ctx.g)

    def test_criterion_10_secant_criterion(self, ctx, inputs):
        _check(acc.criterion_secant(ctx, CFG, inputs.cones[0]), ctx.g)

    def test_criterion_11_span_dimensions(self, ctx, inputs):
        _check(acc.criterion_spans(ctx, CFG, inputs.f4), ctx.g)

    def test_criterion_12_base_locus(self, ctx, inputs):
        _check(acc.criterion_base_locus(ctx, CFG, inputs.span_cones,
                                        inputs.f4), ctx.g)

    def test_span_criteria_leave_the_certified_cones(self, ctx, inputs):
        acc.criterion_spans(ctx, CFG, inputs.f4)
        assert len(inputs.cones) == CFG.reconstructions
        assert len(inputs.span_cones) == CFG.span_samples


# criterion number -> the criterion called on the artifacts of a SuiteInputs
ON_INPUTS = {
    3: lambda ctx, cfg, s: acc.criterion_gamma(ctx, s.cones[0].net),
    5: lambda ctx, cfg, s: acc.criterion_reconstruction(ctx, cfg, s.cones),
    7: lambda ctx, cfg, s: acc.criterion_polars(ctx, cfg, s.cones),
    8: lambda ctx, cfg, s: acc.criterion_hessian(ctx, cfg, s.cones[0]),
    9: lambda ctx, cfg, s: acc.criterion_node_count(ctx, cfg,
                                                    s.cones[0].net),
    10: lambda ctx, cfg, s: acc.criterion_secant(ctx, cfg, s.cones[0]),
    11: lambda ctx, cfg, s: acc.criterion_spans(ctx, cfg, s.f4),
    12: lambda ctx, cfg, s: acc.criterion_base_locus(ctx, cfg, s.span_cones,
                                                     s.f4),
}


@pytest.fixture(scope="module")
def suite_run(ctx4):
    cfg = acc.reduced_config(0)
    return cfg, {r.number: r for r in acc.run_criteria(ctx4, cfg)}


@pytest.mark.parametrize("number", sorted(ON_INPUTS))
def test_criterion_independent_of_run_order(ctx4, suite_run, number):
    # alone on fresh artifacts, a criterion measures what it measured after
    # all of its predecessors had run on shared ones
    cfg, in_suite = suite_run
    alone = ON_INPUTS[number](ctx4, cfg, acc.SuiteInputs(ctx4, cfg))
    assert alone.number == number
    assert alone.details == in_suite[number].details


@pytest.mark.parametrize("genus", [4, 5])
def test_criterion_13_determinism(genus, request):
    if genus == 4:
        def builder():
            return canring.build_context(cv.generate_curve(4, PRIME, 1))
    else:
        # rebuilt from the stored points, as `verify --full` rebuilds the
        # context from a curve file
        ctx5 = request.getfixturevalue("ctx5")
        points = list(np.concatenate([ctx5.panel, ctx5.holdout]))

        def builder():
            return canring.build_context(ctx5.curve, points)

    _check(acc.criterion_determinism(builder, CFG), genus)
