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
def state(ctx):
    return acc._shared(ctx, CFG)


def _check(result, genus):
    print(f"g={genus} " + result.line())
    assert result.ok, result.line()


class TestAcceptance:
    def test_criterion_01_ideal_dimensions(self, ctx):
        _check(acc.criterion_ideal_dims(ctx), ctx.g)

    def test_criterion_02_petri_dichotomy(self, ctx):
        _check(acc.criterion_petri(ctx), ctx.g)

    def test_criterion_03_plane_image_degree(self, ctx, state):
        _check(acc.criterion_gamma(ctx, state), ctx.g)

    def test_criterion_04_corank_law(self, ctx):
        _check(acc.criterion_corank_law(ctx, CFG), ctx.g)

    def test_criterion_05_reconstruction_certificate(self, ctx, state):
        _check(acc.criterion_reconstruction(ctx, CFG, state), ctx.g)

    def test_criterion_06_double_quadric_law(self, ctx):
        _check(acc.criterion_double_quadric(ctx, CFG), ctx.g)

    def test_criterion_07_polar_cubics(self, ctx, state):
        _check(acc.criterion_polars(ctx, CFG, state), ctx.g)

    def test_criterion_08_hessian_steinerian(self, ctx, state):
        _check(acc.criterion_hessian(ctx, CFG, state), ctx.g)

    def test_criterion_09_node_count(self, ctx, state):
        _check(acc.criterion_node_count(ctx, CFG, state), ctx.g)

    def test_criterion_10_secant_criterion(self, ctx, state):
        _check(acc.criterion_secant(ctx, CFG, state), ctx.g)

    def test_criterion_11_span_dimensions(self, ctx, state):
        _check(acc.criterion_spans(ctx, CFG, state), ctx.g)

    def test_criterion_12_base_locus(self, ctx, state):
        _check(acc.criterion_base_locus(ctx, CFG, state), ctx.g)

    def test_span_criteria_leave_the_certified_cones(self, ctx, state):
        acc.criterion_spans(ctx, CFG, state)
        assert len(state.cones) == CFG.reconstructions
        assert len(state.span_cones) == CFG.span_samples


def test_base_locus_independent_of_run_order(ctx4):
    small = acc.SuiteConfig(reconstructions=2, span_samples=14,
                            off_curve_probes=30)
    alone = acc.criterion_base_locus(ctx4, small, acc._shared(ctx4, small))
    state = acc._shared(ctx4, small)
    acc.criterion_spans(ctx4, small, state)
    after = acc.criterion_base_locus(ctx4, small, state)
    assert alone.details == after.details


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
