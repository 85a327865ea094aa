"""Span accumulators, saturation, base-locus probing."""

import numpy as np
import pytest

from curvecones import algebra as alg, monomials as mono, spanlab as sl
from curvecones.rng import Stream

P = 1000003


@pytest.fixture(scope="module")
def cones4(ctx4):
    return sl.collect_cones(ctx4, 25, seed=0)


@pytest.fixture(scope="module")
def f4span(ctx4, cones4):
    return sl.accumulate_f4(ctx4, cones4, seed=0)


class TestAccumulation:
    def test_saturated_rank(self, f4span):
        assert f4span.rank == 5
        assert f4span.trajectory[-1] == f4span.trajectory[-2] \
            == f4span.trajectory[-3]

    def test_rows_lie_in_quartic_ideal(self, ctx4, f4span):
        for row in f4span.rows:
            assert ctx4.vanishes_on_curve(row, 4)

    def test_rank_monotone_along_trajectory(self, f4span):
        assert all(a <= b for a, b in zip(f4span.trajectory,
                                          f4span.trajectory[1:]))

    def test_stability_under_additional_nets(self, ctx4, f4span):
        fresh = sl.collect_cones(ctx4, 10, seed=31)
        rows = f4span.rows
        for cone in fresh:
            rows = np.concatenate([rows, cone.coeffs[None, :]])
        assert alg.rank(rows, P) == f4span.rank

    def test_seed_independence_of_saturated_rank(self, ctx4, f4span):
        for seed in (5, 6, 7, 8):
            other = sl.accumulate_f4(ctx4, sl.collect_cones(ctx4, 25, seed),
                                     seed=seed)
            assert other.rank == f4span.rank

    def test_order_reshuffle_invariance(self, ctx4, f4span):
        perm = np.random.default_rng(0).permutation(f4span.rows.shape[0])
        assert alg.rank(f4span.rows[perm], P) == f4span.rank

    def test_f3_rows_are_cubic_ideal_members(self, ctx4, cones4):
        f3 = sl.accumulate_f3(ctx4, cones4)
        for row in f3.rows:
            assert ctx4.in_ideal(row, 3)
        # one polar per net at genus 4; rank capped by the cubic ideal piece
        assert f3.rank <= ctx4.ideal(3).dim


class TestContainment:
    def test_squares_in_span(self, ctx4, f4span):
        assert sl.squares_containment(ctx4, f4span)

    def test_generic_ideal_element_not_in_span(self, ctx4, f4span):
        # rank 5 of a 14-dimensional ideal piece: a random ideal quartic
        # escapes the span
        stream = Stream(1, "comp")
        combo = stream.field_vec(P, ctx4.ideal(4).dim)
        quartic = combo @ ctx4.ideal(4).basis % P
        assert not f4span.span.contains(quartic)


class TestBaseLocus:
    def test_probe_report(self, ctx4, cones4, f4span):
        f3 = sl.accumulate_f3(ctx4, cones4)
        report = sl.base_locus_probe(ctx4, [f4span, f3], 120, seed=0)
        assert report["curve_points_contained"]
        assert report["violations"] == []
        assert report["off_curve_checked"] == 120
        assert report["structured_checked"] > 0

    def test_trajectory_csv(self, f4span):
        csv = sl.trajectory_csv(f4span)
        assert csv.startswith("batch,rank\n")
        assert csv.strip().split("\n")[-1].endswith(str(f4span.rank))
