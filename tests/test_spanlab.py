"""Span accumulators, saturation, base-locus probing."""

import numpy as np
import pytest

from curvecones import algebra as alg, cone as cn, curve as cv
from curvecones import monomials as mono, net as nt, spanlab as sl
from curvecones.errors import (CurveConesError, DegenerateInput,
                               InadmissiblePencil)
from curvecones.rng import Stream, derive_key

import reference
from reference import assert_same_draws, stream_draws

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


CONTEXTS = ["ctx4", "ctx5", "ctx4_max"]


def outcome(run):
    """run()'s cones as (net basis, coefficients, certificate items), or
    the class and message of the exception it raised."""
    try:
        cones = run()
    except CurveConesError as exc:
        return type(exc), str(exc)
    return [(net.w.tolist(), coeffs.tolist(), list(cert.items()))
            for net, coeffs, cert in (
                (c.net, c.coeffs, c.certificate)
                if isinstance(c, cn.QuarticCone) else c for c in cones)]


def drawn_net(ctx, seed, key):
    """The basis of the net that `collect_cones` draws from stream key."""
    stream = Stream(derive_key(ctx.curve.seed, f"span-cones|{seed}"), "w")
    return reference.random_net(ctx, stream.spawn(key)).w.tolist()


class TestConeRounds:
    """`collect_cones` takes its cones in rounds and gets exactly the cones,
    certificates, exceptions and draws of the loop that reconstructs and
    certifies one net at a time (`reference.collect_cones`)."""

    @staticmethod
    def both(ctx, monkeypatch, count, seed):
        """Both outcomes, equal, and the draws of each by stream tag; the
        interpolation nodes of `restrict`, drawn once per process on first
        use, are left out."""
        want, want_draws = stream_draws(monkeypatch, lambda: outcome(
            lambda: reference.collect_cones(ctx, count, seed)))
        got, got_draws = stream_draws(monkeypatch, lambda: outcome(
            lambda: sl.collect_cones(ctx, count, seed)))
        assert got == want
        return want, *({tag: n for tag, n in draws.items()
                        if not tag.startswith("restrict-nodes|")}
                       for draws in (want_draws, got_draws))

    @pytest.mark.parametrize("name", CONTEXTS)
    def test_cones_match_one_net_at_a_time(self, name, request,
                                           monkeypatch):
        ctx = request.getfixturevalue(name)
        want, want_draws, got_draws = self.both(ctx, monkeypatch, 4, 41)
        assert len(want) == 4
        assert_same_draws(got_draws, want_draws)

    @pytest.mark.parametrize("name", CONTEXTS)
    def test_degenerate_net_drops_the_rest_of_the_round(
            self, name, request, monkeypatch):
        # every pencil of the net at element 2 of the first round fails,
        # so its reconstruction runs out of pencils
        ctx = request.getfixturevalue(name)
        target = drawn_net(ctx, 42, "net2-0")
        reference.plant_fibers(monkeypatch, lambda net, u, fiber: (
            InadmissiblePencil("planted") if net.w.tolist() == target
            else fiber))
        want, want_draws, got_draws = self.both(ctx, monkeypatch, 4, 42)
        assert len(want) == 4 and target not in [w for w, _, _ in want]
        # the rest of the round drew and was dropped; every draw of the
        # loop is among the round's
        assert "w/net3-0" in got_draws and "w/net3-0" not in want_draws
        assert all(got_draws[tag] >= n for tag, n in want_draws.items())

    @pytest.mark.parametrize("name", CONTEXTS)
    def test_certificate_failure_is_raised_in_order(self, name, request,
                                                    monkeypatch):
        # the holdout pencil of the net at element 3 does not split
        ctx = request.getfixturevalue(name)
        target = drawn_net(ctx, 43, "net3-0")
        planted = []                # the fibers of the target net

        def record(net, u, fiber):
            if net.w.tolist() == target:
                planted.append(fiber)
            return fiber

        for owner in (cn, reference):
            real = owner.form_matches_split
            monkeypatch.setattr(owner, "form_matches_split", lambda ctx,
                                coeffs, fiber, real=real: False if any(
                                    fiber is f for f in planted)
                                else real(ctx, coeffs, fiber))
        reference.plant_fibers(monkeypatch, record)
        want, want_draws, got_draws = self.both(ctx, monkeypatch, 4, 43)
        assert want[0].__name__ == "VerificationFailed"
        assert "holdout_pencil': False" in want[1]
        assert_same_draws(got_draws, want_draws)

    def test_exhausted_budget(self, ctx4, monkeypatch):
        # only the net drawn third for cone 0 reconstructs: cone 0 takes
        # two failures, and cone 1 spends the 28 - 2 attempts left
        keep = drawn_net(ctx4, 44, "net0-2")
        empty = np.zeros((0, mono.count(4, 4)), dtype=np.int64)
        real = cn.constrained_spaces
        monkeypatch.setattr(cn, "constrained_spaces", lambda ctx, nets, deg: [
            space if net.w.tolist() == keep else empty
            for net, space in zip(nets, real(ctx, nets, deg))])
        real_ref = reference.constrained_space
        monkeypatch.setattr(reference, "constrained_space", lambda ctx, net,
                            deg: real_ref(ctx, net, deg)
                            if net.w.tolist() == keep else empty)
        want, _, _ = self.both(ctx4, monkeypatch, 2, 44)
        assert want == (DegenerateInput,
                        "span cones: no usable draw in 26 attempts")


class TestProbeRounds:
    """`base_locus_probe` tests its probes in rounds and reports exactly
    what the loop that tests one probe at a time reports."""

    @pytest.mark.parametrize("name", CONTEXTS)
    def test_report_matches_one_probe_at_a_time(self, name, request,
                                                monkeypatch):
        ctx = request.getfixturevalue(name)
        p = ctx.p
        nets = [nt.random_net(ctx, Stream(45, f"probe{k}")) for k in range(3)]
        # a quartic system of ideal rows separates no off-curve point from
        # a form it does not hold; an empty cubic system separates none, so
        # every probe is a violation of it, in the order probed
        spans = [sl.SpanAccumulator(4, alg.RowSpace(ctx.ideal(4).basis[:3],
                                                    p), sources=nets),
                 sl.SpanAccumulator(3, alg.RowSpace(
                     np.zeros((0, mono.count(ctx.g, 3)), dtype=np.int64), p),
                     sources=nets[:2])]
        # the third random draw is planted on the curve, inside the first round
        stream = Stream(derive_key(ctx.curve.seed, "probe|3"), "pts")
        planted = [stream.field_vec(p, ctx.g) for _ in range(3)][2]
        real_on, real_off = cv.on_curve, cv.off_curve
        monkeypatch.setattr(cv, "on_curve", lambda curve, pt: bool(
            (np.asarray(pt) == planted).all()) or real_on(curve, pt))
        monkeypatch.setattr(cv, "off_curve", lambda curve, pts: real_off(
            curve, pts) & ~(np.asarray(pts) == planted).all(axis=1))
        rounds = []
        want, want_draws = stream_draws(monkeypatch, lambda: (
            reference.base_locus_probe(ctx, spans, 150, seed=3)))
        real_mask = cv.off_curve

        def counted(curve, pts):
            rounds.append(len(pts))
            return real_mask(curve, pts)

        monkeypatch.setattr(cv, "off_curve", counted)
        got, got_draws = stream_draws(monkeypatch, lambda: (
            sl.base_locus_probe(ctx, spans, 150, seed=3)))
        assert got == want
        assert got_draws == want_draws
        assert want["off_curve_checked"] == 150
        assert len(want["violations"]) == 150 + want["structured_checked"]
        assert planted.tolist() not in [v["point"]
                                        for v in want["violations"]]
        # the first round draws all 150 and comes one off-curve probe
        # short, and the second draws one more; then the structured probes
        # go as one stack
        assert rounds[:2] == [150, 1]
        assert len(rounds) == 3
