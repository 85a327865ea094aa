"""Acceptance suite: every criterion at its stated sample sizes.

One line is printed per criterion and genus (run pytest with -s to stream
them); the same checks back the `verify` subcommand of the command line.
"""

import numpy as np
import pytest

from curvecones import acceptance as acc
from curvecones import canring, cone as cn, curve as cv, errors
from curvecones import net as nt, pencil as pc, spanlab as sl
from curvecones.errors import (CurveConesError, InadmissiblePencil,
                               SingularPoint, VerificationFailed)
from curvecones.rng import Stream, derive_key

import reference
from reference import assert_same_draws, stream_draws

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


class TestDerivedValues:
    """The values the criteria derive from the genus: dim I(2), I(3), I(4)
    (criterion 1), the nodes of the plane image (criterion 9) and the
    quadric squares of the quartic span, against the tables the suite kept
    for genus 4 and 5 and the values a genus-6 prototype measured."""

    RECORDED = {4: ((1, 5, 14), 6, 1), 5: ((3, 15, 42), 16, 6),
                6: ((6, 31, 91), 30, 21)}

    @pytest.mark.parametrize("g", sorted(RECORDED))
    def test_matches_recorded(self, g):
        dims, nodes, squares = self.RECORDED[g]
        assert tuple(canring.ideal_dim(g, n) for n in (2, 3, 4)) == dims
        assert acc.node_count(g) == nodes
        assert sl.square_count(g) == squares


@pytest.mark.parametrize("g", sorted(cv.MODELS))
@pytest.mark.parametrize("preset", sorted(acc.PRESETS))
def test_presets_reach_the_measured_quartic_rank(g, preset):
    """The span samples of every preset, with the quadric squares the span
    starts from, can still reach the model's `f4_rank`."""
    cfg = acc.preset(preset, 0)
    assert cfg.span_samples + sl.square_count(g) >= cv.MODELS[g].f4_rank


@pytest.mark.parametrize("field, value", [("seed", True), ("seed", -1),
                                          ("fibers_on", 2.0),
                                          ("span_samples", "14")])
def test_suite_config_rejects_a_non_count(field, value):
    # JSON true is no count, although Python's bool is an int
    with pytest.raises(errors.ConfigError, match=f"config field '{field}'"):
        acc.SuiteConfig(**{field: value})


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
        _check(acc.criterion_node_count(ctx, inputs.cones[0].net), ctx.g)

    def test_criterion_10_secant_criterion(self, ctx, inputs):
        _check(acc.criterion_secant(ctx, CFG, inputs.cones[0]), ctx.g)

    def test_criterion_11_span_dimensions(self, ctx, inputs):
        _check(acc.criterion_spans(ctx, inputs.f4), ctx.g)

    def test_criterion_12_base_locus(self, ctx, inputs):
        _check(acc.criterion_base_locus(ctx, CFG, inputs.span_cones,
                                        inputs.f4), ctx.g)

    def test_span_criteria_leave_the_certified_cones(self, ctx, inputs):
        acc.criterion_spans(ctx, inputs.f4)
        assert len(inputs.cones) == CFG.reconstructions
        assert len(inputs.span_cones) == CFG.span_samples


# criterion number -> the criterion called on the artifacts of a SuiteInputs
ON_INPUTS = {
    3: lambda ctx, cfg, s: acc.criterion_gamma(ctx, s.cones[0].net),
    5: lambda ctx, cfg, s: acc.criterion_reconstruction(ctx, cfg, s.cones),
    7: lambda ctx, cfg, s: acc.criterion_polars(ctx, cfg, s.cones),
    8: lambda ctx, cfg, s: acc.criterion_hessian(ctx, cfg, s.cones[0]),
    9: lambda ctx, cfg, s: acc.criterion_node_count(ctx, s.cones[0].net),
    10: lambda ctx, cfg, s: acc.criterion_secant(ctx, cfg, s.cones[0]),
    11: lambda ctx, cfg, s: acc.criterion_spans(ctx, s.f4),
    12: lambda ctx, cfg, s: acc.criterion_base_locus(ctx, cfg, s.span_cones,
                                                     s.f4),
}


@pytest.fixture(scope="module")
def suite_run(ctx4):
    cfg = acc.preset("reduced", 0)
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
        points = list(ctx5.points)

        def builder():
            return canring.build_context(ctx5.curve, points)

    _check(acc.criterion_determinism(builder, CFG), genus)


def engine_draws(draws):
    """Stream draws by tag (or by a tuple ending in the tag), without the
    fixed node streams of `monomials.restrict`, which a first call per
    shape draws."""
    return {k: n for k, n in draws.items()
            if not (k[-1] if isinstance(k, tuple) else k).startswith(
                "restrict-nodes|")}


def outcome(run):
    """run(), or the type and message of the error it raises."""
    try:
        return run()
    except CurveConesError as exc:
        return type(exc), str(exc)


@pytest.fixture(scope="module")
def round_cones(request):
    """Two cones per context, for the certificate rounds."""
    return {name: sl.collect_cones(request.getfixturevalue(name), 2, 31,
                                   oracle_points=0)
            for name in ("ctx4", "ctx5", "ctx4_max", "ctx5_max")}


ROUND_CFG = acc.SuiteConfig(polar_oracle_points=8, secant_random=10,
                            secant_engineered=2)


class TestPolarRounds:
    """Criterion 7 certifies all polars in one lockstep, and gives the
    details, exceptions and draws of the loop that checks one polar at a
    time (tests/reference.py)."""

    @pytest.mark.parametrize("name", ["ctx4", "ctx5", "ctx4_max", "ctx5_max"])
    def test_matches_one_polar_at_a_time(self, name, request, round_cones,
                                         monkeypatch):
        ctx = request.getfixturevalue(name)
        cones = round_cones[name]
        want, want_draws = stream_draws(monkeypatch, lambda: outcome(
            lambda: reference.criterion_polars(ctx, ROUND_CFG, cones)))
        got, got_draws = stream_draws(monkeypatch, lambda: outcome(
            lambda: acc.criterion_polars(ctx, ROUND_CFG, cones)))
        assert (got.ok, got.details) == want
        assert want[0] and want[1]["oracle_points"] \
            == 8 * len(cones) * (ctx.g - 3)
        assert_same_draws(engine_draws(got_draws), engine_draws(want_draws))

    def test_genus5_polars_draw_their_own_probes(self, ctx5, round_cones,
                                                 monkeypatch):
        _, draws = stream_draws(monkeypatch, lambda: acc.criterion_polars(
            ctx5, ROUND_CFG, round_cones["ctx5"][:1]))
        assert {"b/0", "b/0/zeros", "b/0.1", "b/0.1/zeros"} <= set(draws)
        assert not any(tag.startswith("b/1") for tag in draws)

    @pytest.mark.parametrize("name", ["ctx4", "ctx5"])
    def test_failure_raised_in_cone_order(self, name, request, round_cones,
                                          monkeypatch):
        """With the polar space of the first cone planted empty, criterion
        7 FAILs and reports that space's dimension, as one polar at a time
        does.  With the oracle failing at every probe of both cones, whose
        chains the lockstep runs to their failure before any polar space
        is read, the first cone's oracle failure is raised."""
        ctx = request.getfixturevalue(name)
        cones = round_cones[name]
        real_space = cn.constrained_space

        def constrained_space(ctx, net, deg):
            basis = real_space(ctx, net, deg)
            return basis[:0] if net is cones[0].net else basis

        monkeypatch.setattr(cn, "constrained_space", constrained_space)
        monkeypatch.setattr(reference, "constrained_space", constrained_space)
        want = reference.criterion_polars(ctx, ROUND_CFG, cones)
        got = acc.criterion_polars(ctx, ROUND_CFG, cones)
        assert (got.ok, got.details) == want
        assert not got.ok and got.details["dim_lw"] == 0, got.line()
        monkeypatch.undo()
        real_oracle = nt.oracle_batch

        def oracle_batch(ctx, nets, probes, check_gamma=True):
            out = real_oracle(ctx, nets, probes, check_gamma)
            for i, net in enumerate(nets):
                k = next(k for k, c in enumerate(cones) if c.net is net)
                out[i] = VerificationFailed(f"planted {k}")
            return out

        monkeypatch.setattr(nt, "oracle_batch", oracle_batch)
        results = [outcome(lambda: check(ctx, ROUND_CFG, cones))
                   for check in (reference.criterion_polars,
                                 acc.criterion_polars)]
        assert results == [(VerificationFailed, "planted 0")] * 2


def seeded(stream):
    """A stream's (seed, tag): the reconstruction streams of different
    nets share their tags and differ in their seeds."""
    return stream.seed, stream.tag


def reconstruction_seed(ctx, net):
    """The seed of the streams of `cone.reconstruct_quartics` on a net."""
    return derive_key(ctx.curve.seed, "reconstruct|0|" + ",".join(
        str(int(v)) for v in net.w.reshape(-1)))


def record_dropped(ctx, monkeypatch):
    """A list that fills, while the engine runs, with (family, t, pt_p,
    pt_q, net) for each family root whose net builds and that the
    second-point test of `cone._family_candidates` drops; the secant of a
    trial is that of its `bitangent_pair` (genus 4) or of its
    `double_vanishing_section` (genus 5)."""
    dropped = []
    line = []
    swept = []
    real_pair, real_section = cn.bitangent_pair, cn.double_vanishing_section
    real_roots, real_candidates = cn._family_roots, cn._family_candidates

    def bitangent_pair(ctx, stream):
        pt_p, pt_q, section = real_pair(ctx, stream)
        line[:] = pt_p, pt_q
        return pt_p, pt_q, section

    def double_vanishing_section(ctx, pt_p, pt_q):
        line[:] = pt_p, pt_q
        return real_section(ctx, pt_p, pt_q)

    def family_roots(ctx, family, b0):
        swept.append((family, real_roots(ctx, family, b0)))
        return swept[-1][1]

    def family_candidates(ctx, *args):
        kept = real_candidates(ctx, *args)
        family, roots = swept.pop()
        ws = [net.w.tolist() for net in kept if isinstance(net, nt.Net)]
        for t in roots:
            net = nt.build_nets(ctx, family(t)[None])[0]
            if isinstance(net, nt.Net) and net.w.tolist() not in ws:
                dropped.append((family, t, *line, net))
        return kept

    for name, wrapper in (("bitangent_pair", bitangent_pair),
                          ("double_vanishing_section",
                           double_vanishing_section),
                          ("_family_roots", family_roots),
                          ("_family_candidates", family_candidates)):
        monkeypatch.setattr(cn, name, wrapper)
    return dropped


def assert_draws_but_dropped(ctx, got, want, dropped):
    """got and want, draws by (seed, tag), are the same (as
    `assert_same_draws` has it) on every stream but the reconstruction
    streams of the dropped family roots, which got never draws."""
    unseen = {reconstruction_seed(ctx, d[-1]) for d in dropped}
    assert not unseen & {seed for seed, _ in got}
    assert_same_draws(engine_draws(got), engine_draws(
        {key: n for key, n in want.items() if key[0] not in unseen}))


class TestSecantRounds:
    """Criterion 10 checks its secants on stacks and gives the details,
    exceptions and draws of the loops that check one secant at a time
    (tests/reference.py), whose double-secant search reconstructs every
    family root in turn, with no second-point test."""

    @pytest.mark.parametrize("name", ["ctx4", "ctx5", "ctx4_max", "ctx5_max"])
    def test_matches_one_secant_at_a_time(self, name, request, round_cones,
                                          monkeypatch):
        ctx = request.getfixturevalue(name)
        cone = round_cones[name][0]
        want, want_draws = stream_draws(
            monkeypatch,
            lambda: reference.criterion_secant(ctx, ROUND_CFG, cone),
            key=seeded)
        dropped = record_dropped(ctx, monkeypatch)
        got, got_draws = stream_draws(
            monkeypatch, lambda: acc.criterion_secant(ctx, ROUND_CFG, cone),
            key=seeded)
        assert got.details == want
        assert got.ok and want["vertex_branch"] == 2
        assert_draws_but_dropped(ctx, got_draws, want_draws, dropped)

    @pytest.mark.parametrize("name", ["ctx4", "ctx5"])
    def test_dropped_roots_are_not_contained(self, name, request,
                                             round_cones, monkeypatch):
        """The second-point test drops some family root of criterion 10,
        and one root at a time judges every dropped root not contained:
        its reconstruction is degenerate or its secant fails the
        criterion."""
        ctx = request.getfixturevalue(name)
        dropped = record_dropped(ctx, monkeypatch)
        assert acc.criterion_secant(ctx, ROUND_CFG,
                                    round_cones[name][0]).ok
        monkeypatch.undo()
        assert dropped
        for family, t, pt_p, pt_q, _ in dropped:
            verdict = outcome(lambda: reference.family_root(
                ctx, family, t, pt_p, pt_q))
            assert verdict is None \
                or issubclass(verdict[0], errors.DegenerateInput), verdict

    @pytest.mark.parametrize("name", ["ctx4", "ctx5"])
    def test_singular_point_raised_in_draw_order(self, name, request,
                                                 round_cones, monkeypatch):
        """The Jacobian drops rank at the second point of the fourth random
        secant: its check fails in the stack, the others do not, and the
        criterion raises as the one-secant loop raises."""
        ctx = request.getfixturevalue(name)
        cone = round_cones[name][0]
        stream = Stream(derive_key(ctx.curve.seed,
                                   f"secant|{ROUND_CFG.seed}"), "pq")
        n = ctx.panel.shape[0]
        pairs = [(ctx.panel[i], ctx.panel[j]) for i, j in (
            (stream.integer(0, n), stream.integer(0, n)) for _ in range(10))
            if i != j]
        bad = pairs[3][1].tolist()
        real = cv.jacobian_at

        def jacobian_at(curve, pts):
            jac = real(curve, pts)
            jac[(np.reshape(pts, jac.shape[:-2] + (-1,)) == bad).all(
                axis=-1)] = 0
            return jac

        monkeypatch.setattr(cv, "jacobian_at", jacobian_at)
        verdicts = cn.secant_criteria(ctx, [cone] * len(pairs), pairs)
        for (pt_p, pt_q), verdict in zip(pairs, verdicts):
            assert outcome(lambda: verdict if bad not in (
                pt_p.tolist(), pt_q.tolist()) else errors.value_of(
                    verdict)) == outcome(lambda: reference.secant_criterion(
                        ctx, cone.net, cone.coeffs, pt_p, pt_q))
        want = outcome(lambda: reference.criterion_secant(ctx, ROUND_CFG,
                                                          cone))
        got = outcome(lambda: acc.criterion_secant(ctx, ROUND_CFG, cone))
        monkeypatch.undo()
        assert got == want == (SingularPoint,
                               f"Jacobian rank below {ctx.g - 2}")

    @pytest.mark.parametrize("name", ["ctx4", "ctx5"])
    def test_degenerate_family_root_is_skipped(self, name, request,
                                               monkeypatch):
        """Every pencil of the net of the first family root that passes the
        second-point test fails, so its reconstruction raises
        DegenerateInput and the root is skipped, as one root at a time
        skips it.  (The first root itself may be one the test drops, which
        the rounds never reconstruct.)"""
        ctx = request.getfixturevalue(name)
        kept = []
        real_candidates = cn._family_candidates

        def family_candidates(*args):
            found = real_candidates(*args)
            kept.extend(net for net in found if isinstance(net, nt.Net))
            return found

        def run(contained_double_secant):
            found = contained_double_secant(ctx, Stream(131, name), count=2)
            return [(net.w.tolist(), c.coeffs.tolist(), c.certificate)
                    for _, _, net, c in found]

        monkeypatch.setattr(cn, "_family_candidates", family_candidates)
        unplanted = run(cn.contained_double_secant)
        monkeypatch.undo()
        planted = kept[0].w.tolist()
        assert planted in [w for w, _, _ in unplanted]
        reference.plant_fibers(monkeypatch, lambda net, u, fiber: (
            InadmissiblePencil("planted") if net.w.tolist() == planted
            else fiber))
        want, want_draws = stream_draws(
            monkeypatch, lambda: run(reference.contained_double_secant),
            key=seeded)
        dropped = record_dropped(ctx, monkeypatch)
        got, got_draws = stream_draws(
            monkeypatch, lambda: run(cn.contained_double_secant), key=seeded)
        assert got == want
        assert planted not in [w for w, _, _ in got]
        assert_draws_but_dropped(ctx, got_draws, want_draws, dropped)


class TestCorankRounds:
    """Criterion 4 evaluates its nets in rounds of stacked kernels and gives
    the details and draws of the loop that checks one net at a time
    (`reference.criterion_corank_law`)."""

    @pytest.mark.parametrize("name", ["ctx4", "ctx5"])
    def test_matches_one_net_at_a_time(self, name, request, monkeypatch):
        ctx = request.getfixturevalue(name)
        want, want_draws = stream_draws(
            monkeypatch, lambda: reference.criterion_corank_law(ctx, CFG))
        got, got_draws = stream_draws(
            monkeypatch, lambda: acc.criterion_corank_law(ctx, CFG))
        assert (got.ok, got.details) == want
        assert want == (True, {"random_checked": 50, "engineered_checked": 5,
                               "disagreements": 0})
        assert engine_draws(got_draws) == engine_draws(want_draws)

    @pytest.mark.parametrize("name", ["ctx4", "ctx5"])
    def test_planted_pencil_and_lift_are_skipped(self, name, request,
                                                 monkeypatch):
        """The second random pencil has rank 1 and the third lift lies in
        its pencil: the one-net loop skips both draws on the
        InadmissiblePencil of the scalar chain, and the rounds skip them
        too, drawing the two laws still missing in a second round."""
        ctx = request.getfixturevalue(name)
        p = ctx.p
        real_mat, real_vec = Stream.field_mat, Stream.field_vec
        pencils, lifts = [], []     # the draws on the criterion's stream

        def field_mat(self, p, rows, cols):
            v = real_mat(self, p, rows, cols)
            if self.tag == "vw":
                pencils.append(v)
                if len(pencils) == 2:
                    v[1] = v[0]
            return v

        def field_vec(self, p, n):
            w = real_vec(self, p, n)
            if self.tag == "vw" and n == ctx.g:
                if len(pencils) == 3:
                    w = (pencils[2][0] + 5 * pencils[2][1]) % p
                lifts.append(w)
            return w

        monkeypatch.setattr(Stream, "field_mat", field_mat)
        monkeypatch.setattr(Stream, "field_vec", field_vec)
        want = reference.criterion_corank_law(ctx, CFG)
        assert len(pencils) == len(lifts) == CFG.corank_samples + 2
        with pytest.raises(InadmissiblePencil, match="must have rank 2"):
            reference.build_pencil(ctx, pencils[1])
        with pytest.raises(InadmissiblePencil, match="lies in the pencil"):
            pc.cup_gram(ctx, reference.build_pencil(ctx, pencils[2]),
                        lifts[2])
        pencils.clear()
        lifts.clear()
        rounds = []
        real_grams = pc.cup_grams

        def cup_grams(ctx, vbar, w):
            rounds.append(len(w))
            return real_grams(ctx, vbar, w)

        monkeypatch.setattr(pc, "cup_grams", cup_grams)
        got = acc.criterion_corank_law(ctx, CFG)
        assert (got.ok, got.details) == want
        assert want[1]["random_checked"] == CFG.corank_samples
        assert len(pencils) == CFG.corank_samples + 2
        assert rounds == [CFG.corank_samples, 2, CFG.corank_engineered]
