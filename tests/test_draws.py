"""One draw per random object: `Stream.combination`, `panel_pair` and the
isotropic vertex loop of `cone.degenerate_net` make the draws of the
inline code they replace (kept in `reference`), and a genus-5 slice tries
one chart.  A zero harvest's rounds of several lines hand out the points
of the harvest that draws one line a round; they read lines ahead only on
a stream that no other code draws from."""

import copy
import sys

import numpy as np
import pytest

from curvecones import acceptance as acc, algebra as alg, cone as cn
from curvecones import curve as cv, monomials as mono
from curvecones.errors import lockstep
from curvecones.rng import Stream

import reference

CONTEXTS = ["ctx4", "ctx4_max", "ctx5", "ctx5_max"]
STREAMS = range(20)


@pytest.fixture(params=CONTEXTS)
def ctx(request):
    return request.getfixturevalue(request.param)


class ZeroFirst(Stream):
    """A stream whose first `field_vec` is all zeros and whose first two
    integers are equal; every later draw is the stream's own."""

    def __init__(self, seed, tag):
        super().__init__(seed, tag)
        self.zero_vecs = 1
        self.equal_ints = 2

    def field_vec(self, p, n):
        if self.zero_vecs:
            self.zero_vecs -= 1
            return np.zeros(n, dtype=np.int64)
        return super().field_vec(p, n)

    def integer(self, lo, hi):
        if self.equal_ints:
            self.equal_ints -= 1
            return lo
        return super().integer(lo, hi)


def same(a, b):
    """Equal draws: both None, or equal arrays (or tuples of arrays)."""
    if a is None or b is None:
        return a is None and b is None
    return np.array_equal(np.asarray(a), np.asarray(b))


def test_combination_matches_the_inline_draw(ctx):
    rows = ctx.ideal(2).basis
    for k in STREAMS:
        mine, theirs = Stream(k, "combination"), Stream(k, "combination")
        got = mine.combination(ctx.p, rows)
        assert same(got, reference.combination(theirs, ctx.p, rows))
        assert mine.next_u64() == theirs.next_u64()
    mine, theirs = ZeroFirst(0, "zero"), ZeroFirst(0, "zero")
    assert mine.combination(ctx.p, rows) is None
    assert reference.combination(theirs, ctx.p, rows) is None
    assert same(mine.combination(ctx.p, rows),
                reference.combination(theirs, ctx.p, rows))


def test_panel_pair_matches_the_inline_draw(ctx):
    for k in STREAMS:
        mine, theirs = Stream(k, "pair"), Stream(k, "pair")
        assert same(ctx.panel_pair(mine), reference.panel_pair(ctx, theirs))
        assert mine.next_u64() == theirs.next_u64()
    mine, theirs = ZeroFirst(0, "equal"), ZeroFirst(0, "equal")
    assert ctx.panel_pair(mine) is None
    assert reference.panel_pair(ctx, theirs) is None
    assert same(ctx.panel_pair(mine), reference.panel_pair(ctx, theirs))


def test_degenerate_net_matches_the_branch_per_genus(ctx):
    for k in STREAMS:
        mine, theirs = Stream(k, "degenerate"), Stream(k, "degenerate")
        got = cn.degenerate_net(ctx, mine)
        want = reference.degenerate_net(ctx, theirs)
        assert np.array_equal(got.w, want.w)
        assert np.array_equal(got.d_certificate, want.d_certificate)
        assert mine.next_u64() == theirs.next_u64()
    # the zero combination is redrawn by both
    got = cn.degenerate_net(ctx, ZeroFirst(0, "degenerate"))
    want = reference.degenerate_net(ctx, ZeroFirst(0, "degenerate"))
    assert np.array_equal(got.w, want.w)


def test_degenerate_vertex_is_isotropic(ctx):
    p, g = ctx.p, ctx.g
    for k in STREAMS:
        stream = Stream(k, "isotropic")
        quadric = stream.combination(p, ctx.ideal(2).basis)
        if quadric is None:
            continue
        vertex = cn.degenerate_net(ctx, stream.spawn("net"),
                                   quadric=quadric).wperp
        assert alg.rank(vertex, p) == g - 3
        # q(v_i) on the diagonal, B(v_i, v_j) off it
        gram = cv.quadric_gram(quadric, g, p)
        assert not ((vertex @ gram % p) @ vertex.T % p).any()


def test_slice_tries_one_chart(ctx5, monkeypatch):
    charts = []
    real = Stream.field_mat

    def counted(self, p, rows, cols):
        charts.append((rows, cols))
        return real(self, p, rows, cols)

    def unusable(*args):
        # a chart whose final eliminant vanishes gives the slice no points
        return np.zeros(0, dtype=np.int64)

    monkeypatch.setattr(Stream, "field_mat", counted)
    monkeypatch.setattr(alg, "resultant_bivariate", unusable)
    h = Stream(5, "one-chart").field_vec(ctx5.p, 5)
    assert cv.hyperplane_section(ctx5.curve, h) == []
    assert charts == [(4, 4)]


class InsideFirst(Stream):
    """A stream whose first line lies in the hyperplane z0 = 0 and whose
    second line ends there: coordinate 0 of the 1st, 2nd and 4th
    `field_vec` is set to zero, after the stream's own draw."""

    def __init__(self, seed, tag):
        super().__init__(seed, tag)
        self.drawn = 0

    def field_vec(self, p, n):
        v = super().field_vec(p, n)
        self.drawn += 1
        if self.drawn in (1, 2, 4):
            v[0] = 0
        return v


def harvested(kind, forms, deg, g, p, streams, count, budget, asks):
    """Side by side, one harvest per form and stream, taken n points at a
    time for each n of asks: per harvest the points of each take, the
    points used, and the harvest."""
    harvests = [kind(f, deg, g, p, stream, count, budget)
                for f, stream in zip(forms, streams)]
    takes = [lockstep([h.take(n) for h in harvests]) for n in asks]
    return [([[pt.tolist() for pt in take[k]] for take in takes], h.used, h)
            for k, h in enumerate(harvests)]


def same_harvests(forms, deg, g, p, make_stream, count, budget, asks):
    """`harvested` for `ZeroHarvest` and for the one-line harvest on
    streams made alike: the same points in each take and the same points
    used.  `ZeroHarvest` may have read lines ahead; its stream is then the
    one-line harvest's after that many more lines, and its budget is less
    by as many.  Per harvest: the points of each take, the budget left,
    the points used and the lines read ahead."""
    got = harvested(cv.ZeroHarvest, forms, deg, g, p,
                    [make_stream(k) for k in range(len(forms))], count,
                    budget, asks)
    want = harvested(reference.ZeroHarvest, forms, deg, g, p,
                     [make_stream(k) for k in range(len(forms))], count,
                     budget, asks)
    out = []
    for (takes, used, mine), (want_takes, want_used, one_line) in zip(
            got, want):
        assert (takes, used) == (want_takes, want_used)
        ahead = one_line.budget - mine.budget
        assert ahead >= 0
        for _ in range(2 * ahead):
            one_line.stream.field_vec(p, g)
        assert mine.stream.next_u64() == one_line.stream.next_u64()
        out.append((takes, mine.budget, used, ahead))
    return out


@pytest.mark.parametrize("deg", [2, 3, 4])
def test_harvest_rounds_match_one_line_a_round(ctx, deg):
    p, g = ctx.p, ctx.g
    draw = Stream(deg, "harvest forms")
    forms = [draw.field_vec(p, mono.count(g, deg)) for _ in range(3)]
    # the oracle's takes: half the zero probes, then what is missing
    got = same_harvests(forms, deg, g, p,
                        lambda k: Stream(k, f"harvest{deg}"), 75, 400,
                        [25, 7, 1, 40])
    assert all(used == 73 for _, _, used, _ in got)
    assert any(ahead for _, _, _, ahead in got)


@pytest.mark.parametrize("deg", [2, 4])
def test_budget_smaller_than_a_round(ctx, deg):
    p, g = ctx.p, ctx.g
    form = Stream(deg, "short budget").field_vec(p, mono.count(g, deg))
    (takes, budget, used, _), = same_harvests(
        [form], deg, g, p, lambda k: Stream(k, "short budget"), 25, 3,
        [25, 25])
    assert budget == 0 and used == sum(map(len, takes)) <= 3 * deg


@pytest.mark.parametrize("deg", [3, 4])
def test_line_inside_and_root_at_infinity(ctx4, deg):
    """The form z0 G: the stub's first line lies in it and gives no point,
    its second line ends on it and gives that end as the root at
    infinity."""
    p, g = ctx4.p, ctx4.g
    z0 = np.zeros(g, dtype=np.int64)
    z0[mono.index_map(g, 1)[(1,) + (0,) * (g - 1)]] = 1
    rest = Stream(deg, "z0 times").field_vec(p, mono.count(g, deg - 1))
    form = mono.mul_forms(z0, 1, rest, deg - 1, g, p)
    stub = InsideFirst(0, "inside")
    ends = np.stack([stub.field_vec(p, g) for _ in range(4)])
    found = cv.line_zeros(form, deg, g, ends[0::2], ends[1::2], p)
    assert found[0] == []
    assert found[1][-1].tolist() == alg.normalize_rows(ends[3], p).tolist()
    (_, _, used, _), = same_harvests(
        [form], deg, g, p, lambda k: InsideFirst(0, "inside"), 10, 400,
        [10])
    assert used == 10


@pytest.mark.parametrize("name", ["ctx4", "ctx5"])
def test_harvests_read_ahead_only_on_their_own_streams(name, request,
                                                       monkeypatch):
    """The certificates of two cones, made where they are reconstructed
    (`SuiteInputs.cones`, criterion 5's oracle probes), and one
    `certify_polars` (criterion 7) on them: every take hands out the
    points of the one-line harvest (`reference.ZeroHarvest`) started where
    the harvest started, in the same order; a take of one point draws no
    line that harvest does not; and a stream that a harvest reads ahead on
    is drawn by that harvest alone, from its takes."""
    ctx = request.getfixturevalue(name)
    cfg = acc.SuiteConfig(seed=31, reconstructions=2)
    real_take = cv.ZeroHarvest.take
    real_next = Stream.next_u64
    drawers = {}            # (seed, tag) -> id of each harvest drawing
                            # on it, None for any other code
    one_line = {}           # id(harvest) -> (harvest, its one-line twin)
    ahead = set()           # the streams some harvest read ahead on
    recording = [True]

    def next_u64(self):
        if recording[0]:
            frame = sys._getframe(1)
            while frame is not None and not (
                    frame.f_code is real_take.__code__
                    and frame.f_locals["self"].stream is self):
                frame = frame.f_back
            drawers.setdefault((self.seed, self.tag), set()).add(
                frame and id(frame.f_locals["self"]))
        return real_next(self)

    def take(self, n):
        if id(self) not in one_line:
            one_line[id(self)] = self, reference.ZeroHarvest(
                self.coeffs, self.deg, self.g, self.p, copy.copy(self.stream),
                self.count, self.budget)
        twin = one_line[id(self)][1]
        budgets = self.budget, twin.budget
        got = yield from real_take(self, n)
        recording[0] = False
        want, = lockstep([twin.take(n)])
        recording[0] = True
        assert [pt.tolist() for pt in got] == [pt.tolist() for pt in want]
        assert self.budget <= twin.budget
        if n == 1:
            assert budgets[0] - self.budget <= budgets[1] - twin.budget
        if self.budget < twin.budget:
            ahead.add((self.stream.seed, self.stream.tag))
        return got

    monkeypatch.setattr(Stream, "next_u64", next_u64)
    monkeypatch.setattr(cv.ZeroHarvest, "take", take)
    cones = acc.SuiteInputs(ctx, cfg).cones
    recon_ahead = set(ahead)
    assert acc.criterion_reconstruction(ctx, cfg, cones).ok
    assert acc.criterion_polars(ctx, cfg, cones).ok
    monkeypatch.undo()
    assert all(c.certificate["oracle_points"] >= cfg.oracle_points
               for c in cones)
    assert recon_ahead
    assert all(key[1].endswith("/zeros") for key in ahead)
    for key in ahead:
        assert len(drawers[key]) == 1 and None not in drawers[key], key
