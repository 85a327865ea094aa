"""One draw per random object: `Stream.combination`, `panel_pair` and the
isotropic vertex loop of `cone.degenerate_net` make the draws of the
inline code they replace (kept in `reference`), and a genus-5 slice tries
one chart."""

import numpy as np
import pytest

from curvecones import algebra as alg, cone as cn, curve as cv
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
        raise ValueError("zero eliminant")

    monkeypatch.setattr(Stream, "field_mat", counted)
    monkeypatch.setattr(alg, "resultant_bivariate", unusable)
    h = Stream(5, "one-chart").field_vec(ctx5.p, 5)
    assert cv.hyperplane_section(ctx5.curve, h) == []
    assert charts == [(4, 4)]
