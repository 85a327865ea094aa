"""Nets: vertex, degeneracy test, plane image, membership oracles."""

from types import SimpleNamespace

import numpy as np
import pytest

from curvecones import algebra as alg, cone as cn, curve as cv
from curvecones import errors, monomials as mono, net as nt
from curvecones.errors import (AmbiguousFit, CorankJump, CurveConesError,
                               InadmissiblePencil, InconsistentSystem,
                               InVertex, RankDeficientW)
from curvecones.rng import Stream

import reference
from reference import assert_same_draws, solve_consistent, stream_draws

P = 1000003


class TestBuildNet:
    def test_vertex_annihilates(self, ctx4, ctx5):
        for ctx in (ctx4, ctx5):
            net = nt.random_net(ctx, Stream(1, f"n{ctx.g}"))
            assert net.wperp.shape == (ctx.g - 3, ctx.g)
            assert not (net.w @ net.wperp.T % P).any()

    def test_rank_deficient_rejected(self, ctx4):
        w = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0, 0]],
                     dtype=np.int64)
        with pytest.raises(RankDeficientW):
            nt.build_net(ctx4, w)

    def test_base_point_net_is_degenerate(self, ctx4, ctx5):
        # a net of sections through a curve point has that base point, and
        # base-point nets sit inside the degeneracy divisor
        for ctx in (ctx4, ctx5):
            forms = alg.kernel_basis(ctx.panel[0].reshape(1, ctx.g), P)
            net = nt.build_net(ctx, forms[:3])
            assert net.in_b is True
            assert net.in_d is True

    def test_restriction_dimension_identity(self, ctx4, ctx5):
        for ctx in (ctx4, ctx5):
            net = nt.random_net(ctx, Stream(2, f"n{ctx.g}"))
            res = nt.res_matrix(ctx, net.wperp)
            expected = (ctx.g - 2) * (ctx.g - 3) // 2
            assert res.shape == (expected, expected)
            assert ctx.ideal(2).dim == expected

    def test_genus4_membership_is_vertex_on_quadric(self, ctx4):
        # independent oracle: evaluate the unique ideal quadric at the vertex
        quadric = ctx4.ideal(2).basis[0]
        stream = Stream(3, "w")
        for _ in range(8):
            w = stream.field_mat(P, 3, 4)
            if alg.rank(w, P) != 3:
                continue
            net = nt.build_net(ctx4, w)
            on_quadric = mono.form_eval_one(quadric, net.wperp[0], 4, 2, P) \
                == 0
            assert net.in_d == on_quadric
        # engineered membership: vertex taken on the quadric itself
        chart = ctx4.curve.ruling_chart
        a, b = chart.line_at([stream.field(P)])
        vertex = (a[0] + 3 * b[0]) % P
        net = nt.net_from_vertex(ctx4, vertex)
        assert mono.form_eval_one(quadric, net.wperp[0], 4, 2, P) == 0
        assert net.in_d is True

    def test_degeneracy_certificate_contains_vertex(self, ctx4, ctx5):
        for ctx in (ctx4, ctx5):
            net = cn.degenerate_net(ctx, Stream(4, f"d{ctx.g}"))
            cert = net.d_certificate
            assert cert is not None
            restricted = mono.restrict(cert, 2, ctx.g, net.wperp.T, P)
            assert not restricted.any()


def net_values(nets):
    """Nets as lists, or the class and message of their exception."""
    return [(type(n), str(n)) if isinstance(n, CurveConesError)
            else (n.w.tolist(), n.wperp.tolist(), n.in_b, n.in_d,
                  None if n.d_certificate is None
                  else n.d_certificate.tolist())
            for n in nets]


def one_net(build, ctx, w):
    try:
        return net_values([build(ctx, w)])[0]
    except CurveConesError as exc:
        return type(exc), str(exc)


class TestBuildNets:
    """`build_nets` against the one-basis chain, basis by basis."""

    @pytest.mark.parametrize("name", ["ctx4", "ctx5", "ctx4_max"])
    def test_mixed_stack(self, name, request):
        ctx = request.getfixturevalue(name)
        p, g = ctx.p, ctx.g
        stream = Stream(120, f"nets-{name}")
        mix = stream.field_mat(p, 3, 3)
        generic = [stream.field_mat(p, 3, g) for _ in range(4)]
        deficient = generic[0].copy()
        deficient[2] = (deficient[0] + 5 * deficient[1]) % p
        through_panel = mix @ alg.kernel_basis(ctx.panel[:1], p)[:3] % p
        through_holdout = mix @ alg.kernel_basis(ctx.holdout[1:2], p)[:3] % p
        in_d = mix @ cn.degenerate_net(ctx, Stream(121, name)).w % p
        ws = np.stack(generic + [deficient, through_panel, through_holdout,
                                 in_d])
        want = [one_net(reference.build_net, ctx, w) for w in ws]
        assert net_values(nt.build_nets(ctx, ws)) == want
        assert [one_net(nt.build_net, ctx, w) for w in ws] == want
        assert want[4] == (RankDeficientW, "net basis must have rank 3")
        assert [w[2] for w in want[:4] + want[5:]] \
            == [False] * 4 + [True, True, False]
        assert want[7][3] is True and want[7][4] is not None
        assert nt.build_nets(ctx, np.zeros((0, 3, g))) == []


class TestGamma:
    def test_unique_fit_and_holdout(self, ctx4, ctx5):
        for ctx in (ctx4, ctx5):
            net = nt.random_net(ctx, Stream(5, f"g{ctx.g}"))
            gamma = nt.gamma_equation(ctx, net)
            assert gamma.degree == 2 * ctx.g - 2
            for pt in ctx.holdout[:10]:
                u = net.w @ pt % P
                assert mono.form_eval_one(gamma.coeffs, u, 3,
                                          gamma.degree, P) == 0

    def test_base_point_net_has_no_plane_image(self, ctx4):
        from curvecones.errors import AmbiguousFit
        forms = alg.kernel_basis(ctx4.panel[0].reshape(1, 4), P)
        net = nt.build_net(ctx4, forms[:3])
        with pytest.raises(AmbiguousFit):
            nt.gamma_equation(ctx4, net)


def fit_value(fit):
    """A plane image fit as lists, or the class and message of its
    exception."""
    if isinstance(fit, CurveConesError):
        return type(fit), str(fit)
    return fit.degree, fit.coeffs.tolist()


def reference_fit(ctx, net):
    try:
        return fit_value(reference.gamma_equation(ctx, net))
    except CurveConesError as exc:
        return fit_value(exc)


def planted(ctx, panel):
    """The fields of ctx that `gamma_equations` reads, with another
    panel."""
    return SimpleNamespace(p=ctx.p, g=ctx.g, panel=np.asarray(panel))


class TestRandomNets:
    """`random_nets` against `reference.random_net`, one draw at a time."""

    @pytest.mark.parametrize("genus", [4, 5])
    def test_same_nets_and_draws(self, genus, request, monkeypatch):
        ctx = request.getfixturevalue(f"ctx{genus}")
        tags = [f"random{genus}-{k}" for k in range(4)]
        got, got_draws = stream_draws(monkeypatch, lambda: nt.random_nets(
            ctx, [Stream(29, tag) for tag in tags]))
        want, want_draws = stream_draws(monkeypatch, lambda: [
            reference.random_net(ctx, Stream(29, tag)) for tag in tags])
        assert net_values(got) == net_values(want)
        assert [net.gamma.coeffs.tolist() for net in got] \
            == [net.gamma.coeffs.tolist() for net in want]
        # a first `restrict` of a shape may draw its nodes from a stream
        # of its own, so only the net streams are compared
        assert [got_draws[tag] for tag in tags] \
            == [want_draws[tag] for tag in tags]

    def test_one_round_a_draw_and_the_exhaustion(self, ctx4, monkeypatch):
        rounds = count_calls(monkeypatch, nt, "build_nets")
        monkeypatch.setattr(nt, "usable", lambda ctx, nets: [None] * len(nets))
        out = nt.random_nets(ctx4, [Stream(30, "a"), Stream(30, "b")])
        assert [(type(e), str(e)) for e in out] == [
            (errors.DegenerateInput,
             "generic net: no usable draw in 200 attempts")] * 2
        assert [len(ws) for _, ws in rounds] == [2] * 200


NO_FIT = "no unique plane curve of degree 6 through the projected points"


class TestPlaneImageFit:
    """`gamma_equations` (the Bezout-sized subset, checked on every row)
    against the kernel of all rows, `reference.gamma_equation`."""

    @pytest.mark.parametrize("name", ["ctx4", "ctx5", "ctx4_max"])
    def test_round_matches_full_rows(self, name, request):
        ctx = request.getfixturevalue(name)
        p, g = ctx.p, ctx.g
        stream = Stream(130, f"fit-{name}")
        ws = [stream.field_mat(p, 3, g) for _ in range(9)]
        ws.insert(2, alg.kernel_basis(ctx.panel[:1], p)[:3])
        nets = nt.build_nets(ctx, ws)
        nets.insert(5, cn.degenerate_net(ctx, Stream(131, name)))
        assert [net.in_b for net in nets] == [False, False, True] + [False] * 8
        assert nets[5].in_d
        want = [reference_fit(ctx, net) for net in nets]
        fits = nt.gamma_equations(ctx, nets)
        assert [fit_value(fit) for fit in fits] == want
        assert want[2][0] is AmbiguousFit
        assert sum(isinstance(fit, nt.PlaneCurve) for fit in fits) == 10
        assert [net.gamma for net in nets] == [
            fit if isinstance(fit, nt.PlaneCurve) else None for fit in fits]
        # a fitted net is not fitted again
        again = nt.gamma_equations(ctx, nets[:4])
        assert again[0] is nets[0].gamma and again[3] is nets[3].gamma
        assert nt.gamma_equation(ctx, nets[0]) is nets[0].gamma

    @pytest.mark.parametrize("at", ["first", "last"])
    def test_point_off_the_image_leaves_no_fit(self, ctx4, at):
        # a panel point that projects off the image, sorted into the
        # subset (its kernel is zero) or after it (the check fails): no
        # fit either way, where the kernel of all rows is zero
        p = ctx4.p
        net = nt.build_nets(ctx4, [Stream(132, "off").field_mat(p, 3, 4)])[0]
        gamma = reference.gamma_equation(ctx4, net)
        u = np.array([0, 0, 1] if at == "first" else [1, p - 1, p - 1])
        assert mono.form_eval_one(gamma.coeffs, u, 3, 6, p) != 0
        ctx = planted(ctx4, np.vstack([ctx4.panel,
                                       solve_consistent(net.w, u, p)]))
        want = reference_fit(ctx, net)
        assert want == (AmbiguousFit, NO_FIT)
        assert fit_value(nt.gamma_equations(ctx, [net])[0]) == want
        with pytest.raises(AmbiguousFit, match=NO_FIT):
            nt.gamma_equation(ctx, net)
        assert net.gamma is None

    def test_too_few_points(self, ctx4, ctx5):
        net4 = nt.build_nets(ctx4, [Stream(133, "few").field_mat(
            ctx4.p, 3, 4)])[0]
        ctx = planted(ctx4, ctx4.panel[:30])
        assert reference_fit(ctx, net4) == fit_value(
            nt.gamma_equations(ctx, [net4])[0]) == (
                AmbiguousFit, "only 30 projected points, need 38")
        # at genus 5, 60 points fix the 45 coefficients but not the image
        # by Bezout, which takes 8**2 + 1 = 65; from 65 on, the subset fit
        # is the fit of the whole panel
        net5 = nt.build_nets(ctx5, [Stream(133, "few").field_mat(
            ctx5.p, 3, 5)])[0]
        ctx = planted(ctx5, ctx5.panel[:60])
        assert reference_fit(ctx, net5) == fit_value(
            nt.gamma_equations(ctx, [net5])[0]) == (
                AmbiguousFit, "only 60 projected points, need 65")
        ctx = planted(ctx5, ctx5.panel[:65])
        want = reference_fit(ctx5, net5)
        assert want[0] == 8
        assert fit_value(nt.gamma_equations(ctx, [net5])[0]) == want

    def test_mixed_round_in_order(self, ctx4):
        # one panel point x off the curve: the nets whose vertex is x drop
        # it and fit, every other net sees it off its image
        p = ctx4.p
        stream = Stream(134, "mixed")
        x = stream.field_vec(p, 4)
        through_x = alg.kernel_basis(x[None], p)
        generic = [stream.field_mat(p, 3, 4) for _ in range(4)]
        ws = [stream.field_mat(p, 3, 3) @ through_x % p for _ in range(3)]
        ws[1:1] = generic[:2]
        ws += [alg.kernel_basis(ctx4.panel[:1], p)[:3]] + generic[2:]
        nets = nt.build_nets(ctx4, ws)
        nets.insert(4, cn.degenerate_net(ctx4, Stream(135, "mixed")))
        cached = nt.random_net(ctx4, Stream(136, "mixed"))
        nets.insert(7, cached)
        ctx = planted(ctx4, np.vstack([ctx4.panel, x]))
        fits = nt.gamma_equations(ctx, nets)
        assert len(fits) == len(nets) == 10
        assert fits[7] is cached.gamma
        kinds = [fit.degree if isinstance(fit, nt.PlaneCurve) else str(fit)
                 for fit in fits]
        base = "projection is not a morphism: net has a base point"
        assert kinds == [6, NO_FIT, NO_FIT, 6, NO_FIT, 6, base, 6, NO_FIT,
                         NO_FIT]
        for k, net in enumerate(nets):
            if k != 7:
                assert fit_value(fits[k]) == reference_fit(ctx, net)
        assert nets[4].in_d and nets[6].in_b


class TestOracles:
    def test_well_defined_modulo_pencil(self, ctx4):
        net = nt.random_net(ctx4, Stream(6, "o"))
        stream = Stream(7, "b")
        b = stream.field_vec(P, 4)
        wit = nt.oracle_witness(ctx4, net, b)
        base_b = int(wit.b @ wit.y % P)
        x = net.wperp[0]
        base_x = int(x @ wit.y % P)
        for _ in range(5):
            shift = (stream.field(P) * wit.v_b[0]
                     + stream.field(P) * wit.v_b[1]) % P
            y2 = (wit.y + shift) % P
            assert int(wit.b @ y2 % P) == base_b
            assert int(x @ y2 % P) == base_x

    def test_scalar_robustness(self, ctx4):
        net = nt.random_net(ctx4, Stream(8, "o"))
        b = Stream(9, "b").field_vec(P, 4)
        assert nt.fw_oracle(ctx4, net, b) == nt.fw_oracle(ctx4, net,
                                                          11 * b % P)

    def test_random_points_off_the_cone(self, ctx4):
        net = nt.random_net(ctx4, Stream(10, "o"))
        stream = Stream(11, "b")
        hits = 0
        for _ in range(20):
            if nt.fw_oracle(ctx4, net, stream.field_vec(P, 4)):
                hits += 1
        assert hits == 0

    @pytest.mark.parametrize("name", ["ctx4", "ctx5", "ctx4_max",
                                      "ctx5_max"])
    def test_probes_over_the_plane_image_are_refused(self, name, request):
        # the oracle evaluates no plane image: a probe over it is refused
        # by the pencil's base-point test when it projects from a context
        # point, else by the product space or the cup Gram's corank
        ctx = request.getfixturevalue(name)
        p, g = ctx.p, ctx.g
        stream = Stream(12, name)
        net = nt.random_net(ctx, stream.spawn("net"))
        known = {tuple(pt.tolist()) for pt in ctx.points}
        outside = [pt for pt in cv.sample_points(ctx.curve,
                                                 len(ctx.points) + 40)
                   if tuple(pt.tolist()) not in known][:8]
        assert len(outside) == 8
        inside = [ctx.panel[3], ctx.panel[-1], ctx.holdout[0]]
        pts = inside + outside
        # c + (a combination of the vertex rows) lies in the fiber of c
        shifted = [(pt + stream.field_vec(p, g - 3) @ net.wperp) % p
                   for pt in pts]
        wits = nt.oracle_batch(ctx, [net] * (2 * len(pts)), pts + shifted)
        kinds = [(type(w), str(w)) for w in wits]
        base_point = [(InadmissiblePencil, "pencil has a base point on the "
                       + ("holdout panel" if k == 2 else "panel"))
                      for k in range(len(inside))]
        refused = {(InadmissiblePencil,
                    "product space does not have codimension 1"),
                   (CorankJump, "cup Gram corank is not 2")}
        for half in (kinds[:len(pts)], kinds[len(pts):]):
            assert half[:len(inside)] == base_point
            assert set(half[len(inside):]) <= refused

    def test_vertex_rejected(self, ctx4):
        net = nt.random_net(ctx4, Stream(13, "o"))
        with pytest.raises(InVertex):
            nt.fw_oracle(ctx4, net, net.wperp[0])

    def test_polar_requires_vertex_vector(self, ctx4):
        net = nt.random_net(ctx4, Stream(14, "o"))
        b = Stream(15, "b").field_vec(P, 4)
        with pytest.raises(ValueError):
            nt.polar_oracle(ctx4, net, np.zeros(4, dtype=np.int64), b)
        with pytest.raises(ValueError):
            nt.polar_oracle(ctx4, net, np.array([1, 2, 3, 4]), b)


def reference_value(ctx, net, b):
    """The membership oracle as one scalar elimination chain: the pencil's
    products and the cup Gram come from panel values read back through
    `reference.coords`, not from the context's structure constants.  Returns
    <b, y>, or the class of the exception the oracle raises."""
    p, g = ctx.p, ctx.g
    b = np.asarray(b, dtype=np.int64) % p
    if not b.any() or alg.RowSpace(net.wperp, p).contains(b):
        return InVertex
    u = net.w @ b % p
    v = alg.rref(nt.pencil_at(net.w, u, p)[0], p)[0][:2]
    for pts in (ctx.panel, ctx.holdout):
        if (~(pts @ v.T % p).any(axis=1)).any():
            return InadmissiblePencil
    piece2 = ctx.piece(2)
    basis2 = piece2.eval_matrix[:, piece2.basis_cols]
    products = np.concatenate([(basis2 * (ctx.panel @ s % p)[:, None] % p).T
                               for s in v])
    functionals = alg.kernel_basis(reference.coords(ctx, 3, products), p)
    if functionals.shape[0] != 1:
        return InadmissiblePencil
    vbar = reference.normalize(functionals[0], p)
    lift = net.w[alg.first_nonzero(u)]
    iu, ju = np.triu_indices(g)
    values = (ctx.panel @ lift % p)[:, None] * ctx.panel[:, iu] % p \
        * ctx.panel[:, ju] % p
    gram = np.zeros((g, g), dtype=np.int64)
    gram[iu, ju] = gram[ju, iu] = reference.coords(ctx, 3, values.T) @ vbar % p
    if g - alg.rank(gram, p) != 2:
        return CorankJump
    try:
        y = solve_consistent(gram, b, p)
    except InconsistentSystem:
        return InconsistentSystem
    return int(b @ y % p)


def batch_values(ctx, nets, probes):
    return [type(wit) if isinstance(wit, CurveConesError)
            else int(wit.b @ wit.y % ctx.p)
            for wit in nt.oracle_batch(ctx, nets, probes)]


class TestOracleBatch:
    """The batched witness against the scalar chain, probe by probe."""

    @pytest.mark.parametrize("genus", [4, 5])
    def test_random_and_degenerate_nets(self, genus, request):
        ctx = request.getfixturevalue(f"ctx{genus}")
        p = ctx.p
        net = nt.random_net(ctx, Stream(20, f"batch{genus}"))
        degenerate = cn.degenerate_net(ctx, Stream(21, f"batch{genus}"))
        stream = Stream(22, f"probes{genus}")
        probes, nets = [], []
        for net_obj in (net, degenerate):
            special = [np.zeros(ctx.g, dtype=np.int64), net_obj.wperp[0],
                       3 * net_obj.wperp[-1] % p, ctx.panel[3]]
            randoms = [stream.field_vec(p, ctx.g) for _ in range(6)]
            probes += special + randoms
            nets += [net_obj] * (len(special) + len(randoms))
        expected = [reference_value(ctx, n, b) for n, b in zip(nets, probes)]
        assert batch_values(ctx, nets, probes) == expected
        # one net per call, and one probe per call
        half = len(probes) // 2
        assert batch_values(ctx, nets[:half], probes[:half]) == expected[:half]
        for n, b, want in zip(nets, probes, expected):
            assert batch_values(ctx, [n], [b]) == [want]
        # every failure the probes were chosen for occurs, and values too
        assert {k for k in expected if not isinstance(k, int)} == {
            InVertex, InadmissiblePencil, CorankJump}
        assert any(isinstance(k, int) for k in expected)

    def test_scalar_oracle_raises_the_batch_exception(self, ctx4):
        net = nt.random_net(ctx4, Stream(23, "o"))
        for b, cls in ((np.zeros(4, dtype=np.int64), InVertex),
                       (net.wperp[0], InVertex),
                       (ctx4.panel[5], InadmissiblePencil)):
            with pytest.raises(cls):
                nt.oracle_witness(ctx4, net, b)
        assert nt.oracle_batch(ctx4, [], []) == []


def witness_values(wits):
    """Oracle witnesses as lists, or the class and message of their
    exception."""
    return [(type(w), str(w)) if isinstance(w, CurveConesError)
            else (w.b.tolist(), w.v_b.tolist(), w.y.tolist(), w.gram.tolist())
            for w in wits]


def count_calls(monkeypatch, owner, name):
    """The calls made to owner.name, appended to the returned list."""
    calls = []
    real = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestPassCells:
    """A pass size never changes a result: `PASS_CELLS` at 1 makes passes
    of one probe or net, at 10**9 one pass."""

    @pytest.mark.parametrize("genus", [4, 5])
    def test_oracle_batch(self, genus, request, monkeypatch):
        ctx = request.getfixturevalue(f"ctx{genus}")
        p = ctx.p
        nets = [nt.random_net(ctx, Stream(24, f"cells{genus}")),
                cn.degenerate_net(ctx, Stream(25, f"cells{genus}"))]
        stream = Stream(26, f"cells{genus}")
        probes = [np.zeros(ctx.g, dtype=np.int64), nets[1].wperp[0],
                  ctx.panel[3]] + [stream.field_vec(p, ctx.g)
                                   for _ in range(97)]
        owners = [nets[k % 2] for k in range(100)]
        passes = count_calls(monkeypatch, nt, "_witness_pass")
        results = []
        for cells, want in ((1, 100), (10 ** 9, 1)):
            monkeypatch.setattr(nt, "PASS_CELLS", cells)
            passes.clear()
            results.append(witness_values(nt.oracle_batch(ctx, owners,
                                                          probes)))
            assert len(passes) == want
        assert results[0] == results[1]
        assert results[0][:3] == [
            (InVertex, "zero probe vector"),
            (InVertex, "probe lies on the vertex"),
            (InadmissiblePencil, "pencil has a base point on the panel")]
        assert sum(isinstance(r[0], list) for r in results[0]) > 40

    @pytest.mark.parametrize("genus", [4, 5])
    def test_gamma_equations(self, genus, request, monkeypatch):
        ctx = request.getfixturevalue(f"ctx{genus}")
        stream = Stream(27, f"cells{genus}")
        ws = [stream.field_mat(ctx.p, 3, ctx.g) for _ in range(10)]
        passes = count_calls(monkeypatch, nt, "_gamma_pass")
        fits = []
        for cells, want in ((1, 10), (10 ** 9, 1)):
            monkeypatch.setattr(nt, "PASS_CELLS", cells)
            passes.clear()
            # fresh nets, as a net keeps its fit
            fits.append([fit_value(fit) for fit in nt.gamma_equations(
                ctx, nt.build_nets(ctx, ws))])
            assert len(passes) == want
        assert fits[0] == fits[1]
        assert all(fit[0] == 2 * ctx.g - 2 for fit in fits[0])


def test_plane_points_match_unique_rows():
    """`plane_points` keys each normalized point by one integer; it gives
    the points that `np.unique` of the normalized rows gives, at the
    largest prime and the largest key, 2 p**2 - 1."""
    p = 33554393
    stream = Stream(28, "keys")
    pts = stream.field_mat(p, 40, 3)
    pts[::5, 0] = 0
    pts[:4] = [[0, 0, 1], [0, 1, p - 1], [1, p - 1, p - 1], [1, 0, 0]]
    u = np.concatenate([pts, 7 * pts[::3] % p, (p - 1) * pts[::4] % p,
                        pts[1::2]])
    got = nt.plane_points(u, p)
    want = np.unique(alg.normalize_rows(u, p), axis=0)
    assert len(want) == 40 < len(u)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()


class TestAgreementRounds:
    """`cone.oracle_agreement` draws and judges exactly the probes of the
    loop that asks the oracle one probe at a time."""

    @staticmethod
    def sequential(ctx, net, coeffs, stream, count, x=None):
        """The one-probe-at-a-time loop, on the scalar oracles."""
        p = ctx.p
        deg = 4 if x is None else 3
        zero_half = count // 2
        zeros = cn.points_on_form(ctx, coeffs, deg, stream.spawn("zeros"),
                                  3 * zero_half)
        verdicts = []

        def probe(b, expected, wanted):
            val = nt.fw_oracle(ctx, net, b) if x is None \
                else nt.polar_oracle(ctx, net, x, b)
            verdicts.append(val == expected)
            return verdicts if len(verdicts) == wanted else None

        def zero_probe(_):
            b = next(zeros, None)
            return None if b is None else probe(b, True, zero_half)

        def random_probe(_):
            b = stream.field_vec(p, ctx.g)
            if not b.any():
                return None
            expected = mono.form_eval_one(coeffs, b, ctx.g, deg, p) == 0
            return probe(b, expected, count)

        errors.Draws("zero probes", 3 * zero_half, zero_probe).take(1)
        errors.Draws("random probes", 40 * count, random_probe).take(1)
        return len(verdicts), verdicts.count(False)

    @pytest.fixture(scope="class")
    def cone(self, ctx4):
        net = nt.random_net(ctx4, Stream(30, "rounds"))
        return cn.reconstruct_quartic(ctx4, net, oracle_points=0)

    @staticmethod
    def skipping(monkeypatch, every):
        """Make the oracle find every `every`-th distinct probe degenerate
        (by a fixed rule on the vector), so rounds come up short."""
        real = nt.oracle_batch

        def oracle_batch(ctx, nets, probes):
            out = real(ctx, nets, probes)
            return [InVertex("skipped") if int(np.sum(b)) % every == 0
                    else wit for b, wit in zip(probes, out)]

        monkeypatch.setattr(nt, "oracle_batch", oracle_batch)

    @pytest.mark.parametrize("polar", [False, True])
    @pytest.mark.parametrize("count", [0, 4, 50])
    @pytest.mark.parametrize("every", [0, 3])
    def test_draws_match_the_sequential_loop(self, ctx4, cone, monkeypatch,
                                             polar, count, every):
        net = cone.net
        x = net.wperp[0] if polar else None
        coeffs = cn.polar_cubic(ctx4, cone, x).coeffs if polar \
            else cone.coeffs
        if every:
            self.skipping(monkeypatch, every)
        calls = []
        batch = nt.oracle_batch

        def counted(ctx, nets, probes):
            calls.append(len(probes))
            return batch(ctx, nets, probes)

        tag = f"agree{count}{polar}{every}"
        want, want_draws = stream_draws(monkeypatch, lambda: self.sequential(
            ctx4, net, coeffs, Stream(31, tag), count, x))
        monkeypatch.setattr(nt, "oracle_batch", counted)
        got, got_draws = stream_draws(monkeypatch, lambda: cn.oracle_agreement(
            ctx4, net, coeffs, Stream(31, tag), count, x))
        assert got == want
        assert_same_draws(got_draws, want_draws)
        if count:
            assert set(want_draws) == {tag, f"{tag}/zeros"}
            assert got[0] == count
            # skips need further rounds; without them one call does it all
            assert (len(calls) > 1) == bool(every)

    def test_failure_after_the_last_needed_verdict_is_never_raised(
            self, ctx4, cone, monkeypatch):
        net = cone.net
        count = 4
        stream = Stream(32, "poison")
        want = cn.oracle_agreement(ctx4, net, cone.coeffs, stream, count)
        # the random probe the loop would draw after its last verdict
        poison = stream.field_vec(ctx4.p, ctx4.g)
        real = nt.oracle_batch

        def oracle_batch(ctx, nets, probes):
            out = real(ctx, nets, probes)
            return [InconsistentSystem("planted")
                    if (b % ctx.p == poison).all() else wit
                    for b, wit in zip(probes, out)]

        monkeypatch.setattr(nt, "oracle_batch", oracle_batch)
        assert cn.oracle_agreement(ctx4, net, cone.coeffs,
                                   Stream(32, "poison"), count) == want
        # planted on a probe the loop does judge, it is raised
        used = Stream(32, "poison").field_vec(ctx4.p, ctx4.g)
        poison = used
        with pytest.raises(InconsistentSystem):
            cn.oracle_agreement(ctx4, net, cone.coeffs, Stream(32, "poison"),
                                count)
