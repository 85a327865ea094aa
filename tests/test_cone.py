"""Quartic reconstruction, polars, secants, tangent lines."""

import sys

import numpy as np
import pytest

from curvecones import algebra as alg, cone as cn, curve as cv
from curvecones import errors, monomials as mono, net as nt, pencil as pc
from curvecones.errors import (CorankJump, CurveConesError, DegenerateInput,
                               InadmissiblePencil, InconsistentSystem,
                               InVertex, NonGenericD,
                               UnderdeterminedReconstruction,
                               VerificationFailed)
from curvecones.rng import Stream

import reference
from reference import (assert_same_draws, poly_mul, solve_consistent,
                       stream_draws)

P = 1000003


@pytest.fixture(scope="module")
def net4(ctx4):
    return nt.random_net(ctx4, Stream(100, "cone-tests"))


@pytest.fixture(scope="module")
def cone4(ctx4, net4):
    return cn.reconstruct_quartic(ctx4, net4, oracle_points=20)


class TestSplitFiber:
    def test_gram_symmetric_and_sized(self, ctx4, net4):
        fiber = cn.split_fiber(ctx4, net4,
                               nt.pencil_at(net4.w, np.array([1, 2, 3]), P))
        assert fiber.gram.shape == (2, 2)
        assert (fiber.gram == fiber.gram.T).all()
        assert fiber.ell.shape == (2,)

    def test_oracle_matches_residual_quadric(self, ctx4, net4):
        # dual routes: the membership oracle against the fiber quadric value
        fiber = cn.split_fiber(ctx4, net4,
                               nt.pencil_at(net4.w, np.array([1, 1, 2]), P))
        stream = Stream(101, "c")
        checked = 0
        while checked < 10:
            c = stream.field_vec(P, 2)
            if int(fiber.ell @ c % P) == 0:
                continue
            b = c @ fiber.vperp % P
            if not b.any():
                continue
            try:
                val = nt.fw_oracle(ctx4, net4, b)
            except DegenerateInput:
                continue
            assert val == (int(c @ fiber.gram @ c % P) == 0)
            checked += 1


def reference_fiber(ctx, net_obj, v):
    """The fiber as one pencil's scalar elimination chain, from the scalar
    `reference.build_pencil` (not the engine's admissibility test, which
    `split_fibers` shares): (vperp, ell, gram) as lists, or the class and
    message of the exception it raises."""
    p = ctx.p
    try:
        pen = reference.build_pencil(ctx, v)
        if not all(map(alg.RowSpace(net_obj.w, p).contains, pen.v)):
            raise InadmissiblePencil("pencil does not sit inside the net")
        pencil_span = alg.RowSpace(pen.v, p)
        w = next(row for row in net_obj.w if not pencil_span.contains(row))
        cg = pc.cup_gram(ctx, pen, w)
        if pc.corank(cg.gram, p) != 2:
            raise CorankJump("pencil fiber meets the degeneracy divisor")
        vperp = alg.kernel_basis(pen.v, p)
        ys = [solve_consistent(cg.gram, row, p) for row in vperp]
        gram = vperp @ np.stack(ys).T % p
        if not (gram == gram.T).all():
            raise VerificationFailed("residual Gram failed exact symmetry")
        coords = [solve_consistent(vperp.T, x, p) for x in net_obj.wperp]
        ell = alg.kernel_basis(np.stack(coords), p)
        if ell.shape[0] != 1:
            raise CorankJump("vertex does not cut a hyperplane of the fiber")
    except CurveConesError as exc:
        return type(exc), str(exc)
    return (vperp.tolist(), reference.normalize(ell[0], p).tolist(),
            gram.tolist())


def fiber_values(results):
    return [(type(f), str(f)) if isinstance(f, CurveConesError)
            else (f.vperp.tolist(), f.ell.tolist(), f.gram.tolist())
            for f in results]


class TestSplitFibers:
    """The batched fibers against the scalar chain, pencil by pencil."""

    @pytest.mark.parametrize("name", ["ctx4", "ctx5", "ctx4_max", "ctx5_max"])
    def test_mixed_stacks(self, name, request):
        ctx = request.getfixturevalue(name)
        p, g = ctx.p, ctx.g
        net = nt.random_net(ctx, Stream(110, f"fibers{name}"))
        degenerate = cn.degenerate_net(ctx, Stream(111, f"fibers{name}"))
        stream = Stream(112, f"fiber-pencils{name}")
        kinds = set()
        for net_obj, other in ((net, degenerate), (degenerate, net)):
            us = [stream.field_vec(p, 3) for _ in range(5)]
            # net.w[0] lies in the pencil over (0, 1, 2): the lift is w[1]
            us += [np.array([0, 1, 2]), net_obj.w @ ctx.panel[4] % p,
                   net_obj.w @ ctx.holdout[2] % p]
            outside = stream.field_mat(p, 2, g)
            rank_one = np.stack([ctx.panel[1], 5 * ctx.panel[1] % p])
            vs = np.concatenate([
                nt.pencil_at(net_obj.w, np.stack(us), p), outside[None],
                rank_one[None], nt.pencil_at(other.w, us[0], p)[None]])
            expected = [reference_fiber(ctx, net_obj, v) for v in vs]
            assert fiber_values(cn.split_fibers(ctx, net_obj, vs)) \
                == expected
            for v, want in zip(vs, expected):
                assert fiber_values(cn.split_fibers(ctx, net_obj, v[None])) \
                    == [want]
                try:
                    got = fiber_values([cn.split_fiber(ctx, net_obj, v)])[0]
                except CurveConesError as exc:
                    got = (type(exc), str(exc))
                assert got == want
            kinds |= {k if isinstance(k[0], type) else "fiber"
                      for k in expected}
        assert {(InadmissiblePencil, "pencil basis must have rank 2"),
                (InadmissiblePencil, "pencil has a base point on the panel"),
                (InadmissiblePencil,
                 "pencil has a base point on the holdout panel"),
                (InadmissiblePencil, "pencil does not sit inside the net"),
                (CorankJump, "pencil fiber meets the degeneracy divisor"),
                "fiber"} <= kinds
        assert cn.split_fibers(ctx, net, np.zeros((0, 2, g))) == []

    @pytest.mark.parametrize("name", ["ctx4", "ctx5", "ctx4_max", "ctx5_max"])
    def test_one_net_per_pencil(self, name, request):
        """A stack that mixes the pencils of two nets against one call per
        net."""
        ctx = request.getfixturevalue(name)
        p = ctx.p
        nets = [nt.random_net(ctx, Stream(118, f"mix{name}")),
                cn.degenerate_net(ctx, Stream(119, f"mix{name}"))]
        stream = Stream(120, f"mix{name}")
        owner = [stream.integer(0, 2) for _ in range(12)]
        # pencils inside their own net, and two inside the other net
        vs = np.stack([nt.pencil_at(nets[k if i % 5 else 1 - k].w,
                                    stream.field_vec(p, 3), p)
                       for i, k in enumerate(owner)])
        got = fiber_values(cn.split_fibers(ctx, [nets[k] for k in owner], vs))
        want = [None] * len(owner)
        for k, net in enumerate(nets):
            mine = [i for i, o in enumerate(owner) if o == k]
            for i, fiber in zip(mine, fiber_values(
                    cn.split_fibers(ctx, net, vs[mine]))):
                want[i] = fiber
        assert got == want
        assert len({f[0] for f in want if isinstance(f[0], type)}) >= 1
        assert any(not isinstance(f[0], type) for f in want)


def one_net_outcome(run):
    """run()'s (coefficients, certificate items), or the class and message
    of the exception it raised or returned."""
    try:
        res = run()
    except CurveConesError as exc:
        res = exc
    if isinstance(res, CurveConesError):
        return type(res), str(res)
    if isinstance(res, cn.QuarticCone):
        res = res.coeffs, res.certificate
    return res[0].tolist(), list(res[1].items())


class TestReconstructRounds:
    """`reconstruct_quartics` and `verify_cones` give each net the cone,
    certificate or exception of the one-net chain, and make its draws."""

    @pytest.mark.parametrize("name", ["ctx4", "ctx5", "ctx4_max", "ctx5_max"])
    def test_mixed_stack(self, name, request, monkeypatch):
        ctx = request.getfixturevalue(name)
        nets = [nt.random_net(ctx, Stream(121, f"{name}{k}"))
                for k in range(3)]
        nets.insert(1, cn.degenerate_net(ctx, Stream(122, name)))
        # a third of the pencils of nets[2] fail; every fiber of nets[3]
        # is its first one, so its solution space stays more than
        # one-dimensional while it draws two fibers a round up to 20
        real = cn.split_fibers
        first = {}

        def planted(net, v, fiber):
            key = str(net.w.tolist())
            if net is nets[2] and int(v.sum()) % 3 == 0:
                return InadmissiblePencil("planted")
            if net is nets[3] and isinstance(fiber, cn.SplitFiber):
                return first.setdefault(key, fiber)
            return fiber

        def split_fibers(ctx, per, vs):
            per = [per] * len(vs) if isinstance(per, nt.Net) else per
            return [planted(net, v, fiber)
                    for net, v, fiber in zip(per, vs, real(ctx, per, vs))]

        monkeypatch.setattr(cn, "split_fibers", split_fibers)
        want, want_draws = stream_draws(monkeypatch, lambda: [
            one_net_outcome(lambda: reference.reconstruct_quartic(
                ctx, net, seed=5, oracle_points=6)) for net in nets])
        got, got_draws = stream_draws(monkeypatch, lambda: [
            one_net_outcome(lambda: res) for res in
            cn.reconstruct_quartics(ctx, nets, seed=5, oracle_points=6)])
        assert got == want
        assert_same_draws(*({k: n for k, n in draws.items()
                             if not k.startswith("restrict-nodes|")}
                            for draws in (got_draws, want_draws)))
        assert want[1] == (DegenerateInput,
                           "net lies on the degeneracy divisor")
        assert want[3][0] is UnderdeterminedReconstruction
        assert want[3][1].endswith("after 20 pencils")
        assert all(not isinstance(w[0], type) for w in want[:1] + want[2:3])
        # the cones again, certified together with other streams
        cones = [cn.QuarticCone(net=net, coeffs=np.array(w[0]))
                 for net, w in zip(nets, want) if not isinstance(w[0], type)]
        streams = [Stream(123, f"cert{k}") for k in range(len(cones))]
        assert [one_net_outcome(lambda: (c.coeffs, errors.value_of(cert)))
                for c, cert in zip(cones, cn.verify_cones(
                    ctx, cones, streams, oracle_points=8))] == [
            one_net_outcome(lambda: (c.coeffs, reference.verify_cone(
                ctx, c.net, c.coeffs, st, 8)))
            for c, st in zip(cones, streams)]

    def test_nine_nets_in_one_round(self, ctx4, monkeypatch):
        """Nine nets split their 54 first pencils in one `split_fibers` and
        reduce their 9 splitting systems in one `rref_batch`, and each gets
        the cone of the one-net chain, with its draws."""
        nets = nt.random_nets(ctx4, [Stream(124, f"nine{k}")
                                     for k in range(9)])
        want, want_draws = stream_draws(monkeypatch, lambda: [
            one_net_outcome(lambda: reference.reconstruct_quartic(
                ctx4, net, seed=7, oracle_points=6)) for net in nets])
        pencils, systems = [], []
        real_split, real_rref = cn.split_fibers, alg.rref_batch

        def split_fibers(ctx, per, vs):
            pencils.append(len(vs))
            return real_split(ctx, per, vs)

        def rref_batch(stack, p):
            if sys._getframe(1).f_code.co_name == "_kernels":
                systems.append(len(stack))
            return real_rref(stack, p)

        monkeypatch.setattr(cn, "split_fibers", split_fibers)
        monkeypatch.setattr(alg, "rref_batch", rref_batch)
        got, got_draws = stream_draws(monkeypatch, lambda: [
            one_net_outcome(lambda: res) for res in
            cn.reconstruct_quartics(ctx4, nets, seed=7, oracle_points=6)])
        assert got == want
        assert all(not isinstance(w[0], type) for w in want)
        assert_same_draws(*({k: n for k, n in draws.items()
                             if not k.startswith("restrict-nodes|")}
                            for draws in (got_draws, want_draws)))
        assert pencils[0] == 54
        assert systems[0] == 9

    def test_empty_stacks(self, ctx4):
        assert cn.reconstruct_quartics(ctx4, []) == []
        assert cn.verify_cones(ctx4, [], []) == []


def fresh_fibers(ctx, net, stream, count):
    """The chain `cone._fresh_fibers` run alone, raising its exception."""
    return errors.value_of(errors.lockstep(
        [cn._fresh_fibers(ctx, net, stream, count)])[0])


class TestFreshFiberRounds:
    """`cone._fresh_fibers` draws exactly the plane points of the loop that
    splits one pencil at a time."""

    @staticmethod
    def sequential(ctx, net, stream, count):
        """The one-pencil-at-a-time loop."""
        fibers = []

        def draw(_):
            u = stream.field_vec(ctx.p, 3)
            if not u.any():
                return None
            fibers.append(cn.split_fiber(ctx, net,
                                         nt.pencil_at(net.w, u, ctx.p)))
            return fibers if len(fibers) == count else None

        return errors.resample("admissible pencils", 120, draw)

    @staticmethod
    def failing(monkeypatch, every, exc=CorankJump):
        """Make split_fibers fail on every `every`-th pencil (by a fixed
        rule on the pencil), and count its calls."""
        real = cn.split_fibers
        calls = []

        def split_fibers(ctx, net_obj, vs):
            calls.append(len(vs))
            return [exc("planted") if int(np.sum(v)) % every == 0 else f
                    for v, f in zip(vs, real(ctx, net_obj, vs))]

        monkeypatch.setattr(cn, "split_fibers", split_fibers)
        return calls

    @staticmethod
    def outcome(run):
        try:
            return fiber_values(run())
        except CurveConesError as exc:
            return type(exc), str(exc)

    @pytest.mark.parametrize("count", [1, 2, 6])
    @pytest.mark.parametrize("every", [1, 2, 3, 10 ** 9])
    def test_draws_match_the_sequential_loop(self, ctx4, monkeypatch, count,
                                             every):
        net = nt.random_net(ctx4, Stream(113, "rounds"))
        calls = self.failing(monkeypatch, every)
        tag = f"fresh{count}-{every}"
        want, want_draws = stream_draws(monkeypatch, lambda: self.outcome(
            lambda: self.sequential(ctx4, net, Stream(114, tag), count)))
        calls.clear()
        got, got_draws = stream_draws(monkeypatch, lambda: self.outcome(
            lambda: fresh_fibers(ctx4, net, Stream(114, tag), count)))
        assert got == want
        assert got_draws == want_draws == {tag: got_draws[tag]}
        if every == 1:
            # every pencil fails: the 120 draws run out as before
            assert got == (DegenerateInput, "admissible pencils: no usable "
                           "draw in 120 attempts")
        else:
            # each round asks for as many pencils as fibers are missing
            assert calls[0] == count
            assert (len(calls) > 1) == (sum(calls) > count)
            if every == 2 and count == 6:
                assert len(calls) > 1

    def test_other_errors_are_raised(self, ctx4, monkeypatch):
        net = nt.random_net(ctx4, Stream(113, "rounds"))
        self.failing(monkeypatch, 1, InconsistentSystem)
        with pytest.raises(InconsistentSystem):
            fresh_fibers(ctx4, net, Stream(115, "raise"), 2)


class TestFamilySweepRounds:
    """The family sweep builds its nets in rounds and samples exactly the
    values of t of the loop that builds one net at a time."""

    @pytest.mark.parametrize("every", [1, 3, 10 ** 9])
    def test_samples_match_one_net_at_a_time(self, ctx4, monkeypatch,
                                             every):
        p, g = ctx4.p, ctx4.g
        stream = Stream(122, f"family{every}")
        section, r1, r2 = (stream.field_vec(p, g) for _ in range(3))
        # the net at t = 11 has rank 2
        r3 = (section + r1 - r2) * alg.inv_mod(11, p) % p
        b0 = stream.field_vec(p, g)

        def family(t):
            return np.stack([section, r1, (r2 + t * r3) % p])

        # the witness of every `every`-th net (by a fixed rule on the net)
        # fails
        real_oracle = nt.oracle_batch

        def oracle_batch(ctx, nets, probes, check_gamma=True):
            return [InVertex("planted") if int(net.w.sum()) % every == 0
                    else wit for net, wit in zip(
                        nets, real_oracle(ctx, nets, probes, check_gamma))]

        monkeypatch.setattr(nt, "oracle_batch", oracle_batch)
        want, last_t = reference.family_samples(ctx4, family, b0, 100)
        rounds = []
        real_build = nt.build_nets

        def build_nets(ctx, ws):
            rounds.append(len(ws))
            return real_build(ctx, ws)

        monkeypatch.setattr(nt, "build_nets", build_nets)
        assert cn._family_samples(ctx4, family, b0, 100) == want
        assert sum(rounds) == last_t
        assert 11 not in [t for t, _ in want]
        if every == 1:
            assert want == [] and rounds == [100] * 5
        else:
            assert len(want) == 100
            assert len(rounds) > 1

    def test_fewer_samples_are_a_prefix(self, ctx4):
        p, g = ctx4.p, ctx4.g
        stream = Stream(123, "prefix")
        section, r1, r2, r3, b0 = (stream.field_vec(p, g) for _ in range(5))

        def family(t):
            return np.stack([section, r1, (r2 + t * r3) % p])

        sized = 2 * cv.MODELS[g].sweep_degree + 1 + cn.SWEEP_HOLDOUT
        assert cn._family_samples(ctx4, family, b0, sized) \
            == cn._family_samples(ctx4, family, b0, 100)[:sized]

    @pytest.mark.parametrize("name", ["ctx4", "ctx4_max", "ctx5",
                                      "ctx5_max"])
    def test_sized_fit_finds_the_roots_of_the_45_45_fit(self, name, request,
                                                        monkeypatch):
        """On every family that `contained_double_secant` sweeps, the fit
        of the model's `sweep_degree` d from 2d + 1 samples has the roots
        of the 45/45 fit from 94 samples (tests/reference.py)."""
        ctx = request.getfixturevalue(name)
        real = cn._family_roots
        pairs = []

        def both(ctx, family, b0):
            got = real(ctx, family, b0)
            pairs.append((got, reference.family_roots(ctx, family, b0)))
            return got

        monkeypatch.setattr(cn, "_family_roots", both)
        for seed in range(2):
            cn.contained_double_secant(ctx, Stream(seed, "sized fit"),
                                       count=5)
        assert len(pairs) >= 2 and all(got for got, _ in pairs)
        assert [got for got, _ in pairs] == [want for _, want in pairs]


class TestVertexConditions:
    @staticmethod
    def reference(ctx, net_obj, forms, deg):
        """One evaluation or restriction per (variable, form) pair."""
        p, g = ctx.p, ctx.g
        rows = []
        for var in range(g):
            partials = [mono.gradient(f, g, deg, p)[var] for f in forms]
            if net_obj.wperp.shape[0] == 1:
                x = net_obj.wperp[0]
                rows.append([mono.form_eval_one(pf, x, g, deg - 1, p)
                             for pf in partials])
            else:
                block = np.stack([mono.restrict(pf, deg - 1, g,
                                                net_obj.wperp.T, p)
                                  for pf in partials])
                rows += [block[:, col] for col in range(block.shape[1])]
        return np.array(rows, dtype=np.int64) % p

    @pytest.mark.parametrize("genus", [4, 5])
    def test_equals_per_form_reference(self, genus, request):
        ctx = request.getfixturevalue(f"ctx{genus}")
        net = nt.random_net(ctx, Stream(116, f"vertex{genus}"))
        stream = Stream(117, f"vertex{genus}")
        for deg in (3, 4):
            basis = ctx.ideal(deg).basis
            randoms = np.stack([stream.field_vec(ctx.p, basis.shape[1])
                                for _ in range(3)])
            for forms in (basis, basis[:1], randoms):
                got = cn.vertex_condition_matrix(ctx, net, forms, deg)
                assert got.tolist() == \
                    self.reference(ctx, net, forms, deg).tolist()
                assert got.shape == (ctx.g * (1 if genus == 4 else deg),
                                     forms.shape[0])
                if genus == 4:
                    # the point-vertex path restrict replaced: the stacked
                    # partials times one eval_matrix row at the vertex
                    partials = mono.gradient(forms, 4, deg, P)
                    at_vertex = mono.eval_matrix(net.wperp, 4, deg - 1, P)[0]
                    assert got.tolist() == \
                        (partials @ at_vertex % P).T.tolist()


class TestReconstruction:
    def test_certificate(self, cone4):
        cert = cone4.certificate
        assert cert["contains_curve"] and cert["vertex_singular"]
        assert cert["holdout_pencil"]
        assert cert["oracle_disagreements"] == 0
        assert cert["solution_dim"] == 1

    def test_idempotent_across_pencil_seeds(self, ctx4, net4, cone4):
        again = cn.reconstruct_quartic(ctx4, net4, seed=99, oracle_points=4)
        assert again.coeffs.tolist() == cone4.coeffs.tolist()

    def test_euler_identity(self, ctx4, cone4):
        total = np.zeros(mono.count(4, 4), dtype=np.int64)
        grad = mono.gradient(cone4.coeffs, 4, 4, P)
        for var in range(4):
            unit = np.zeros(4, dtype=np.int64)
            unit[var] = 1
            total = (total + mono.mul_forms(unit, 1, grad[var], 3, 4, P)) % P
        assert total.tolist() == (4 * cone4.coeffs % P).tolist()

    def test_degenerate_net_rejected(self, ctx4):
        dnet = cn.degenerate_net(ctx4, Stream(102, "d"))
        with pytest.raises(DegenerateInput):
            cn.reconstruct_quartic(ctx4, dnet)

    def test_splitting_on_fresh_pencils(self, ctx4, net4, cone4):
        # consistency beyond the pencils used by the solver
        stream = Stream(103, "f")
        done = 0
        while done < 3:
            u = stream.field_vec(P, 3)
            if not u.any():
                continue
            try:
                fiber = cn.split_fiber(ctx4, net4,
                                       nt.pencil_at(net4.w, u, P))
            except DegenerateInput:
                continue
            assert cn.form_matches_split(ctx4, cone4.coeffs, fiber)
            done += 1


class TestDoubleQuadric:
    def test_square_of_certificate_quadric(self, ctx4):
        quadric = ctx4.ideal(2).basis[0]
        dnet = cn.degenerate_net(ctx4, Stream(104, "d"), quadric=quadric)
        cone = cn.double_quadric_quartic(ctx4, dnet)
        expected = reference.normalize(
            mono.mul_forms(quadric, 2, quadric, 2, 4, P), P)
        assert cone.coeffs.tolist() == expected.tolist()

    def test_generic_net_rejected(self, ctx4, net4):
        with pytest.raises(NonGenericD):
            cn.double_quadric_quartic(ctx4, net4)


class TestPolars:
    def test_linearity_in_x(self, ctx5):
        net = nt.random_net(ctx5, Stream(105, "p5"))
        cone = cn.reconstruct_quartic(ctx5, net, oracle_points=4)
        x1, x2 = net.wperp
        lhs = cn.polar_cubic(ctx5, cone, (x1 + x2) % P).coeffs
        rhs = (cn.polar_cubic(ctx5, cone, x1).coeffs
               + cn.polar_cubic(ctx5, cone, x2).coeffs) % P
        assert lhs.tolist() == rhs.tolist()

    def test_membership_and_vertex(self, ctx4, cone4, net4):
        polar = cn.polar_cubic(ctx4, cone4, net4.wperp[0],
                               stream=Stream(106, "po"), oracle_points=20)
        assert polar.certificate["in_cubic_ideal"]
        assert polar.certificate["vertex_singular"]
        assert polar.certificate["oracle_disagreements"] == 0
        vals = mono.form_eval(polar.coeffs, ctx4.panel, 4, 3, P)
        assert not vals.any()

    def test_lw_dimensions(self, ctx4, cone4):
        basis, rank = cn.lw_space(
            ctx4, cone4, cn.polar_cubics(ctx4, cone4, cone4.net.wperp))
        assert basis.shape[0] == 1
        assert rank == 1

    def test_zero_x_rejected(self, ctx4, cone4):
        with pytest.raises(ValueError):
            cn.polar_cubic(ctx4, cone4, np.zeros(4, dtype=np.int64))


class TestSecant:
    def test_random_pairs_false_false(self, ctx4, net4, cone4):
        stream = Stream(107, "pq")
        n = ctx4.panel.shape[0]
        for _ in range(25):
            i = stream.integer(0, n)
            j = stream.integer(0, n)
            if i == j:
                continue
            assert cn.secant_criterion(ctx4, net4, cone4, ctx4.panel[i],
                                       ctx4.panel[j]) == (False, False)

    def test_vertex_branch(self, ctx4):
        pt_p, pt_q, net = cn.secant_through_vertex(ctx4, Stream(108, "sv"))
        cone = cn.reconstruct_quartic(ctx4, net, oracle_points=4)
        assert cn.secant_criterion(ctx4, net, cone, pt_p, pt_q) \
            == (True, True)

    def test_double_section_branch(self, ctx4):
        found = cn.contained_double_secant(ctx4, Stream(109, "ds"), count=1)
        pt_p, pt_q, net, cone = found[0]
        assert cn.secant_criterion(ctx4, net, cone, pt_p, pt_q) \
            == (True, True)
        # the engineered net really holds a section double-vanishing at both
        section = cn.double_vanishing_section(ctx4, pt_p, pt_q)
        assert section is not None
        assert alg.rank(np.concatenate([net.w, section[None, :]]), P) == 3


class TestBitangentSweep:
    def test_discriminant_matches_node_sweep(self, ctx4):
        """The four-sample fit of `sweep_discriminant` against the sweep
        that took one scalar resultant at each of 80 nodes, on tangent
        lines of several panel points."""
        chart = ctx4.curve.ruling_chart
        checked = 0
        for k in range(0, 60, 6):
            pt = ctx4.panel[k]
            if not int(chart.h2 @ pt % P):
                continue
            td = errors.value_of(cv.tangent_vectors(ctx4.curve, [pt])[0])
            s1, s2 = alg.kernel_basis(np.stack([td.point, td.direction]), P)
            residual, disc = cn.sweep_discriminant(chart, s1, s2, P)
            expected = reference.sweep_discriminant(chart, s1, s2, P)
            assert disc.tolist() == expected.tolist()
            # the section polynomial is cubic in the plane: a fifth sample
            # lies on the fit, times the factor every plane shares
            common = alg.poly_gcd(chart.section_poly((s1 + 101 * s2) % P),
                                  chart.section_poly((s1 + 202 * s2) % P), P)
            common = alg.poly_gcd(
                common, chart.section_poly((s1 + 303 * s2) % P), P)
            assert chart.section_poly((s1 + 4 * s2) % P).tolist() == \
                poly_mul(common, alg.p2_eval_x(residual, [4], P)[0], P).tolist()
            checked += 1
        assert checked >= 5


class TestTangentSpace:
    def test_gradient_annihilates_tangent_line(self, ctx4, net4, cone4):
        pt = ctx4.panel[5]
        td = errors.value_of(cv.tangent_vectors(ctx4.curve, [pt])[0])
        grad = np.array([mono.form_eval_one(
            mono.gradient(cone4.coeffs, 4, 4, P)[var], pt, 4, 3, P)
            for var in range(4)], dtype=np.int64)
        assert grad.any()
        assert int(grad @ td.point % P) == 0
        assert int(grad @ td.direction % P) == 0
