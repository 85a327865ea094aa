"""Curve generation, point sampling, sections, tangent data."""

import hashlib
import json

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings, strategies as st
from sympy.polys.matrices import DomainMatrix
from sympy.polys.subresultants_qq_zz import sylvester

from curvecones import algebra as alg
from curvecones import cone as cn
from curvecones import fibers as fb
from curvecones import curve as cv
from curvecones import monomials as mono
from curvecones.errors import (ConfigError, DegenerateInput,
                               InsufficientPoints, SingularPoint)
from curvecones.rng import Stream

import reference
from reference import (sample_points_one_line_at_a_time,
                       sample_points_one_slice_at_a_time)

P = 1000003
P_MAX = 33554393    # largest prime below 2**25

# sha256 of `gen-curve --genus 5 --prime 1000003 --seed 7`, recorded while
# resultant_bivariate fit its values by Lagrange interpolation
GENUS5_CURVE_FILE = \
    "9d34943c242b5b149467de066953c55bc9eb8a1a925076850d8b6700393d3051"
# sha256 of `gen-curve --genus 5 --prime 33554393 --seed 7`, recorded while
# resultant_bivariate specialized one node at a time by Horner's rule and
# took one scalar Sylvester determinant per node
GENUS5_CURVE_FILE_P_MAX = \
    "d36f63f3fb7d82b0a73601579ba99336c73cd1f692b692ac50f7335b39bcac41"


# sha256 of `gen-curve --genus 4 --seed 1` at each prime, recorded while
# the roots on each ruling line were found one line at a time
GENUS4_CURVE_FILES = {
    P: "515c002ff8735698edab550c50aa4f019d7b2c02367e9cf6cb6a7afd64abb1db",
    P_MAX: "723d83f6decd4bcc69682d9f5287cf4125a62fff43a45882588420f1074d7622",
}


class TestGeneration:
    def test_reproducible_byte_for_byte(self, ctx4):
        again = cv.generate_curve(4, P, ctx4.curve.seed)
        pts = cv.sample_points(again, 30)
        blob1 = json.dumps(cv.curve_to_json(again, pts), sort_keys=True)
        blob2 = json.dumps(cv.curve_to_json(
            cv.generate_curve(4, P, ctx4.curve.seed),
            cv.sample_points(again, 30)), sort_keys=True)
        assert blob1 == blob2
        assert again == ctx4.curve

    def test_genus5_curve_file_is_pinned(self, ctx5):
        # the file gen-curve writes for the genus-5 curve of seed 7; its
        # point sampling is the heaviest user of resultant_bivariate
        points = list(ctx5.points)
        blob = json.dumps(cv.curve_to_json(ctx5.curve, points),
                          sort_keys=True) + "\n"
        assert hashlib.sha256(blob.encode()).hexdigest() == GENUS5_CURVE_FILE

    def test_genus5_curve_file_is_pinned_at_largest_prime(self, ctx5_max):
        # the int64 budget of the stacked resultant's evaluations and
        # Sylvester stacks at p < 2^25
        points = list(ctx5_max.points)
        blob = json.dumps(cv.curve_to_json(ctx5_max.curve, points),
                          sort_keys=True) + "\n"
        assert hashlib.sha256(blob.encode()).hexdigest() == \
            GENUS5_CURVE_FILE_P_MAX

    @pytest.mark.parametrize("p", [P, P_MAX])
    def test_genus4_curve_file_is_pinned(self, p):
        curve = cv.generate_curve(4, p, 1)
        points = cv.sample_points(curve, sum(cv.panel_sizes(4)))
        blob = json.dumps(cv.curve_to_json(curve, points),
                          sort_keys=True) + "\n"
        assert hashlib.sha256(blob.encode()).hexdigest() == \
            GENUS4_CURVE_FILES[p]

    def test_unsupported_genus(self):
        with pytest.raises(ValueError):
            cv.generate_curve(6, P, 1)

    def test_small_prime_rejected(self):
        with pytest.raises(ValueError):
            cv.generate_curve(4, 101, 1)

    @pytest.mark.parametrize("p", [101, 1004653, 2**26 + 15])
    def test_prime_fault_is_a_config_error(self, p):
        # a curve prime is user input: below the floor, composite
        # (13 * 109 * 709) or above the int64 budget, it is a ConfigError
        # naming it
        with pytest.raises(ConfigError, match=str(p)):
            cv.check_curve_prime(p)

    def test_genus5_jacobian_rank(self, ctx5):
        for q in ctx5.panel[:25]:
            assert alg.rank(cv.jacobian_at(ctx5.curve, q), P) == 3

    def test_smoothness_on_a_stack(self, ctx4, ctx5):
        # the stacked Jacobians are those of each point, and smooth_at
        # fails as soon as one point of the stack has a rank drop (a zero
        # vector has a zero Jacobian)
        for ctx in (ctx4, ctx5):
            pts = ctx.panel[:8]
            jac = cv.jacobian_at(ctx.curve, pts)
            assert jac.shape == (8, ctx.g - 2, ctx.g)
            assert jac.tolist() == [cv.jacobian_at(ctx.curve, q).tolist()
                                    for q in pts]
            assert cv.smooth_at(ctx.curve, pts)
            assert cv.smooth_at(ctx.curve, list(pts[:1]))
            assert cv.smooth_at(ctx.curve, [])
            assert not cv.smooth_at(ctx.curve, np.concatenate(
                [pts, np.zeros((1, ctx.g), dtype=np.int64)]))


class TestQuadricGram:
    """Every quadric helper agrees with the substitution kernel."""

    @pytest.mark.parametrize("p", [P, P_MAX])
    @given(g=st.integers(3, 5), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_restrict_to_line_is_the_gram_triple(self, p, g, seed):
        stream = Stream(seed, "gram-diff")
        q = stream.field_vec(p, mono.count(g, 2))
        a, b = stream.field_vec(p, g), stream.field_vec(p, g)
        gram = cv.quadric_gram(q, g, p).astype(object)   # exact products
        expected = [a @ gram @ a % p, 2 * (a @ gram @ b) % p,
                    b @ gram @ b % p]
        assert mono.restrict_to_line(q, 2, g, a, b, p).tolist() == expected
        # the fiber form is the inverse of the Gram matrix
        assert fb.fiber_quadric_form(cv.quadric_gram(q, g, p),
                                     p).tolist() == q.tolist()

    def test_ruling_chart_at_the_largest_prime(self):
        # 4 (p-1)^3 > 2**63: an unreduced int64 product x @ G @ y
        # overflows here, so the chart must not form one
        curve = cv.generate_curve(4, P_MAX, 1)
        chart = curve.ruling_chart
        quadric = curve.generator_arrays()[0][1]
        assert mono.form_eval_one(quadric, chart.q0, 4, 2, P_MAX) == 0
        for a, b in chart.line_at([0, 12345, None]):
            assert not mono.restrict_to_line(quadric, 2, 4, a, b,
                                             P_MAX).any()
        pts = cv.sample_points(curve, 20)
        assert all(cv.on_curve(curve, pt) for pt in pts)

    @pytest.mark.parametrize("name", ["ctx4", "ctx4_max"])
    def test_line_at_matches_the_numeric_derivation(self, name, request):
        """The ruling lines evaluated from the chart's u-coefficient arrays
        are those derived numerically per parameter (tests/reference.py),
        at u = inf, at the root of rho(u), where b falls back to
        tau d1 - sig w, and at 200 random parameters."""
        ctx = request.getfixturevalue(name)
        p = ctx.p
        chart = ctx.curve.ruling_chart
        rho0, rho1 = (int(c) for c in chart.rho)
        root = -rho0 * pow(rho1, -1, p) % p if rho1 else None
        assert not int(chart.rho @ (0, 1) if root is None
                       else chart.rho @ (1, root) % p)
        stream = Stream(29, "line-at")
        us = [None, root, 0, 1, p - 1] + [stream.field(p) for _ in range(200)]

        def shown(lines):
            return ["degenerate" if isinstance(line, DegenerateInput)
                    else [end.tolist() for end in line] for line in lines]

        assert shown(chart.line_at(us)) == \
            shown(reference.ruling_line_at(chart, us))


class TestSampling:
    def test_points_annihilate_generators(self, ctx4, ctx5):
        for ctx in (ctx4, ctx5):
            for q in ctx.panel[:40]:
                assert cv.on_curve(ctx.curve, q)

    def test_no_projective_duplicates(self, ctx4):
        seen = {tuple(q.tolist()) for q in ctx4.panel}
        assert len(seen) == len(ctx4.panel)

    def test_insufficient_budget_raises(self, ctx4, monkeypatch):
        # 400 ruling lines carry 427 distinct points of the seed-1 curve
        monkeypatch.setattr(cv, "POINT_BUDGET_FACTOR", 0)
        with pytest.raises(InsufficientPoints,
                           match="found 427 of 1000 requested points"):
            cv.sample_points(ctx4.curve, 1000)

    def test_hasse_weil_guard(self, ctx4):
        with pytest.raises(InsufficientPoints, match="cannot collect"):
            cv.sample_points(ctx4.curve, 10**7)

    @pytest.mark.parametrize("count", [1, 50, 210])
    def test_rounds_match_one_line_at_a_time(self, ctx4, count):
        expected, _ = sample_points_one_line_at_a_time(ctx4.curve, count)
        got = cv.sample_points(ctx4.curve, count)
        assert [q.tolist() for q in got] == [q.tolist() for q in expected]

    def test_degenerate_line_raises_only_when_reached(self, ctx4,
                                                      monkeypatch):
        expected, stop = sample_points_one_line_at_a_time(ctx4.curve, 50)
        # the single round of 50 lines goes on past the stopping line
        assert 1 < stop < 50
        real = cv.RulingChart.line_at

        def degenerate_at(k):
            drawn = [0]

            def line_at(self, us):
                lines = real(self, us)
                for i in range(len(lines)):
                    drawn[0] += 1
                    if drawn[0] == k:
                        lines[i] = DegenerateInput("injected")
                return lines
            monkeypatch.setattr(cv.RulingChart, "line_at", line_at)

        for k in (1, stop):
            degenerate_at(k)
            with pytest.raises(DegenerateInput, match="injected"):
                cv.sample_points(ctx4.curve, 50)
        degenerate_at(stop + 1)
        assert [q.tolist() for q in cv.sample_points(ctx4.curve, 50)] == \
            [q.tolist() for q in expected]

    @pytest.mark.parametrize("count", [1, 50])
    def test_genus5_walk_matches_one_slice_at_a_time(self, ctx5, count,
                                                     monkeypatch):
        # the walk slices a hyperplane only on reaching it, so it makes
        # the slices of the one-slice loop and no more
        tries = []
        real = cv.hyperplane_section

        def counted(curve, h):
            tries.append(h)
            return real(curve, h)

        monkeypatch.setattr(cv, "hyperplane_section", counted)
        expected = sample_points_one_slice_at_a_time(ctx5.curve, count)
        slices = len(tries)
        got = cv.sample_points(ctx5.curve, count)
        assert [q.tolist() for q in got] == [q.tolist() for q in expected]
        assert [h.tolist() for h in tries[slices:]] == \
            [h.tolist() for h in tries[:slices]]


class TestHyperplaneSections:
    """Genus-5 slices; genus-4 points come from ruling lines instead."""

    def test_degree_bound(self, ctx5):
        stream = Stream(99, "random-hyperplanes")
        for _ in range(20):
            h = stream.field_vec(P, 5)
            if not h.any():
                continue
            sec = cv.hyperplane_section(ctx5.curve, h)
            assert len(sec) <= 8
            for q in sec:
                assert cv.on_curve(ctx5.curve, q)
                assert int(h @ q % P) == 0

    def test_degree_attained_on_anchored_slices(self, ctx5):
        # hyperplanes through curve points make fully split sections
        # likely; seeds are fixed, so the scan is deterministic
        best = 0
        pts = ctx5.panel
        for k in range(200):
            rows = np.stack([pts[(k + j * 7) % len(pts)] for j in range(4)])
            if alg.rank(rows, P) != 4:
                continue
            h = alg.kernel_basis(rows, P)
            if h.shape[0] != 1:
                continue
            best = max(best, len(cv.hyperplane_section(ctx5.curve, h[0])))
            if best == 8:
                break
        assert best == 8

    def test_codim2_slices_empty(self, ctx5):
        stream = Stream(123, "codim2")
        h1 = stream.field_vec(P, 5)
        h2 = stream.field_vec(P, 5)
        sec = cv.hyperplane_section(ctx5.curve, h1)
        assert all(int(h2 @ q % P) != 0 for q in sec)


def sympy_form(coeffs, g, n, args):
    """The form as a sympy expression over ZZ in the given arguments."""
    return sum(int(c) * sympy.Mul(*(a ** k for a, k in zip(args, e)))
               for e, c in zip(mono.exponents(g, n), coeffs))


def as_dict(expr, gens, p):
    """Nonzero coefficients mod p of an integer polynomial, by exponent."""
    return {e: int(c) % p for e, c in sympy.Poly(expr, *gens).terms()
            if int(c) % p}


def resultant(f, g, var):
    """Res_var(f, g) as the Sylvester determinant, the convention of
    `algebra.resultant`; sympy.resultant differs in sign on a linear and a
    cubic argument (it gives -1 for t + 1 and t^3 + 2, where the
    determinant is (-1)^3 + 2 = 1).  The determinant is taken in the
    polynomial ring of the entries (`DomainMatrix`), not on expressions."""
    matrix = DomainMatrix.from_Matrix(
        sylvester(sympy.expand(f), sympy.expand(g), var))
    return matrix.domain.to_sympy(matrix.det())


class TestEliminantsAgainstSympy:
    """The eliminants built through `restrict` and `collect` equal
    resultants computed by sympy over ZZ, reduced mod p."""

    def test_sweep_pull_backs_and_their_resultant(self, ctx4):
        """K(A(u) + t B(u)) of the cubic generator K and the pull-back of
        each tangent-meets-tangent cubic (`cone.tangent_meet_cubic`, here
        from sympy's partials of the generators), as (u, t) arrays, and
        their `resultant_bivariate` in t, at three panel points."""
        chart = ctx4.curve.ruling_chart
        u, t = sympy.symbols("u t")
        z = sympy.symbols("z0:4")
        line = [sum(int(c) * u ** i for i, c in enumerate(a))
                + t * sum(int(c) * u ** i for i, c in enumerate(b))
                for a, b in zip(chart.a_coeffs, chart.b_coeffs)]
        quadric = sympy_form(chart.quadric, 4, 2, z)
        cubic = sympy_form(chart.cubic, 4, 3, z)

        def along(expr, direction):
            return sum(int(d) * sympy.diff(expr, zk)
                       for d, zk in zip(direction, z))

        def on_sweep(expr):
            """expr at z = A(u) + t B(u), its coefficients reduced mod P."""
            return sympy.Poly(expr.subs(dict(zip(z, line)), simultaneous=True),
                              u, t).trunc(P).as_expr()

        def entries(arr):
            return {(int(i), int(j)): int(arr[i, j])
                    for i, j in zip(*np.nonzero(arr))}

        pulled_cubic = chart.pull_back(chart.cubic, 3)
        cubic_on_sweep = on_sweep(cubic)
        assert entries(pulled_cubic) == as_dict(cubic_on_sweep, (u, t), P)
        for td in cv.tangent_vectors(ctx4.curve, ctx4.panel[:3]):
            meet = on_sweep(
                along(quadric, td.point) * along(cubic, td.direction)
                - along(quadric, td.direction) * along(cubic, td.point))
            pulled = chart.pull_back(cn.tangent_meet_cubic(ctx4.curve, td), 3)
            assert entries(pulled) == as_dict(meet, (u, t), P)
            res = resultant(meet, cubic_on_sweep, t)
            expected = sympy.Poly(res, u).all_coeffs()[::-1]
            assert alg.resultant_bivariate(pulled, pulled_cubic, P).tolist() \
                == alg.poly_trim([int(c) % P for c in expected]).tolist()

    def test_genus5_r12_is_the_resultant_in_y3(self, ctx5):
        y1, y2, y3 = sympy.symbols("y1 y2 y3")
        stream = Stream(12, "genus5-eliminant")
        quads = [np.array(c, dtype=np.int64) for _, c in ctx5.curve.generators]
        for _ in range(2):
            chart = stream.field_mat(P, 5, 4)
            rq = [mono.restrict(q, 2, 5, chart, P) for q in quads]
            layers = [cv._quadric_by_y3(q) for q in rq]
            on_chart = [sympy_form(q, 4, 2, (1, y1, y2, y3)) for q in rq]
            for k in (1, 2):
                r1k = cv._res_quadratics(layers[0], layers[k], P)
                res = resultant(on_chart[0], on_chart[k], y3)
                got = {(int(i), int(j)): int(r1k[i, j])
                       for i, j in zip(*np.nonzero(r1k))}
                assert got == as_dict(res, (y1, y2), P)


def form_product(factors, g, p):
    """Product of (coefficients, degree) factors, as coefficients."""
    out, n = np.ones(1, dtype=np.int64), 0
    for coeffs, d in factors:
        out, n = mono.mul_forms(out, n, coeffs, d, g, p), n + d
    return out


def planted_line(case, p, g, deg, seed):
    """A form of degree deg, a line (a, b) and a parameter t0, with the
    zeros `case` plants: "random" none, "b_on_form" F(b) = 0, "only_b"
    F(a + t b) a nonzero constant, "inside" F = 0 on the line, "repeated"
    a root t0 of multiplicity min(2, deg)."""
    stream = Stream(seed, f"line-zeros-{case}")
    t0 = None
    a, b = stream.field_vec(p, g), stream.field_vec(p, g)
    f = stream.field_vec(p, mono.count(g, deg))
    i = int(np.flatnonzero(b)[0])
    if case == "b_on_form":
        # F - F(b) b_i^-deg z_i^deg
        idx = mono.index_map(g, deg)[tuple(deg * np.eye(g, dtype=int)[i])]
        f[idx] = (f[idx] - mono.form_eval_one(f, b, g, deg, p)
                  * alg.inv_mod(pow(int(b[i]), deg, p), p)) % p
    elif case == "only_b":
        # l^deg with l(b) = 0
        r = stream.field_vec(p, g)
        ell = r * b[i] % p
        ell[i] = (ell[i] - r @ b) % p
        f = form_product([(ell, 1)] * deg, g, p)
    elif case == "inside":
        ell = alg.kernel_basis(np.stack([a, b]), p)[0]
        f = form_product([(ell, 1), (stream.field_vec(
            p, mono.count(g, deg - 1)), deg - 1)], g, p)
    elif case == "repeated":
        t0 = stream.field(p)
        ells = alg.kernel_basis(((a + t0 * b) % p).reshape(1, g), p)
        ell = stream.field_vec(p, ells.shape[0]) @ ells % p
        k = min(2, deg)
        f = form_product([(ell, 1)] * k + [(stream.field_vec(
            p, mono.count(g, deg - k)), deg - k)], g, p)
    return f, a, b, t0


class TestLineZeros:
    """`line_zeros` against the linear factors sympy finds in F(a + t b)."""

    @pytest.mark.parametrize("p", [P, P_MAX])
    @given(case=st.sampled_from(["random", "b_on_form", "only_b", "inside",
                                 "repeated"]),
           g=st.integers(3, 5), deg=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    @example(case="b_on_form", g=4, deg=3, seed=0)
    @example(case="only_b", g=5, deg=2, seed=0)
    @example(case="inside", g=3, deg=4, seed=0)
    @example(case="repeated", g=4, deg=4, seed=0)
    @settings(max_examples=40, deadline=None)
    def test_matches_sympy(self, p, case, g, deg, seed):
        f, a, b, t0 = planted_line(case, p, g, deg, seed)
        got, = cv.line_zeros(f, deg, g, a[None], b[None], p)
        for pt in got:
            assert ((pt >= 0) & (pt < p)).all()
            assert pt[np.flatnonzero(pt)[0]] == 1
            assert alg.rank(np.stack([a, b, pt]), p) <= 2
            assert mono.form_eval_one(f, pt, g, deg, p) == 0
        t = sympy.Symbol("t")
        restricted = sympy.Poly(sympy_form(
            f, g, deg, [int(x) + int(y) * t for x, y in zip(a, b)]), t,
            modulus=p)
        if case == "inside":
            assert restricted.is_zero
        if restricted.is_zero:
            assert got == []
            return
        roots = sorted(-int(h.nth(0)) * alg.inv_mod(int(h.LC()) % p, p) % p
                       for h, _ in restricted.factor_list()[1]
                       if h.degree() == 1)
        finite = [reference.normalize((a + r * b) % p, p) for r in roots]
        at_infinity = [reference.normalize(b, p)] \
            if restricted.degree() < deg else []
        assert [pt.tolist() for pt in got] == \
            [pt.tolist() for pt in finite + at_infinity if pt.any()]
        if case == "b_on_form":
            assert got[-1].tolist() == at_infinity[0].tolist()
        elif case == "only_b":
            assert [pt.tolist() for pt in got] == \
                [reference.normalize(b, p).tolist()]
        elif case == "repeated":
            double = sympy.Poly((t - t0) ** min(2, deg), t, modulus=p)
            assert restricted.rem(double).is_zero
            point = reference.normalize((a + t0 * b) % p, p).tolist()
            assert [pt.tolist() for pt in got].count(point) == 1

    @pytest.mark.parametrize("p", [P, P_MAX])
    def test_stack_equals_lines(self, p):
        stream = Stream(5, "line-stack")
        g, deg = 4, 3
        f = stream.field_vec(p, mono.count(g, deg))
        a = stream.field_mat(p, 8, g)
        b = stream.field_mat(p, 8, g)
        b[1] = next(z[0] for z in cv.line_zeros(f, deg, g, a, b, p)
                    if z)           # F(b) = 0
        a[2] = 0                    # the zero t = 0 is the zero vector
        stacked = cv.line_zeros(f, deg, g, a, b, p)
        assert [[q.tolist() for q in z] for z in stacked] == \
            [[q.tolist() for q in cv.line_zeros(f, deg, g, a[k:k + 1],
                                                b[k:k + 1], p)[0]]
             for k in range(8)]
        assert stacked[1][-1].tolist() == b[1].tolist()
        assert cv.line_zeros(f, deg, g, a[:0], b[:0], p) == []

    def test_chart_tangent_point(self, ctx4):
        # d1 spans, with q0, a ruling line: on the quadric and in its
        # tangent plane at q0
        chart = ctx4.curve.ruling_chart
        quadric = ctx4.curve.generator_arrays()[0][1]
        gram = cv.quadric_gram(quadric, 4, P)
        assert mono.form_eval_one(quadric, chart.d1, 4, 2, P) == 0
        assert int((chart.q0 @ gram % P) @ chart.d1 % P) == 0
        assert chart.d1.tolist() != chart.q0.tolist()


class TestTangents:
    def test_line_vanishes_to_second_order(self, ctx4, ctx5):
        for ctx in (ctx4, ctx5):
            for td in cv.tangent_vectors(ctx.curve, ctx.panel[:10]):
                assert td.direction.tolist() != td.point.tolist()
                for d, c in ctx.curve.generator_arrays():
                    from curvecones import monomials as mono
                    binary = mono.restrict_to_line(
                        c, d, ctx.g, td.point, td.direction, P)
                    poly = alg.poly_trim(binary)
                    # t^0 and t^1 coefficients vanish: contact order >= 2
                    assert len(poly) == 0 or (
                        int(binary[0]) == 0 and int(binary[1]) == 0)

    def test_off_curve_point_rejected(self, ctx4):
        bad = (ctx4.panel[0] + 1) % P
        td, = cv.tangent_vectors(ctx4.curve, [bad])
        assert (type(td), str(td)) == (SingularPoint,
                                       "point is not on the curve")


class TestPersistence:
    def test_roundtrip(self, tmp_path, ctx4):
        # a loadable file holds both panels of a context
        pts = list(ctx4.points)
        path = tmp_path / "curve.json"
        cv.save_curve(str(path), ctx4.curve, pts)
        loaded, lpts = cv.load_curve(str(path))
        assert loaded == ctx4.curve
        assert [q.tolist() for q in lpts] == [q.tolist() for q in pts]
