"""Monomial order, derivatives, products, substitution."""

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

import reference
from curvecones import monomials as mono
from curvecones.rng import Stream

P = 1000003
# the largest prime below 2**25: entries and products are as large as the
# int64 budget of the kernels allows
P_MAX = 33554393


class TestOrder:
    def test_lex_descending_with_z0_first(self):
        expo = mono.exponents(4, 2)
        assert expo[0] == (2, 0, 0, 0)
        assert expo[1] == (1, 1, 0, 0)
        assert expo[-1] == (0, 0, 0, 2)
        assert list(expo) == sorted(expo, reverse=True)

    def test_counts(self):
        assert len(mono.exponents(4, 4)) == 35
        assert len(mono.exponents(5, 4)) == 70
        assert mono.count(3, 6) == 28
        assert mono.count(3, 8) == 45


class TestCalculus:
    def test_partial_of_monomial(self):
        # d/dz1 of z0 z1^2 = 2 z0 z1
        c = np.zeros(mono.count(4, 3), dtype=np.int64)
        c[mono.index_map(4, 3)[(1, 2, 0, 0)]] = 1
        # and d/dz0 = z1^2, while d/dz2 and d/dz3 vanish
        d = mono.gradient(c, 4, 3, P)
        expected = np.zeros((4, mono.count(4, 2)), dtype=np.int64)
        expected[1, mono.index_map(4, 2)[(1, 1, 0, 0)]] = 2
        expected[0, mono.index_map(4, 2)[(0, 2, 0, 0)]] = 1
        assert d.tolist() == expected.tolist()

    def test_product_matches_pointwise(self):
        stream = Stream(1, "prod")
        a = stream.field_vec(P, mono.count(4, 2))
        b = stream.field_vec(P, mono.count(4, 1))
        prod = mono.mul_forms(a, 2, b, 1, 4, P)
        pts = stream.field_mat(P, 6, 4)
        lhs = mono.form_eval(prod, pts, 4, 3, P)
        rhs = mono.form_eval(a, pts, 4, 2, P) \
            * mono.form_eval(b, pts, 4, 1, P) % P
        assert lhs.tolist() == rhs.tolist()

    def test_restrict_matches_substitution(self):
        stream = Stream(2, "restrict")
        f = stream.field_vec(P, mono.count(5, 4))
        basis = stream.field_mat(P, 5, 3)
        g = mono.restrict(f, 4, 5, basis, P)
        ys = stream.field_mat(P, 8, 3)
        direct = mono.form_eval(f, ys @ basis.T % P, 5, 4, P)
        via = mono.form_eval(g, ys, 3, 4, P)
        assert direct.tolist() == via.tolist()

    def test_pairs_roundtrip(self):
        stream = Stream(3, "pairs")
        f = stream.field_vec(P, mono.count(4, 3))
        pairs = mono.form_to_pairs(f, 4, 3)
        back = mono.form_from_pairs(pairs, 4, 3, P)
        assert back.tolist() == f.tolist()


# ---------------------------------------------------------------------------
# differential tests against an independent sympy expansion


def sympy_form(coeffs, g, n, p):
    terms = {e: int(c) for e, c in zip(mono.exponents(g, n), coeffs)}
    return sympy.Poly.from_dict(terms, *sympy.symbols(f"z0:{g}"), modulus=p)


def to_vector(poly, g, n, p):
    out = np.zeros(mono.count(g, n), dtype=np.int64)
    idx = mono.index_map(g, n)
    for e, c in poly.terms():
        if int(c) % p:
            out[idx[e]] = int(c) % p
    return out


def sympy_restrict(coeffs, n, g, basis, p):
    m = basis.shape[1]
    ys = sympy.symbols(f"y0:{m}")
    lins = [sympy.Poly(sum(int(basis[k, j]) * ys[j] for j in range(m)),
                       *ys, modulus=p) for k in range(g)]
    total = sympy.Poly(0, *ys, modulus=p)
    for e, c in zip(mono.exponents(g, n), coeffs):
        term = sympy.Poly(int(c), *ys, modulus=p)
        for lin, k in zip(lins, e):
            term = term * lin ** k
        total = total + term
    return to_vector(total, m, n, p)


def sparse_vec(stream, p, size):
    """Random vector with about two thirds of its entries zero."""
    vec = stream.field_vec(p, size)
    vec[[stream.integer(0, 3) != 0 for _ in range(size)]] = 0
    return vec


class TestKernelsAgainstSympy:
    @pytest.mark.parametrize("p", [P, P_MAX])
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_restrict(self, p, seed):
        stream = Stream(seed, "restrict-diff")
        g = stream.integer(3, 6)
        n = stream.integer(1, 5)
        m = stream.integer(1, g + 1)
        size = mono.count(g, n)
        f = sparse_vec(stream, p, size) if stream.integer(0, 2) \
            else stream.field_vec(p, size)
        basis = stream.field_mat(p, g, m)
        assert mono.restrict(f, n, g, basis, p).tolist() == \
            sympy_restrict(f, n, g, basis, p).tolist()

    @pytest.mark.parametrize("p", [P, P_MAX])
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_mul_forms(self, p, seed):
        stream = Stream(seed, "mul-diff")
        g = stream.integer(1, 6)
        n1 = stream.integer(0, 5)
        n2 = stream.integer(0, 5)
        a = sparse_vec(stream, p, mono.count(g, n1))
        b = stream.field_vec(p, mono.count(g, n2))
        expected = to_vector(sympy_form(a, g, n1, p)
                             * sympy_form(b, g, n2, p), g, n1 + n2, p)
        assert mono.mul_forms(a, n1, b, n2, g, p).tolist() == \
            expected.tolist()

    def test_genus5_quartic_on_a_solid(self):
        stream = Stream(4, "restrict-diff")
        f = stream.field_vec(P_MAX, mono.count(5, 4))
        basis = stream.field_mat(P_MAX, 5, 4)
        assert mono.restrict(f, 4, 5, basis, P_MAX).tolist() == \
            sympy_restrict(f, 4, 5, basis, P_MAX).tolist()

    def test_smallest_prime_above_the_degree(self):
        stream = Stream(5, "restrict-diff")
        f = stream.field_vec(5, mono.count(3, 4))
        basis = stream.field_mat(5, 3, 2)
        assert mono.restrict(f, 4, 3, basis, 5).tolist() == \
            sympy_restrict(f, 4, 3, basis, 5).tolist()


def sympy_collect(coeffs, n, g, basis, weights, p):
    """F(basis @ y) with y_i -> x^weights[i], expanded by sympy over GF(p),
    as the dense array `collect` returns."""
    weights = np.asarray(weights)
    xs = sympy.symbols(f"x0:{weights.shape[1]}")
    ys = [sympy.Mul(*(x ** int(w) for x, w in zip(xs, row)))
          for row in weights]
    lins = [sympy.Poly(sum(int(basis[k, i]) * ys[i]
                           for i in range(basis.shape[1])), *xs, modulus=p)
            for k in range(g)]
    total = sympy.Poly(0, *xs, modulus=p)
    for e, c in zip(mono.exponents(g, n), coeffs):
        term = sympy.Poly(int(c), *xs, modulus=p)
        for lin, k in zip(lins, e):
            term = term * lin ** k
        total = total + term
    out = np.zeros(n * weights.max(axis=0) + 1, dtype=np.int64)
    for a, c in total.terms():
        out[a] = int(c) % p
    return out


# the sweep A(u) + t B(u) of a ruling chart: 1, u, t, ut, u^2 t, where
# y0 y3 and y1 y2 both land on ut
SWEEP = [[0, 0], [1, 0], [0, 1], [1, 1], [2, 1]]


class TestCollectAgainstSympy:
    @pytest.mark.parametrize("p", [P, P_MAX])
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_pullback(self, p, seed):
        stream = Stream(seed, "collect-diff")
        g = stream.integer(3, 6)
        n = stream.integer(2, 5)
        if stream.integer(0, 2):
            weights = np.array(SWEEP)
        else:
            m = stream.integer(1, g + 1)
            k = stream.integer(1, 3)
            weights = np.array([[stream.integer(0, 4) for _ in range(k)]
                                for _ in range(m)])
        f = stream.field_vec(p, mono.count(g, n))
        basis = stream.field_mat(p, g, weights.shape[0])
        pulled = mono.restrict(f, n, g, basis, p)
        assert mono.collect(pulled, n, weights.shape[0], weights,
                            p).tolist() == \
            sympy_collect(f, n, g, basis, weights, p).tolist()

    @pytest.mark.parametrize("p", [P, P_MAX])
    def test_colliding_monomials_are_summed(self, p):
        stream = Stream(9, "collect-sweep")
        f = stream.field_vec(p, mono.count(4, 3))
        basis = stream.field_mat(p, 4, 5)
        out = mono.collect(mono.restrict(f, 3, 4, basis, p), 3, 5, SWEEP, p)
        assert out.shape == (7, 4)
        assert out.tolist() == \
            sympy_collect(f, 3, 4, basis, SWEEP, p).tolist()


class TestProductTable:
    """`multiples` and `gradient`, the readers of the one monomial-product
    table."""

    @pytest.mark.parametrize("p", [P, P_MAX])
    @pytest.mark.parametrize("g", [3, 4, 5])
    @pytest.mark.parametrize("e,d", [(2, 3), (2, 4), (1, 2), (0, 2)])
    def test_multiples_are_products_by_each_monomial(self, e, d, g, p):
        # row i is the product of the i-th degree d - e monomial and the
        # form, by sympy; mul_forms by the unit vector of that monomial
        # gives the same row
        stream = Stream(10 * d + e, f"multiples-{g}")
        forms = np.stack([stream.field_vec(p, mono.count(g, e)),
                          sparse_vec(stream, p, mono.count(g, e))])
        got = mono.multiples(forms, e, d, g, p)
        assert got.shape == (2, mono.count(g, d - e), mono.count(g, d))
        units = np.eye(mono.count(g, d - e), dtype=np.int64)
        for f, rows in zip(forms, got):
            assert rows.tolist() == mono.multiples(f, e, d, g, p).tolist()
            want = [to_vector(sympy_form(unit, g, d - e, p)
                              * sympy_form(f, g, e, p), g, d, p).tolist()
                    for unit in units]
            assert rows.tolist() == want
            assert [mono.mul_forms(unit, d - e, f, e, g, p).tolist()
                    for unit in units] == want

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("g", [3, 4, 5])
    def test_gradient_matches_the_exponent_walk(self, g, n):
        for p in (P, P_MAX):
            stream = Stream(n, f"gradient-{g}-{p}")
            form = stream.field_vec(p, mono.count(g, n))
            stack = stream.field_mat(p, 6, mono.count(g, n)).reshape(
                2, 3, -1)
            got_form = mono.gradient(form, g, n, p)
            got_stack = mono.gradient(stack, g, n, p)
            assert got_form.shape == (g, mono.count(g, n - 1))
            assert got_stack.shape == (2, 3, g, mono.count(g, n - 1))
            for var in range(g):
                assert got_form[var].tolist() == \
                    reference.partial(form, var, g, n, p).tolist()
                assert got_stack[..., var, :].tolist() == \
                    reference.partial(stack, var, g, n, p).tolist()


class TestKernelEdges:
    def test_zero_inputs(self):
        stream = Stream(6, "zeros")
        zero = np.zeros(mono.count(4, 3), dtype=np.int64)
        basis = stream.field_mat(P, 4, 2)
        assert not mono.restrict(zero, 3, 4, basis, P).any()
        assert not mono.restrict(stream.field_vec(P, mono.count(4, 3)), 3, 4,
                                 np.zeros((4, 2), dtype=np.int64), P).any()
        other = stream.field_vec(P, mono.count(4, 2))
        assert not mono.mul_forms(zero, 3, other, 2, 4, P).any()

    def test_unreduced_inputs(self):
        stream = Stream(7, "unreduced")
        f = stream.field_vec(P, mono.count(4, 2))
        basis = stream.field_mat(P, 4, 2)
        b = stream.field_vec(P, mono.count(4, 1))
        assert mono.restrict(f - P, 2, 4, basis + 3 * P, P).tolist() == \
            mono.restrict(f, 2, 4, basis, P).tolist()
        assert mono.mul_forms(f - P, 2, b + P, 1, 4, P).tolist() == \
            mono.mul_forms(f, 2, b, 1, 4, P).tolist()
        assert mono.multiples(f - 2 * P, 2, 4, 4, P).tolist() == \
            mono.multiples(f, 2, 4, 4, P).tolist()

    def test_second_call_hits_node_cache(self):
        stream = Stream(8, "cache")
        f = stream.field_vec(P, mono.count(5, 3))
        basis = stream.field_mat(P, 5, 3)
        first = mono.restrict(f, 3, 5, basis, P)
        hits = mono._interpolation_nodes.cache_info().hits
        second = mono.restrict(f, 3, 5, basis, P)
        assert mono._interpolation_nodes.cache_info().hits == hits + 1
        assert second.tolist() == first.tolist()

    def test_degree_not_below_prime_rejected(self):
        with pytest.raises(ValueError, match="prime above 4"):
            mono.restrict(np.ones(mono.count(3, 4), dtype=np.int64), 4, 3,
                          np.eye(3, 2, dtype=np.int64), 3)


class TestStackedForms:
    """`restrict`, `gradient` and `mul_forms` on many forms at once equal
    one call per form."""

    def test_mul_forms_on_stacks(self):
        # pairs of a stack against the product of each pair, and one form
        # broadcast against a stack, at the largest prime
        stream = Stream(5, "mul-stacks")
        a = stream.field_mat(P_MAX, 4, mono.count(3, 2))
        b = stream.field_mat(P_MAX, 4, mono.count(3, 1))
        pairs = [mono.mul_forms(x, 2, y, 1, 3, P_MAX).tolist()
                 for x, y in zip(a, b)]
        assert mono.mul_forms(a, 2, b, 1, 3, P_MAX).tolist() == pairs
        assert mono.mul_forms(a[:, None], 2, b, 1, 3, P_MAX)[
            np.arange(4), np.arange(4)].tolist() == pairs
        assert mono.mul_forms(a[0], 2, b, 1, 3, P_MAX).tolist() == [
            mono.mul_forms(a[0], 2, y, 1, 3, P_MAX).tolist() for y in b]

    @pytest.mark.parametrize("p", [P, P_MAX])
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_restrict_of_a_matrix(self, p, seed):
        stream = Stream(seed, "restrict-stack")
        g = stream.integer(3, 6)
        n = stream.integer(1, 5)
        m = stream.integer(1, g + 1)
        k = stream.integer(1, 8)
        forms = np.stack([sparse_vec(stream, p, mono.count(g, n))
                          if stream.integer(0, 2)
                          else stream.field_vec(p, mono.count(g, n))
                          for _ in range(k)], axis=1)
        basis = stream.field_mat(p, g, m)
        got = mono.restrict(forms, n, g, basis, p)
        assert got.shape == (mono.count(m, n), k)
        assert got.T.tolist() == [mono.restrict(f, n, g, basis, p).tolist()
                                  for f in forms.T]

    @pytest.mark.parametrize("p", [P, P_MAX])
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_restrict_to_a_stack_of_bases(self, p, seed):
        # one form or a matrix of forms, restricted to each basis of a
        # stack (the empty stack included)
        stream = Stream(seed, "restrict-bases")
        g = stream.integer(3, 6)
        n = stream.integer(1, 5)
        m = stream.integer(1, g + 1)
        bases = np.array([stream.field_mat(p, g, m)
                          for _ in range(stream.integer(0, 5))],
                         dtype=np.int64).reshape(-1, g, m)
        form = stream.field_vec(p, mono.count(g, n))
        forms = stream.field_mat(p, mono.count(g, n), 3)
        for coeffs in (form, forms):
            got = mono.restrict(coeffs, n, g, bases, p)
            assert got.shape == (len(bases), mono.count(m, n)) \
                + coeffs.shape[1:]
            assert got.tolist() == [mono.restrict(coeffs, n, g, b, p).tolist()
                                    for b in bases]

    @pytest.mark.parametrize("p", [P, P_MAX])
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_partial_of_rows(self, p, seed):
        stream = Stream(seed, "partial-stack")
        g = stream.integer(1, 6)
        n = stream.integer(1, 5)
        forms = stream.field_mat(p, stream.integer(0, 5), mono.count(g, n))
        got = mono.gradient(forms, g, n, p)
        assert got.shape == (forms.shape[0], g, mono.count(g, n - 1))
        assert got.tolist() == [mono.gradient(f, g, n, p).tolist()
                                for f in forms]
