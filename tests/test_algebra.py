"""Kernels: row reduction, kernels, roots, resultants."""

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings, strategies as st
from sympy.polys import galoistools as gt
from sympy.polys.domains import ZZ
from sympy.polys.matrices import DomainMatrix

from curvecones import algebra as alg

import reference
from reference import lagrange_interpolate, poly_mul

P = 1000003
P_MAX = 33554393    # largest prime below 2**25


def arr(rows):
    return np.array(rows, dtype=np.int64)


def values(f, xs, p):
    """f at every node of xs, by one Vandermonde product."""
    return alg.p2_eval_x(np.asarray(f, dtype=np.int64)[:, None], xs, p)[:, 0]


def res(f, g, p):
    """Res(f, g) of two univariate polynomials through the stacked path:
    `resultant_bivariate` of the two as arrays of x-degree 0."""
    r = alg.resultant_bivariate(arr(f)[None], arr(g)[None], p)
    return int(r[0]) if len(r) else 0


class TestCheckPrime:
    def test_agrees_with_sympy(self):
        for n in range(10**6 + 1, 11 * 10**5, 2):
            try:
                alg.check_prime(n)
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == sympy.isprime(n), n

    @pytest.mark.parametrize("n", [1004653, 1016801, 1018921])
    def test_fermat_pseudoprimes_rejected(self, n):
        assert pow(2, n, n) == 2
        with pytest.raises(ValueError, match=str(n)):
            alg.check_prime(n)


class TestKernelBasis:
    def test_dependent_rows_mod7(self):
        basis = alg.kernel_basis(arr([[1, 2], [2, 4]]), 7)
        assert basis.tolist() == [[5, 1]]

    def test_identity_has_trivial_kernel(self):
        basis = alg.kernel_basis(np.eye(3, dtype=np.int64), 7)
        assert basis.shape == (0, 3)

    def test_kernel_vectors_annihilate(self):
        rng = np.random.default_rng(0)
        m = rng.integers(0, P, size=(8, 12)).astype(np.int64)
        basis = alg.kernel_basis(m, P)
        assert basis.shape[0] == 12 - alg.rank(m, P)
        assert not (m @ basis.T % P).any()

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_rank_nullity(self, seed):
        rng = np.random.default_rng(seed)
        rows, cols = rng.integers(1, 9, size=2)
        m = rng.integers(0, 101, size=(rows, cols)).astype(np.int64)
        assert alg.rank(m, 101) + alg.kernel_basis(m, 101).shape[0] == cols

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_rank_invariant_under_row_shuffle(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.integers(0, 101, size=(7, 9)).astype(np.int64)
        shuffled = m[rng.permutation(7)]
        assert alg.rank(m, 101) == alg.rank(shuffled, 101)


def solve_one(m, rhs, p):
    """`solve_batch` on one system with one right-hand side: the solution
    (None when rhs is outside the column space) and the rank of m."""
    x, rank, consistent = alg.solve_batch(m[None], rhs[None, :, None], p)
    return (x[0, :, 0] if consistent[0] else None), int(rank[0])


class TestSolveConsistent:
    """`solve_batch`, which solves stacked systems [m | rhs] and flags the
    right-hand sides outside the column space."""

    def test_rank_one_system(self):
        x, rank = solve_one(arr([[1, 0], [0, 0]]), arr([3, 0]), 7)
        assert x.tolist() == [3, 0]
        assert rank == 1

    def test_inconsistent_flagged(self):
        x, rank = solve_one(arr([[1, 0], [0, 0]]), arr([3, 1]), 7)
        assert x is None and rank == 1

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_membership_matches_brute_force_rank(self, seed):
        # rhs solvable iff appending it does not raise the rank
        rng = np.random.default_rng(seed)
        m = rng.integers(0, 101, size=(6, 4)).astype(np.int64)
        rhs = rng.integers(0, 101, size=6).astype(np.int64)
        expected = alg.rank(np.concatenate([m, rhs[:, None]], axis=1), 101) \
            == alg.rank(m, 101)
        x, rank = solve_one(m, rhs, 101)
        assert rank == alg.rank(m, 101)
        assert (x is not None) == expected
        if expected:
            assert (m @ x % 101 == rhs % 101).all()

    def test_solutions_differ_by_kernel(self):
        rng = np.random.default_rng(3)
        m = rng.integers(0, P, size=(5, 8)).astype(np.int64)
        target = rng.integers(0, P, size=8).astype(np.int64)
        rhs = m @ target % P
        x, _ = solve_one(m, rhs, P)
        kernel = alg.kernel_basis(m, P)
        shift = (target - x) % P
        # shift must be a kernel combination: stacking does not raise rank
        stacked = np.concatenate([kernel, shift[None, :]], axis=0)
        assert alg.rank(stacked, P) == kernel.shape[0]


class TestDistinctRoots:
    def test_plus_minus_one(self):
        f = arr([6, 0, 1])  # x^2 - 1 over F_7
        assert alg.distinct_roots(f, 7) == [1, 6]

    def test_irreducible_quadratic(self):
        f = arr([1, 0, 1])  # x^2 + 1 over F_7; -1 is a non-residue
        assert alg.distinct_roots(f, 7) == []

    @pytest.mark.parametrize("prime", [101, 997])
    def test_matches_brute_force_small_primes(self, prime):
        rng = np.random.default_rng(prime)
        for _ in range(25):
            f = alg.poly_trim(
                rng.integers(0, prime, size=rng.integers(2, 8))
                .astype(np.int64))
            if len(f) == 0:
                continue
            brute = np.nonzero(values(f, range(prime), prime) == 0)[0]
            assert alg.distinct_roots(f, prime) == brute.tolist()

    def test_repeated_roots_listed_once(self):
        f = poly_mul(arr([96, 1]), poly_mul(arr([96, 1]), arr([2, 1]), 101),
                     101)
        assert alg.distinct_roots(f, 101) == [5, 99]


def poly2_mul(f, g, p):
    """Product of two bivariate arrays, entry [i, j] of x^i y^j."""
    out = np.zeros((f.shape[0] + g.shape[0] - 1, f.shape[1] + g.shape[1] - 1),
                   dtype=np.int64)
    for (i, j), c in np.ndenumerate(f):
        out[i:i + g.shape[0], j:j + g.shape[1]] += c * g % p
    return out % p


class TestResultant:
    """Resultants through the stacked path, `resultant_bivariate`: one
    evaluation per input, one `det_batch` of Sylvester matrices, one
    interpolation."""

    def test_two_linear(self):
        assert res([5, 1], [4, 1], 7) == 6
        assert res([5, 1], [4, 1], 7) == reference.resultant(
            arr([5, 1]), arr([4, 1]), 7)

    def test_common_factor_gives_zero(self):
        f = [3, 1, 2]
        assert res(f, f, P) == 0
        # y - x shares its zero with itself at every x: Res_y is zero
        f = arr([[0, 1], [P - 1, 0]])
        assert alg.resultant_bivariate(f, f, P).size == 0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_multiplicative_in_first_argument(self, seed):
        # Res_y(f g, h) = Res_y(f, h) Res_y(g, h) as polynomials in x; at
        # x-degree 0 this is the univariate law
        rng = np.random.default_rng(seed)

        def rand_poly2():
            c = rng.integers(0, P, size=(rng.integers(1, 3),
                                         rng.integers(1, 4)))
            c[-1, -1] = rng.integers(1, P)
            return c.astype(np.int64)

        f, g, h = rand_poly2(), rand_poly2(), rand_poly2()
        lhs = alg.resultant_bivariate(poly2_mul(f, g, P), h, P)
        rhs = poly_mul(alg.resultant_bivariate(f, h, P),
                       alg.resultant_bivariate(g, h, P), P)
        assert lhs.tolist() == rhs.tolist()
        lhs = res(f[0], h[0], P) * res(g[0], h[0], P) % P
        assert res(poly_mul(f[0], g[0], P), h[0], P) == lhs

    def test_value_at_root(self):
        # Res(x - a, g) = g(a) for monic linear first argument
        g = arr([1, 4, 0, 2])
        a = 123456
        f = arr([(-a) % P, 1])
        assert res(f, g, P) == values(g, [a], P)[0] == \
            reference.poly_eval(g, a, P)


class TestBivariateResultant:
    def test_matches_common_root_scan_small_prime(self):
        p = 101
        rng = np.random.default_rng(7)
        f = rng.integers(0, p, size=(3, 3)).astype(np.int64)
        g = rng.integers(0, p, size=(3, 3)).astype(np.int64)
        r = alg.resultant_bivariate(f, g, p)
        res_roots = set(alg.distinct_roots(r, p)) if len(r) else set(range(p))
        for a, fy, gy in zip(range(p), alg.p2_eval_x(f, range(p), p),
                             alg.p2_eval_x(g, range(p), p)):
            fy, gy = alg.poly_trim(fy), alg.poly_trim(gy)
            if len(fy) == 0 or len(gy) == 0:
                continue
            common = alg.poly_gcd(fy, gy, p)
            if alg.poly_deg(common) > 0:
                # a common y-root over the algebraic closure forces r(a) = 0
                assert a in res_roots

    def test_eliminates_to_known_roots(self):
        # f = y - x, g = y - 2 meet where x = 2
        p = 101
        f = np.zeros((2, 2), dtype=np.int64)
        f[0, 1] = 1
        f[1, 0] = p - 1
        g = np.zeros((1, 2), dtype=np.int64)
        g[0, 1] = 1
        g[0, 0] = p - 2
        r = alg.resultant_bivariate(f, g, p)
        assert alg.distinct_roots(r, p) == [2]


class TestPolyHelpers:
    def test_divmod_roundtrip(self):
        # q g + r with deg r < deg g: the exact quotient of q g is q, and
        # g does not divide q g + r for r nonzero
        rng = np.random.default_rng(11)
        q = alg.poly_trim(rng.integers(0, P, size=6).astype(np.int64))
        g = alg.poly_trim(rng.integers(0, P, size=4).astype(np.int64))
        r = arr([5, 0, 1])
        f = poly_mul(q, g, P)
        quots, divides = alg.exact_quotients(
            alg.poly_stack([f, (f + np.pad(r, (0, len(f) - 3))) % P]), g, P)
        assert alg.poly_trim(quots[0]).tolist() == q.tolist()
        assert divides is False
        quots, divides = alg.exact_quotients(f[None], g, P)
        assert divides is True
        assert alg.poly_trim(quots[0]).tolist() == q.tolist()

    def test_interpolation_roundtrip(self):
        xs = [1, 2, 3, 4, 5]
        f = arr([3, 0, 7, 1])
        ys = values(f, xs, P)
        assert ys.tolist() == [reference.poly_eval(f, x, P) for x in xs]
        assert alg.interpolate(xs, ys, P).tolist() == f.tolist()

    def test_squarefree_part(self):
        f = poly_mul(arr([1, 1]), poly_mul(arr([1, 1]), arr([3, 1]), P), P)
        sf = alg.squarefree_part(f, P)
        assert alg.poly_deg(sf) == 2
        assert values(sf, [P - 1, P - 3], P).tolist() == [0, 0]
        assert sf.tolist() == reference.squarefree_part(f, P).tolist()

    def test_normalize_scalar(self):
        # a vector is a stack of one
        v = arr([0, 4, 2])
        out = alg.normalize_rows(v, 7)
        assert out.tolist() == [0, 1, 4]
        assert alg.normalize_rows(out, 7).tolist() == out.tolist()
        assert alg.normalize_rows(arr([0, 0]), 7).tolist() == [0, 0]
        # and a stack of matrices is normalized vector by vector
        assert alg.normalize_rows(arr([[[0, 4, 2], [3, 0, 1]]]), 7).tolist() \
            == [[[0, 1, 4], [1, 0, 5]]]


def to_gf(f):
    """Coefficient list in galoistools order, highest degree first."""
    return [int(c) for c in alg.poly_trim(f)[::-1]]


def from_gf(f):
    return [int(c) for c in f[::-1]]


def rand_poly(rng, p, deg):
    """Random polynomial of exact degree deg."""
    f = rng.integers(0, p, size=deg + 1).astype(np.int64)
    f[-1] = rng.integers(1, p)
    return f


class TestUnivariateAgainstSympy:
    """The univariate kernels against sympy.polys.galoistools, up to the
    largest admissible prime and degree 24, past the degrees the engine
    reaches."""

    @pytest.mark.parametrize("p", [P, P_MAX])
    @given(mod_deg=st.integers(1, 24), base_len=st.integers(0, 50),
           seed=st.integers(0, 2**32 - 1))
    @example(mod_deg=1, base_len=2, seed=0)
    @example(mod_deg=1, base_len=40, seed=1)
    @example(mod_deg=5, base_len=37, seed=2)
    @settings(max_examples=30, deadline=None)
    def test_pow_mod(self, p, mod_deg, base_len, seed):
        rng = np.random.default_rng(seed)
        mod = rand_poly(rng, p, mod_deg)
        base = rng.integers(0, p, size=base_len).astype(np.int64)
        for e in (p, (p - 1) // 2, int(rng.integers(p, 2**62))):
            expected = gt.gf_pow_mod(to_gf(base), e, to_gf(mod), p, ZZ)
            assert alg.poly_pow_mod(base, e, mod, p).tolist() == \
                from_gf(expected), e

    @pytest.mark.parametrize("p", [P, P_MAX])
    @given(num_len=st.integers(0, 50), den_deg=st.integers(0, 24),
           planted=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @example(num_len=0, den_deg=3, planted=False, seed=0)
    @example(num_len=3, den_deg=5, planted=False, seed=1)
    @settings(max_examples=30, deadline=None)
    def test_divmod(self, p, num_len, den_deg, planted, seed):
        # exact division: the flag is sympy's "no remainder", and the
        # quotient is sympy's wherever g divides; `planted` makes f a
        # multiple of g
        rng = np.random.default_rng(seed)
        f = rng.integers(0, p, size=num_len).astype(np.int64)
        g = rand_poly(rng, p, den_deg)
        if planted:
            f = poly_mul(f, g, p)
        eq, er = gt.gf_div(to_gf(f), to_gf(g), p, ZZ)
        quots, divides = alg.exact_quotients(f[None], g, p)
        assert divides == (er == [])
        if divides:
            assert alg.poly_trim(quots[0]).tolist() == from_gf(eq)

    @pytest.mark.parametrize("p", [P, P_MAX])
    @given(degs=st.tuples(st.integers(0, 16), st.integers(0, 16),
                          st.integers(0, 8)),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_gcd_with_planted_factor(self, p, degs, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (rand_poly(rng, p, d) for d in degs)
        f, g = poly_mul(a, c, p), poly_mul(b, c, p)
        expected = gt.gf_gcd(to_gf(f), to_gf(g), p, ZZ)
        assert alg.poly_gcd(f, g, p).tolist() == from_gf(expected)
        assert reference.poly_gcd(f, g, p).tolist() == from_gf(expected)

    @given(deg=st.integers(1, 24), planted=st.integers(0, 6),
           seed=st.integers(0, 2**32 - 1))
    @example(deg=1, planted=0, seed=0)
    @settings(max_examples=40, deadline=None)
    def test_distinct_roots_brute_force(self, deg, planted, seed):
        p = 101
        rng = np.random.default_rng(seed)
        f = rand_poly(rng, p, deg)
        for r in rng.integers(0, p, size=planted):
            f = poly_mul(f, np.array([-r % p, 1], dtype=np.int64), p)
        brute = np.nonzero(values(f, range(p), p) == 0)[0].tolist()
        assert alg.distinct_roots(f, p) == brute

    @pytest.mark.parametrize("p", [P, P_MAX])
    @given(deg=st.integers(1, 18), planted=st.integers(0, 6),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_distinct_roots_against_factorization(self, p, deg, planted,
                                                  seed):
        rng = np.random.default_rng(seed)
        f = rand_poly(rng, p, deg)
        for r in rng.integers(0, p, size=planted):
            f = poly_mul(f, np.array([-r % p, 1], dtype=np.int64), p)
        _, factors = gt.gf_factor(to_gf(f), p, ZZ)
        linear = sorted((-int(h[1])) % p for h, _ in factors if len(h) == 2)
        assert alg.distinct_roots(f, p) == linear


def linear_roots_sympy(f, p):
    """Roots of the linear factors of sympy's factor_list of f mod p."""
    poly = sympy.Poly(to_gf(f), sympy.Symbol("x"), modulus=p)
    return sorted(-int(h.nth(0)) * alg.inv_mod(int(h.LC()) % p, p) % p
                  for h, _ in poly.factor_list()[1] if h.degree() == 1)


def chi(a, p):
    """Quadratic character of a nonzero a."""
    return pow(a, (p - 1) // 2, p)


class TestDistinctRootsBatch:
    """`distinct_roots_batch` against the scalar chain of tests/reference.py
    (gcd by Euclid, Cantor-Zassenhaus one factor and one shift at a time)
    and against the linear factors sympy finds."""

    @pytest.mark.parametrize("p", [P, P_MAX])
    @given(stack=st.lists(st.tuples(
               st.integers(0, 12),
               st.lists(st.tuples(st.integers(0, 2**31), st.integers(1, 3)),
                        max_size=4)), min_size=1, max_size=5),
           seed=st.integers(0, 2**32 - 1))
    @example(stack=[(0, [(7, 1)]), (3, [(5, 3), (9, 1)]), (1, []),
                    (2, [(0, 2)])], seed=0)
    @settings(max_examples=25, deadline=None)
    def test_matches_reference_and_sympy(self, p, stack, seed):
        rng = np.random.default_rng(seed)
        polys = []
        for deg, planted in stack:
            f = rand_poly(rng, p, deg)
            for r, mult in planted:
                for _ in range(mult):
                    f = poly_mul(f, np.array([-r % p, 1], dtype=np.int64), p)
            polys.append(f)
        got = alg.distinct_roots_batch(polys, p)
        assert got == [reference.distinct_roots(f, p) for f in polys]
        assert got == [linear_roots_sympy(f, p) for f in polys]
        assert got == [alg.distinct_roots(f, p) for f in polys]

    def test_mixed_stack(self):
        p = P                   # p = 3 mod 4: x^2 + 1 has no root
        repeated = poly_mul(poly_mul(arr([p - 5, 1]), arr([p - 5, 1]), p),
                            poly_mul(arr([p - 5, 1]), arr([p - 7, 1]), p), p)
        stack = [arr([5]), arr([3, 2]), arr([1, 0, 1]), repeated,
                 arr([0, 0, 1])]
        expected = [[], [(-3 * alg.inv_mod(2, p)) % p], [], [5, 7], [0]]
        assert alg.distinct_roots_batch(stack, p) == expected
        assert alg.distinct_roots_batch([], p) == []
        with pytest.raises(ValueError, match="nonzero"):
            alg.distinct_roots_batch([arr([1, 1]), arr([0, 0])], p)

    def test_split_in_second_round(self, monkeypatch):
        # the first round splits with t = x^((p-1)/2), which takes one
        # value on roots of one quadratic character; the roots below
        # share it but part at a shift of the second round
        p = P
        shifts = range(1, alg.SPLIT_SHIFTS + 1)
        r1 = 2
        r2 = next(r for r in range(3, p) if chi(r, p) == chi(r1, p)
                  and any(chi(r + a, p) != chi(r1 + a, p) for a in shifts))
        h = poly_mul(arr([p - r1, 1]), arr([p - r2, 1]), p)
        chains = []
        real = alg._Moduli.power

        def power(self, base, e):
            chains.append(base.tolist())
            return real(self, base, e)

        monkeypatch.setattr(alg._Moduli, "power", power)
        assert alg.distinct_roots_batch([h, arr([1, 1])], p) == \
            [sorted([r1, r2]), [p - 1]]
        assert chains == [[[a, 1] for a in shifts]]


class TestPowModBudget:
    def test_modulus_degree_beyond_int64_budget_rejected(self):
        # 2**13 * (P_MAX - 1)**2 is just below 2**63; one more term is not
        assert (2**13 + 1) * (P_MAX - 1) ** 2 >= 2**63
        mod = np.ones(2**13 + 2, dtype=np.int64)
        with pytest.raises(ValueError, match="int64 budget"):
            alg.poly_pow_mod(np.array([0, 1]), P_MAX, mod, P_MAX)

    def test_base_longer_than_budget_rejected(self):
        base = np.ones(2**13 + 4, dtype=np.int64)
        with pytest.raises(ValueError, match="int64 budget"):
            alg.poly_pow_mod(base, 3, np.array([1, 1, 1]), P_MAX)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            alg.poly_pow_mod(np.array([0, 1]), -1, np.array([1, 1]), P)


def to_dm(m, p):
    field = sympy.GF(p)
    return DomainMatrix([[field(int(v)) for v in row] for row in m],
                        m.shape, field)


def from_dm(dm, p):
    return [[int(v) % p for v in row] for row in dm.to_list()]


def planted_rank(rng, p, rows, cols, r, sparse):
    """rows x cols matrix of rank at most r (almost surely exactly r); a
    sparse one has about half of its entries zeroed afterwards, so that
    elimination meets zero pivots and swaps rows."""
    a = rng.integers(0, p, size=(rows, r)).astype(np.int64)
    b = rng.integers(0, p, size=(r, cols)).astype(np.int64)
    m = a @ b % p
    if sparse:
        m[rng.random(m.shape) < 0.5] = 0
    return m


shapes = st.tuples(st.integers(1, 8), st.integers(1, 8), st.integers(0, 8),
                   st.booleans())


class TestLinearAlgebraAgainstSympy:
    """Row reduction and everything built on it against sympy's
    DomainMatrix over GF(p), on matrices of planted rank up to 8 x 8."""

    @pytest.mark.parametrize("p", [P, P_MAX])
    @given(shape=shapes, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_rref_rank_kernel(self, p, shape, seed):
        rows, cols, r, sparse = shape
        m = planted_rank(np.random.default_rng(seed), p, rows, cols,
                         min(r, rows, cols), sparse)
        dm = to_dm(m, p)
        reduced, pivots = alg.rref(m, p)
        expected, expected_pivots = dm.rref()
        assert pivots == list(expected_pivots)
        assert reduced.tolist() == from_dm(expected, p)
        assert alg.rank(m, p) == dm.rank()
        # sympy scales each kernel row to 1 in its free column, as we do
        assert alg.kernel_basis(m, p).tolist() == \
            from_dm(dm.nullspace(divide_last=True), p)

    @pytest.mark.parametrize("p", [P, P_MAX])
    @given(shape=shapes, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_det_and_inverse(self, p, shape, seed):
        n, _, r, sparse = shape
        m = planted_rank(np.random.default_rng(seed), p, n, n, min(r, n),
                         sparse)
        dm = to_dm(m, p)
        assert alg.det(m, p) == int(dm.det()) % p
        if dm.rank() == n:
            assert alg.inverse(m, p).tolist() == from_dm(dm.inv(), p)
        else:
            with pytest.raises(ZeroDivisionError):
                alg.inverse(m, p)

    @pytest.mark.parametrize("p", [P, P_MAX])
    @given(shape=shapes, consistent=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_solve_consistent(self, p, shape, consistent, seed):
        rows, cols, r, sparse = shape
        rng = np.random.default_rng(seed)
        m = planted_rank(rng, p, rows, cols, min(r, rows, cols), sparse)
        # three right-hand sides: the drawn one, a consistent one and zero
        rhs = np.column_stack([
            m @ rng.integers(0, p, size=cols) % p if consistent
            else rng.integers(0, p, size=rows),
            m @ rng.integers(0, p, size=cols) % p,
            np.zeros(rows, dtype=np.int64)])
        x, rank, solved = alg.solve_batch(
            np.stack([m, m]), np.stack([rhs, rhs[:, 1:2].repeat(3, axis=1)]),
            p)
        assert rank.tolist() == [to_dm(m, p).rank()] * 2
        assert solved[1]
        for k in range(3):
            reduced, pivots = to_dm(np.column_stack([m, rhs[:, k]]), p).rref()
            if cols in pivots:
                assert not solved[0]
                continue
            # the particular solution is read off the reduced augmented
            # matrix
            expected = [0] * cols
            last = from_dm(reduced, p)
            for j, c in enumerate(pivots):
                expected[c] = last[j][cols]
            if solved[0]:
                assert x[0, :, k].tolist() == expected
            if k == 1:
                assert x[1].T.tolist() == [expected] * 3


def assert_matches_rref(stack, p):
    """rref_batch and kernel_batch equal rref and kernel_basis element by
    element: rows, pivots and, at every nullity, the kernel basis."""
    reduced, pivots = alg.rref_batch(stack, p)
    assert reduced.shape == stack.shape
    cols = stack.shape[2]
    for n, m in enumerate(stack):
        expected, expected_pivots = alg.rref(m, p)
        assert reduced[n].tolist() == expected.tolist()
        assert [c for c in pivots[n] if c >= 0] == expected_pivots
        assert (pivots[n, len(expected_pivots):] == -1).all()
    for nullity in range(cols + 1):
        basis, ok = alg.kernel_batch(stack, p, nullity)
        for n, m in enumerate(stack):
            expected = alg.kernel_basis(m, p)
            assert ok[n] == (expected.shape[0] == nullity)
            assert basis[n].tolist() == (
                expected.tolist() if ok[n] else [[0] * cols] * nullity)


class TestBatchReduction:
    """`rref_batch` and `kernel_batch` against `rref` and `kernel_basis`
    on stacks whose elements differ in pivot pattern and rank."""

    @pytest.mark.parametrize("p", [P, P_MAX])
    @given(n=st.integers(1, 6), rows=st.integers(1, 8),
           cols=st.integers(1, 8), shared=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_mixed_stacks(self, p, n, rows, cols, shared, seed):
        """Planted ranks, sparse elements (row swaps), all-zero elements;
        with `shared`, every element has the same zero pattern, so the
        elements keep one lead row and still swap."""
        rng = np.random.default_rng(seed)
        stack = np.stack([
            planted_rank(rng, p, rows, cols,
                         int(rng.integers(0, min(rows, cols) + 1)), False)
            for _ in range(n)])
        if shared:
            stack[:, rng.random((rows, cols)) < 0.4] = 0
        else:
            stack[rng.random(stack.shape) < 0.4] = 0
        stack[rng.random(n) < 0.15] = 0
        assert_matches_rref(stack, p)

    @pytest.mark.parametrize("p", [P, P_MAX])
    @pytest.mark.parametrize("rows, cols", [(18, 15), (24, 20)])
    @given(n=st.integers(1, 5), deficiency=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=8, deadline=None)
    def test_pencil_shapes(self, p, rows, cols, n, deficiency, seed):
        """The product-space shapes of genus 4 and 5, of rank cols - 1 as
        a pencil's is, or lower, with a shared sparse pattern."""
        rng = np.random.default_rng(seed)
        stack = np.stack([
            planted_rank(rng, p, rows, cols,
                         cols - int(rng.integers(1, deficiency + 1)), False)
            for _ in range(n)])
        stack[:, rng.random((rows, cols)) < 0.3] = 0
        assert_matches_rref(stack, p)

    def test_edge_stacks(self):
        # no elements, one element, all elements zero
        assert_matches_rref(np.zeros((0, 3, 4), dtype=np.int64), P)
        assert_matches_rref(arr([[[0, 2, 4], [0, 1, 2]]]), 7)
        assert_matches_rref(np.zeros((3, 2, 2), dtype=np.int64), P)
        # the first element pivots at the lead row, the second swaps
        assert_matches_rref(arr([[[1, 2], [3, 4]], [[0, 1], [1, 0]]]), 7)


class TestDetBatch:
    """`det_batch` against the Python-int elimination of
    `reference.det` and against sympy."""

    @pytest.mark.parametrize("p", [P, P_MAX])
    @given(n=st.integers(1, 6), size=st.integers(1, 6),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_mixed_stacks(self, p, n, size, seed):
        # planted ranks (singular elements), sparse entries (row swaps)
        # and all-zero elements in one stack
        rng = np.random.default_rng(seed)
        stack = np.stack([
            planted_rank(rng, p, size, size,
                         int(rng.integers(0, size + 1)), True)
            for _ in range(n)])
        stack[rng.random(n) < 0.15] = 0
        got = alg.det_batch(stack, p).tolist()
        assert got == [reference.det(m, p) for m in stack]
        assert got == [int(to_dm(m, p).det()) % p for m in stack]

    def test_edge_stacks(self):
        # 1 x 1 matrices, a swap that flips the sign, a singular matrix
        # whose first column is zero, and a matrix needing two swaps
        assert alg.det_batch(arr([[[0]], [[5]], [[6]]]), 7).tolist() \
            == [0, 5, 6]
        stack = arr([[[0, 1, 0], [1, 0, 0], [0, 0, 1]],
                     [[0, 1, 2], [0, 3, 4], [0, 5, 6]],
                     [[0, 0, 1], [1, 0, 0], [0, 1, 0]]])
        assert alg.det_batch(stack, 7).tolist() == [6, 0, 1]
        assert [reference.det(m, 7) for m in stack] == [6, 0, 1]
        assert alg.det_batch(np.zeros((0, 2, 2), dtype=np.int64), 7).size \
            == 0
        with pytest.raises(ValueError):
            alg.det_batch(np.zeros((1, 2, 3), dtype=np.int64), 7)


class TestBatchInverse:
    """`_inverses` (Montgomery's batch inversion) against Fermat's
    a**(p-2), which also maps 0 to 0."""

    @pytest.mark.parametrize("p", [P, P_MAX])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_fermat(self, p, data):
        vals = data.draw(st.lists(st.one_of(
            st.just(0), st.just(1), st.just(p - 1), st.integers(0, p - 1)),
            max_size=40))
        got = alg._inverses(np.array(vals, dtype=np.int64), p)
        assert got.dtype == np.int64
        assert got.tolist() == [pow(v, p - 2, p) for v in vals]

    @pytest.mark.parametrize("p", [P, P_MAX])
    def test_lengths_zero_and_one(self, p):
        assert alg._inverses(np.zeros(0, dtype=np.int64), p).tolist() == []
        assert alg._inverses(arr([0]), p).tolist() == [0]
        assert alg._inverses(arr([p - 1]), p).tolist() == [p - 1]
        assert alg._inverses(arr([0, 0, 0]), p).tolist() == [0, 0, 0]
        assert alg.inv_mod(p + 2, p) == pow(2, p - 2, p)

    @pytest.mark.parametrize("p", [P, P_MAX])
    def test_det_batch_with_singular_elements(self, p):
        # elements singular at the first, a middle and the last column
        # among invertible ones, so that the pivot vectors handed to
        # `_inverses` hold zeros between nonzero entries
        rng = np.random.default_rng(7)
        stack = rng.integers(0, p, (6, 5, 5))
        stack[1, :, 0] = 0
        stack[3, :, 2] = (stack[3, :, 0] + 3 * stack[3, :, 1]) % p
        stack[4, 4] = (stack[4, 0] + stack[4, 1]) % p
        got = alg.det_batch(stack, p).tolist()
        assert got == [reference.det(m, p) for m in stack]
        assert [d == 0 for d in got] \
            == [False, True, False, True, True, False]


class TestRowSpace:
    """RowSpace against DomainMatrix ranks over GF(p) and against `rref`
    of every row put in, on matrices of planted rank up to 8 x 8."""

    @pytest.mark.parametrize("p", [P, P_MAX])
    @given(shape=shapes, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_contains_matches_stacked_rank(self, p, shape, seed):
        rows, cols, r, sparse = shape
        rng = np.random.default_rng(seed)
        m = planted_rank(rng, p, rows, cols, min(r, rows, cols), sparse)
        space = alg.RowSpace(m, p)
        inside = rng.integers(0, p, size=rows) @ m % p
        for v in (inside, rng.integers(0, p, size=cols), m[0],
                  np.zeros(cols, dtype=np.int64)):
            stacked = to_dm(np.vstack([m, v]), p).rank()
            assert space.contains(v) == (stacked == to_dm(m, p).rank())
        assert space.contains(inside)

    @pytest.mark.parametrize("p", [P, P_MAX])
    @given(shape=shapes, start=st.integers(0, 8),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_add_keeps_rref_of_rows_so_far(self, p, shape, start, seed):
        rows, cols, r, sparse = shape
        m = planted_rank(np.random.default_rng(seed), p, rows, cols,
                         min(r, rows, cols), sparse)
        start = min(start, rows)
        space = alg.RowSpace(m[:start], p)
        for k in range(start, rows + 1):
            if k > start:
                before = len(space.pivots)
                grew = space.add(m[k - 1])
                assert grew == (len(space.pivots) > before)
                assert grew == (to_dm(m[:k], p).rank() > before)
            reduced, pivots = alg.rref(m[:k], p)
            assert space.pivots == pivots
            assert space.rows.tolist() == reduced[:len(pivots)].tolist()

    def test_empty_space_and_zero_vector(self):
        space = alg.RowSpace(np.zeros((0, 5), dtype=np.int64), P)
        zero = np.zeros(5, dtype=np.int64)
        v = arr([0, 3, P + 1, 0, P - 1])
        assert space.contains(zero)
        assert not space.contains(v)
        assert space.reduce(v).tolist() == [0, 3, 1, 0, P - 1]
        assert not space.add(zero)
        assert space.rows.shape == (0, 5) and space.pivots == []
        assert space.add(v)
        assert space.add(arr([1, 0, 0, 0, 0]))
        assert space.pivots == [0, 1]
        assert space.contains(zero) and not space.add(zero)
        assert not space.add(2 * v)

    @pytest.mark.parametrize("rank", [1, 35, 69])
    def test_genus5_quartics_at_largest_prime(self, rank):
        # 70 quartic monomials in 5 variables: the widest row the engine
        # reduces, with entries near p, checked against exact integers
        p = P_MAX
        rng = np.random.default_rng(rank)
        m = planted_rank(rng, p, 70, 70, rank, False)
        space = alg.RowSpace(m, p)
        v = np.full(70, p - 1, dtype=np.int64)
        exact = [(int(a) - sum(int(v[c]) * int(row[k])
                                for c, row in zip(space.pivots, space.rows)))
                 % p for k, a in enumerate(v)]
        assert space.reduce(v).tolist() == exact
        assert space.contains(v) == \
            (to_dm(np.vstack([m, v]), p).rank() == rank)
        assert space.contains(rng.integers(0, p, size=70) @ m % p)


def sympy_resultant(f, g, var):
    """Res(f, g) over ZZ by sympy.  sympy 1.14 returns Res(g, f) when
    deg f < deg g (Res(3x + 5, x^3 - 2) comes out as 179, not -179), so the
    higher-degree polynomial goes first and Res(f, g) = (-1)^(mn) Res(g, f)
    undoes the swap."""
    m, n = sympy.degree(f, var), sympy.degree(g, var)
    if m >= n:
        return sympy.resultant(f, g, var)
    return (-1) ** (m * n) * sympy.resultant(g, f, var)


def sympy_coeffs(expr, var, p):
    """Coefficients of a sympy polynomial in var, lowest degree first,
    reduced mod p and trimmed."""
    coeffs = sympy.Poly(expr, var).all_coeffs()[::-1]
    return alg.poly_trim([int(c) % p for c in coeffs]).tolist()


class TestResultantAgainstSympy:
    """Sylvester resultants against sympy's over ZZ, reduced mod p, for
    inputs whose leading coefficients are nonzero mod p."""

    @pytest.mark.parametrize("p", [P, P_MAX])
    @given(degs=st.tuples(st.integers(0, 8), st.integers(0, 8)),
           seed=st.integers(0, 2**32 - 1))
    @example(degs=(1, 3), seed=0)
    @settings(max_examples=30, deadline=None)
    def test_resultant(self, p, degs, seed):
        rng = np.random.default_rng(seed)
        x = sympy.Symbol("x")
        f, g = (np.append(rng.integers(0, p, size=d), rng.integers(1, p))
                for d in degs)
        expected = sympy_resultant(
            *(sympy.Poly(h[::-1].tolist(), x).as_expr() for h in (f, g)), x)
        assert res(f, g, p) == int(expected) % p

    @pytest.mark.parametrize("p", [P, P_MAX])
    @given(shapes=st.tuples(st.integers(1, 4), st.integers(1, 4),
                            st.integers(1, 4), st.integers(1, 4)),
           seed=st.integers(0, 2**32 - 1))
    @example(shapes=(2, 2, 3, 4), seed=0)
    @example(shapes=(3, 1, 2, 3), seed=1)     # f constant in y
    @example(shapes=(2, 3, 4, 1), seed=2)     # g constant in y
    @example(shapes=(2, 1, 3, 1), seed=3)     # both constant in y
    @settings(max_examples=20, deadline=None)
    def test_resultant_bivariate(self, p, shapes, seed):
        rng = np.random.default_rng(seed)
        x, y = sympy.symbols("x y")
        fx, fy, gx, gy = shapes
        polys = []
        for rows, cols in ((fx, fy), (gx, gy)):
            c = rng.integers(0, p, size=(rows, cols)).astype(np.int64)
            c[-1, -1] = rng.integers(1, p)    # keeps both degrees mod p
            polys.append(c)
        f, g = polys
        exprs = [sum(int(c[i, j]) * x**i * y**j for i in range(c.shape[0])
                     for j in range(c.shape[1])) for c in polys]
        expected = sympy_coeffs(sympy_resultant(*exprs, y), x, p)
        assert alg.resultant_bivariate(f, g, p).tolist() == expected


def sympy_interpolate(xs, ys, p):
    """Coefficients of the interpolating polynomial sympy finds over QQ,
    lowest degree first, reduced mod p (the denominators are products of
    node differences, so they are invertible) and trimmed."""
    x = sympy.Symbol("x")
    expr = sympy.polys.polyfuncs.interpolate(
        [(int(a), int(b)) for a, b in zip(xs, ys)], x)
    coeffs = sympy.Poly(expr, x).all_coeffs()[::-1]
    return alg.poly_trim([int(c.p) * pow(int(c.q), -1, p) % p
                          for c in map(sympy.Rational, coeffs)]).tolist()


class TestInterpolateAgainstSympy:
    """`interpolate` on one value column and on a stack of columns, against
    sympy's interpolation over QQ reduced mod p and the Lagrange reference."""

    @pytest.mark.parametrize("p", [P, P_MAX])
    @given(n=st.integers(1, 12), k=st.integers(1, 3), zero=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    @example(n=1, k=2, zero=False, seed=0)
    @example(n=5, k=1, zero=True, seed=0)
    @settings(max_examples=25, deadline=None)
    def test_matches_sympy(self, p, n, k, zero, seed):
        rng = np.random.default_rng(seed)
        xs = []
        while len(xs) < n:
            x = int(rng.integers(0, p))
            if x not in xs:
                xs.append(x)
        ys = np.zeros((n, k), dtype=np.int64) if zero \
            else rng.integers(0, p, size=(n, k))
        expected = [sympy_interpolate(xs, ys[:, j], p) for j in range(k)]
        column = alg.interpolate(xs, ys[:, 0], p)
        assert column.tolist() == expected[0]
        assert column.tolist() == \
            lagrange_interpolate(xs, ys[:, 0], p).tolist()
        stacked = alg.interpolate(xs, ys, p)
        assert stacked.shape == (n, k)
        for j in range(k):
            assert alg.poly_trim(stacked[:, j]).tolist() == expected[j]
        if zero:
            assert column.size == 0 and not stacked.any()

    @pytest.mark.parametrize("p", [P, P_MAX])
    @given(n=st.integers(2, 10), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_repeated_node_rejected(self, p, n, seed):
        rng = np.random.default_rng(seed)
        xs = rng.integers(0, p, size=n).tolist()
        xs[-1] = xs[0] + p          # the same node mod p
        with pytest.raises(ValueError, match="distinct"):
            alg.interpolate(xs, rng.integers(0, p, size=n), p)
        with pytest.raises(ValueError, match="distinct"):
            alg.interpolate(xs, rng.integers(0, p, size=(n, 2)), p)


class TestStackedResultantAgainstReference:
    """`resultant_bivariate` against the one-node-at-a-time chain of
    tests/reference.py (Horner specialization, scalar Sylvester resultant
    per node, Lagrange fit), where nodes drop out and where a side is
    constant in y."""

    @pytest.mark.parametrize("p", [P, P_MAX])
    @given(shapes=st.tuples(st.integers(1, 4), st.integers(1, 4),
                            st.integers(1, 4), st.integers(1, 4)),
           vanish=st.tuples(st.booleans(), st.booleans()),
           seed=st.integers(0, 2**32 - 1))
    @example(shapes=(2, 3, 2, 2), vanish=(True, False), seed=0)
    @example(shapes=(3, 1, 2, 3), vanish=(False, True), seed=1)
    @example(shapes=(2, 1, 3, 1), vanish=(True, True), seed=2)
    @settings(max_examples=25, deadline=None)
    def test_matches_one_node_at_a_time(self, p, shapes, vanish, seed):
        rng = np.random.default_rng(seed)
        polys = []
        for (rows, cols), drop in zip((shapes[:2], shapes[2:]), vanish):
            c = rng.integers(0, p, size=(rows, cols)).astype(np.int64)
            c[-1, -1] = rng.integers(1, p)
            if drop:
                # the leading y-coefficient becomes x (x - 1) times itself,
                # so it vanishes at the nodes 0 and 1
                lead = poly_mul(poly_mul(arr([0, 1]), arr([p - 1, 1]), p),
                                c[:, -1], p)
                c = np.pad(c, ((0, len(lead) - rows), (0, 0)))
                c[:, -1] = lead
            polys.append(c)
        f, g = polys
        assert alg.resultant_bivariate(f, g, p).tolist() == \
            reference.resultant_bivariate(f, g, p).tolist()

    def test_zero_input_and_small_field(self):
        with pytest.raises(ValueError, match="zero"):
            alg.resultant_bivariate(np.zeros((2, 2), dtype=np.int64),
                                    arr([[1, 1]]), P)
        # y + 2x + x^3 against 1 + y has x-degree bound 3, so it needs
        # four nodes, and F_3 has three
        f = arr([[0, 1], [2, 0], [0, 0], [1, 0]])
        with pytest.raises(ValueError, match="field too small"):
            alg.resultant_bivariate(f, arr([[1, 1]]), 3)


class TestGcdAndDivision:
    """The echelon gcd, the squarefree part and exact division against
    the Euclidean chain and long division of tests/reference.py."""

    def test_gcd_edge_cases(self):
        zero = np.zeros(0, dtype=np.int64)
        f = arr([6, 5, 1])                      # (x + 2)(x + 3)
        assert alg.poly_gcd(zero, zero, P).tolist() == []
        assert alg.poly_gcd(zero, 3 * f % P, P).tolist() == f.tolist()
        assert alg.poly_gcd(f, zero, P).tolist() == f.tolist()
        assert alg.poly_gcd(arr([7]), f, P).tolist() == [1]
        assert alg.poly_gcd(f, arr([7]), P).tolist() == [1]
        assert alg.poly_gcd(5 * f % P, f, P).tolist() == f.tolist()
        assert alg.poly_gcd(f, arr([4, 1]), P).tolist() == [1]   # coprime
        assert alg.poly_gcd(f, arr([2, 1]), P).tolist() == [2, 1]
        assert alg.poly_gcd(arr([0, 1]), arr([0, 0, 1]), P).tolist() == [0, 1]

    @pytest.mark.parametrize("p", [P, P_MAX])
    def test_gcd_at_degree_45(self, p):
        # the numerator and denominator of the family sweep's rational fit
        rng = np.random.default_rng(45)
        common = rand_poly(rng, p, 7)
        f = poly_mul(rand_poly(rng, p, 38), common, p)
        g = poly_mul(rand_poly(rng, p, 31), common, p)
        assert alg.poly_deg(f) == 45
        expected = reference.poly_gcd(f, g, p)
        assert alg.poly_gcd(f, g, p).tolist() == expected.tolist()
        assert alg.poly_gcd(g, f, p).tolist() == expected.tolist()
        assert alg.poly_deg(expected) >= 7
        quots, divides = alg.exact_quotients(alg.poly_stack([f, g]),
                                             expected, p)
        assert divides
        assert [alg.poly_trim(q).tolist() for q in quots] == \
            [reference.poly_divmod(h, expected, p)[0].tolist()
             for h in (f, g)]

    @pytest.mark.parametrize("p", [P, P_MAX])
    @given(degs=st.lists(st.integers(-1, 12), min_size=1, max_size=4),
           h_deg=st.integers(0, 6), planted=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    @example(degs=[-1], h_deg=2, planted=False, seed=0)
    @example(degs=[1, 3], h_deg=4, planted=False, seed=1)
    @settings(max_examples=30, deadline=None)
    def test_exact_division_flags_a_remainder(self, p, degs, h_deg, planted,
                                              seed):
        # "does not divide" exactly where long division leaves a remainder
        # in some row; `planted` makes every row a multiple of h
        rng = np.random.default_rng(seed)
        h = rand_poly(rng, p, h_deg)
        rows = [rand_poly(rng, p, d) if d >= 0 else arr([]) for d in degs]
        if planted:
            rows = [poly_mul(f, h, p) for f in rows]
        stack = alg.poly_stack(rows) if max(map(len, rows)) \
            else np.zeros((len(rows), 0), dtype=np.int64)
        quots, divides = alg.exact_quotients(stack, h, p)
        expected = [reference.poly_divmod(f, h, p) for f in rows]
        assert divides == all(len(r) == 0 for _, r in expected)
        if divides:
            assert [alg.poly_trim(q).tolist() for q in quots] == \
                [q.tolist() for q, _ in expected]

    @pytest.mark.parametrize("p", [P, P_MAX])
    @given(deg=st.integers(0, 12), planted=st.lists(
               st.tuples(st.integers(0, 2**31), st.integers(1, 3)),
               max_size=3), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_squarefree_part_matches_reference(self, p, deg, planted, seed):
        rng = np.random.default_rng(seed)
        f = rand_poly(rng, p, deg)
        for r, mult in planted:
            for _ in range(mult):
                f = poly_mul(f, arr([-r % p, 1]), p)
        assert alg.squarefree_part(f, p).tolist() == \
            reference.squarefree_part(f, p).tolist()


class TestVandermondeEvaluation:
    def test_matches_horner_at_the_int64_budget(self):
        # rows of 2^13 - 1 coefficients below p at the largest prime: each
        # entry sums that many products below p^2, checked exactly
        p = P_MAX
        rng = np.random.default_rng(13)
        f = rng.integers(p - 50, p, size=(2**13 - 1, 2)).astype(np.int64)
        xs = [p - 1, p - 2, 0, 1, 12345]
        got = alg.p2_eval_x(f, xs, p)
        for k, x in enumerate(xs):
            assert got[k].tolist() == [reference.poly_eval(col, x, p)
                                       for col in f.T]
        assert alg.p2_eval_x(f, [], p).shape == (0, 2)
