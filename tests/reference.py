"""Scalar reference routines the tests check the engine against."""

import numpy as np

from curvecones import algebra as alg, curve as cv, monomials as mono
from curvecones.errors import (DegenerateInput, InconsistentSystem,
                               InsufficientPoints, SplittingViolation)
from curvecones.rng import Stream


def solve_consistent(m, rhs, p):
    """One solution of m x = rhs, read off `rref` of [m | rhs]: zero in
    the free columns.  Raises InconsistentSystem when rhs is outside the
    column space."""
    m = np.asarray(m, dtype=np.int64) % p
    rhs = np.asarray(rhs, dtype=np.int64).reshape(-1, 1) % p
    r, pivots = alg.rref(np.concatenate([m, rhs], axis=1), p)
    cols = m.shape[1]
    if cols in pivots:
        raise InconsistentSystem("rhs is not in the column space")
    x = np.zeros(cols, dtype=np.int64)
    x[pivots] = r[:len(pivots), cols]
    return x


def divide_by_vertex_square(restricted, m):
    """The quadric q in m variables with restricted = z0^2 q, a quartic in
    the same variables, read monomial by monomial through `index_map`.
    Raises SplittingViolation at a nonzero monomial of z0 degree below 2."""
    quad = np.zeros(mono.count(m, 2), dtype=np.int64)
    target = mono.index_map(m, 2)
    for c, e in zip(restricted, mono.exponents(m, 4)):
        if c == 0:
            continue
        if e[0] < 2:
            raise SplittingViolation(f"monomial {e} survives")
        quad[target[(e[0] - 2,) + e[1:]]] = c
    return quad


def stream_draws(monkeypatch, run):
    """Result of run() and the `Stream.next_u64` calls it made, by stream
    tag."""
    counts = {}
    real = Stream.next_u64

    def next_u64(self):
        counts[self.tag] = counts.get(self.tag, 0) + 1
        return real(self)

    monkeypatch.setattr(Stream, "next_u64", next_u64)
    result = run()
    monkeypatch.setattr(Stream, "next_u64", real)
    return result, counts


def poly_mul(f, g, p):
    """Product of two univariate polynomials, trimmed."""
    if len(f) == 0 or len(g) == 0:
        return np.zeros(0, dtype=np.int64)
    return alg.poly_trim(np.convolve(f, g) % p)


def lagrange_interpolate(xs, ys, p):
    """Unique polynomial of degree < len(xs) through the points, as a sum
    of Lagrange basis polynomials built by polynomial division."""
    xs = [int(x) % p for x in xs]
    ys = [int(y) % p for y in ys]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation nodes must be distinct")
    master = np.ones(1, dtype=np.int64)
    for x in xs:
        master = poly_mul(master, np.array([-x % p, 1]), p)
    out = np.zeros(len(xs), dtype=np.int64)
    for x, y in zip(xs, ys):
        num = alg.poly_divmod(master, np.array([-x % p, 1]), p)[0]
        scale = y * alg.inv_mod(alg.poly_eval(num, x, p), p) % p
        out[:len(num)] = (out[:len(num)] + scale * num) % p
    return alg.poly_trim(out)


def sweep_discriminant(chart, s1, s2, p):
    """Discriminant in lam of the residual section polynomial of the planes
    s1 + lam s2, one node at a time: the quotient by the gcd of the sweeps
    at lam = 101, 202, 303, its scalar resultant with its derivative at the
    first 80 nodes lam >= 2 of the first node's degree, and a Lagrange fit.
    None where a sweep leaves a remainder before 80 nodes are found, or the
    quotient has degree below 2."""
    def sweep(lam):
        return chart.section_poly((s1 + lam * s2) % p)

    common = alg.poly_gcd(sweep(101), alg.poly_gcd(sweep(202), sweep(303),
                                                   p), p)
    nodes, values = [], []
    generic_deg = None
    lam = 1
    while len(nodes) < 80 and lam < 700:
        lam += 1
        quot, rem = alg.poly_divmod(sweep(lam), common, p)
        if len(rem):
            continue
        d = alg.poly_deg(quot)
        if generic_deg is None:
            generic_deg = d
        if d != generic_deg or d < 2:
            continue
        nodes.append(lam)
        values.append(alg.resultant(quot, alg.poly_deriv(quot, p), p))
    if len(nodes) < 80:
        return None
    return lagrange_interpolate(nodes, values, p)


def poly_sub(f, g, p):
    """Difference of two univariate polynomials, trimmed."""
    out = np.zeros(max(len(f), len(g)), dtype=np.int64)
    out[:len(f)] += f
    out[:len(g)] -= g
    return alg.poly_trim(out % p)


def poly_pow_mod(base, e, mod, p):
    """base^e mod `mod` by square-and-multiply on one modulus: each product
    is a convolution folded by a reduction matrix whose row k holds
    x^k mod f."""
    f = alg.poly_monic(mod, p)
    d = alg.poly_deg(f)
    if e == 0:
        return np.ones(1, dtype=np.int64) if d > 0 \
            else np.zeros(0, dtype=np.int64)
    n = max(len(base), 2 * d - 1)
    red = np.zeros((n, d), dtype=np.int64)
    red[:d] = np.eye(d, dtype=np.int64)
    for k in range(d, n):
        red[k, 1:] = red[k - 1, :-1]
        red[k] = (red[k] - red[k - 1, -1] * f[:d]) % p
    b = (np.asarray(base, dtype=np.int64) % p).dot(red[:len(base)]) % p
    fold = red[:2 * d - 1]
    acc = b
    for bit in bin(e)[3:]:
        acc = (np.convolve(acc, acc) % p).dot(fold) % p
        if bit == "1":
            acc = (np.convolve(acc, b) % p).dot(fold) % p
    return alg.poly_trim(acc)


def distinct_roots(f, p):
    """All roots of f in F_p, each once, sorted, one polynomial at a time:
    gcd(f, x^p - x) by Euclid, then Cantor-Zassenhaus splitting that tries
    the shifts a = 1, 2, ... on one factor at a time."""
    f = alg.poly_trim(f)
    if len(f) <= 1:
        return []
    x = np.array([0, 1], dtype=np.int64)
    stack = [alg.poly_gcd(poly_sub(poly_pow_mod(x, p, f, p), x, p), f, p)]
    roots = []
    while stack:
        h = stack.pop()
        d = alg.poly_deg(h)
        if d <= 0:
            continue
        if d == 1:
            roots.append(-int(h[0]) % p)
            continue
        a = 1
        while True:
            shifted = np.array([a, 1], dtype=np.int64)
            t = poly_sub(poly_pow_mod(shifted, (p - 1) // 2, h, p),
                         np.ones(1, dtype=np.int64), p)
            d1 = alg.poly_gcd(t, h, p)
            if 0 < alg.poly_deg(d1) < d:
                stack += [d1, alg.poly_divmod(h, d1, p)[0]]
                break
            if alg.poly_eval(h, -a % p, p) == 0:
                roots.append(-a % p)
                stack.append(alg.poly_divmod(h, shifted, p)[0])
                break
            a += 1
    return sorted(roots)


def sample_points_one_line_at_a_time(curve, count):
    """Genus-4 `sample_points` walking one ruling line per draw: the
    sorted, truncated points and the number of lines drawn."""
    p = curve.prime
    stream = Stream(curve.seed, f"sample-points-g{curve.genus}")
    chart = cv.ruling_chart(curve)
    found = {}
    lines = 0
    budget = cv.POINT_BUDGET_FACTOR * count + 400
    while len(found) < count and budget > 0:
        budget -= 1
        lines += 1
        pts, = chart.points_on_line([stream.field(p)])
        if isinstance(pts, DegenerateInput):
            raise pts
        for q in pts:
            found[tuple(q.tolist())] = q
    if len(found) < count:
        raise InsufficientPoints(
            f"found {len(found)} of {count} requested points")
    return [found[k] for k in sorted(found)][:count], lines
