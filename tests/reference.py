"""Scalar reference routines the tests check the engine against."""

import numpy as np

from curvecones import algebra as alg, monomials as mono
from curvecones.errors import InconsistentSystem, SplittingViolation
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
