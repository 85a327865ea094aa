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
