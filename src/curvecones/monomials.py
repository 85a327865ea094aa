"""Dense homogeneous forms over a fixed monomial basis.

A degree-n form in g variables is a coefficient vector indexed by the
monomial list `exponents(g, n)`.  The order is graded, then lexicographic
on exponent tuples with z0 > z1 > ... > z_{g-1}, so z0^n comes first.
Every serialized coefficient array in the package uses this order.

Substitution (`restrict`) works by evaluation and interpolation: the
pulled-back form is evaluated at a fixed unisolvent node set and read back
through the inverse of the node evaluation matrix, cached per shape and
prime.  It is the one substitution path: `restrict_to_line` is `restrict`
to the basis of a line.  `_product_table` is the one monomial-product
table: the index of z^a z^b for every pair of monomials of two degrees,
cached per genus and pair of degrees.  `multiples` scatters a form through
it into its multiples by every monomial of a degree, `mul_forms` is a
vector against those multiples, and `gradient` gathers every partial
derivative through the table of degrees 1 and n - 1.  A pull-back along a
polynomial parametrization is `restrict` to the coefficient vectors of the
parametrization followed by `collect`, which sums the coefficient of each
monomial y^e into the monomial x^(e . weights) of the parameters.

Arithmetic is exact in int64: entries are reduced to [0, p) with p < 2**25
(`algebra.MAX_PRIME_BITS`), so each product of two entries is below 2**50
and a dot product of k terms stays below k * 2**50.  The longest the engine
forms has count(5, 4) = 70 terms (a genus-5 quartic), so every sum stays
below 2**57.  `mul_forms(c1, n1, c2, n2)` sums count(g, n1) products, each
below p**2: at most 15 in the engine (the square of a genus-5 quadric), so
below 2**54.  `multiples` and `gradient` form no sums: `multiples` only
copies residues, and `gradient` multiplies each by an exponent of at most
n.  `collect` adds residues without products: an output entry sums at most
count(m, n) <= 70 residues below p, far below 2**63.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

import numpy as np

from . import algebra
from .rng import Stream


@lru_cache(maxsize=None)
def exponents(g: int, n: int) -> tuple[tuple[int, ...], ...]:
    """All exponent tuples of total degree n in g variables, lex-descending."""
    def gen(nvars: int, total: int):
        if nvars == 1:
            yield (total,)
            return
        for head in range(total, -1, -1):
            for tail in gen(nvars - 1, total - head):
                yield (head,) + tail
    return tuple(gen(g, n))


@lru_cache(maxsize=None)
def index_map(g: int, n: int) -> dict[tuple[int, ...], int]:
    return {e: i for i, e in enumerate(exponents(g, n))}


def count(g: int, n: int) -> int:
    return comb(g - 1 + n, n)


@lru_cache(maxsize=None)
def _exponent_columns(g: int, n: int) -> np.ndarray:
    """The exponent table of exponents(g, n) by columns: row k holds the
    exponent of z_k in each monomial."""
    expo = np.array(exponents(g, n), dtype=np.int64)
    return np.ascontiguousarray(expo.T)


def eval_matrix(pts: np.ndarray, g: int, n: int, p: int) -> np.ndarray:
    """Matrix of monomial values, rows = points, columns = exponents(g, n)."""
    pts = np.asarray(pts, dtype=np.int64) % p
    # powers[e, i, k] = pts[i, k] ** e
    powers = np.ones((n + 1,) + pts.shape, dtype=np.int64)
    for e in range(1, n + 1):
        powers[e] = powers[e - 1] * pts % p
    out = np.ones((count(g, n), pts.shape[0]), dtype=np.int64)
    for k, col in enumerate(_exponent_columns(g, n)):
        out *= powers[col, :, k]
        out %= p
    return np.ascontiguousarray(out.T)


def form_eval(coeffs: np.ndarray, pts: np.ndarray, g: int, n: int,
              p: int) -> np.ndarray:
    """Values of the form at each point (row) of pts."""
    pts = np.atleast_2d(np.asarray(pts, dtype=np.int64))
    return eval_matrix(pts, g, n, p) @ np.asarray(coeffs, dtype=np.int64) % p


def form_eval_one(coeffs: np.ndarray, pt: np.ndarray, g: int, n: int,
                  p: int) -> int:
    return int(form_eval(coeffs, pt.reshape(1, -1), g, n, p)[0])


@lru_cache(maxsize=None)
def _product_table(g: int, n1: int, n2: int) -> np.ndarray:
    """Index in exponents(g, n1 + n2) of the product of monomials i and j:
    the one monomial-product table of the package."""
    target = index_map(g, n1 + n2)
    return np.array([[target[tuple(a + b for a, b in zip(e1, e2))]
                      for e2 in exponents(g, n2)]
                     for e1 in exponents(g, n1)], dtype=np.int64)


def multiples(forms: np.ndarray, e: int, d: int, g: int, p: int
              ) -> np.ndarray:
    """The degree-d multiples of a degree-e form: row i is the i-th
    monomial of exponents(g, d - e) times the form, count(g, d - e) x
    count(g, d); for a stack of forms, one such matrix per form.

    A monomial times a form is a permutation of the form's coefficients,
    so the rows are one scatter through the product table, with no sums."""
    forms = np.asarray(forms, dtype=np.int64) % p
    table = _product_table(g, d - e, e)
    out = np.zeros(forms.shape[:-1] + (len(table), count(g, d)),
                   dtype=np.int64)
    out[..., np.arange(len(table))[:, None], table] = forms[..., None, :]
    return out


def mul_forms(c1: np.ndarray, n1: int, c2: np.ndarray, n2: int, g: int,
              p: int) -> np.ndarray:
    """Product of two forms as a degree n1+n2 coefficient vector: c1
    against the degree-(n1 + n2) multiples of c2; for stacks of forms, the
    product of each pair, one stack broadcast against the other."""
    c1 = np.asarray(c1, dtype=np.int64)[..., None, :] % p
    return (c1 @ multiples(c2, n2, n1 + n2, g, p))[..., 0, :] % p


def gradient(coeffs: np.ndarray, g: int, n: int, p: int) -> np.ndarray:
    """All partial derivatives of a degree-n form, g x count(g, n - 1):
    row var is d/dz_var; for a stack of forms, [..., var, :].

    The coefficient of the monomial m in d/dz_var is that of z_var m times
    its z_var exponent, so the derivatives are one gather through the
    product table."""
    table = _product_table(g, 1, n - 1)
    mult = _exponent_columns(g, n)[np.arange(g)[:, None], table]
    return np.asarray(coeffs, dtype=np.int64)[..., table] * mult % p


@lru_cache(maxsize=None)
def _interpolation_nodes(m: int, n: int, p: int
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Nodes Y (count(m, n) x m) on which degree-n forms in m variables are
    determined by their values, and the inverse of their evaluation matrix.

    The nodes come from their own fixed stream, never from a caller's, so
    substitution consumes no randomness of the pipeline.  A node set exists
    once p > n (no nonzero form of degree below p vanishes on all of F_p^m);
    a singular draw is simply redrawn.
    """
    if n >= p:
        raise ValueError(f"interpolation of degree {n} needs a prime above "
                         f"{n}, got {p}")
    stream = Stream(0, f"restrict-nodes|{m}|{n}")
    while True:
        nodes = stream.field_mat(p, count(m, n), m)
        try:
            return nodes, algebra.inverse(eval_matrix(nodes, m, n, p), p)
        except ZeroDivisionError:   # singular node set; its own stream,
            continue                # not a resample of the pipeline


def restrict(coeffs: np.ndarray, n: int, g: int, basis: np.ndarray,
             p: int) -> np.ndarray:
    """Substitute z = basis @ y; returns a degree-n form in m = basis.shape[-1]
    variables.

    The restricted form is fixed by its values at the cached interpolation
    nodes Y: it is V^-1 (E(Y basis^T) coeffs), with E the monomial evaluation
    matrix and V = E(Y) in the m variables.  Both products are exact int64
    dot products of at most 70 terms (see the module docstring).  coeffs
    may also be a count(g, n) x k matrix, one form per column; the result
    is then count(m, n) x k, each column the restriction of its form.  A
    stack of bases (N x g x m) gives a stack of results, the nodes of
    every basis in one `eval_matrix`, with the same dot products and so the
    same int64 budget; an N x count(g, n) x k stack of coeffs restricts
    the forms of coeffs[i] to basis[i].
    """
    coeffs = np.asarray(coeffs, dtype=np.int64) % p
    basis = np.asarray(basis, dtype=np.int64) % p
    nodes, inv = _interpolation_nodes(basis.shape[-1], n, p)
    pts = nodes @ basis.swapaxes(-1, -2) % p
    values = eval_matrix(pts.reshape(-1, g), g, n, p)
    if coeffs.ndim == 3:
        values = values.reshape(pts.shape[:-1] + (-1,)) @ coeffs % p
    else:
        values = (values @ coeffs % p).reshape(pts.shape[:-1]
                                               + coeffs.shape[1:])
    return values @ inv.T % p if coeffs.ndim == 1 else inv @ values % p


def restrict_to_line(coeffs: np.ndarray, n: int, g: int, a: np.ndarray,
                     b: np.ndarray, p: int) -> np.ndarray:
    """Binary form of F(a s + b t) as coefficients over exponents(2, n);
    for N x g stacks a and b, the N x (n+1) array of the binary forms of
    the lines through a[k] and b[k], of one form F or of the form coeffs[k]
    of an N x count(g, n) stack on line k.

    This is `restrict` to the basis [a b] (a stack of bases for stacks a
    and b), so the same exact dot products.
    """
    basis = np.stack([np.asarray(a), np.asarray(b)], axis=-1)
    if np.ndim(coeffs) == 2:
        return restrict(np.asarray(coeffs)[:, :, None], n, g, basis,
                        p)[:, :, 0]
    return restrict(coeffs, n, g, basis, p)


def collect(coeffs: np.ndarray, n: int, m: int, weights, p: int
            ) -> np.ndarray:
    """Re-index a degree-n form in m variables y along y_i -> x^weights[i].

    weights is an m x k table of exponents in k parameters x; the result is
    a dense array with one axis per parameter whose entry at x^a sums the
    coefficients of every y^e with e . weights = a.  Distinct y-monomials
    may land on one x-monomial (y0 y3 and y1 y2 under 1, u, t, ut), which
    is why the entries are summed, not assigned.  Each entry is a sum of at
    most count(m, n) residues (see the module docstring).
    """
    weights = np.asarray(weights, dtype=np.int64)
    targets = sum(col[:, None] * w
                  for col, w in zip(_exponent_columns(m, n), weights))
    out = np.zeros(n * weights.max(axis=0) + 1, dtype=np.int64)
    np.add.at(out, tuple(targets.T),
              np.asarray(coeffs, dtype=np.int64) % p)
    return out % p


def form_to_pairs(coeffs: np.ndarray, g: int, n: int) -> list:
    """JSON shape: [[exponent tuple, coefficient], ...], nonzero entries only."""
    expo = exponents(g, n)
    return [[list(expo[i]), int(c)]
            for i, c in enumerate(np.asarray(coeffs)) if int(c) != 0]


def form_from_pairs(pairs, g: int, n: int, p: int) -> np.ndarray:
    idx = index_map(g, n)
    out = np.zeros(count(g, n), dtype=np.int64)
    for e, c in pairs:
        out[idx[tuple(e)]] = int(c) % p
    return out
