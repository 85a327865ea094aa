"""Exact dense linear algebra and univariate/bivariate polynomial kernels
over a prime field F_p.

Conventions used package-wide:

* matrices and vectors are numpy int64 arrays with entries reduced to [0, p);
* row reduction touches pivots in column order, so echelon output is unique;
* kernel bases follow the special-solution convention: one vector per free
  column, carrying 1 in that column and 0 in every other free column,
  ordered by free column index;
* univariate polynomials are 1-D arrays, lowest degree first, trimmed so a
  nonzero polynomial has nonzero leading entry and the zero polynomial is
  the empty array;
* bivariate polynomials are 2-D arrays, entry [i, j] the coefficient of
  x^i y^j.  Callers build them from forms with `monomials.collect`, so
  this module keeps no bivariate arithmetic beyond `p2_trim` and the
  specialization `p2_eval_x`.

The prime must stay below 2**25 so that int64 dot products of length a few
thousand cannot overflow; all arithmetic is exact.

`rref_batch` row-reduces a stack of matrices of one shape at once, each
element with its own pivot rows, so elements with different pivot patterns
or ranks share one pass.  It delays the reduction mod p (J.-G. Dumas,
P. Giorgi and C. Pernet, ACM TOMS 35(3), 2008): when column c is reached,
that column and the pivot row are reduced, and nothing else, and the whole
matrix is reduced once at the end.  A row update subtracts the product of
two reduced entries, below (p-1)**2, so after k pivot columns every entry
lies in (-k(p-1)**2, k(p-1)**2 + p).  That stays below 2**63 while the
column count, which bounds k, is below 2**13 at p < 2**25; it raises
ValueError beyond it.  The widest matrix of the engine has 171 columns,
the degree-17 multiples of the partials of the genus-5 plane image in
`bundle.node_count` (91 columns, of degree 12, at genus 4).

`kernel_batch` reads special solutions off an `rref_batch` pass
(`special_solutions_batch`), and `solve_batch` the solutions and ranks of
stacked systems [m | rhs].  `det_batch` eliminates a stack of square
matrices and multiplies the pivots; it reduces every update at once, so
no intermediate of it leaves (-p**2, p).  Both passes invert the pivots
of a column with one `_inverses`, Montgomery's batch inversion (P. L.
Montgomery, Math. Comp. 48, 1987): prefix products, one `pow`, then a
walk back, so one modular inverse per pivot column.  A zero maps to 0, as
under Fermat's a**(p-2); the zero pivots of the singular elements of a
`det_batch` stack take that path.

One implementation per job: `rref`, `det`, `kernel_basis` and `inverse`
are `rref_batch`, `det_batch`, `special_solutions_batch` and
`solve_batch` on a stack of one, and `normalize_rows` scales the vectors
of any stack, a vector being a stack of one.  `RowSpace` keeps a span as
its reduced echelon rows; every span-membership check in the engine goes
through it.

`interpolate` multiplies by the inverse Vandermonde matrix of its nodes,
cached per node tuple, and `rational_interpolate` builds its Cauchy rows
from the same matrix.  The powers are built column by column as a
product of two entries below p reduced at once, and the inverse comes
from `inverse`, within the budget of `rref`.

One exact pass per univariate job: `p2_eval_x` evaluates at many nodes
with one Vandermonde product, each entry a sum of one product below p**2
per row of f, so below 2**63 while f has fewer than 2**13 rows at
p < 2**25 (9 at most in the engine, at genus 5).  `resultant_bivariate`
takes the determinants of the Sylvester matrices on the formal
y-degrees at the fixed nodes 0, ..., bound, values below p through one
`det_batch`, and `rational_interpolate` reads the minimal pair off the
last row of one `rref` of the Cauchy kernel, D's coefficients first and
from the top down.

Roots are found on stacks.  `distinct_roots_batch` takes many
polynomials at once through `_Moduli`, a stack of monic moduli padded to
the largest degree D: x^p mod f is one square-and-multiply chain over the
whole stack, each product two batched matmuls through the table of
x^(i+j) mod f; gcds are read off one `rref_batch` of multiplication
matrices; and Cantor-Zassenhaus splitting runs in rounds over the factors
of degree 3 or more that have not split.  A polynomial or factor of degree
at most 2 never enters a round: `_small_roots` finishes it in closed form
on Python ints, a quadratic by Euler's criterion and one Tonelli-Shanks
square root (`_sqrt_mod`).  `distinct_roots` and `poly_pow_mod` are that
kernel on one element.  Each matmul of the kernel sums at most max(D, L)
products of two entries below p, L the length of a base, so it stays
below 2**63 while max(D, L) < 2**13 at p < 2**25; `_Moduli` raises
ValueError beyond the bound.  The table holds D**3 entries per modulus.
The largest D of the engine is 18, the roots of `cone.bitangent_pair`
at genus 4, about 47 kB of table; at genus 5 it is 16, in the slices of
`curve.hyperplane_section`.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

MAX_PRIME_BITS = 25


# Miller-Rabin on these bases is exact for every n below 3215031751,
# far above 2**MAX_PRIME_BITS.
_MR_BASES = (2, 3, 5, 7)


def check_prime(p: int) -> None:
    """Reject moduli that are not odd primes or that break the int64
    overflow budget.  Primality is decided by deterministic Miller-Rabin."""
    if p < 2 or p % 2 == 0:
        raise ValueError(f"modulus must be an odd prime, got {p}")
    if p.bit_length() > MAX_PRIME_BITS:
        raise ValueError(f"modulus too large for exact int64 kernels: {p}")
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        if a % p == 0:
            continue
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            raise ValueError(f"modulus is not prime: {p}")


def inv_mod(a: int, p: int) -> int:
    a %= p
    if a == 0:
        raise ZeroDivisionError("inverse of zero")
    return pow(a, -1, p)


def first_nonzero(v: np.ndarray) -> int:
    """Index of the first nonzero entry, or -1 for the zero vector."""
    idx = np.nonzero(v)[0]
    return int(idx[0]) if idx.size else -1


def _inverses(a: np.ndarray, p: int) -> np.ndarray:
    """Inverses mod p of a vector of residues in [0, p), with 0 for 0.

    Montgomery's batch inversion: the prefix products of the nonzero
    entries, one `pow` of the last, then a walk back that peels one factor
    off at a time.  A zero entry is left out of the products and maps to
    0, the value Fermat's a**(p-2) gives it; `det_batch` relies on that
    for the zero pivots of singular elements.
    """
    vals = a.tolist()
    prefix = []
    acc = 1
    for v in vals:
        prefix.append(acc)
        if v:
            acc = acc * v % p
    inv = pow(acc, -1, p)
    out = [0] * len(vals)
    for i in range(len(vals) - 1, -1, -1):
        if vals[i]:
            out[i] = inv * prefix[i] % p
            inv = inv * vals[i] % p
    return np.array(out, dtype=np.int64)


def normalize_rows(m: np.ndarray, p: int) -> np.ndarray:
    """Every vector of a stack, along the last axis, scaled so its first
    nonzero entry is 1; zero vectors pass through.  A vector is a stack of
    one."""
    m = np.asarray(m, dtype=np.int64) % p
    rows = m.reshape(-1, m.shape[-1])
    nonzero = rows != 0
    lead = rows[np.arange(len(rows)), nonzero.argmax(axis=1)]
    scale = np.ones(len(rows), dtype=np.int64)
    found = nonzero.any(axis=1)
    scale[found] = _inverses(lead[found], p)
    return (rows * scale[:, None] % p).reshape(m.shape)


def rref(m: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and pivot column list: `rref_batch` on a
    stack of one."""
    r, pivots = rref_batch(np.asarray(m, dtype=np.int64)[None], p)
    return r[0], pivots[0][pivots[0] >= 0].tolist()


def rref_batch(stack: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The reduced row echelon form of every matrix of an N x rows x cols
    stack, by delayed reduction (module docstring).

    Column by column, each element takes as pivot its first row at or
    below its own lead row with a nonzero entry, swaps it up, scales it and
    clears the column; an element without such a row skips the column.
    Returns the reduced stack and an N x min(rows, cols) array whose row n
    holds the pivot columns of element n in order, padded with -1.

    Columns left of c are zero in the rows at or below an element's lead
    row, so the swap and the update of column c touch columns c onwards
    only.  While every element has pivoted in the same columns, all share
    one lead row and a column runs on slices.  Where that row is nonzero
    in column c in every element, it is the pivot row: it is scaled and
    clears the column at once.  Only a column where some element must swap
    a row up, or has no pivot, scans the rows below for nonzero entries.
    Once the patterns part, a column runs on the elements that pivot in
    it.  `rref` is this pass on a stack of one.
    """
    n, rows, cols = np.shape(stack)
    if cols >= 2 ** 13:     # the int64 budget (module docstring)
        raise ValueError(f"{cols} columns break the int64 budget of "
                         "delayed row reduction")
    pivots = np.full((n, min(rows, cols)), -1, dtype=np.int64)
    r = np.array(stack, dtype=np.int64)
    r %= p
    elems = np.arange(n)
    row_ids = np.arange(rows)
    # why the shared lead row stays: run without it (every column on the
    # elements that pivot in it), rref_batch took 0.30-0.44 s of a genus-4
    # seed 1 `verify --full`, against 0.26-0.37 s with it (6 runs each),
    # and the process was slower in 16 of 20 alternating pairs (2-core host)
    common = 0              # the shared lead row, while there is one
    lead = None             # else the lead row of each element
    for c in range(cols):
        if common >= rows:
            break
        r[:, :, c] %= p
        if lead is None:
            # a list scan: all() costs more on the few elements of most stacks
            if 0 in r[:, common, c].tolist():
                nonzero = r[:, common:, c] != 0
                found = nonzero.any(axis=1).sum()
                if found == 0:
                    continue
                if found < n:
                    lead = np.full(n, common, dtype=np.int64)
                else:
                    j = nonzero.argmax(axis=1) + common
                    top = r[elems, j, c:]
                    r[elems, j, c:] = r[:, common, c:]
                    r[:, common, c:] = top
        if lead is None:
            top = r[:, common, c:] % p
            top *= _inverses(top[:, 0], p)[:, None]
            top %= p
            r[:, :, c:] -= r[:, :, c, None] * top[:, None, :]
            r[:, common, c:] = top      # which the update zeroed
            pivots[:, common] = c
            common += 1
            continue
        cand = (r[:, :, c] != 0) & (row_ids >= lead[:, None])
        e = elems[cand.any(axis=1)]
        if not e.size:
            continue
        lead_e = lead[e]
        j = cand[e].argmax(axis=1)
        top = r[e, j, c:]
        r[e, j, c:] = r[e, lead_e, c:]
        top = top % p * _inverses(top[:, 0], p)[:, None] % p
        f = r[e, :, c]
        f[np.arange(e.size), lead_e] = 0
        r[e, :, c:] = r[e, :, c:] - f[:, :, None] * top[:, None, :]
        r[e, lead_e, c:] = top
        pivots[e, lead_e] = c
        lead[e] += 1
        if (lead == lead[0]).all():
            common, lead = int(lead[0]), None
    r %= p
    return r, pivots


def kernel_batch(stack: np.ndarray, p: int, nullity: int
                 ) -> tuple[np.ndarray, np.ndarray]:
    """`kernel_basis` of every matrix of a stack whose kernel has dimension
    `nullity`.

    Returns an N x nullity x cols array and a mask of the elements whose
    kernel has that dimension; the basis of any other element is zero.
    """
    return special_solutions_batch(*rref_batch(stack, p), nullity, p)


def special_solutions_batch(r: np.ndarray, pivots: np.ndarray, nullity: int,
                            p: int) -> tuple[np.ndarray, np.ndarray]:
    """`kernel_batch` read off an `rref_batch` output (r, pivots), for a
    caller that also needs the reduced stack or its pivots."""
    n, _, cols = r.shape
    rank = cols - nullity
    ok = (pivots >= 0).sum(axis=1) == rank
    basis = np.zeros((n, nullity, cols), dtype=np.int64)
    e = np.nonzero(ok)[0]
    if e.size:
        pcols = pivots[e, :rank]
        is_pivot = np.zeros((e.size, cols), dtype=bool)
        is_pivot[np.arange(e.size)[:, None], pcols] = True
        free = np.nonzero(~is_pivot)[1].reshape(e.size, nullity)
        k = np.arange(nullity)
        basis[e[:, None], k, free] = 1
        # row k carries -r[i, free[k]] in pivot column pcols[i]
        vals = r[e[:, None, None], np.arange(rank)[:, None], free[:, None, :]]
        basis[e[:, None, None], k, pcols[:, :, None]] = -vals % p
    return basis, ok


def solve_batch(m: np.ndarray, rhs: np.ndarray, p: int
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solutions of m[n] x = rhs[n] for an N x rows x cols stack of
    systems with k right-hand sides each (rhs is N x rows x k), from one
    `rref_batch` of [m | rhs].

    Returns x (N x cols x k, zero in the free columns), the rank of each
    m[n], and whether every right-hand side of m[n] lies in its column
    space.  The pivots left of column cols are those of `rref(m[n])`, so
    the rank comes from the same pass; x is meaningful only where the
    system is consistent.
    """
    n, _, cols = m.shape
    r, pivots = rref_batch(np.concatenate([m, rhs], axis=2), p)
    in_m = (pivots >= 0) & (pivots < cols)
    x = np.zeros((n, cols, rhs.shape[2]), dtype=np.int64)
    e, k = np.nonzero(in_m)
    x[e, pivots[e, k]] = r[e, k, cols:]
    return x, in_m.sum(axis=1), ~(pivots >= cols).any(axis=1)


def rank(m: np.ndarray, p: int) -> int:
    if m.size == 0:
        return 0
    return len(rref(m, p)[1])


def kernel_basis(m: np.ndarray, p: int) -> np.ndarray:
    """Basis of the right kernel, one row per free column:
    `special_solutions_batch` of one `rref_batch` on a stack of one.

    Row k has 1 in its free column and 0 in every other free column, so the
    basis is echelon with respect to the free columns and unique.
    """
    m = np.asarray(m, dtype=np.int64)
    r, pivots = rref_batch(m[None], p)
    nullity = m.shape[1] - int((pivots >= 0).sum())
    return special_solutions_batch(r, pivots, nullity, p)[0][0]


def det(m: np.ndarray, p: int) -> int:
    """Determinant: `det_batch` on a stack of one."""
    return int(det_batch(np.asarray(m)[None], p)[0])


def det_batch(stack: np.ndarray, p: int) -> np.ndarray:
    """The determinant of every matrix of an N x n x n stack.

    Column by column, each element swaps up its first row at or below the
    diagonal with a nonzero entry and clears the column below it; its
    determinant is the product of those pivots, negated once per swap.  An
    element without such a row has determinant 0, and its column below
    the diagonal is already zero.  An update subtracts one product of two
    entries below p and is reduced at once.
    """
    a = np.array(stack, dtype=np.int64) % p
    n, rows, cols = a.shape
    if rows != cols:
        raise ValueError("determinant needs a square matrix")
    elems = np.arange(n)
    out = np.ones(n, dtype=np.int64)
    for c in range(rows):
        j = c + (a[:, c:, c] != 0).argmax(axis=1)
        top = a[elems, j, c:]
        a[elems, j, c:] = a[:, c, c:]
        a[:, c, c:] = top
        piv = top[:, 0]
        out = out * np.where(j != c, p - piv, piv) % p
        below = a[:, c + 1:, c] * _inverses(piv, p)[:, None] % p
        a[:, c + 1:, c:] -= below[:, :, None] * top[:, None, :]
        a[:, c + 1:, c:] %= p
    return out


def inverse(m: np.ndarray, p: int) -> np.ndarray:
    """Inverse of a square matrix: one `solve_batch` against the identity."""
    m = np.asarray(m, dtype=np.int64)
    n = m.shape[0]
    x, rank, _ = solve_batch(m[None], np.eye(n, dtype=np.int64)[None], p)
    if rank[0] != n:
        raise ZeroDivisionError("matrix is singular")
    return x[0]


class RowSpace:
    """Span of row vectors, kept as the nonzero rows of their `rref`.

    `rows[k]` has 1 in column `pivots[k]` and 0 in every other pivot
    column, so a vector v reduces modulo the span in one matmul,
    v - v[pivots] @ rows.  Each of its sums has one product of entries
    below p per pivot, at most 70 in the engine (the quartic monomials at
    genus 5), so it stays below 70 (p-1)**2 < 2**57 at p < 2**25.
    """

    def __init__(self, rows: np.ndarray, p: int):
        r, self.pivots = rref(rows, p)
        self.rows = r[:len(self.pivots)]
        self.p = p

    def reduce(self, v: np.ndarray) -> np.ndarray:
        """Residue of v, or of each row of a stack, modulo the span; zero
        in every pivot column."""
        v = np.asarray(v, dtype=np.int64) % self.p
        return (v - v[..., self.pivots] @ self.rows) % self.p

    def contains(self, v: np.ndarray) -> bool:
        return not self.reduce(v).any()

    def add(self, v: np.ndarray) -> bool:
        """Put v into the span; True when the span grew."""
        r = self.reduce(v)
        c = first_nonzero(r)
        if c < 0:
            return False
        r = r * inv_mod(int(r[c]), self.p) % self.p
        k = int(np.searchsorted(self.pivots, c))
        self.rows = np.insert((self.rows - np.outer(self.rows[:, c], r))
                              % self.p, k, r, axis=0)
        self.pivots.insert(k, c)
        return True


# ---------------------------------------------------------------------------
# univariate polynomials


def poly_trim(f) -> np.ndarray:
    f = np.asarray(f, dtype=np.int64)
    nz = np.nonzero(f)[0]
    if nz.size == 0:
        return np.zeros(0, dtype=np.int64)
    return f[: int(nz[-1]) + 1]


def poly_deg(f: np.ndarray) -> int:
    """Degree, with the zero polynomial at -1."""
    return len(f) - 1


def poly_monic(f, p: int) -> np.ndarray:
    f = poly_trim(f)
    if len(f) == 0:
        return f
    return f * inv_mod(int(f[-1]), p) % p


def poly_stack(polys) -> np.ndarray:
    """The polynomials as the rows of one array, padded with zeros to the
    longest."""
    out = np.zeros((len(polys), max(len(f) for f in polys)), dtype=np.int64)
    for k, f in enumerate(polys):
        out[k, :len(f)] = f
    return out


# ---------------------------------------------------------------------------
# univariate polynomials on stacks: powers, gcds and roots modulo many
# moduli at once


@lru_cache(maxsize=None)
def _sum_index(d: int, width: int = 1) -> np.ndarray:
    """Row l holds i + j + l for i, j < d, row-major, for l < width."""
    return np.add.outer(np.arange(width),
                        np.add.outer(np.arange(d), np.arange(d)).ravel())


@lru_cache(maxsize=None)
def _shift_matrix(d: int) -> np.ndarray:
    """The d x (d+1) matrix taking x^i to x^(i+1)."""
    return np.eye(d, d + 1, 1, dtype=np.int64)


class _Moduli:
    """A stack of monic moduli, padded with zeros to the largest degree D,
    with the residues of the powers of x modulo each.

    A residue modulo f[n] is a length-D vector, zero from deg f[n] on, so
    moduli of different degrees share one array.  `rows[n, k]` holds
    x^k mod f[n], and `square[n, j, i*D + k]` the coefficient of x^k in
    x^(i+j) mod f[n].  The product of residues u and v is u @ (v @ square)
    reshaped to D x D: two batched matmuls, each reduced mod p before the
    next.  A base of `base_len` coefficients reads rows up to
    x^(2D + base_len - 3).  The module docstring gives the int64 budget.
    """

    def __init__(self, moduli: list[np.ndarray], p: int, base_len: int = 2):
        self.p = p
        degs = [len(f) - 1 for f in moduli]
        d, low = max(degs), min(degs)
        if max(d, base_len) * (p - 1) ** 2 >= 2 ** 63:
            raise ValueError(f"modulus degree {d} with a base of length "
                             f"{base_len} breaks the int64 budget at p = {p}")
        n = len(moduli)
        self.deg = np.array(degs)
        self.f = poly_stack(moduli)
        # x times a residue: shift up, then clear the coefficient that
        # reaches x^deg with that multiple of the monic modulus
        last = np.arange(d) == self.deg[:, None] - 1
        times_x = (_shift_matrix(d) - last[:, :, None] * self.f[:, None]
                   )[:, :, :d] % p
        step = times_x                      # x^low, row k holding x^(k+low)
        for bit in bin(low)[3:]:
            step = step @ step % p
            if bit == "1":
                step = step @ times_x % p
        # x^k below every degree, then block after block of rows x^low on
        count = 2 * d + max(base_len, 2) - 2
        rows = np.empty((n, count + low, d), dtype=np.int64)
        rows[:, :low] = _shift_matrix(d)[:low, 1:]
        rows[:, low:2 * low] = step[:, :low]
        for k in range(2 * low, count, low):
            rows[:, k:k + low] = rows[:, k - low:k] @ step % p
        self.rows = rows[:, :count]
        self.square = self.rows[:, _sum_index(d)[0]].reshape(n, d, d * d)

    @cached_property
    def times_x(self) -> np.ndarray:
        """`times` of the base x, built on first use (a gcd needs none)."""
        n, _, d = self.rows.shape
        return self.rows[:, _sum_index(d, 2)[1]].reshape(n, d, d * d)

    def times(self, base: np.ndarray) -> np.ndarray:
        """The tensor of x^(i+j) base[n] mod f[n], shaped as `square`, for
        an N x L stack of reduced bases: the base's combination of the
        rows x^(i+j+l)."""
        n, _, d = self.rows.shape
        shifted = self.rows[:, _sum_index(d, base.shape[1])]
        return (base[:, None, :] @ shifted.reshape(n, base.shape[1], -1)
                % self.p).reshape(n, d, d * d)

    def product(self, u: np.ndarray, v: np.ndarray, tensor: np.ndarray
                ) -> np.ndarray:
        """u v mod f, or u v base with the tensor of `times`, for N x 1 x D
        stacks of residues u and v."""
        n, _, d = u.shape
        return u @ (v @ tensor % self.p).reshape(n, d, d) % self.p

    def reduce(self, v: np.ndarray) -> np.ndarray:
        """v[n] mod f[n] for an N x L stack, L at most the rows kept, as an
        N x 1 x D stack."""
        return v[:, None, :] @ self.rows[:, :v.shape[1]] % self.p

    def chain(self, acc: np.ndarray, bits: str, times_base: np.ndarray
              ) -> np.ndarray:
        """Left-to-right square-and-multiply from an N x 1 x D stack acc,
        one product per bit: a set bit folds the square through
        `times_base` (a tensor of `times`) instead of `square`."""
        for bit in bits:
            acc = self.product(acc, acc, times_base if bit == "1"
                               else self.square)
        return acc

    def power(self, base: np.ndarray, e: int) -> np.ndarray:
        """base[n]^e mod f[n] for an N x L stack of reduced bases, e >= 1,
        as an N x 1 x D stack."""
        return self.chain(self.reduce(base), bin(e)[3:], self.times(base))

    def power_of_x(self, e: int) -> np.ndarray:
        """x^e mod f[n], e >= 1, as an N x 1 x D stack: the chain starts
        at the longest head of the bits of e whose power is a row."""
        bits = bin(e)[2:]
        head = min(len(bits), self.rows.shape[1].bit_length())
        while int(bits[:head], 2) >= self.rows.shape[1]:
            head -= 1
        return self.chain(self.rows[:, None, int(bits[:head], 2)],
                          bits[head:], self.times_x)

    def split(self, g: np.ndarray, cofactor: bool = True
              ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """h = gcd(g[n], f[n]) and, with `cofactor`, f[n] / h, both monic,
        for an N x 1 x D stack of residues, from one `rref_batch`.

        Multiplication by g on F_p[x]/(f) has as image the multiples of h
        and as kernel the multiples of f/h.  Its matrix, rows x^i g for
        i = D-1, ..., 0 and columns by falling degree, beside the identity,
        reduces to [E | K]; an echelon basis by falling degree of the
        multiples of one polynomial ends on that polynomial made monic.
        So h is the last nonzero row of E (f when E is zero), and f/h the
        last row of K (f when g is a unit), as the rows of K beside zero
        rows of E span {q : deg q < D, f | q g}.  This is Laidacker's gcd
        from an echelon form (Math. Mag. 42(3), 1969), with the
        multiplication matrix in place of the Sylvester matrix.
        """
        n, _, d = g.shape
        mult = (g @ self.square % self.p).reshape(n, d, d)[:, ::-1, ::-1]
        if cofactor:
            aug = np.zeros((n, d, 2 * d), dtype=np.int64)
            aug[:, :, :d] = mult
            aug[:, :, d:] = _shift_matrix(d)[:, 1:]
            mult = aug
        r, pivots = rref_batch(mult, self.p)
        rank = ((pivots >= 0) & (pivots < d)).sum(axis=1)
        gcds, cofactors = [], []
        for k, (deg, rk) in enumerate(zip(self.deg.tolist(), rank.tolist())):
            f = self.f[k, :deg + 1]
            gcds.append(f if rk == 0
                        else r[k, rk - 1, :d][::-1][:deg - rk + 1])
            if cofactor:
                cofactors.append(f if rk == deg
                                 else r[k, d - 1, d:][::-1][:rk + 1])
        return gcds, cofactors


def poly_pow_mod(base, e: int, mod, p: int) -> np.ndarray:
    """base^e mod `mod`, trimmed: `_Moduli.power` on a stack of one."""
    f = poly_monic(mod, p)
    d = poly_deg(f)
    if d < 0:
        raise ZeroDivisionError("polynomial division by zero")
    if e < 0:
        raise ValueError(f"exponent must be nonnegative, got {e}")
    if d == 0:
        return np.zeros(0, dtype=np.int64)    # every residue of a unit is 0
    if e == 0:
        return np.ones(1, dtype=np.int64)
    base = np.asarray(base, dtype=np.int64) % p
    if len(base) == 0:
        base = np.zeros(1, dtype=np.int64)
    return poly_trim(_Moduli([f], p, len(base)).power(base[None], e)[0, 0])


def _sqrt_mod(a: int, p: int) -> int:
    """A square root of the nonzero square a modulo the odd prime p, by
    Tonelli-Shanks (H. Cohen, A Course in Computational Algebraic Number
    Theory, Alg. 1.5.1): with p - 1 = 2^e q, q odd, and y = n^q for the
    least non-residue n, a generator of the 2-Sylow subgroup,
    x = a^((q+1)/2) is corrected by powers of y until b = x^2 / a, of
    order 2^m, reaches 1; at most e - 1 steps."""
    q, e = p - 1, 0
    while q % 2 == 0:
        q, e = q // 2, e + 1
    n = next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)
    y, r = pow(n, q, p), e
    x = pow(a, (q + 1) // 2, p)
    b = pow(a, q, p)
    while b != 1:
        m, b2 = 1, b * b % p
        while b2 != 1:
            m, b2 = m + 1, b2 * b2 % p
        t = pow(y, 1 << (r - m - 1), p)
        y, r = t * t % p, m
        x, b = x * t % p, b * y % p
    return x


def _small_roots(h: np.ndarray, p: int) -> list[int]:
    """The distinct roots of a monic h of degree at most 2, in closed form:
    none for a constant, -h0 for a linear factor; for x^2 + bx + c one
    root -b/2 when the discriminant D = b^2 - 4c is 0, none when D is not
    a square (Euler's criterion), and (-b +- sqrt D)/2 otherwise."""
    if len(h) < 3:
        return [int(-h[0] % p)] if len(h) == 2 else []
    c, b = int(h[0]), int(h[1])
    disc, half = (b * b - 4 * c) % p, (p + 1) // 2
    if disc == 0:
        return [-b * half % p]
    if pow(disc, (p - 1) // 2, p) != 1:
        return []
    s = _sqrt_mod(disc, p)
    return [(s - b) * half % p, (-s - b) * half % p]


def distinct_roots_batch(polys, p: int) -> list[list[int]]:
    """The roots in F_p of each polynomial, each once, sorted.

    A polynomial or factor of degree at most 2 is finished in closed form
    (`_small_roots`, one Tonelli-Shanks square root for a quadratic).  For
    every f of degree 3 or more at once, one square-and-multiply chain
    (`_Moduli.power_of_x`) gives t = x^((p-1)/2) mod f, and one more
    product x t^2 = x^p.  One `rref_batch` gives h = gcd(f, x^p - x), the
    product of the distinct linear factors of f.  Then Cantor-Zassenhaus
    splitting in rounds (von zur Gathen and Gerhard, Modern Computer
    Algebra, ch. 14), on the factors of degree 3 or more only: such an h
    splits into gcd(t - 1, h) and its cofactor when neither is 1, for
    t = (x + a)^((p-1)/2) mod h; a root -a lands in the cofactor, as t
    vanishes there.  The first round takes a = 0 and the t above, reduced
    mod h.  Each later round takes one new shift a = 1, 2, ... for every
    factor left, and runs all factors in one chain and one gcd pass.  The
    roots are sorted at the end, so the order of the splits does not
    matter.
    """
    monic = [poly_monic(f, p) for f in polys]
    if any(len(f) == 0 for f in monic):
        raise ValueError("distinct_roots needs a nonzero polynomial")
    roots: list[list[int]] = [[] for _ in monic]
    factors = [(n, f) for n, f in enumerate(monic) if len(f) <= 3]
    wide = [n for n, f in enumerate(monic) if len(f) > 3]
    half = None
    if wide:
        mods = _Moduli([monic[n] for n in wide], p)
        half = mods.power_of_x((p - 1) // 2)
        xp = mods.product(half, half, mods.times_x)
        xp[:, 0, 1] -= 1            # x^p - x, reduced by the gcd's matmul
        lin, _ = mods.split(xp, cofactor=False)
        factors += zip(wide, lin)
        half = half[[k for k, h in enumerate(lin) if len(h) > 3]]
    shift = 1
    while True:
        for n, h in factors:
            if len(h) <= 3:
                roots[n] += _small_roots(h, p)
        factors = [(n, h) for n, h in factors if len(h) > 3]
        if not factors:
            return [sorted(r) for r in roots]
        if half is not None:        # the first round, with a = 0
            mods = _Moduli([h for _, h in factors], p, half.shape[2])
            t = mods.reduce(half[:, 0])
            half = None
        else:                       # a later round, with a = shift
            mods = _Moduli([h for _, h in factors], p)
            t = mods.power(np.tile([shift % p, 1], (len(factors), 1)),
                           (p - 1) // 2)
            shift += 1
        t[:, 0, 0] -= 1
        gcds, cofactors = mods.split(t)
        factors = [part for (n, h), gcd, cof in zip(factors, gcds, cofactors)
                   for part in ([(n, gcd), (n, cof)]
                                if 1 < len(gcd) < len(h) else [(n, h)])]


def distinct_roots(f, p: int) -> list[int]:
    """All roots of f in F_p, each once, sorted: `distinct_roots_batch` on
    one polynomial."""
    return distinct_roots_batch([f], p)[0]


def _vandermonde(xs, cols: int, p: int) -> np.ndarray:
    """Row i holds x_i^0, ..., x_i^(cols-1) mod p."""
    x = np.asarray(xs, dtype=np.int64) % p
    v = np.ones((len(x), cols), dtype=np.int64)
    for k in range(1, cols):
        v[:, k] = v[:, k - 1] * x % p
    return v


@lru_cache(maxsize=64)
def _vandermonde_inverse(xs: tuple, p: int) -> np.ndarray:
    """Inverse of the Vandermonde matrix of the nodes (a resultant fits at
    0, ..., bound, so one entry per bound)."""
    try:
        return inverse(_vandermonde(xs, len(xs), p), p)
    except ZeroDivisionError:
        raise ValueError("interpolation nodes must be distinct") from None


def interpolate(xs, ys, p: int) -> np.ndarray:
    """Unique polynomial of degree < len(xs) through the points (x_i, y_i):
    one product with the inverse Vandermonde matrix of the n nodes, cached
    per node tuple.  An entry sums n products of two entries below p, so
    it stays below 2**63 while n < 2**13 at p < 2**25.

    `ys` is one value per node, giving a trimmed polynomial, or an
    n x k stack of value columns, giving the n x k array whose column j
    fits column j (entry [i, j] the coefficient of x^i).
    """
    ys = np.asarray(ys, dtype=np.int64) % p
    inv = _vandermonde_inverse(tuple(int(x) % p for x in xs), p)
    coeffs = inv @ ys.reshape(len(inv), -1) % p
    if ys.ndim == 1:
        return poly_trim(coeffs[:, 0])
    return coeffs


def rational_interpolate(xs, ys, p: int, num_deg: int, den_deg: int
                         ) -> tuple[np.ndarray, np.ndarray] | None:
    """Cauchy interpolation: N/D of bounded degrees through the samples.

    Solves the homogeneous conditions N(x_i) - y_i D(x_i) = 0, the columns
    D's coefficients from the top down, then N's.  When a pair of these
    degrees fits, the solutions are the multiples c (N0, D0) of the
    minimal pair with deg c at most the slack (von zur Gathen and Gerhard,
    *Modern Computer Algebra*, 5.7-5.8).  The last row of one `rref` of
    the kernel has the most leading zeros among D's top coefficients, so
    the least deg D and a constant c: it is (N0, D0) with D0 monic.  None
    when the kernel is zero or that row has N or D zero."""
    d_cols = den_deg + 1
    v = _vandermonde(xs, max(num_deg + 1, d_cols), p)
    y = np.asarray(ys, dtype=np.int64)[:, None] % p
    kernel = kernel_basis(np.concatenate(
        [-y * v[:, d_cols - 1::-1] % p, v[:, :num_deg + 1]], axis=1), p)
    if kernel.shape[0] == 0:
        return None
    last = rref(kernel, p)[0][-1]
    num, den = poly_trim(last[d_cols:]), poly_trim(last[d_cols - 1::-1])
    if len(den) == 0 or len(num) == 0:
        return None
    return num, den


# ---------------------------------------------------------------------------
# bivariate polynomials, entry [i, j] = coefficient of x^i y^j, as read by
# resultant_bivariate


def p2_trim(f: np.ndarray) -> np.ndarray:
    f = np.asarray(f, dtype=np.int64)
    if f.size == 0 or not f.any():
        return np.zeros((0, 0), dtype=np.int64)
    rows = np.nonzero(f.any(axis=1))[0]
    cols = np.nonzero(f.any(axis=0))[0]
    return f[: rows[-1] + 1, : cols[-1] + 1]


def p2_eval_x(f: np.ndarray, xs, p: int) -> np.ndarray:
    """Substitute x = a for every node a of xs, with one `_vandermonde`
    product: row k holds the coefficients in y of f(xs[k], y), untrimmed.
    A univariate polynomial is a one-column array, and its values are the
    one column of the result."""
    f = np.asarray(f, dtype=np.int64) % p
    return _vandermonde(xs, f.shape[0], p) @ f % p


def resultant_bivariate(f, g, p: int) -> np.ndarray:
    """Res_y of two bivariate polynomials, as a univariate polynomial in x.

    Evaluate-and-interpolate (Collins, J. ACM 18(4), 1971): the Sylvester
    matrix on the formal y-degrees m and n of f and g has the resultant
    as its determinant, of x-degree at most bound = m deg_x g + n deg_x f.
    Its value at a node is the resultant there, also where a leading
    y-coefficient vanishes.  So one `p2_eval_x` each specializes f and g
    at the nodes 0, ..., bound, one `det_batch` takes the determinants
    and `interpolate` fits them.  The bound also covers a factor constant
    in y, whose resultant is its power.
    """
    f = p2_trim(f)
    g = p2_trim(g)
    if f.size == 0 or g.size == 0:
        raise ValueError("resultant of a zero polynomial")
    m, n = f.shape[1] - 1, g.shape[1] - 1
    bound = m * (g.shape[0] - 1) + n * (f.shape[0] - 1)
    if bound >= p:
        raise ValueError("field too small for interpolation nodes")
    xs = np.arange(bound + 1)
    fa, ga = p2_eval_x(f, xs, p), p2_eval_x(g, xs, p)
    sylvester = np.zeros((bound + 1, m + n, m + n), dtype=np.int64)
    for i in range(n):
        sylvester[:, i, i:i + m + 1] = fa[:, ::-1]
    for i in range(m):
        sylvester[:, n + i, i:i + n + 1] = ga[:, ::-1]
    return interpolate(xs, det_batch(sylvester, p), p)
