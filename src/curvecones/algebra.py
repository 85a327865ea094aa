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
  x^i y^j.  They only feed `resultant_bivariate`: callers build them from
  forms with `monomials.collect`, so this module keeps no bivariate
  arithmetic beyond `p2_trim` and the specialization `p2_eval_x`.

The prime must stay below 2**25 so that int64 dot products of length a few
thousand cannot overflow; all arithmetic is exact.

`rref_batch` row-reduces a stack of matrices of one shape at once, each
element with its own pivot rows, so elements with different pivot patterns
or ranks share one pass; element by element it returns what `rref` does.
Like `rref` it reduces mod p after every row operation: a row update
subtracts one product of two entries below p, so no intermediate leaves
(-p**2, p).  `kernel_batch` reads special solutions off that pass, and
`solve_batch` the solutions and ranks of stacked systems [m | rhs].

`interpolate` solves the Vandermonde system of its nodes with one
`solve_batch`, and `rational_interpolate` builds its Cauchy rows from the
same matrix.  The powers are built column by column as a product of two
entries below p reduced at once, and the solve is a `rref_batch`, so no
intermediate of either leaves (-p**2, p).

`poly_pow_mod` multiplies residues modulo a polynomial f of degree d as
length-d vectors: one convolution, then one matmul with a reduction matrix
whose rows hold x^k mod f.  A convolution sum has at most d products of
two entries below p, so it stays below d * (p-1)**2, and so does the fold
(the convolution is reduced mod p first).  That is below 2**63 while
d < 2**13 at p < 2**25; `poly_pow_mod` raises ValueError beyond the bound.
The engine's moduli are far smaller (genus-5 point sampling reaches 16).
"""

from __future__ import annotations

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
    return pow(a, p - 2, p)


def first_nonzero(v: np.ndarray) -> int:
    """Index of the first nonzero entry, or -1 for the zero vector."""
    idx = np.nonzero(v)[0]
    return int(idx[0]) if idx.size else -1


def normalize_scalar(v: np.ndarray, p: int) -> np.ndarray:
    """Scale so the first nonzero entry is 1; zero vectors pass through."""
    v = np.asarray(v, dtype=np.int64) % p
    i = first_nonzero(v)
    if i < 0:
        return v
    return v * inv_mod(int(v[i]), p) % p


def _inverses(a: np.ndarray, p: int) -> np.ndarray:
    """Inverses mod p of a vector of nonzero residues."""
    return np.array([pow(v, p - 2, p) for v in a.tolist()], dtype=np.int64)


def normalize_rows(m: np.ndarray, p: int) -> np.ndarray:
    """`normalize_scalar` of every row of a matrix."""
    m = np.asarray(m, dtype=np.int64) % p
    nonzero = m != 0
    lead = m[np.arange(m.shape[0]), nonzero.argmax(axis=1)]
    scale = np.ones(m.shape[0], dtype=np.int64)
    rows = nonzero.any(axis=1)
    scale[rows] = _inverses(lead[rows], p)
    return m * scale[:, None] % p


def rref(m: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and pivot column list."""
    r = np.array(m, dtype=np.int64) % p
    rows, cols = r.shape
    pivots: list[int] = []
    lead = 0
    for c in range(cols):
        if lead >= rows:
            break
        nz = np.nonzero(r[lead:, c])[0]
        if nz.size == 0:
            continue
        j = lead + int(nz[0])
        if j != lead:
            r[[lead, j]] = r[[j, lead]]
        r[lead] = r[lead] * inv_mod(int(r[lead, c]), p) % p
        col = r[:, c].copy()
        col[lead] = 0
        r = (r - np.outer(col, r[lead])) % p
        pivots.append(c)
        lead += 1
    return r, pivots


def rref_batch(stack: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """`rref` of every matrix of an N x rows x cols stack.

    Column by column, each element takes as pivot its first row at or
    below its own lead row with a nonzero entry, swaps it up, scales it and
    clears the column; an element without such a row skips the column.
    Returns the reduced stack and an N x min(rows, cols) array whose row n
    holds the pivot columns of element n in order, padded with -1.

    Columns left of c are zero in the rows at or below an element's lead
    row, so the swap and the update of column c touch columns c onwards
    only.  While every element has pivoted in the same columns, all share
    one lead row and a column runs on slices; once the patterns part, on
    the elements that pivot in it.
    """
    r = np.array(stack, dtype=np.int64)
    r %= p
    n, rows, cols = r.shape
    pivots = np.full((n, min(rows, cols)), -1, dtype=np.int64)
    if n == 1:
        # a batched column makes about twice the numpy calls of a column
        # of `rref`, which pays off from two elements on
        r[0], found = rref(r[0], p)
        pivots[0, :len(found)] = found
        return r, pivots
    elems = np.arange(n)
    row_ids = np.arange(rows)
    common = 0              # the shared lead row, while there is one
    lead = None             # else the lead row of each element
    for c in range(cols):
        if common >= rows:
            break
        if lead is None:
            nonzero = r[:, common:, c] != 0
            found = nonzero.any(axis=1).sum()
            if found == 0:
                continue
            if found == n:
                j = nonzero.argmax(axis=1)
                if j.any():
                    j += common
                    top = r[elems, j, c:]
                    r[elems, j, c:] = r[:, common, c:]
                    r[:, common, c:] = top
                inv = _inverses(r[:, common, c], p)
                top = r[:, common, c:] * inv[:, None] % p
                r[:, :, c:] -= r[:, :, c, None] * top[:, None, :]
                r[:, :, c:] %= p
                r[:, common, c:] = top
                pivots[:, common] = c
                common += 1
                continue
            lead = np.full(n, common, dtype=np.int64)
        cand = (r[:, :, c] != 0) & (row_ids >= lead[:, None])
        e = elems[cand.any(axis=1)]
        if not e.size:
            continue
        lead_e = lead[e]
        j = cand[e].argmax(axis=1)
        top = r[e, j, c:]
        r[e, j, c:] = r[e, lead_e, c:]
        top = top * _inverses(top[:, 0], p)[:, None] % p
        f = r[e, :, c]
        f[np.arange(e.size), lead_e] = 0
        r[e, :, c:] = (r[e, :, c:] - f[:, :, None] * top[:, None, :]) % p
        r[e, lead_e, c:] = top
        pivots[e, lead_e] = c
        lead[e] += 1
        if (lead == lead[0]).all():
            common, lead = int(lead[0]), None
    return r, pivots


def kernel_batch(stack: np.ndarray, p: int, nullity: int
                 ) -> tuple[np.ndarray, np.ndarray]:
    """`kernel_basis` of every matrix of a stack whose kernel has dimension
    `nullity`.

    Returns an N x nullity x cols array and a mask of the elements whose
    kernel has that dimension; the basis of any other element is zero.
    """
    r, pivots = rref_batch(stack, p)
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


def _special_solutions(r: np.ndarray, pivots: list[int], cols: int,
                       p: int) -> np.ndarray:
    """Kernel basis read off a reduced echelon form over the first `cols`
    columns: row k has 1 in free column k, 0 in every other free column,
    and the negated entries of that column of r in the pivot columns."""
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = (-r[:len(pivots)][:, free].T) % p
    return basis


def kernel_basis(m: np.ndarray, p: int) -> np.ndarray:
    """Basis of the right kernel, one row per free column.

    Row k has 1 in its free column and 0 in every other free column, so the
    basis is echelon with respect to the free columns and unique.
    """
    m = np.asarray(m, dtype=np.int64)
    r, pivots = rref(m, p)
    return _special_solutions(r, pivots, m.shape[1], p)


def det(m: np.ndarray, p: int) -> int:
    """Determinant by elimination with row swaps."""
    a = np.array(m, dtype=np.int64) % p
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("determinant needs a square matrix")
    sign = 1
    result = 1
    for c in range(n):
        nz = np.nonzero(a[c:, c])[0]
        if nz.size == 0:
            return 0
        j = c + int(nz[0])
        if j != c:
            a[[c, j]] = a[[j, c]]
            sign = -sign
        piv = int(a[c, c])
        result = result * piv % p
        inv = inv_mod(piv, p)
        below = a[c + 1:, c] * inv % p
        a[c + 1:] = (a[c + 1:] - np.outer(below, a[c])) % p
    return result * sign % p


def inverse(m: np.ndarray, p: int) -> np.ndarray:
    m = np.asarray(m, dtype=np.int64)
    n = m.shape[0]
    aug = np.concatenate([m % p, np.eye(n, dtype=np.int64)], axis=1)
    r, pivots = rref(aug, p)
    if pivots[:n] != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return r[:, n:]


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
        """Residue of v modulo the span; zero in every pivot column."""
        v = np.asarray(v, dtype=np.int64) % self.p
        return (v - v[self.pivots] @ self.rows) % self.p

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


def poly_sub(f, g, p: int) -> np.ndarray:
    n = max(len(f), len(g))
    out = np.zeros(n, dtype=np.int64)
    out[: len(f)] += f
    out[: len(g)] -= g
    return poly_trim(out % p)


def poly_divmod(f, g, p: int) -> tuple[np.ndarray, np.ndarray]:
    f = poly_trim(f)
    g = poly_trim(g)
    if len(g) == 0:
        raise ZeroDivisionError("polynomial division by zero")
    if len(f) < len(g):
        return np.zeros(0, dtype=np.int64), f
    rem = f.copy()
    q = np.zeros(len(f) - len(g) + 1, dtype=np.int64)
    inv_lead = inv_mod(int(g[-1]), p)
    for k in range(len(f) - len(g), -1, -1):
        coef = rem[k + len(g) - 1] * inv_lead % p
        if coef:
            q[k] = coef
            rem[k: k + len(g)] = (rem[k: k + len(g)] - coef * g) % p
    return poly_trim(q), poly_trim(rem)


def poly_mod(f, g, p: int) -> np.ndarray:
    return poly_divmod(f, g, p)[1]


def poly_monic(f, p: int) -> np.ndarray:
    f = poly_trim(f)
    if len(f) == 0:
        return f
    return f * inv_mod(int(f[-1]), p) % p


def poly_gcd(f, g, p: int) -> np.ndarray:
    """Monic greatest common divisor."""
    a, b = poly_trim(f), poly_trim(g)
    while len(b):
        a, b = b, poly_mod(a, b, p)
    return poly_monic(a, p)


def poly_pow_mod(base, e: int, mod, p: int) -> np.ndarray:
    """base^e mod `mod`, trimmed.

    Left-to-right square-and-multiply on residues held as length-d vectors,
    d = deg mod.  The reduction matrix R is built once per call from the
    monic modulus f: row k holds x^k mod f, so its first d rows are the
    identity and the rest hold x^(d+k) mod f.  A product is one convolution
    c of two residues, reduced by one matmul c @ R (that is,
    c[:d] + c[d:] @ R[d:]).  A base longer than the modulus is reduced the
    same way, with as many rows as it needs.  The module docstring gives
    the int64 bound.
    """
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
    n = max(len(base), 2 * d - 1)
    # a column of c @ R sums one entry below p and n - d products below
    # (p-1)**2: d terms in all, unless the base is longer than 2d - 1
    if (n - d + 1) * (p - 1) ** 2 >= 2 ** 63:
        raise ValueError(f"modulus degree {d} with a base of length "
                         f"{len(base)} breaks the int64 budget at p = {p}")
    red = np.zeros((n, d), dtype=np.int64)
    red[:d] = np.eye(d, dtype=np.int64)
    for k in range(d, n):                     # x^k = x * x^(k-1) mod f
        red[k, 1:] = red[k - 1, :-1]
        red[k] = (red[k] - red[k - 1, -1] * f[:d]) % p
    b = (np.asarray(base, dtype=np.int64) % p).dot(red[:len(base)]) % p
    fold = red[:2 * d - 1]
    acc = b
    for bit in bin(e)[3:]:
        acc = (np.convolve(acc, acc) % p).dot(fold) % p
        if bit == "1":
            acc = (np.convolve(acc, b) % p).dot(fold) % p
    return poly_trim(acc)


def poly_eval(f, x: int, p: int) -> int:
    acc = 0
    for c in reversed(poly_trim(f)):
        acc = (acc * x + int(c)) % p
    return acc


def poly_deriv(f, p: int) -> np.ndarray:
    f = poly_trim(f)
    if len(f) <= 1:
        return np.zeros(0, dtype=np.int64)
    return poly_trim(f[1:] * np.arange(1, len(f), dtype=np.int64) % p)


def squarefree_part(f, p: int) -> np.ndarray:
    """f / gcd(f, f'), monic.  Valid while deg f < p (never an issue here)."""
    f = poly_monic(f, p)
    d = poly_gcd(f, poly_deriv(f, p), p)
    return poly_monic(poly_divmod(f, d, p)[0], p)


def _split_distinct_linear(g: np.ndarray, p: int) -> list[int]:
    """Roots of a monic product of distinct linear factors."""
    roots: list[int] = []
    stack = [g]
    while stack:
        h = stack.pop()
        d = poly_deg(h)
        if d <= 0:
            continue
        if d == 1:
            roots.append((-int(h[0])) % p)
            continue
        a = 1
        while True:
            shifted = np.array([a, 1], dtype=np.int64)
            t = poly_pow_mod(shifted, (p - 1) // 2, h, p)
            t = poly_sub(t, np.ones(1, dtype=np.int64), p)
            d1 = poly_gcd(t, h, p)
            if 0 < poly_deg(d1) < d:
                stack.append(d1)
                stack.append(poly_divmod(h, d1, p)[0])
                break
            if poly_eval(h, (-a) % p, p) == 0:
                roots.append((-a) % p)
                stack.append(poly_divmod(
                    h, np.array([a, 1], dtype=np.int64), p)[0])
                break
            a += 1
    return roots


def distinct_roots(f, p: int) -> list[int]:
    """All roots of f in F_p, each once, sorted.

    Computed as gcd(f, x^p - x) followed by equal-degree splitting
    (Cantor-Zassenhaus): both x^p mod f and the splitting powers
    (x+a)^((p-1)/2) mod h come from `poly_pow_mod`, so each is a chain of
    convolutions folded by a reduction matrix built once per modulus.
    """
    f = poly_trim(f)
    if len(f) == 0:
        raise ValueError("distinct_roots needs a nonzero polynomial")
    if len(f) == 1:
        return []
    xp = poly_pow_mod(np.array([0, 1], dtype=np.int64), p, f, p)
    lin = poly_gcd(poly_sub(xp, np.array([0, 1], dtype=np.int64), p), f, p)
    return sorted(_split_distinct_linear(lin, p))


def sylvester(f, g) -> np.ndarray:
    f = poly_trim(f)
    g = poly_trim(g)
    m, n = poly_deg(f), poly_deg(g)
    size = m + n
    s = np.zeros((size, size), dtype=np.int64)
    frow = f[::-1]
    grow = g[::-1]
    for i in range(n):
        s[i, i: i + m + 1] = frow
    for i in range(m):
        s[n + i, i: i + n + 1] = grow
    return s


def resultant(f, g, p: int) -> int:
    """Sylvester-matrix resultant of two nonzero univariate polynomials."""
    f = poly_trim(f)
    g = poly_trim(g)
    if len(f) == 0 or len(g) == 0:
        raise ValueError("resultant needs nonzero polynomials")
    # a constant factor gives a diagonal Sylvester matrix, whose
    # determinant is that constant to the degree of the other
    return det(sylvester(f, g), p)


def _vandermonde(xs, cols: int, p: int) -> np.ndarray:
    """Row i holds x_i^0, ..., x_i^(cols-1) mod p."""
    x = np.asarray(xs, dtype=np.int64) % p
    v = np.ones((len(x), cols), dtype=np.int64)
    for k in range(1, cols):
        v[:, k] = v[:, k - 1] * x % p
    return v


def interpolate(xs, ys, p: int) -> np.ndarray:
    """Unique polynomial of degree < len(xs) through the points (x_i, y_i),
    from one `solve_batch` of the Vandermonde matrix of the nodes.

    `ys` is one value per node, giving a trimmed polynomial, or an
    n x k stack of value columns, giving the n x k array whose column j
    fits column j (entry [i, j] the coefficient of x^i).
    """
    ys = np.asarray(ys, dtype=np.int64) % p
    n = len(xs)
    coeffs, rank, _ = solve_batch(_vandermonde(xs, n, p)[None],
                                  ys.reshape(1, n, -1), p)
    if rank[0] < n:
        raise ValueError("interpolation nodes must be distinct")
    if ys.ndim == 1:
        return poly_trim(coeffs[0, :, 0])
    return coeffs[0]


def rational_interpolate(xs, ys, p: int, num_deg: int, den_deg: int
                         ) -> tuple[np.ndarray, np.ndarray] | None:
    """Cauchy interpolation: N/D of bounded degrees through the samples.

    Solves the homogeneous conditions N(x_i) - y_i D(x_i) = 0 and returns
    (N, D) from a one-dimensional solution, or None when the degrees do not
    fit the data."""
    n_cols = num_deg + 1
    d_cols = den_deg + 1
    v = _vandermonde(xs, max(n_cols, d_cols), p)
    y = np.asarray(ys, dtype=np.int64)[:, None] % p
    kernel = kernel_basis(np.concatenate([v[:, :n_cols],
                                          -y * v[:, :d_cols] % p], axis=1), p)
    if kernel.shape[0] == 0:
        return None
    # over-generous degrees give polynomial multiples of the minimal pair;
    # stripping the common factor recovers it
    sol = kernel[0]
    num = poly_trim(sol[:n_cols])
    den = poly_trim(sol[n_cols:])
    if len(den) == 0 or len(num) == 0:
        return None
    common = poly_gcd(num, den, p)
    if poly_deg(common) > 0:
        num = poly_divmod(num, common, p)[0]
        den = poly_divmod(den, common, p)[0]
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


def p2_eval_x(f: np.ndarray, a: int, p: int) -> np.ndarray:
    """Substitute x = a; returns a univariate polynomial in y."""
    f = np.asarray(f, dtype=np.int64)
    acc = np.zeros(f.shape[1], dtype=np.int64)
    for row in f[::-1]:
        acc = (acc * a + row) % p
    return poly_trim(acc)


def resultant_bivariate(f, g, p: int) -> np.ndarray:
    """Res_y of two bivariate polynomials, as a univariate polynomial in x.

    Evaluate-and-interpolate (Collins, J. ACM 18(4), 1971): specialize x
    at bound + 1 nodes where neither leading y-coefficient drops, take
    scalar Sylvester resultants, `interpolate`.  The bound on the x-degree
    also covers a factor constant in y, whose resultant is its power.
    """
    f = p2_trim(f)
    g = p2_trim(g)
    if f.size == 0 or g.size == 0:
        raise ValueError("resultant of a zero polynomial")
    dfy, dgy = f.shape[1] - 1, g.shape[1] - 1
    lf = poly_trim(f[:, dfy])
    lg = poly_trim(g[:, dgy])
    bound = dfy * (g.shape[0] - 1) + dgy * (f.shape[0] - 1)
    xs: list[int] = []
    ys: list[int] = []
    a = 0
    while len(xs) <= bound:
        if a >= p:
            raise ValueError("field too small for interpolation nodes")
        if poly_eval(lf, a, p) != 0 and poly_eval(lg, a, p) != 0:
            xs.append(a)
            ys.append(resultant(p2_eval_x(f, a, p), p2_eval_x(g, a, p), p))
        a += 1
    return interpolate(xs, ys, p)
