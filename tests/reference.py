"""Scalar reference routines the tests check the engine against."""

import itertools

import numpy as np

from curvecones import algebra as alg, cone as cn, curve as cv
from curvecones import monomials as mono, net as nt, pencil as pc
from curvecones.errors import (AmbiguousFit, CorankJump, CurveConesError,
                               DegenerateInput, Draws, InadmissiblePencil,
                               InconsistentReconstruction, InconsistentSystem,
                               InsufficientPoints, NodeFiber, RankDeficientW,
                               SingularPoint, SplittingViolation,
                               UnderdeterminedReconstruction,
                               VerificationFailed, resample, unwrap,
                               value_of)
from curvecones.rng import Stream, derive_key


def normalize(v, p):
    """v scaled so its first nonzero entry is 1, in Python ints; the zero
    vector passes through."""
    v = [int(x) % p for x in v]
    lead = next((x for x in v if x), 1)
    inv = pow(lead, -1, p)
    return np.array([x * inv % p for x in v], dtype=np.int64)


def normalize_point(v, p):
    """The projective point v with first nonzero coordinate 1."""
    v = normalize(v, p)
    if not v.any():
        raise ValueError("projective point cannot be zero")
    return v


def partial(coeffs, var, g, n, p):
    """d/dz_var of a degree-n form, or of each row of a stack, by a walk
    over its exponents: the coefficient of z^e moves to z^e / z_var,
    times the exponent e[var]."""
    coeffs = np.asarray(coeffs, dtype=np.int64)
    lower = mono.index_map(g, n - 1)
    out = np.zeros(coeffs.shape[:-1] + (mono.count(g, n - 1),),
                   dtype=np.int64)
    for i, e in enumerate(mono.exponents(g, n)):
        if e[var]:
            target = list(e)
            target[var] -= 1
            out[..., lower[tuple(target)]] = coeffs[..., i] * e[var] % p
    return out


def det(m, p):
    """Determinant by Gaussian elimination in Python ints, one
    `pow(x, -1, p)` per pivot and a sign flip per row swap."""
    a = [[int(x) % p for x in row] for row in m]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("determinant needs a square matrix")
    result = 1
    for c in range(n):
        j = next((j for j in range(c, n) if a[j][c]), None)
        if j is None:
            return 0
        if j != c:
            a[c], a[j] = a[j], a[c]
            result = -result
        result = result * a[c][c] % p
        inv = pow(a[c][c], -1, p)
        for i in range(c + 1, n):
            f = a[i][c] * inv % p
            a[i] = [(x - f * y) % p for x, y in zip(a[i], a[c])]
    return result % p


def rref(m, p):
    """Reduced row echelon form and pivot list by the elimination that
    reduces every entry mod p after every row operation, so no
    intermediate leaves (-p**2, p)."""
    r = np.array(m, dtype=np.int64) % p
    rows, cols = r.shape
    pivots = []
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
        r[lead] = r[lead] * pow(int(r[lead, c]), -1, p) % p
        col = r[:, c].copy()
        col[lead] = 0
        r = (r - np.outer(col, r[lead])) % p
        pivots.append(c)
        lead += 1
    return r, pivots


def kernel(m, p):
    """Special-solution kernel basis read off `rref` above: one row per
    free column, 1 there and 0 in the other free columns."""
    r, pivots = rref(m, p)
    cols = r.shape[1]
    basis = []
    for free in (c for c in range(cols) if c not in pivots):
        v = np.zeros(cols, dtype=np.int64)
        v[free] = 1
        for i, c in enumerate(pivots):
            v[c] = -r[i, free] % p
        basis.append(v)
    return np.array(basis, dtype=np.int64).reshape(-1, cols)


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


def coords(ctx, n, value_rows):
    """Coordinates, one row per class, in the pivot monomials of the
    degree-n piece of the classes given by their panel values: one
    `solve_consistent` per class against the panel values of those
    monomials."""
    piece = ctx.piece(n)
    basis = piece.eval_matrix[:, piece.basis_cols]
    return np.array([solve_consistent(basis, row, ctx.p)
                     for row in np.asarray(value_rows)], dtype=np.int64
                    ).reshape(-1, piece.dim)


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


def stream_draws(monkeypatch, run, key=lambda stream: stream.tag):
    """Result of run() and the `Stream.next_u64` calls it made, by
    key(stream): the stream tag, or for instance (seed, tag) to tell apart
    streams that share a tag."""
    counts = {}
    real = Stream.next_u64

    def next_u64(self):
        counts[key(self)] = counts.get(key(self), 0) + 1
        return real(self)

    monkeypatch.setattr(Stream, "next_u64", next_u64)
    result = run()
    monkeypatch.setattr(Stream, "next_u64", real)
    return result, counts


def assert_same_draws(got, want):
    """got and want, `Stream.next_u64` calls by stream tag (or by a tuple
    ending in the tag), draw from the same streams the same number of
    times, but for the `.../zeros` stream of an oracle's zero harvest:
    `curve.ZeroHarvest` may read lines ahead on that stream, which it
    owns, so got draws at least as often there."""
    assert got.keys() == want.keys()
    for key, n in want.items():
        if (key[-1] if isinstance(key, tuple) else key).endswith("/zeros"):
            assert got[key] >= n, key
        else:
            assert got[key] == n, key


def poly_mul(f, g, p):
    """Product of two univariate polynomials, trimmed."""
    if len(f) == 0 or len(g) == 0:
        return np.zeros(0, dtype=np.int64)
    return alg.poly_trim(np.convolve(f, g) % p)


def poly_divmod(f, g, p):
    """Quotient and remainder by long division, both trimmed."""
    f = alg.poly_trim(f)
    g = alg.poly_trim(g)
    if len(g) == 0:
        raise ZeroDivisionError("polynomial division by zero")
    if len(f) < len(g):
        return np.zeros(0, dtype=np.int64), f
    rem = f.copy()
    q = np.zeros(len(f) - len(g) + 1, dtype=np.int64)
    inv_lead = alg.inv_mod(int(g[-1]), p)
    for k in range(len(f) - len(g), -1, -1):
        coef = rem[k + len(g) - 1] * inv_lead % p
        if coef:
            q[k] = coef
            rem[k: k + len(g)] = (rem[k: k + len(g)] - coef * g) % p
    return alg.poly_trim(q), alg.poly_trim(rem)


def poly_gcd(f, g, p):
    """Monic greatest common divisor by the Euclidean chain."""
    a, b = alg.poly_trim(f), alg.poly_trim(g)
    while len(b):
        a, b = b, poly_divmod(a, b, p)[1]
    return alg.poly_monic(a, p)


def squarefree_part(f, p):
    """f / gcd(f, f'), monic, by the Euclidean chain and long division."""
    f = alg.poly_monic(f, p)
    d = poly_gcd(f, poly_deriv(f, p), p)
    return alg.poly_monic(poly_divmod(f, d, p)[0], p)


def node_count(gamma, p, seed=0):
    """Distinct singular points of the plane curve over the algebraic
    closure, by elimination in a random frame.

    The frame change makes the singular abscissae distinct; the two
    resultants of the chart z2 = 1 with its partials in z0 and z1 share
    exactly the singular abscissae.  Rational candidates are checked
    against all three equations, and the candidates over extensions are
    counted through the degree of the squarefree part.  A frame in which
    two singular points share an abscissa or the partials collapse is
    redrawn, up to 6 frames."""
    degree = gamma.degree
    chart = [[1, 0], [0, 1], [0, 0]]

    def count_in_frame(attempt):
        stream = Stream(derive_key(seed, f"node-count|{attempt}"), "frame")
        frame = stream.field_mat(p, 3, 3)
        if det(frame, p) == 0:
            return None
        changed = mono.restrict(gamma.coeffs, degree, 3, frame, p)
        f, fx, fy = [mono.collect(changed, degree, 3, chart, p)] + [
            mono.collect(partial(changed, var, 3, degree, p), degree - 1, 3,
                         chart, p) for var in (0, 1)]
        if int(f[0, degree]) == 0 or int(f[degree, 0]) == 0:
            return None  # need full y-degree and x-degree with constant leads
        r1 = alg.resultant_bivariate(f, fx, p)
        r2 = alg.resultant_bivariate(f, fy, p)
        if alg.poly_deg(r1) < 0 or alg.poly_deg(r2) < 0:
            return None
        h = poly_gcd(r1, r2, p)
        if alg.poly_deg(h) <= 0:
            return 0
        h_free = squarefree_part(h, p)
        rational = alg.distinct_roots(h_free, p)
        count = alg.poly_deg(h_free) - len(rational)
        at = [[alg.poly_trim(row) for row in alg.p2_eval_x(e, rational, p)]
              for e in (f, fx, fy)]
        for fy_a, fxy_a, fyy_a in zip(*at):
            if not (len(fy_a) and len(fxy_a) and len(fyy_a)):
                raise DegenerateInput("partials collapse at a candidate "
                                      "abscissa")
            common = poly_gcd(poly_gcd(fy_a, fxy_a, p), fyy_a, p)
            if alg.poly_deg(common) < 1:
                continue  # fake candidate from unrelated branch points
            if alg.poly_deg(squarefree_part(common, p)) > 1:
                raise DegenerateInput("two singular points share an "
                                      "abscissa")
            count += 1
        return count

    return resample("node-count frame", 6, count_in_frame)


def poly_eval(f, x, p):
    """f(x) by Horner's rule."""
    acc = 0
    for c in reversed(alg.poly_trim(f)):
        acc = (acc * x + int(c)) % p
    return acc


def sylvester(f, g):
    """Sylvester matrix of two trimmed polynomials: deg g rows of f, then
    deg f rows of g, coefficients by falling degree."""
    f = alg.poly_trim(f)
    g = alg.poly_trim(g)
    m, n = alg.poly_deg(f), alg.poly_deg(g)
    s = np.zeros((m + n, m + n), dtype=np.int64)
    for i in range(n):
        s[i, i: i + m + 1] = f[::-1]
    for i in range(m):
        s[n + i, i: i + n + 1] = g[::-1]
    return s


def resultant(f, g, p):
    """Sylvester-matrix resultant of two nonzero univariate polynomials."""
    f = alg.poly_trim(f)
    g = alg.poly_trim(g)
    if len(f) == 0 or len(g) == 0:
        raise ValueError("resultant needs nonzero polynomials")
    return det(sylvester(f, g), p)


def resultant_bivariate(f, g, p):
    """Res_y of two bivariate polynomials one node at a time: x = 0, 1, ...
    in turn, skipping a node where a leading y-coefficient vanishes, a
    Horner specialization and a scalar Sylvester resultant at each of the
    first bound + 1 nodes kept, then a Lagrange fit."""
    f = alg.p2_trim(f)
    g = alg.p2_trim(g)
    if f.size == 0 or g.size == 0:
        raise ValueError("resultant of a zero polynomial")
    dfy, dgy = f.shape[1] - 1, g.shape[1] - 1
    bound = dfy * (g.shape[0] - 1) + dgy * (f.shape[0] - 1)

    def at(h, a):
        return alg.poly_trim([poly_eval(col, a, p) for col in h.T])

    xs, ys = [], []
    a = 0
    while len(xs) <= bound:
        if a >= p:
            raise ValueError("field too small for interpolation nodes")
        fa, ga = at(f, a), at(g, a)
        if len(fa) == dfy + 1 and len(ga) == dgy + 1:
            xs.append(a)
            ys.append(resultant(fa, ga, p))
        a += 1
    return lagrange_interpolate(xs, ys, p)


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
        num = poly_divmod(master, np.array([-x % p, 1]), p)[0]
        scale = y * alg.inv_mod(poly_eval(num, x, p), p) % p
        out[:len(num)] = (out[:len(num)] + scale * num) % p
    return alg.poly_trim(out)


def rational_interpolate(xs, ys, p, num_deg, den_deg):
    """Cauchy interpolation by the first kernel vector: (N, D) of bounded
    degrees with N(x_i) = y_i D(x_i), the kernel's first special solution
    with the columns N's coefficients then D's, divided by its gcd
    (Euclidean chain and long division).  None when the kernel is zero or
    that vector has N or D zero."""
    cols = max(num_deg, den_deg) + 1
    v = np.array([[pow(int(x), k, p) for k in range(cols)] for x in xs],
                 dtype=np.int64)
    y = np.asarray(ys, dtype=np.int64)[:, None] % p
    kernel = alg.kernel_basis(np.concatenate(
        [v[:, :num_deg + 1], -y * v[:, :den_deg + 1] % p], axis=1), p)
    if kernel.shape[0] == 0:
        return None
    num = alg.poly_trim(kernel[0][:num_deg + 1])
    den = alg.poly_trim(kernel[0][num_deg + 1:])
    if len(num) == 0 or len(den) == 0:
        return None
    common = poly_gcd(num, den, p)
    return poly_divmod(num, common, p)[0], poly_divmod(den, common, p)[0]


def poly_deriv(f, p):
    """Derivative of a univariate polynomial, trimmed."""
    f = alg.poly_trim(f)
    if len(f) <= 1:
        return np.zeros(0, dtype=np.int64)
    return alg.poly_trim(f[1:] * np.arange(1, len(f), dtype=np.int64) % p)


def section_poly(chart, h, p):
    """Polynomial in u whose roots locate the curve's points in the plane
    h = 0 on the ruling sweep A(u) + t B(u) of the chart: Res_t of h(A +
    tB) = ha + t hb against the cubic on the swept line, which is F(hb A -
    ha B), the cubic at the point where h vanishes, scaled by hb^3."""
    ha = h @ chart.a_coeffs % p
    hb = h @ chart.b_coeffs % p
    point = (np.array([np.convolve(a, hb) for a in chart.a_coeffs])
             - [np.convolve(b, ha) for b in chart.b_coeffs]) % p
    return alg.poly_trim(mono.collect(
        mono.restrict(chart.cubic, 3, 4, point, p), 3, 4,
        [[0], [1], [2], [3]], p))


def sweep_discriminant(chart, s1, s2, p):
    """The residual section polynomials R(lam, u) of the planes s1 + lam s2
    through a tangent line, and their discriminant Res_u(R, dR/du).

    `section_poly` is cubic in the plane, so one interpolation fits the
    sweep from lam = 0..3.  Its gcd at lam = 101, 202, 303 is the factor
    that every plane through the line shares, and R is the sweep divided
    by it, entry [i, j] the coefficient of lam^i u^j.  None when the gcd
    does not divide the sweep or R has u-degree below 2."""
    samples = [section_poly(chart, (s1 + lam * s2) % p, p)
               for lam in range(4)]
    fit = alg.interpolate(range(4), alg.poly_stack(samples), p)
    at = alg.p2_eval_x(fit, [101, 202, 303], p)
    common = poly_gcd(at[0], poly_gcd(at[1], at[2], p), p)
    quots, rems = zip(*(poly_divmod(row, common, p) for row in fit))
    residual = alg.p2_trim(alg.poly_stack(quots))
    width = residual.shape[1]
    if width < 3 or any(len(r) for r in rems):
        return None
    d_du = residual[:, 1:] * np.arange(1, width) % p
    return residual, alg.resultant_bivariate(residual, d_du, p)


def bitangent_partners(ctx, td):
    """Every partner of the tangent line td = (p, t) of a genus-4 curve
    point by the plane sweep, as (q, section) pairs: for each root lam of
    `sweep_discriminant` of the planes s1 + lam s2 through td, the
    repeated roots u of the residual section polynomial, and on the ruling
    line of each u the curve points q != p of the plane whose tangent line
    lies in it.  The sweep needs h2(p) != 0 for the chart's plane h2."""
    p = ctx.p
    chart = ctx.curve.ruling_chart
    s1, s2 = alg.kernel_basis(np.stack([td.point, td.direction]), p)
    swept = sweep_discriminant(chart, s1, s2, p)
    if swept is None or alg.poly_deg(swept[1]) < 1:
        return []
    residual, disc = swept
    roots = alg.distinct_roots(disc, p)
    partners = []
    for lam, quot in zip(roots, alg.p2_eval_x(residual, roots, p)):
        section = (s1 + lam * s2) % p
        repeated = poly_gcd(quot, poly_deriv(quot, p), p)
        if alg.poly_deg(repeated) < 1:
            continue
        for line in chart.line_at(alg.distinct_roots(repeated, p)):
            a, b = line
            for cand in cv.line_zeros(section, 1, 4, a[None], b[None], p)[0]:
                tq = cv.tangent_vectors(ctx.curve, [cand])[0]
                if cand.tolist() != td.point.tolist() \
                        and isinstance(tq, cv.TangentData) \
                        and int(section @ cand % p) == 0 \
                        and int(section @ tq.direction % p) == 0:
                    partners.append((cand, section))
    return partners


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
    stack = [poly_gcd(poly_sub(poly_pow_mod(x, p, f, p), x, p), f, p)]
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
            d1 = poly_gcd(t, h, p)
            if 0 < alg.poly_deg(d1) < d:
                stack += [d1, poly_divmod(h, d1, p)[0]]
                break
            if poly_eval(h, -a % p, p) == 0:
                roots.append(-a % p)
                stack.append(poly_divmod(h, shifted, p)[0])
                break
            a += 1
    return sorted(roots)


def ruling_line_at(chart, us):
    """`curve.RulingChart.line_at`, each line derived numerically: the
    plane h = h1 + u h2 (h2 at u = inf), its completion w = (h . r2) r1 -
    (h . r1) r2 by the first pair of unit vectors r1, r2 that completes
    (q0, d1) to a frame with 2 B(q0, w(u)) not identically zero, and
    rho = 2 B(q0, w), sig = 2 B(d1, w), tau = Q(w) at the parameter."""
    p = chart.p
    for r1, r2 in itertools.combinations(np.eye(4, dtype=np.int64), 2):
        if alg.rank(np.stack([chart.q0, chart.d1, r1, r2]), p) != 4:
            continue
        w_u = np.stack([(int(h @ r2 % p) * r1 - int(h @ r1 % p) * r2) % p
                        for h in (chart.h1, chart.h2)], axis=1)
        if (chart.polar[0] @ w_u % p).any():
            break
    h = np.array([chart.h2 if u is None else (chart.h1 + u * chart.h2) % p
                  for u in us], dtype=np.int64).reshape(-1, 4)
    w = ((h @ r2 % p)[:, None] * r1 - (h @ r1 % p)[:, None] * r2) % p
    rho, sig = (w @ chart.polar.T % p).T[:, :, None]
    tau = mono.form_eval(chart.quadric, w, 4, 2, p)[:, None]
    a = (sig * chart.q0 - rho * chart.d1) % p
    b = np.where(rho != 0, tau * chart.q0 - rho * w,
                 tau * chart.d1 - sig * w) % p
    lines = []
    for k in range(len(w)):
        if rho[k, 0] or sig[k, 0]:
            lines.append((a[k], b[k]))
        elif tau[k, 0]:
            lines.append((chart.q0.copy(), chart.d1.copy()))
        else:
            lines.append(DegenerateInput("plane lies inside the quadric"))
    return lines


def sample_points_one_line_at_a_time(curve, count):
    """Genus-4 `sample_points` walking one ruling line per draw: the
    sorted, truncated points and the number of lines drawn."""
    p = curve.prime
    stream = Stream(curve.seed, f"sample-points-g{curve.genus}")
    chart = curve.ruling_chart
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


def sample_points_one_slice_at_a_time(curve, count):
    """Genus-5 `sample_points` slicing one hyperplane per draw: the sorted,
    truncated points."""
    p = curve.prime
    stream = Stream(curve.seed, f"sample-points-g{curve.genus}")
    found = {}
    budget = cv.POINT_BUDGET_FACTOR * count + 400
    while len(found) < count and budget > 0:
        budget -= 1
        h = stream.field_vec(p, 5)
        if not h.any():
            continue
        for q in cv.hyperplane_section(curve, h):
            found[tuple(q.tolist())] = q
    if len(found) < count:
        raise InsufficientPoints(
            f"found {len(found)} of {count} requested points")
    return [found[k] for k in sorted(found)][:count]


def build_pencil(ctx, v):
    """The pencil of one basis by the one-basis chain: `rref`, a scan of
    each panel for a common zero, and `kernel_basis` of the product space.
    Raises InadmissiblePencil as the engine does."""
    p = ctx.p
    v = np.asarray(v, dtype=np.int64) % p
    vr, pivots = alg.rref(v, p)
    if v.shape != (2, ctx.g) or len(pivots) != 2:
        raise InadmissiblePencil("pencil basis must have rank 2")
    vr = vr[:2]
    if any(not (vr @ pt % p).any() for pt in ctx.panel):
        raise InadmissiblePencil("pencil has a base point on the panel")
    if any(not (vr @ pt % p).any() for pt in ctx.holdout):
        raise InadmissiblePencil(
            "pencil has a base point on the holdout panel")
    functionals = alg.kernel_basis(pc.product_space(ctx, vr), p)
    if functionals.shape[0] != 1:
        raise InadmissiblePencil("product space does not have codimension 1")
    return pc.PencilData(v=vr, vbar=normalize(functionals[0], p))


def build_net(ctx, w):
    """The net of one basis by the one-basis chain: `rref`, `kernel_basis`
    of the echelon basis, a `restrict` per ideal quadric and the left
    kernel of res.  Raises RankDeficientW for a basis of rank below 3."""
    p = ctx.p
    w = np.asarray(w, dtype=np.int64) % p
    wr, pivots = alg.rref(w, p)
    if w.shape != (3, ctx.g) or len(pivots) != 3:
        raise RankDeficientW("net basis must have rank 3")
    wr = wr[:3]
    wperp = alg.kernel_basis(wr, p)
    in_b = bool((~(ctx.panel @ wr.T % p).any(axis=1)).any()) or bool(
        (~(ctx.holdout @ wr.T % p).any(axis=1)).any())
    res = np.stack([mono.restrict(q, 2, ctx.g, wperp.T, p)
                    for q in ctx.ideal(2).basis])
    left_kernel = alg.kernel_basis(res.T, p)
    certificate = None
    if left_kernel.shape[0] == 1:
        certificate = normalize(
            left_kernel[0] @ ctx.ideal(2).basis % p, p)
    return nt.Net(w=wr, wperp=wperp, in_b=in_b, in_d=left_kernel.shape[0] > 0,
                  d_certificate=certificate)


def gamma_equation(ctx, net_obj):
    """The plane image of a net from the kernel of all rows of its
    evaluation matrix at the distinct projected panel points; reads and
    fills no `net.gamma`.  Raises AmbiguousFit as the engine does."""
    if net_obj.in_b:
        raise AmbiguousFit("projection is not a morphism: net has a "
                           "base point")
    p = ctx.p
    degree = 2 * ctx.g - 2
    projected = nt.project(net_obj, ctx.panel, p)
    pts = np.unique(alg.normalize_rows(projected[projected.any(axis=1)], p),
                    axis=0)
    needed = max(mono.count(3, degree) + 10, degree ** 2 + 1)
    if pts.shape[0] < needed:
        raise AmbiguousFit(
            f"only {pts.shape[0]} projected points, need {needed}")
    kernel = alg.kernel_basis(mono.eval_matrix(pts, 3, degree, p), p)
    if kernel.shape[0] != 1:
        raise AmbiguousFit(f"no unique plane curve of degree {degree} "
                           "through the projected points")
    return nt.PlaneCurve(degree=degree,
                         coeffs=normalize(kernel[0], p))


def family_samples(ctx, family, b0, count):
    """(t, oracle value at b0) of the family sweep, one net at a time: the
    first `count` nets family(t), t = 1, ..., 500, off B and D with a
    witness at b0, built by `build_net` above; and the last t tried."""
    samples = []
    for t in range(1, 501):
        try:
            net = build_net(ctx, family(t))
        except RankDeficientW:
            continue
        if net.in_b or net.in_d:
            continue
        wit = nt.oracle_batch(ctx, [net], [b0], check_gamma=False)[0]
        if isinstance(wit, DegenerateInput):
            continue
        if isinstance(wit, CurveConesError):
            raise wit
        samples.append((t, int(wit.b @ wit.y % ctx.p)))
        if len(samples) == count:
            break
    return samples, t


def fiber_quadric(ctx, net_obj, cone, u):
    """The fiber quadric over one plane point by the one-point chain:
    (u, gram, basis), or raises RankDeficientW or SplittingViolation."""
    p = ctx.p
    g = ctx.g
    m = g - 2
    u = np.asarray(u, dtype=np.int64) % p
    if not u.any():
        raise RankDeficientW("plane point cannot be zero")
    vperp = alg.kernel_basis(nt.pencil_at(net_obj.w, u, p), p)
    vertex = alg.RowSpace(net_obj.wperp, p)
    # a nonzero point's fiber is not the vertex
    lead = next(row for row in vperp if not vertex.contains(row))
    basis = np.concatenate([lead[None, :], net_obj.wperp]).T
    restricted = mono.restrict(cone.coeffs, 4, g, basis, p)
    divisible = np.array(mono.exponents(m, 4))[:, 0] >= 2
    if restricted[~divisible].any():
        raise SplittingViolation(
            "restricted quartic is not divisible by the vertex form squared")
    return (normalize_point(u, p),
            cv.quadric_gram(restricted[divisible], m, p), basis)


def steinerian_check(gram, basis, pt, p):
    """Whether the fiber quadric (gram, basis) is singular at exactly one
    point, and that point is pt."""
    kern = alg.kernel_basis(gram, p)
    if kern.shape[0] != 1:
        return False
    ambient = basis @ kern[0] % p
    return bool(ambient.any()) and normalize(ambient, p).tolist() \
        == normalize_point(pt, p).tolist()


def hessian_scan(ctx, net_obj, cone, on_count, off_count, stream, fiber):
    """The rows of `bundle.hessian_scan`, one fiber at a time: fiber(u)
    returns (u, gram, basis) or raises.  The on-image draws walk the panel
    and may come up short."""
    p = ctx.p
    gamma = nt.gamma_equation(ctx, net_obj)
    proj = nt.project(net_obj, ctx.panel, p)
    _, image, sharing = np.unique(alg.normalize_rows(proj, p), axis=0,
                                  return_inverse=True, return_counts=True)

    def gamma_at(u):
        return mono.form_eval_one(gamma.coeffs, u, 3, gamma.degree, p)

    def row(u, gval, pt=None):
        un, gram, basis = fiber(u)
        match = None if pt is None else steinerian_check(gram, basis, pt, p)
        return un.tolist(), gval, det(gram, p), match

    def collect(attempts, draw, count):
        rows = []

        def step(k):
            item = draw(k)
            if item is not None:
                rows.append(item)
            return rows if len(rows) == count else None

        if count:
            Draws("rows", attempts, step).take(1)
        return rows

    def on_image(k):
        grad = [mono.form_eval_one(partial(gamma.coeffs, i, 3, gamma.degree,
                                           p), proj[k], 3, gamma.degree - 1,
                                   p) for i in range(3)]
        if sharing[image[k]] != 1 or not any(grad):
            raise NodeFiber("no Steinerian here")
        return row(proj[k], gamma_at(proj[k]), ctx.panel[k])

    def off_image(_):
        u = stream.field_vec(p, 3)
        gval = gamma_at(u)
        return None if gval == 0 else row(u, gval)

    return (collect(len(ctx.panel), on_image, on_count)
            + collect(40 * off_count, off_image, off_count))


# -- the cones of `spanlab.collect_cones`, one net at a time -----------------


def random_net(ctx, stream):
    """A generic net with its plane image fitted, one draw at a time."""
    def draw(_):
        net = nt.build_net(ctx, stream.field_mat(ctx.p, 3, ctx.g))
        if net.in_b or net.in_d:
            return None
        nt.gamma_equation(ctx, net)
        return net

    return resample("generic net", 200, draw)


def constrained_space(ctx, net_obj, deg):
    """The ideal forms of degree deg singular along the vertex, from the
    one-net condition matrix and `kernel_basis`."""
    basis = ctx.ideal(deg).basis
    combos = alg.kernel_basis(
        cn.vertex_condition_matrix(ctx, net_obj, basis, deg), ctx.p)
    if combos.shape[0] == 0:
        return np.zeros((0, basis.shape[1]), dtype=np.int64)
    return combos @ basis % ctx.p


def split_fiber(ctx, net_obj, u):
    """The fiber over one plane point in the coordinates of the
    annihilator of its pencil, by the one-pencil chain: `build_pencil`
    above, the cup Gram of the first row of net.w outside the pencil, one
    `solve_consistent` per annihilator row, and the vertex form ell, the
    kernel of the vertex's coordinates on the annihilator.  Returns
    (vperp, ell, gram), or raises what the engine's `split_fibers` gives
    the point."""
    p = ctx.p
    pen = build_pencil(ctx, nt.pencil_at(net_obj.w, u, p))
    pencil_span = alg.RowSpace(pen.v, p)
    lift = next(row for row in net_obj.w if not pencil_span.contains(row))
    cg = pc.cup_gram(ctx, pen, lift)
    if pc.corank(cg.gram, p) != 2:
        raise CorankJump("pencil fiber meets the degeneracy divisor")
    vperp = alg.kernel_basis(pen.v, p)
    gram = vperp @ np.stack([solve_consistent(cg.gram, row, p)
                             for row in vperp]).T % p
    if not (gram == gram.T).all():
        raise VerificationFailed("residual Gram failed exact symmetry")
    ell, = kernel(np.stack([solve_consistent(vperp.T, x, p)
                            for x in net_obj.wperp]), p)
    return vperp, normalize(ell, p), gram


def split_product(ell, gram, p):
    """ell^2 times the quadric c^T G c of a fiber, a quartic on its
    coordinates: the quadric's coefficients by a walk over the degree-2
    exponents, the products by `mul_forms` one factor at a time."""
    m = len(ell)
    quadric = np.zeros(mono.count(m, 2), dtype=np.int64)
    for k, e in enumerate(mono.exponents(m, 2)):
        i, j = [v for v in range(m) for _ in range(e[v])]
        quadric[k] = gram[i][j] * (1 if i == j else 2) % p
    ell2 = mono.mul_forms(ell, 1, ell, 1, m, p)
    return mono.mul_forms(ell2, 2, quadric, 2, m, p)


def form_matches_split(ctx, coeffs, fiber):
    """Whether the quartic restricted to the annihilator of a
    `split_fiber` is proportional to ell^2 q there."""
    vperp, ell, gram = fiber
    restricted = mono.restrict(coeffs, 4, ctx.g, vperp.T, ctx.p)
    return normalize(restricted, ctx.p).tolist() \
        == normalize(split_product(ell, gram, ctx.p), ctx.p).tolist()


def fresh_fibers(ctx, net_obj, stream, count):
    """`split_fiber` over `count` random plane points, one at a time."""
    fibers = []

    def draw(_):
        u = stream.field_vec(ctx.p, 3)
        if not u.any():
            return None
        fibers.append(split_fiber(ctx, net_obj, u))
        return fibers if len(fibers) == count else None

    return resample("admissible pencils", 120, draw)


def plant_fibers(monkeypatch, rule):
    """Pass every fiber of the engine (`cone.split_fibers`) and of the
    reference (`split_fiber` above) through rule(net, u, fiber), which
    returns the fiber, another one, or an exception to put in its place;
    a failed fiber comes to rule as its exception."""
    real_engine, real_reference = cn.split_fibers, split_fiber

    def engine(ctx, nets, us):
        per = [nets] * len(us) if isinstance(nets, nt.Net) else nets
        return [rule(net, u, fiber) for net, u, fiber in
                zip(per, us, real_engine(ctx, nets, us))]

    def one(ctx, net_obj, u):
        try:
            fiber = real_reference(ctx, net_obj, u)
        except CurveConesError as exc:
            fiber = exc
        return value_of(rule(net_obj, u, fiber))

    monkeypatch.setattr(cn, "split_fibers", engine)
    monkeypatch.setitem(globals(), "split_fiber", one)


def points_on_form(ctx, coeffs, deg, stream, count, budget=400):
    """Zeros of a form on random lines, a line drawn only when the caller
    asks for a point the lines before did not give."""
    found = 0
    while found < count and budget:
        budget -= 1
        a = stream.field_vec(ctx.p, ctx.g)
        b = stream.field_vec(ctx.p, ctx.g)
        for pt in cv.line_zeros(coeffs, deg, ctx.g, a[None], b[None],
                                ctx.p)[0]:
            yield pt
            found += 1
            if found == count:
                return


class ZeroHarvest(cv.ZeroHarvest):
    """`curve.ZeroHarvest` drawing one line a round: its chain asks for
    the zeros on one line, and draws the next only when the points so far
    fall short."""

    def take(self, n):
        end = min(self.used + n, self.count)
        while len(self.points) < end and self.budget:
            self.budget -= 1
            a = self.stream.field_vec(self.p, self.g)
            b = self.stream.field_vec(self.p, self.g)
            self.points += (yield cv._zeros, self.deg, self.g, self.p,
                            [(self.coeffs, a, b)])[0]
        got = self.points[self.used:end]
        self.used += len(got)
        return got


def oracle_agreement(ctx, net_obj, coeffs, stream, count, x=None):
    """(checked, disagreements) of the membership oracle of the quartic,
    or of its polar cubic with respect to the vertex vector x, one probe
    at a time: zero probes until count // 2 verdicts, then random probes
    until count verdicts."""
    p = ctx.p
    deg = 4 if x is None else 3
    zero_half = count // 2
    zeros = points_on_form(ctx, coeffs, deg, stream.spawn("zeros"),
                           3 * zero_half)
    verdicts = []

    def probe(b, expected, wanted):
        wit = unwrap(nt.oracle_batch(ctx, [net_obj], [b])[0])
        if wit is not None:
            pair = wit.b if x is None else x
            verdicts.append((int(pair @ wit.y % p) == 0) == expected)
        return verdicts if len(verdicts) == wanted else None

    def zero_probe(_):
        b = next(zeros, None)
        return None if b is None else probe(b, True, zero_half)

    def random_probe(_):
        b = stream.field_vec(p, ctx.g)
        if not b.any():
            return None
        expected = mono.form_eval_one(coeffs, b, ctx.g, deg, p) == 0
        return probe(b, expected, count)

    Draws("zero probes", 3 * zero_half, zero_probe).take(1)
    Draws("random probes", 40 * count, random_probe).take(1)
    return len(verdicts), verdicts.count(False)


def verify_cone(ctx, net_obj, coeffs, stream, oracle_points):
    """The certificate of a reconstructed quartic, checked by the one-cone
    chain; raises VerificationFailed when a check fails."""
    cert = {"points_vanished": len(ctx.points),
            "contains_curve": not mono.form_eval(
                coeffs, ctx.points, ctx.g, 4, ctx.p).any(),
            "vertex_singular": not cn.vertex_condition_matrix(
                ctx, net_obj, coeffs[None], 4).any()}
    checked, bad = oracle_agreement(ctx, net_obj, coeffs,
                                    stream.spawn("oracle"), oracle_points)
    cert["oracle_points"] = checked
    cert["oracle_disagreements"] = bad
    holdout = fresh_fibers(ctx, net_obj, stream.spawn("holdout"), 1)[0]
    cert["holdout_pencil"] = form_matches_split(ctx, coeffs, holdout)
    if not (cert["contains_curve"] and cert["vertex_singular"]
            and cert["holdout_pencil"] and bad == 0
            and checked >= oracle_points):
        raise VerificationFailed(f"cone certificate failed: {cert}")
    return cert


def reconstruct_quartic(ctx, net_obj, seed=0, oracle_points=50):
    """(coeffs, certificate) of the quartic cone of one net: the splitting
    system of 6 fibers built one fiber at a time in the coordinates of
    `split_fiber` (not the engine's adapted bases), the coefficients of
    F|fiber - c_k ell^2 q from one `restrict` of the constrained-space
    basis per fiber, solved by one `kernel_basis`, then `verify_cone`."""
    if net_obj.in_d:
        raise DegenerateInput("net lies on the degeneracy divisor")
    p, g = ctx.p, ctx.g
    tag = "reconstruct|%d|%s" % (seed, ",".join(
        str(int(v)) for v in net_obj.w.reshape(-1)))
    stream = Stream(derive_key(ctx.curve.seed, tag), "pencils")
    s_basis = constrained_space(ctx, net_obj, 4)
    dim_s = s_basis.shape[0]
    if dim_s == 0:
        raise InconsistentReconstruction("constrained space is empty")
    fibers = fresh_fibers(ctx, net_obj, stream.spawn("draw"), 6)
    rows = []
    for k, (vperp, ell, gram) in enumerate(fibers):
        restricted = mono.restrict(s_basis.T, 4, g, vperp.T, p)
        block = np.zeros((len(restricted), dim_s + 6), dtype=np.int64)
        block[:, :dim_s] = restricted
        block[:, dim_s + k] = -split_product(ell, gram, p) % p
        rows.append(block)
    kernel = alg.kernel_basis(np.concatenate(rows), p)
    if kernel.shape[0] == 0:
        raise InconsistentReconstruction(
            "splitting equations admit no common quartic")
    if kernel.shape[0] > 1:
        raise UnderdeterminedReconstruction(
            f"solution space is {kernel.shape[0]}-dimensional after 6 "
            "pencils")
    coeffs = normalize(kernel[0][:dim_s] @ s_basis % p, p)
    if not coeffs.any():
        raise InconsistentReconstruction("solution collapsed to zero")
    cert = verify_cone(ctx, net_obj, coeffs, stream.spawn("verify"),
                       oracle_points)
    cert.update(dim_constrained_space=dim_s, pencils_used=6, solution_dim=1)
    return coeffs, cert


def collect_cones(ctx, count, seed, oracle_points=4):
    """[(net, coeffs, certificate)] of `spanlab.collect_cones`, one cone at
    a time: each cone resamples its net from the stream
    net{cone}-{failures so far}, within 4 * count + 20 failures in all."""
    stream = Stream(derive_key(ctx.curve.seed, f"span-cones|{seed}"), "w")
    cones = []
    failures = 0

    def draw(k):
        net = random_net(ctx, stream.spawn(f"net{len(cones)}-"
                                           f"{failures + k}"))
        return k, net, reconstruct_quartic(ctx, net,
                                           oracle_points=oracle_points)

    while len(cones) < count:
        k, net, (coeffs, cert) = resample(
            "span cones", 4 * count + 20 - failures, draw)
        failures += k
        cones.append((net, coeffs, cert))
    return cones


def base_locus_probe(ctx, spans, off_curve_count, seed=0):
    """The report of `spanlab.base_locus_probe`, one probe at a time."""
    p, g = ctx.p, ctx.g
    stream = Stream(derive_key(ctx.curve.seed, f"probe|{seed}"), "pts")
    report = {"off_curve_checked": 0, "violations": [],
              "curve_points_contained": True, "structured_checked": 0}
    for acc in spans:
        evals = mono.eval_matrix(ctx.points, g, acc.degree,
                                 p) @ acc.rows.T % p
        if evals.any():
            report["curve_points_contained"] = False

    def probe(point, label):
        for acc in spans:
            vals = mono.eval_matrix(point[None], g, acc.degree,
                                    p) @ acc.rows.T % p
            if not vals.any():
                report["violations"].append(
                    {"label": label, "degree": acc.degree,
                     "point": [int(v) for v in point]})

    def off_curve(_):
        b = stream.field_vec(p, g)
        if not b.any() or cv.on_curve(ctx.curve, b):
            return None
        probe(b, "random")
        return b

    report["off_curve_checked"] = len(Draws(
        "off-curve probes", 20 * off_curve_count,
        off_curve).take(off_curve_count))
    structured = 0
    i2 = ctx.ideal(2)
    for k in range(10):
        combo = stream.field_vec(p, i2.dim)
        if not combo.any():
            continue
        pt = next(points_on_form(ctx, combo @ i2.basis % p, 2,
                                 stream.spawn(f"q{k}"), 1, budget=60), None)
        if pt is not None and not cv.on_curve(ctx.curve, pt):
            probe(pt, "quadric")
            structured += 1
    for acc in spans:
        for net_obj in acc.sources[:5]:
            combo = stream.field_vec(p, net_obj.wperp.shape[0])
            if not combo.any():
                continue
            pt = combo @ net_obj.wperp % p
            if pt.any() and not cv.on_curve(ctx.curve, pt):
                probe(pt, "vertex")
                structured += 1
    n = ctx.panel.shape[0]
    for _ in range(10):
        i = stream.integer(0, n)
        j = stream.integer(0, n)
        if i == j:
            continue
        pt = (stream.nonzero(p) * ctx.panel[i]
              + stream.nonzero(p) * ctx.panel[j]) % p
        if pt.any() and not cv.on_curve(ctx.curve, pt):
            probe(pt, "secant")
            structured += 1
    report["structured_checked"] = structured
    return report


def tangent_vector(curve, pt):
    """Tangent data of one point: an `on_curve` test, the kernel of its
    Jacobian by `kernel_basis`, and the first echelon row of that kernel
    that is not the point."""
    p = curve.prime
    if not cv.on_curve(curve, pt):
        raise SingularPoint("point is not on the curve")
    kern = alg.kernel_basis(cv.jacobian_at(curve, pt), p)
    if kern.shape[0] != 2:
        raise SingularPoint(f"Jacobian rank below {curve.genus - 2}")
    basis, _ = alg.rref(kern, p)
    pt_n = normalize_point(pt, p)
    for row in basis:
        if normalize(row, p).tolist() != pt_n.tolist():
            return cv.TangentData(pt_n, normalize_point(row, p))
    raise SingularPoint("tangent line collapsed onto the point")


def polar_coeffs(ctx, coeffs, x):
    """sum x_i dF/dz_i of the quartic F, one partial at a time."""
    out = np.zeros(mono.count(ctx.g, 3), dtype=np.int64)
    for var in range(ctx.g):
        out = (out + int(x[var]) * partial(coeffs, var, ctx.g, 4,
                                           ctx.p)) % ctx.p
    return out


def criterion_corank_law(ctx, cfg):
    """(ok, details) of criterion 4, one net at a time: each random draw
    (v, w) and each engineered net through the scalar chain, the pencil by
    `build_pencil` above, its cup Gram by `pencil.cup_gram` (which raises
    for a lift w inside the pencil), the corank by one `rank`, and the net
    by `build_net` above; a DegenerateInput skips the draw."""
    p = ctx.p
    stream = Stream(derive_key(ctx.curve.seed, f"corank|{cfg.seed}"), "vw")
    dstream = stream.spawn("deg")

    def law(v, w):
        pen = build_pencil(ctx, v)
        gram = pc.cup_gram(ctx, pen, w).gram
        corank = ctx.g - alg.rank(gram, p)
        net_obj = build_net(ctx, np.concatenate([pen.v, w[None, :]]))
        return corank == 2 and not net_obj.in_d \
            or corank >= 3 and net_obj.in_d

    def random_sample(_):
        v = stream.field_mat(p, 2, ctx.g)
        return law(v, stream.field_vec(p, ctx.g))

    def engineered_sample(k):
        w = degenerate_net(ctx, dstream.spawn(str(k))).w
        return law(w[:2], w[2])

    random_laws = Draws("corank samples", 30 * cfg.corank_samples,
                        random_sample).take(cfg.corank_samples)
    engineered_laws = Draws("engineered corank nets", cfg.corank_engineered,
                            engineered_sample).take(cfg.corank_engineered)
    disagreements = random_laws.count(False) + engineered_laws.count(False)
    ok = len(random_laws) >= cfg.corank_samples \
        and len(engineered_laws) >= cfg.corank_engineered \
        and disagreements == 0
    return ok, {"random_checked": len(random_laws),
                "engineered_checked": len(engineered_laws),
                "disagreements": disagreements}


def criterion_polars(ctx, cfg, cones):
    """(ok, details) of criterion 7, one cone and one polar at a time:
    the polar space of the cone by `constrained_space` above, then each
    polar's membership, vertex and oracle checks, polar j of cone k on the
    stream {k} (j = 0) or {k}.{j}.  `dim_lw` is the dimension of the first
    polar space that is not g - 3, else g - 3."""
    p, g = ctx.p, ctx.g
    stream = Stream(derive_key(ctx.curve.seed, f"polar|{cfg.seed}"), "b")
    ok = True
    checked = disagreements = 0
    dims = []
    for k, cone in enumerate(cones):
        basis = constrained_space(ctx, cone.net, 3)
        polars = [polar_coeffs(ctx, cone.coeffs, x) for x in cone.net.wperp]
        dims.append(basis.shape[0])
        ok = ok and basis.shape[0] == g - 3 \
            and alg.rank(np.stack(polars), p) == g - 3
        for j, (x, c) in enumerate(zip(cone.net.wperp, polars)):
            singular = not cn.vertex_condition_matrix(ctx, cone.net, c[None],
                                                      3).any()
            n, bad = oracle_agreement(
                ctx, cone.net, c, stream.spawn(f"{k}.{j}" if j else f"{k}"),
                cfg.polar_oracle_points, x=x)
            ok = ok and ctx.in_ideal(c, 3) and singular and bad == 0 \
                and n >= cfg.polar_oracle_points
            checked += n
            disagreements += bad
    return ok, {"dim_lw": next((d for d in dims if d != g - 3), g - 3),
                "oracle_points": checked,
                "oracle_disagreements": disagreements}


def secant_criterion(ctx, net_obj, coeffs, pt_p, pt_q):
    """(contained, predicted) of one secant: the restriction of the quartic
    to the line, the vertex grown one point at a time, and the rank of the
    tangent conditions on the net, with tangents from `tangent_vector`
    above."""
    p = ctx.p
    binary = mono.restrict_to_line(coeffs, 4, ctx.g, pt_p, pt_q, p)
    vertex = alg.RowSpace(net_obj.wperp, p)
    meets = vertex.add(pt_p) + vertex.add(pt_q) < 2
    tp = tangent_vector(ctx.curve, pt_p)
    tq = tangent_vector(ctx.curve, pt_q)
    conds = np.stack([tp.point, tp.direction, tq.point, tq.direction])
    double = alg.rank(conds @ net_obj.w.T % p, p) <= 2
    return not binary.any(), bool(meets or double)


def family_roots(ctx, family, b0):
    """`cone._family_roots` with the sweep's old fixed size: a 45/45
    rational fit from the first 94 of 100 samples, tested on the other
    6."""
    p = ctx.p
    samples = cn._family_samples(ctx, family, b0, 100)
    if len(samples) < 100:
        return []
    ts, vs = zip(*samples)
    fit = rational_interpolate(list(ts[:94]), list(vs[:94]), p, 45, 45)
    if fit is None:
        return []
    num, den = fit
    held = alg.p2_eval_x(alg.poly_stack([num, den]).T, ts[94:100], p)
    if (held[:, 0] != np.array(vs[94:100]) * held[:, 1] % p).any():
        return []
    return alg.distinct_roots(num, p)


def family_root(ctx, family, t, pt_p, pt_q):
    """The contained secant at the root t of a family, or None: the net is
    built, reconstructed by `reconstruct_quartic` above and checked by
    `secant_criterion` above; a `DegenerateInput` propagates."""
    net = build_net(ctx, family(t))
    if net.in_b or net.in_d:
        return None
    nt.gamma_equation(ctx, net)
    coeffs, cert = reconstruct_quartic(ctx, net, oracle_points=4)
    if secant_criterion(ctx, net, coeffs, pt_p, pt_q) != (True, True):
        return None
    return pt_p, pt_q, net, cn.QuarticCone(net, coeffs, cert)


def family_secants(ctx, section, pt_p, pt_q, b0, stream, wanted):
    """Up to `wanted` contained double secants on one random family, the
    roots of `family_roots` above tried one at a time by `family_root`
    above, with no second-point test."""
    p = ctx.p
    r1, r2, r3 = (stream.field_vec(p, ctx.g) for _ in range(3))

    def family(t):
        return np.stack([section, r1, (r2 + t * r3) % p])

    roots = family_roots(ctx, family, b0)
    return Draws("family roots", len(roots), lambda k: family_root(
        ctx, family, roots[k], pt_p, pt_q)).take(wanted)


def contained_double_secant(ctx, stream, count=1):
    """`cone.contained_double_secant` as the loop that reconstructs every
    root of each family in turn (`family_secants` above) and sweeps the
    next family of a trial only while secants are missing."""
    p = ctx.p
    results = []

    def draw(trial):
        sub = stream.spawn(f"pair{trial}")
        if ctx.g == 4:
            pt_p, pt_q, section = cn.bitangent_pair(ctx, sub.spawn("bit"))
        else:
            pair = panel_pair(ctx, sub)
            if pair is None:
                return None
            pt_p, pt_q = pair
            section = cn.double_vanishing_section(ctx, pt_p, pt_q)
            if section is None:
                return None
        b0 = (pt_p + sub.nonzero(p) * pt_q) % p
        for fam in range(4):
            if len(results) >= count:
                break
            results.extend(family_secants(
                ctx, section, pt_p, pt_q, b0, sub.spawn(f"family{fam}"),
                count - len(results)))
        return results if len(results) >= count else None

    return resample("contained double secants", 16, draw)


def criterion_secant(ctx, cfg, cone):
    """The details of criterion 10, one secant at a time: random secants,
    then secants through the vertex of engineered nets, each reconstructed
    by `reconstruct_quartic` above, then `contained_double_secant`
    above."""
    stream = Stream(derive_key(ctx.curve.seed, f"secant|{cfg.seed}"), "pq")
    n = ctx.panel.shape[0]

    def random_secant(_):
        i = stream.integer(0, n)
        j = stream.integer(0, n)
        if i == j:
            return None
        return secant_criterion(ctx, cone.net, cone.coeffs, ctx.panel[i],
                                ctx.panel[j]) == (False, False)

    def vertex_secant(k):
        pt_p, pt_q, net = cn.secant_through_vertex(ctx, stream.spawn(f"v{k}"))
        coeffs, _ = reconstruct_quartic(ctx, net, oracle_points=4)
        return secant_criterion(ctx, net, coeffs, pt_p, pt_q) == (True, True)

    details = {
        "random_false_false": Draws(
            "random secants", 30 * cfg.secant_random, random_secant).take(
                cfg.secant_random).count(True),
        "vertex_branch": Draws(
            "vertex secants", cfg.secant_engineered, vertex_secant).take(
                cfg.secant_engineered).count(True)}
    try:
        found = contained_double_secant(ctx, stream.spawn("dbl"),
                                        count=cfg.secant_engineered)
        details["double_section_branch"] = sum(
            secant_criterion(ctx, net, c.coeffs, a, b) == (True, True)
            for a, b, net, c in found)
    except DegenerateInput:
        details["double_section_branch"] = 0
    return details


def combination(stream, p, rows):
    """A random combination of the rows as the engine drew it inline: one
    `field_vec`, skipped when all zero."""
    combo = stream.field_vec(p, rows.shape[0])
    if not combo.any():
        return None
    return combo @ rows % p


def panel_pair(ctx, stream):
    """Two panel points drawn by index as the engine drew them inline, or
    None when the indices agree."""
    n = ctx.panel.shape[0]
    i = stream.integer(0, n)
    j = stream.integer(0, n)
    if i == j:
        return None
    return ctx.panel[i], ctx.panel[j]


def degenerate_net(ctx, stream, quadric=None):
    """`cone.degenerate_net` with one branch per genus: a vertex point at
    genus 4, and at genus 5 a vertex line, its second point a zero of q on
    a random line of the first point's polar hyperplane."""
    p = ctx.p
    g = ctx.g
    i2 = ctx.ideal(2)

    def draw(_):
        if quadric is None:
            q = combination(stream, p, i2.basis)
            if q is None:
                return None
        else:
            q = np.asarray(quadric, dtype=np.int64) % p
        q1 = next(points_on_form(ctx, q, 2, stream, 1, budget=60), None)
        if q1 is None:
            return None
        if g == 4:
            vertex = q1[None, :]
        else:
            polar = 2 * q1 @ cv.quadric_gram(q, g, p) % p
            hb = alg.kernel_basis(polar.reshape(1, g), p)
            c1 = hb.T @ stream.field_vec(p, hb.shape[0]) % p
            c2 = hb.T @ stream.field_vec(p, hb.shape[0]) % p
            zeros = cv.line_zeros(q, 2, g, c1[None], c2[None], p)[0]
            if not zeros or alg.rank(np.stack([q1, zeros[0]]), p) != 2:
                return None
            vertex = np.stack([q1, zeros[0]])
        net_obj = nt.net_from_vertex(ctx, vertex)
        if net_obj.in_b or not net_obj.in_d or net_obj.d_certificate is None:
            return None
        return net_obj

    return resample("degenerate net", 200, draw)
