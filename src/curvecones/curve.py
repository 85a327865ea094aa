"""Canonically embedded curves over F_p, one model per supported genus.

`MODELS` names the supported genera, and its entry (`GenusModel`) is the
one place that says what is true at a genus: the degrees of the
generators, the test a drawn candidate must pass, the point source that
sampling walks, whether the curves are trigonal, and the two measured
values, the quartic span's rank and the degree of the double-secant
sweep.  Genus 4 curves are quadric-cubic complete intersections in
P^3; the quadric is required to be smooth and split, so it carries two
rational rulings and the curve is sampled by restricting the cubic to
ruling lines (a cubic in one line parameter per ruling member).  The
ruling chart (`RulingChart`) sweeps one ruling of any split quadric
surface: in a hyperbolic frame of the quadric its line A(u) + t B(u) is
linear in u, and it holds no curve.  Genus 5 curves are intersections of
three independent quadrics in P^4, sampled by slicing with hyperplanes
and eliminating variables through resultants.
Each slice is eliminated in one random chart; a chart that does not
eliminate cleanly gives its slice no points, and the sampling walk's next
slice stands in for it.

Every search for the zeros of a form on a line goes through `line_zeros`:
curve points on a ruling line, the last coordinate of a genus-5 slice,
the chart's base points, and the point harvests of the `cone` module.  A
harvest (`ZeroHarvest`) asks for as many lines a round as points are
still missing, and hands out the points of the loop that draws one line
at a time, in its order.

Every eliminant is a pull-back through `monomials.restrict` and
`collect`: the sweep A(u) + t B(u) of the ruling chart, whose
coefficient arrays in 1 and u `RulingChart.line_at` also evaluates for
each ruling line, the pull-back F(A(u) + t B(u)) of a form to that sweep
at the weights 1, u, t, ut (`RulingChart.pull_back`), and the genus-5
eliminants, where a chart quadric splits by y3-degree into ternary forms
and the Sylvester determinant is built with `mul_forms`.

Points are projective coordinate vectors normalized so the first nonzero
coordinate is 1.  A point doubles as a covector on sections: the pairing
<b, s> = sum b_i s_i realizes evaluation of the linear form s at b.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import algebra as alg
from . import monomials as mono
from .errors import (ConfigError, DegenerateInput, GenerationFailed,
                     InsufficientPoints, SingularPoint, lockstep, resample)
from .rng import Stream, derive_key

GENERATION_TRIES = 64
POINT_BUDGET_FACTOR = 60


def line_zeros(coeffs: np.ndarray, deg: int, g: int, a: np.ndarray,
               b: np.ndarray, p: int) -> list[list[np.ndarray]]:
    """Zeros of a degree-deg form on each line through a[k] and b[k], for
    N x g stacks a and b; one line is a stack of one.  coeffs is one form
    for every line, or an N x count(g, deg) stack of one form per line.

    Per line, first the normalized points a + t b, one per distinct root t
    of F(a + t b) in increasing order, then b when F(b) = 0 (the root at
    t = infinity).  Empty when the line lies inside the hypersurface; a
    zero vector is skipped.  One `restrict_to_line` and one
    `distinct_roots_batch` serve the whole stack.
    """
    a = np.asarray(a, dtype=np.int64) % p
    b = np.asarray(b, dtype=np.int64) % p
    binary = mono.restrict_to_line(coeffs, deg, g, a, b, p)
    polys = [alg.poly_trim(f) for f in binary]
    live = [k for k, f in enumerate(polys) if len(f)]
    owner, pts = [], []
    for k, ts in zip(live, alg.distinct_roots_batch([polys[k] for k in live],
                                                    p)):
        pts += [a[k] + t * b[k] for t in ts]
        if binary[k, -1] == 0:
            pts.append(b[k])
        owner += [k] * (len(pts) - len(owner))
    out: list[list[np.ndarray]] = [[] for _ in polys]
    if pts:
        pts = np.array(pts) % p
        for k, pt in zip(owner, alg.normalize_rows(pts, p)):
            if pt.any():
                out[k].append(pt)
    return out


class ZeroHarvest:
    """Rational points of a hypersurface, the zeros of its form on random
    lines of its stream: at most `count` points from at most `budget`
    lines.  A take hands out the points of the loop that draws one line at
    a time, in that loop's order.

    Its chains (`errors.lockstep`) ask for as many lines a round as points
    are still missing, capped by the budget (the rule of `errors.Draws`
    and `sample_points`), and all harvests of a round share one
    `line_zeros`.  A take of one point draws the lines of the one-line
    loop.  A take of more reads ahead: a random line meets a quartic or a
    cubic in about one rational point, so the round draws lines that loop
    does not draw yet, whose points wait for the next take, and the
    stream's state and the budget left differ from that loop's.  Each
    line gives its points in stream order and the budget stops both at
    the same line, so the points handed out do not differ.  Reading ahead
    is sound only on a stream that no other code draws from: the one take
    of more than one point, in `cone._agreement`, is on its own `zeros`
    stream."""

    def __init__(self, coeffs: np.ndarray, deg: int, g: int, p: int,
                 stream: Stream, count: int, budget: int = 400):
        self.coeffs = np.asarray(coeffs, dtype=np.int64)
        self.deg, self.g, self.p, self.stream = deg, g, p, stream
        self.count, self.budget = count, budget
        self.points: list[np.ndarray] = []
        self.used = 0

    @property
    def left(self) -> bool:
        """Whether another point may come."""
        return self.used < self.count \
            and (self.budget > 0 or self.used < len(self.points))

    def take(self, n: int):
        """Chain of the next n points, fewer when no more come."""
        end = min(self.used + n, self.count)
        while len(self.points) < end and self.budget:
            lines = min(end - len(self.points), self.budget)
            self.budget -= lines
            ends = [(self.coeffs, self.stream.field_vec(self.p, self.g),
                     self.stream.field_vec(self.p, self.g))
                    for _ in range(lines)]
            for found in (yield _zeros, self.deg, self.g, self.p, ends):
                self.points += found
        got = self.points[self.used:end]
        self.used += len(got)
        return got


def _zeros(deg: int, g: int, p: int, forms: tuple, a: tuple, b: tuple
           ) -> list:
    """The zeros of each form forms[k] on the line a[k] b[k]."""
    return line_zeros(np.stack(forms), deg, g, np.stack(a), np.stack(b), p)


def panel_sizes(genus: int) -> tuple[int, int]:
    """Points in the main and the holdout panel of a curve context: four
    and two times the number of quartic monomials.  A curve file holds
    their sum."""
    quartics = mono.count(genus, 4)
    return 4 * quartics, 2 * quartics


# the Gram matrix of y0 y3 - y1 y2, times 2
_HYPERBOLIC = np.array([[0, 0, 0, 1], [0, 0, -1, 0], [0, -1, 0, 0],
                        [1, 0, 0, 0]], dtype=np.int64)


def quadric_gram(coeffs: np.ndarray, g: int, p: int) -> np.ndarray:
    """Symmetric Gram matrix M with Q(x) = x^T M x (odd characteristic).

    exponents(g, 2) lists z_i z_j (i <= j) in the row-major order of
    np.triu_indices(g); the cross terms are halved.  A stack of forms
    (last axis the coefficients) gives a stack of Grams."""
    i, j = np.triu_indices(g)
    c = np.asarray(coeffs, dtype=np.int64) % p \
        * np.where(i == j, 1, alg.inv_mod(2, p)) % p
    m = np.zeros(c.shape[:-1] + (g, g), dtype=np.int64)
    m[..., i, j] = c
    m[..., j, i] = c
    return m


@dataclass(frozen=True)
class CurveModel:
    """Generators of a canonical curve; degree tags the form degree."""
    genus: int
    prime: int
    seed: int
    generators: tuple[tuple[int, tuple[int, ...]], ...]

    def generator_arrays(self) -> list[tuple[int, np.ndarray]]:
        return [(d, np.array(c, dtype=np.int64)) for d, c in self.generators]

    @cached_property
    def ruling_chart(self) -> RulingChart:
        """The ruling chart of the first generator, a quadric surface at
        genus 4, keyed by the curve seed; built on first use and kept on
        this curve (a frozen dataclass still has an instance `__dict__`)."""
        return RulingChart(self.generator_arrays()[0][1], self.prime,
                           derive_key(self.seed, "chart"))


@dataclass(frozen=True)
class TangentData:
    point: np.ndarray
    direction: np.ndarray


def on_curve(curve: CurveModel, pt: np.ndarray) -> bool:
    """Whether every generator vanishes at pt: `off_curve` on one point."""
    return not off_curve(curve, np.asarray(pt, dtype=np.int64)[None])[0]


def off_curve(curve: CurveModel, pts: np.ndarray) -> np.ndarray:
    """Mask of the points (rows) where some generator does not vanish."""
    return np.any([mono.form_eval(c, pts, curve.genus, d, curve.prime) != 0
                   for d, c in curve.generator_arrays()], axis=0)


def jacobian_at(curve: CurveModel, pts: np.ndarray) -> np.ndarray:
    """Jacobian matrix of the generators at a point, or at each point of
    a ... x g stack (... x generators x g), one `form_eval` of the partials
    per generator."""
    p = curve.prime
    g = curve.genus
    pts = np.asarray(pts, dtype=np.int64)
    rows = [mono.form_eval(mono.gradient(c, g, d, p).T, pts.reshape(-1, g),
                           g, d - 1, p)
            for d, c in curve.generator_arrays()]
    return np.stack(rows, axis=1).reshape(pts.shape[:-1] + (len(rows), g))


def tangent_vectors(curve: CurveModel, pts) -> list:
    """The normalized point and the second spanning point of the embedded
    tangent line at each point (row) of a stack, or a SingularPoint in its
    place when the point is off the curve or singular: one `off_curve`,
    one `jacobian_at` and one `kernel_batch` for the stack, and one
    `rref_batch` of the tangent lines."""
    p = curve.prime
    pts = np.asarray(pts, dtype=np.int64).reshape(-1, curve.genus) % p
    off = off_curve(curve, pts)
    kern, smooth = alg.kernel_batch(jacobian_at(curve, pts), p, 2)
    lines, _ = alg.rref_batch(kern, p)
    pts_n = alg.normalize_rows(pts, p)
    # the two rows of a line's echelon form are distinct and normalized,
    # so the first that is not the point is the direction
    directions = np.where((lines[:, 0] == pts_n).all(axis=1)[:, None],
                          lines[:, 1], lines[:, 0])
    return [SingularPoint("point is not on the curve") if off[k]
            else SingularPoint(f"Jacobian rank below {curve.genus - 2}")
            if not smooth[k] else TangentData(pts_n[k], directions[k])
            for k in range(len(pts))]


class RulingChart:
    """One ruling of a split quadric surface Q in P^3, swept by a line that
    is linear in its parameter u.  The chart holds no curve.

    It draws a point q0 of Q from the `q0-search` stream of its key, takes
    the two points d1 and e2 where a line of the tangent plane at q0 meets
    Q, and completes them to a hyperbolic frame E = (e0, e1, e2, e3),
    e0 = q0 and e1 = d1, in which Q(y E) = y0 y3 - y1 y2: e2 is scaled to
    B(e1, e2) = -1/2, and e3 solves B(e0, .) = 1/2, B(e1, .) = B(e2, .) = 0
    and is moved along e0 onto Q.  The planes h1 + u h2 (h2 at u = inf)
    through the ruling line q0 d1 meet Q in that line and a residual line
    of the other ruling.  With (c2, c3)(u) = (h . e2, h . e3), linear in u,
    the residual line is spanned by A(u) = c3 e0 - c2 e1 and
    B(u) = c3 e2 - c2 e3, on which y0 y3 - y1 y2 vanishes identically; no
    plane lies inside a smooth quadric, so every parameter has its line.
    """

    def __init__(self, quadric: np.ndarray, p: int, key: int):
        self.quadric = np.asarray(quadric, dtype=np.int64) % p
        self.p = p
        gram = quadric_gram(self.quadric, 4, p)
        stream = Stream(key, "q0-search")
        found = lockstep([ZeroHarvest(self.quadric, 2, 4, p, stream, 1,
                                      400).take(1)])[0]
        if not found:
            raise GenerationFailed("no rational point found on the quadric")
        self.q0 = q0 = found[0]
        tangent = alg.kernel_basis((q0 @ gram % p)[None], p)
        frame, _ = alg.rref(np.concatenate([q0[None, :], tangent]), p)
        frame = frame[~(frame == 0).all(axis=1)]
        conic = line_zeros(self.quadric, 2, 4, frame[None, 1], frame[None, 2],
                           p)[0]
        if len(conic) != 2:
            raise GenerationFailed("tangent conic does not split; "
                                   "quadric is not rationally ruled")
        self.d1, e2 = conic
        # Fermat's inverse maps a zero pairing B(d1, e2) to e2 = 0, which
        # the frame check below refuses
        e2 = e2 * (-pow(2 * int(self.d1 @ gram % p @ e2 % p), p - 2, p)) % p
        half = alg.inv_mod(2, p)
        x, _, _ = alg.solve_batch(np.stack([q0, self.d1, e2])[None] @ gram % p,
                                  np.array([[[half], [0], [0]]]), p)
        e3 = x[0, :, 0]
        e3 = (e3 - int(e3 @ gram % p @ e3 % p) * q0) % p
        self.frame = np.stack([q0, self.d1, e2, e3])
        if (self.frame @ gram % p @ self.frame.T % p
                != _HYPERBOLIC * half % p).any():
            raise GenerationFailed("no hyperbolic frame: the quadric is not "
                                   "smooth")
        self.h1, self.h2 = alg.kernel_basis(self.frame[:2], p)
        # c[i] = (c2, c3) of the plane h_i; A and B have the columns 1, u
        c = np.stack([self.h1, self.h2]) @ self.frame[2:].T % p
        self.a_coeffs = (np.outer(q0, c[:, 1]) - np.outer(self.d1, c[:, 0])
                         ) % p
        self.b_coeffs = (np.outer(e2, c[:, 1]) - np.outer(e3, c[:, 0])) % p
        # A + t B: the columns 1, u, t, ut
        self.sweep = np.concatenate([self.a_coeffs, self.b_coeffs], axis=1)

    def pull_back(self, coeffs: np.ndarray, deg: int) -> np.ndarray:
        """F(A(u) + t B(u)) of a degree-deg form F, entry [i, j] the
        coefficient of u^i t^j: one `restrict` to the sweep's columns and
        one `collect` at their weights 1, u, t, ut."""
        return mono.collect(mono.restrict(coeffs, deg, 4, self.sweep, self.p),
                            deg, 4, [[0, 0], [1, 0], [0, 1], [1, 1]], self.p)

    def line_at(self, us) -> tuple[np.ndarray, np.ndarray]:
        """The N x 4 stacks a = A(u) and b = B(u) that span the ruling line
        of each parameter u (None = inf): the coefficient arrays at the
        homogeneous parameter (1, u), or (0, 1) for u = inf."""
        params = np.array([(0, 1) if u is None else (1, u % self.p)
                           for u in us], dtype=np.int64).reshape(-1, 2)
        return (params @ self.a_coeffs.T % self.p,
                params @ self.b_coeffs.T % self.p)

    def points_on_line(self, us, deg: int, form: np.ndarray,
                       curve: CurveModel) -> list:
        """The points of the curve on the ruling line of each parameter u:
        the zeros of its degree-deg cutting form on every line come from
        one `line_zeros`, and one `off_curve` test of the curve filters
        them all."""
        zeros = line_zeros(form, deg, 4, *self.line_at(us), self.p)
        off = iter(off_curve(curve, np.array(
            [q for z in zeros for q in z]).reshape(-1, 4)).tolist())
        return [[q for q in z if not next(off)] for z in zeros]


# ---------------------------------------------------------------------------
# genus 5 slicing


def _quadric_by_y3(coeffs: np.ndarray) -> list[np.ndarray]:
    """A quadric in (y0..y3) as q = c + b y3 + a y3^2.

    Returns [c, b, a], ternary forms in (y0, y1, y2) of degree 2, 1, 0:
    the monomials of exponents(4, 2) with y3-degree k, in their order, are
    exactly exponents(3, 2 - k).
    """
    y3_degree = np.array(mono.exponents(4, 2))[:, 3]
    return [coeffs[y3_degree == k] for k in range(3)]


def _res_quadratics(q1, q2, p: int) -> np.ndarray:
    """Sylvester determinant of two y3-quadratics, in the chart y0 = 1.

    (af - cd)^2 - (ae - bd)(bf - ce) for a y3^2 + b y3 + c and
    d y3^2 + e y3 + f, a ternary quartic dehomogenized to a bivariate array
    in (y1, y2); spurious factors from degree drops are filtered later by
    exact point validation.
    """
    c, b, a = q1
    f, e, d = q2

    def mul(f1, n1, f2, n2):
        return mono.mul_forms(f1, n1, f2, n2, 3, p)

    t1 = (mul(a, 0, f, 2) - mul(c, 2, d, 0)) % p     # degree 2
    t2 = (mul(a, 0, e, 1) - mul(b, 1, d, 0)) % p     # degree 1
    t3 = (mul(b, 1, f, 2) - mul(c, 2, e, 1)) % p     # degree 3
    quartic = (mul(t1, 2, t1, 2) - mul(t2, 1, t3, 3)) % p
    return mono.collect(quartic, 4, 3, [[0, 0], [1, 0], [0, 1]], p)


def hyperplane_section(curve: CurveModel, h: np.ndarray) -> list[np.ndarray]:
    """Rational points of a genus-5 curve in the hyperplane {h . z = 0},
    eliminated in one random chart of the slice; a chart that does not
    eliminate cleanly gives the slice no points.  The resultant r12 is
    specialized at all roots y1 of the final eliminant by one `p2_eval_x`,
    and all candidates of the slice are tested with one `off_curve`."""
    if curve.genus != 5:
        raise ValueError("hyperplane sections are sliced at genus 5 only")
    p = curve.prime
    h = np.asarray(h, dtype=np.int64) % p
    basis = alg.kernel_basis(h.reshape(1, 5), p).T  # 5 x 4
    if basis.shape[1] != 4:
        raise DegenerateInput("section hyperplane is degenerate")
    key = derive_key(curve.seed, "slice-chart|" + ",".join(map(str, h)))
    change = Stream(key, "chart").field_mat(p, 4, 4)
    if alg.rank(change, p) != 4:
        return []
    m = basis @ change % p
    quads = [np.array(c, dtype=np.int64) for _, c in curve.generators]
    layers = [_quadric_by_y3(mono.restrict(q, 2, 5, m, p)) for q in quads]
    if not all(layer[2].any() for layer in layers[:2]):
        return []
    r12 = _res_quadratics(layers[0], layers[1], p)
    r13 = _res_quadratics(layers[0], layers[2], p)
    if not (r12.any() and r13.any()):
        return []
    rfin = alg.resultant_bivariate(r12, r13, p)
    if alg.poly_deg(rfin) < 0:
        return []
    roots = alg.distinct_roots(rfin, p)
    cands: list = []
    for y1, s12 in zip(roots, alg.p2_eval_x(r12, roots, p)):
        s12 = alg.poly_trim(s12)
        if alg.poly_deg(s12) < 1:
            continue
        for y2 in alg.distinct_roots(s12, p):
            # y3 on the line m (1, y1, y2, y3): its y3^2 coefficient is
            # layers[0][2], nonzero, so no zero lies at infinity
            base = m @ np.array([1, y1, y2, 0], dtype=np.int64) % p
            cands += line_zeros(quads[0], 2, 5, base[None], m[None, :, 3],
                                p)[0]
    # one membership test for all candidates of the slice
    pts = np.array(cands, dtype=np.int64).reshape(-1, 5)
    found = {tuple(x.tolist()): x for x in pts[~off_curve(curve, pts)]}
    return [found[k] for k in sorted(found)]


# ---------------------------------------------------------------------------
# genus models, generation and sampling


@dataclass(frozen=True)
class GenusModel:
    """One supported genus, and everything the engine takes to be true at
    it.  `degrees` are those of the generators, in file order; a candidate
    curve draws one form of each degree and is kept when
    `admissible(forms, p)`.  `points(curve, stream, n)` makes n draws of the
    sampling stream and gives, per draw in draw order, its curve points.

    `trigonal` says whether the curves carry a g^1_3, so that I(2) does not
    generate I(3) (Petri's theorem; every genus-4 canonical curve is
    trigonal through the rulings of its quadric), which criterion 2
    expects.  Two values are measured, not derived: `f4_rank`, the rank
    of the saturated quartic span (criterion 11), and `sweep_degree`, the
    degree of the minimal rational fit of the double-secant family sweep
    (`cone._family_roots`), (5, 5) at genus 4 seeds 1-5 and (8, 8) at
    genus 5 seed 7 over ten sweeps each."""
    degrees: tuple[int, ...]
    admissible: Callable[[list[np.ndarray], int], bool]
    points: Callable[[CurveModel, Stream, int], Iterable]
    trigonal: bool
    f4_rank: int
    sweep_degree: int


def _split_smooth_quadric(forms: list[np.ndarray], p: int) -> bool:
    """A smooth quadric with rational rulings: its Gram determinant is a
    nonzero square (Euler's criterion)."""
    return pow(alg.det(quadric_gram(forms[0], 4, p), p), (p - 1) // 2, p) == 1


def _ruling_points(curve: CurveModel, stream: Stream, n: int) -> list:
    """The points of n ruling lines, all found at once: the zeros of the
    cubic generator."""
    return curve.ruling_chart.points_on_line(
        [stream.field(curve.prime) for _ in range(n)],
        *curve.generator_arrays()[1], curve)


def _independent_quadrics(forms: list[np.ndarray], p: int) -> bool:
    """Quadrics that span a space of their number's dimension."""
    return alg.rank(np.stack(forms), p) == len(forms)


def _slice_points(curve: CurveModel, stream: Stream, n: int) -> Iterable:
    """The points of n hyperplane slices, each sliced when the walk reaches
    it; the zero hyperplane gives none."""
    hs = [stream.field_vec(curve.prime, 5) for _ in range(n)]
    return (hyperplane_section(curve, h) if h.any() else []
            for h in hs)


MODELS = {4: GenusModel((2, 3), _split_smooth_quadric, _ruling_points,
                        trigonal=True, f4_rank=5, sweep_degree=5),
          5: GenusModel((2, 2, 2), _independent_quadrics, _slice_points,
                        trigonal=False, f4_rank=16, sweep_degree=8)}
_GENERA = " or ".join(map(str, MODELS))


def check_curve_prime(p: int, where: str = "") -> None:
    """Reject a curve prime below 10^6, or one `algebra.check_prime`
    rejects, with a ConfigError naming it, its message prefixed by `where`:
    the one prime check of `gen-curve` and of a loaded curve file.  A
    prime is user input, so its fault is a ConfigError, which the command
    line reports with exit 2; `algebra.check_prime` raises a plain
    ValueError, as the engine's guard on a modulus."""
    if p < 10**6:
        raise ConfigError(f"{where}prime must be at least 10^6, got {p}")
    try:
        alg.check_prime(p)
    except ValueError as exc:
        raise ConfigError(f"{where}{exc}") from None


def smooth_at(curve: CurveModel, pts) -> bool:
    """Full Jacobian rank at every given curve point, the ranks read off
    one `rref_batch` of the stacked Jacobians."""
    jac = jacobian_at(curve, np.reshape(pts, (-1, curve.genus)))
    _, pivots = alg.rref_batch(jac, curve.prime)
    return bool(((pivots >= 0).sum(axis=1) == curve.genus - 2).all())


def generate_curve(genus: int, prime: int, seed: int) -> CurveModel:
    """Deterministic random canonical curve; retries until smoothness spot
    checks pass on 50 sampled points."""
    if genus not in MODELS:
        raise ValueError(f"genus must be {_GENERA}, got {genus}")
    check_curve_prime(prime)
    model = MODELS[genus]
    stream = Stream(seed, f"curve-gen-g{genus}")

    def draw(_):
        forms = [stream.field_vec(prime, mono.count(genus, d))
                 for d in model.degrees]
        if not model.admissible(forms, prime):
            return None
        candidate = CurveModel(genus, prime, seed, tuple(
            (d, tuple(int(v) for v in f))
            for d, f in zip(model.degrees, forms)))
        pts = sample_points(candidate, 50)
        return candidate if smooth_at(candidate, pts) else None

    return resample(f"smooth curve of genus {genus} at prime {prime}, seed "
                    f"{seed}", GENERATION_TRIES, draw)


def sample_points(curve: CurveModel, count: int) -> list[np.ndarray]:
    """Distinct rational points, deterministically ordered.

    The model's point source draws from a stream keyed by the curve seed,
    in rounds of as many draws as points are missing, walked in draw
    order: the walk stops after the draw where one draw at a time would
    stop.  The collected set is deduplicated and sorted by coordinates before
    truncation, so the result depends only on (curve, count).
    """
    if count < 1:
        raise ValueError("count must be positive")
    p = curve.prime
    if count > p // 2:
        # Hasse-Weil caps rational points near p; far larger requests are
        # hopeless and would burn the whole slice budget
        raise InsufficientPoints(f"cannot collect {count} points over F_{p}")
    points = MODELS[curve.genus].points
    stream = Stream(curve.seed, f"sample-points-g{curve.genus}")
    found: dict[tuple, np.ndarray] = {}
    budget = POINT_BUDGET_FACTOR * count + 400
    while len(found) < count and budget > 0:
        for pts in points(curve, stream, min(count - len(found), budget)):
            budget -= 1
            for q in pts:
                found[tuple(q.tolist())] = q
            if len(found) >= count:
                break
    if len(found) < count:
        raise InsufficientPoints(
            f"found {len(found)} of {count} requested points")
    return [found[k] for k in sorted(found)][:count]


# ---------------------------------------------------------------------------
# persistence


def curve_to_json(curve: CurveModel, points: list[np.ndarray]) -> dict:
    gens = []
    for d, c in curve.generator_arrays():
        gens.append(mono.form_to_pairs(c, curve.genus, d))
    return {
        "genus": curve.genus,
        "prime": curve.prime,
        "seed": curve.seed,
        "generators": gens,
        "points": [[int(v) for v in q] for q in points],
    }


def _typed(data: dict, name: str, kind: type):
    """data[name], or ConfigError naming the field if it is not a `kind`;
    a JSON boolean is no int, although Python's bool is."""
    value = data.get(name)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ConfigError(f"field '{name}' must be of type {kind.__name__}, "
                          f"got {type(value).__name__}")
    return value


def _check_pairs(generators: list, g: int, p: int) -> None:
    """ConfigError naming the generator and the pair when a generator of a
    curve file is not a list of [exponents, coefficient] pairs, exponents
    are not a list of g nonnegative JSON integers, a coefficient is not a
    JSON integer in [0, p) (a bool is not one), or a monomial repeats."""
    for i, pairs in enumerate(generators):
        if not isinstance(pairs, list):
            raise ConfigError(f"generator {i} is not a list of "
                              "[exponents, coefficient] pairs")
        first: dict[tuple, int] = {}
        for j, pair in enumerate(pairs):
            at = f"generator {i}, pair {j}"
            if not isinstance(pair, list) or len(pair) != 2:
                raise ConfigError(f"{at} is not an [exponents, coefficient] "
                                  "pair")
            e, c = pair
            if not isinstance(e, list) or len(e) != g \
                    or not all(type(v) is int and v >= 0 for v in e):
                raise ConfigError(f"{at}: exponents {e!r} are not a list of "
                                  f"{g} nonnegative integers")
            if type(c) is not int or not 0 <= c < p:
                raise ConfigError(f"{at}: coefficient {c!r} is not an "
                                  f"integer in [0, {p})")
            k = first.setdefault(tuple(e), j)
            if k != j:
                raise ConfigError(f"{at} repeats the monomial of pair {k}")


def curve_from_json(data: dict) -> tuple[CurveModel, list[np.ndarray]]:
    """Curve and points of a curve file's JSON object.

    Raises ConfigError, naming the field or the point index, when a field
    is missing or has the wrong JSON type, the genus has no model, the
    prime is not a curve prime (`check_curve_prime`), a generator pair is
    malformed (`_check_pairs`, naming the generator and the pair), a
    generator has the wrong degree, the file holds fewer points than the
    panels of a context (`panel_sizes`), or a point is not a list of g
    integers, is not normalized, repeats an earlier point (both indices
    named) or does not lie on the curve.
    """
    g = _typed(data, "genus", int)
    p = _typed(data, "prime", int)
    if g not in MODELS:
        raise ConfigError(f"field 'genus' must be {_GENERA}, got {g}")
    check_curve_prime(p, "field 'prime': ")
    generators = _typed(data, "generators", list)
    _check_pairs(generators, g, p)
    degrees = [sorted({sum(e) for e, _ in pairs}) for pairs in generators]
    expected = [[d] for d in MODELS[g].degrees]
    if degrees != expected:
        raise ConfigError(f"field 'generators': monomial degrees {degrees}, "
                          f"expected {expected} at genus {g}")
    gens = [(deg, tuple(int(v) for v in
                        mono.form_from_pairs(pairs, g, deg, p)))
            for deg, pairs in zip(MODELS[g].degrees, generators)]
    curve = CurveModel(g, p, _typed(data, "seed", int), tuple(gens))
    points = _typed(data, "points", list)
    needed = sum(panel_sizes(g))
    if len(points) < needed:
        raise ConfigError(f"field 'points' holds {len(points)} points, a "
                          f"genus-{g} curve file needs {needed}")
    short = [i for i, q in enumerate(points) if not isinstance(q, list)
             or len(q) != g or not all(type(v) is int for v in q)]
    if short:
        raise ConfigError(f"point {short[0]} is not a list of {g} integer "
                          "coordinates")
    # on the JSON integers, before any of them meets int64
    bad = [i for i, q in enumerate(points) if not all(0 <= v < p for v in q)
           or next((v for v in q if v), 0) != 1]
    if bad:
        raise ConfigError(f"point {bad[0]} is not normalized: coordinates "
                          "must lie in [0, p) with first nonzero coordinate "
                          "1")
    first: dict[tuple, int] = {}
    for i, q in enumerate(points):
        j = first.setdefault(tuple(q), i)
        if j != i:
            raise ConfigError(f"point {i} repeats point {j}")
    pts = np.array(points, dtype=np.int64)
    off = off_curve(curve, pts)
    if off.any():
        raise ConfigError(f"point {int(off.argmax())} is not on the curve")
    return curve, list(pts)


def save_curve(path: str, curve: CurveModel, points: list[np.ndarray]) -> None:
    with open(path, "w") as fh:
        json.dump(curve_to_json(curve, points), fh, sort_keys=True)
        fh.write("\n")


def read_json(path: str, what: str) -> dict:
    """The JSON object held by the file at path: the one reader of a JSON
    input (a curve file or a spans config).  A file that is not JSON is a
    ConfigError naming `what` and the path, and so is a top level that is
    not an object; a file that cannot be opened raises its OSError, which
    names the path."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:
            raise ConfigError(f"{what} {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"a {what} must hold a JSON object, got "
                          f"{type(data).__name__}")
    return data


def load_curve(path: str) -> tuple[CurveModel, list[np.ndarray]]:
    """The curve and points of the curve file at path (`read_json`,
    `curve_from_json`)."""
    return curve_from_json(read_json(path, "curve file"))
