"""The quartic cone as a quadric bundle over the plane of the net.

Projecting from the vertex maps the curve onto a plane curve of degree
2g - 2.  Over each plane point the quartic induces a quadric in g - 2
variables; its discriminant vanishes exactly on the plane image, and the
singular point of the fiber over a smooth image point is the original
curve point.  The plane image has exactly 2(g-1)(g-3) nodes, one for each
secant of the curve through the vertex.
"""

from curvecones import algebra, bundle, canring, cone, curve, net
from curvecones.rng import Stream

PRIME = 1000003

ctx = canring.build_context(curve.generate_curve(4, PRIME, seed=1))
w_net = net.random_net(ctx, Stream(3030, "demo"))
quartic = cone.reconstruct_quartic(ctx, w_net, oracle_points=10)

gamma = net.gamma_equation(ctx, w_net)
print(f"plane image: degree {gamma.degree} curve "
      f"({gamma.coeffs.shape[0]} coefficients, unique fit)")

# fiber over the image of a curve point: singular, kernel = the point
pts = ctx.panel[:1]
fibers = bundle.fiber_quadric(ctx, w_net, quartic, pts @ w_net.w.T % PRIME)
print("fiber Gram over a curve-point image:", fibers[0].gram.tolist())
print("  determinant:", algebra.det(fibers[0].gram, PRIME))
print("  singular point recovers the curve point:",
      bool(bundle.steinerian_check(fibers, pts, PRIME)[0]))

# sweep: discriminant zero on the image, nonzero off it
scan = bundle.hessian_scan(ctx, w_net, quartic, 25, 25, Stream(3031, "u"))
print(f"on-image fibers: {scan['on_singular']}/{scan['on_checked']} "
      f"singular, {scan['kernel_matches']} kernel matches")
print(f"off-image fibers: {scan['off_nonsingular']}/{scan['off_checked']} "
      f"nonsingular")

# node count of the plane image = 2(g-1)(g-3)
print("nodes of the plane image:", bundle.node_count(gamma, PRIME),
      "(expected 6 at genus 4)")
