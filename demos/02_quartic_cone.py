"""Reconstruct the quartic cone attached to a net of canonical sections.

A 3-plane W of sections determines a vertex (its annihilator) and, away
from the degeneracy divisor, a unique quartic hypersurface through the
curve that is singular along the vertex and splits over every pencil
inside W as (vertex form)^2 times a residual quadric.  The reconstruction
solves for it by exact linear algebra and certifies the result against an
independent membership oracle built from cup-product Gram matrices.
"""

import numpy as np

from curvecones import canring, cone, curve, monomials, net
from curvecones.rng import Stream

PRIME = 1000003

ctx = canring.build_context(curve.generate_curve(4, PRIME, seed=1))
w_net = net.random_net(ctx, Stream(2024, "demo-net"))
print("net vertex (a point of P^3 at genus 4):", w_net.wperp[0])
print("degenerate?", w_net.in_d, " base point?", w_net.in_b)

quartic = cone.reconstruct_quartic(ctx, w_net)
print("\ncertificate:")
for key, value in sorted(quartic.certificate.items()):
    print(f"  {key}: {value}")

# the polar cubic with respect to a vertex vector also contains the curve
polar = cone.polar_cubic(ctx, quartic, w_net.wperp[0],
                         stream=Stream(2025, "demo-polar"),
                         oracle_points=20)
print("\npolar cubic certificate:", polar.certificate)

# cubics through the curve singular along the vertex form a space of
# dimension g - 3, and the polar map hits all of it
basis, polar_rank = cone.lw_space(
    ctx, quartic, cone.polar_cubics(ctx, quartic, w_net.wperp))
print(f"dim singular-cubic space = {basis.shape[0]}, "
      f"polar map rank = {polar_rank}")



def tangent_law(pt):
    """The tangent space of the quartic at a curve point contains the curve
    tangent line and the vertex: the gradient there annihilates both."""
    td = ctx.tangent(pt)
    grad = np.array([monomials.form_eval_one(
        monomials.partial(quartic.coeffs, k, 4, 4, PRIME), pt, 4, 3, PRIME)
        for k in range(4)])
    span = np.stack([td.point, td.direction, *w_net.wperp])
    return grad.any() and not (span @ grad % PRIME).any()


ok = sum(bool(tangent_law(pt)) for pt in ctx.panel[:10])
print(f"tangent-space law holds at {ok}/10 sampled points")
