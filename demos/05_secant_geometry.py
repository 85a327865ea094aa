"""Which secant lines of the curve lie on the quartic cone.

The restriction of the quartic to the secant through two curve points is
a binary quartic vanishing at both points.  Its two outer coefficients
vanish exactly when the net holds a section vanishing doubly at the
respective point; the middle coefficient survives even then (on the
degeneracy divisor the quartic is the square of a quadric, and the square
restricts to a pure middle term, so by specialization the middle term is
generically nonzero).  A secant is contained exactly when all three die:
either the line meets the vertex, or the net both carries a doubly
vanishing section and sits on the middle-coefficient divisor inside the
family of nets through that section.
"""

import numpy as np

from curvecones import canring, cone, curve, monomials, net
from curvecones.rng import Stream

PRIME = 1000003

ctx = canring.build_context(curve.generate_curve(4, PRIME, seed=1))
w_net = net.random_net(ctx, Stream(5050, "demo"))
quartic = cone.reconstruct_quartic(ctx, w_net, oracle_points=10)

# random pairs: not contained, not predicted
pt_a, pt_b = ctx.panel[10], ctx.panel[55]
restriction = monomials.restrict_to_line(quartic.coeffs, 4, 4,
                                         pt_a, pt_b, PRIME)
print("generic secant restriction (l^4 ... m^4):", restriction.tolist())
print("criterion:", cone.secant_criterion(ctx, w_net, quartic, pt_a, pt_b))

# branch 1: force the vertex onto the secant
pt_p, pt_q, vnet = cone.secant_through_vertex(ctx, Stream(5051, "v"))
vcone = cone.reconstruct_quartic(ctx, vnet, oracle_points=4)
print("\nvertex-meeting secant:",
      cone.secant_criterion(ctx, vnet, vcone, pt_p, pt_q))

# branch 2: a section vanishing doubly at both points kills the outer
# coefficients; sweeping the net family through it kills the middle one
pt_p, pt_q, section = cone.bitangent_pair(ctx, Stream(5052, "b"))
stream = Stream(5053, "w")
bnet = net.build_net(ctx, np.stack([section, stream.field_vec(PRIME, 4),
                                    stream.field_vec(PRIME, 4)]))
bcone = cone.reconstruct_quartic(ctx, bnet, oracle_points=4)
print("\ndoubly-vanishing section, generic net through it:",
      monomials.restrict_to_line(bcone.coeffs, 4, 4, pt_p, pt_q,
                                 PRIME).tolist())

found = cone.contained_double_secant(ctx, Stream(5054, "d"), count=1)
pt_p, pt_q, dnet, dcone = found[0]
print("after the sweep, a genuinely contained double secant:",
      cone.secant_criterion(ctx, dnet, dcone, pt_p, pt_q))
print("its restriction:",
      monomials.restrict_to_line(dcone.coeffs, 4, 4, pt_p, pt_q,
                                 PRIME).tolist())
