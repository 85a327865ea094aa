"""Linear systems spanned by many quartic cones and their polar cubics.

Accumulating normalized coefficient vectors over random nets saturates at
projective dimension 4 (genus 4) and 15 (genus 5) for the quartic system,
a proper subsystem of the full quartic ideal piece.  Squares of ideal
quadrics always land inside it.  The base locus of both systems is the
curve itself: every off-curve probe is separated by some member.
"""

from curvecones import canring, curve, spanlab

PRIME = 1000003

ctx = canring.build_context(curve.generate_curve(4, PRIME, seed=1))

cones = spanlab.collect_cones(ctx, 25, seed=0)
f4 = spanlab.accumulate_f4(ctx, cones, seed=0)
f3 = spanlab.accumulate_f3(ctx, cones)

print("quartic span rank trajectory:", f4.trajectory)
print(f"saturated rank {f4.rank} (projective dimension {f4.rank - 1}) "
      f"inside a {ctx.ideal(4).dim}-dimensional ideal piece")
print("polar-cubic span rank trajectory:", f3.trajectory)
print(f"observed cubic-system rank {f3.rank} of dim I(3) = "
      f"{ctx.ideal(3).dim}")

print("squares of ideal quadrics contained:",
      spanlab.squares_containment(ctx, f4))

report = spanlab.base_locus_probe(ctx, [f4, f3], 200, seed=0)
print(f"base-locus probe: {report['off_curve_checked']} random + "
      f"{report['structured_checked']} structured off-curve points, "
      f"{len(report['violations'])} violations; curve contained: "
      f"{report['curve_points_contained']}")
