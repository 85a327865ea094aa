"""Fixed-shape kernel timings, run in a fresh process.

    python3 perfbench/kernels.py CURVE.json SEED

Prints one JSON object of `kernel.*` metrics.  Inputs come from the curve
file and a stream keyed by SEED; no data is stored with the benchmark.
Forms whose genus differs from the curve's are random forms of the right
shape.  Each kernel is timed over several inputs and repetitions, and the
median per-call time is reported.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

from launcher import import_cli

MIN_SECONDS = 0.25      # per kernel, so that a median has many samples
MIN_REPS = 5


def timed(fn, inputs, scale: float) -> float:
    """Median seconds per call over `inputs`, cycled until MIN_SECONDS."""
    times = []
    spent = 0.0
    k = 0
    while spent < MIN_SECONDS or len(times) < MIN_REPS:
        arg = inputs[k % len(inputs)]
        t0 = time.perf_counter()
        fn(arg)
        dt = time.perf_counter() - t0
        times.append(dt)
        spent += dt
        k += 1
    return statistics.median(times) * scale


def main(curve_path: str, seed: int) -> dict:
    import_cli()
    import numpy as np
    from curvecones import algebra as alg, canring, cone as cn
    from curvecones import curve as cv, monomials as mono, net as nt
    from curvecones import pencil as pc
    from curvecones.errors import CurveConesError
    from curvecones.rng import Stream

    curve, points = cv.load_curve(curve_path)
    ctx = canring.build_context(curve, points)
    p = ctx.p
    stream = Stream(seed, "perfbench-kernels")
    out = {}

    def restrict_case(g, n, m):
        cases = [(stream.field_vec(p, mono.count(g, n)),
                  stream.field_mat(p, g, m)) for _ in range(4)]
        return timed(lambda c: mono.restrict(c[0], n, g, c[1], p), cases,
                     1e6)

    out["kernel.restrict_g5n4m2_us"] = restrict_case(5, 4, 2)
    out["kernel.restrict_g5n4m3_us"] = restrict_case(5, 4, 3)
    out["kernel.restrict_g4n3m2_us"] = restrict_case(4, 3, 2)
    for d in (4, 8):
        polys = [np.append(stream.field_vec(p, d), 1) for _ in range(8)]
        out[f"kernel.distinct_roots_d{d}_us"] = timed(
            lambda f: alg.distinct_roots(f, p), polys, 1e6)
    mats = [stream.field_mat(p, 280, 70) for _ in range(2)]
    out["kernel.rref_280x70_us"] = timed(lambda m: alg.rref(m, p), mats, 1e6)
    # one genus-5 sampling slice: a hyperplane section of three random
    # quadrics in P^4 (resultants and root finding, as in gen-curve)
    quadrics = tuple((2, tuple(int(c) for c in stream.field_vec(
        p, mono.count(5, 2)))) for _ in range(3))
    g5 = cv.CurveModel(5, p, seed, quadrics)
    planes = [stream.field_vec(p, 5) for _ in range(4)]
    out["kernel.genus5_slice_ms"] = timed(
        lambda h: cv.hyperplane_section(g5, h), planes, 1e3)

    pencils = []
    while len(pencils) < 4:
        v = stream.field_mat(p, 2, ctx.g)
        try:
            pc.build_pencil(ctx, v)
        except CurveConesError:
            continue
        pencils.append(v)
    out["kernel.build_pencil_us"] = timed(
        lambda v: pc.build_pencil(ctx, v), pencils, 1e6)

    net_obj = nt.random_net(ctx, stream.spawn("net"))
    probes = []
    while len(probes) < 4:
        b = stream.field_vec(p, ctx.g)
        try:
            nt.oracle_witness(ctx, net_obj, b)
        except CurveConesError:
            continue
        probes.append(b)
    out["kernel.oracle_witness_us"] = timed(
        lambda b: nt.oracle_witness(ctx, net_obj, b), probes, 1e6)
    seeds = []
    for s in range(12):
        try:
            cn.reconstruct_quartic(ctx, net_obj, seed=s)
        except CurveConesError:
            continue
        seeds.append(s)
        if len(seeds) == 3:
            break
    out["kernel.reconstruct_quartic_ms"] = timed(
        lambda s: cn.reconstruct_quartic(ctx, net_obj, seed=s), seeds, 1e3)
    return out


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1], int(sys.argv[2]))))
