"""Command-line driver for reproducible runs.

Subcommands: gen-curve, ideal, reconstruct, spans, hessian, verify.  All
randomness flows from the seed recorded in the curve file, so identical
invocations produce byte-identical artifacts.  Coefficient arrays are
serialized as [exponent-tuple, value] pairs in the graded-lexicographic
monomial order with z0 > z1 > ... (canonical residues in [0, p)); see the
README for the full conventions.

Exit codes: 0 success, 2 configuration error, 3 mathematical verification
failure (a failed criterion or certificate, never resampled), 4 resample
budget exhausted (a DegenerateInput).

Each subcommand imports only the engine modules it runs: `gen-curve`
loads `curve` and what it imports, the commands that read a curve file
add `canring`, `reconstruct`, `hessian` and `spans` add the cone layers
and their own module, and only `verify` loads `acceptance` and with it
all 14.
A process started with PYTHONDONTWRITEBYTECODE=1 compiles every module
it imports from source, so a module a command does not run would cost
it compile time for nothing.  The parser needs `curve.MODELS` and `main`
the exception classes, so `curve`, `errors` and `rng` stay at module
level.  Calls keep the `module.function` form (`cn.reconstruct_quartic`),
so a wrapper set on the module attribute sees them.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING

from . import curve as cv
from .errors import ConfigError, CurveConesError, DegenerateInput
from .rng import Stream, derive_key

if TYPE_CHECKING:
    from . import acceptance as acc
    from . import canring
    from . import cone as cn


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _load_context(path: str) -> canring.CurveContext:
    from . import canring
    return canring.build_context(*cv.load_curve(path))


def _cli_cone(ctx: canring.CurveContext, w_seed: int
              ) -> tuple[Stream, cn.QuarticCone]:
    """The cone of the random net that --w-seed picks, and the stream that
    drew the net."""
    from . import cone as cn
    from . import net as nt
    stream = Stream(derive_key(ctx.curve.seed, f"cli-w|{w_seed}"), "w")
    net_obj = nt.random_net(ctx, stream)
    return stream, cn.reconstruct_quartic(ctx, net_obj, seed=w_seed)


def cmd_gen_curve(args) -> int:
    curve = cv.generate_curve(args.genus, args.prime, args.seed)
    points = cv.sample_points(curve, sum(cv.panel_sizes(args.genus)))
    cv.save_curve(args.out, curve, points)
    print(f"wrote {args.out}: genus {args.genus}, prime {args.prime}, "
          f"{len(points)} points")
    return 0


def cmd_ideal(args) -> int:
    from . import monomials as mono
    ctx = _load_context(args.curve)
    piece = ctx.ideal(args.degree)
    print(f"dim I({args.degree}) = {piece.dim}")
    payload = {
        "genus": ctx.g,
        "prime": ctx.p,
        "degree": args.degree,
        "dim": piece.dim,
        "basis": [mono.form_to_pairs(row, ctx.g, args.degree)
                  for row in piece.basis],
    }
    _write(args.out, json.dumps(payload, sort_keys=True,
                                separators=(",", ":")) + "\n")
    return 0


def cmd_reconstruct(args) -> int:
    from . import cone as cn
    ctx = _load_context(args.curve)
    _, cone_obj = _cli_cone(ctx, args.w_seed)
    payload = cn.cone_to_json(cone_obj, ctx.g)
    _write(args.out, json.dumps(payload, sort_keys=True,
                                separators=(",", ":")) + "\n")
    print(f"reconstructed quartic: {cone_obj.certificate}")
    return 0


def cmd_spans(args) -> int:
    cfg = {"seed": 0, "sample_count": 25, "off_curve": 500}
    if args.config:
        with open(args.config) as fh:
            user = json.load(fh)
        if not isinstance(user, dict):
            raise ConfigError("a spans config must hold a JSON object, got "
                              f"{type(user).__name__}")
        for key, value in user.items():
            if key not in cfg:
                raise ConfigError(f"unknown config field '{key}'")
            if type(value) is not int or value < 0:     # nor a bool
                raise ConfigError(f"config field '{key}' must be a "
                                  f"nonnegative integer")
            cfg[key] = value
    from . import spanlab as sl
    ctx = _load_context(args.curve)
    cones = sl.collect_cones(ctx, cfg["sample_count"], cfg["seed"])
    f4 = sl.accumulate_f4(ctx, cones, cfg["seed"])
    f3 = sl.accumulate_f3(ctx, cones)
    probe = sl.base_locus_probe(ctx, [f4, f3], cfg["off_curve"],
                                seed=cfg["seed"])
    from . import __version__
    payload = {
        "version": __version__,
        "config": cfg,
        "curve": {"genus": ctx.g, "prime": ctx.p, "seed": ctx.curve.seed},
        "f4_rank": f4.rank,
        "f4_trajectory": f4.trajectory,
        "f3_rank": f3.rank,
        "f3_trajectory": f3.trajectory,
        "squares_contained": sl.squares_containment(ctx, f4,
                                                    seed=cfg["seed"]),
        "base_locus": {k: v for k, v in probe.items()},
        "provenance": {"f4": f4.provenance, "f3": f3.provenance},
    }
    _write(args.out, json.dumps(payload, sort_keys=True,
                                separators=(",", ":")) + "\n")
    if args.trajectory:
        _write(args.trajectory, sl.trajectory_csv(f4))
    print(f"f4 rank {f4.rank}, f3 rank {f3.rank}, "
          f"violations {len(probe['violations'])}")
    return 0


def cmd_hessian(args) -> int:
    if args.sweep < 0:
        raise ConfigError(f"--sweep must be at least 0, got {args.sweep}")
    from . import bundle as bd
    ctx = _load_context(args.curve)
    off = args.sweep // 2
    panel = len(ctx.panel)
    if args.sweep - off > panel:
        raise ConfigError(
            f"--sweep must be at most {2 * panel} on this curve: half of the "
            f"rows, rounded up, are fibers over its {panel} panel points; "
            f"got {args.sweep}")
    stream, cone_obj = _cli_cone(ctx, args.w_seed)
    scan = bd.hessian_scan(ctx, cone_obj.net, cone_obj, args.sweep - off,
                           off, stream.spawn("sweep"))
    _write(args.out, bd.scan_rows_to_csv(scan["rows"]))
    print(f"on-image fibers {scan['on_checked']} "
          f"(singular {scan['on_singular']}, "
          f"kernel matches {scan['kernel_matches']}); "
          f"off-image fibers {scan['off_checked']} "
          f"(nonsingular {scan['off_nonsingular']})")
    return 0


def suite_config(quick: bool, seed: int) -> acc.SuiteConfig:
    """The sample sizes of `verify`, or of `verify --quick`."""
    from . import acceptance as acc
    if not quick:
        return acc.SuiteConfig(seed=seed)
    # span samples must still cover the expected saturated rank (16 at
    # genus 5 with 6 of it from quadric squares)
    return acc.SuiteConfig(seed=seed, corank_samples=10, corank_engineered=2,
                           reconstructions=3, oracle_points=10,
                           double_quadrics=2, polar_oracle_points=10,
                           fibers_on=10, fibers_off=10, secant_random=10,
                           secant_engineered=1, span_samples=14,
                           off_curve_probes=60)


def cmd_verify(args) -> int:
    from . import acceptance as acc
    cfg = suite_config(args.quick, args.seed)
    ctx = _load_context(args.curve)
    results = acc.run_full(ctx, cfg, echo=print, ctx_builder=(
        lambda: _load_context(args.curve)) if args.full else None)
    report = acc.report_json(ctx, cfg, results)
    if args.out:
        _write(args.out, report)
    ok = all(r.ok for r in results)
    print("verification " + ("PASSED" if ok else "FAILED"))
    return 0 if ok else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvecones",
        description="Exact finite-field verification of quartic and cubic "
                    "hypersurfaces through canonical curves.",
        epilog="Monomial order: graded, then lexicographic on exponent "
               "tuples with z0 > z1 > ...; coefficients are canonical "
               "residues in [0, p); scalar-ambiguous objects are scaled so "
               "their first nonzero coordinate is 1.")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-curve", help="generate a curve file")
    g.add_argument("--genus", type=int, choices=tuple(cv.MODELS),
                   required=True)
    g.add_argument("--prime", type=int, default=1000003)
    g.add_argument("--seed", type=int, default=1)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen_curve)

    i = sub.add_parser("ideal", help="ideal piece basis and dimension")
    i.add_argument("--curve", required=True)
    i.add_argument("--degree", type=int, choices=(2, 3, 4), required=True)
    i.add_argument("--out", default=None)
    i.set_defaults(func=cmd_ideal)

    r = sub.add_parser("reconstruct", help="reconstruct one quartic cone")
    r.add_argument("--curve", required=True)
    r.add_argument("--w-seed", type=int, default=0)
    r.add_argument("--out", default=None)
    r.set_defaults(func=cmd_reconstruct)

    s = sub.add_parser("spans", help="span dimensions and base-locus probe")
    s.add_argument("--curve", required=True)
    s.add_argument("--config", default=None)
    s.add_argument("--out", default=None)
    s.add_argument("--trajectory", default=None,
                   help="write the rank trajectory CSV here")
    s.set_defaults(func=cmd_spans)

    h = sub.add_parser("hessian", help="Hessian/Steinerian fiber sweep CSV")
    h.add_argument("--curve", required=True)
    h.add_argument("--w-seed", type=int, default=0)
    h.add_argument("--sweep", type=int, default=200, metavar="N",
                   help="N rows: N - N//2 fibers on the image, N//2 off it")
    h.add_argument("--out", default=None)
    h.set_defaults(func=cmd_hessian)

    v = sub.add_parser("verify", help="run the acceptance suite")
    v.add_argument("--curve", required=True)
    v.add_argument("--full", action="store_true",
                   help="include the determinism double-run criterion")
    v.add_argument("--quick", action="store_true",
                   help="reduced sample sizes for a fast smoke run")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--out", default=None)
    v.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except DegenerateInput as exc:
        print(f"degeneracy budget exhausted: {exc}", file=sys.stderr)
        return 4
    except CurveConesError as exc:
        print(f"verification failure ({type(exc).__name__}): {exc}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
