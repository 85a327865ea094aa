"""Command-line driver for reproducible runs.

Subcommands: gen-curve, ideal, reconstruct, spans, hessian, verify.  All
randomness flows from the seed recorded in the curve file, so identical
invocations produce byte-identical artifacts.  Coefficient arrays are
serialized as [exponent-tuple, value] pairs in the graded-lexicographic
monomial order with z0 > z1 > ... (canonical residues in [0, p)); see the
README for the full conventions.

Exit codes: 0 success, 2 configuration error, 3 mathematical verification
failure (a failed criterion or certificate, never resampled), 4 resample
budget exhausted (a DegenerateInput).  Exit 2 is a usage error of the
parser, a `ConfigError` or an `OSError`; any other exception, such as an
engine `ValueError`, is a fault of the program and is not caught.

Input is checked where it enters, and each check has one place.  Every
output path (`--out`, `--trajectory`) is checked by the parser
(`_out_path`), so a directory or a missing parent directory exits 2
before any curve is read or generated.  A JSON input is read by
`curve.read_json`, count fields are checked by `errors.check_counts`,
the suite's sample sizes are `acceptance.PRESETS`, and every JSON output
but the verify report is encoded by `_write_json`.

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
import os
import sys
from typing import TYPE_CHECKING

from . import curve as cv
from .errors import (ConfigError, CurveConesError, DegenerateInput,
                     check_counts)
from .rng import Stream, derive_key

if TYPE_CHECKING:
    from . import canring
    from . import cone as cn


def _out_path(path: str) -> str:
    """The parser's type for an output path: a directory (the empty path
    names the current one), or a path whose parent directory does not
    exist, is a usage error naming the path."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path or "."):
        fault = "it is a directory"
    elif not os.path.isdir(parent):
        fault = f"{parent} is not a directory"
    else:
        return path
    raise argparse.ArgumentTypeError(f"cannot write {path!r}: {fault}")


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _write_json(path: str | None, payload: dict) -> None:
    """The canonical JSON of `ideal`, `reconstruct` and `spans`: sorted
    keys, no spaces, one closing newline."""
    _write(path, json.dumps(payload, sort_keys=True,
                            separators=(",", ":")) + "\n")


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
    _write_json(args.out, {
        "genus": ctx.g,
        "prime": ctx.p,
        "degree": args.degree,
        "dim": piece.dim,
        "basis": [mono.form_to_pairs(row, ctx.g, args.degree)
                  for row in piece.basis],
    })
    return 0


def cmd_reconstruct(args) -> int:
    from . import cone as cn
    ctx = _load_context(args.curve)
    _, cone_obj = _cli_cone(ctx, args.w_seed)
    _write_json(args.out, cn.cone_to_json(cone_obj, ctx.g))
    print(f"reconstructed quartic: {cone_obj.certificate}")
    return 0


def cmd_spans(args) -> int:
    cfg = {"seed": 0, "sample_count": 25, "off_curve": 500}
    if args.config:
        user = cv.read_json(args.config, "spans config")
        unknown = [key for key in user if key not in cfg]
        if unknown:
            raise ConfigError(f"unknown config field '{unknown[0]}'")
        check_counts(user)
        cfg.update(user)
    from . import spanlab as sl
    ctx = _load_context(args.curve)
    cones = sl.collect_cones(ctx, cfg["sample_count"], cfg["seed"])
    f4 = sl.accumulate_f4(ctx, cones, cfg["seed"])
    f3 = sl.accumulate_f3(ctx, cones)
    probe = sl.base_locus_probe(ctx, [f4, f3], cfg["off_curve"],
                                seed=cfg["seed"])
    from . import __version__
    _write_json(args.out, {
        "version": __version__,
        "config": cfg,
        "curve": {"genus": ctx.g, "prime": ctx.p, "seed": ctx.curve.seed},
        "f4_rank": f4.rank,
        "f4_trajectory": f4.trajectory,
        "f3_rank": f3.rank,
        "f3_trajectory": f3.trajectory,
        "squares_contained": sl.squares_containment(ctx, f4),
        "base_locus": probe,
        "provenance": {"f4": f4.provenance, "f3": f3.provenance},
    })
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


def cmd_verify(args) -> int:
    from . import acceptance as acc
    cfg = acc.preset("quick" if args.quick else "full", args.seed)
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
    g.add_argument("--out", type=_out_path, required=True)
    g.set_defaults(func=cmd_gen_curve)

    i = sub.add_parser("ideal", help="ideal piece basis and dimension")
    i.add_argument("--curve", required=True)
    i.add_argument("--degree", type=int, choices=(2, 3, 4), required=True)
    i.add_argument("--out", type=_out_path, default=None)
    i.set_defaults(func=cmd_ideal)

    r = sub.add_parser("reconstruct", help="reconstruct one quartic cone")
    r.add_argument("--curve", required=True)
    r.add_argument("--w-seed", type=int, default=0)
    r.add_argument("--out", type=_out_path, default=None)
    r.set_defaults(func=cmd_reconstruct)

    s = sub.add_parser("spans", help="span dimensions and base-locus probe")
    s.add_argument("--curve", required=True)
    s.add_argument("--config", default=None)
    s.add_argument("--out", type=_out_path, default=None)
    s.add_argument("--trajectory", type=_out_path, default=None,
                   help="write the rank trajectory CSV here")
    s.set_defaults(func=cmd_spans)

    h = sub.add_parser("hessian", help="Hessian/Steinerian fiber sweep CSV")
    h.add_argument("--curve", required=True)
    h.add_argument("--w-seed", type=int, default=0)
    h.add_argument("--sweep", type=int, default=200, metavar="N",
                   help="N rows: N - N//2 fibers on the image, N//2 off it")
    h.add_argument("--out", type=_out_path, default=None)
    h.set_defaults(func=cmd_hessian)

    v = sub.add_parser("verify", help="run the acceptance suite")
    v.add_argument("--curve", required=True)
    v.add_argument("--full", action="store_true",
                   help="include the determinism double-run criterion")
    v.add_argument("--quick", action="store_true",
                   help="reduced sample sizes for a fast smoke run")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--out", type=_out_path, default=None)
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
    except (ConfigError, OSError) as exc:
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
