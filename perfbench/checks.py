"""Checks on every output the benchmark's commands write.

Each check returns a list of problems; an empty list means the output holds
the constants the paper states independently of the engine.  The checks
read only the files the command wrote and its standard output.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from math import comb

IDEAL_DIMS = {4: {2: 1, 3: 5, 4: 14}, 5: {2: 3, 3: 15, 4: 42}}
NODE_COUNTS = {4: 6, 5: 16}
F4_RANKS = {4: 5, 5: 16}


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def points_expected(genus: int) -> int:
    """Points gen-curve samples: six times the degree-4 monomial count."""
    return 6 * comb(genus + 3, 4)


def check_curve(path: str, genus: int, seed: int) -> list[str]:
    with open(path) as fh:
        data = json.load(fh)
    problems = []
    if (data["genus"], data["seed"]) != (genus, seed):
        problems.append(f"curve file is genus {data['genus']} seed "
                        f"{data['seed']}, asked for {genus}/{seed}")
    pts = [tuple(q) for q in data["points"]]
    if len(pts) != points_expected(genus) or len(set(pts)) != len(pts):
        problems.append(f"{len(pts)} points ({len(set(pts))} distinct), "
                        f"expected {points_expected(genus)}")
    degrees = sorted(sum(pairs[0][0]) for pairs in data["generators"])
    if degrees != ([2, 3] if genus == 4 else [2, 2, 2]):
        problems.append(f"generator degrees {degrees}")
    return problems


def check_verify(path: str, stdout: str, genus: int, full: bool
                 ) -> list[str]:
    with open(path) as fh:
        report = json.load(fh)
    crit = {c["number"]: c for c in report["criteria"]}
    problems = []
    if not report["ok"] or not stdout.rstrip().endswith(
            "verification PASSED"):
        failed = [n for n, c in crit.items() if not c["ok"]]
        problems.append(f"verify did not pass (criteria {failed} failed)")
    if sorted(crit) != list(range(1, 14 if full else 13)):
        problems.append(f"criteria present: {sorted(crit)}")
        return problems
    dims = {n: crit[1]["details"][f"dim_I{n}"] for n in (2, 3, 4)}
    if dims != IDEAL_DIMS[genus]:
        problems.append(f"ideal dimensions {dims}")
    if crit[3]["details"]["degree"] != 2 * genus - 2:
        problems.append(f"plane image degree {crit[3]['details']['degree']}")
    if crit[9]["details"]["nodes"] != NODE_COUNTS[genus]:
        problems.append(f"node count {crit[9]['details']['nodes']}")
    if crit[11]["details"]["f4_rank"] != F4_RANKS[genus]:
        problems.append(f"f4 rank {crit[11]['details']['f4_rank']}")
    if full and crit[13]["details"]["identical"] is not True:
        problems.append("criterion 13: the two runs differ")
    return problems


def check_spans(path: str, genus: int) -> list[str]:
    with open(path) as fh:
        out = json.load(fh)
    problems = []
    if out["f4_rank"] != F4_RANKS[genus]:
        problems.append(f"f4 rank {out['f4_rank']}")
    if not out["base_locus"]["curve_points_contained"]:
        problems.append("curve points not in the base locus")
    if out["base_locus"]["violations"]:
        problems.append(f"{len(out['base_locus']['violations'])} "
                        f"base-locus violations")
    if out["squares_contained"] is not True:
        problems.append("squares of quadrics not contained")
    return problems


def check_hessian(path: str, sweep: int) -> list[str]:
    with open(path) as fh:
        rows = list(csv.DictReader(io.StringIO(fh.read())))
    on = [r for r in rows if r["kernel_match"] != ""]
    off = [r for r in rows if r["kernel_match"] == ""]
    half = max(1, sweep // 2)
    problems = []
    if len(on) != half or len(off) != half:
        problems.append(f"{len(on)} on-image and {len(off)} off-image "
                        f"fibers, expected {half} each")
    bad_on = [r for r in on if (r["gamma_u"], r["det_gram"],
                                r["kernel_match"]) != ("0", "0", "1")]
    bad_off = [r for r in off if r["gamma_u"] == "0" or r["det_gram"] == "0"]
    if bad_on:
        problems.append(f"{len(bad_on)} on-image fibers not singular with "
                        f"the curve point as kernel")
    if bad_off:
        problems.append(f"{len(bad_off)} off-image fibers singular")
    return problems


def check_reconstruct(path: str, genus: int) -> list[str]:
    with open(path) as fh:
        cert = json.load(fh)["certificate"]
    problems = []
    if cert["oracle_disagreements"] != 0:
        problems.append(f"{cert['oracle_disagreements']} oracle "
                        f"disagreements")
    if not (cert["contains_curve"] and cert["vertex_singular"]
            and cert["holdout_pencil"]):
        problems.append(f"certificate {cert}")
    if cert["points_vanished"] != points_expected(genus):
        problems.append(f"vanishes on {cert['points_vanished']} points")
    return problems
