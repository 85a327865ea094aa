"""curvecones benchmark: the command-line flow, end to end and by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the engine is imported from its
`src/` directory.  Each engine command runs in a fresh Python process
through `perfbench/launcher.py`.  Commands go one after another from this
single process (a closed loop with one client), so on a 2-core host one
core runs the engine and the other absorbs this process and the OS.

A unit is a workload's commands on one curve.  A workload runs a fixed
number of units, on curves with seeds derived from --seed, so that every
run of a seed measures the same commands on the same curves, however fast
the host or the code is.  The units are sized so that a run takes about
--seconds (BENCHMARK.json's run_seconds) on a 2-core host; --seconds itself
is recorded, not used to choose the work.  Every output is checked (see
checks.py).  A command fails when it exits non-zero, when an output check
fails, or when its output's sha256 differs from the reference: the digest
stored in digests.json for a workload's default seed, else, in a traced
run, the output of the same command run untraced.

--trace 0 reports the end-to-end metrics: the median wall time of each
command's processes, the set-up time, and the peak RSS.  --trace 1 runs
the first unit untraced and then traced, checks that both wrote identical
outputs, and reports the per-layer metrics of metrics.py.  The last line
of standard output is one JSON object; details go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks    # noqa: E402
import metrics   # noqa: E402
from launcher import calibration  # noqa: E402

LAUNCHER = os.path.join(HERE, "launcher.py")
KERNELS = os.path.join(HERE, "kernels.py")
DIGESTS = os.path.join(HERE, "digests.json")
SETUP_PROBES = 10              # at least this many per untraced run
UNIT_SEED_STRIDE = 100000      # curve seed of unit k: seed + k * stride
SWEEP = 200                    # hessian --sweep, the CLI default
W_SEED = 3                     # reconstruct --w-seed, as in the README
COMMAND_TIMEOUT = 170
# End-to-end times are scaled to a host on which calibration() takes 10 ms
# (see host_scaled); this host's speed drifts by up to 2x within a minute.
CAL_REF = 0.010


@dataclass(frozen=True)
class Workload:
    genus: int
    default_seed: int
    verify: tuple[str, ...]
    units: int            # curves per run
    # verify runs on the first verify_units curves only (default: all)
    verify_units: int | None = None


# Why each workload exists is recorded in NOTES.md.  Every workload runs
# every command, so each reports every end-to-end metric.
WORKLOADS = {
    "g4-suite": Workload(4, 1, ("--full",), units=4, verify_units=1),
    "g4-quick": Workload(4, 1, ("--quick",), units=5),
}


@dataclass
class Proc:
    command: str
    key: str
    wall: float       # process wall time less its calibration loops
    host_s: float     # calibration() time while the command ran
    code: int
    problems: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)

    def host_scaled(self) -> float:
        """Wall time scaled to the reference host speed CAL_REF."""
        return self.wall * CAL_REF / self.host_s


def run_process(args: list[str], out_dir: str, tag: str) -> tuple:
    """Run one process; returns (wall seconds, code, stdout)."""
    out_path = os.path.join(out_dir, f"{tag}.stdout")
    err_path = os.path.join(out_dir, f"{tag}.stderr")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable] + args, stdout=out,
                                stderr=err, cwd=ROOT)
        try:
            code = proc.wait(timeout=COMMAND_TIMEOUT)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return time.perf_counter() - t0, -9, ""
        wall = time.perf_counter() - t0
    with open(out_path) as fh:
        stdout = fh.read()
    return wall, code, stdout


def run_launcher(args: list[str], out_dir: str, tag: str) -> tuple:
    """Run launcher.py; returns (wall less its calibration loops, host_s,
    code, stdout)."""
    host_path = os.path.join(out_dir, f"{tag}.host.json")
    wall, code, stdout = run_process([LAUNCHER, host_path] + args, out_dir,
                                     tag)
    try:
        with open(host_path) as fh:
            cal = json.load(fh)["calibration_s"]
    except (OSError, ValueError, KeyError):
        return wall, float("nan"), code or 1, stdout
    # harmonic mean: the samples are evenly spaced in time, and a duration
    # scales with the inverse of the host speed in each interval
    return wall - sum(cal), statistics.harmonic_mean(cal), code, stdout


def peak_child_rss_mb() -> float:
    """Largest RSS of any child process this process has waited for."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


@dataclass
class Step:
    command: str
    argv: list
    key: str          # path-free description, the digest key
    output: str
    check: object     # stdout -> list of problems


def unit_steps(work: Workload, curve_seed: int, out_dir: str,
               verify: bool = True) -> list[Step]:
    """The commands of one workload on one curve, in order (without
    verify unless `verify`), with the arguments of the README's example
    flow."""
    os.makedirs(out_dir, exist_ok=True)
    g = work.genus
    curve = os.path.join(out_dir, "curve.json")
    report = os.path.join(out_dir, "report.json")
    spans = os.path.join(out_dir, "spans.json")
    sweep = os.path.join(out_dir, "hessian.csv")
    cone = os.path.join(out_dir, "cone.json")
    tag = f"g{g}/{curve_seed}"
    steps = [
        Step("gen-curve", ["--genus", str(g), "--seed", str(curve_seed)],
             f"{tag} gen-curve", curve,
             lambda _: checks.check_curve(curve, g, curve_seed)),
        Step("verify", ["--curve", curve, *work.verify],
             f"{tag} verify {' '.join(work.verify)}", report,
             lambda stdout: checks.check_verify(
                 report, stdout, g, "--full" in work.verify)),
        Step("spans", ["--curve", curve], f"{tag} spans", spans,
             lambda _: checks.check_spans(spans, g)),
        Step("hessian", ["--curve", curve, "--w-seed", "0", "--sweep",
                         str(SWEEP)],
             f"{tag} hessian --sweep {SWEEP} --w-seed 0", sweep,
             lambda _: checks.check_hessian(sweep, SWEEP)),
        Step("reconstruct", ["--curve", curve, "--w-seed", str(W_SEED)],
             f"{tag} reconstruct --w-seed {W_SEED}", cone,
             lambda _: checks.check_reconstruct(cone, g)),
    ]
    if not verify:
        del steps[1]
    for step in steps:
        step.argv = [step.command, *step.argv, "--out", step.output]
    return steps


def run_step(step: Step, out_dir: str, stored: dict,
             trace: str | None = None) -> Proc:
    prefix = (["--trace", trace] if trace else []) + ["--"]
    tag = os.path.splitext(os.path.basename(step.output))[0]
    wall, host_s, code, stdout = run_launcher(prefix + step.argv, out_dir,
                                              tag)
    proc = Proc(step.command, step.key, wall, host_s, code)
    if code != 0:
        proc.problems.append(f"exit code {code}")
        return proc
    try:
        proc.problems += step.check(stdout)
        digest = proc.digests[step.key] = checks.sha256(step.output)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        proc.problems.append(f"unreadable output: {exc!r}")
        return proc
    # the first output of a key in a run is the reference for the rest,
    # unless digests.json already holds one
    if stored.setdefault(step.key, digest) != digest:
        proc.problems.append("output differs from the reference digest")
    return proc


def setup_probe(curve: str, out_dir: str, k: int) -> Proc:
    wall, host_s, code, _ = run_launcher(["--setup", curve], out_dir,
                                         f"setup{k}")
    proc = Proc("setup", "setup", wall, host_s, code)
    if code != 0:
        proc.problems.append(f"exit code {code}")
    return proc


def host_speed() -> float:
    """Median of five calibration() times, for the run's start and end."""
    return statistics.median(calibration() for _ in range(5))


def host_info() -> dict:
    import numpy as np
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "loadavg": list(os.getloadavg())}


def engine_present() -> bool:
    return os.path.isfile(os.path.join(ROOT, "src", "curvecones", "cli.py"))


def load_digests(work: Workload, seed: int) -> dict:
    """Reference digests; stored ones apply to the default seed only."""
    if seed != work.default_seed:
        return {}
    with open(DIGESTS) as fh:
        return json.load(fh)


def run_plan(work: Workload, seed: int, units: int, out_dir: str) -> list:
    """(unit directory, steps) of the first `units` units of a run."""
    verify_units = work.units if work.verify_units is None \
        else work.verify_units
    return [(unit_dir, unit_steps(work, seed + k * UNIT_SEED_STRIDE,
                                  unit_dir, k < verify_units))
            for k in range(units)
            for unit_dir in [os.path.join(out_dir, f"unit{k}")]]


def measure(work: Workload, seed: int, units: int, out_dir: str,
            stored: dict) -> tuple[list, list]:
    """Untraced closed loop over `units` units; returns (command
    processes, set-up probes).

    A set-up probe follows every few commands, at least SETUP_PROBES of
    them spread over the run, so that they see the same host as the
    commands do."""
    plan = run_plan(work, seed, units, out_dir)
    stride = max(1, sum(len(steps) for _, steps in plan) // SETUP_PROBES)
    procs, probes = [], []
    for unit_dir, steps in plan:
        for step in steps:
            proc = run_step(step, unit_dir, stored)
            procs.append(proc)
            if proc.problems and step.command == "gen-curve":
                break
            if len(procs) % stride == 0:
                probes.append(setup_probe(steps[0].output, unit_dir,
                                          len(probes)))
    return procs, probes


def end_to_end(procs: list, probes: list, peak_rss_mb: float,
               scaled: bool = True) -> dict:
    """Median time per command over its processes (host-scaled unless
    `scaled` is false), set-up time and peak RSS."""
    def median_time(group):
        good = [p for p in group if not p.problems] or group
        times = [p.host_scaled() if scaled else p.wall for p in good]
        return statistics.median(times or [float("nan")])

    out = {name: median_time([p for p in procs if p.command == command])
           for command, name in metrics.COMMAND_METRIC.items()}
    out["setup_s"] = median_time(probes)
    out["peak_rss_mb"] = peak_rss_mb
    return out


def traced(work: Workload, seed: int, out_dir: str, stored: dict
           ) -> tuple[list, dict, dict]:
    """First unit untraced, then traced; returns processes, layer metrics
    and the run's trace details."""
    import tracer
    plain_dir = os.path.join(out_dir, "plain")
    traced_dir = os.path.join(out_dir, "traced")
    plain = unit_steps(work, seed, plain_dir)
    traced_steps = unit_steps(work, seed, traced_dir)
    procs = []
    profile = tracer.Profile()
    plain_wall = traced_wall = 0.0
    by_step = []
    for k, (step_a, step_b) in enumerate(zip(plain, traced_steps)):
        a = run_step(step_a, plain_dir, stored)
        span_file = os.path.join(traced_dir, f"spans{k}.npz")
        # same key as the untraced step, so run_step compares the digests
        b = run_step(step_b, traced_dir, stored, trace=span_file)
        procs += [a, b]
        # unscaled: the untraced process samples the host during the run
        # and the traced one does not, so their scaling would differ
        plain_wall += a.wall
        traced_wall += b.wall
        if os.path.isfile(span_file):
            profile.add_file(span_file)
            alone = tracer.Profile()
            alone.add_file(span_file)
            by_step.append({"key": step_b.key, "wall_s": b.wall,
                            "total_s": alone.total_s})
        if (a.problems or b.problems) and step_a.command == "gen-curve":
            break
    kernel = {}
    if os.path.isfile(plain[0].output):
        _, code, stdout = run_process(
            [KERNELS, plain[0].output, str(seed)], out_dir, "kernels")
        if code == 0:
            kernel = json.loads(stdout.strip().splitlines()[-1])
        else:
            procs.append(Proc("kernels", "kernels", 0.0, 1.0, code,
                              [f"exit code {code}"]))
    layer = metrics.layer_values(profile, kernel)
    layer["trace_overhead"] = traced_wall / plain_wall if plain_wall else 0.0
    details = {"untraced_s": plain_wall, "traced_s": traced_wall,
               "calls": profile.calls, "self_s": profile.self_s,
               "total_s": profile.total_s, "raised": profile.raised,
               "counters": profile.counters, "kernels": kernel,
               "by_step": by_step}
    return procs, layer, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=55.0,
                        help="nominal run length; recorded only, since a "
                             "workload's units are fixed")
    parser.add_argument("--units", type=int, default=None,
                        help="run only the first N units, a quick check "
                             "whose figures are not comparable")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not engine_present():
        print(f"no engine source at {os.path.join(ROOT, 'src')}; run from "
              f"the root of a curvecones checkout", file=sys.stderr)
        return 2
    work = WORKLOADS[args.workload]
    seed = work.default_seed if args.seed is None else args.seed
    out_dir = os.path.join(HERE, "out",
                           f"{args.workload}-{seed}-t{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    stored = load_digests(work, seed)
    host = host_info()
    cal_start = host_speed()

    if args.trace:
        procs, values, details = traced(work, seed, out_dir, stored)
        probes = []
        units = metrics.PER_LAYER
    else:
        n_units = work.units if args.units is None else args.units
        procs, probes = measure(work, seed, n_units, out_dir, stored)
        rss = peak_child_rss_mb()
        values = end_to_end(procs, probes, rss)
        details = {"unscaled": end_to_end(procs, probes, rss, scaled=False)}
        units = metrics.END_TO_END
    cal_end = host_speed()
    if args.trace:
        values["host.calibration_s"] = statistics.mean([cal_start, cal_end])

    every = procs + probes
    failed = [p for p in every if p.problems]
    digests = {}
    for p in procs:
        digests.update(p.digests)
    record = {
        "workload": args.workload, "seed": seed, "trace": args.trace,
        "seconds": args.seconds, "host": host, "calibration_s": [cal_start, cal_end],
        "processes": [{"command": p.command, "key": p.key, "wall_s": p.wall,
                       "host_s": p.host_s, "code": p.code,
                       "problems": p.problems} for p in every],
        "digests": digests, "metrics": values, **details,
    }
    with open(os.path.join(out_dir, "result.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(f"workload {args.workload} seed {seed} trace {args.trace}: "
          f"python {host['python']}, numpy {host['numpy']}, "
          f"nproc {host['nproc']}, loadavg {host['loadavg']}, calibration "
          f"{cal_start:.4f}s -> {cal_end:.4f}s")
    for p in failed:
        print(f"FAILED {p.key}: {'; '.join(p.problems)}")
    for name, unit in units.items():
        print(f"{name} {values[name]:.6g} {unit}")
    for name, value in details.get("unscaled", {}).items():
        if units[name] == "s":
            print(f"{name} {value:.6g} s unscaled")
    print(f"fail_share {len(failed) / max(1, len(every)):.6g} "
          f"({len(failed)} of {len(every)})")
    result = {
        "correct": not failed,
        "attempted": len(every),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
