"""Run one engine command in this fresh process.

    python3 perfbench/launcher.py HOST.json [--trace SPANS.npz] -- <cli args>
    python3 perfbench/launcher.py HOST.json --setup CURVE.json

The first form calls `curvecones.cli.main(argv)` and exits with its code.
With `--trace`, timing wrappers are installed on the engine's modules
before `main` runs and the spans are written to SPANS.npz at the end.

The second form is the set-up probe: import `curvecones.cli`, load the
curve file and build its context, then exit.  The engine is imported from
the `src/` directory next to this benchmark, never from site-packages.

Both forms time `calibration()` just before and just after the engine
work, and every TICK_S seconds while it runs (untraced only), on the same
core and in the same process, and write the times to HOST.json: the speed
of the host while the command ran.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TICK_S = 0.1            # host-speed sampling interval during a command


def calibration() -> float:
    """Seconds for a fixed pure-Python plus numpy loop (about 10 ms).

    The Python part multiplies two dense polynomials modulo a prime with
    lists, as the engine's own polynomial code does: a host that slows the
    engine slows it alike.  (A loop over bare integer arithmetic slowed
    only about 0.7 times as much, in logarithm, as the engine's commands
    did, and so corrected their times too little.)"""
    t0 = time.perf_counter()
    p = 1000003
    a = [(i * 31337) % p for i in range(64)]
    for _ in range(24):
        b = [0] * 127
        for i, x in enumerate(a):
            for j, y in enumerate(a):
                b[i + j] = (b[i + j] + x * y) % p
        a = b[:64]
    m = np.arange(64 * 64, dtype=np.int64).reshape(64, 64) % p
    m = m @ m % p
    return time.perf_counter() - t0


def import_cli():
    """`curvecones.cli`, imported from this checkout's `src/`."""
    sys.path.insert(0, SRC)
    from curvecones import cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"curvecones imported from {cli.__file__}, "
                          f"not from {SRC}")
    return cli


def run(argv: list[str]) -> int:
    if argv[:1] == ["--setup"]:
        import_cli()
        from curvecones import canring, curve as cv
        canring.build_context(*cv.load_curve(argv[1]))
        return 0
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    if trace_path is None:
        return import_cli().main(argv)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import tracer
    cli = import_cli()
    rec = tracer.Recorder()
    tracer.install(rec)
    try:
        return cli.main(argv)
    finally:
        rec.save(trace_path)


def main(argv: list[str]) -> int:
    host_path, argv = argv[0], argv[1:]
    samples = [calibration()]
    if "--trace" not in argv[:1]:
        # also sample the host while a long command runs; the handler runs
        # between bytecodes of this thread and touches no engine state
        signal.signal(signal.SIGALRM,
                      lambda signum, frame: samples.append(calibration()))
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
    try:
        return run(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        samples.append(calibration())
        with open(host_path, "w") as fh:
            json.dump({"calibration_s": samples}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
