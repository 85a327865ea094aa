import collections
import contextlib
import io
import sys
from typing import NamedTuple

import pytest

from curvecones import acceptance as acc, algebra as alg, canring
from curvecones import cone as cn, curve as cv, monomials as mono
from curvecones import net as nt, pencil as pc
from curvecones.cli import main

PRIME = 1000003


@pytest.fixture(scope="session")
def ctx4():
    curve = cv.generate_curve(4, PRIME, 1)
    return canring.build_context(curve)


@pytest.fixture(scope="session")
def ctx5():
    curve = cv.generate_curve(5, PRIME, 7)
    return canring.build_context(curve)


@pytest.fixture(scope="session")
def ctx4_max():
    """A genus-4 context at the largest allowed prime, for the int64
    budget."""
    return canring.build_context(cv.generate_curve(4, 33554393, 1))


@pytest.fixture(scope="session")
def ctx5_max():
    """The genus-5 context of seed 7 at the largest allowed prime."""
    return canring.build_context(cv.generate_curve(5, 33554393, 7))


# the engine functions whose calls `work_log` records, each with the size
# of a call from its arguments and its result
COUNTED = (
    (alg._Moduli, "__init__", lambda a, out: max(len(f) for f in a[1]) - 1),
    (alg._Moduli, "power_of_x", lambda a, out: None),
    (alg._Moduli, "power", lambda a, out: None),
    (alg._Moduli, "split", lambda a, out: None),
    (alg, "_small_roots", lambda a, out: len(a[0]) - 1),
    (alg, "rank", lambda a, out: a[0].shape),
    (alg, "rref_batch", lambda a, out: a[0].shape),
    (cv, "line_zeros", lambda a, out: len(a[3])),
    (pc, "cup_grams", lambda a, out: len(a[2])),
    (cn, "_verify", lambda a, out: a[3]),
    (cn, "_kernels", lambda a, out: [int(n) for n, _ in out]),
    (nt, "oracle_batch", lambda a, out: len(a[2])),
    (cn, "_family_roots", lambda a, out: len(out)),
    (cn, "_family_candidates", lambda a, out: len(out)),
    (cn, "contained_secants", lambda a, out: len(a[2])),
)


class Call(NamedTuple):
    stage: tuple        # the criteria running, outermost first
    caller: str         # the name of the calling function
    size: object


class WorkLog:
    """The calls of one counted `gen-curve` and `verify --full --out` per
    genus, keyed by genus, command and engine function name."""

    def __init__(self, tmp):
        self.tmp = tmp
        self.log = collections.defaultdict(list)

    def calls(self, genus, command, name, stage=None):
        """The calls in order, those made while exactly `stage` ran if it
        is given."""
        return [c for c in self.log[genus, command, name]
                if stage is None or c.stage == stage]

    def sizes(self, genus, command, name, stage=None):
        return [c.size for c in self.calls(genus, command, name, stage)]

    def report(self, genus):
        """The path of the report `verify --full --out` wrote."""
        return self.tmp / f"full{genus}.json"


@pytest.fixture(scope="session")
def work_log(tmp_path_factory):
    """`gen-curve` then `verify --full --out` through `cli.main` at genus-4
    seed 1 and genus-5 seed 7, with every counter of `COUNTED` and each
    `acceptance.criterion_*` as a stage (numbered in definition order,
    which `run_criteria` follows).  Each command starts without the
    process-wide caches of inverse evaluation matrices, whose hits would
    otherwise drop `inverse` passes that a fresh process makes, by
    whichever tests ran first.  `setattr` raises on a missing name, and
    the patches are undone before the log is handed out."""
    log = WorkLog(tmp_path_factory.mktemp("work"))
    stage = []
    running = []                        # genus and command of the run

    def staged(number, real):
        def run(*args, **kwargs):
            stage.append(number)
            try:
                result = real(*args, **kwargs)
            finally:
                stage.pop()
            assert result.number == number
            return result
        return run

    def counted(name, real, size):
        def run(*args, **kwargs):
            out = real(*args, **kwargs)
            log.log[(*running, name)].append(Call(
                tuple(stage), sys._getframe(1).f_code.co_name,
                size(args, out)))
            return out
        return run

    criteria = [n for n in vars(acc) if n.startswith("criterion_")]
    with pytest.MonkeyPatch.context() as mp:
        for number, name in enumerate(criteria, 1):
            mp.setattr(acc, name, staged(number, getattr(acc, name)))
        for owner, name, size in COUNTED:
            mp.setattr(owner, name, counted(name, getattr(owner, name), size))
        for genus, seed in ((4, 1), (5, 7)):
            curve = str(log.tmp / f"c{genus}.json")
            for argv in (["gen-curve", "--genus", str(genus), "--seed",
                          str(seed), "--out", curve],
                         ["verify", "--curve", curve, "--full", "--out",
                          str(log.report(genus))]):
                running[:] = genus, argv[0]
                alg._vandermonde_inverse.cache_clear()
                mono._interpolation_nodes.cache_clear()
                with contextlib.redirect_stdout(io.StringIO()):
                    assert main(argv) == 0
    return log
