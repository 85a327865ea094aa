"""The work of one `gen-curve` and one `verify --full` per genus, counted
by the `work_log` fixture (conftest.py): root-finder passes, root-kernel
degrees, zero-harvest lines, corank-law and double-secant rounds, and
`alg.rank` inputs.  A count that rises fails here, and a renamed engine
function fails the fixture."""

import collections

import pytest

from conftest import COUNTED
from curvecones import acceptance as acc


@pytest.mark.parametrize("genus, command, chains, closed", [
    (4, "verify", (58, 26, 184), {2: 299, 1: 379, 0: 277}),
    (5, "gen-curve", (1377, 198, 1850), {2: 2738, 1: 719, 0: 66})])
def test_root_finder_passes(work_log, genus, command, chains, closed):
    """First chains (x^((p-1)/2) of a stack), shift chains (a
    Cantor-Zassenhaus round, degree 3 and up only) and gcd passes (every
    `_Moduli.split`), and the polynomials and factors finished in closed
    form, by degree."""
    assert tuple(len(work_log.calls(genus, command, name))
                 for name in ("power_of_x", "power", "split")) == chains
    assert collections.Counter(
        work_log.sizes(genus, command, "_small_roots")) == closed


@pytest.mark.parametrize("genus, kernels", [
    (4, {((10,), 21): 3, ((13, 10), 21): 2, ((9,), 30): 1, ((13, 9), 30): 2}),
    (5, {((9,), 32): 1, ((13, 9), 32): 2, ((9,), 56): 1, ((13, 9), 56): 2})])
def test_largest_root_kernels(work_log, genus, kernels):
    """Every `_Moduli` of degree 20 or more, by the criteria running: the
    degrees D behind the int64 budget (D < 2**13) and the D**3 table of the
    algebra docstring.  `gen-curve` builds none."""
    for command, want in (("gen-curve", {}), ("verify", kernels)):
        assert collections.Counter(
            (c.stage, c.size) for c in work_log.calls(genus, command,
                                                      "__init__")
            if c.size >= 20) == want


@pytest.mark.parametrize("genus, reconstruction, polars", [
    (4, (4, 276), (6, 280)), (5, (5, 288), (3, 521))])
def test_harvest_and_corank_law_rounds(work_log, genus, reconstruction,
                                       polars):
    """The `line_zeros` calls of criteria 5 and 7 and the lines they
    search, and the nets of each evaluation round of criterion 4, at the
    full sizes.  A harvest round asks for as many lines as zeros are
    missing, so it reads lines ahead: at genus 4 one line a round makes 32
    and 35 calls over 263 and 270 lines."""
    for number, want in ((5, reconstruction), (7, polars)):
        lines = work_log.sizes(genus, "verify", "line_zeros", (number,))
        assert (len(lines), sum(lines)) == want
    assert work_log.sizes(genus, "verify", "cup_grams", (4,)) == [50, 5]


@pytest.mark.parametrize("genus, roots, kept, rounds", [
    (4, 17, 5, [4, 1]), (5, 10, 6, [5])])
def test_double_secant_rounds(work_log, genus, roots, kept, rounds):
    """The family roots of criterion 10's double-secant search at the full
    size, the roots its second-point test keeps, and the nets of each
    `contained_secants` round: the vertex secants' one round of 5, then
    the search's."""
    def sizes(name):
        return work_log.sizes(genus, "verify", name, (10,))

    assert sum(sizes("_family_roots")) == roots
    assert sum(sizes("_family_candidates")) == kept
    assert sizes("contained_secants") == [5] + rounds


@pytest.mark.parametrize("genus, gen_curve, calls, largest", [
    (4, {("_build_symbolic", (4, 4)): 1}, 30, (4, 20)),
    (5, {("hyperplane_section", (4, 4)): 468,
         ("_independent_quadrics", (3, 15)): 1}, 59, (15, 35))])
def test_rank_inputs(work_log, genus, gen_curve, calls, largest):
    """The `alg.rank` calls of each command: `gen-curve`'s by caller and
    shape; `verify --full`'s count and its largest matrix, the Petri check
    of criterion 2, in the full run and in each reduced run of criterion
    13.  Each genus-4 curve builds its own ruling chart, one
    `_build_symbolic` call: `verify --full` builds three, in criterion 10
    and in each reduced run of criterion 13."""
    assert collections.Counter(
        (c.caller, c.size) for c in work_log.calls(genus, "gen-curve", "rank")
    ) == gen_curve
    ranks = work_log.calls(genus, "verify", "rank")
    assert len(ranks) == calls
    area = max(rows * cols for rows, cols in (c.size for c in ranks))
    assert collections.Counter(
        (c.stage, c.caller, c.size) for c in ranks
        if c.size[0] * c.size[1] == area) \
        == {((2,), "petri_check", largest): 1,
            ((13, 2), "petri_check", largest): 2}


def test_counters_are_taken_off(work_log):
    wrapped = [getattr(owner, name) for owner, name, _ in COUNTED] \
        + [f for name, f in vars(acc).items() if name.startswith("criterion_")]
    assert not [f for f in wrapped if "<locals>" in f.__qualname__]
