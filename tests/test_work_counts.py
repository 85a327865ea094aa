"""The work of one `gen-curve` and one `verify --full` per genus, counted
by the `work_log` fixture (conftest.py): root-finder passes, root-kernel
degrees, zero-harvest lines, cone certificates and their splitting
systems, corank-law and double-secant rounds, `alg.rank` inputs and row
reductions.  A count that rises fails here, and a renamed engine function
fails the fixture."""

import collections

import pytest

from conftest import COUNTED
from curvecones import acceptance as acc


@pytest.mark.parametrize("genus, command, chains, closed", [
    (4, "verify", (58, 26, 114), {2: 291, 1: 401, 0: 246}),
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
    (4, {((10,), 27): 3, ((13, 10), 27): 2}), (5, {})])
def test_largest_root_kernels(work_log, genus, kernels):
    """Every `_Moduli` of degree 20 or more, by the criteria running: the
    degrees D behind the int64 budget (D < 2**13) and the D**3 table of the
    algebra docstring.  At genus 4 they are the degree-27 resultants of
    `cone.bitangent_pair`, one a draw: three in criterion 10 and one in
    each reduced run of criterion 13.  `gen-curve` builds none."""
    for command, want in (("gen-curve", {}), ("verify", kernels)):
        assert collections.Counter(
            (c.stage, c.size) for c in work_log.calls(genus, command,
                                                      "__init__")
            if c.size >= 20) == want


@pytest.mark.parametrize("genus, reconstruction, polars", [
    (4, (8, 301), (6, 280)), (5, (42, 356), (3, 521))])
def test_harvest_and_corank_law_rounds(work_log, genus, reconstruction,
                                       polars):
    """The `line_zeros` calls of cone collection and of criterion 7 and the
    lines they search, and the nets of each evaluation round of criterion
    4, at the full sizes.  Cone collection runs before the criteria that
    read its cones: it harvests the zeros of the oracle probes of each
    reconstruction's certificate, and those of the quadric squares'
    degenerate nets.  A harvest round asks for as many lines as zeros are
    missing, so it reads lines ahead: at genus 4 one line a round makes 35
    calls over 270 lines in criterion 7."""
    for stage, want in (((), reconstruction), ((7,), polars)):
        lines = work_log.sizes(genus, "verify", "line_zeros", stage)
        assert (len(lines), sum(lines)) == want
    assert work_log.sizes(genus, "verify", "cup_grams", (4,)) == [50, 5]


@pytest.mark.parametrize("genus", [4, 5])
def test_cones_are_certified_once(work_log, genus):
    """The cone certificates (`cone._verify` chains) by the criteria
    running and by oracle probes per cone: cone collection certifies the
    `reconstructions` cones at `oracle_points` and the cones that top the
    span up at 4, each once, and criterion 5 only reads those
    certificates, with no oracle, harvest or certificate of its own, in
    the full run and in the reduced runs of criterion 13."""
    assert collections.Counter(
        (c.stage, c.size)
        for c in work_log.calls(genus, "verify", "_verify")) == {
            ((), 50): 10, ((), 4): 15, ((10,), 4): 10, ((13,), 6): 4,
            ((13,), 4): 24, ((13, 10), 4): 4}
    for _, name, _ in COUNTED:
        for stage in ((5,), (13, 5)):
            assert not work_log.calls(genus, "verify", name, stage), name


@pytest.mark.parametrize("genus, systems", [(4, 67), (5, 67)])
def test_splitting_systems_have_nullity_one(work_log, genus, systems):
    """Every splitting system that `cone._kernels` solves leaves a
    one-dimensional solution space: one system per reconstruction, 67 in
    all, one for each cone certificate of `test_cones_are_certified_once`,
    and no net fails its system."""
    nullities = [n for round_ in work_log.sizes(genus, "verify", "_kernels")
                 for n in round_]
    assert nullities == [1] * systems


@pytest.mark.parametrize("genus, rows", [(4, 18), (5, 36)])
def test_splitting_systems_have_quadric_rows_only(work_log, genus, rows):
    """Each splitting system that `cone._kernels` reduces has count(g - 2,
    2) rows for each of its 6 fibers, the coefficients of y0^2 m in the
    fiber's adapted coordinates (3 a fiber at genus 4, 6 at genus 5), and
    a column per constrained-space form and per fiber; its stacks hold the
    67 systems of `test_splitting_systems_have_nullity_one`."""
    shapes = [c.size for c in work_log.calls(genus, "verify", "rref_batch")
              if c.caller == "_kernels"]
    assert {n_rows for _, n_rows, _ in shapes} == {rows}
    assert sum(n for n, _, _ in shapes) == 67


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
    (4, {("_build_symbolic", (4, 4)): 1}, 33, (108, 91)),
    (5, {("hyperplane_section", (4, 4)): 468,
         ("_independent_quadrics", (3, 15)): 1}, 62, (198, 171))],
    ids=["4", "5"])
def test_rank_inputs(work_log, genus, gen_curve, calls, largest):
    """The `alg.rank` calls of each command: `gen-curve`'s by caller and
    shape; `verify --full`'s count and its largest matrix, the multiples
    of the partials of the plane image at the last degree criterion 9
    reads (`bundle.node_count`: 12 at genus 4, 17 at genus 5), in the
    full run and in each reduced run of criterion 13.  Each genus-4 curve
    builds its own ruling chart, one `_build_symbolic` call: `verify
    --full` builds three, in criterion 10 and in each reduced run of
    criterion 13."""
    assert collections.Counter(
        (c.caller, c.size) for c in work_log.calls(genus, "gen-curve", "rank")
    ) == gen_curve
    ranks = work_log.calls(genus, "verify", "rank")
    assert len(ranks) == calls
    area = max(rows * cols for rows, cols in (c.size for c in ranks))
    assert collections.Counter(
        (c.stage, c.caller, c.size) for c in ranks
        if c.size[0] * c.size[1] == area) \
        == {((9,), "hilbert", largest): 1, ((13, 9), "hilbert", largest): 2}


@pytest.mark.parametrize("genus, gen_curve, verify", [
    (4, {"one": 7, "more": 9}, {"one": 366, "more": 440}),
    (5, {"one": 2790, "more": 1}, {"one": 444, "more": 492})])
def test_row_reductions(work_log, genus, gen_curve, verify):
    """The `rref_batch` passes of each command, on one matrix or on a
    stack of more.  `rref`, `rank`, `kernel_basis` and `inverse` are
    passes on one matrix; genus-5 `gen-curve` makes most of its passes
    there, in `hyperplane_section` and the gcds of its root finds."""
    for command, want in (("gen-curve", gen_curve), ("verify", verify)):
        assert collections.Counter(
            "one" if n == 1 else "more"
            for n, *_ in work_log.sizes(genus, command, "rref_batch")) \
            == want


def test_counters_are_taken_off(work_log):
    wrapped = [getattr(owner, name) for owner, name, _ in COUNTED] \
        + [f for name, f in vars(acc).items() if name.startswith("criterion_")]
    assert not [f for f in wrapped if "<locals>" in f.__qualname__]
