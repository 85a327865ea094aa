"""Exception hierarchy shared by all modules, and the one recovery policy.

Only degenerate inputs are recoverable.  A `DegenerateInput` says that a
random draw (a net, a pencil, a probe point, a frame, a slice, a candidate
curve) was not generic enough to use; the caller draws again.  Every
retry that catches such an error goes through `Draws`, which catches
`DegenerateInput` and nothing else.  All other errors are either
configuration problems or certificate failures (`VerificationFailed`,
`SplittingViolation`, `InconsistentSystem`, ...): they are never
resampled and propagate to the command line, which exits 3 for them and
4 when a resample budget runs out.

A loop that collects N usable draws calls `Draws(label, attempts,
draw).take(N)`, with a draw that returns its item or None; asked for no
items, it makes no draw.  A loop that wants the first usable draw calls
`resample`, which is `take(1)` raising the exhaustion.  A loop whose
draws are evaluated as one batch takes them through `Draws.rounds`,
which walks the batch's results through `unwrap`: a result that is a
`DegenerateInput` (or None) skips its draw, any other exception is
raised when the walk reaches it.  `Draws.chain` is that walk
as a chain, which `lockstep` runs side by side with the chains of other
elements, answering the requests of a round with one batched call each.

A round asks for as many draws as results are still missing.  When a
draw gives at most one result, such a round makes exactly the draws of
the loop that evaluates each draw as it comes.  A line of a zero harvest
(`curve.ZeroHarvest`) gives up to deg points, so a harvest round of as
many lines as points are missing may draw lines that loop has not drawn
yet.  It still hands out that loop's points in that loop's order, and
it reads ahead only on a stream that it owns: no other code draws from
a harvest's stream.

One retry loop stays outside `Draws`: `spanlab.collect_cones` walks its
rounds itself, as its budget counts failures only, over all its cones,
and the stream key of each draw names the failures so far, so a round
stops at its first failure.  A genus-5 slice is no retry loop:
`curve.hyperplane_section` tries one chart, and a chart that does not
eliminate cleanly gives the slice no points.

A stacked kernel tests all elements of a batch at once and gives each
failing element the exception of the first test it fails: `outcomes`
walks its failure masks through a table of (class, message) pairs, one
per test, in the order the kernel tests them (`pencil.build_pencil`,
`net.oracle_batch`, `fibers.split_fibers`, `bundle.fiber_quadric`).

Bad input raises a `ConfigError`, which no retry loop catches;
`check_counts` is the one check of a config's count fields.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TypeVar

T = TypeVar("T")


class CurveConesError(Exception):
    """Base class for all package errors."""


class ConfigError(CurveConesError, ValueError):
    """Invalid input: a configuration value, a prime or a file; the message
    names the offending field or path.  The command line reports it, and
    an OSError, as a configuration error (exit 2); no other exception is
    one.  It is also a ValueError, so a library caller that catches
    ValueError for bad input still does."""


def check_counts(fields: dict) -> None:
    """ConfigError naming the first field whose value is not a nonnegative
    int: the one count check of the suite config and the spans config.  A
    bool is no count, although Python's bool is an int."""
    for name, value in fields.items():
        if type(value) is not int or value < 0:
            raise ConfigError(f"config field '{name}' must be a "
                              f"nonnegative integer, got {value!r}")


class InconsistentSystem(CurveConesError):
    """Linear system M x = rhs has no solution."""


class SingularPoint(CurveConesError):
    """Jacobian rank dropped at a point that was expected to be smooth."""


class RankDeficiency(CurveConesError):
    """A point panel failed to separate a graded piece of the ring."""


class VerificationFailed(CurveConesError):
    """A certificate check on a reconstructed form failed."""


class SplittingViolation(CurveConesError):
    """Restricted quartic is not divisible by the square of the vertex form."""


class DegenerateInput(CurveConesError):
    """Recoverable precondition failure; resample the offending input."""


class GenerationFailed(DegenerateInput):
    """A candidate curve has no usable chart; draw another candidate."""


class InsufficientPoints(DegenerateInput):
    """Point sampling ran out of slice budget before reaching the target."""


class RankDeficientW(DegenerateInput):
    """Supplied net matrix does not have rank 3."""


class AmbiguousFit(DegenerateInput):
    """Plane-curve fit kernel is not one-dimensional."""


class InVertex(DegenerateInput):
    """Probe point lies on the vertex of the net."""


class OnGammaFiber(DegenerateInput):
    """Probe point projects onto the plane image of the curve."""


class InadmissiblePencil(DegenerateInput):
    """Pencil has a base point or its multiplication image has wrong codim."""


class CorankJump(DegenerateInput):
    """Cup-product Gram matrix has corank other than 2."""


class UnderdeterminedReconstruction(DegenerateInput):
    """Quartic reconstruction still ambiguous after the pencil cap."""


class InconsistentReconstruction(DegenerateInput):
    """Quartic reconstruction system has no nonzero solution."""


class NonGenericD(DegenerateInput):
    """Degenerate-locus net whose restriction kernel is not one-dimensional."""


class NodeFiber(DegenerateInput):
    """Fiber over a singular point of the plane image; Steinerian undefined."""


class NonGenericCoordinates(DegenerateInput):
    """Singular points collide in the chosen chart; retry with a new frame."""


def resample(label: str, attempts: int, draw: Callable[[int], T | None]) -> T:
    """First usable result of draw(0), draw(1), ..., draw(attempts - 1):
    `Draws(label, attempts, draw).take(1)`.  When every attempt is
    skipped, raise `DegenerateInput` naming `label`.
    """
    got = Draws(label, attempts, draw).take(1)
    if got:
        return got[0]
    raise exhausted(label, attempts)


def exhausted(label: str, attempts: int) -> DegenerateInput:
    """What `resample` raises when its `attempts` draws are all spent."""
    return DegenerateInput(f"{label}: no usable draw in {attempts} attempts")


class Draws:
    """The draws of one collecting loop, taken at once or in rounds.

    `take(n)` goes on with draw(k), draw(k + 1), ... until n draws are
    usable or the `attempts` are spent, and returns the usable items,
    fewer than n if the attempts ran out.  A draw that raises
    `DegenerateInput` or returns None is skipped; any other exception
    propagates.  A round that asks for no more usable draws than the loop
    still needs makes exactly the draws of the loop that evaluates each
    draw as it comes.
    """

    def __init__(self, label: str, attempts: int,
                 draw: Callable[[int], T | None]):
        self.label = label
        self.attempts = attempts
        self.draw = draw
        self.made = 0

    @property
    def left(self) -> int:
        return self.attempts - self.made

    def take(self, n: int) -> list:
        got: list = []
        while len(got) < n and self.left > 0:
            self.made += 1
            try:
                item = self.draw(self.made - 1)
            except DegenerateInput:
                continue
            if item is not None:
                got.append(item)
        return got

    def rounds(self, n: int, evaluate: Callable[[list], list]) -> list:
        """Up to n pairs (draw, result), in draw order.  The draws are
        taken in rounds of as many as results are still missing, and
        evaluate(round) gives one result per draw of a round, walked
        through `unwrap`; since a draw gives at most one result, these are
        exactly the draws of the loop that evaluates each draw as it
        comes.  A round with no usable draw spent the attempts, and is not
        evaluated."""
        def request(drawn: list) -> tuple:
            return lambda items: evaluate(list(items)), [(x,) for x in drawn]

        return value_of(lockstep([self.chain(n, request)])[0])

    def chain(self, n: int, request):
        """`rounds` as a chain, yielding request(round) for each round."""
        got: list = []
        while len(got) < n and self.left:
            drawn = self.take(n - len(got))
            if not drawn:
                break
            for item, result in zip(drawn, (yield request(drawn))):
                result = unwrap(result)
                if result is not None:
                    got.append((item, result))
        return got

    def exhausted(self) -> DegenerateInput:
        """What `resample` raises when the loop's attempts run out."""
        return exhausted(self.label, self.attempts)


def unwrap(result: T | CurveConesError) -> T | None:
    """A batch result as a resample loop treats it: None for a
    `DegenerateInput`, else as `value_of` gives it."""
    return None if isinstance(result, DegenerateInput) else value_of(result)


def value_of(result: T | CurveConesError) -> T:
    """A batch result as a call on one element gives it: raised if an
    error."""
    if isinstance(result, CurveConesError):
        raise result
    return result


def outcomes(failed, table, value: Callable[[int], T]) -> list:
    """Per element n of a batch, value(n), or the exception of the first
    test it fails: failed is a tests x N mask whose row k is test k, and
    table[k] the (class, message) that test k raises."""
    return [table[test][0](table[test][1]) if failed[test, n] else value(n)
            for n, test in enumerate(failed.argmax(axis=0).tolist())]


def lockstep(chains: list) -> list:
    """Run chains side by side and serve their requests in rounds.

    A chain is a generator that yields requests (serve, *keys, items) and
    is sent one answer per item; the items asked in a round with the same
    serve and keys are answered by one call serve(*keys, *columns) on the
    columns of the items, which are tuples.  Returns per chain its value or
    the CurveConesError it raised, which, as a chain draws from its own
    streams only, are those it has alone."""
    out: list = [None] * len(chains)
    answers = dict.fromkeys(range(len(chains)))
    while answers:
        asks = {}
        for i, answer in answers.items():
            try:
                asks[i] = chains[i].send(answer)
            except StopIteration as stop:
                out[i] = stop.value
            except CurveConesError as exc:
                out[i] = exc
        answers = {}
        for kind in dict.fromkeys(ask[:-1] for ask in asks.values()):
            mine = [i for i, ask in asks.items() if ask[:-1] == kind]
            items = [item for i in mine for item in asks[i][-1]]
            flat = iter(kind[0](*kind[1:], *zip(*items)) if items
                        else [])
            answers.update((i, [next(flat) for _ in asks[i][-1]])
                           for i in mine)
    return out
