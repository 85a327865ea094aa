"""Timing wrappers for the engine's public functions, and span arithmetic.

A traced command process calls `install(recorder)` before
`curvecones.cli.main` runs.  Every target below is replaced by a wrapper on
its module or class, so calls made through module attributes
(`alg.distinct_roots`) and calls inside the defining module
(`restrict -> mul_forms`) both reach the wrapper.  Nothing under `src/` is
edited.

A wrapper records one span per call: name, start, end, parent span, and
whether an exception left the call.  A generator function is wrapped so
that each resumption is its own span and items are counted as they are
yielded; the generator stays lazy.  Spans are kept in compact arrays and
written out once, when the process ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array

import numpy as np

import metrics

# Every function a layer metric reports on (metrics.LAYERS), plus the two
# that only the derived counts and result.json need: the genus-4 sampling
# slice and criterion 13.  Nothing else is wrapped, so a self time is the
# function's own time less that of the other reported layers it calls.
TARGETS = (*metrics.LAYERS, "curve.RulingChart.points_on_line",
           "acceptance.criterion_determinism")


class Recorder:
    """Spans of one process, in call order, with per-name counters."""

    def __init__(self):
        self.names: list[str] = []
        self.calls = array("q")      # per name: calls, not resumptions
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.raised = array("b")
        self.outer = array("b")      # no enclosing span of the same name
        self.items = array("q")      # len of the result; 1 per yield
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self._depth: dict[int, int] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
        return self._ids[name]

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        depth = self._depth.get(nid, 0)
        self._depth[nid] = depth + 1
        self.outer.append(1 if depth == 0 else 0)
        self.raised.append(0)
        self.items.append(-1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int, raised: bool = False, items: int = -1) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        nid = self.name[idx]
        self._depth[nid] -= 1
        if raised:
            self.raised[idx] = 1
        if items >= 0:
            self.items[idx] = items

    def save(self, path: str) -> None:
        np.savez(path, name=np.frombuffer(self.name, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 raised=np.frombuffer(self.raised, dtype=np.int8),
                 outer=np.frombuffer(self.outer, dtype=np.int8),
                 items=np.frombuffer(self.items, dtype=np.int64),
                 calls=np.frombuffer(self.calls, dtype=np.int64),
                 names=np.array(json.dumps(self.names)),
                 counters=np.array(json.dumps(self.counters)))


def _sized(result) -> int:
    return len(result) if isinstance(result, (list, tuple)) else -1


def wrap(func, name: str, rec: Recorder, probe=None):
    """Timing wrapper that is transparent to callers.

    Return values and exceptions pass through unchanged.  `probe(args,
    kwargs, result)`, when given, updates the recorder's counters after a
    successful call."""
    nid = rec.name_id(name)
    if inspect.isgeneratorfunction(func):
        @functools.wraps(func)
        def gen_wrapper(*args, **kwargs):
            rec.calls[nid] += 1
            inner = func(*args, **kwargs)
            try:
                while True:
                    idx = rec.open(nid)
                    try:
                        item = next(inner)
                    except StopIteration as stop:
                        rec.close(idx, items=0)
                        return stop.value
                    except BaseException:
                        rec.close(idx, raised=True, items=0)
                        raise
                    rec.close(idx, items=1)
                    yield item
            finally:
                inner.close()
        return gen_wrapper

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        rec.calls[nid] += 1
        idx = rec.open(nid)
        try:
            result = func(*args, **kwargs)
        except BaseException:
            rec.close(idx, raised=True)
            raise
        rec.close(idx, items=_sized(result))
        if probe is not None:
            probe(args, kwargs, result)
        return result
    return wrapper


def _probes(rec: Recorder) -> dict:
    def restrict_shape(args, kwargs, result):
        n = args[1] if len(args) > 1 else kwargs["n"]
        basis = args[3] if len(args) > 3 else kwargs["basis"]
        rec.count(f"monomials.restrict.calls.n{n}m{np.shape(basis)[1]}")

    def rref_cells(args, kwargs, result):
        m = args[0] if args else kwargs["m"]
        rows, cols = np.shape(m)
        rec.count("algebra.rref.cells", rows * cols)

    def oracle_half(args, kwargs, result):
        count = args[4] if len(args) > 4 else kwargs["count"]
        rec.count("cone.oracle_agreement.zero_half", count // 2)

    return {"monomials.restrict": restrict_shape,
            "algebra.rref": rref_cells,
            "cone.oracle_agreement": oracle_half}


def resolve(target: str) -> tuple:
    """(owner, attribute) of a target `module.function` or
    `module.Class.method`, importing the engine module."""
    modname, *path, leaf = target.split(".")
    owner = importlib.import_module(f"curvecones.{modname}")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def install(rec: Recorder) -> None:
    """Replace every target by its wrapper, on its module or class."""
    probes = _probes(rec)
    for name in TARGETS:
        owner, leaf = resolve(name)
        setattr(owner, leaf, wrap(getattr(owner, leaf), name, rec,
                                  probes.get(name)))


# -- span arithmetic -----------------------------------------------------------


def self_times(start, end, parent) -> np.ndarray:
    """Duration of each span minus the part of it its children cover.

    Children of one span never overlap, because every layer runs in one
    thread; each child is clipped to its parent's interval."""
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    covered = np.zeros(start.shape[0])
    kids = np.nonzero(parent >= 0)[0]
    par = parent[kids]
    lo = np.maximum(start[kids], start[par])
    hi = np.minimum(end[kids], end[par])
    np.add.at(covered, par, np.clip(hi - lo, 0.0, None))
    return (end - start) - covered


def has_ancestor(parent, name, target_ids) -> np.ndarray:
    """For each span, whether some enclosing span has a name in target_ids."""
    parent = np.asarray(parent, dtype=np.int64)
    name = np.asarray(name, dtype=np.int64)
    hit = np.zeros(parent.shape[0], dtype=bool)
    targets = np.isin(name, list(target_ids))
    for i in range(parent.shape[0]):     # parents precede their children
        j = parent[i]
        if j >= 0:
            hit[i] = hit[j] or targets[j]
    return hit


class Profile:
    """Per-name totals summed over the span files of several processes."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.raised: dict[str, int] = {}
        self.counters: dict[str, int] = {}

    @staticmethod
    def _add(table, key, value):
        table[key] = table.get(key, 0) + value

    def add_file(self, path: str) -> None:
        with np.load(path) as data:
            arrays = {k: data[k] for k in ("name", "start", "end", "parent",
                                           "raised", "outer", "items",
                                           "calls")}
            names = json.loads(str(data["names"]))
            counters = json.loads(str(data["counters"]))
        self.add_spans(names, **arrays)
        for key, value in counters.items():
            self._add(self.counters, key, value)

    def add_spans(self, names, name, start, end, parent, raised, outer, items,
                  calls) -> None:
        nid = np.asarray(name, dtype=np.int64)
        start = np.asarray(start, dtype=np.float64)
        end = np.asarray(end, dtype=np.float64)
        parent = np.asarray(parent, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        size = len(names)
        own = np.bincount(nid, weights=self_times(start, end, parent),
                          minlength=size)
        total = np.bincount(nid, weights=(end - start) * np.asarray(outer),
                            minlength=size)
        thrown = np.bincount(nid, weights=raised, minlength=size)
        for k, key in enumerate(names):
            self._add(self.calls, key, int(calls[k]))
            self._add(self.self_s, key, float(own[k]))
            self._add(self.total_s, key, float(total[k]))
            self._add(self.raised, key, int(thrown[k]))
        self._add_derived(names, nid, parent, items)

    def _add_derived(self, names, nid, parent, items) -> None:
        ids = {key: k for k, key in enumerate(names)}
        counted = items.clip(0)

        def spans_of(key):
            return nid == ids.get(key, -1)

        self._add(self.counters, "algebra.distinct_roots.roots",
                  int(counted[spans_of("algebra.distinct_roots")].sum()))
        if "curve.sample_points" in ids:
            under = has_ancestor(parent, nid, {ids["curve.sample_points"]})
            slices = (spans_of("algebra.resultant_bivariate")
                      | spans_of("curve.RulingChart.points_on_line")) & under
            self._add(self.counters, "curve.sample_points.slices",
                      int(slices.sum()))
            self._add(self.counters, "curve.sample_points.points",
                      int(counted[spans_of("curve.sample_points")].sum()))
        agreement = np.nonzero(spans_of("cone.oracle_agreement"))[0]
        zeros = spans_of("cone.points_on_form") & np.isin(parent, agreement)
        self._add(self.counters, "cone.oracle_agreement.zeros_returned",
                  int(counted[zeros].sum()))
