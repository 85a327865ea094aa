"""Span arithmetic and wrapper transparency of perfbench/tracer.py."""

import inspect
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))
import metrics  # noqa: E402
import tracer  # noqa: E402


def test_self_time_subtracts_covered_children():
    # root [0,10] > a [1,4] > a1 [2,3]; root > b [5,6]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 6.0]
    parent = [-1, 0, 1, 0]
    own = tracer.self_times(start, end, parent)
    assert own.tolist() == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_clips_children_to_parent():
    own = tracer.self_times([0.0, 1.5], [2.0, 3.0], [-1, 0])
    assert own.tolist() == pytest.approx([1.5, 1.5])


def test_profile_counts_reentry_once_in_total():
    prof = tracer.Profile()
    # f [0,4] calls f [1,3], which calls g [1.5,2]
    prof.add_spans(["f", "g"], name=[0, 0, 1], start=[0.0, 1.0, 1.5],
                   end=[4.0, 3.0, 2.0], parent=[-1, 0, 1],
                   raised=[0, 1, 0], outer=[1, 0, 1], items=[-1, -1, 2],
                   calls=[2, 1])
    assert prof.calls == {"f": 2, "g": 1}
    assert prof.total_s["f"] == pytest.approx(4.0)
    assert prof.self_s["f"] == pytest.approx(2.0 + 1.5)
    assert prof.raised == {"f": 1, "g": 0}


def test_has_ancestor():
    hit = tracer.has_ancestor([-1, 0, 1, -1, 3], [0, 1, 2, 1, 2], {0})
    assert hit.tolist() == [False, True, True, False, False]


def test_wrapper_passes_values_and_exceptions():
    rec = tracer.Recorder()
    marker = object()

    def ok(x, *, y=1):
        return [x, y, marker]

    class Boom(Exception):
        pass

    err = Boom("no")

    def bad():
        raise err

    w_ok = tracer.wrap(ok, "m.ok", rec)
    w_bad = tracer.wrap(bad, "m.bad", rec)
    assert w_ok(3, y=4) == [3, 4, marker]
    assert w_ok.__name__ == "ok" and w_ok.__wrapped__ is ok
    with pytest.raises(Boom) as info:
        w_bad()
    assert info.value is err
    assert list(rec.raised) == [0, 1]
    assert list(rec.items) == [3, -1]
    assert not rec._stack


def test_wrapper_keeps_method_binding():
    rec = tracer.Recorder()

    class Thing:
        def __init__(self):
            self.k = 2

        def scale(self, x):
            return self.k * x

    Thing.scale = tracer.wrap(Thing.scale, "Thing.scale", rec)
    t = Thing()
    assert t.scale(5) == 10
    assert Thing.scale(t, 1) == 2
    assert t.scale.__self__ is t
    assert list(rec.calls) == [2]


def test_generator_stays_lazy_and_counts_items():
    rec = tracer.Recorder()
    log = []

    def gen(n):
        log.append("start")
        try:
            for i in range(n):
                log.append(i)
                yield i
        finally:
            log.append("closed")

    wrapped = tracer.wrap(gen, "m.gen", rec)
    g = wrapped(5)
    assert inspect.isgenerator(g) and log == []
    assert [next(g), next(g)] == [0, 1]
    g.close()
    assert log == ["start", 0, 1, "closed"]
    assert rec.calls[0] == 1
    assert sum(rec.items) == 2
    assert list(wrapped(3)) == [0, 1, 2]
    assert rec.calls[0] == 2 and sum(rec.items) == 5


def test_generator_exception_is_recorded():
    rec = tracer.Recorder()

    def gen():
        yield 1
        raise KeyError("k")

    g = tracer.wrap(gen, "m.gen", rec)()
    assert next(g) == 1
    with pytest.raises(KeyError):
        next(g)
    assert list(rec.raised) == [0, 1]


def test_nested_spans_record_parents():
    rec = tracer.Recorder()
    inner = tracer.wrap(lambda: 1, "m.inner", rec)
    outer = tracer.wrap(lambda: inner() + inner(), "m.outer", rec)
    assert outer() == 2
    assert list(rec.parent) == [-1, 0, 0]
    own = tracer.self_times(rec.start, rec.end, rec.parent)
    assert np.all(own >= 0)


def test_install_wraps_every_reported_layer():
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))), "src"))
    assert set(metrics.LAYERS) <= set(tracer.TARGETS)
    originals = {}
    for name in tracer.TARGETS:
        owner, leaf = tracer.resolve(name)
        assert inspect.isfunction(inspect.getattr_static(owner, leaf)), name
        originals[name] = (owner, leaf, inspect.getattr_static(owner, leaf))
    try:
        tracer.install(tracer.Recorder())
        for name, (owner, leaf, func) in originals.items():
            assert getattr(owner, leaf).__wrapped__ is func, name
    finally:
        for owner, leaf, func in originals.values():
            setattr(owner, leaf, func)
