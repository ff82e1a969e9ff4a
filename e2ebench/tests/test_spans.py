"""Self-time accounting of the benchmark's span recorder."""

import types

from spans import Spans, self_times


def _clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_direct_children_only():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and d [5, 7]
    spans = Spans(clock=_clock([0, 1, 2, 3, 4, 5, 7, 10]))
    with spans.span("a"):
        with spans.span("b"):
            with spans.span("c"):
                pass
        with spans.span("d"):
            pass
    assert spans.self_times() == {"a": 5, "b": 2, "c": 1, "d": 2}
    # self times add up to the outermost span's duration
    assert sum(spans.self_times().values()) == 10


def test_self_times_sum_same_name_spans():
    records = [(1, 0, "x", 0.0, 4.0), (2, 1, "x", 1.0, 2.0),
               (3, 0, "y", 5.0, 6.5)]
    assert self_times(records) == {"x": 4.0, "y": 1.5}


def test_wrap_records_calls_counts_and_restores():
    mod = types.SimpleNamespace()

    def inner(sizes):
        return len(sizes)

    def outer(sizes):
        return mod.inner(sizes) * 2

    mod.inner, mod.outer = inner, outer
    spans = Spans(clock=_clock([0, 1, 3, 6]))
    spans.wrap(mod, "inner", "layer.inner",
               count=lambda args, kwargs: len(args[0]))
    spans.wrap(mod, "outer", "layer.outer")
    assert mod.outer([16, 32, 64]) == 6
    assert spans.self_times() == {"layer.outer": 4, "layer.inner": 2}
    assert spans.counters["layer.inner"] == 3
    spans.unwrap_all()
    assert mod.inner is inner and mod.outer is outer


def test_wrap_method_on_class():
    class Thing:
        def work(self, x):
            return x + 1

    spans = Spans()
    spans.wrap(Thing, "work", "thing.work")
    assert Thing().work(1) == 2
    assert [r[2] for r in spans.records] == ["thing.work"]
    spans.unwrap_all()
    assert Thing.__dict__["work"].__name__ == "work"
    assert not hasattr(Thing.__dict__["work"], "__wrapped__")
