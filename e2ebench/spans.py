"""In-memory span recorder for the benchmark's traced runs.

Spans are recorded from the benchmark's own files: :meth:`Spans.wrap`
replaces one attribute of a module or class (a function, or a method) with
a wrapper that opens a span around every call.  Nothing under ``src/`` is
edited.  Spans stay in memory and are written out once, at exit
(:meth:`Spans.dump`).

A span's *self time* is its duration minus the time its child spans cover.
Calls on one thread nest strictly, so the children of a span are disjoint
and the covered time is the sum of their durations.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["Spans", "self_times", "durations"]


class Spans:
    """Records ``(id, parent, name, start, end)`` spans per thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: finished spans: (id, parent id or 0, name, start, end)
        self.records: List[Tuple[int, int, str, float, float]] = []
        self._next_id = 1
        self._stacks: Dict[int, List[int]] = defaultdict(list)
        self._lock = threading.Lock()
        self._installed: List[Tuple[object, str, object]] = []
        #: per span name, the sum of the ``count`` hook's values
        self.counters: Dict[str, int] = defaultdict(int)

    def _open(self) -> Tuple[int, int, List[int]]:
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        stack = self._stacks[threading.get_ident()]
        parent = stack[-1] if stack else 0
        stack.append(sid)
        return sid, parent, stack

    def span(self, name: str) -> "_SpanContext":
        """Context manager recording one span called ``name``."""
        return _SpanContext(self, name)

    def wrap(self, owner: object, attr: str, name: str,
             count: Optional[Callable[[tuple, dict], int]] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``owner`` is the module or class through which callers reach the
        function, so the binding that is actually called gets the wrapper
        (``from x import f`` copies the binding into the importer).
        ``count(args, kwargs)``, when given, is added to
        ``counters[name]`` on every call, e.g. the sizes in a column.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if count is not None:
                self.counters[name] += count(args, kwargs)
            sid, parent, stack = self._open()
            start = self.clock()
            try:
                return original(*args, **kwargs)
            finally:
                end = self.clock()
                stack.pop()
                self.records.append((sid, parent, name, start, end))

        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def unwrap_all(self) -> None:
        """Restore every attribute :meth:`wrap` replaced."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def self_times(self) -> Dict[str, float]:
        return self_times(self.records)

    def dump(self, path: str) -> None:
        """Write every span as JSON (once, when the traced run ends)."""
        with open(path, "w") as fh:
            json.dump({"spans": self.records, "counters": self.counters},
                      fh)


class _SpanContext:
    def __init__(self, spans: Spans, name: str):
        self.spans = spans
        self.name = name

    def __enter__(self) -> "_SpanContext":
        self.sid, self.parent, self.stack = self.spans._open()
        self.start = self.spans.clock()
        return self

    def __exit__(self, *exc) -> None:
        end = self.spans.clock()
        self.stack.pop()
        self.spans.records.append(
            (self.sid, self.parent, self.name, self.start, end))


def self_times(
    records: List[Tuple[int, int, str, float, float]],
) -> Dict[str, float]:
    """Self seconds per span name: duration minus direct children's."""
    child_time: Dict[int, float] = defaultdict(float)
    for _, parent, _, start, end in records:
        if parent:
            child_time[parent] += end - start
    out: Dict[str, float] = defaultdict(float)
    for sid, _, name, start, end in records:
        out[name] += (end - start) - child_time.get(sid, 0.0)
    return dict(out)


def durations(records: List[Tuple[int, int, str, float, float]],
              ) -> Dict[str, float]:
    """Inclusive seconds per span name."""
    out: Dict[str, float] = defaultdict(float)
    for _, _, name, start, end in records:
        out[name] += end - start
    return dict(out)
