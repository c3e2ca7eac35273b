"""Spans and counters recorded from outside the program.

The traced run wraps public functions of each layer (the program itself
is unchanged) so that every call records a span — name, start, end,
parent, query id — or, for calls too frequent for a span each, bumps a
counter and a busy-time total.  Spans stay in memory and are written
out when the run ends.  A span's *self time* is its duration minus the
part of it that its children cover.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    qid: Optional[int]

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals: list[tuple[float, float]], lo: float, hi: float
            ) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span: duration minus its children's coverage
    (overlapping children, e.g. parallel fetches, count once)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {span.sid: span.duration
            - covered(children.get(span.sid, []), span.start, span.end)
            for span in spans}


class Recorder:
    """Collects spans and counters for one traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.qid: Optional[int] = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next = 0
        self._undo: list[Callable[[], None]] = []

    # -- spans ------------------------------------------------------------------

    def _stack(self) -> list[tuple[int, str]]:
        """The open spans of this thread, innermost last."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open on this thread."""
        return any(open_name == name for _sid, open_name in self._stack())

    def span(self, name: str, fn: Callable, *args, **kwargs):
        stack = self._stack()
        with self._lock:
            sid = self._next
            self._next += 1
        parent = stack[-1][0] if stack else None
        stack.append((sid, name))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(sid, name, start, end, parent,
                                       self.qid))

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record a span measured by the caller (e.g. across awaits)."""
        with self._lock:
            sid = self._next
            self._next += 1
            self.spans.append(Span(sid, name, start, end, None, self.qid))

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def child_total(self, parent_name: str, child_name: str) -> float:
        """Time ``child_name`` spans cover inside ``parent_name`` spans."""
        parents = {s.sid for s in self.spans if s.name == parent_name}
        return sum(s.duration for s in self.spans
                   if s.name == child_name and s.parent in parents)

    def self_split(self) -> dict[str, float]:
        """Total self time per span name."""
        own = self_times(self.spans)
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span.name] += own[span.sid]
        return dict(out)

    # -- wrapping -----------------------------------------------------------------

    def _patch(self, owner, attr: str, make: Callable) -> None:
        """Replace a function of a class or module by ``make(function)``."""
        original = getattr(owner, attr)
        setattr(owner, attr, functools.wraps(original)(make(original)))
        self._undo.append(lambda: setattr(owner, attr, original))

    def wrap_span(self, owner, attr: str, name: str,
                  on_result: Optional[Callable] = None) -> None:
        """Record a span around every call of ``owner.attr``."""
        def make(fn):
            def wrapper(*args, **kwargs):
                result = self.span(name, fn, *args, **kwargs)
                if on_result is not None:
                    on_result(result)
                return result
            return wrapper
        self._patch(owner, attr, make)

    def wrap_count(self, owner, attr: str, name: str, *,
                   timed: bool = False, within: Optional[str] = None) -> None:
        """Count calls of ``owner.attr`` (and their busy time); with
        ``within``, only calls made inside a span of that name."""
        counts, busy = self.counts, self.busy

        def make(fn):
            if within is not None:
                def wrapper(*args, **kwargs):
                    if self.inside(within):
                        counts[name] += 1
                    return fn(*args, **kwargs)
                return wrapper
            if not timed:
                def wrapper(*args, **kwargs):
                    counts[name] += 1
                    return fn(*args, **kwargs)
                return wrapper

            def wrapper(*args, **kwargs):
                counts[name] += 1
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    busy[name] += time.perf_counter() - start
            return wrapper
        self._patch(owner, attr, make)

    def unwrap(self) -> None:
        while self._undo:
            self._undo.pop()()

    def dump(self) -> list[dict]:
        return [{"id": s.sid, "name": s.name, "start": s.start,
                 "end": s.end, "parent": s.parent, "qid": s.qid}
                for s in self.spans]
