"""Per-query span trees over the flat run-time trace.

The engine keeps a flat ``ctx.trace`` list of run-time rewrite events.
This module adds the structure around it: a :class:`QueryProfile` wraps
each physical operator's batch iterator and records one :class:`OpFrame`
per operator invocation, nested under the operator that first pulled it,
so the frame tree mirrors the execution tree.  :func:`span_tree`
assembles the full query span — parse → bind → optimize → execute, one
child span per operator, and the trace events (extractions, cache
fetches, promoted reads) nested under the operator that produced them —
as plain JSON-serialisable dicts.

Attribution follows the pull: self time and ``ctx.trace`` events land
on the operator whose pull is innermost when they happen, and a frame's
total time and page I/O cover its own pulls, children included.
Because the accounting switches at every pull boundary, it stays exact
when operators interleave — a join probing batch by batch, a LIMIT
abandoning its child, a cursor pulling between fetches.

The profile is attached as ``ExecutionContext.profile``; ``None`` (the
default) leaves every operator's iterator unwrapped — operators only pay
for profiling when EXPLAIN ANALYZE or span tracing asked for it.
"""

from __future__ import annotations

import time

#: ``ctx.trace`` ops that carry a wall-time measurement of their own.
_TIMED_TRACE_OPS = frozenset({"extract", "extract_wait"})


class OpFrame:
    """One physical-operator invocation inside a :class:`QueryProfile`."""

    __slots__ = ("op", "label", "total_s", "self_s", "rows_out",
                 "pages_read", "recycled", "first_event", "trace_indices",
                 "children")

    def __init__(self, op: str, label: str, first_event: int) -> None:
        self.op = op                # operator class name, e.g. "PFilter"
        self.label = label          # node.describe() text
        self.total_s = 0.0
        self.self_s = 0.0
        self.rows_out = 0
        self.pages_read = 0
        self.recycled = False
        # Trace length at the first pull: orders this frame among its
        # parent's own trace events.
        self.first_event = first_event
        # ctx.trace indices appended while this operator was innermost.
        self.trace_indices: list[int] = []
        self.children: list["OpFrame"] = []


class QueryProfile:
    """Operator-level profile of one query execution."""

    def __init__(self) -> None:
        self.roots: list[OpFrame] = []
        # Operators mid-pull, innermost last: (frame, started, pages).
        self._stack: list[tuple[OpFrame, float, int]] = []
        self._mark_s = 0.0
        self._mark_trace = 0

    def wrap(self, node, batches, ctx):
        """Profile one operator's batch iterator.

        A generator, so the frame is placed at the first pull — under
        the operator whose pull asked for it.
        """
        frame = OpFrame(type(node).__name__, node.describe(), len(ctx.trace))
        (self._stack[-1][0].children if self._stack else self.roots) \
            .append(frame)
        try:
            while True:
                self._enter(frame, ctx)
                try:
                    chunk = next(batches, None)
                finally:
                    self._leave(ctx)
                if chunk is None:
                    return
                frame.rows_out += chunk.length
                yield chunk
        finally:
            # Closing an abandoned child runs its cleanup (a scan's
            # final I/O record): that work is the child's too.
            self._enter(frame, ctx)
            try:
                batches.close()
            finally:
                self._leave(ctx)

    def _enter(self, frame: OpFrame, ctx) -> None:
        self._stack.append((frame, self._settle(ctx), ctx.pages_read))

    def _leave(self, ctx) -> None:
        now = self._settle(ctx)
        frame, started, pages = self._stack.pop()
        frame.total_s += now - started
        frame.pages_read += ctx.pages_read - pages

    def _settle(self, ctx) -> float:
        """Charge everything since the last switch to the innermost pull."""
        now = time.perf_counter()
        if self._stack:
            top = self._stack[-1][0]
            top.self_s += now - self._mark_s
            for index in range(self._mark_trace, len(ctx.trace)):
                top.trace_indices.append(index)
                if ctx.trace[index].get("op") == "recycler_hit":
                    top.recycled = True
        self._mark_s = now
        self._mark_trace = len(ctx.trace)
        return now

    def total_operator_s(self) -> float:
        """Wall time attributed to operators = sum of root-frame totals.

        Equivalently the sum of every frame's *self* time; EXPLAIN
        ANALYZE's accounting invariant checks this against the report's
        ``execute_s``.
        """
        return sum(frame.total_s for frame in self.roots)


def _trace_span(entry: dict) -> dict:
    attrs = {k: v for k, v in entry.items() if k != "op"}
    span = {"name": f"trace:{entry.get('op', '?')}", "attrs": attrs}
    if entry.get("op") in _TIMED_TRACE_OPS:
        span["elapsed_s"] = entry.get("seconds", 0.0)
    return span


def operator_span(frame: OpFrame, trace: list[dict]) -> dict:
    """One operator frame (and its subtree) as a span dict."""
    children: list[dict] = []
    pending = iter(frame.children)
    child = next(pending, None)
    # Interleave trace-event spans with child-operator spans in trace
    # order so the span tree reads in execution order.
    for index in frame.trace_indices:
        while child is not None and child.first_event <= index:
            children.append(operator_span(child, trace))
            child = next(pending, None)
        children.append(_trace_span(trace[index]))
    while child is not None:
        children.append(operator_span(child, trace))
        child = next(pending, None)
    span = {
        "name": frame.op,
        "detail": frame.label,
        "elapsed_s": frame.total_s,
        "self_s": frame.self_s,
        "rows_out": frame.rows_out,
    }
    if frame.pages_read:
        span["pages_read"] = frame.pages_read
    if frame.recycled:
        span["recycled"] = True
    if children:
        span["children"] = children
    return span


def span_tree(sql: str, report, profile: QueryProfile,
              trace: list[dict]) -> dict:
    """The whole query as one JSON-serialisable span tree."""
    execute_span: dict = {
        "name": "execute",
        "elapsed_s": report.execute_s,
        "rows_out": report.rows_out,
    }
    if profile.roots:
        execute_span["children"] = [operator_span(frame, trace)
                                    for frame in profile.roots]
    return {
        "name": "query",
        "attrs": {
            "sql": sql,
            "plan_cache_hit": report.plan_cache_hit,
        },
        "elapsed_s": report.total_s,
        "children": [
            {"name": "parse", "elapsed_s": report.parse_s},
            {"name": "bind", "elapsed_s": report.bind_s},
            {"name": "optimize", "elapsed_s": report.optimize_s},
            execute_span,
        ],
    }
