"""Plan rendering for EXPLAIN and the demo's plan-observation panels."""

from __future__ import annotations

from repro.db import expr as ex
from repro.db.plan import logical as lg
from repro.db.plan.physical import PhysicalNode


def render_logical(node: lg.LogicalNode, indent: int = 0) -> str:
    """Indented, one-node-per-line rendering of a logical plan."""
    pad = "  " * indent
    line = pad + _describe_logical(node)
    parts = [line]
    for child in node.children():
        parts.append(render_logical(child, indent + 1))
    return "\n".join(parts)


def _describe_logical(node: lg.LogicalNode) -> str:
    if isinstance(node, lg.LScan):
        cols = ", ".join(c.name for c in node.output)
        lazy = " LAZY" if node.is_lazy else ""
        return f"Scan {node.qualified_name}{lazy} [{cols}]"
    if isinstance(node, lg.LScanAll):
        cols = ", ".join(c.name for c in node.output)
        return f"ScanAll {node.table_name} [{cols}] (entire repository)"
    if isinstance(node, lg.LFilter):
        return f"Filter {node.predicate!r}"
    if isinstance(node, lg.LProject):
        cols = ", ".join(
            f"{c.name}={e!r}" for c, e in zip(node.output, node.exprs)
        )
        return f"Project [{cols}]"
    if isinstance(node, lg.LJoin):
        keys = ", ".join(
            f"#{l}=#{r}" for l, r in zip(node.left_keys, node.right_keys)
        )
        residual = f" residual={node.residual!r}" if node.residual else ""
        return f"Join[{node.kind}] keys=[{keys}]{residual}"
    if isinstance(node, lg.LAggregate):
        groups = ", ".join(repr(g) for g in node.group_exprs) or "<global>"
        aggs = ", ".join(repr(a) for a in node.aggregates)
        return f"Aggregate groups=[{groups}] aggs=[{aggs}]"
    if isinstance(node, lg.LSort):
        keys = ", ".join(
            f"{k!r} {'ASC' if asc else 'DESC'}" for k, asc in node.keys
        )
        return f"Sort [{keys}]"
    if isinstance(node, lg.LLimit):
        return f"Limit {node.limit} OFFSET {node.offset}"
    if isinstance(node, lg.LDistinct):
        return "Distinct"
    if isinstance(node, lg.LLazyFetch):
        lo, hi = node.time_bounds
        bounds = f" bounds=[{lo},{hi}]" if (lo is not None or hi is not None) else ""
        return (
            f"LazyFetch {node.table_name} need=[{', '.join(node.needed)}]"
            f"{bounds} residuals={len(node.residuals)}  <-- run-time rewrite"
        )
    return type(node).__name__


def render_physical(node: PhysicalNode, indent: int = 0) -> str:
    """Indented rendering of a physical plan."""
    pad = "  " * indent
    line = pad + node.describe()
    if node.signature is not None:
        line += "  [recyclable]"
    parts = [line]
    for child in node.children():
        parts.append(render_physical(child, indent + 1))
    return "\n".join(parts)


def _fmt_s(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    return f"{seconds * 1000:.3f}ms"


def render_analyzed(profile, trace: list[dict]) -> str:
    """Annotated plan tree for EXPLAIN ANALYZE.

    Rendered from the executed :class:`~repro.obs.tracing.QueryProfile`
    frame tree (not the static node tree): each line is one operator
    *invocation* carrying measured wall time (total and self), rows out
    and page I/O, with the run-time trace events it produced (extract,
    cache_fetch, promoted_fetch, ...) nested beneath it.
    """
    if profile is None or not profile.roots:
        return "(no operators executed)"
    lines: list[str] = []

    def walk(frame, indent: int) -> None:
        pad = "  " * indent
        stats = [f"time={_fmt_s(frame.total_s)}",
                 f"self={_fmt_s(frame.self_s)}",
                 f"rows={frame.rows_out}"]
        if frame.pages_read:
            stats.append(f"pages={frame.pages_read}")
        if frame.recycled:
            stats.append("recycled")
        lines.append(f"{pad}{frame.label}  (actual: {', '.join(stats)})")
        for index in frame.trace_indices:
            entry = trace[index]
            op = entry.get("op", "?")
            rest = ", ".join(f"{k}={v}" for k, v in entry.items()
                             if k not in ("op", "mtime_ns"))
            lines.append(f"{pad}  + {op:<14} {rest}")
        for child in frame.children:
            walk(child, indent + 1)

    for root in profile.roots:
        walk(root, 0)
    return "\n".join(lines)


def render_trace(trace: list[dict]) -> str:
    """Render the run-time rewrite trace (demo items 5-7).

    Each entry describes one operator injected while executing a lazy
    fetch: the rewrite itself, per-file cache hits, extractions, refreshes.
    """
    if not trace:
        return "(no run-time rewriting occurred)"
    lines = []
    for entry in trace:
        op = entry.get("op", "?")
        rest = ", ".join(f"{k}={v}" for k, v in entry.items() if k != "op")
        lines.append(f"  + {op:<14} {rest}")
    return "\n".join(lines)
