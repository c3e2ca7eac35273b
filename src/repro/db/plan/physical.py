"""Physical operators: column-at-a-time execution over row batches,
mirroring MonetDB's execution model.

Pulling batches is the only way a physical plan runs.  Each operator
has one generator body, :meth:`PhysicalNode._batches`; the base class's
:meth:`~PhysicalNode.batches` drives it, counting the operator, doing
the recycler lookup and admission for recyclable nodes, and wrapping
the iterator in the profiler when one is attached.
:meth:`~PhysicalNode.execute` is just the concatenation of the batches.

Only leaf scans cut their output to ``ctx.batch_rows``; other operators
pass their child's batches through, and a pipeline breaker (aggregate,
sort, lazy fetch) yields its one result chunk.  Breakers concatenate
their input before running their kernels, so a result is bit-identical
at every batch size.  Recyclable breakers keep the paper's lazy loading
as "simply caching the result of a view definition (i.e. some of the
intermediate results)" via the recycler.

:class:`PLazyFetch` is the run-time rewriting operator of §3.1: executing
it runs the metadata sub-plan, asks the lazy binding to inject cache-fetch
or file-extract steps for exactly the qualifying files, then joins the
extracted rows back to the metadata.  Its injected steps are appended to
``ctx.trace`` so the demo can show "the files containing required actual
data" and "the plans generated on the fly".
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Optional, final

import numpy as np

from repro.db import expr as ex
from repro.db.column import Column
from repro.db.plan import logical as lg
from repro.db.table import SystemTable
from repro.db.types import DataType
from repro.errors import ExecutionError
from repro.util.oplog import OperationLog

if TYPE_CHECKING:  # imported lazily at run time to avoid an import cycle
    from repro.db.exec.recycler import Recycler


@dataclass
class Chunk:
    """A materialised intermediate: columns keyed by plan cid."""

    columns: dict[int, Column]
    length: int

    @classmethod
    def empty(cls, schema: list[lg.OutCol]) -> "Chunk":
        return cls(
            columns={c.cid: Column.from_values(c.dtype, []) for c in schema},
            length=0,
        )

    def take(self, indices: np.ndarray) -> "Chunk":
        return Chunk(
            columns={cid: col.take(indices) for cid, col in self.columns.items()},
            length=len(indices),
        )

    def filter(self, mask: np.ndarray) -> "Chunk":
        kept = int(mask.sum())
        return Chunk(
            columns={cid: col.filter(mask) for cid, col in self.columns.items()},
            length=kept,
        )

    def slice(self, start: int, stop: int) -> "Chunk":
        return Chunk(
            columns={cid: col.slice(start, stop)
                     for cid, col in self.columns.items()},
            length=stop - start,
        )

    def memory_bytes(self) -> int:
        return sum(col.memory_bytes() for col in self.columns.values())


@dataclass
class ExecutionContext:
    """Shared run-time state for one query execution."""

    oplog: OperationLog
    recycler: Optional["Recycler"] = None
    trace: list[dict] = field(default_factory=list)
    rows_extracted: int = 0
    operators_run: int = 0
    # Disk-backed scan I/O: segment pages actually fetched from disk vs
    # pages whose columns the query never touched (lazy I/O savings).
    pages_read: int = 0
    pages_skipped: int = 0
    # Pages of *projected* columns skipped because a zone map proved no
    # row in them could satisfy a scan-level conjunct.
    pages_skipped_zone: int = 0
    # The rowpath reference interpreter turns this off so it stays an
    # honest row-at-a-time baseline (no zone maps, no recycler).
    zone_pruning: bool = True
    # Repository files this query's lazy fetches were derived from
    # (uri -> (repository, mtime_ns)); recycler admissions pin them so a
    # later file change can never be served from a cached intermediate.
    file_deps: dict = field(default_factory=dict)
    # Operator-level profiling (EXPLAIN ANALYZE / span tracing): a
    # repro.obs.tracing.QueryProfile, or None for unprofiled execution.
    profile: Optional[object] = None
    # Rows per batch that leaf scans cut their output to; None lets each
    # leaf yield whole (a resident table in one chunk, a disk table one
    # page at a time).
    batch_rows: Optional[int] = None


DEFAULT_BATCH_ROWS = 4096
"""Row granularity of cursor execution when the caller names none."""


def iter_chunk_slices(chunk: Chunk, batch_rows: Optional[int]):
    """Split one chunk into row-sliced batches (views); drop it if empty."""
    if batch_rows is None or chunk.length <= batch_rows:
        if chunk.length:
            yield chunk
        return
    for start in range(0, chunk.length, batch_rows):
        yield chunk.slice(start, min(start + batch_rows, chunk.length))


def _distinct_key(value):
    """Hashable per-row key matching factorize semantics (NaNs collapse)."""
    if isinstance(value, float) and value != value:
        return ("<nan>",)
    return value


def concat_chunks(chunks: list[Chunk], schema: list[lg.OutCol]) -> Chunk:
    """Reassemble batches into one chunk (pipeline breakers, execute)."""
    chunks = [c for c in chunks if c.length]
    if not chunks:
        return Chunk.empty(schema)
    if len(chunks) == 1:
        return chunks[0]
    cids = list(chunks[0].columns)
    return Chunk(
        columns={cid: Column.concat([c.columns[cid] for c in chunks])
                 for cid in cids},
        length=sum(c.length for c in chunks),
    )


class PhysicalNode:
    """Base class for physical operators."""

    def __init__(self, schema: list[lg.OutCol]) -> None:
        self.schema = schema
        # Recyclable nodes carry their *logical* source; the signature is
        # rendered from it per execution (not baked at build time) so the
        # table versions and binding cache epochs it embeds are always
        # current — plans live across many executions in the plan cache.
        self.signature_source: Optional[lg.LogicalNode] = None

    @property
    def signature(self) -> Optional[str]:
        if self.signature_source is None:
            return None
        from repro.db.exec.recycler import signature_of

        return signature_of(self.signature_source)

    def children(self) -> list["PhysicalNode"]:
        return []

    def describe(self) -> str:
        raise NotImplementedError

    @final
    def batches(self, ctx: ExecutionContext) -> Iterator[Chunk]:
        """Pull the operator's output batch by batch.

        Nothing runs until the first pull, so an operator whose consumer
        stops early (a satisfied LIMIT, an abandoned cursor) never pays
        for the rest — or, behind LIMIT 0, for anything at all.
        """
        pulled = self._pull(ctx)
        if ctx.profile is not None:
            return ctx.profile.wrap(self, pulled, ctx)
        return pulled

    @final
    def execute(self, ctx: ExecutionContext) -> Chunk:
        """Run to completion: the concatenation of :meth:`batches`."""
        return concat_chunks(list(self.batches(ctx)), self.schema)

    def _pull(self, ctx: ExecutionContext) -> Iterator[Chunk]:
        ctx.operators_run += 1
        signature = self.signature if ctx.recycler is not None else None
        if signature is None:
            yield from self._batches(ctx)
            return
        chunk = self._recycler_lookup(ctx, signature)
        if chunk is None:
            chunk = concat_chunks(list(self._batches(ctx)), self.schema)
            self._recycler_admit(ctx, signature, chunk)
        if chunk.length:
            yield chunk

    def _recycler_lookup(self, ctx: ExecutionContext,
                         signature: str) -> Optional[Chunk]:
        cached = ctx.recycler.lookup_validated(signature)
        if cached is None:
            return None
        columns, length, depends = cached
        # Propagate the hit's file dependencies: an enclosing
        # recyclable node must pin them too, or a later admit
        # above this hit would lose the staleness anchor.
        ctx.file_deps.update(depends)
        ctx.trace.append(
            {"op": "recycler_hit", "node": type(self).__name__,
             "signature": signature[:60]}
        )
        # Cached results are positional; re-key to this plan's cids.
        return Chunk(
            columns={c.cid: columns[i] for i, c in enumerate(self.schema)},
            length=length,
        )

    def _recycler_admit(self, ctx: ExecutionContext, signature: str,
                        chunk: Chunk) -> None:
        ctx.recycler.admit(
            signature,
            [chunk.columns[c.cid] for c in self.schema],
            chunk.length,
            depends=dict(ctx.file_deps) if ctx.file_deps else None,
        )

    def _batches(self, ctx: ExecutionContext) -> Iterator[Chunk]:
        """The operator's one execution body (a generator of chunks)."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Join machinery (shared by PJoin and PLazyFetch)
# ---------------------------------------------------------------------------


_CODE_BOUND_LIMIT = 1 << 62
"""Combined-code headroom: densify before the bound product can wrap."""


def _densify_codes(codes: np.ndarray) -> tuple[np.ndarray, int]:
    """Re-rank sparse codes densely (order-preserving; -1 stays -1).

    factorize() may return sparse range-bounds for integer columns;
    chaining several wide-range key columns could overflow int64, so the
    combiners compress the running codes before that can happen.
    """
    uniques, inverse = np.unique(codes, return_inverse=True)
    inverse = inverse.astype(np.int64)
    if uniques.size and uniques[0] == -1:
        # -1 sorts first: shift it back out of the dense code space.
        inverse -= 1
        return inverse, int(uniques.size) - 1
    return inverse, int(uniques.size)


def _combined_codes(columns: list[Column]) -> np.ndarray:
    """Factorize multi-column grouping keys into one int64 code.

    Unlike the join-side combiners, NULL here is an ordinary key value:
    per column it maps to code 0 (every non-null code shifts up by one),
    so ``(NULL, 1)`` and ``(NULL, 2)`` stay distinct groups and NULL
    sorts first within each key column — SQL GROUP BY/DISTINCT treat
    NULLs as equal to each other, not as match-nothing join keys.
    """
    if not columns:
        raise ExecutionError("grouping requires at least one key column")
    combined: Optional[np.ndarray] = None
    bound = 1  # max value currently representable in `combined`
    for col in columns:
        codes, count = col.factorize()
        if combined is None:
            combined = codes.astype(np.int64) + 1
            bound = count + 1
        else:
            if bound * (count + 2) >= _CODE_BOUND_LIMIT:
                combined, bound = _densify_codes(combined)
            combined = combined * (count + 2) + (codes + 1)
            bound = bound * (count + 2) + count + 1
    assert combined is not None
    return combined


def _pair_codes(left: Column, right: Column
                ) -> tuple[np.ndarray, np.ndarray, int]:
    """Shared-space codes for one join key column pair.

    Null-free VARCHAR pairs merge the two sides' (cached) dictionaries
    and remap codes with one vectorised fancy-index each — the wide lazy
    side never gets re-factorized per query.  Everything else falls back
    to concat-and-factorize.
    """
    if (left.dtype == DataType.VARCHAR and left.valid is None
            and right.valid is None):
        left_codes, left_uniques = left.dictionary()
        right_codes, right_uniques = right.dictionary()
        if left_uniques == right_uniques:
            return left_codes, right_codes, len(left_uniques)
        union = sorted(set(left_uniques) | set(right_uniques))
        position = {value: i for i, value in enumerate(union)}
        left_map = np.fromiter((position[v] for v in left_uniques),
                               dtype=np.int64, count=len(left_uniques))
        right_map = np.fromiter((position[v] for v in right_uniques),
                                dtype=np.int64, count=len(right_uniques))
        return left_map[left_codes], right_map[right_codes], len(union)
    merged = Column.concat([left, right])
    codes, count = merged.factorize()
    split = len(left)
    return codes[:split], codes[split:], count


def _factorize_pair(left: list[Column], right: list[Column]
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Factorize left/right key sets in a shared dictionary space."""
    if not left:
        raise ExecutionError("join requires at least one key column")
    combined_l: Optional[np.ndarray] = None
    combined_r: Optional[np.ndarray] = None
    bound = 1
    for l_col, r_col in zip(left, right):
        lc, rc, count = _pair_codes(l_col, r_col)
        if combined_l is None:
            combined_l = lc.copy()
            combined_r = rc.copy()
            bound = count
        else:
            if bound * (count + 1) >= _CODE_BOUND_LIMIT:
                # Densify both sides in one shared code space.
                merged, bound = _densify_codes(
                    np.concatenate([combined_l, combined_r]))
                split = len(combined_l)
                combined_l, combined_r = merged[:split], merged[split:]
            null_l = (combined_l < 0) | (lc < 0)
            null_r = (combined_r < 0) | (rc < 0)
            combined_l = combined_l * (count + 1) + lc
            combined_r = combined_r * (count + 1) + rc
            combined_l[null_l] = -1
            combined_r[null_r] = -1
            bound = bound * (count + 1) + count
    assert combined_l is not None and combined_r is not None
    return combined_l, combined_r


def join_indices(left_keys: list[Column], right_keys: list[Column]
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All matching row pairs for an equi join.

    Returns ``(left_idx, right_idx, left_match_counts)``; NULL keys never
    match.  Vectorised: sort right codes once, binary-search the left side,
    then expand ranges without Python loops.
    """
    left_codes, right_codes = _factorize_pair(left_keys, right_keys)
    order = np.argsort(right_codes, kind="stable")
    sorted_right = right_codes[order]
    lo = np.searchsorted(sorted_right, left_codes, side="left")
    hi = np.searchsorted(sorted_right, left_codes, side="right")
    counts = hi - lo
    # NULL keys never match: -1 left codes are masked here, and -1 right
    # codes sort before every valid code so valid probes never reach them.
    counts[left_codes < 0] = 0
    lo[left_codes < 0] = 0
    total = int(counts.sum())
    left_idx = np.repeat(np.arange(len(left_codes)), counts)
    if total:
        starts = np.repeat(np.cumsum(counts) - counts, counts)
        offsets = np.arange(total) - starts
        right_idx = order[np.repeat(lo, counts) + offsets]
    else:
        right_idx = np.zeros(0, dtype=np.int64)
    return left_idx, right_idx, counts


def _collect_file_deps(ctx: ExecutionContext, trace_start: int,
                       binding) -> None:
    """Record which repository files (at which mtime) a lazy fetch used.

    The binding's trace entries carry ``file``/``mtime_ns`` for every
    record served from cache, extracted here, or shared from another
    session's flight; recycler admissions pin these so cached
    intermediates can never outlive a file change.
    """
    repo = getattr(binding, "repo", None)
    if repo is None:
        return
    for entry in ctx.trace[trace_start:]:
        uri = entry.get("file")
        mtime_ns = entry.get("mtime_ns")
        if uri is not None and mtime_ns is not None:
            ctx.file_deps[uri] = (repo, mtime_ns)


# ---------------------------------------------------------------------------
# Leaf operators
# ---------------------------------------------------------------------------


class PTableScan(PhysicalNode):
    """Scan a base table, materialising only the pruned column set."""

    def __init__(self, node: lg.LScan) -> None:
        super().__init__(node.output)
        self.table = node.table
        self.qualified_name = node.qualified_name

    def describe(self) -> str:
        cols = ", ".join(c.name for c in self.schema)
        return f"TableScan {self.qualified_name} [{cols}]"

    def _batches(self, ctx: ExecutionContext):
        # Downstream operators (and the cursor) see the first rows before
        # the scan's full output ever exists as one chunk.
        total = self.table.row_count
        whole = Chunk({c.cid: self.table.column(c.name) for c in self.schema},
                      total)
        streamed = 0
        try:
            for chunk in iter_chunk_slices(whole, ctx.batch_rows):
                yield chunk
                streamed += chunk.length
        finally:
            # Recorded on completion (or abandonment, e.g. a satisfied
            # LIMIT) so the oplog reflects rows actually streamed.
            ctx.oplog.record(
                "scan", f"scan {self.qualified_name}",
                rows=streamed, of=total, columns=len(self.schema),
            )


class PSystemScan(PhysicalNode):
    """Scan a :class:`~repro.db.table.SystemTable` provider snapshot.

    The provider is sampled exactly once per execution, so every column
    — and every batch of the scan — describes one consistent instant of
    runtime state, even while other sessions keep appending journal
    entries or bumping counters.
    """

    def __init__(self, node: lg.LScan) -> None:
        super().__init__(node.output)
        self.table: SystemTable = node.table
        self.qualified_name = node.qualified_name

    def describe(self) -> str:
        cols = ", ".join(c.name for c in self.schema)
        return f"SystemScan {self.qualified_name} [{cols}]"

    def _batches(self, ctx: ExecutionContext):
        by_name, length = self.table.snapshot_columns()
        ctx.oplog.record("scan", f"scan {self.qualified_name} (system)",
                         rows=length, columns=len(self.schema))
        chunk = Chunk({c.cid: by_name[c.name] for c in self.schema}, length)
        yield from iter_chunk_slices(chunk, ctx.batch_rows)


# -- zone-map page pruning ---------------------------------------------------

_ZONE_DTYPES = (DataType.BIGINT, DataType.DOUBLE, DataType.TIMESTAMP)

# Normalising `constant <cmp> column` to `column <cmp'> constant`.
_PRUNE_FLIP = {"=": "=", "!=": "!=", "<>": "<>",
               "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _prune_constant(node: ex.Expr) -> bool:
    if isinstance(node, (ex.Literal, ex.Param)):
        return True
    # Negative literals parse as unary minus over a literal.
    return (isinstance(node, ex.UnOp) and node.op == "-"
            and isinstance(node.operand, ex.Literal))


def prunable_conjuncts(predicate: ex.Expr,
                       schema: list[lg.OutCol]) -> list[tuple]:
    """``(col, op, value_expr)`` triples a zone map can evaluate.

    Only top-level AND conjuncts of the shape ``column <cmp> constant``
    (plus BETWEEN over constants) qualify, and only for numeric columns
    of the scan.  The filter above keeps the *full* predicate, so this
    extraction may be as partial as it likes — pruning must merely be
    sound, never complete.
    """
    by_cid = {c.cid: c for c in schema if c.dtype in _ZONE_DTYPES}
    out: list[tuple] = []
    stack = [predicate]
    while stack:
        node = stack.pop()
        if isinstance(node, ex.BinOp) and node.op == "and":
            stack.extend((node.left, node.right))
            continue
        if (isinstance(node, ex.Between) and not node.negated
                and isinstance(node.operand, ex.BoundRef)
                and node.operand.cid in by_cid):
            for op, bound in ((">=", node.low), ("<=", node.high)):
                if _prune_constant(bound):
                    out.append((by_cid[node.operand.cid], op, bound))
            continue
        if isinstance(node, ex.BinOp) and node.op in _PRUNE_FLIP:
            left, right, op = node.left, node.right, node.op
            if _prune_constant(left) and isinstance(right, ex.BoundRef):
                left, right, op = right, left, _PRUNE_FLIP[op]
            if (isinstance(left, ex.BoundRef) and left.cid in by_cid
                    and _prune_constant(right)):
                out.append((by_cid[left.cid], op, right))
    return out


def _zone_dead(zone: "tuple | None", op: str, value) -> bool:
    """True when no row of a page with this zone can satisfy the conjunct.

    NULL/NaN constants fail (or yield NULL for) every comparison, so
    they condemn every page; a ``None`` zone means the page holds no
    valid comparable value, so every row fails the conjunct too.
    """
    if value is None or (isinstance(value, float) and value != value):
        return True
    if zone is None:
        return True
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False  # shouldn't happen (dtype-gated), stay sound
    lo, hi = zone
    if op == "=":
        return value < lo or value > hi
    if op in ("!=", "<>"):
        return lo == hi == value
    if op == "<":
        return lo >= value
    if op == "<=":
        return lo > value
    if op == ">":
        return hi <= value
    if op == ">=":
        return hi < value
    return False


class PDiskScan(PTableScan):
    """Scan a disk-backed table, faulting in only the needed columns.

    This is lazy ETL extended into lazy I/O: the table's rows live in a
    compressed segment file, and only the pages of the columns this scan
    projects are read (through the store's buffer pool).  Pages of
    untouched columns never leave disk; the counters surface exactly that
    in EXPLAIN and the query report.

    When the filter directly above holds ``column <cmp> constant``
    conjuncts over numeric columns, the planner pushes them down here as
    ``prune_conjuncts``: pages whose footer zone map proves no row can
    qualify are skipped before decode.  Pruning is optimisation-only —
    the filter retains the full predicate, so an over-conservative (or
    absent) zone map costs nothing but I/O.
    """

    def __init__(self, node: lg.LScan) -> None:
        super().__init__(node)
        # (col, op, value_expr) triples installed by build_physical when
        # a filter sits directly above this scan.
        self.prune_conjuncts: list[tuple] = []

    def describe(self) -> str:
        cols = ", ".join(c.name for c in self.schema)
        backing = self.table.disk_backing
        if backing is not None:
            needed = sum(backing.pages_of(c.name) for c in self.schema)
            total = backing.total_pages()
            pages = f" pages={needed}/{total} (skip {total - needed})"
            pages += self._describe_zones(backing)
        else:  # the table was materialised between compile and describe
            pages = ""
        return f"DiskScan {self.qualified_name} [{cols}]{pages}"

    def _describe_zones(self, backing) -> str:
        if not self.prune_conjuncts:
            return ""
        conjuncts = ", ".join(
            f"{col.name} {op} "
            + (repr(value.value) if isinstance(value, ex.Literal) else "?")
            for col, op, value in self.prune_conjuncts
        )
        try:  # unbound Params make the dead-page count unknowable here
            dead = self._dead_pages(backing)
            n_pages = len(backing.page_row_counts(self.schema[0].name))
            count = f" skip {len(dead)}/{n_pages} pages/col"
        except Exception:
            count = ""
        return f" zone-prune[{conjuncts}]{count}"

    def _dead_pages(self, backing) -> set[int]:
        """Page indices no projected row can come from, per zone maps."""
        dead: set[int] = set()
        for col, op, value_expr in self.prune_conjuncts:
            zones = backing.zone_map(col.name)
            if zones is None:
                continue
            value = value_expr.eval({}, 1).value_at(0)
            for page, zone in enumerate(zones):
                if _zone_dead(zone, op, value):
                    dead.add(page)
        return dead

    def _batches(self, ctx: ExecutionContext):
        """One loop over the pages the zone maps leave alive.

        Pages are read through the buffer pool one at a time, so a LIMIT
        that stops pulling stops the reads too.  Columns already resident
        are sliced to the same page so rows stay aligned.  A column read
        whole, by a scan that ran to completion, becomes the table's
        resident copy; a partial one never does.
        """
        backing = self.table.disk_backing
        if backing is None:
            # Mutated since planning: the table's columns are resident.
            yield from super()._batches(ctx)
            return
        from repro.storage.segment import IOCounter

        dead = (self._dead_pages(backing)
                if ctx.zone_pruning and self.prune_conjuncts else set())
        resident = {c.cid: self.table.column(c.name) for c in self.schema
                    if self.table.is_column_resident(c.name)}
        paged = [c for c in self.schema if c.cid not in resident]
        whole: Optional[dict[int, list[Column]]] = (
            None if dead else {c.cid: [] for c in paged})
        pages_skipped = backing.total_pages() - sum(
            backing.pages_of(c.name) for c in self.schema)
        ctx.pages_skipped += pages_skipped
        io = IOCounter()
        # Table segments paginate every column identically; with every
        # projected column resident and no page dead, nothing is read
        # and the whole table is one "page".
        counts = (backing.page_row_counts(self.table.schema.names[0])
                  if paged or dead else [backing.row_count])
        streamed = zone_skipped = stop = 0
        try:
            for page, count in enumerate(counts):
                start, stop = stop, stop + count
                if page in dead:
                    zone_skipped += len(paged)
                    ctx.pages_skipped_zone += len(paged)
                    continue
                reads = io.disk_reads
                columns = {
                    c.cid: (resident[c.cid].slice(start, stop)
                            if c.cid in resident
                            else backing.load_column_pages(c.name, [page], io))
                    for c in self.schema
                }
                ctx.pages_read += io.disk_reads - reads
                if whole is not None:
                    for c in paged:
                        whole[c.cid].append(columns[c.cid])
                for chunk in iter_chunk_slices(Chunk(columns, count),
                                               ctx.batch_rows):
                    yield chunk
                    streamed += chunk.length
            if whole and self.table.disk_backing is backing:
                for c in paged:
                    parts = whole[c.cid]
                    if parts:
                        self.table.install_column(
                            c.name,
                            parts[0] if len(parts) == 1
                            else Column.concat(parts))
        finally:
            ctx.trace.append({
                "op": "disk_scan",
                "table": self.qualified_name,
                "columns": [c.name for c in self.schema],
                "pages_read": io.disk_reads,
                "pages_skipped": pages_skipped,
                "pages_skipped_zone": zone_skipped,
                "zone_dead_pages": len(dead),
            })
            ctx.oplog.record(
                "scan", f"disk scan {self.qualified_name}",
                rows=streamed, of=backing.row_count,
                columns=len(self.schema),
                pages_read=io.disk_reads, pages_skipped=pages_skipped,
                pages_skipped_zone=zone_skipped,
            )


class PScanAll(PhysicalNode):
    """Extract the entire repository for a lazy table (worst case / NoDB)."""

    def __init__(self, node: lg.LScanAll) -> None:
        super().__init__(node.output)
        self.binding = node.binding
        self.table_name = node.table_name

    def describe(self) -> str:
        cols = ", ".join(c.name for c in self.schema)
        return f"LazyScanAll {self.table_name} [{cols}] (full repository!)"

    def _batches(self, ctx: ExecutionContext):
        started = time.perf_counter()
        trace_start = len(ctx.trace)
        named = self.binding.scan_all([c.name for c in self.schema], ctx.trace)
        elapsed = time.perf_counter() - started
        _collect_file_deps(ctx, trace_start, self.binding)
        length = len(next(iter(named.values()))) if named else 0
        ctx.rows_extracted += length
        ctx.oplog.record(
            "extract", f"full extraction of {self.table_name}",
            rows=length, seconds=round(elapsed, 4),
        )
        columns = {c.cid: named[c.name] for c in self.schema}
        yield from iter_chunk_slices(Chunk(columns, length), ctx.batch_rows)


# ---------------------------------------------------------------------------
# Unary operators
# ---------------------------------------------------------------------------


class PFilter(PhysicalNode):
    def __init__(self, node: lg.LFilter, child: PhysicalNode) -> None:
        super().__init__(node.output)
        self.child = child
        self.predicate = node.predicate

    def children(self) -> list[PhysicalNode]:
        return [self.child]

    def describe(self) -> str:
        return f"Filter {self.predicate!r}"

    def _batches(self, ctx: ExecutionContext):
        for chunk in self.child.batches(ctx):
            mask = ex.predicate_mask(
                self.predicate.eval(chunk.columns, chunk.length)
            )
            filtered = chunk.filter(mask)
            if filtered.length:
                yield filtered


class PProject(PhysicalNode):
    def __init__(self, node: lg.LProject, child: PhysicalNode) -> None:
        super().__init__(node.output)
        self.child = child
        self.exprs = node.exprs

    def children(self) -> list[PhysicalNode]:
        return [self.child]

    def describe(self) -> str:
        cols = ", ".join(c.name for c in self.schema)
        return f"Project [{cols}]"

    def _batches(self, ctx: ExecutionContext):
        for chunk in self.child.batches(ctx):
            columns = {}
            for out, expr in zip(self.schema, self.exprs):
                columns[out.cid] = expr.eval(chunk.columns, chunk.length)
            yield Chunk(columns=columns, length=chunk.length)


class PSort(PhysicalNode):
    def __init__(self, node: lg.LSort, child: PhysicalNode) -> None:
        super().__init__(node.output)
        self.child = child
        self.keys = node.keys

    def children(self) -> list[PhysicalNode]:
        return [self.child]

    def describe(self) -> str:
        parts = [f"{k!r} {'ASC' if asc else 'DESC'}" for k, asc in self.keys]
        return f"Sort [{', '.join(parts)}]"

    def _sorted(self, chunk: Chunk) -> Chunk:
        if chunk.length <= 1:
            return chunk
        lexsort_keys: list[np.ndarray] = []
        for key_expr, ascending in self.keys:
            col = key_expr.eval(chunk.columns, chunk.length)
            if col.dtype == DataType.VARCHAR:
                values, _count = col.factorize()
                values = values.astype(np.float64)
            else:
                values = col.values.astype(np.float64)
            if not ascending:
                values = -values
            null_rank = (~col.validity()).astype(np.int8)  # NULLS LAST
            # Within one ORDER BY key the null rank dominates the value.
            lexsort_keys.append(null_rank)
            lexsort_keys.append(values)
        # np.lexsort sorts by the LAST key first; our list is primary-first
        # with (null_rank, values) pairs, so reverse it wholesale.
        order = np.lexsort(tuple(reversed(lexsort_keys)))
        return chunk.take(order)

    def _batches(self, ctx: ExecutionContext):
        # A pipeline breaker: its input streams in, is sorted once, and
        # leaves as one chunk.
        chunk = self._sorted(self.child.execute(ctx))
        if chunk.length:
            yield chunk


class PLimit(PhysicalNode):
    def __init__(self, node: lg.LLimit, child: PhysicalNode) -> None:
        super().__init__(node.output)
        self.child = child
        self.limit = node.limit
        self.offset = node.offset

    def children(self) -> list[PhysicalNode]:
        return [self.child]

    def describe(self) -> str:
        return f"Limit {self.limit} OFFSET {self.offset}"

    def _batches(self, ctx: ExecutionContext):
        # Genuinely lazy LIMIT: stop pulling child batches (and whatever
        # work upstream would have done to produce them) once satisfied.
        to_skip = self.offset
        remaining = self.limit  # None = unbounded
        if remaining is not None and remaining <= 0:
            # LIMIT 0 must not pull (and thus extract) a single child batch.
            return
        for chunk in self.child.batches(ctx):
            if to_skip:
                if chunk.length <= to_skip:
                    to_skip -= chunk.length
                    continue
                chunk = chunk.slice(to_skip, chunk.length)
                to_skip = 0
            if remaining is not None and chunk.length > remaining:
                chunk = chunk.slice(0, remaining)
            if chunk.length:
                yield chunk
            if remaining is not None:
                remaining -= chunk.length
                if remaining <= 0:
                    return


class PDistinct(PhysicalNode):
    def __init__(self, node: lg.LDistinct, child: PhysicalNode) -> None:
        super().__init__(node.output)
        self.child = child

    def children(self) -> list[PhysicalNode]:
        return [self.child]

    def describe(self) -> str:
        return "Distinct"

    def _batches(self, ctx: ExecutionContext):
        # Streaming first-occurrence dedup: each batch is first collapsed
        # vectorised (codes are batch-local), then the handful of batch
        # survivors is checked against the distinct rows seen so far.
        # Emission order — first global occurrence — is the same at
        # every batch size.
        seen: Optional[set] = None
        first: Optional[Chunk] = None
        for chunk in self.child.batches(ctx):
            codes = _combined_codes([chunk.columns[c.cid] for c in self.schema])
            _uniques, firsts = np.unique(codes, return_index=True)
            local = chunk.take(np.sort(firsts))
            if first is None:
                # The first batch is all new; its keys are hashed only if
                # a second batch arrives.
                first = local
                yield local
                continue
            if seen is None:
                seen = set(self._row_keys(first))
            fresh = np.zeros(local.length, dtype=bool)
            for i, key in enumerate(self._row_keys(local)):
                if key not in seen:
                    seen.add(key)
                    fresh[i] = True
            if fresh.all():
                yield local
            elif fresh.any():
                yield local.filter(fresh)

    def _row_keys(self, chunk: Chunk):
        cols = [chunk.columns[c.cid] for c in self.schema]
        for i in range(chunk.length):
            yield tuple(_distinct_key(col.value_at(i)) for col in cols)


# ---------------------------------------------------------------------------
# Join
# ---------------------------------------------------------------------------


class PJoin(PhysicalNode):
    def __init__(self, node: lg.LJoin, left: PhysicalNode,
                 right: PhysicalNode) -> None:
        super().__init__(node.output)
        self.left = left
        self.right = right
        self.kind = node.kind
        self.left_keys = node.left_keys
        self.right_keys = node.right_keys
        self.residual = node.residual

    def children(self) -> list[PhysicalNode]:
        return [self.left, self.right]

    def describe(self) -> str:
        if self.left_keys:
            keys = ", ".join(f"#{l}=#{r}" for l, r in
                             zip(self.left_keys, self.right_keys))
            base = f"HashJoin[{self.kind}] on {keys}"
        else:
            base = f"NestedJoin[{self.kind}]"
        if self.residual is not None:
            base += f" residual {self.residual!r}"
        return base

    def _probe_batch(self, batch: Chunk, right: Chunk
                     ) -> tuple[np.ndarray, np.ndarray]:
        """Match one left batch against the materialised build side."""
        if self.left_keys:
            left_cols = [batch.columns[cid] for cid in self.left_keys]
            right_cols = [right.columns[cid] for cid in self.right_keys]
            left_idx, right_idx, _counts = join_indices(left_cols, right_cols)
        else:
            left_idx = np.repeat(np.arange(batch.length), right.length)
            right_idx = np.tile(np.arange(right.length), batch.length)
        if self.residual is not None and len(left_idx):
            frame = {}
            for cid, col in batch.columns.items():
                frame[cid] = col.take(left_idx)
            for cid, col in right.columns.items():
                frame[cid] = col.take(right_idx)
            mask = ex.predicate_mask(
                self.residual.eval(frame, len(left_idx))
            )
            left_idx = left_idx[mask]
            right_idx = right_idx[mask]
        return left_idx, right_idx

    def _batches(self, ctx: ExecutionContext):
        # Streamed hash join: materialise the (metadata-sized) build side
        # once, probe with each left batch as it arrives.  Inner/cross
        # matches flow straight through; a left join holds back only its
        # unmatched rows, emitting the NULL-padded tail last — the same
        # global row order at every batch size.
        right = self.right.execute(ctx)
        unmatched: list[Chunk] = []
        for batch in self.left.batches(ctx):
            left_idx, right_idx = self._probe_batch(batch, right)
            if self.kind == "left":
                matched = np.zeros(batch.length, dtype=bool)
                if len(left_idx):
                    matched[left_idx] = True
                if not matched.all():
                    unmatched.append(batch.filter(~matched))
            if not len(left_idx):
                continue
            columns = {cid: col.take(left_idx)
                       for cid, col in batch.columns.items()}
            for cid, col in right.columns.items():
                columns[cid] = col.take(right_idx)
            yield Chunk(columns=columns, length=len(left_idx))
        if self.kind == "left" and unmatched:
            tail = concat_chunks(unmatched, self.left.schema)
            columns = dict(tail.columns)
            for cid, col in right.columns.items():
                columns[cid] = Column.nulls(col.dtype, tail.length)
            yield Chunk(columns=columns, length=tail.length)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


_MIN_SENTINELS = {
    DataType.BIGINT: np.iinfo(np.int64).max,
    DataType.TIMESTAMP: np.iinfo(np.int64).max,
    DataType.DOUBLE: np.inf,
    DataType.BOOLEAN: True,
}
_MAX_SENTINELS = {
    DataType.BIGINT: np.iinfo(np.int64).min,
    DataType.TIMESTAMP: np.iinfo(np.int64).min,
    DataType.DOUBLE: -np.inf,
    DataType.BOOLEAN: False,
}


class PAggregate(PhysicalNode):
    def __init__(self, node: lg.LAggregate, child: PhysicalNode) -> None:
        super().__init__(node.output)
        self.child = child
        self.group_exprs = node.group_exprs
        self.aggregates = node.aggregates
        self.group_cols = node.output[: len(node.group_exprs)]
        self.agg_cols = node.output[len(node.group_exprs):]

    def children(self) -> list[PhysicalNode]:
        return [self.child]

    def describe(self) -> str:
        groups = ", ".join(repr(g) for g in self.group_exprs) or "<global>"
        aggs = ", ".join(repr(a) for a in self.aggregates)
        return f"Aggregate groups=[{groups}] aggs=[{aggs}]"

    def _batches(self, ctx: ExecutionContext):
        # A pipeline breaker: child batches accumulate and the kernels
        # run once over their concatenation, so the result is
        # bit-identical at every batch size (float reductions are
        # order-sensitive).
        chunk = self._aggregate_chunk(self.child.execute(ctx))
        if chunk.length:
            yield chunk

    def _aggregate_chunk(self, chunk: Chunk) -> Chunk:
        length = chunk.length

        if not self.group_exprs and length == 0:
            # Global aggregate over empty input: one row, COUNT()=0, rest NULL.
            columns: dict[int, Column] = {}
            for out, agg in zip(self.agg_cols, self.aggregates):
                if agg.name == "count":
                    columns[out.cid] = Column.from_values(DataType.BIGINT, [0])
                else:
                    columns[out.cid] = Column.nulls(out.dtype, 1)
            return Chunk(columns=columns, length=1)

        if self.group_exprs:
            group_values = [g.eval(chunk.columns, length)
                            for g in self.group_exprs]
            codes = _combined_codes(group_values)
            uniques, first, inverse = np.unique(
                codes, return_index=True, return_inverse=True
            )
            n_groups = len(uniques)
            order = np.argsort(inverse, kind="stable")
            starts = np.searchsorted(inverse[order], np.arange(n_groups),
                                     side="left")
        else:
            # Global aggregate: one group containing every row, already
            # "sorted" — skip the argsort (hot in concurrent serving).
            group_values = []
            first = np.zeros(0, dtype=np.int64)
            inverse = np.zeros(length, dtype=np.int64)
            n_groups = 1
            order = np.arange(length, dtype=np.int64)
            starts = np.zeros(1, dtype=np.int64)

        columns = {}
        for out, group_col in zip(self.group_cols, group_values):
            columns[out.cid] = group_col.take(first)
        for out, agg in zip(self.agg_cols, self.aggregates):
            columns[out.cid] = self._compute_aggregate(
                agg, out.dtype, chunk, order, starts, inverse, n_groups, length
            )
        return Chunk(columns=columns, length=n_groups)

    def _compute_aggregate(self, agg: ex.AggCall, dtype: DataType, chunk: Chunk,
                           order: np.ndarray, starts: np.ndarray,
                           inverse: np.ndarray, n_groups: int,
                           length: int) -> Column:
        if agg.name == "count" and agg.arg is None:
            counts = np.bincount(inverse, minlength=n_groups).astype(np.int64)
            return Column(DataType.BIGINT, counts)

        assert agg.arg is not None
        col = agg.arg.eval(chunk.columns, length)
        valid = col.validity()

        if agg.distinct:
            value_codes, _n = col.factorize()
            pair = inverse * (np.int64(value_codes.max(initial=0)) + 2) + value_codes
            keep_mask = valid.copy()
            _uniq, keep_first = np.unique(
                np.where(keep_mask, pair, -1), return_index=True
            )
            sel = np.zeros(length, dtype=bool)
            sel[keep_first] = True
            sel &= keep_mask
            subset = np.flatnonzero(sel)
            col = col.take(subset)
            valid = col.validity()
            inverse = inverse[subset]
            length = len(subset)
            order = np.argsort(inverse, kind="stable")
            starts = np.searchsorted(inverse[order], np.arange(n_groups),
                                     side="left")

        ordered_valid = valid[order]
        counts_valid = np.add.reduceat(
            ordered_valid.astype(np.int64), starts
        ) if length else np.zeros(n_groups, dtype=np.int64)
        empty_groups = counts_valid == 0

        if agg.name == "count":
            return Column(DataType.BIGINT, counts_valid)

        if col.dtype == DataType.VARCHAR and agg.name in ("min", "max"):
            codes, n_values = col.factorize()
            sentinel = n_values if agg.name == "min" else -1
            work = np.where(valid, codes, sentinel)[order]
            reducer = np.minimum if agg.name == "min" else np.maximum
            best = reducer.reduceat(work, starts) if length else \
                np.full(n_groups, sentinel)
            uniques = np.unique(col.values.astype(str))
            values = np.empty(n_groups, dtype=object)
            for g in range(n_groups):
                code = int(best[g])
                values[g] = uniques[code] if 0 <= code < n_values else ""
            return Column(DataType.VARCHAR, values,
                          None if not empty_groups.any() else ~empty_groups)

        numeric = col.values.astype(np.float64)
        numeric = np.where(valid, numeric, 0.0)
        ordered = numeric[order]

        if agg.name in ("min", "max"):
            sentinels = _MIN_SENTINELS if agg.name == "min" else _MAX_SENTINELS
            work = np.where(valid, col.values.astype(np.float64),
                            float(sentinels[col.dtype]))[order]
            reducer = np.minimum if agg.name == "min" else np.maximum
            best = reducer.reduceat(work, starts) if length else \
                np.zeros(n_groups)
            result = Column.from_numpy(dtype, best,
                                       None if not empty_groups.any()
                                       else ~empty_groups)
            return result

        sums = np.add.reduceat(ordered, starts) if length else np.zeros(n_groups)
        if agg.name == "sum":
            return Column.from_numpy(
                dtype, sums, None if not empty_groups.any() else ~empty_groups
            )
        if agg.name == "avg":
            with np.errstate(invalid="ignore", divide="ignore"):
                means = sums / np.where(counts_valid == 0, 1, counts_valid)
            return Column.from_numpy(
                DataType.DOUBLE, means,
                None if not empty_groups.any() else ~empty_groups,
            )
        if agg.name == "stddev_samp":
            sq = np.add.reduceat(ordered * ordered, starts) if length else \
                np.zeros(n_groups)
            n = counts_valid.astype(np.float64)
            with np.errstate(invalid="ignore", divide="ignore"):
                variance = (sq - sums * sums / np.where(n == 0, 1, n)) / \
                    np.where(n <= 1, 1, n - 1)
                variance = np.maximum(variance, 0.0)
                result = np.sqrt(variance)
            bad = counts_valid <= 1
            return Column.from_numpy(DataType.DOUBLE, result,
                                     None if not bad.any() else ~bad)
        if agg.name == "median":
            ordered_vals = col.values.astype(np.float64)[order]
            ordered_ok = valid[order]
            medians = np.zeros(n_groups, dtype=np.float64)
            bounds = list(starts) + [length]
            for g in range(n_groups):
                seg = ordered_vals[bounds[g]:bounds[g + 1]]
                ok = ordered_ok[bounds[g]:bounds[g + 1]]
                seg = seg[ok]
                medians[g] = np.median(seg) if len(seg) else 0.0
            return Column.from_numpy(
                dtype, medians,
                None if not empty_groups.any() else ~empty_groups,
            )
        raise ExecutionError(f"unknown aggregate {agg.name}")


# ---------------------------------------------------------------------------
# The run-time rewriting operator (§3.1)
# ---------------------------------------------------------------------------


class PLazyFetch(PhysicalNode):
    def __init__(self, node: lg.LLazyFetch, meta: PhysicalNode) -> None:
        super().__init__(node.output)
        self.meta = meta
        self.node = node

    def children(self) -> list[PhysicalNode]:
        return [self.meta]

    def describe(self) -> str:
        lo, hi = self.node.time_bounds
        bounds = ""
        if lo is not None or hi is not None:
            bounds = f" time_bounds=[{lo}, {hi}]"
        res = f" residuals={len(self.node.residuals)}" if self.node.residuals else ""
        # Promotion state is live (rendered per EXPLAIN, not baked at
        # compile time): how many units would be served eagerly today.
        promoted = getattr(self.node.binding, "promoted", None)
        hot = (f" promoted_units={len(promoted)}"
               if promoted is not None and len(promoted) else "")
        return (
            f"LazyFetch {self.node.table_name} "
            f"keys={list(self.node.binding.key_columns)} "
            f"cols={self.node.needed}{bounds}{res}{hot} "
            "(run-time rewrite point)"
        )

    def _resolve_time_bounds(self) -> tuple[Optional[int], Optional[int]]:
        """Static bounds tightened by parameter-valued ones.

        Dynamic bounds come from prepared-statement placeholders on the
        range column; their values are read per execution (the matching
        predicates also remain in ``residuals``, so pruning here is an
        optimisation, never a semantic change).
        """
        node = self.node
        lo, hi = node.time_bounds
        for op, expr in node.dynamic_bounds:
            value = expr.eval({}, 1).value_at(0)
            if value is None:
                continue  # NULL bound prunes nothing; residuals decide
            value = int(value)
            if op in (">", ">="):
                lo = value if lo is None else max(lo, value)
            else:
                hi = value if hi is None else min(hi, value)
        return (lo, hi)

    def _batches(self, ctx: ExecutionContext):
        meta_chunk = self.meta.execute(ctx)
        node = self.node
        binding = node.binding
        key_names = list(binding.key_columns)

        if meta_chunk.length == 0:
            ctx.trace.append({"op": "rewrite", "table": node.table_name,
                              "files": 0, "note": "metadata selected nothing"})
            return

        keys = {
            name: meta_chunk.columns[cid].values
            for name, cid in zip(key_names, node.meta_key_cids)
        }
        time_bounds = self._resolve_time_bounds()
        ctx.trace.append({
            "op": "rewrite",
            "table": node.table_name,
            "meta_rows": meta_chunk.length,
            "needed": list(node.needed),
            "time_bounds": time_bounds,
        })
        started = time.perf_counter()
        trace_start = len(ctx.trace)
        named = binding.fetch(keys, list(node.needed), time_bounds,
                              ctx.trace)
        elapsed = time.perf_counter() - started
        _collect_file_deps(ctx, trace_start, binding)
        lazy_len = len(next(iter(named.values()))) if named else 0
        ctx.rows_extracted += lazy_len
        ctx.oplog.record(
            "extract", f"lazy fetch from {node.table_name}",
            rows=lazy_len, seconds=round(elapsed, 4),
        )

        name_to_cid = {c.name: c.cid for c in node.lazy_output}
        lazy_frame = {name_to_cid[n]: col for n, col in named.items()
                      if n in name_to_cid}
        lazy_chunk = Chunk(columns=lazy_frame, length=lazy_len)

        # Record/value-level residual predicates (e.g. sample_time windows)
        # run right after extraction, before the join back to metadata.
        for residual in node.residuals:
            if lazy_chunk.length == 0:
                break
            mask = ex.predicate_mask(
                residual.eval(lazy_chunk.columns, lazy_chunk.length)
            )
            lazy_chunk = lazy_chunk.filter(mask)

        left_key_cols = [meta_chunk.columns[cid] for cid in node.meta_key_cids]
        right_key_cols = [lazy_chunk.columns[name_to_cid[n]] for n in key_names]
        left_idx, right_idx, _counts = join_indices(left_key_cols, right_key_cols)

        columns: dict[int, Column] = {}
        for cid, col in meta_chunk.columns.items():
            columns[cid] = col.take(left_idx)
        for cid, col in lazy_chunk.columns.items():
            columns[cid] = col.take(right_idx)
        if len(left_idx):
            yield Chunk(columns=columns, length=len(left_idx))


# ---------------------------------------------------------------------------
# Physical plan construction
# ---------------------------------------------------------------------------


def build_physical(node: lg.LogicalNode,
                   recycler: Optional["Recycler"] = None) -> PhysicalNode:
    """Translate a logical plan 1:1 into physical operators.

    When a recycler is supplied, recyclable nodes (aggregates and lazy
    fetches — the expensive materialisation points) get a stable signature
    so their results can be reused across queries.  Signatures are
    rendered per execution (see :attr:`PhysicalNode.signature`), so
    fragments containing prepared-statement parameters embed the
    *currently bound values*: identical re-executions recycle, different
    bindings can never share an entry.
    """
    if isinstance(node, lg.LScan):
        if isinstance(node.table, SystemTable):
            return PSystemScan(node)
        if getattr(node.table, "disk_backing", None) is not None:
            return PDiskScan(node)
        return PTableScan(node)
    if isinstance(node, lg.LScanAll):
        return PScanAll(node)
    if isinstance(node, lg.LFilter):
        child = build_physical(node.child, recycler)
        if isinstance(child, PDiskScan):
            # Push zone-map prunable conjuncts into the scan.  The
            # filter keeps the full predicate: pruning stays
            # optimisation-only.
            child.prune_conjuncts = prunable_conjuncts(
                node.predicate, child.schema)
        return PFilter(node, child)
    if isinstance(node, lg.LProject):
        return PProject(node, build_physical(node.child, recycler))
    if isinstance(node, lg.LSort):
        return PSort(node, build_physical(node.child, recycler))
    if isinstance(node, lg.LLimit):
        return PLimit(node, build_physical(node.child, recycler))
    if isinstance(node, lg.LDistinct):
        return PDistinct(node, build_physical(node.child, recycler))
    if isinstance(node, lg.LJoin):
        return PJoin(node, build_physical(node.left, recycler),
                     build_physical(node.right, recycler))
    if isinstance(node, lg.LAggregate):
        physical = PAggregate(node, build_physical(node.child, recycler))
        if recycler is not None:
            physical.signature_source = node
        return physical
    if isinstance(node, lg.LLazyFetch):
        physical = PLazyFetch(node, build_physical(node.meta, recycler))
        if recycler is not None:
            physical.signature_source = node
        return physical
    raise ExecutionError(f"no physical operator for {type(node).__name__}")
