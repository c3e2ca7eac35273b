"""Shard aggregates as plan nodes: the split, the gather leaf, the router.

:func:`split_aggregate` splits a compiled plan's aggregate into ordinary
aggregate lists that the unchanged
:class:`~repro.db.plan.physical.PAggregate` kernel computes:

=========  ======================  ===================================
aggregate  per-shard partial       parent merge
=========  ======================  ===================================
COUNT      ``COUNT(x)``            ``SUM`` of the counts
MIN/MAX    ``MIN(x)``/``MAX(x)``   ``MIN``/``MAX``
SUM(int)   ``SUM(x)``              ``SUM``
AVG(int)   ``SUM(x)``, ``COUNT``   ``SUM`` of each, then sum ÷ count
=========  ======================  ===================================

SUM and AVG decompose only over BIGINT arguments: float64 addition of
integers is exact below 2**53, so re-summing per-shard sums reproduces
the single-process result bit for bit.  DISTINCT aggregates, STDDEV,
MEDIAN and floating-point sums do not decompose; those statements run
the parent's own plan with only *extraction* scattered to the owning
shards, which is bit-exact by construction.

Parent and worker compile the same statement text, so their aggregate
lists and parameter slots agree.  :meth:`ShardRouter.route` replaces
the parent's aggregate with the merge (plus the AVG projection) over a
:class:`PShardGather` leaf and keeps every operator above it as
compiled.  The leaf ships the text and the active parameter values to
every worker, which runs :func:`partial_plan` over its shard.  The merge
kernel orders groups by sorted key values, so shard arrival order never
shows in the result.

Neither the leaf nor the merge has a recycler signature: workers check
staleness on every execution, unseen by the parent, so the parent never
caches a gathered result (workers recycle their partials instead).  The
single-process plan stays the cached entry's ``physical_local``, which
keeps ``query_rowpath`` an independent oracle on a sharded warehouse.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from typing import Optional

from repro.db import expr as ex
from repro.db.column import Column
from repro.db.plan import logical as lg
from repro.db.plan.physical import (
    Chunk,
    ExecutionContext,
    PAggregate,
    PhysicalNode,
    PProject,
    build_physical,
)
from repro.db.sql import ast
from repro.db.types import DataType
from repro.errors import ShardError
from repro.shard.executor import ShardedExtractor

# The merge aggregate of each partial state.
_MERGE = {"count": "sum", "min": "min", "max": "max", "sum": "sum"}
# Operators that may sit between a plan's root and its aggregate.
_ABOVE_AGGREGATE = (lg.LFilter, lg.LProject, lg.LSort, lg.LLimit,
                    lg.LDistinct)


@dataclass
class AggregateSplit:
    """One aggregate split into a per-shard partial and a parent merge."""

    local: lg.LAggregate  # the single-process aggregate being split
    partial: lg.LAggregate  # over the original child, on every shard
    merge: lg.LAggregate  # over the gathered partial rows, in the parent
    finish: Optional[lg.LProject]  # AVG = sum / count; None without AVG


def split_aggregate(plan: lg.LogicalNode) -> Optional[AggregateSplit]:
    """Split the aggregate under ``plan``'s post-aggregation operators
    into partial and merge aggregate lists; None when there is no such
    aggregate or some aggregate has no exact partial form."""
    agg = plan
    while isinstance(agg, _ABOVE_AGGREGATE):
        agg = agg.child
    if not isinstance(agg, lg.LAggregate):
        return None
    # Negative cids: never handed out by the binder, so the partial
    # columns can never shadow a column of the surrounding plan.
    fresh = itertools.count(-1, -1)
    n_groups = len(agg.group_exprs)
    partial_cols = [lg.OutCol(next(fresh), col.name, col.dtype)
                    for col in agg.output[:n_groups]]
    merge_cols = list(agg.output[:n_groups])
    partial_aggs: list[ex.AggCall] = []
    merge_aggs: list[ex.AggCall] = []
    finish: list[ex.Expr] = [_ref(col) for col in merge_cols]

    def state(call: ex.AggCall, name: str,
              out: Optional[lg.OutCol] = None) -> ex.BoundRef:
        """Add one partial state and its merge; returns the merged ref."""
        gathered = lg.OutCol(next(fresh), name, call.dtype)
        partial_cols.append(gathered)
        partial_aggs.append(call)
        merged = out or lg.OutCol(next(fresh), name, call.dtype)
        merge_cols.append(merged)
        merge_aggs.append(ex.AggCall(name=_MERGE[call.name],
                                     arg=_ref(gathered), dtype=call.dtype))
        return _ref(merged)

    for call, out in zip(agg.aggregates, agg.output[n_groups:]):
        if call.distinct or call.name not in ("count", "min", "max", "sum",
                                              "avg"):
            return None
        if call.name in ("sum", "avg") and \
                call.arg.dtype is not DataType.BIGINT:
            return None
        if call.name != "avg":
            finish.append(state(call, out.name, out))
            continue
        total = state(ex.AggCall(name="sum", arg=call.arg,
                                 dtype=DataType.BIGINT), f"{out.name}.sum")
        count = state(ex.AggCall(name="count", arg=call.arg,
                                 dtype=DataType.BIGINT), f"{out.name}.count")
        finish.append(ex.BinOp(op="/", left=total, right=count,
                               dtype=DataType.DOUBLE))

    partial = lg.LAggregate(child=agg.child, group_exprs=agg.group_exprs,
                            aggregates=partial_aggs, output=partial_cols)
    merge = lg.LAggregate(
        child=partial, group_exprs=[_ref(c) for c in partial_cols[:n_groups]],
        aggregates=merge_aggs, output=merge_cols)
    has_avg = len(merge_cols) > len(agg.output)  # AVG merges two states
    return AggregateSplit(
        local=agg, partial=partial, merge=merge,
        finish=lg.LProject(child=merge, exprs=finish, output=agg.output)
        if has_avg else None,
    )


def _ref(col: lg.OutCol) -> ex.BoundRef:
    return ex.BoundRef(cid=col.cid, dtype=col.dtype, name=col.name)


def partial_plan(entry, recycler):
    """The worker half: ``entry`` (a compiled plan-cache entry) with its
    aggregate replaced by the per-shard partial, ready to run."""
    split = split_aggregate(entry.optimized)
    if split is None:
        raise ShardError("statement has no shard-decomposable aggregate")
    return dataclasses.replace(
        entry, optimized=split.partial,
        physical=build_physical(split.partial, recycler))


class PShardGather(PhysicalNode):
    """Leaf: run the statement's partial aggregate on every shard and
    concatenate the partial states."""

    def __init__(self, schema: "list[lg.OutCol]", sql: str,
                 executor: ShardedExtractor) -> None:
        super().__init__(schema)
        self.sql = sql
        self.executor = executor

    def describe(self) -> str:
        cols = ", ".join(col.name for col in self.schema)
        return (f"ShardGather shards={self.executor.n_shards} "
                f"partials=[{cols}]")

    def _batches(self, ctx: ExecutionContext):
        shard_results = self.executor.partial_all(self.sql,
                                                  ex.current_param_values())
        for shard_id, (result, report) in enumerate(shard_results):
            # Fold worker-side counters into this execution's context so
            # the session report covers work done anywhere.
            ctx.rows_extracted += report["rows_extracted"]
            ctx.pages_read += report["pages_read"]
            ctx.pages_skipped += report["pages_skipped"]
            ctx.pages_skipped_zone += report["pages_skipped_zone"]
            ctx.trace.append({
                "op": "shard_partial",
                "shard": shard_id,
                "rows": result.row_count,
                "rows_extracted": report["rows_extracted"],
                "rows_extracted_here": report["rows_extracted_here"],
                "rows_coalesced": report["rows_coalesced"],
                "rows_served_eager": report["rows_served_eager"],
                "seconds": round(report["execute_s"], 4),
            })
        length = sum(result.row_count for result, _report in shard_results)
        if length:
            yield Chunk(
                columns={col.cid: Column.concat(
                    [result.columns[i] for result, _report in shard_results])
                    for i, col in enumerate(self.schema)},
                length=length,
            )


class ShardRouter:
    """Decides, per compiled statement, scatter-gather vs local plan."""

    def __init__(self, executor: ShardedExtractor, *, lazy_table: str,
                 allowed_tables: "frozenset[str]") -> None:
        self.executor = executor
        self.lazy_table = lazy_table
        self.allowed_tables = frozenset(allowed_tables)
        self.decomposed = 0
        self.fallbacks = 0

    def route(self, entry, sql: str, recycler):
        """``entry`` with its aggregate scattered to the shards, or
        ``entry`` unchanged when the statement does not decompose."""
        # Only plans that touch the lazy data table (and nothing outside
        # the sharded schema) scatter; metadata-only and sys.* queries
        # stay parent-local — the parent holds full metadata.
        if not (self.lazy_table in entry.tables
                and entry.tables <= self.allowed_tables):
            return entry
        # Shards partition the files, so one table or view (the per-file
        # join of the lazy view) partitions with them; separate FROM
        # items or subqueries could pair rows that live on two shards.
        stmt = entry.stmt
        split = (split_aggregate(entry.optimized)
                 if len(stmt.from_items) == 1
                 and isinstance(stmt.from_items[0], ast.TableRef) else None)
        if split is None:
            self.fallbacks += 1
            return entry
        merged: PhysicalNode = PAggregate(
            split.merge,
            PShardGather(split.partial.output, sql, self.executor))
        if split.finish is not None:
            merged = PProject(split.finish, merged)
        self.decomposed += 1
        return dataclasses.replace(
            entry,
            physical=build_physical(entry.optimized, recycler,
                                    substitute=(split.local, merged)),
            physical_local=entry.physical)

    def explain_section(self, routed: bool) -> str:
        """The EXPLAIN extra: how this statement runs across the shards."""
        how = ("partial aggregate on every shard, merged here (ShardGather)"
               if routed else
               "single plan; extraction scattered to owning shards")
        return (f"== sharded execution ({self.executor.n_shards} shards) "
                f"==\n{how}")
