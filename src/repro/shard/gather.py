"""The scatter-gather physical node and the engine-side router.

:class:`PShardGather` replaces a decomposed plan's physical root: at
execution time it runs the partial SQL on every shard worker
(concurrently), concatenates the partial rows into an in-memory gather
table, and runs the combine SQL over it — producing the exact chunk the
local plan would have.

Correctness notes:

* ``signature_source`` stays ``None``, so the recycler never caches a
  gathered result in the parent.  The parent does not observe worker-
  side file rewrites for decomposed queries (each worker runs its own
  staleness checks on every execution), so parent-side caching could
  serve stale data.  Workers have their own plan and extraction caches,
  which is where repeat-query economics live.
* The combine runs in a **fresh scratch Database per execution**: one
  cached plan serves concurrent sessions, so a shared mutable gather
  table would race.
* The inner (single-process) plan is kept as the node's child — EXPLAIN
  shows the full scattered plan beneath the gather — and as the cached
  entry's ``physical_local``, which keeps ``query_rowpath`` an
  independent single-process oracle even on a sharded warehouse.

:class:`ShardRouter` hooks :meth:`Database._compile_sql`: on every plan-
cache miss it decides whether the fresh entry decomposes, validates the
generated SQL by *binding it* (partial against the parent catalog,
combine against a scratch gather catalog, output dtypes against the
local plan), and wraps the entry if — and only if — everything lines up.
"""

from __future__ import annotations

import dataclasses
import logging
from typing import Optional

from repro.db import expr as ex
from repro.db.column import Column
from repro.db.plan.logical import bind_select
from repro.db.plan.physical import Chunk, ExecutionContext, PhysicalNode
from repro.db.sql.parser import parse_statement
from repro.db.table import ColumnSpec, TableSchema
from repro.db.types import DataType
from repro.shard.decompose import (
    GATHER_TABLE,
    ShardPlan,
    decompose_select,
    exact_sum_columns,
)
from repro.shard.executor import ShardedExtractor

logger = logging.getLogger("repro.shard")


def _fresh_combine_db():
    """A scratch engine holding only the gather table's schema."""
    from repro.db.exec.engine import Database

    db = Database(enable_recycler=False, plan_cache_size=0)
    return db


def _create_gather_table(db, gather_columns) -> None:
    db.catalog.create_schema(GATHER_TABLE[0], if_not_exists=True)
    db.catalog.create_table(
        GATHER_TABLE,
        TableSchema(columns=[ColumnSpec(name=name, dtype=dtype)
                             for name, dtype in gather_columns]),
    )


class PShardGather(PhysicalNode):
    """Scatter partial SQL to every shard, gather, combine, return."""

    def __init__(self, schema, inner: PhysicalNode, plan: ShardPlan,
                 gather_columns: "list[tuple[str, DataType]]",
                 executor: ShardedExtractor) -> None:
        super().__init__(schema)
        self.inner = inner
        self.plan = plan
        self.gather_columns = gather_columns
        self.executor = executor

    def children(self) -> "list[PhysicalNode]":
        return [self.inner]

    def describe(self) -> str:
        return (f"ShardGather shards={self.executor.n_shards} "
                f"gather_cols={len(self.gather_columns)}")

    def _params(self) -> "tuple[dict | None, dict | None]":
        values = ex.current_param_values() or {}
        remap = {f"s{slot}": value for slot, value in values.items()}
        partial = ({name: remap[name]
                    for name in self.plan.partial_param_names}
                   if self.plan.partial_param_names else None)
        combine = ({name: remap[name]
                    for name in self.plan.combine_param_names}
                   if self.plan.combine_param_names else None)
        return partial, combine

    def _batches(self, ctx: ExecutionContext):
        partial_params, combine_params = self._params()
        shard_results = self.executor.query_all(self.plan.partial_sql,
                                                partial_params)
        for shard_id, (result, report) in enumerate(shard_results):
            # Fold worker-side counters into this execution's context so
            # the session report covers work done anywhere.
            ctx.rows_extracted += report.get("rows_extracted", 0)
            ctx.pages_read += report.get("pages_read", 0)
            ctx.pages_skipped += report.get("pages_skipped", 0)
            ctx.pages_skipped_zone += report.get("pages_skipped_zone", 0)
            ctx.trace.append({
                "op": "shard_partial",
                "shard": shard_id,
                "rows": result.row_count,
                "rows_extracted": report.get("rows_extracted", 0),
                "rows_extracted_here": report.get("rows_extracted_here", 0),
                "rows_coalesced": report.get("rows_coalesced", 0),
                "rows_served_eager": report.get("rows_served_eager", 0),
                "seconds": round(report.get("execute_s", 0.0), 4),
            })

        gathered: dict[str, Column] = {}
        for index, (name, _dtype) in enumerate(self.gather_columns):
            gathered[name] = Column.concat(
                [result.columns[index] for result, _report in shard_results])

        combine_db = _fresh_combine_db()
        _create_gather_table(combine_db, self.gather_columns)
        combine_db.bulk_insert(GATHER_TABLE, gathered)
        combined = combine_db.query(self.plan.combine_sql, combine_params)
        ctx.trace.append({"op": "shard_combine",
                          "partial_rows": sum(r.row_count
                                              for r, _rep in shard_results),
                          "rows": combined.row_count})
        if combined.row_count:
            yield Chunk(
                columns={out.cid: combined.columns[i]
                         for i, out in enumerate(self.schema)},
                length=combined.row_count,
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

    def _eligible(self, entry) -> bool:
        # Only plans that touch the lazy data table (and nothing outside
        # the sharded schema) scatter; metadata-only and sys.* queries
        # stay parent-local — the parent holds full metadata.
        return (self.lazy_table in entry.tables
                and entry.tables <= self.allowed_tables)

    def _validated_plan(self, db, stmt
                        ) -> "tuple[ShardPlan, list] | None":
        plan = decompose_select(stmt)
        if plan is None:
            return None
        partial_stmt = parse_statement(plan.partial_sql)
        bound = bind_select(db.catalog, partial_stmt)
        gather_columns = [(col.name, col.dtype) for col in bound.output]
        # SUM/AVG decompose only over exact integer addition: a partial
        # sum that binds DOUBLE would re-associate float rounding.
        exact = set(exact_sum_columns(plan))
        for name, dtype in gather_columns:
            if name in exact and dtype is not DataType.BIGINT:
                return None
        scratch = _fresh_combine_db()
        _create_gather_table(scratch, gather_columns)
        combine_stmt = parse_statement(plan.combine_sql)
        combine_bound = bind_select(scratch.catalog, combine_stmt)
        return plan, gather_columns, combine_bound

    def maybe_shard(self, db, entry):
        """Wrap a fresh plan-cache entry if it decomposes; else return it
        unchanged.  Never raises — any surprise falls back local."""
        try:
            if not self._eligible(entry):
                return entry
            validated = self._validated_plan(db, entry.stmt)
            if validated is None:
                self.fallbacks += 1
                return entry
            plan, gather_columns, combine_bound = validated
            outer = entry.optimized.output
            if len(combine_bound.output) != len(outer) or any(
                    got.dtype is not want.dtype
                    for got, want in zip(combine_bound.output, outer)):
                logger.debug("shard fallback: combine output mismatch "
                             "for %s", plan.combine_sql)
                self.fallbacks += 1
                return entry
            gather = PShardGather(outer, entry.physical, plan,
                                  gather_columns, self.executor)
            self.decomposed += 1
            return dataclasses.replace(entry, physical=gather,
                                       physical_local=entry.physical)
        except Exception:
            logger.debug("shard decomposition failed; running locally",
                         exc_info=True)
            self.fallbacks += 1
            return entry

    def explain_section(self, db, stmt) -> "Optional[str]":
        """The EXPLAIN extra: shard fan-out for decomposable statements,
        a scattered-extraction note for the rest."""
        try:
            validated = self._validated_plan(db, stmt)
        except Exception:
            validated = None
        n = self.executor.n_shards
        if validated is None:
            return (f"== sharded execution ({n} shards) ==\n"
                    f"single plan; extraction scattered to owning shards")
        plan = validated[0]
        return "\n".join([
            f"== sharded execution ({n} shards) ==",
            f"scatter (per shard): {plan.partial_sql}",
            f"gather: {'.'.join(GATHER_TABLE)}"
            f"[{', '.join(name for name, _dt in validated[1])}]",
            f"combine: {plan.combine_sql}",
        ])
