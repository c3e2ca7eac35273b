"""The Database facade: parse → bind → optimise → execute.

This is the MonetDB stand-in the demo drives.  Besides running SQL it
exposes the introspection surface the demo scenario needs:

* :meth:`Database.explain` — compile-time plans before/after optimisation
  plus the physical plan (demo items 4 and 6),
* :attr:`Database.last_trace` — the operators injected at run time by the
  rewriting operator (demo item 5),
* :attr:`Database.recycler` — cache contents and update behaviour (7),
* :attr:`Database.oplog` — the ordered operation log (8).

Query compilation is **plan-cached**: compiled SELECT plans are kept in a
size-bounded LRU keyed by (normalised SQL text, catalog schema
epoch), so re-running the same — or the same *parameterised* — statement
skips parsing, binding and optimisation entirely.  DDL bumps the schema
epoch (every cached plan becomes unreachable); DML evicts the plans that
scan the mutated table through the same :meth:`Database._invalidate_for`
path that already drops recycler intermediates.

Every SELECT runs one way: a :class:`StreamingQuery` pulls row batches
through the physical plan.  A cursor consumes them as they come, so
consumption can start before the full result (or, behind a LIMIT, even
the full extraction) exists; :meth:`Database.query`, :meth:`Database.
execute` and EXPLAIN ANALYZE drain the same stream into one
:class:`~repro.db.exec.result.Result`.  Whichever consumes it, a query
gets the same report counters, journal entry and span tree.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import Mapping, Optional, Sequence

import numpy as np

from repro.db import expr as ex
from repro.db.catalog import Catalog, LazyTableBinding
from repro.db.column import Column
from repro.db.exec.recycler import Recycler
from repro.db.exec.result import Result
from repro.db.plan import explain as explain_mod
from repro.db.plan.logical import LogicalNode, bind_select
from repro.db.plan.optimizer import optimize
from repro.db.plan.physical import (
    DEFAULT_BATCH_ROWS,
    ExecutionContext,
    PhysicalNode,
    build_physical,
    concat_chunks,
    iter_chunk_slices,
)
from repro.db.sql import ast
from repro.db.sql.parameters import (
    ParamSpec,
    collect_bound_params,
    resolve_param_values,
    substitute_ast_params,
)
from repro.db.sql.parser import parse_prepared, parse_statement
from repro.db.table import ColumnSpec, ForeignKeySpec, Table, TableSchema
from repro.db.types import DataType, type_from_name
from repro.errors import BindError, ExecutionError, SQLError
from repro.obs import journal as journal_mod
from repro.obs.journal import QueryJournal
from repro.obs.tracing import QueryProfile, span_tree
from repro.util.oplog import OperationLog

logger = logging.getLogger("repro.db.engine")

ParamValues = "Sequence | Mapping | None"


@dataclass
class QueryReport:
    """Timings and counters for the most recent query."""

    sql: str = ""
    parse_s: float = 0.0
    bind_s: float = 0.0
    optimize_s: float = 0.0
    execute_s: float = 0.0
    rows_out: int = 0
    rows_extracted: int = 0
    operators_run: int = 0
    # Whether compilation was satisfied from the plan cache (parse/bind/
    # optimize were skipped; parse_s then only covers lexing the key).
    plan_cache_hit: bool = False
    # Disk-backed scan I/O (storage engine): pages fetched vs pages of
    # columns the query never touched.
    pages_read: int = 0
    pages_skipped: int = 0
    # Pages of projected columns a zone map proved dead for the scan's
    # pushed-down conjuncts (skipped before decode).
    pages_skipped_zone: int = 0
    # Concurrent serving: rows this query's session extracted itself vs
    # rows it obtained by waiting on another session's in-flight
    # extraction (single-flight coalescing).
    rows_extracted_here: int = 0
    rows_coalesced: int = 0
    # Adaptive promotion: rows served from eagerly materialized
    # (promoted) segments instead of extraction, and how many promoted
    # units this query read.
    rows_served_eager: int = 0
    promotions: int = 0
    # sys.queries correlation: the journal entry id this execution wrote
    # (0 until journaled) and a short stable hash of its bound parameter
    # values ("" for parameterless runs).  Slow-log lines and bench JSON
    # carry both, so any log record joins back to the query journal.
    journal_id: int = 0
    params_hash: str = ""
    # The query's span tree (repro.obs.tracing.span_tree), filled when
    # the engine ran with trace_spans on or under EXPLAIN ANALYZE.
    # Excluded from equality: two runs with identical counters are the
    # same report even though their span timings always differ.
    spans: Optional[dict] = field(default=None, repr=False, compare=False)

    @property
    def plan_s(self) -> float:
        """Compile-side cost: parse + bind + optimise."""
        return self.parse_s + self.bind_s + self.optimize_s

    @property
    def total_s(self) -> float:
        return self.parse_s + self.bind_s + self.optimize_s + self.execute_s

    def to_dict(self, *, include_spans: bool = False) -> dict:
        """Every timing and counter as plain data.

        Field-driven on purpose: counters added to the dataclass in
        later PRs land in bench JSON artifacts and service logs without
        anyone re-listing them.
        """
        data = {
            f.name: getattr(self, f.name)
            for f in fields(self) if f.name != "spans"
        }
        data["plan_s"] = self.plan_s
        data["total_s"] = self.total_s
        if include_spans and self.spans is not None:
            data["spans"] = self.spans
        return data


@dataclass
class _CachedPlan:
    """One compiled SELECT, shareable across executions and threads.

    Physical operators are stateless at execution time (all run-time
    state lives in the per-execution :class:`ExecutionContext`, and
    parameter values travel through a context variable), so one compiled
    plan safely serves concurrent sessions.
    """

    stmt: ast.SelectStmt
    naive: LogicalNode
    optimized: LogicalNode
    physical: PhysicalNode
    spec: ParamSpec
    bound_params: list = field(default_factory=list)
    tables: frozenset = frozenset()
    # When a shard router wrapped ``physical`` in a scatter-gather node,
    # the original single-process plan is preserved here so the rowpath
    # oracle (and anything that needs an in-process plan) still has one.
    physical_local: Optional[PhysicalNode] = None


@dataclass
class _CachedStatement:
    """A parsed non-SELECT statement (no plan to cache, but repeat
    executions — ``executemany`` DML batches especially — skip lexing
    and parsing).  Safe to share: execution resolves table names against
    the live catalog and parameter substitution never mutates the AST.
    """

    stmt: ast.Statement
    spec: ParamSpec
    # Non-SELECT statements resolve table names at execution time, so
    # DML never invalidates them; present for uniform cache handling.
    tables: frozenset = frozenset()


def _fold_trace_counters(report: QueryReport, trace: list[dict]) -> None:
    """Accumulate per-operator trace entries into the query report.

    Shared by the batch executor and the rowpath interpreter so the
    extraction/coalescing/promotion counters can never drift apart.
    """
    for entry in trace:
        op = entry.get("op")
        if op == "extract":
            report.rows_extracted_here += entry.get("rows", 0)
        elif op == "extract_wait":
            report.rows_coalesced += entry.get("rows", 0)
        elif op == "promoted_fetch":
            report.rows_served_eager += entry.get("rows", 0)
            report.promotions += entry.get("records", 0)
            # Promoted reads are disk-backed page I/O like PDiskScan's.
            report.pages_read += entry.get("pages_read", 0)
        elif op == "shard_partial":
            # Work a shard worker did on the parent's behalf counts in
            # the parent's report just as if it had run in-process.
            report.rows_extracted_here += entry.get("rows_extracted_here", 0)
            report.rows_coalesced += entry.get("rows_coalesced", 0)
            report.rows_served_eager += entry.get("rows_served_eager", 0)


def _fill_ctx_counters(report: QueryReport, ctx: ExecutionContext) -> None:
    """Copy execution-context counters into the report (all paths)."""
    report.rows_extracted = ctx.rows_extracted
    report.operators_run = ctx.operators_run
    report.pages_read = ctx.pages_read
    report.pages_skipped = ctx.pages_skipped
    report.pages_skipped_zone = ctx.pages_skipped_zone
    _fold_trace_counters(report, ctx.trace)


def _plan_tables(node: LogicalNode) -> set[str]:
    """Qualified names of every base/lazy table a plan touches."""
    from repro.db.plan import logical as lg

    names: set[str] = set()
    stack = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, lg.LScan):
            names.add(current.qualified_name)
        elif isinstance(current, (lg.LScanAll, lg.LLazyFetch)):
            names.add(current.table_name)
        stack.extend(current.children())
    return names


class CompletedQuery:
    """An already-materialised execution behind the cursor protocol.

    DDL/DML statements, EXPLAIN, and queries served remotely by a
    :class:`~repro.service.service.WarehouseService` finish before the
    cursor sees them; this adapter gives them the same ``names`` /
    ``dtypes`` / ``batches()`` surface a :class:`StreamingQuery` has.
    """

    def __init__(self, result: Result, report: "QueryReport",
                 trace: list[dict], *, is_rowset: bool = True,
                 rowcount: Optional[int] = None) -> None:
        self.result = result
        self.report = report
        self.trace = trace
        self.is_rowset = is_rowset
        self.rowcount = (rowcount if rowcount is not None
                         else result.row_count if is_rowset else -1)

    @property
    def names(self) -> list[str]:
        return self.result.names

    @property
    def dtypes(self) -> list[DataType]:
        return self.result.dtypes

    def batches(self):
        if self.is_rowset and self.result.row_count:
            yield self.result

    def close(self) -> None:  # protocol symmetry with StreamingQuery
        pass


class StreamingQuery:
    """One SELECT being pulled through its physical plan.

    This is the engine's one SELECT runner.  A cursor pulls
    :meth:`batches` on demand: fully streamable plans (scan → filter →
    project [→ limit]) yield their first rows before the scan's full
    output ever exists, and a LIMIT stops upstream work early.
    :meth:`drain` runs the same stream to its end and returns one
    :class:`Result` (``Database.query``, ``Database.execute``, EXPLAIN
    ANALYZE).

    The per-query :class:`QueryReport` fills progressively; counters,
    the journal entry, the span tree and the oplog "done" record land
    when the stream is exhausted, fails, or :meth:`close` is called.
    """

    def __init__(self, db: "Database", entry: _CachedPlan, sql: str,
                 params: ParamValues, report: "QueryReport",
                 batch_rows: Optional[int], *,
                 profile: Optional[QueryProfile] = None) -> None:
        self._values = resolve_param_values(entry.spec, entry.bound_params,
                                            params)
        report.params_hash = journal_mod.params_hash(self._values)
        self.db = db
        self.entry = entry
        self.sql = sql
        self.report = report
        self.is_rowset = True
        self.names = [c.name for c in entry.optimized.output]
        self.dtypes = [c.dtype for c in entry.optimized.output]
        self.rowcount = -1  # unknown until the stream is exhausted
        if profile is None and db.trace_spans:
            profile = QueryProfile()
        self.profile = profile
        self._batch_rows = batch_rows
        self._ctx = ExecutionContext(oplog=db.oplog, recycler=db.recycler,
                                     profile=profile, batch_rows=batch_rows)
        self.trace = self._ctx.trace
        self._finished = False
        db.last_plan_logical = entry.naive
        db.last_plan_optimized = entry.optimized
        db.last_plan_physical = entry.physical
        db.oplog.record("query", "execute",
                        sql=sql[:120].replace("\n", " "))
        self._gen = entry.physical.batches(self._ctx)

    def _chunks(self):
        """Pull the plan root's chunks, timing every pull."""
        while not self._finished:
            started = time.perf_counter()
            try:
                # Parameter values are (re)installed around every pull:
                # interleaved cursors on one thread must each see their
                # own bindings.
                with ex.active_params(self._values):
                    chunk = next(self._gen, None)
            except Exception as exc:
                self.report.execute_s += time.perf_counter() - started
                self._finalize(status="error", error=str(exc))
                raise
            self.report.execute_s += time.perf_counter() - started
            if chunk is None:
                self._finalize()
                return
            self.report.rows_out += chunk.length
            yield chunk

    def batches(self):
        """Yield one :class:`Result` per row batch of the projection."""
        out_cols = self.entry.optimized.output
        for chunk in self._chunks():
            for part in iter_chunk_slices(chunk, self._batch_rows):
                yield Result(self.names,
                             [part.columns[c.cid] for c in out_cols])

    def drain(self) -> Result:
        """Run the stream to its end; the whole result in one piece."""
        out_cols = self.entry.optimized.output
        chunk = concat_chunks(list(self._chunks()), out_cols)
        return Result(self.names, [chunk.columns[c.cid] for c in out_cols])

    def close(self) -> None:
        """Abandon the stream (partial consumption still reports)."""
        if not self._finished:
            self._gen.close()
            self._finalize()

    def _finalize(self, *, status: str = "ok", error: str = "") -> None:
        if self._finished:
            return
        self._finished = True
        ctx, report = self._ctx, self.report
        _fill_ctx_counters(report, ctx)
        # A closed-early stream journals as "ok": partial consumption
        # (e.g. a satisfied LIMIT at the cursor) is a finished query.
        report.journal_id = self.db.journal.record_report(
            report, status=status, error=error)
        if self.profile is not None:
            report.spans = span_tree(self.sql, report, self.profile,
                                     ctx.trace)
        self.rowcount = report.rows_out
        self.db.last_trace = ctx.trace
        self.db.last_report = report
        self.db.oplog.record(
            "query", "done",
            rows=report.rows_out,
            seconds=round(report.execute_s, 4),
            extracted=ctx.rows_extracted,
        )


class Database:
    """An in-process analytical database with Lazy-ETL hooks."""

    def __init__(
        self,
        *,
        oplog: Optional[OperationLog] = None,
        recycler_budget_bytes: int = 64 * 1024 * 1024,
        recycler_policy: str = "lru",
        enable_recycler: bool = True,
        enable_lazy_rewrite: bool = True,
        enable_pruning: bool = True,
        plan_cache_size: int = 128,
        trace_spans: bool = False,
        journal: Optional[QueryJournal] = None,
        journal_capacity: int = journal_mod.DEFAULT_JOURNAL_CAPACITY,
    ) -> None:
        self.catalog = Catalog()
        # Every finished SELECT (batch or rowpath, EXPLAIN ANALYZE too;
        # success or failure) lands in the journal, queryable as
        # sys.queries / sys.sessions on any connection.
        self.journal = journal if journal is not None \
            else QueryJournal(journal_capacity)
        # Imported here, not at module top: systables needs the table
        # layer, whose package init imports this engine module.
        from repro.obs.systables import install_engine_system_tables

        install_engine_system_tables(self)
        # Explicit None check: an empty OperationLog is falsy (len == 0).
        self.oplog = oplog if oplog is not None else OperationLog()
        self.recycler: Optional[Recycler] = (
            Recycler(recycler_budget_bytes, recycler_policy)
            if enable_recycler else None
        )
        self.enable_lazy_rewrite = enable_lazy_rewrite
        self.enable_pruning = enable_pruning
        # When on, every SELECT carries a span tree in ``report.spans``,
        # one span per operator, however its batches are consumed.
        self.trace_spans = trace_spans
        self.plan_cache_size = plan_cache_size
        self._plan_cache: \
            "OrderedDict[tuple, _CachedPlan | _CachedStatement]" = \
            OrderedDict()
        # Service worker threads compile and invalidate concurrently.
        self._plan_lock = threading.RLock()
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0
        self.last_trace: list[dict] = []
        self.last_plan_logical: Optional[LogicalNode] = None
        self.last_plan_optimized: Optional[LogicalNode] = None
        self.last_plan_physical: Optional[PhysicalNode] = None
        self.last_report = QueryReport()
        # Sharded scatter-gather hook: when a warehouse enables sharding
        # it installs a repro.shard.gather.ShardRouter here; every plan-
        # cache miss is offered to it.  None (the default) leaves the
        # compile path byte-identical to the single-process engine.
        self.shard_router = None

    # -- public API -----------------------------------------------------------

    def execute(self, sql: str, params: ParamValues = None) -> Result:
        """Run any statement; DDL/DML return a one-cell status result."""
        kind, payload, report = self._compile_sql(sql)
        if kind == "select":
            return StreamingQuery(self, payload, sql, params, report,
                                  None).drain()
        result, _rowcount = self._execute_other(payload, params)
        return result

    def query(self, sql: str, params: ParamValues = None) -> Result:
        """Run a SELECT (raises on anything else)."""
        kind, payload, report = self._compile_sql(sql)
        if kind != "select":
            raise SQLError("query() requires a SELECT statement")
        return StreamingQuery(self, payload, sql, params, report,
                              None).drain()

    def query_rowpath(self, sql: str, params: ParamValues = None
                      ) -> tuple[Result, QueryReport, list]:
        """Execute a SELECT through the row-at-a-time reference interpreter.

        Same compilation pipeline (and plan cache) as :meth:`query`, but
        the physical plan is walked tuple-at-a-time by
        :mod:`repro.db.exec.rowpath` instead of the vectorised operators.
        This is the oracle half of the differential tests and the
        baseline engine for bench E15; it never consults the recycler, so
        repeated runs measure honest row-at-a-time cost.
        """
        from repro.db.exec import rowpath

        kind, entry, report = self._compile_sql(sql)
        if kind != "select":
            raise SQLError("query_rowpath() requires a SELECT statement")
        values = resolve_param_values(entry.spec, entry.bound_params, params)
        report.params_hash = journal_mod.params_hash(values)
        ctx = ExecutionContext(oplog=self.oplog, recycler=None,
                               zone_pruning=False)
        self.oplog.record("query", "execute (rowpath)",
                          sql=sql[:120].replace("\n", " "))
        started = time.perf_counter()
        with ex.active_params(values):
            columns, n_rows = rowpath.execute_rowpath(
                entry.physical_local or entry.physical,
                entry.optimized.output, ctx)
        report.execute_s = time.perf_counter() - started
        report.rows_out = n_rows
        _fill_ctx_counters(report, ctx)
        report.journal_id = self.journal.record_report(report)
        self.oplog.record(
            "query", "done (rowpath)",
            rows=n_rows,
            seconds=round(report.execute_s, 4),
            extracted=ctx.rows_extracted,
        )
        names = [c.name for c in entry.optimized.output]
        result = Result(names, [columns[c.cid]
                                for c in entry.optimized.output])
        return result, report, ctx.trace

    def open_query(self, sql: str, params: ParamValues = None,
                   *, batch_rows: Optional[int] = None
                   ) -> "StreamingQuery | CompletedQuery":
        """Start a statement for cursor-style batched consumption.

        SELECTs return a :class:`StreamingQuery` whose batches are pulled
        on demand (its ``report`` and ``trace`` are this execution's
        own, so concurrent sessions never read each other's); everything
        else executes immediately and comes back as a
        :class:`CompletedQuery`.
        """
        kind, payload, report = self._compile_sql(sql)
        if kind == "select":
            return StreamingQuery(self, payload, sql, params, report,
                                  batch_rows or DEFAULT_BATCH_ROWS)
        stmt, _spec = payload
        result, rowcount = self._execute_other(payload, params)
        is_rowset = isinstance(stmt, ast.ExplainStmt)
        return CompletedQuery(result, report, [], is_rowset=is_rowset,
                              rowcount=None if is_rowset else rowcount)

    def explain(self, sql: str) -> str:
        """Compile-time plan report for a SELECT."""
        stmt = parse_statement(sql)
        if isinstance(stmt, ast.ExplainStmt):
            stmt = stmt.select
        if not isinstance(stmt, ast.SelectStmt):
            raise SQLError("explain() requires a SELECT statement")
        return self._explain_select(stmt)

    def explain_analyze(self, sql: str, params: ParamValues = None) -> str:
        """Execute a SELECT and render the plan with measured actuals.

        Unlike :meth:`explain` this *runs* the query: each operator line
        carries wall time (total/self), rows out and page I/O, with the
        run-time extraction events nested beneath the operator that
        triggered them.  Equivalent SQL surface: ``EXPLAIN ANALYZE
        SELECT ...``.
        """
        stmt, spec = parse_prepared(sql)
        if isinstance(stmt, ast.ExplainStmt):
            stmt = stmt.select
        if not isinstance(stmt, ast.SelectStmt):
            raise SQLError("explain_analyze() requires a SELECT statement")
        return self._explain_analyze(stmt, spec, sql, params)

    # -- compilation & the plan cache ------------------------------------------

    def _plan(self, stmt: ast.SelectStmt, spec: Optional[ParamSpec],
              report: QueryReport) -> _CachedPlan:
        """Bind, optimise and build one SELECT, timing each phase."""
        started = time.perf_counter()
        naive = bind_select(self.catalog, stmt)
        # Bind twice: optimisation mutates nodes, and we keep the pre-
        # optimisation plan for EXPLAIN/demo display.
        bound = bind_select(self.catalog, stmt)
        report.bind_s = time.perf_counter() - started
        started = time.perf_counter()
        optimized = optimize(
            bound,
            enable_lazy_rewrite=self.enable_lazy_rewrite,
            enable_pruning=self.enable_pruning,
        )
        physical = build_physical(optimized, self.recycler)
        report.optimize_s = time.perf_counter() - started
        return _CachedPlan(
            stmt=stmt, naive=naive, optimized=optimized, physical=physical,
            spec=spec, bound_params=collect_bound_params(optimized),
            tables=frozenset(_plan_tables(optimized)),
        )

    @contextmanager
    def _journal_errors(self, report: QueryReport):
        """Journal a statement that fails before it executes: sys.queries
        is the full failure record."""
        try:
            yield
        except Exception as exc:
            report.journal_id = self.journal.record_report(
                report, status="error", error=str(exc))
            raise

    def _compile_sql(self, sql: str):
        """Lex, consult the plan cache, and (on a miss) parse/bind/optimise.

        Returns ``(kind, payload, report)`` where ``kind`` is ``'select'``
        (payload: :class:`_CachedPlan`) or ``'other'`` (payload:
        ``(statement, ParamSpec)``); ``report`` is a fresh
        :class:`QueryReport` carrying the compile timings.
        """
        report = QueryReport(sql=sql)
        started = time.perf_counter()
        # The key is the normalised (stripped) statement text: an exact
        # string hash keeps cache hits O(len(sql)) with no lexing, which
        # is what makes prepared re-execution essentially free.  Textual
        # variants of one query simply compile into separate entries.
        key = (sql.strip(), self.catalog.epoch)
        with self._plan_lock:
            entry = self._plan_cache.get(key)
            if entry is not None:
                self._plan_cache.move_to_end(key)
                self.plan_cache_hits += 1
        if entry is not None:
            report.parse_s = time.perf_counter() - started
            report.plan_cache_hit = True
            if isinstance(entry, _CachedPlan):
                return "select", entry, report
            return "other", (entry.stmt, entry.spec), report

        with self._journal_errors(report):
            stmt, spec = parse_prepared(sql)
            report.parse_s = time.perf_counter() - started
            if not isinstance(stmt, ast.SelectStmt):
                self._store_cache_entry(key, _CachedStatement(stmt, spec))
                return "other", (stmt, spec), report
            entry = self._plan(stmt, spec, report)
        if self.shard_router is not None:
            entry = self.shard_router.maybe_shard(self, entry)
        self._store_cache_entry(key, entry)
        return "select", entry, report

    def _store_cache_entry(self, key: tuple, entry) -> None:
        if self.plan_cache_size <= 0:
            return
        with self._plan_lock:
            self.plan_cache_misses += 1
            self._plan_cache[key] = entry
            self._plan_cache.move_to_end(key)
            while len(self._plan_cache) > self.plan_cache_size:
                self._plan_cache.popitem(last=False)

    def plan_cache_len(self) -> int:
        with self._plan_lock:
            return len(self._plan_cache)

    def clear_plan_cache(self) -> None:
        with self._plan_lock:
            self._plan_cache.clear()

    # -- non-SELECT execution ---------------------------------------------------

    def _execute_other(self, payload, params: ParamValues
                       ) -> tuple[Result, int]:
        """Run a non-SELECT; returns its status Result and the affected-
        row count (-1 for DDL/EXPLAIN)."""
        stmt, spec = payload
        if isinstance(stmt, ast.ExplainStmt):
            if stmt.analyze:
                text = self._explain_analyze(stmt.select, spec,
                                             stmt.sql_text, params)
            else:
                # Plain EXPLAIN never executes: parameter values (if any)
                # are irrelevant and placeholders appear in the plan.
                text = self._explain_select(stmt.select)
            return Result(["plan"],
                          [Column.from_values(DataType.VARCHAR, [text])]), -1
        values = resolve_param_values(spec, [], params)
        if values is not None:
            stmt = substitute_ast_params(stmt, values)
        handler = {
            ast.CreateTableStmt: self._create_table,
            ast.CreateViewStmt: self._create_view,
            ast.CreateSchemaStmt: self._create_schema,
            ast.DropStmt: self._drop,
            ast.InsertStmt: self._insert,
            ast.DeleteStmt: self._delete,
            ast.UpdateStmt: self._update,
        }.get(type(stmt))
        if handler is None:
            raise SQLError(f"unsupported statement {type(stmt).__name__}")
        message, rowcount = handler(stmt)  # type: ignore[arg-type]
        if isinstance(stmt, (ast.CreateTableStmt, ast.CreateViewStmt,
                             ast.CreateSchemaStmt, ast.DropStmt)):
            # The epoch bump already made cached plans unreachable; drop
            # them promptly instead of waiting for LRU pressure.
            self.clear_plan_cache()
        return Result(["status"],
                      [Column.from_values(DataType.VARCHAR, [message])]), \
            rowcount

    def _explain_select(self, stmt: ast.SelectStmt) -> str:
        plan = self._plan(stmt, None, QueryReport())
        sections = [
            "== logical plan (as bound) ==",
            explain_mod.render_logical(plan.naive),
            "",
            "== logical plan (optimised: metadata first, lazy rewrite points) ==",
            explain_mod.render_logical(plan.optimized),
            "",
            "== physical plan ==",
            explain_mod.render_physical(plan.physical),
        ]
        if self.shard_router is not None:
            extra = self.shard_router.explain_section(self, stmt)
            if extra:
                sections.extend(["", extra])
        return "\n".join(sections)

    def _explain_analyze(self, stmt: ast.SelectStmt, spec: ParamSpec,
                         sql: str, params: ParamValues) -> str:
        """Compile, execute under a profile, and render the actuals.

        Compiles outside the plan cache on purpose: the rendered tree
        must describe exactly the plan this execution ran, and the timed
        bind/optimize phases are part of what ANALYZE reports.  The run
        itself is an ordinary SELECT execution, journaled like any other.
        """
        report = QueryReport(sql=sql)
        with self._journal_errors(report):
            plan = self._plan(stmt, spec, report)
        run = StreamingQuery(self, plan, sql, params, report, None,
                             profile=QueryProfile())
        run.drain()
        summary = (
            f"rows_out={report.rows_out}"
            f"  rows_extracted={report.rows_extracted}"
            f"  pages_read={report.pages_read}"
            f"  pages_skipped={report.pages_skipped}\n"
            f"bind={explain_mod._fmt_s(report.bind_s)}"
            f"  optimize={explain_mod._fmt_s(report.optimize_s)}"
            f"  execute={explain_mod._fmt_s(report.execute_s)}"
            f"  operators={explain_mod._fmt_s(run.profile.total_operator_s())}"
        )
        sections = [
            "== logical plan (optimised) ==",
            explain_mod.render_logical(plan.optimized),
            "",
            "== executed plan (actual) ==",
            explain_mod.render_analyzed(run.profile, run.trace),
            "",
            "== execution summary ==",
            summary,
        ]
        return "\n".join(sections)

    def render_last_trace(self) -> str:
        """The operators injected at run time by the last query (demo 5/6)."""
        return explain_mod.render_trace(self.last_trace)

    # -- DDL -----------------------------------------------------------------------

    def _create_table(self, stmt: ast.CreateTableStmt) -> tuple[str, int]:
        specs = [
            ColumnSpec(name=c.name.lower(), dtype=type_from_name(c.type_name),
                       not_null=c.not_null)
            for c in stmt.columns
        ]
        fks = []
        for fk in stmt.foreign_keys:
            schema_name, table_name = self.catalog.split_name(fk.ref_table)
            fks.append(
                ForeignKeySpec(
                    columns=tuple(c.lower() for c in fk.columns),
                    ref_table=f"{schema_name}.{table_name}",
                    ref_columns=tuple(c.lower() for c in fk.ref_columns),
                )
            )
        schema = TableSchema(
            columns=specs,
            primary_key=tuple(c.lower() for c in stmt.primary_key),
            foreign_keys=fks,
        )
        self.catalog.create_table(stmt.name, schema,
                                  if_not_exists=stmt.if_not_exists)
        self.oplog.record("ddl", f"create table {'.'.join(stmt.name)}",
                          columns=len(specs))
        return f"table {'.'.join(stmt.name)} created", -1

    def _create_view(self, stmt: ast.CreateViewStmt) -> tuple[str, int]:
        # Validate the view body by binding it now (against current catalog).
        bind_select(self.catalog, stmt.select)
        self.catalog.create_view(stmt.name, stmt.select, stmt.sql_text)
        self.oplog.record("ddl", f"create view {'.'.join(stmt.name)}")
        return f"view {'.'.join(stmt.name)} created", -1

    def _create_schema(self, stmt: ast.CreateSchemaStmt) -> tuple[str, int]:
        self.catalog.create_schema(stmt.name, if_not_exists=stmt.if_not_exists)
        self.oplog.record("ddl", f"create schema {stmt.name}")
        return f"schema {stmt.name} created", -1

    def _drop(self, stmt: ast.DropStmt) -> tuple[str, int]:
        if stmt.kind == "table":
            self.catalog.drop_table(stmt.name, if_exists=stmt.if_exists)
        elif stmt.kind == "view":
            self.catalog.drop_view(stmt.name, if_exists=stmt.if_exists)
        else:
            self.catalog.drop_schema(stmt.name[0], if_exists=stmt.if_exists)
        self.oplog.record("ddl", f"drop {stmt.kind} {'.'.join(stmt.name)}")
        return f"{stmt.kind} {'.'.join(stmt.name)} dropped", -1

    # -- DML -----------------------------------------------------------------------

    def _eval_literal_row(self, exprs: Sequence[ex.Expr]) -> list:
        from repro.db.plan.logical import Binder, _Scope

        binder = Binder(self.catalog)
        scope = _Scope([])
        values = []
        for expr in exprs:
            bound = binder.bind_expr(expr, scope)
            col = bound.eval({}, 1)
            values.append(col.value_at(0))
        return values

    def _insert(self, stmt: ast.InsertStmt) -> tuple[str, int]:
        table = self.catalog.table(stmt.table)
        target_cols = (
            [c.lower() for c in stmt.columns]
            if stmt.columns is not None
            else table.schema.names
        )
        unknown = set(target_cols) - set(table.schema.names)
        if unknown:
            raise BindError(f"unknown insert columns {sorted(unknown)}")
        rows = []
        for row_exprs in stmt.rows:
            if len(row_exprs) != len(target_cols):
                raise ExecutionError("INSERT arity mismatch")
            rows.append(self._eval_literal_row(row_exprs))
        data: dict[str, list] = {name: [] for name in table.schema.names}
        position = {name: i for i, name in enumerate(target_cols)}
        for row in rows:
            for name in table.schema.names:
                if name in position:
                    value = row[position[name]]
                    spec = table.schema.spec(name)
                    if value is not None:
                        from repro.db.types import coerce_literal

                        value = coerce_literal(value, spec.dtype)
                    data[name].append(value)
                else:
                    data[name].append(None)
        count = table.append_pydict(data)
        self._invalidate_for(table)
        self.oplog.record("dml", f"insert into {table.name}", rows=count)
        return f"{count} rows inserted into {table.name}", count

    def bulk_insert(self, parts: tuple[str, ...],
                    data: Mapping[str, "np.ndarray | Column | list"],
                    *, enforce_keys: bool = False) -> int:
        """Bulk load aligned columns (the eager ETL load path)."""
        table = self.catalog.table(parts)
        batch: dict[str, Column] = {}
        for spec in table.schema.columns:
            if spec.name not in data:
                raise ExecutionError(f"bulk insert missing column {spec.name!r}")
            value = data[spec.name]
            if isinstance(value, Column):
                batch[spec.name] = value
            elif isinstance(value, np.ndarray):
                batch[spec.name] = Column.from_numpy(spec.dtype, value)
            else:
                batch[spec.name] = Column.from_values(spec.dtype, value)
        count = table.append_batch(batch, enforce_keys=enforce_keys)
        self._invalidate_for(table)
        self.oplog.record("load", f"bulk load {table.name}", rows=count)
        return count

    def _table_scope_frame(self, table: Table):
        from repro.db.plan.logical import FromEntry, _Scope
        from repro.db.plan.logical import OutCol

        cols = []
        frame = {}
        for index, spec in enumerate(table.schema.columns, start=1):
            cols.append(OutCol(cid=index, name=spec.name, dtype=spec.dtype))
            frame[index] = table.column(spec.name)
        scope = _Scope([FromEntry(alias=table.name.split(".")[-1], columns=cols)])
        return scope, frame

    def _delete(self, stmt: ast.DeleteStmt) -> tuple[str, int]:
        from repro.db.plan.logical import Binder

        table = self.catalog.table(stmt.table)
        if stmt.where is None:
            removed = table.row_count
            table.truncate()
        else:
            scope, frame = self._table_scope_frame(table)
            predicate = Binder(self.catalog).bind_expr(stmt.where, scope)
            mask = ex.predicate_mask(predicate.eval(frame, table.row_count))
            removed = table.delete_where(mask)
        self._invalidate_for(table)
        self.oplog.record("dml", f"delete from {table.name}", rows=removed)
        return f"{removed} rows deleted from {table.name}", removed

    def _update(self, stmt: ast.UpdateStmt) -> tuple[str, int]:
        from repro.db.plan.logical import Binder

        table = self.catalog.table(stmt.table)
        scope, frame = self._table_scope_frame(table)
        binder = Binder(self.catalog)
        if stmt.where is None:
            mask = np.ones(table.row_count, dtype=bool)
        else:
            predicate = binder.bind_expr(stmt.where, scope)
            mask = ex.predicate_mask(predicate.eval(frame, table.row_count))
        assignments: dict[str, Column] = {}
        for name, expr in stmt.assignments:
            spec = table.schema.spec(name.lower())
            bound = binder.bind_expr(expr, scope)
            value_col = bound.eval(frame, table.row_count)
            if value_col.dtype != spec.dtype:
                from repro.db.expr import cast_column

                value_col = cast_column(value_col, spec.dtype)
            assignments[name.lower()] = value_col
        touched = table.update_rows(mask, assignments)
        self._invalidate_for(table)
        self.oplog.record("dml", f"update {table.name}", rows=touched)
        return f"{touched} rows updated in {table.name}", touched

    # -- maintenance -----------------------------------------------------------------

    def _invalidate_for(self, table: Table) -> None:
        # Signatures embed table versions, so stale entries can never be
        # hit again; drop them eagerly to release cache budget.
        if self.recycler is not None:
            self.recycler.invalidate_matching(f"scan({table.name}@")
        # Cached plans scanning this table carry recycler signatures and
        # storage choices (disk-backed vs resident) baked at compile time;
        # recompiling after DML keeps both exactly current.
        with self._plan_lock:
            doomed = [key for key, entry in self._plan_cache.items()
                      if table.name in entry.tables]
            for key in doomed:
                del self._plan_cache[key]

    def table(self, name: str) -> Table:
        """Convenience: fetch a table by dotted name."""
        return self.catalog.table(tuple(name.split(".")))

    def register_lazy_table(self, name: str, binding: LazyTableBinding) -> None:
        """Register an ETL binding making ``name`` a virtual, lazy table."""
        self.catalog.bind_lazy(tuple(name.split(".")), binding)
        self.oplog.record("etl", f"lazy binding registered for {name}",
                          keys=",".join(binding.key_columns))

    def warehouse_bytes(self) -> int:
        """Total resident bytes across all base tables (experiment E4)."""
        return sum(t.memory_bytes() for t in self.catalog.tables())

    # -- persistent storage ----------------------------------------------------------

    def attach(self, storage, *, bufferpool_bytes: int = 64 * 1024 * 1024):
        """Attach a persistent table store (path or open TableStore).

        Persisted tables become queryable immediately; their columns are
        read from disk lazily, page by page, when scans need them.
        """
        store = self.catalog.attach(storage,
                                    bufferpool_bytes=bufferpool_bytes)
        self.oplog.record("storage", f"attached store at {store.root}",
                          tables=len(store.table_names()))
        return store

    def checkpoint(self) -> list[str]:
        """Persist mutated tables to the attached store (atomic commit)."""
        written = self.catalog.checkpoint()
        self.oplog.record("storage", "checkpoint",
                          tables_written=len(written))
        return written
