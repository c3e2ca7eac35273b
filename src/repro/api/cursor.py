"""DB-API-2.0-shaped cursors over streaming query execution.

A :class:`Cursor` is a thin consumption protocol over a pluggable
*runner* — a callable ``(sql, params, batch_rows) -> run`` where ``run``
is either a :class:`~repro.db.exec.engine.StreamingQuery` (the in-process
path: batches are produced on demand) or a
:class:`~repro.db.exec.engine.CompletedQuery` (DDL/DML, EXPLAIN, and
queries executed remotely by a
:class:`~repro.service.service.WarehouseService` worker).  The same
cursor class therefore serves direct connections and service client
sessions — the "one entry point everywhere" of the unified API.

Every ``execute`` gives the cursor a fresh, private
:class:`~repro.db.exec.engine.QueryReport` (:attr:`Cursor.report`).
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Optional

from repro.db.exec.result import Result
from repro.db.types import DataType
from repro.errors import ExecutionError

DEFAULT_CURSOR_BATCH_ROWS = 1024
"""Streaming granularity when ``arraysize`` is left at the DB-API
default of 1 (fetching single rows must not pull single-row batches)."""


class Cursor:
    """Fetch rows from one statement at a time, in batches.

    Implements the familiar DB-API 2.0 surface — :meth:`execute`,
    :meth:`executemany`, :meth:`fetchone` / :meth:`fetchmany` /
    :meth:`fetchall`, iteration, :attr:`arraysize`,
    :attr:`description`, :attr:`rowcount` — plus engine-specific
    extensions: :attr:`report` (the per-execution
    :class:`~repro.db.exec.engine.QueryReport`), :attr:`trace` (run-time
    rewrite operators), :attr:`rows_streamed` (rows pulled from the
    engine so far, which lags the full result while streaming), and
    :meth:`scalar`.
    """

    def __init__(self, runner: Callable, *,
                 batch_rows: Optional[int] = None) -> None:
        self._runner = runner
        self._default_batch_rows = batch_rows
        self.arraysize = 1
        self._run = None
        self._batches: Optional[Iterator[Result]] = None
        self._buffer: list[tuple] = []
        self._buffer_pos = 0
        self._rowcount_override: Optional[int] = None
        self._exhausted = True
        self._closed = False
        self.rows_streamed = 0

    # -- execution ----------------------------------------------------------

    def execute(self, operation: str, params=None, *,
                batch_rows: Optional[int] = None) -> "Cursor":
        """Run one statement; returns ``self`` for chaining."""
        self._check_open()
        self._finish_run()
        size = (batch_rows or self._default_batch_rows
                or max(self.arraysize, DEFAULT_CURSOR_BATCH_ROWS))
        self._run = self._runner(operation, params, size)
        self._batches = self._run.batches()
        self._buffer = []
        self._buffer_pos = 0
        self._rowcount_override = None
        self._exhausted = not self._run.is_rowset
        if self._exhausted:
            # Non-rowset statements (DDL/DML) finish inside the runner;
            # drain the (empty) batch protocol for symmetry.
            for _ in self._batches:
                pass
        self.rows_streamed = 0
        return self

    def executemany(self, operation: str, seq_of_params) -> "Cursor":
        """Run one parameterised statement per value set (DML batching).

        ``rowcount`` afterwards is the total across the batch — or ``-1``
        (unknown) as soon as *any* constituent run reports ``-1``, per
        DB-API semantics: a partial sum would silently under-report the
        batch total.
        """
        total = 0
        indeterminate = False
        ran = False
        for params in seq_of_params:
            self.execute(operation, params)
            ran = True
            if self._run.rowcount < 0:
                indeterminate = True
            else:
                total += self._run.rowcount
        if ran:
            self._rowcount_override = -1 if indeterminate else total
        return self

    # -- metadata -----------------------------------------------------------

    @property
    def description(self) -> Optional[list[tuple]]:
        """DB-API 7-tuples ``(name, type_code, ...)``; None outside SELECT."""
        if self._run is None or not self._run.is_rowset:
            return None
        return [
            (name, dtype, None, None, None, None, None)
            for name, dtype in zip(self._run.names, self._run.dtypes)
        ]

    @property
    def column_names(self) -> list[str]:
        self._require_rowset()
        return list(self._run.names)

    @property
    def dtypes(self) -> list[DataType]:
        self._require_rowset()
        return list(self._run.dtypes)

    @property
    def rowcount(self) -> int:
        """Rows affected (DML) or produced; -1 while a stream is open.

        After :meth:`executemany`, the total across the whole batch.
        """
        if self._rowcount_override is not None:
            return self._rowcount_override
        if self._run is None:
            return -1
        return self._run.rowcount

    @property
    def report(self):
        """The per-execution :class:`QueryReport` (None before execute)."""
        return None if self._run is None else self._run.report

    @property
    def trace(self) -> list[dict]:
        return [] if self._run is None else self._run.trace

    @property
    def spans(self) -> Optional[dict]:
        """The execution's span tree (JSON-serialisable), or ``None``.

        Filled when the engine runs with ``trace_spans=True``; streaming
        executions report it once the stream is exhausted or closed.
        """
        report = self.report
        return None if report is None else report.spans

    # -- fetching -----------------------------------------------------------

    def fetchone(self) -> Optional[tuple]:
        """The next row, or ``None`` when the result is exhausted."""
        self._require_rowset()
        if not self._ensure_buffered(1):
            return None
        row = self._buffer[self._buffer_pos]
        self._buffer_pos += 1
        return row

    def fetchmany(self, size: Optional[int] = None) -> list[tuple]:
        """Up to ``size`` rows (default :attr:`arraysize`)."""
        self._require_rowset()
        size = self.arraysize if size is None else size
        if size <= 0:
            return []
        self._ensure_buffered(size)
        end = min(self._buffer_pos + size, len(self._buffer))
        rows = self._buffer[self._buffer_pos:end]
        self._buffer_pos = end
        return rows

    def fetchall(self) -> list[tuple]:
        """Every remaining row (materialises the rest of the stream)."""
        self._require_rowset()
        while not self._exhausted:
            self._pull_batch()
        rows = self._buffer[self._buffer_pos:]
        self._buffer_pos = len(self._buffer)
        return rows

    def scalar(self) -> Any:
        """The single value of a 1x1 result (clear errors otherwise)."""
        self._require_rowset()
        if len(self._run.names) != 1:
            raise ExecutionError(
                f"scalar() needs a single-column result, got "
                f"{len(self._run.names)} columns"
            )
        first = self.fetchone()
        if first is None:
            raise ExecutionError("scalar() on an empty result")
        if self.fetchone() is not None:
            raise ExecutionError("scalar() on a multi-row result")
        return first[0]

    def __iter__(self) -> Iterator[tuple]:
        while True:
            row = self.fetchone()
            if row is None:
                return
            yield row

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Abandon any open stream and refuse further use."""
        if self._closed:
            return
        self._finish_run()
        self._closed = True

    def __enter__(self) -> "Cursor":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- internals ----------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise ExecutionError("cursor is closed")

    def _require_rowset(self) -> None:
        self._check_open()
        if self._run is None:
            raise ExecutionError("no statement has been executed")
        if not self._run.is_rowset:
            raise ExecutionError(
                "the last statement did not produce a result set"
            )

    def _ensure_buffered(self, ahead: int) -> bool:
        """Buffer at least ``ahead`` unread rows; False when exhausted."""
        while (len(self._buffer) - self._buffer_pos) < ahead \
                and not self._exhausted:
            self._pull_batch()
        return (len(self._buffer) - self._buffer_pos) > 0

    def _pull_batch(self) -> None:
        assert self._batches is not None
        try:
            batch = next(self._batches)
        except StopIteration:
            self._exhausted = True
            return
        self.rows_streamed += batch.row_count
        # Drop already-consumed rows so huge streams don't accumulate.
        if self._buffer_pos:
            self._buffer = self._buffer[self._buffer_pos:]
            self._buffer_pos = 0
        self._buffer.extend(batch.rows())

    def _finish_run(self) -> None:
        if self._run is not None:
            self._run.close()
        self._run = None
        self._batches = None
        self._buffer = []
        self._buffer_pos = 0
        self._exhausted = True
