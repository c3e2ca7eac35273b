"""Regression tests for the batch-pull executor.

Every physical operator has one body, a generator of row batches;
``Database.query`` drains it with unbounded leaf batches and a cursor
pulls it at ``batch_rows``.  These tests pin the rules that one protocol
must keep:

* ``LIMIT 0`` must not pull (and pay for) a single child batch.
* ``_combined_codes`` must keep every NULL key combination its own
  group, so multi-key GROUP BY / DISTINCT never merge ``(NULL, 1)`` and
  ``(NULL, 2)``.
* A predicate wiping out a whole batch mid-stream must propagate
  cleanly through every operator.

Plus parity across batch sizes — the drained result against cursor runs
at several ``batch_rows`` — for sort, distinct, join (inner, left,
cross) and aggregate.
"""

import pytest

from repro.db.exec.engine import Database
from repro.db.table import ColumnSpec, TableSchema
from repro.db.types import DataType


def _db_with(rows_by_table):
    db = Database()
    for name, (specs, data) in rows_by_table.items():
        db.catalog.create_table((name,), TableSchema(columns=specs))
        db.catalog.table((name,)).append_pydict(data)
    return db


def _nullable_db(rows=40):
    """A table whose key columns contain NULLs in several combinations."""
    groups = [None, "a", "b"]
    return _db_with({
        "t": (
            [ColumnSpec("g", DataType.VARCHAR),
             ColumnSpec("k", DataType.BIGINT),
             ColumnSpec("v", DataType.BIGINT)],
            {
                "g": [groups[i % 3] for i in range(rows)],
                "k": [None if i % 5 == 0 else i % 4 for i in range(rows)],
                "v": list(range(rows)),
            },
        )
    })


def _stream_rows(db, sql, batch_rows):
    run = db.open_query(sql, batch_rows=batch_rows)
    return [row for batch in run.batches() for row in batch.rows()], run


def _assert_parity(db, sql, batch_sizes=(1, 3, 7, 64)):
    expected = db.query(sql).rows()
    for batch_rows in batch_sizes:
        got, run = _stream_rows(db, sql, batch_rows)
        assert got == expected, (sql, batch_rows)
        assert run.report.rows_out == len(expected)


# ---------------------------------------------------------------------------
# LIMIT 0 must not pull a single child batch
# ---------------------------------------------------------------------------


def test_limit_zero_pulls_no_child_batches():
    db = _nullable_db()
    before = len(db.oplog.entries("scan"))
    rows, run = _stream_rows(db, "SELECT v FROM t LIMIT 0", batch_rows=4)
    assert rows == []
    assert run.report.rows_out == 0
    # The scan operator's generator must never have started: no scan
    # record was appended (the streamed-scan record lands in `finally`,
    # i.e. as soon as the generator runs at all).
    assert len(db.oplog.entries("scan")) == before


def test_limit_zero_matches_materialised():
    db = _nullable_db()
    _assert_parity(db, "SELECT v FROM t LIMIT 0 OFFSET 3")


# ---------------------------------------------------------------------------
# NULL grouping keys: (NULL, x) groups must stay distinct per x
# ---------------------------------------------------------------------------


def test_multikey_group_by_with_nulls():
    db = _nullable_db()
    rows = db.query(
        "SELECT g, k, COUNT(*), SUM(v) FROM t GROUP BY g, k"
    ).rows()
    # Reference: plain Python grouping over the same data.
    table = db.catalog.table(("t",))
    expected: dict = {}
    for g, k, v in zip(table.column("g").to_pylist(),
                       table.column("k").to_pylist(),
                       table.column("v").to_pylist()):
        st = expected.setdefault((g, k), [0, 0])
        st[0] += 1
        st[1] += v
    assert len(rows) == len(expected)
    for g, k, count, total in rows:
        assert expected[(g, k)] == [count, total], (g, k)


def test_multikey_group_by_null_groups_not_collapsed():
    db = _db_with({
        "p": (
            [ColumnSpec("a", DataType.BIGINT),
             ColumnSpec("b", DataType.BIGINT)],
            {"a": [None, None, 1, None], "b": [1, 2, 1, 1]},
        )
    })
    rows = sorted(
        db.query("SELECT a, b, COUNT(*) FROM p GROUP BY a, b").rows(),
        key=repr,
    )
    # (NULL,1) x2, (NULL,2) x1, (1,1) x1 — three distinct groups.
    assert sorted(rows, key=repr) == sorted(
        [(None, 1, 2), (None, 2, 1), (1, 1, 1)], key=repr)


def test_multikey_distinct_with_nulls():
    db = _db_with({
        "p": (
            [ColumnSpec("a", DataType.BIGINT),
             ColumnSpec("b", DataType.BIGINT)],
            {"a": [None, None, 1, None, None], "b": [1, 2, 1, 1, 2]},
        )
    })
    rows = db.query("SELECT DISTINCT a, b FROM p").rows()
    assert rows == [(None, 1), (None, 2), (1, 1)]  # first-occurrence order


def test_null_first_group_order_single_key():
    db = _db_with({
        "p": (
            [ColumnSpec("a", DataType.BIGINT)],
            {"a": [3, None, 1, 3, None]},
        )
    })
    rows = db.query("SELECT a, COUNT(*) FROM p GROUP BY a").rows()
    assert rows == [(None, 2), (1, 1), (3, 2)]


# ---------------------------------------------------------------------------
# Mid-stream empty chunks propagate through every streaming operator
# ---------------------------------------------------------------------------


def _banded_db(rows=100):
    """Predicate `v < 10 OR v >= 90` empties every middle batch."""
    return _db_with({
        "t": (
            [ColumnSpec("v", DataType.BIGINT),
             ColumnSpec("s", DataType.VARCHAR)],
            {"v": list(range(rows)), "s": [f"x{i % 7}" for i in range(rows)]},
        )
    })


@pytest.mark.parametrize("sql", [
    "SELECT v FROM t WHERE v < 10 OR v >= 90",
    "SELECT v FROM t WHERE v < 10 OR v >= 90 ORDER BY v DESC",
    "SELECT DISTINCT s FROM t WHERE v < 10 OR v >= 90",
    "SELECT s, COUNT(*), SUM(v) FROM t WHERE v < 10 OR v >= 90 GROUP BY s",
    "SELECT v FROM t WHERE v < 10 OR v >= 90 LIMIT 7 OFFSET 8",
    "SELECT s, MIN(v), MAX(v) FROM t WHERE v >= 200 GROUP BY s",  # empties all
    "SELECT COUNT(*) FROM t WHERE v >= 200",  # global agg over empty stream
])
def test_empty_chunk_propagation(sql):
    _assert_parity(_banded_db(), sql, batch_sizes=(1, 4, 16, 256))


# ---------------------------------------------------------------------------
# Streaming parity for the batch-native pipeline breakers
# ---------------------------------------------------------------------------


def _join_db():
    return _db_with({
        "f": (
            [ColumnSpec("fk", DataType.BIGINT),
             ColumnSpec("fv", DataType.VARCHAR)],
            {"fk": [i % 6 if i % 11 else None for i in range(50)],
             "fv": [f"f{i}" for i in range(50)]},
        ),
        "d": (
            [ColumnSpec("dk", DataType.BIGINT),
             ColumnSpec("dv", DataType.BIGINT)],
            {"dk": [i % 4 if i % 7 else None for i in range(30)],
             "dv": list(range(30))},
        ),
    })


@pytest.mark.parametrize("sql", [
    "SELECT fv, dv FROM f, d WHERE fk = dk",
    "SELECT fv, dv FROM f JOIN d ON fk = dk",
    "SELECT fv, dv FROM f LEFT JOIN d ON fk = dk",
    "SELECT fv, dv FROM f LEFT JOIN d ON fk = dk AND dv > 10",
    "SELECT fv, dv FROM f JOIN d ON fk = dk AND dv % 2 = 0",
    "SELECT fk, COUNT(*), SUM(dv) FROM f, d WHERE fk = dk GROUP BY fk",
])
def test_streaming_join_parity(sql):
    _assert_parity(_join_db(), sql, batch_sizes=(1, 3, 8, 64))


def test_streaming_cross_join_parity():
    db = _db_with({
        "a": ([ColumnSpec("x", DataType.BIGINT)], {"x": list(range(9))}),
        "b": ([ColumnSpec("y", DataType.BIGINT)], {"y": [10, 20, 30]}),
    })
    _assert_parity(db, "SELECT x, y FROM a, b", batch_sizes=(1, 2, 4, 64))


def test_streaming_sort_distinct_parity():
    db = _banded_db()
    _assert_parity(db, "SELECT DISTINCT s FROM t ORDER BY s DESC",
                   batch_sizes=(1, 4, 16))
    _assert_parity(db, "SELECT v, s FROM t ORDER BY s, v DESC",
                   batch_sizes=(1, 4, 16))


def test_streaming_aggregate_recycler_parity():
    # The streamed aggregate must hit the recycler admitted by the
    # materialised run (and vice versa), not recompute silently.
    db = _banded_db()
    sql = "SELECT s, COUNT(*) FROM t GROUP BY s"
    expected = db.query(sql).rows()  # admits the aggregate
    got, run = _stream_rows(db, sql, batch_rows=8)
    assert got == expected
    assert any(e.get("op") == "recycler_hit" for e in run.trace)


def test_streaming_aggregate_admits_to_recycler():
    db = _banded_db()
    sql = "SELECT s, SUM(v) FROM t GROUP BY s"
    got, _run = _stream_rows(db, sql, batch_rows=8)  # streamed first
    expected = db.query(sql)  # must be served from the recycler
    assert expected.rows() == got
    assert any(e.get("op") == "recycler_hit" for e in db.last_trace)
