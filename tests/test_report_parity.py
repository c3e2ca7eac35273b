"""QueryReport counter parity between ways of consuming a query.

A drained run (``open_query(...).drain()``, what ``Database.query``
does) and a cursor pulling 128-row batches run the same executor at
different batch sizes; these tests pin that the counters a report
carries are identical whichever consumed the query, and that
promoted-fetch page I/O is counted exactly once.
"""

from __future__ import annotations

import pytest

from repro.db.exec.engine import QueryReport, _fold_trace_counters
from repro.seismology.warehouse import SeismicWarehouse

PARITY_COUNTERS = (
    "rows_out", "rows_extracted", "pages_read", "pages_skipped",
    "rows_extracted_here", "rows_coalesced", "rows_served_eager",
)

QUERIES = [
    "SELECT COUNT(*) AS n FROM mseed.dataview WHERE F.network = 'NL'",
    "SELECT F.station, MIN(D.sample_value) AS lo FROM mseed.dataview "
    "WHERE F.network = 'NL' GROUP BY F.station ORDER BY F.station",
    "SELECT R.seq_no FROM mseed.dataview "
    "WHERE F.station = 'HGN' AND F.channel = 'BHZ'",
]


def _materialized(wh, sql) -> QueryReport:
    run = wh.db.open_query(sql)
    run.drain()
    return run.report


def _streamed(wh, sql) -> QueryReport:
    with wh.connect() as conn:
        cur = conn.cursor().execute(sql, batch_rows=128)
        cur.fetchall()
        return cur.report


@pytest.mark.parametrize("sql", QUERIES)
def test_materialized_and_streaming_counters_match(demo_repo, sql):
    # Two fresh warehouses: each path starts from the same cold state.
    mat = SeismicWarehouse(demo_repo.root, mode="lazy")
    stream = SeismicWarehouse(demo_repo.root, mode="lazy")
    cold_a, cold_b = _materialized(mat, sql), _streamed(stream, sql)
    warm_a, warm_b = _materialized(mat, sql), _streamed(stream, sql)
    for name in PARITY_COUNTERS:
        assert getattr(cold_a, name) == getattr(cold_b, name), \
            f"cold {name} diverged"
        assert getattr(warm_a, name) == getattr(warm_b, name), \
            f"warm {name} diverged"
    assert cold_a.rows_extracted_here > 0
    assert warm_a.rows_extracted_here == 0  # served from the cache


# ---------------------------------------------------------------------------
# _fold_trace_counters
# ---------------------------------------------------------------------------


def test_fold_trace_counters_accumulates_each_op():
    report = QueryReport(pages_read=5)  # scan-side I/O already counted
    trace = [
        {"op": "rewrite", "table": "mseed.data"},
        {"op": "extract", "rows": 100, "records": 2},
        {"op": "extract", "rows": 50, "records": 1},
        {"op": "extract_wait", "rows": 30},
        {"op": "promoted_fetch", "rows": 40, "records": 3, "pages_read": 7},
    ]
    _fold_trace_counters(report, trace)
    assert report.rows_extracted_here == 150
    assert report.rows_coalesced == 30
    assert report.rows_served_eager == 40
    assert report.promotions == 3
    # Promoted pages add to the scan pages exactly once.
    assert report.pages_read == 12


def test_fold_trace_counters_ignores_unknown_ops():
    report = QueryReport()
    _fold_trace_counters(report, [{"op": "cache_fetch", "rows": 99},
                                  {"no_op_key": True}])
    assert report.rows_extracted_here == 0
    assert report.rows_served_eager == 0


def test_promoted_fetch_pages_counted_once(demo_repo, tmp_path):
    wh = SeismicWarehouse(demo_repo.root, mode="lazy",
                          storage_path=tmp_path / "store")
    sql = QUERIES[0]
    wh.query(sql)
    wh.query(sql)  # heat the units so promotion has a workload signal
    promoted = wh.promote(min_score=0.0)
    assert promoted.promoted_units > 0
    wh.cache.clear()  # the warm cache would shadow the promoted path

    run = wh.db.open_query(sql)
    run.drain()
    report, trace = run.report, run.trace
    promoted_pages = sum(e.get("pages_read", 0) for e in trace
                         if e.get("op") == "promoted_fetch")
    assert report.rows_served_eager > 0
    assert promoted_pages > 0
    # All page I/O of this metadata-light query is the promoted fetch;
    # a double-fold would report twice this.
    assert report.pages_read == promoted_pages


def test_promoted_parity_between_paths(demo_repo, tmp_path):
    sql = QUERIES[0]

    def promoted_wh(where):
        wh = SeismicWarehouse(demo_repo.root, mode="lazy",
                              storage_path=tmp_path / where)
        wh.query(sql)
        wh.query(sql)
        wh.promote(min_score=0.0)
        wh.cache.clear()  # force the next run onto the promoted path
        return wh

    mat = _materialized(promoted_wh("a"), sql)
    stream = _streamed(promoted_wh("b"), sql)
    for name in PARITY_COUNTERS:
        assert getattr(mat, name) == getattr(stream, name), f"{name} diverged"
    assert mat.rows_served_eager > 0
