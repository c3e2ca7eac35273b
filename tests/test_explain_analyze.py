"""EXPLAIN ANALYZE and per-query span tracing.

Pins the ISSUE acceptance criterion directly: per-operator actual times
must sum to the report's ``execute_s`` within 10% (plus a small absolute
floor for sub-millisecond queries) across the analytical suite.
"""

from __future__ import annotations

import json

import pytest

from repro.db.sql import ast
from repro.db.sql.parser import parse_statement
from repro.errors import SQLError
from repro.seismology.queries import analytical_suite
from repro.seismology.warehouse import SeismicWarehouse


@pytest.fixture()
def traced_wh(demo_repo):
    return SeismicWarehouse(demo_repo.root, mode="lazy", trace_spans=True)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parser_analyze_flag():
    plain = parse_statement("EXPLAIN SELECT a FROM t")
    analyzed = parse_statement("EXPLAIN ANALYZE SELECT a FROM t")
    assert isinstance(plain, ast.ExplainStmt) and not plain.analyze
    assert isinstance(analyzed, ast.ExplainStmt) and analyzed.analyze


def test_explain_analyze_requires_select(lazy_wh):
    with pytest.raises(SQLError):
        lazy_wh.explain_analyze("DELETE FROM mseed.files")


# ---------------------------------------------------------------------------
# rendered output
# ---------------------------------------------------------------------------


def test_warehouse_explain_analyze_renders_actuals(lazy_wh):
    text = lazy_wh.explain_analyze(
        "SELECT F.station, COUNT(*) AS n FROM mseed.dataview "
        "WHERE F.network = 'NL' GROUP BY F.station"
    )
    assert "== logical plan (optimised) ==" in text
    assert "== executed plan (actual) ==" in text
    assert "== execution summary ==" in text
    assert "actual: time=" in text
    assert "rows_out=" in text


def test_explain_analyze_params(lazy_wh):
    text = lazy_wh.explain_analyze(
        "SELECT COUNT(*) AS n FROM mseed.files WHERE network = ?", ["NL"]
    )
    assert "actual: time=" in text


def test_explain_analyze_sql_statement(lazy_wh):
    result = lazy_wh.db.execute(
        "EXPLAIN ANALYZE SELECT COUNT(*) AS n FROM mseed.records"
    )
    (row,) = result.rows()
    assert "== executed plan (actual) ==" in row[0]


def test_plain_explain_still_does_not_execute(lazy_wh):
    before = lazy_wh.db.last_report
    result = lazy_wh.db.execute(
        "EXPLAIN SELECT COUNT(*) AS n FROM mseed.records"
    )
    (row,) = result.rows()
    assert "actual:" not in row[0]
    # Plain EXPLAIN only compiles: the last executed report is untouched.
    assert lazy_wh.db.last_report is before


def test_explain_analyze_through_cursor(lazy_wh):
    with lazy_wh.connect() as conn:
        cur = conn.cursor().execute(
            "EXPLAIN ANALYZE SELECT COUNT(*) AS n FROM mseed.files"
        )
        (row,) = cur.fetchall()
    assert "execution summary" in row[0]


# ---------------------------------------------------------------------------
# acceptance: operator time attribution
# ---------------------------------------------------------------------------


def _operator_total_s(spans: dict) -> float:
    execute = next(s for s in spans["children"] if s["name"] == "execute")
    return sum(child["elapsed_s"] for child in execute["children"]
               if not child["name"].startswith("trace:"))


def _explain_analyze_report(wh, sql):
    wh.explain_analyze(sql)
    return wh.db.last_report


def _cursor_report(wh, sql):
    with wh.connect() as conn:
        cur = conn.cursor().execute(sql)
        cur.fetchall()
        return cur.report


@pytest.mark.parametrize("run,surface", [
    pytest.param("cold", _explain_analyze_report, id="cold"),
    pytest.param("warm", _explain_analyze_report, id="warm"),
    pytest.param("cold", _cursor_report, id="cold-cursor"),
    pytest.param("warm", _cursor_report, id="warm-cursor"),
])
def test_operator_times_sum_to_execute_within_10pct(demo_repo, run, surface):
    wh = SeismicWarehouse(demo_repo.root, mode="lazy", trace_spans=True)
    for spec in analytical_suite():
        if run == "warm":
            wh.query(spec.sql)  # populate the extraction cache first
        report = surface(wh, spec.sql)
        total = _operator_total_s(report.spans)
        slack = max(0.10 * report.execute_s, 0.002)
        assert abs(total - report.execute_s) <= slack, (
            f"{spec.qid}: operators {total:.6f}s vs "
            f"execute {report.execute_s:.6f}s"
        )


# ---------------------------------------------------------------------------
# span trees
# ---------------------------------------------------------------------------


def test_trace_spans_materialized(traced_wh):
    traced_wh.query(
        "SELECT COUNT(*) AS n FROM mseed.dataview WHERE F.network = 'NL'"
    )
    spans = traced_wh.db.last_report.spans
    assert spans["name"] == "query"
    phases = [c["name"] for c in spans["children"]]
    assert phases == ["parse", "bind", "optimize", "execute"]
    json.dumps(spans)  # must stay JSON-serialisable end to end
    def walk(span):
        yield span["name"]
        for child in span.get("children", ()):
            yield from walk(child)

    names = list(walk(spans))
    assert "PAggregate" in names and "PLazyFetch" in names


def test_extraction_spans_tagged_with_file_and_range(traced_wh):
    traced_wh.query(
        "SELECT COUNT(*) AS n FROM mseed.dataview WHERE F.network = 'NL'"
    )
    spans = traced_wh.db.last_report.spans

    def walk(span):
        yield span
        for child in span.get("children", ()):
            yield from walk(child)

    extracts = [s for s in walk(spans) if s["name"] == "trace:extract"]
    assert extracts, "lazy cold query must produce extraction spans"
    for span in extracts:
        attrs = span["attrs"]
        assert attrs["file"]
        assert attrs["seq_lo"] <= attrs["seq_hi"]


def _span_names(span):
    yield span["name"]
    for child in span.get("children", ()):
        yield from _span_names(child)


def test_trace_spans_streaming(traced_wh):
    with traced_wh.connect() as conn:
        cur = conn.cursor().execute(
            "SELECT R.seq_no FROM mseed.dataview WHERE F.network = 'NL'"
        )
        cur.fetchall()
        spans = cur.spans
    assert spans is not None and spans["name"] == "query"
    json.dumps(spans)
    # A cursor gets one span per operator, just as a drained query does.
    with traced_wh.connect() as conn:
        cur = conn.cursor().execute(
            "SELECT F.station, COUNT(*) AS n FROM mseed.dataview "
            "WHERE F.network = 'NL' GROUP BY F.station", batch_rows=2)
        cur.fetchall()
        names = list(_span_names(cur.spans))
    assert "PAggregate" in names and "PLazyFetch" in names


def test_explain_analyze_is_journaled(lazy_wh):
    sql = "SELECT COUNT(*) AS n FROM mseed.files WHERE network = 'NL'"
    before = len(lazy_wh.db.journal)
    lazy_wh.explain_analyze(sql)
    assert len(lazy_wh.db.journal) == before + 1
    (row,) = lazy_wh.query(
        "SELECT sql, status, rows_out FROM sys.queries "
        f"WHERE id = {lazy_wh.db.last_report.journal_id}").rows()
    assert row == (sql, "ok", 1)


def test_failed_explain_analyze_is_journaled(lazy_wh):
    before = len(lazy_wh.db.journal)
    with pytest.raises(SQLError):
        lazy_wh.explain_analyze("SELECT nope FROM mseed.files")
    assert len(lazy_wh.db.journal) == before + 1
    assert lazy_wh.db.journal.entries()[-1]["status"] == "error"


def test_spans_off_by_default(lazy_wh):
    lazy_wh.query("SELECT COUNT(*) AS n FROM mseed.files")
    assert lazy_wh.db.last_report.spans is None


def test_report_to_dict_gates_spans(traced_wh):
    traced_wh.query("SELECT COUNT(*) AS n FROM mseed.files")
    report = traced_wh.db.last_report
    assert "spans" not in report.to_dict()
    assert report.to_dict(include_spans=True)["spans"] is report.spans
    assert "pages_read" in report.to_dict()
