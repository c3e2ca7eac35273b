"""Prepared-statement parameter binding: styles, inference, edge cases."""

import pytest

from repro.db.exec.engine import Database
from repro.errors import ParameterError, ParseError, ReproError

import numpy as np


@pytest.fixture()
def db():
    database = Database()
    database.execute(
        "CREATE TABLE items (id BIGINT, name VARCHAR, price DOUBLE, "
        "seen TIMESTAMP)"
    )
    database.execute(
        "INSERT INTO items VALUES "
        "(1, 'anchor', 2.5, '2010-01-12T00:00:00.000'), "
        "(2, 'bolt', 0.4, '2010-01-12T06:00:00.000'), "
        "(3, 'clamp', 1.1, '2010-01-12T12:00:00.000'), "
        "(4, 'O''HARE', 9.9, '2010-01-12T18:00:00.000')"
    )
    return database


# -- binding styles ----------------------------------------------------------


def test_positional_params(db):
    result = db.query("SELECT name FROM items WHERE id = ?", [2])
    assert result.rows() == [("bolt",)]


def test_named_params(db):
    result = db.query(
        "SELECT id FROM items WHERE name = :n OR price > :p ORDER BY id",
        {"n": "anchor", "p": 5.0},
    )
    assert result.rows() == [(1,), (4,)]


def test_same_named_param_used_twice(db):
    result = db.query(
        "SELECT id FROM items WHERE id = :x OR id = :x + 1 ORDER BY id",
        {"x": 2},
    )
    assert result.rows() == [(2,), (3,)]


def test_mixed_styles_rejected(db):
    with pytest.raises(ParseError, match="cannot mix"):
        db.query("SELECT id FROM items WHERE id = ? AND name = :n",
                 [1])


# -- arity and naming errors -------------------------------------------------


def test_missing_positional(db):
    with pytest.raises(ParameterError, match="expects 2 parameter"):
        db.query("SELECT id FROM items WHERE id > ? AND id < ?", [1])


def test_extra_positional(db):
    with pytest.raises(ParameterError, match="expects 1 parameter"):
        db.query("SELECT id FROM items WHERE id = ?", [1, 2])


def test_no_values_for_positional(db):
    with pytest.raises(ParameterError, match="pass a sequence"):
        db.query("SELECT id FROM items WHERE id = ?")


def test_missing_named(db):
    with pytest.raises(ParameterError, match="missing named parameter"):
        db.query("SELECT id FROM items WHERE id = :a AND name = :b",
                 {"a": 1})


def test_extra_named(db):
    with pytest.raises(ParameterError, match="unknown named parameter"):
        db.query("SELECT id FROM items WHERE id = :a",
                 {"a": 1, "oops": 2})


def test_values_for_unparameterized_statement(db):
    with pytest.raises(ParameterError, match="takes no parameters"):
        db.query("SELECT id FROM items", [1])


def test_mapping_for_positional_rejected(db):
    with pytest.raises(ParameterError, match="positional"):
        db.query("SELECT id FROM items WHERE id = ?", {"id": 1})


def test_bare_string_rejected_as_positional_params(db):
    # A string iterates per character; binding it as a sequence is
    # always a caller bug and must fail loudly, not by luck.
    with pytest.raises(ParameterError, match="pass a sequence"):
        db.query("SELECT id FROM items WHERE name = ?", "anchor")


# -- type inference and mismatches -------------------------------------------


def test_type_mismatch_rejected_eagerly(db):
    with pytest.raises(ParameterError, match="cannot bind 'abc' as BIGINT"):
        db.query("SELECT id FROM items WHERE id = ?", ["abc"])


def test_uninferable_type_needs_cast(db):
    with pytest.raises(ParameterError, match="CAST"):
        db.query("SELECT ? FROM items", [1])


def test_cast_escape_hatch(db):
    result = db.query("SELECT CAST(? AS BIGINT) AS v FROM items LIMIT 1",
                      [7])
    assert result.rows() == [(7,)]


def test_timestamp_param_accepts_iso_string(db):
    result = db.query(
        "SELECT count(*) FROM items WHERE seen >= ?",
        ["2010-01-12T12:00:00.000"],
    )
    assert result.scalar() == 2


def test_null_param_value(db):
    result = db.query("SELECT count(*) FROM items WHERE name = ?", [None])
    assert result.scalar() == 0  # NULL never equals anything


def test_numeric_promotion(db):
    # int value bound against a DOUBLE column coerces cleanly.
    result = db.query("SELECT count(*) FROM items WHERE price < ?", [2])
    assert result.scalar() == 2


# -- placeholders in compound predicates --------------------------------------


def test_params_in_in_list(db):
    result = db.query(
        "SELECT name FROM items WHERE id IN (?, ?, ?) ORDER BY id",
        [1, 3, 99],
    )
    assert result.rows() == [("anchor",), ("clamp",)]


def test_params_in_between(db):
    result = db.query(
        "SELECT id FROM items WHERE price BETWEEN :lo AND :hi ORDER BY id",
        {"lo": 0.5, "hi": 3.0},
    )
    assert result.rows() == [(1,), (3,)]


def test_param_as_in_operand_needs_cast(db):
    with pytest.raises(ReproError):
        db.query("SELECT id FROM items WHERE ? IN (1, 2)", [1])
    result = db.query(
        "SELECT count(*) FROM items WHERE CAST(? AS BIGINT) IN (1, 2)", [2]
    )
    assert result.scalar() == 4


# -- injection-shaped values bind as data --------------------------------------


def test_injection_shaped_string_binds_as_literal(db):
    hostile = "x' OR '1'='1"
    result = db.query("SELECT count(*) FROM items WHERE name = ?", [hostile])
    assert result.scalar() == 0  # matched as a literal value: no row


def test_quote_bearing_value_roundtrips(db):
    result = db.query("SELECT id FROM items WHERE name = ?", ["O'HARE"])
    assert result.rows() == [(4,)]


def test_injection_shaped_value_inserts_as_data(db):
    hostile = "'); DROP TABLE items; --"
    db.execute("INSERT INTO items (id, name) VALUES (?, ?)", [5, hostile])
    assert db.query("SELECT name FROM items WHERE id = 5").scalar() == hostile
    assert db.table("items").row_count == 5  # still here


# -- DML parameters ------------------------------------------------------------


def test_insert_update_delete_with_params(db):
    db.execute("INSERT INTO items (id, name, price) VALUES (?, ?, ?)",
               [10, "nut", 0.1])
    assert db.query("SELECT count(*) FROM items").scalar() == 5
    db.execute("UPDATE items SET price = :p WHERE id = :id",
               {"p": 0.2, "id": 10})
    assert db.query("SELECT price FROM items WHERE id = 10").scalar() == 0.2
    db.execute("DELETE FROM items WHERE id = ?", [10])
    assert db.query("SELECT count(*) FROM items").scalar() == 4


def test_ddl_with_params_rejected(db):
    with pytest.raises(ReproError):
        db.execute("CREATE VIEW v AS SELECT id FROM items WHERE id = ?",
                   [1])


# -- params and caching correctness -------------------------------------------


def test_recycler_never_crosses_param_values(db):
    # The same plan-cached aggregate re-executed with different values
    # must produce different results: recycler signatures embed the
    # bound values, so different bindings can never share an entry.
    sql = "SELECT count(*) FROM items WHERE price < ?"
    assert db.query(sql, [1.0]).scalar() == 1
    assert db.query(sql, [2.0]).scalar() == 2
    assert db.query(sql, [100.0]).scalar() == 4
    assert db.query(sql, [1.0]).scalar() == 1


def test_same_param_values_do_recycle(db):
    # Equal re-executions share the recycler entry (signature embeds the
    # value), so repeat prepared queries skip even the aggregation.
    sql = "SELECT count(*) FROM items WHERE price < ?"
    db.query(sql, [2.0])
    db.query(sql, [2.0])
    run = db.open_query(sql, [2.0])
    result, trace = run.drain(), run.trace
    assert result.scalar() == 2
    assert any(t.get("op") == "recycler_hit" for t in trace)
    # ... while a different value still computes fresh.
    assert db.query(sql, [1.0]).scalar() == 1


def test_unparameterized_aggregate_still_recycles(db):
    sql = "SELECT sum(id) FROM items"
    assert db.query(sql).scalar() == 10
    db.query(sql)
    run = db.open_query(sql)
    run.drain()
    trace = run.trace
    assert any(t.get("op") == "recycler_hit" for t in trace)


def test_explain_of_parameterized_query(db):
    plan = db.explain("SELECT id FROM items WHERE id = ?")
    assert "Param" in plan or "?" in plan


def test_interleaved_streams_keep_their_own_values(db):
    # Two cursors on one thread, same statement, different bound values,
    # fetched alternately: each must see only its own parameter.
    from repro.api import connect

    db.execute("CREATE TABLE seq (v BIGINT)")
    db.bulk_insert(("seq",), {"v": np.arange(1000)})
    conn = connect(db)
    a = conn.cursor().execute("SELECT v FROM seq WHERE v % 2 = ?",
                              [0], batch_rows=10)
    b = conn.cursor().execute("SELECT v FROM seq WHERE v % 2 = ?",
                              [1], batch_rows=10)
    for _ in range(50):
        row_a = a.fetchone()
        row_b = b.fetchone()
        assert row_a[0] % 2 == 0
        assert row_b[0] % 2 == 1
