"""Tests for the persistent columnar storage engine.

Covers the ISSUE-2 checklist: codec round-trips (NULL masks, VARCHAR
dictionaries included), corrupted-checksum detection, the atomic-manifest
crash simulation, buffer-pool eviction under budget, and warm-start
equivalence (identical SELECT results across a restart with zero
re-extraction).
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.db.column import Column
from repro.db.exec.engine import Database
from repro.db.types import DataType
from repro.errors import CatalogError, CorruptSegmentError, StorageError
from repro.storage import (
    BufferPool,
    SegmentReader,
    SegmentWriter,
    TableStore,
)
from repro.storage.codecs import (
    CODEC_DELTA_FOR,
    CODEC_DICT,
    CODEC_FOR,
    CODEC_NAMES,
    CODEC_RLE,
    decode_array,
    encode_array,
)
from repro.storage.format import decode_page, encode_page


# ---------------------------------------------------------------------------
# Codecs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dtype,values", [
    (DataType.BIGINT, np.arange(5000, dtype=np.int64) * 3 - 77),
    (DataType.BIGINT, np.full(999, 123456789, dtype=np.int64)),
    (DataType.BIGINT, np.zeros(0, dtype=np.int64)),
    (DataType.TIMESTAMP,
     1_000_000_000_000 + np.cumsum(np.full(4096, 25_000, dtype=np.int64))),
    (DataType.DOUBLE, np.linspace(-1.0, 1.0, 333)),
    (DataType.DOUBLE, np.repeat(np.array([1.5, 2.5, 3.5]), 200)),
    (DataType.BOOLEAN, np.arange(100) % 3 == 0),
    (DataType.VARCHAR, np.array(["HGN", "DBN", "ISK"] * 100, dtype=object)),
    (DataType.VARCHAR, np.array(["solo"], dtype=object)),
    (DataType.BIGINT, np.array([np.iinfo(np.int64).min // 2,
                                np.iinfo(np.int64).max // 2], dtype=np.int64)),
])
def test_codec_roundtrip(dtype, values):
    codec_id, payload = encode_array(dtype, values)
    assert codec_id in CODEC_NAMES
    back = decode_array(dtype, codec_id, payload, len(values))
    if dtype == DataType.VARCHAR:
        assert [str(v) for v in back] == [str(v) for v in values]
    else:
        assert np.array_equal(back, values)


def test_codec_choices_match_data_shape():
    # Monotone int64 → delta family; constants → FOR/RLE; low-cardinality
    # strings → dictionary.
    monotone = np.cumsum(np.full(5000, 40, dtype=np.int64))
    assert encode_array(DataType.BIGINT, monotone)[0] == CODEC_DELTA_FOR
    constant = np.full(5000, 7, dtype=np.int64)
    assert encode_array(DataType.BIGINT, constant)[0] in (CODEC_FOR, CODEC_RLE)
    strings = np.array(["BHZ"] * 500 + ["BHE"] * 500, dtype=object)
    assert encode_array(DataType.VARCHAR, strings)[0] in (CODEC_DICT, CODEC_RLE)


def test_codec_compresses():
    times = 1_600_000_000_000_000 + \
        np.cumsum(np.full(16384, 25_000, dtype=np.int64))
    _codec, payload = encode_array(DataType.TIMESTAMP, times)
    assert len(payload) < times.nbytes / 100


def test_page_roundtrip_with_null_mask():
    valid = np.arange(1000) % 7 != 0
    col = Column(DataType.BIGINT, np.arange(1000, dtype=np.int64), valid)
    back = decode_page(encode_page(col))
    assert np.array_equal(back.values, col.values)
    assert np.array_equal(back.valid, valid)


def test_page_roundtrip_varchar_nulls():
    values = np.array(["a", "", "b", "a"] * 25, dtype=object)
    valid = np.array([True, False, True, True] * 25)
    back = decode_page(encode_page(Column(DataType.VARCHAR, values, valid)))
    assert [v for v in back.values] == [v for v in values]
    assert np.array_equal(back.valid, valid)


def test_corrupted_page_checksum_detected():
    raw = bytearray(encode_page(
        Column(DataType.BIGINT, np.arange(100, dtype=np.int64))
    ))
    raw[-1] ^= 0xFF  # flip a payload bit
    with pytest.raises(CorruptSegmentError, match="checksum"):
        decode_page(bytes(raw))


# ---------------------------------------------------------------------------
# Segment files
# ---------------------------------------------------------------------------


def _write_segment(path, rows=40000):
    writer = SegmentWriter(path)
    writer.write_column(
        "t", Column(DataType.TIMESTAMP,
                    np.cumsum(np.full(rows, 1000, dtype=np.int64))))
    writer.write_column(
        "v", Column(DataType.BIGINT, np.arange(rows, dtype=np.int64),
                    np.arange(rows) % 11 != 0))
    writer.write_column(
        "s", Column(DataType.VARCHAR,
                    np.array(["x", "y"] * (rows // 2), dtype=object)))
    writer.finish()


def test_segment_lazy_column_reads(tmp_path):
    path = tmp_path / "seg.seg"
    _write_segment(path)
    pool = BufferPool(1 << 22)
    reader = SegmentReader(path, pool)
    assert reader.row_count == 40000
    col = reader.read_column("v")
    assert np.array_equal(col.values, np.arange(40000, dtype=np.int64))
    assert col.valid is not None and not col.valid[0]
    # Only v's pages were fetched; t and s stayed on disk.
    assert pool.stats.disk_reads == reader.pages_of("v")
    assert reader.total_pages() > reader.pages_of("v")
    reader.close()


def test_segment_corruption_detected_at_read(tmp_path):
    path = tmp_path / "seg.seg"
    _write_segment(path, rows=5000)
    pool = BufferPool(1 << 22)
    reader = SegmentReader(path, pool)
    # Find v's first page offset from the directory and corrupt it on disk.
    slot = reader._directory["v"][0]
    with open(path, "r+b") as handle:
        handle.seek(slot.offset + slot.length - 1)
        byte = handle.read(1)
        handle.seek(-1, os.SEEK_CUR)
        handle.write(bytes([byte[0] ^ 0xFF]))
    reader.close()
    fresh = SegmentReader(path, BufferPool(1 << 22))
    fresh.read_column("t")  # untouched column still reads fine
    with pytest.raises(CorruptSegmentError):
        fresh.read_column("v")
    fresh.close()


def test_segment_rejects_ragged_columns(tmp_path):
    writer = SegmentWriter(tmp_path / "seg.seg")
    writer.write_column("a", Column(DataType.BIGINT,
                                    np.arange(10, dtype=np.int64)))
    with pytest.raises(StorageError, match="rows"):
        writer.write_column("b", Column(DataType.BIGINT,
                                        np.arange(9, dtype=np.int64)))
    writer.abort()


# ---------------------------------------------------------------------------
# Buffer pool
# ---------------------------------------------------------------------------


def test_bufferpool_eviction_under_budget():
    pool = BufferPool(budget_bytes=1000)
    for i in range(10):
        pool.get(("seg", i), lambda: b"x" * 300)
        assert pool.used_bytes <= 1000
    assert pool.stats.evictions > 0
    assert pool.stats.disk_reads == 10


def test_bufferpool_lru_order():
    pool = BufferPool(budget_bytes=600)
    pool.get(("seg", 0), lambda: b"a" * 250)
    pool.get(("seg", 1), lambda: b"b" * 250)
    pool.get(("seg", 0), lambda: b"!")  # touch 0 → 1 becomes LRU victim
    pool.get(("seg", 2), lambda: b"c" * 250)
    assert ("seg", 0) in pool and ("seg", 2) in pool
    assert ("seg", 1) not in pool


def test_bufferpool_pins_block_eviction():
    pool = BufferPool(budget_bytes=500)
    pool.pin(("seg", 0), lambda: b"a" * 400)
    pool.pin(("seg", 1), lambda: b"b" * 400)  # over budget, both pinned
    assert ("seg", 0) in pool and ("seg", 1) in pool
    assert pool.used_bytes > pool.budget_bytes  # temporary overcommit
    pool.unpin(("seg", 0))  # first unpinned page is trimmed immediately
    assert pool.used_bytes <= pool.budget_bytes
    assert ("seg", 1) in pool  # still pinned, still resident
    pool.unpin(("seg", 1))
    with pytest.raises(StorageError):
        pool.unpin(("seg", 1))


def test_bufferpool_clear():
    pool = BufferPool(1 << 20)
    pool.pin(("seg", 0), lambda: b"page")
    with pytest.raises(StorageError, match="pinned"):
        pool.clear()
    pool.unpin(("seg", 0))
    pool.clear()
    assert len(pool) == 0 and pool.used_bytes == 0


def test_bufferpool_hits_do_not_reread():
    pool = BufferPool(1 << 20)
    loads = []
    for _ in range(5):
        pool.get(("seg", 0), lambda: loads.append(1) or b"page")
    assert len(loads) == 1
    assert pool.stats.hits == 4


# ---------------------------------------------------------------------------
# TableStore: manifest atomicity
# ---------------------------------------------------------------------------


def _toy_database():
    db = Database()
    db.execute("CREATE TABLE t (a BIGINT, b VARCHAR, PRIMARY KEY (a))")
    db.execute("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y'), (3, 'z')")
    return db


def test_store_roundtrip_via_catalog(tmp_path):
    db = _toy_database()
    db.attach(tmp_path / "store")
    assert db.checkpoint() == ["main.t"]

    db2 = Database()
    db2.attach(tmp_path / "store")
    result = db2.query("SELECT b FROM t WHERE a >= 2 ORDER BY a")
    assert result.columns[0].to_pylist() == ["y", "z"]
    # Projection pruning: only b's pages (plus filter column a) read.
    assert db2.last_report.pages_read == 2
    assert db2.last_report.pages_skipped == 0  # 2-column table, both needed
    result = db2.query("SELECT a FROM t ORDER BY a")
    assert db2.last_report.pages_skipped == 1  # b never left disk


def test_attach_rejects_schema_mismatch(tmp_path):
    db = _toy_database()
    db.attach(tmp_path / "store")
    db.checkpoint()

    db2 = Database()
    db2.execute("CREATE TABLE t (a BIGINT, b BIGINT)")  # wrong dtype for b
    with pytest.raises(CatalogError, match="does not match"):
        db2.attach(tmp_path / "store")


def test_attach_keeps_resident_rows_and_checkpoint_overwrites(tmp_path):
    """Attaching over a loaded table: memory wins, checkpoint republishes."""
    db = _toy_database()
    db.attach(tmp_path / "store")
    db.checkpoint()

    db2 = Database()
    db2.execute("CREATE TABLE t (a BIGINT, b VARCHAR)")
    db2.execute("INSERT INTO t (a, b) VALUES (9, 'q')")
    db2.attach(tmp_path / "store")
    # The resident row is served, not the three stored ones.
    assert db2.query("SELECT a FROM t").columns[0].to_pylist() == [9]
    assert db2.checkpoint() == ["main.t"]

    db3 = Database()
    db3.attach(tmp_path / "store")
    assert db3.query("SELECT a FROM t").columns[0].to_pylist() == [9]


def test_repeat_checkpoint_skips_unchanged_tables(tmp_path):
    db = _toy_database()
    db.attach(tmp_path / "store")
    assert db.checkpoint() == ["main.t"]
    assert db.checkpoint() == []  # same version: nothing rewritten
    db.execute("INSERT INTO t (a, b) VALUES (4, 'w')")
    assert db.checkpoint() == ["main.t"]


def test_manifest_crash_before_rename_preserves_old_state(tmp_path):
    """Simulate a crash between segment write and manifest rename."""
    root = tmp_path / "store"
    db = _toy_database()
    db.attach(root)
    db.checkpoint()

    store = TableStore(root)
    old_manifest = json.load(open(store.manifest_path))

    # The "crash": a new segment generation is fully written and the new
    # manifest reaches only the temp file — never the rename.
    db.execute("INSERT INTO t (a, b) VALUES (4, 'w')")
    table = db.table("main.t")
    store.save_table("main.t", table, commit=False)
    with open(store.manifest_path + ".tmp", "w") as handle:
        json.dump({"version": 99, "torn": True}, handle)

    # A fresh open sees the *old* committed manifest, fully intact.
    recovered = TableStore(root)
    assert json.load(open(recovered.manifest_path)) == old_manifest
    db2 = Database()
    db2.attach(recovered)
    assert db2.query("SELECT count(*) FROM t").columns[0].to_pylist() == [3]


def test_orphan_segments_swept_on_commit(tmp_path):
    root = tmp_path / "store"
    db = _toy_database()
    db.attach(root)
    db.checkpoint()
    first_gen = [n for n in os.listdir(root) if n.endswith(".seg")]
    db.execute("INSERT INTO t (a, b) VALUES (4, 'w')")  # detaches backing
    db.checkpoint()
    remaining = [n for n in os.listdir(root) if n.endswith(".seg")]
    assert len(remaining) == 1
    assert remaining != first_gen


def test_dml_on_disk_backed_table_materialises(tmp_path):
    db = _toy_database()
    db.attach(tmp_path / "store")
    db.checkpoint()

    db2 = Database()
    db2.attach(tmp_path / "store")
    table = db2.table("main.t")
    assert table.disk_backing is not None
    db2.execute("UPDATE t SET b = 'q' WHERE a = 2")
    assert table.disk_backing is None  # copy-on-write detach
    assert db2.query("SELECT b FROM t WHERE a = 2").columns[0].to_pylist() \
        == ["q"]
    # PK enforcement still works after materialisation.
    from repro.errors import ConstraintError
    with pytest.raises(ConstraintError):
        db2.execute("INSERT INTO t (a, b) VALUES (1, 'dup')")


# ---------------------------------------------------------------------------
# Warm-start equivalence (the acceptance criterion)
# ---------------------------------------------------------------------------


FIG1_STYLE = (
    "SELECT station, count(*) AS n, avg(sample_value) AS mean_v "
    "FROM mseed.dataview GROUP BY station ORDER BY station"
)


def test_warm_start_equivalence(tiny_repo, tmp_path):
    from repro.seismology.warehouse import SeismicWarehouse

    ckpt = tmp_path / "ckpt"
    cold = SeismicWarehouse(tiny_repo.root, mode="lazy",
                            storage_path=ckpt)
    before = cold.query(FIG1_STYLE)
    assert cold.files_extracted_by_last_query()  # cold run extracts
    spilled = cold.checkpoint()
    assert spilled == len(cold.cache) > 0

    warm = SeismicWarehouse(tiny_repo.root, mode="lazy", storage_path=ckpt)
    assert warm.load_report.strategy.endswith("+warm")
    assert warm.cache.stats.restored == spilled
    after = warm.query(FIG1_STYLE)
    # Identical answers, zero re-extraction: every record is a cache hit.
    for left, right in zip(before.columns, after.columns):
        assert left.to_pylist() == right.to_pylist()
    assert warm.files_extracted_by_last_query() == []
    assert not any(t["op"] == "extract" for t in warm.last_trace)
    assert any(t["op"] == "cache_fetch" for t in warm.last_trace)


def test_warm_start_metadata_scans_are_lazy_io(tiny_repo, tmp_path):
    from repro.seismology.warehouse import SeismicWarehouse

    ckpt = tmp_path / "ckpt"
    cold = SeismicWarehouse(tiny_repo.root, mode="lazy", storage_path=ckpt)
    cold.query(FIG1_STYLE)
    cold.checkpoint()

    warm = SeismicWarehouse(tiny_repo.root, mode="lazy", storage_path=ckpt)
    warm.query("SELECT count(*) FROM mseed.files")
    report = warm.db.last_report
    # Counting rows needs one column; the other file-metadata pages
    # (station, channel, times, ...) never leave disk.
    assert report.pages_read >= 1
    assert report.pages_skipped > report.pages_read
    assert "DiskScan" in warm.explain("SELECT count(*) FROM mseed.files")


def test_warm_start_still_detects_staleness(tiny_repo, tmp_path, monkeypatch):
    """A file changed after checkpoint must be re-extracted, not served."""
    import shutil

    from repro.seismology.warehouse import SeismicWarehouse

    repo_copy = tmp_path / "repo"
    shutil.copytree(tiny_repo.root, repo_copy)
    ckpt = tmp_path / "ckpt"
    cold = SeismicWarehouse(repo_copy, mode="lazy", storage_path=ckpt)
    cold.query(FIG1_STYLE)
    cold.checkpoint()

    # Touch one data file with a newer mtime.
    victim = next(
        os.path.join(dirpath, name)
        for dirpath, _dirs, names in os.walk(repo_copy)
        for name in names if name.endswith(".mseed")
    )
    stat = os.stat(victim)
    os.utime(victim, ns=(stat.st_atime_ns + 10**9,
                         stat.st_mtime_ns + 10**9))

    warm = SeismicWarehouse(repo_copy, mode="lazy", storage_path=ckpt)
    warm.query(FIG1_STYLE)
    assert any(t["op"] == "refresh" for t in warm.last_trace)
    assert warm.cache.stats.stale_drops > 0


def test_warm_start_adopts_checkpoint_granularity(tiny_repo, tmp_path):
    from repro.etl.metadata import Granularity
    from repro.seismology.warehouse import SeismicWarehouse

    ckpt = tmp_path / "ckpt"
    cold = SeismicWarehouse(tiny_repo.root, mode="lazy",
                            granularity=Granularity.FILE, storage_path=ckpt)
    cold.query(FIG1_STYLE)
    cold.checkpoint()

    # Reopened with the default (RECORD): the checkpoint's granularity
    # wins, so refreshes keep a consistent seq_no scheme.
    warm = SeismicWarehouse(tiny_repo.root, mode="lazy", storage_path=ckpt)
    assert warm.pipeline.granularity is Granularity.FILE
    assert warm.load_report.strategy == "lazy[file]+warm"


def test_defer_load_opts_out_of_warm_start(tiny_repo, tmp_path):
    from repro.seismology.warehouse import SeismicWarehouse

    ckpt = tmp_path / "ckpt"
    cold = SeismicWarehouse(tiny_repo.root, mode="lazy", storage_path=ckpt)
    cold.query(FIG1_STYLE)
    cold.checkpoint()

    deferred = SeismicWarehouse(tiny_repo.root, mode="lazy",
                                storage_path=ckpt, defer_load=True)
    assert deferred.load_report is None  # constructor loaded nothing
    deferred.load()  # the contractual explicit load must not conflict
    result = deferred.query(FIG1_STYLE)
    assert result.columns[0].to_pylist() == \
        cold.query(FIG1_STYLE).columns[0].to_pylist()


def test_eager_warehouse_recheckpoints_over_existing_store(tiny_repo,
                                                           tmp_path):
    from repro.seismology.warehouse import SeismicWarehouse

    ckpt = tmp_path / "ckpt"
    first = SeismicWarehouse(tiny_repo.root, mode="eager",
                             storage_path=ckpt)
    first.checkpoint()
    # A second eager run over the same store dir loads fresh and must be
    # able to checkpoint again (resident rows win, store is rewritten).
    second = SeismicWarehouse(tiny_repo.root, mode="eager",
                              storage_path=ckpt)
    second.checkpoint()
    db = Database()
    db.attach(ckpt)
    assert db.query("SELECT count(*) FROM mseed.files").scalar() \
        == second.query("SELECT count(*) FROM mseed.files").scalar()


def test_checkpoint_of_eager_warehouse(tiny_repo, tmp_path):
    from repro.seismology.warehouse import SeismicWarehouse

    eager = SeismicWarehouse(tiny_repo.root, mode="eager")
    expected = eager.query(FIG1_STYLE)
    eager.checkpoint(tmp_path / "ckpt")

    db = Database()
    db.attach(tmp_path / "ckpt")
    got = db.query(FIG1_STYLE.replace("mseed.dataview", "mseed.data d, "
                                      "mseed.files f WHERE "
                                      "d.file_location = f.file_location"))
    # Same stations and counts straight from compressed segments.
    assert got.columns[0].to_pylist() == expected.columns[0].to_pylist()
    assert got.columns[1].to_pylist() == expected.columns[1].to_pylist()


# ---------------------------------------------------------------------------
# Cache snapshot corner cases
# ---------------------------------------------------------------------------


def test_cache_snapshot_roundtrip(tmp_path):
    from repro.etl.cache import ExtractionCache

    cache = ExtractionCache()
    cache.put("f1", 1, 100, {
        "sample_time": np.cumsum(np.full(500, 1000, dtype=np.int64)),
        "sample_value": np.arange(500, dtype=np.int64),
    }, cost_estimate=2.5)
    cache.put("f2", 7, 200, {"sample_value": np.ones(10, dtype=np.int64)})
    store = TableStore(tmp_path / "store")
    assert cache.spill(store) == 2

    fresh = ExtractionCache()
    assert fresh.restore(store) == 2
    got = fresh.get("f1", 1, ["sample_time", "sample_value"])
    assert got is not None
    assert np.array_equal(got["sample_value"], np.arange(500))
    # mtime survives, so staleness detection still works after restore.
    assert fresh.validate_file("f1", 100)
    assert not fresh.validate_file("f1", 999)


def test_cache_snapshot_respects_budget(tmp_path):
    from repro.etl.cache import ExtractionCache

    big = ExtractionCache()
    for seq in range(10):
        big.put("f", seq, 1,
                {"sample_value": np.arange(1000, dtype=np.int64)})
    store = TableStore(tmp_path / "store")
    big.spill(store)

    entry_bytes = 8000
    small = ExtractionCache(budget_bytes=entry_bytes * 3 + 8)
    small.restore(store)
    assert len(small) <= 3
    assert small.used_bytes <= small.budget_bytes


def test_empty_cache_spill_roundtrip(tmp_path):
    from repro.etl.cache import ExtractionCache

    store = TableStore(tmp_path / "store")
    assert ExtractionCache().spill(store) == 0
    assert not store.has_cache_snapshot()
    assert ExtractionCache().restore(store) == 0


# ---------------------------------------------------------------------------
# Plan cache × storage attachment (catalog schema epoch)
# ---------------------------------------------------------------------------


def _physical_node_types(db):
    """Operator class names of the last physical plan, top-down."""
    names = []
    stack = [db.last_plan_physical]
    while stack:
        node = stack.pop()
        names.append(type(node).__name__)
        stack.extend(node.children())
    return names


def test_attach_mid_session_recompiles_cached_plans(tmp_path):
    """A plan compiled before attach() must not keep serving in-memory
    scans once a disk-backed PDiskScan becomes available: attach bumps
    the catalog schema epoch, making every cached plan unreachable."""
    db = _toy_database()
    db.attach(tmp_path / "store")
    db.checkpoint()

    db2 = Database()
    db2.execute("CREATE TABLE t (a BIGINT, b VARCHAR, PRIMARY KEY (a))")
    sql = "SELECT a FROM t ORDER BY a"
    assert db2.query(sql).row_count == 0  # compiled over the empty table
    run = db2.open_query(sql)
    run.drain()
    assert run.report.plan_cache_hit
    assert "PTableScan" in _physical_node_types(db2)

    db2.attach(tmp_path / "store")  # mid-session: t becomes disk-backed
    run = db2.open_query(sql)
    result, report = run.drain(), run.report
    assert not report.plan_cache_hit  # recompiled, not served stale
    assert "PDiskScan" in _physical_node_types(db2)
    assert result.columns[0].to_pylist() == [1, 2, 3]
    assert report.pages_read > 0


def test_dml_detach_recompiles_cached_disk_plans(tmp_path):
    """The reverse direction: DML materialises a disk-backed table (the
    backing detaches), and the cached PDiskScan plan must be recompiled
    rather than keep pointing at the dropped backing."""
    db = _toy_database()
    db.attach(tmp_path / "store")
    db.checkpoint()

    db2 = Database()
    db2.attach(tmp_path / "store")
    sql = "SELECT a FROM t ORDER BY a"
    assert db2.query(sql).columns[0].to_pylist() == [1, 2, 3]
    run = db2.open_query(sql)
    run.drain()
    assert run.report.plan_cache_hit
    assert "PDiskScan" in _physical_node_types(db2)

    db2.execute("INSERT INTO t (a, b) VALUES (4, 'w')")
    run = db2.open_query(sql)
    result, report = run.drain(), run.report
    assert not report.plan_cache_hit  # _invalidate_for dropped the plan
    assert "PDiskScan" not in _physical_node_types(db2)
    assert result.columns[0].to_pylist() == [1, 2, 3, 4]


def test_checkpoint_keeps_resident_plans_valid(tmp_path):
    """checkpoint() writes segments but leaves tables resident: cached
    plans stay correct (and stay cached — no spurious recompile)."""
    db = _toy_database()
    db.attach(tmp_path / "store")
    sql = "SELECT a FROM t ORDER BY a"
    before = db.query(sql).columns[0].to_pylist()
    db.checkpoint()
    run = db.open_query(sql)
    result, report = run.drain(), run.report
    assert report.plan_cache_hit
    assert result.columns[0].to_pylist() == before
    assert "PTableScan" in _physical_node_types(db)


# ---------------------------------------------------------------------------
# Promoted segments in the store manifest
# ---------------------------------------------------------------------------


def _promoted_entries(n=3, rows=100):
    return [
        (f"f{i}.seed", i, 1000 + i,
         {"sample_value": np.arange(rows, dtype=np.int64) + i,
          "sample_time": np.arange(rows, dtype=np.int64) * 25_000})
        for i in range(n)
    ]


def test_promoted_segment_roundtrip_across_reopen(tmp_path):
    store = TableStore(tmp_path / "store")
    segment, directory = store.save_promoted_segment(_promoted_entries())
    assert len(directory) == 3
    assert os.path.exists(os.path.join(store.root, segment))

    reopened = TableStore(tmp_path / "store")
    assert segment in reopened.promoted_segments()
    from repro.storage.promoted import PromotedStore

    promoted = PromotedStore(reopened)
    assert len(promoted) == 3
    served = promoted.fetch("f1.seed", 1, ["sample_value"], 1001)
    assert served is not None
    columns, pages_read = served
    assert np.array_equal(columns["sample_value"],
                          np.arange(100, dtype=np.int64) + 1)
    assert pages_read > 0


def test_promoted_fetch_misses(tmp_path):
    from repro.storage.promoted import PromotedStore

    store = TableStore(tmp_path / "store")
    store.save_promoted_segment(_promoted_entries(1))
    promoted = PromotedStore(store)
    # Unknown unit / uncovered column / stale mtime all miss.
    assert promoted.fetch("nope.seed", 0, ["sample_value"], 1000) is None
    assert promoted.fetch("f0.seed", 0, ["other_col"], 1000) is None
    assert promoted.fetch("f0.seed", 0, ["sample_value"], 9999) is None
    assert ("f0.seed", 0) not in promoted  # the stale unit was dropped
    assert promoted.stats.stale_drops == 1


def test_promoted_segments_survive_unrelated_commits(tmp_path):
    """The orphan sweep must treat promoted segments as live."""
    db = _toy_database()
    store = db.attach(tmp_path / "store")
    segment, _ = store.save_promoted_segment(_promoted_entries(2))
    db.checkpoint()  # commits + sweeps orphans
    assert os.path.exists(os.path.join(store.root, segment))

    store.drop_promoted_segment(segment)  # demotion sweeps the file
    assert not os.path.exists(os.path.join(store.root, segment))
    assert segment not in TableStore(tmp_path / "store").promoted_segments()


def test_promoted_drop_segment_clears_index(tmp_path):
    from repro.storage.promoted import PromotedStore

    store = TableStore(tmp_path / "store")
    promoted = PromotedStore(store)
    segment = promoted.promote_batch(_promoted_entries(2))
    assert len(promoted) == 2
    assert promoted.drop_segment(segment) == 2
    assert len(promoted) == 0
    assert promoted.fetch("f0.seed", 0, ["sample_value"], 1000) is None


def test_promote_batch_rejects_empty_and_repromotes(tmp_path):
    from repro.storage.promoted import PromotedStore

    store = TableStore(tmp_path / "store")
    promoted = PromotedStore(store)
    assert promoted.promote_batch([]) is None
    first = promoted.promote_batch(_promoted_entries(1))
    second = promoted.promote_batch(_promoted_entries(1))  # re-promotion
    assert first != second
    assert len(promoted) == 1  # the new copy won the index
    assert promoted.unit("f0.seed", 0).segment == second


# ---------------------------------------------------------------------------
# Buffer pool: pinned-overcommit stress (ISSUE-5 satellite)
# ---------------------------------------------------------------------------


def test_bufferpool_pinned_overcommit_randomized_stress():
    """Randomized multi-thread pin/unpin where pinned pages alone exceed
    the budget: no deadlock, pinned pages are never evicted (so never
    double-evicted), and accounting returns to <= budget once pins drop.
    """
    import threading

    pool = BufferPool(budget_bytes=4096)
    n_keys = 40
    sizes = {i: 256 + (i * 37) % 512 for i in range(n_keys)}
    errors: list[BaseException] = []

    def worker(worker_id: int) -> None:
        rng = np.random.default_rng(worker_id)
        held: list[tuple[str, int]] = []
        try:
            for _ in range(300):
                key = ("seg", int(rng.integers(n_keys)))
                page = pool.pin(key, lambda k=key: b"x" * sizes[k[1]])
                held.append(key)
                if len(page) != sizes[key[1]]:
                    raise AssertionError("wrong page content served")
                # A page we hold pinned must be resident right now —
                # eviction (single or double) of pinned pages is a bug.
                if key not in pool or pool.pin_count(key) <= 0:
                    raise AssertionError("pinned page evicted")
                while len(held) > int(rng.integers(1, 9)):
                    pool.unpin(held.pop(int(rng.integers(len(held)))))
        except BaseException as exc:  # surfaced to the main thread
            errors.append(exc)
        finally:
            for key in held:
                pool.unpin(key)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads), "stress test deadlocked"
    assert not errors, errors

    # Every pin dropped: the transient overcommit must have trimmed back,
    # and the byte counter must agree exactly with the resident pages
    # (double-eviction would corrupt it).
    assert not pool._pins
    assert pool.used_bytes <= pool.budget_bytes
    assert pool.used_bytes == sum(len(p) for p in pool._pages.values())
