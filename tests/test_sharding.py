"""Sharded scatter-gather execution: correctness, failure, lifecycle.

The load-bearing guarantee is bit-exactness: a sharded warehouse must
answer every query identically to the single-process engine — decomposed
aggregates (per-shard partials + combine) and scattered-extraction
queries alike.  The differential oracle enforces it three ways at once,
because ``query_rowpath`` runs the preserved single-process plan while
``query``/``open_query`` run the sharded one.
"""

from __future__ import annotations

import logging
import os

import numpy as np
import pytest

from repro.errors import ServiceError, ShardConfigError, ShardWorkerError
from repro.mseed.files import write_mseed_file
from repro.seismology.queries import analytical_suite, fig1_query1, \
    fig1_query2
from repro.seismology.warehouse import SeismicWarehouse
from repro.shard.partition import ShardMap

CORPUS = [("fig1_q1", fig1_query1()), ("fig1_q2", fig1_query2())] + [
    (spec.qid, spec.sql) for spec in analytical_suite()
]


@pytest.fixture(scope="module")
def baseline(demo_repo):
    wh = SeismicWarehouse(demo_repo.root, mode="lazy")
    yield wh
    wh.close()


@pytest.fixture(scope="module")
def sharded2(demo_repo):
    wh = SeismicWarehouse(demo_repo.root, mode="lazy", shards=2)
    yield wh
    wh.close()


@pytest.fixture(scope="module")
def sharded3(demo_repo):
    wh = SeismicWarehouse(demo_repo.root, mode="lazy", shards=3)
    yield wh
    wh.close()


def _rewrite_file(entry, offset=1000):
    samples = (np.arange(entry.n_samples, dtype=np.int32) % 100) + offset
    write_mseed_file(
        entry.path,
        network=entry.network, station=entry.station,
        location=entry.location, channel=entry.channel,
        start_time_us=entry.start_time_us, sample_rate=entry.sample_rate,
        samples=samples,
    )
    stat = os.stat(entry.path)
    os.utime(entry.path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**9))


# -- partitioning ------------------------------------------------------------


def test_shard_map_hash_partition_is_total_and_stable():
    uris = [f"dir/file-{i}.mseed" for i in range(37)]
    m = ShardMap.build(uris, 4, by="hash")
    assert sum(m.counts()) == 37
    for uri in uris:
        assert uri in m.uris_of(m.shard_of(uri))
    again = ShardMap.build(list(reversed(uris)), 4, by="hash")
    assert all(m.shard_of(u) == again.shard_of(u) for u in uris)


def test_shard_map_range_partition_is_contiguous():
    uris = [f"f{i:03d}.mseed" for i in range(10)]
    m = ShardMap.build(uris, 3, by="range")
    chunks = [m.uris_of(i) for i in range(3)]
    assert [u for chunk in chunks for u in chunk] == sorted(uris)
    assert all(m.shard_of(u) == i
               for i, chunk in enumerate(chunks) for u in chunk)


# -- bit-exactness -----------------------------------------------------------


@pytest.mark.oracle
@pytest.mark.parametrize("fixture", ["sharded2", "sharded3"])
@pytest.mark.parametrize("qid,sql", CORPUS)
def test_sharded_differential_oracle(request, fixture, qid, sql):
    """Vectorised (sharded), streamed (sharded) and rowpath (preserved
    single-process plan) agree bit-for-bit on the whole corpus."""
    from oracle import run_differential

    wh = request.getfixturevalue(fixture)
    run_differential(wh.db, sql)


@pytest.mark.parametrize("qid,sql", CORPUS)
def test_sharded_matches_single_process(baseline, sharded2, qid, sql):
    from oracle import column_fingerprint

    expected = baseline.query(sql)
    got = sharded2.query(sql)
    assert got.names == expected.names
    assert [column_fingerprint(c) for c in got.columns] == \
           [column_fingerprint(c) for c in expected.columns], qid


def test_shards_one_is_the_unmodified_engine(demo_repo, baseline):
    from oracle import column_fingerprint

    wh = SeismicWarehouse(demo_repo.root, mode="lazy", shards=1)
    try:
        assert wh.sharding is None
        assert wh.db.shard_router is None
        assert wh.pipeline.binding.remote_extractor is None
        sql = fig1_query2()
        assert [column_fingerprint(c) for c in wh.query(sql).columns] == \
               [column_fingerprint(c) for c in baseline.query(sql).columns]
    finally:
        wh.close()


# -- plan decomposition ------------------------------------------------------


def test_decomposable_queries_scatter(sharded2):
    router = sharded2.db.shard_router
    before = router.decomposed
    sharded2.db.clear_plan_cache()
    sharded2.query(fig1_query2())  # MIN/MAX GROUP BY: decomposes
    assert router.decomposed == before + 1
    plan = sharded2.explain(fig1_query2())
    assert "== sharded execution (2 shards) ==" in plan
    assert "scatter (per shard):" in plan
    assert "combine:" in plan


def test_non_decomposable_queries_fall_back(sharded2):
    stddev = next(s.sql for s in analytical_suite() if s.qid == "Q7")
    plan = sharded2.explain(stddev)
    assert "single plan; extraction scattered" in plan
    router = sharded2.db.shard_router
    before = router.fallbacks
    sharded2.db.clear_plan_cache()
    sharded2.query(stddev)
    assert router.fallbacks > before


def test_metadata_queries_stay_parent_local(sharded2):
    q8 = next(s.sql for s in analytical_suite() if s.qid == "Q8")
    router = sharded2.db.shard_router
    decomposed, fallbacks = router.decomposed, router.fallbacks
    sharded2.db.clear_plan_cache()
    sharded2.query(q8)  # touches only metadata tables: never offered
    assert (router.decomposed, router.fallbacks) == (decomposed, fallbacks)


def test_report_folds_worker_counters(sharded2):
    sharded2.sharding.clear_caches()
    sharded2.db.clear_plan_cache()
    run = sharded2.db.open_query(fig1_query2())
    result, report, trace = run.drain(), run.report, run.trace
    assert result.row_count > 0
    assert report.rows_extracted > 0  # extraction happened in workers
    partials = [e for e in trace if e.get("op") == "shard_partial"]
    assert len(partials) == 2
    assert sum(e["rows_extracted"] for e in partials) == \
           report.rows_extracted


def test_sys_shards_table(sharded2):
    rows = sharded2.query(
        "SELECT shard_id, alive, files FROM sys.shards "
        "ORDER BY shard_id").rows()
    assert [r[0] for r in rows] == [0, 1]
    assert all(r[1] for r in rows)
    assert sum(r[2] for r in rows) == 12  # every demo file owned once


def test_shard_metrics_exported(sharded2):
    sharded2.query(fig1_query2())
    names = sharded2.metrics()
    assert names["repro_shard_workers"]["samples"][0]["value"] == 2
    assert "repro_shard_queries_total" in names
    assert "repro_shard_plans_decomposed_total" in names


# -- failure handling --------------------------------------------------------


def test_worker_killed_mid_request_raises_typed_error(demo_repo):
    wh = SeismicWarehouse(demo_repo.root, mode="lazy", shards=2)
    try:
        executor = wh.sharding
        handle = executor._handles[0]
        # Deterministic mid-request death: the request is in flight (the
        # reply can never come) when the worker is SIGKILLed.
        with handle.lock:
            handle.conn.send({"cmd": "ping"})
            handle.proc.kill()
            handle.proc.join(timeout=10.0)
            # Drain whatever the worker flushed before dying, then the
            # next wait must surface the death as a typed error.
            with pytest.raises(ShardWorkerError):
                executor._recv(handle, 10.0, "ping")
                executor._recv(handle, 10.0, "ping")
        # The pool self-heals: the next scatter respawns shard 0 and the
        # query still answers correctly.
        result = wh.query(fig1_query2())
        assert result.row_count > 0
        assert executor.stats[0].restarts >= 1
        assert executor.stats[0].errors >= 1
    finally:
        wh.close()


def test_worker_killed_between_queries_respawns(demo_repo):
    wh = SeismicWarehouse(demo_repo.root, mode="lazy", shards=2)
    try:
        before = wh.query(fig1_query2()).rows()
        handle = wh.sharding._handles[1]
        handle.proc.kill()
        handle.proc.join(timeout=10.0)
        assert wh.query(fig1_query2()).rows() == before
        assert wh.sharding.stats[1].restarts == 1
    finally:
        wh.close()


def test_rewrite_invalidates_owning_shard_only(mutable_repo):
    wh = SeismicWarehouse(mutable_repo.root, mode="lazy", shards=2,
                          enable_recycler=False)
    try:
        sql = ("SELECT F.station, COUNT(D.sample_value) AS n "
               "FROM mseed.dataview GROUP BY F.station ORDER BY F.station")
        wh.query(sql)  # populate every worker's extraction cache
        entry = next(e for e in mutable_repo.entries
                     if e.station == "HGN" and e.channel == "BHZ")
        uri = os.path.relpath(entry.path, mutable_repo.root).replace(
            os.sep, "/")
        owner = wh.sharding.shard_map.shard_of(uri)
        before = {s["pid"]: s["cache"]["stale_drops"]
                  for s in wh.sharding.worker_stats()}
        _rewrite_file(entry, offset=50_000)
        after_result = wh.query(sql)
        assert after_result.row_count > 0
        after = wh.sharding.worker_stats()
        for shard_id, stats in enumerate(after):
            drops = stats["cache"]["stale_drops"] - before[stats["pid"]]
            if shard_id == owner:
                assert drops > 0, "owning shard must drop stale entries"
            else:
                assert drops == 0, \
                    "non-owning shard caches must be untouched"
    finally:
        wh.close()


# -- lifecycle & validation --------------------------------------------------


def test_close_drains_shards_before_storage_and_is_idempotent(demo_repo,
                                                              monkeypatch):
    wh = SeismicWarehouse(demo_repo.root, mode="lazy", shards=2)
    executor = wh.sharding
    order = []
    original_close = executor.close
    monkeypatch.setattr(executor, "close",
                        lambda: (order.append("shards"), original_close())[1])
    original_unreg = wh.metrics_registry.unregister_collector
    monkeypatch.setattr(
        wh.metrics_registry, "unregister_collector",
        lambda c: (order.append("observability"), original_unreg(c))[1])
    wh.close()
    assert order == ["shards", "observability"]
    assert executor.closed
    assert wh.sharding is None
    assert wh.db.shard_router is None
    assert wh.pipeline.binding.remote_extractor is None
    wh.close()  # second close: strictly a no-op
    assert order == ["shards", "observability"]


def test_service_owns_sharding_lifecycle(demo_repo):
    wh = SeismicWarehouse(demo_repo.root, mode="lazy")
    try:
        assert wh.sharding is None
        with wh.serve(max_workers=2, shards=2) as svc:
            assert wh.sharding is not None
            session = svc.session("t")
            outcome = session.submit(fig1_query2()).result()
            assert outcome.result.row_count > 0
        assert wh.sharding is None  # service created it, service tore it down
    finally:
        wh.close()


def test_shard_count_validation(demo_repo):
    with pytest.raises(ShardConfigError, match="positive integer"):
        SeismicWarehouse(demo_repo.root, mode="lazy", shards=0)
    with pytest.raises(ShardConfigError, match="positive integer"):
        SeismicWarehouse(demo_repo.root, mode="lazy", shards=-3)
    with pytest.raises(ShardConfigError, match="mode='lazy'"):
        SeismicWarehouse(demo_repo.root, mode="eager", shards=2)
    with pytest.raises(ShardConfigError, match="'hash' or 'range'"):
        SeismicWarehouse(demo_repo.root, mode="lazy", shard_by="modulo")


def test_custom_adapter_rejected_when_sharded(demo_repo):
    from repro.etl.mseed_adapter import MSeedAdapter

    class Custom(MSeedAdapter):
        pass

    with pytest.raises(ShardConfigError, match="custom adapter"):
        SeismicWarehouse(demo_repo.root, mode="lazy", shards=2,
                         adapter=Custom())


def test_service_config_validates_shards():
    from repro.service.service import ServiceConfig

    with pytest.raises(ServiceError, match="shards"):
        ServiceConfig(shards=0)
    with pytest.raises(ServiceError, match="shards"):
        ServiceConfig(shards=True)


def test_more_shards_than_files_warns(tiny_repo, caplog):
    with caplog.at_level(logging.WARNING, logger="repro.warehouse"):
        wh = SeismicWarehouse(tiny_repo.root, mode="lazy", shards=3)
    try:
        assert any("exceeds the repository's" in r.message
                   for r in caplog.records)
        # Empty shards are harmless: partials return zero rows.
        assert wh.query(fig1_query2()).row_count >= 0
    finally:
        wh.close()


def test_cli_shards_flag(capsys):
    from repro.net.cli import build_parser, main

    assert "--shards" in build_parser().format_help()
    assert main(["--shards", "0", "--auth-token", "t=s"]) == 2
    assert "shards" in capsys.readouterr().err
    assert main(["--shards", "2", "--mode", "eager",
                 "--auth-token", "t=s"]) == 2
    assert "--mode lazy" in capsys.readouterr().err
